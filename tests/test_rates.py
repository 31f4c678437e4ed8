import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import rsmasec as rs
from rsmasec.channel import error_covariance
from rsmasec.rates import _logsumexp, common_se, leakage_se, lse_max, lse_min, private_se


def manual_realization(user_channels, eve_channels=None, kappa=0.0):
    """Realization with hand-picked channels and identity covariances."""
    h = np.asarray(user_channels, dtype=complex)
    k, n = h.shape
    g = (np.zeros((0, n), dtype=complex) if eve_channels is None
         else np.asarray(eve_channels, dtype=complex))
    eye = np.eye(n, dtype=complex)
    return rs.ChannelRealization(
        user_channels=h,
        eve_channels=g,
        user_estimates=h.copy(),
        error_covs=np.tile(error_covariance(eye, kappa), (k, 1, 1)),
        user_covs=np.tile(eye, (k, 1, 1)),
        eve_covs=np.tile(eye, (g.shape[0], 1, 1)),
    )


def test_precoder_stack_normalization():
    vec = np.arange(1, 9, dtype=complex)
    stack = rs.PrecoderStack(vec, 4)
    assert stack.n_blocks == 2
    unit = stack.normalized()
    assert abs(unit.norm - 1.0) < 1e-12
    assert np.allclose(unit.entries * stack.norm, vec)


def test_precoder_stack_rejects_single_block():
    with pytest.raises(ValueError):
        rs.PrecoderStack(np.ones(4, dtype=complex), 4)
    with pytest.raises(ValueError):
        rs.PrecoderStack(np.ones(6, dtype=complex), 4)


def test_common_rate_hand_value():
    # one user, h = (1, 0), f_c = (1/sqrt2, 0), f_1 = (0, 1/sqrt2), sigma^2/P = 1:
    # SINR_c = 0.5 / (0 + 1) so the rate is exactly log2(1.5)
    cfg = rs.SystemConfig(n_antennas=2, n_secret=1, n_normal=0, n_eves=0,
                          symbol_power=1.0)
    real = manual_realization([[1.0, 0.0]])
    f = np.array([1 / math.sqrt(2), 0.0, 0.0, 1 / math.sqrt(2)], dtype=complex)
    stack = rs.PrecoderStack(f, 2)
    common = common_se(real, stack, cfg)
    assert abs(common[0] - math.log2(1.5)) < 1e-12
    # the private stream is orthogonal to the channel here
    assert private_se(real, stack, cfg)[0] == 0.0
    report = rs.sum_secrecy_se(real, stack, cfg)
    assert abs(report.sum_secrecy_se - math.log2(1.5)) < 1e-12
    assert report.leakage_per_secret[0] == 0.0


def test_private_rate_excludes_common_interference():
    # post-cancellation: the common stream must not appear in the denominator
    cfg = rs.SystemConfig(n_antennas=2, n_secret=1, n_normal=1, n_eves=0,
                          symbol_power=1.0)
    real = manual_realization([[1.0, 0.0], [0.0, 1.0]])
    f = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(3)
    stack = rs.PrecoderStack(f, 2)
    private = private_se(real, stack, cfg)
    # user 0: signal 1/3, interference from f_2 is 0, noise 1
    assert abs(private[0] - math.log2(1.0 + 1.0 / 3.0)) < 1e-12


def test_leakage_ordering_and_sets(fig_config, scenario, unit_stack):
    rng = np.random.default_rng(2)
    stack = rs.PrecoderStack(unit_stack(rng, 20), 4)
    for s in range(fig_config.n_secret):
        values, worst = leakage_se(scenario, stack, fig_config, s)
        # two eavesdroppers plus three other users
        assert values.shape == (5,)
        assert worst == values.max()
    with pytest.raises(ValueError):
        leakage_se(scenario, stack, fig_config, fig_config.n_secret)


def test_leakage_empty_wiretap_set():
    cfg = rs.SystemConfig(n_antennas=2, n_secret=1, n_normal=0, n_eves=0,
                          symbol_power=1.0)
    real = manual_realization([[1.0, 0.0]])
    stack = rs.PrecoderStack(np.array([1.0, 0, 0, 1.0]) / math.sqrt(2), 2)
    values, worst = leakage_se(real, stack, cfg, 0)
    assert values.size == 0
    assert worst == 0.0


def test_secrecy_clamps_at_zero():
    # an eavesdropper with the same channel as the user and less noise
    cfg = rs.SystemConfig(n_antennas=2, n_secret=1, n_normal=0, n_eves=1,
                          symbol_power=1.0, noise_user=1.0, noise_eve=0.01)
    real = manual_realization([[1.0, 0.0]], eve_channels=[[1.0, 0.0]])
    f = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2)
    stack = rs.PrecoderStack(f, 2)
    report = rs.sum_secrecy_se(real, stack, cfg)
    assert report.leakage_per_secret[0] > private_se(real, stack, cfg)[0]
    assert report.secrecy_per_secret[0] == 0.0


def test_report_totals_are_consistent(fig_config, scenario, unit_stack):
    stack = rs.PrecoderStack(unit_stack(np.random.default_rng(8), 20), 4)
    report = rs.sum_secrecy_se(scenario, stack, fig_config)
    rebuilt = (report.common_min
               + report.secrecy_per_secret.sum()
               + report.private_per_user[fig_config.n_secret:].sum())
    assert abs(report.sum_secrecy_se - rebuilt) < 1e-12
    assert report.common_min == report.common_per_user.min()


def test_lse_constant_vectors_hit_identity():
    for alpha in (1.0, 0.3, 0.01):
        for n in (1, 2, 5):
            v = np.full(n, 1.7)
            assert abs(lse_min(v, alpha) - (1.7 - alpha * math.log(n))) < 1e-12
            assert abs(lse_max(v, alpha) - (1.7 + alpha * math.log(n))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.floats(-50, 50), min_size=1, max_size=10),
    alpha=st.sampled_from([1.0, 0.3, 0.01]),
)
def test_lse_sandwich_property(values, alpha):
    v = np.asarray(values)
    width = alpha * math.log(v.size)
    smin = lse_min(v, alpha)
    smax = lse_max(v, alpha)
    assert v.min() - width - 1e-9 <= smin <= v.min() + 1e-9
    assert v.max() - 1e-9 <= smax <= v.max() + width + 1e-9


def test_lse_rejects_bad_input():
    with pytest.raises(ValueError):
        lse_min([1.0], 0.0)
    with pytest.raises(ValueError):
        lse_max([1.0], -0.5)
    with pytest.raises(ValueError):
        lse_min([], 0.3)


def test_lse_survives_extreme_scales():
    # alpha = 0.01 with rates in the hundreds must not overflow
    v = np.array([500.0, -500.0, 250.0])
    assert math.isfinite(lse_min(v, 0.01))
    assert math.isfinite(lse_max(v, 0.01))


_LSE_ENTRIES = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, 1.0, -2.5]),  # repeated often, so maxima tie
    st.sampled_from([math.inf, -math.inf, math.nan]),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_LSE_ENTRIES, min_size=1, max_size=12))
def test_logsumexp_matches_scipy_bit_for_bit(values):
    v = np.asarray(values)
    with np.errstate(all="ignore"):
        ours = _logsumexp(v)
        ref = logsumexp(v)
    if np.isnan(v).any():
        assert math.isnan(ours) and math.isnan(ref)
    else:
        assert ours == ref


@pytest.mark.parametrize("values", [
    [3.25], [-math.inf], [math.inf], [math.nan],
    [2.0, 2.0, 2.0], [1e3, -1e3, 1e3, 0.5],
    [-math.inf, -math.inf], [math.inf, 1.0, math.inf], [-math.inf, 4.0, -7.0],
])
def test_logsumexp_edge_cases_match_scipy(values):
    v = np.asarray(values)
    with np.errstate(all="ignore"):
        ours, ref = _logsumexp(v), logsumexp(v)
    assert ours == ref or (math.isnan(ours) and math.isnan(ref))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    s=st.integers(1, 3),
    m=st.integers(0, 3),
    e=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_adding_an_eavesdropper_never_raises_secrecy(n, s, m, e, seed):
    # a fixed precoder scored with one eavesdropper fewer: every leakage max
    # runs over a subset, so the sum secrecy SE cannot drop (up to rounding:
    # the eavesdropper powers come from a matmul of another shape)
    cfg = rs.SystemConfig(n_antennas=n, n_secret=s, n_normal=m, n_eves=e)
    rng = np.random.default_rng(seed)
    real = rs.draw_scenario(cfg, rs.ScenarioLayout(), rng)
    vec = rng.standard_normal(n * (s + m + 1)) + 1j * rng.standard_normal(n * (s + m + 1))
    stack = rs.PrecoderStack(vec / np.linalg.norm(vec), n)
    fewer = dataclasses.replace(
        real,
        eve_channels=real.eve_channels[:-1],
        eve_covs=real.eve_covs[:-1],
        eve_aoas=real.eve_aoas[:-1],
    )
    with_all = rs.sum_secrecy_se(real, stack, cfg).sum_secrecy_se
    without_last = rs.sum_secrecy_se(fewer, stack, dataclasses.replace(cfg, n_eves=e - 1))
    assert with_all <= without_last.sum_secrecy_se + 1e-12
