import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import rsmasec as rs
from rsmasec.channel import error_scale
from rsmasec.rates import _lse_softmax, lse_max, lse_min


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
        user_covs=np.tile(eye, (k, 1, 1)),
        eve_covs=np.tile(eye, (g.shape[0], 1, 1)),
        error_scale=error_scale(kappa),
    )


def test_common_rate_hand_value():
    # one user, h = (1, 0), f_c = (1/sqrt2, 0), f_1 = (0, 1/sqrt2), sigma^2/P = 1:
    # SINR_c = 0.5 / (0 + 1) so the rate is exactly log2(1.5)
    cfg = rs.SystemConfig(n_antennas=2, n_secret=1, n_normal=0, n_eves=0,
                          symbol_power=1.0)
    real = manual_realization([[1.0, 0.0]])
    f = np.array([1 / math.sqrt(2), 0.0, 0.0, 1 / math.sqrt(2)], dtype=complex)
    stack = f.reshape(-1, 2)
    report = rs.sum_secrecy_se(real, stack, cfg)
    assert abs(report.common_per_user[0] - math.log2(1.5)) < 1e-12
    # the private stream is orthogonal to the channel here
    assert report.private_per_user[0] == 0.0
    assert abs(report.sum_secrecy_se - math.log2(1.5)) < 1e-12
    assert report.leakage_per_secret[0] == 0.0


def test_private_rate_excludes_common_interference():
    # post-cancellation: the common stream must not appear in the denominator
    cfg = rs.SystemConfig(n_antennas=2, n_secret=1, n_normal=1, n_eves=0,
                          symbol_power=1.0)
    real = manual_realization([[1.0, 0.0], [0.0, 1.0]])
    f = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(3)
    stack = f.reshape(-1, 2)
    private = rs.sum_secrecy_se(real, stack, cfg).private_per_user
    # user 0: signal 1/3, interference from f_2 is 0, noise 1
    assert abs(private[0] - math.log2(1.0 + 1.0 / 3.0)) < 1e-12


def test_leakage_ordering_and_sets(fig_config, scenario, unit_stack):
    rng = np.random.default_rng(2)
    stack = unit_stack(rng, 20).reshape(-1, 4)
    report = rs.sum_secrecy_se(scenario, stack, fig_config)
    # per secret user: two eavesdroppers plus three other users
    assert report.leakage_per_wiretapper.shape == (2, 5)
    np.testing.assert_array_equal(report.leakage_per_secret,
                                  report.leakage_per_wiretapper.max(axis=1))


def test_leakage_empty_wiretap_set():
    cfg = rs.SystemConfig(n_antennas=2, n_secret=1, n_normal=0, n_eves=0,
                          symbol_power=1.0)
    real = manual_realization([[1.0, 0.0]])
    stack = np.array([[1.0, 0], [0, 1.0]]) / math.sqrt(2)
    report = rs.sum_secrecy_se(real, stack, cfg)
    assert report.leakage_per_wiretapper.shape == (1, 0)
    assert report.leakage_per_secret.tolist() == [0.0]


def test_secrecy_clamps_at_zero():
    # an eavesdropper with the same channel as the user and less noise
    cfg = rs.SystemConfig(n_antennas=2, n_secret=1, n_normal=0, n_eves=1,
                          symbol_power=1.0, noise_user=1.0, noise_eve=0.01)
    real = manual_realization([[1.0, 0.0]], eve_channels=[[1.0, 0.0]])
    f = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2)
    stack = f.reshape(-1, 2)
    report = rs.sum_secrecy_se(real, stack, cfg)
    assert report.leakage_per_secret[0] > report.private_per_user[0]
    assert report.secrecy_per_secret[0] == 0.0


@pytest.mark.parametrize("n_eves", [0, 1, 3])
def test_scoring_rejects_eavesdropper_count_mismatch(n_eves):
    # the realization holds two eavesdroppers; a config that claims another
    # count must not drop or miscount them
    cfg = rs.SystemConfig(n_antennas=4, n_secret=2, n_normal=0, n_eves=2)
    rng = np.random.default_rng(2)
    real = rs.draw_scenario(cfg, rs.ScenarioLayout(eve_sector=0.3), rng)
    stack = rs.mrt_init(real.user_channels)
    assert math.isfinite(rs.sum_secrecy_se(real, stack, cfg).sum_secrecy_se)
    other = dataclasses.replace(cfg, n_eves=n_eves)
    with pytest.raises(ValueError, match="eavesdropper"):
        rs.sum_secrecy_se(real, stack, other)


def test_report_totals_are_consistent(fig_config, scenario, unit_stack):
    stack = unit_stack(np.random.default_rng(8), 20).reshape(-1, 4)
    report = rs.sum_secrecy_se(scenario, stack, fig_config)
    rebuilt = (report.common_min
               + report.secrecy_per_secret.sum()
               + report.private_per_user[fig_config.n_secret:].sum())
    assert abs(report.sum_secrecy_se - rebuilt) < 1e-12
    assert report.common_min == report.common_per_user.min()


def reference_report(real, cfg, stack):
    """The score one receiver and one stream at a time.

    Each stream power is one inner product, and each denominator is a left
    to right sum of the powers of the streams that interfere there, so no
    denominator is a total less the wanted streams: at 60 dB such a
    difference cancels down to the 1e-6 noise term and loses far more than
    1e-12 bits.
    """
    k, n_s = cfg.n_users, cfg.n_secret
    noise_u, noise_e = cfg.noise_user_ratio, cfg.noise_eve_ratio

    def powers(channel):
        return [abs(np.vdot(channel, f)) ** 2 for f in stack]

    def power_sum(p, streams):
        total = 0.0
        for j in streams:
            total = total + p[j]
        return total

    pu = [powers(h) for h in real.user_channels]
    pe = [powers(g) for g in real.eve_channels]
    private_streams = range(1, k + 1)
    common, private = np.empty(k), np.empty(k)
    for u in range(k):
        others = [j for j in private_streams if j != 1 + u]
        common[u] = math.log2(1.0 + pu[u][0] / (power_sum(pu[u], private_streams) + noise_u))
        private[u] = math.log2(1.0 + pu[u][1 + u] / (power_sum(pu[u], others) + noise_u))
    wiretap = np.empty((n_s, cfg.n_eves + k - 1))
    for s in range(n_s):
        rates = []
        for e in range(cfg.n_eves):
            den = power_sum(pe[e], [j for j in range(k + 1) if j != 1 + s]) + noise_e
            rates.append(math.log2(1.0 + pe[e][1 + s] / den))
        for u in range(k):
            if u != s:
                interfering = [j for j in private_streams if j not in (1 + u, 1 + s)]
                den = power_sum(pu[u], interfering) + noise_u
                rates.append(math.log2(1.0 + pu[u][1 + s] / den))
        wiretap[s] = rates
    leak = np.array([max(row, default=0.0) for row in wiretap.tolist()])
    secrecy = np.maximum(private[:n_s] - leak, 0.0)
    return dict(
        common_per_user=common,
        common_min=common.min(),
        private_per_user=private,
        leakage_per_wiretapper=wiretap,
        leakage_per_secret=leak,
        secrecy_per_secret=secrecy,
        sum_secrecy_se=common.min() + secrecy.sum() + private[n_s:].sum(),
    )


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 5),
    s=st.integers(0, 4),
    m=st.integers(0, 2),
    e=st.integers(0, 3),
    snr_db=st.floats(-30, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_report_matches_per_term_reference(n, s, m, e, snr_db, seed):
    assume(s + m >= 1)
    cfg = rs.SystemConfig(n_antennas=n, n_secret=s, n_normal=m, n_eves=e).with_snr_db(snr_db)
    rng = np.random.default_rng(seed)
    real = rs.draw_scenario(cfg, rs.ScenarioLayout(quad_nodes=64), rng)
    vec = rng.standard_normal(n * (s + m + 1)) + 1j * rng.standard_normal(n * (s + m + 1))
    stack = (vec / np.linalg.norm(vec)).reshape(-1, n)
    report = rs.sum_secrecy_se(real, stack, cfg)
    assert report.leakage_per_wiretapper.shape == (s, e + s + m - 1)
    for name, want in reference_report(real, cfg, stack).items():
        np.testing.assert_allclose(getattr(report, name), want, rtol=0, atol=1e-12,
                                   err_msg=name)


def test_wiretapping_user_leakage_loses_no_bits_at_high_snr():
    # with K = 2 a user wiretapping the other's stream has removed every other
    # stream, so the denominator of its rate is the noise term alone; formed
    # as a total less the wanted streams it would miss that 1e-6 term by the
    # rounding error of the total, about 1e-10 bits at 60 dB
    cfg = rs.SystemConfig(n_antennas=4, n_secret=2, n_normal=0, n_eves=0).with_snr_db(60.0)
    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        real = rs.draw_scenario(cfg, rs.ScenarioLayout(), rng)
        vec = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        stack = (vec / np.linalg.norm(vec)).reshape(3, 4)
        report = rs.sum_secrecy_se(real, stack, cfg)
        for s in range(2):
            p = abs(np.vdot(real.user_channels[1 - s], stack[1 + s])) ** 2
            want = math.log2(1.0 + p / cfg.noise_user_ratio)
            worst = max(worst, abs(report.leakage_per_wiretapper[s, 0] - want))
    assert worst <= 1e-12


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


def assert_matches_scipy(values):
    """Within 8 ULPs of max(1, largest finite |entry|) where scipy's result is
    finite; equal to it where that is +-inf or NaN."""
    v = np.asarray(values)
    with np.errstate(all="ignore"):
        ours, ref = _lse_softmax(v)[0], logsumexp(v)
    if not math.isfinite(ref):
        assert ours == ref or (math.isnan(ours) and math.isnan(ref))
        return
    finite = np.abs(v[np.isfinite(v)])
    scale = max(1.0, float(finite.max())) if finite.size else 1.0
    assert abs(ours - ref) <= 8 * np.spacing(scale)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_LSE_ENTRIES, min_size=1, max_size=12))
def test_logsumexp_matches_scipy_within_8_ulps(values):
    assert_matches_scipy(values)


@pytest.mark.parametrize("values", [
    [3.25], [-math.inf], [math.inf], [math.nan],
    [2.0, 2.0, 2.0], [1e3, -1e3, 1e3, 0.5],
    [-math.inf, -math.inf], [math.inf, 1.0, math.inf], [-math.inf, 4.0, -7.0],
])
def test_logsumexp_edge_cases_match_scipy(values):
    assert_matches_scipy(values)


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
    stack = (vec / np.linalg.norm(vec)).reshape(-1, n)
    fewer = dataclasses.replace(
        real,
        eve_channels=real.eve_channels[:-1],
        eve_covs=real.eve_covs[:-1],
        eve_aoas=real.eve_aoas[:-1],
    )
    with_all = rs.sum_secrecy_se(real, stack, cfg).sum_secrecy_se
    without_last = rs.sum_secrecy_se(fewer, stack, dataclasses.replace(cfg, n_eves=e - 1))
    assert with_all <= without_last.sum_secrecy_se + 1e-12
