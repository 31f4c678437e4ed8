import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rsmasec as rs
from rsmasec.rates import lse_min
from rsmasec.solver import kkt_residual


# the fields of a set that hold its bases, by kind
BASES = ("rows", "own", "ridge", "error_scale", "covs")


def random_unit(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def direct_limited_rates(real, cfg, fb):
    """Second route for the limited-knowledge bounds, term by term."""
    k = cfg.n_users
    quad = lambda mat, v: float((v.conj() @ mat @ v).real)
    powers = np.abs(np.conj(real.user_estimates) @ fb.T) ** 2
    phi_q = np.array([[quad(real.error_covs[i], fb[b]) for b in range(k + 1)]
                      for i in range(k)])

    common = np.empty(k)
    private = np.empty(k)
    for i in range(k):
        common[i] = math.log2(
            1 + powers[i, 0]
            / (powers[i, 1:].sum() + phi_q[i].sum() + cfg.noise_user_ratio))
        private[i] = math.log2(
            1 + powers[i, 1 + i]
            / (powers[i, 1:].sum() - powers[i, 1 + i] + phi_q[i, 1:].sum()
               + cfg.noise_user_ratio))

    leaks = []
    for s in range(cfg.n_secret):
        total = 0.0
        for e in range(cfg.n_eves):
            cov = real.eve_covs[e]
            den = sum(quad(cov, fb[b]) for b in range(k + 1) if b != 1 + s)
            total += quad(cov, fb[1 + s]) / (den + cfg.noise_eve_ratio)
        for u in range(k):
            if u == s:
                continue
            cov = real.user_covs[u]
            den = sum(quad(cov, fb[1 + j]) for j in range(k) if j not in (u, s))
            total += quad(cov, fb[1 + s]) / (den + cfg.noise_user_ratio)
        leaks.append(math.log2(1 + total))
    return common, private, np.asarray(leaks)


def test_perfect_pairs_match_direct_formulas(fig_config, scenario):
    qf = rs.build_quadforms_perfect(scenario, fig_config)
    for i in range(50):
        rng = np.random.default_rng(100 + i)
        stack = random_unit(rng, 20).reshape(qf.shape)
        vals = qf.evaluate(stack)
        report = rs.sum_secrecy_se(scenario, stack, fig_config)
        assert np.abs(vals.common_rates() - report.common_per_user).max() < 1e-10
        assert np.abs(vals.private_rates() - report.private_per_user).max() < 1e-10
        assert np.abs(np.log2(vals.leak_ratios())
                      - report.leakage_per_wiretapper).max() < 1e-10


def test_limited_pairs_match_direct_formulas(fig_config, scenario):
    qf = rs.build_quadforms_limited(scenario, fig_config)
    for i in range(50):
        rng = np.random.default_rng(300 + i)
        stack = random_unit(rng, 20).reshape(qf.shape)
        vals = qf.evaluate(stack)
        common, private, leaks = direct_limited_rates(scenario, fig_config, stack)
        assert np.abs(vals.common_rates() - common).max() < 1e-10
        assert np.abs(vals.private_rates() - private).max() < 1e-10
        assert np.abs(vals.smoothed_leakages(fig_config.smoothing) - leaks).max() < 1e-10


def test_equivalence_requires_unit_norm(fig_config, scenario):
    # the noise ridge scales with the squared stack norm, so only unit
    # stacks reproduce the absolute-power formulas
    qf = rs.build_quadforms_perfect(scenario, fig_config)
    rng = np.random.default_rng(4)
    stack = 2.0 * random_unit(rng, 20).reshape(qf.shape)
    vals = qf.evaluate(stack)
    direct = rs.sum_secrecy_se(scenario, stack, fig_config).common_per_user
    assert np.abs(vals.common_rates() - direct).max() > 1e-3


def test_sign_flip_mutation_is_caught(fig_config, scenario):
    # flipping the sign of user 0's common-denominator table row (the loss
    # of form 0) must break the oracle match
    qf = rs.build_quadforms_perfect(scenario, fig_config)
    loss = qf.loss.copy()
    loss[0] *= -1.0
    bad = dataclasses.replace(qf, loss=loss)
    stack = random_unit(np.random.default_rng(0), 20).reshape(qf.shape)
    with np.errstate(invalid="ignore"):
        rates = bad.evaluate(stack).common_rates()
    direct = rs.sum_secrecy_se(scenario, stack, fig_config).common_per_user
    assert not np.all(np.abs(rates - direct) < 1e-10)


def test_smoothed_objective_scale_invariance(fig_config, scenario):
    for build in (rs.build_quadforms_perfect, rs.build_quadforms_limited):
        qf = build(scenario, fig_config)
        f = random_unit(np.random.default_rng(12), 20).reshape(qf.shape)
        a = rs.smoothed_objective(qf, f, fig_config)
        b = rs.smoothed_objective(qf, 7.3 * f, fig_config)
        assert abs(a - b) < 1e-9


def test_kappa_zero_collapses_bounds_to_perfect_rates(fig_config):
    rng = np.random.default_rng(77)
    real = rs.draw_scenario(fig_config, rs.ScenarioLayout(kappa=0.0), rng)
    assert np.abs(real.user_estimates - real.user_channels).max() == 0.0
    qf_l = rs.build_quadforms_limited(real, fig_config)
    qf_p = rs.build_quadforms_perfect(real, fig_config)
    stack = random_unit(rng, 20).reshape(qf_l.shape)
    vl = qf_l.evaluate(stack)
    vp = qf_p.evaluate(stack)
    # rate bounds collapse onto the exact rates; leakage stays covariance-based
    assert np.abs(vl.common_rates() - vp.common_rates()).max() < 1e-12
    assert np.abs(vl.private_rates() - vp.private_rates()).max() < 1e-12
    s0_l = vl.smoothed_leakages(fig_config.smoothing)[0]
    s0_p = vp.smoothed_leakages(fig_config.smoothing)[0]
    assert abs(s0_l - s0_p) > 1e-6


def test_sdma_variant_has_no_common_block(fig_config, scenario):
    qf = rs.build_quadforms_perfect(scenario, fig_config)
    sdma = qf.without_common()
    assert qf.has_common and not sdma.has_common
    # same K+1-block layout and bases; the tables are views without the K
    # common-rate forms
    assert sdma.shape == qf.shape == (5, 4)
    for name in BASES:
        assert getattr(sdma, name) is getattr(qf, name), name
    for name in ("gain", "loss"):
        full_table, table = getattr(qf, name), getattr(sdma, name)
        assert np.shares_memory(table, full_table)
        assert np.array_equal(table, full_table[4:])
    f = random_unit(np.random.default_rng(1), 20).reshape(qf.shape)
    vals, full = sdma.evaluate(f), qf.evaluate(f)
    assert not vals.has_common and vals.common_rates() is None
    alpha = fig_config.smoothing
    assert abs(full.smoothed(alpha, False).objective - vals.smoothed(alpha, False).objective
               - lse_min(full.common_rates(), alpha)) < 1e-12


def form_derivative(vals, alpha, field, p, factor, h):
    """Central difference of the objective in ``vals``' entry p of ``field``
    (``gain`` or ``loss``), moved to x * factor**(+-h) and x + (+-h) for
    ``factor`` None, per unit of the move."""
    values = getattr(vals, field)
    moved = []
    for sign in (1.0, -1.0):
        y = values.copy()
        y[p] = y[p] + sign * h if factor is None else y[p] * factor ** (sign * h)
        moved.append(dataclasses.replace(vals, **{field: y}).smoothed(alpha, False).objective)
    return (moved[0] - moved[1]) / (2 * h)


@pytest.mark.parametrize("alpha", [0.01, 0.3, 5.0])
@pytest.mark.parametrize("build", [rs.build_quadforms_perfect, rs.build_quadforms_limited])
def test_form_coefficients_are_the_objective_derivative_in_its_log_ratio(
        fig_config, scenario, build, alpha):
    # A's coefficient w/g and B's w/l per form, w the central difference of
    # the objective in the form's log-ratio log2(g/l) (its gain scaled by
    # 2^+-h); on the full set, without the common forms, and at a point
    # where secret user 0's private block is zero, whose collusion losses
    # are 0: there w is 0 and B's coefficient keeps its limit -ln2 dO/dl
    full = build(scenario, fig_config)
    f = random_unit(np.random.default_rng(5), 20).reshape(full.shape)
    silent = f.copy()
    silent[1] = 0.0
    zero_losses = 0
    for qf, point in ((full, f), (full.without_common(), f * (np.arange(5) > 0)[:, None]),
                      (full, silent)):
        vals = qf.evaluate(point / np.linalg.norm(point))
        sm = vals.smoothed(alpha, False)
        for p in range(vals.gain.shape[-1]):
            g, l = vals.gain[p], vals.loss[p]
            w = form_derivative(vals, alpha, "gain", p, 2.0, 1e-6)
            assert abs(sm.a[p] * g - w) < 1e-6
            if l > 0:
                assert abs(sm.b[p] * l - w) < 1e-6
                continue
            zero_losses += 1
            assert w == 0.0 and sm.a[p] == 0.0 and np.isfinite(sm.b[p])
            slope = -math.log(2.0) * form_derivative(vals, alpha, "loss", p, None, 1e-6 * g)
            assert abs(sm.b[p] - slope) < 1e-6 * sm.b[p]
    # the limited set's collusion terms of secret user 0: E + K - 1 losses
    assert zero_losses == (0 if build is rs.build_quadforms_perfect else 5)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 4),
    s_cnt=st.integers(0, 3),
    m_cnt=st.integers(0, 2),
    e_cnt=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@pytest.mark.parametrize("build", [rs.build_quadforms_perfect, rs.build_quadforms_limited])
def test_sdma_private_rates_match_padded_stack(build, n, s_cnt, m_cnt, e_cnt, seed):
    assume(s_cnt + m_cnt >= 1)
    cfg = rs.SystemConfig(n_antennas=n, n_secret=s_cnt, n_normal=m_cnt, n_eves=e_cnt)
    rng = np.random.default_rng(seed)
    real = rs.draw_scenario(cfg, rs.ScenarioLayout(quad_nodes=64), rng)
    k = cfg.n_users
    # a private-only stack sits behind a zero common block
    stack = np.concatenate([np.zeros(n), random_unit(rng, k * n)]).reshape(-1, n)
    qf = build(real, cfg).without_common()
    vals = qf.evaluate(stack)
    if build is rs.build_quadforms_perfect:
        report = rs.sum_secrecy_se(real, stack, cfg)
        private = report.private_per_user
        np.testing.assert_allclose(np.log2(vals.leak_ratios()),
                                   report.leakage_per_wiretapper, rtol=0, atol=1e-10)
    else:
        _, private, leaks = direct_limited_rates(real, cfg, stack)
        np.testing.assert_allclose(vals.smoothed_leakages(cfg.smoothing), leaks,
                                   rtol=0, atol=1e-10)
    np.testing.assert_allclose(vals.private_rates(), private, rtol=0, atol=1e-10)

    knowledge = real.user_channels if build is rs.build_quadforms_perfect else real.user_estimates
    solved, _ = rs.gpi_solve(qf, rs.mrt_init(knowledge, common_stream=False), cfg)
    assert solved.shape == (k + 1, n)
    assert np.isfinite(solved).all()
    assert abs(np.linalg.norm(solved) - 1.0) < 1e-12
    assert np.all(solved[0] == 0)


def array_bytes(obj):
    """Bytes of every numpy array reachable from ``obj`` through its fields."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(x) for x in obj)
    if dataclasses.is_dataclass(obj):
        return sum(array_bytes(x) for x in vars(obj).values())
    return 0


def test_set_arrays_stay_small_at_large_scale():
    # base matrices are stored once; only the real tables grow with the
    # number of forms (dense per-pair stacks took 114.75 MiB here)
    cfg = rs.SystemConfig(n_antennas=32, n_secret=8, n_normal=8, n_eves=8)
    real = rs.draw_scenario(cfg, rs.ScenarioLayout(quad_nodes=64), np.random.default_rng(0))
    assert array_bytes(rs.build_quadforms_limited(real, cfg)) < 8 * 2**20


@pytest.mark.parametrize("score", [
    lambda real, qf, f, cfg: rs.sum_secrecy_se(real, f, cfg),
    lambda real, qf, f, cfg: rs.smoothed_objective(qf, f, cfg),
    lambda real, qf, f, cfg: rs.gpi_solve(qf, f, cfg),
    lambda real, qf, f, cfg: kkt_residual(qf, f, cfg),
], ids=["sum_secrecy_se", "smoothed_objective", "gpi_solve", "kkt_residual"])
@pytest.mark.parametrize("shape", [(4, 4), (20,)], ids=["K-by-N", "flat"])
def test_precoder_must_be_k_plus_one_by_n(fig_config, scenario, score, shape):
    # only the (K+1, N) array is a precoder: no private-only (K, N) stack and
    # no flat stacked vector
    qf = rs.build_quadforms_perfect(scenario, fig_config)
    f = np.ones(shape, dtype=complex)
    with pytest.raises(ValueError, match="shape"):
        score(scenario, qf, f, fig_config)


@pytest.mark.parametrize("build", [rs.build_quadforms_perfect, rs.build_quadforms_limited])
def test_snr_moves_only_the_noise_ridge_base(fig_config, scenario, build):
    # the tables hold no SNR, so sets at two SNRs share them, and their
    # bases differ only in the ridge sigma_u^2 / P, a scalar
    cfg = dataclasses.replace(fig_config, noise_eve=2.5)
    low, high = build(scenario, cfg.with_snr_db(0.0)), build(scenario, cfg.with_snr_db(30.0))
    for f in dataclasses.fields(low):
        if f.name != "ridge":
            assert np.array_equal(getattr(low, f.name), getattr(high, f.name)), f.name
    assert low.gain is high.gain and low.loss is high.loss
    for qf, c in ((low, cfg.with_snr_db(0.0)), (high, cfg.with_snr_db(30.0))):
        assert qf.ridge.shape == () and qf.ridge == c.noise_user_ratio
    assert set(np.unique(low.gain)) | set(np.unique(low.loss)) <= {-1.0, 0.0, 1.0, 2.5}


@pytest.mark.parametrize("build", [rs.build_quadforms_perfect, rs.build_quadforms_limited])
def test_a_chunk_takes_one_ridge_per_trial(fig_config, build):
    # a chunk's set over trials at several SNRs equals each trial's own set
    rng = np.random.default_rng(21)
    reals = [rs.draw_scenario(fig_config, rs.ScenarioLayout(quad_nodes=64), rng) for _ in range(3)]
    configs = [fig_config.with_snr_db(snr) for snr in (0.0, 15.0, 40.0)]
    chunk = build(rs.ChannelRealization.stack(reals), fig_config,
                  ridge=np.array([c.noise_user_ratio for c in configs]))
    f = np.stack([random_unit(rng, 20).reshape(5, 4) for _ in range(3)])
    got = rs.smoothed_objective(chunk, f, fig_config)
    for t, (real, c) in enumerate(zip(reals, configs)):
        alone = build(real, c)
        for name in BASES:
            assert np.array_equal(getattr(chunk.take(t), name), getattr(alone, name)), name
        assert got[t] == rs.smoothed_objective(alone, f[t], c)


def test_dimension_mismatch_raises(fig_config, scenario):
    small = rs.SystemConfig(n_antennas=4, n_secret=1, n_normal=1, n_eves=2)
    with pytest.raises(ValueError):
        rs.build_quadforms_perfect(scenario, small)
