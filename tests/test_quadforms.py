import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rsmasec as rs
from rsmasec.rates import common_se, leakage_se, lse_min, private_se


def random_unit(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def direct_limited_rates(real, cfg, stack):
    """Second route for the limited-knowledge bounds, term by term."""
    fb = stack.blocks
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
        stack = rs.PrecoderStack(random_unit(rng, 20), 4)
        vals = qf.evaluate(qf.f_blocks(stack))
        assert np.abs(vals.common_rates()
                      - common_se(scenario, stack, fig_config)).max() < 1e-10
        assert np.abs(vals.private_rates()
                      - private_se(scenario, stack, fig_config)).max() < 1e-10
        for s in range(fig_config.n_secret):
            direct, _ = leakage_se(scenario, stack, fig_config, s)
            assert np.abs(np.log2(vals.leak_ratios(s)) - direct).max() < 1e-10


def test_limited_pairs_match_direct_formulas(fig_config, scenario):
    qf = rs.build_quadforms_limited(scenario, fig_config)
    for i in range(50):
        rng = np.random.default_rng(300 + i)
        stack = rs.PrecoderStack(random_unit(rng, 20), 4)
        vals = qf.evaluate(qf.f_blocks(stack))
        common, private, leaks = direct_limited_rates(scenario, fig_config, stack)
        assert np.abs(vals.common_rates() - common).max() < 1e-10
        assert np.abs(vals.private_rates() - private).max() < 1e-10
        for s in range(fig_config.n_secret):
            bound = vals.smoothed_leakage(s, fig_config.smoothing)
            assert abs(bound - leaks[s]) < 1e-10


def test_equivalence_requires_unit_norm(fig_config, scenario):
    # the noise ridge scales with the squared stack norm, so only unit
    # stacks reproduce the absolute-power formulas
    qf = rs.build_quadforms_perfect(scenario, fig_config)
    rng = np.random.default_rng(4)
    stack = rs.PrecoderStack(2.0 * random_unit(rng, 20), 4)
    vals = qf.evaluate(qf.f_blocks(stack))
    direct = common_se(scenario, stack, fig_config)
    assert np.abs(vals.common_rates() - direct).max() > 1e-3


def test_sign_flip_mutation_is_caught(fig_config, scenario):
    # flipping the sign of user 0's common-denominator table row must break
    # the oracle match
    qf = rs.build_quadforms_perfect(scenario, fig_config)
    common_den = qf.common_den.copy()
    common_den[0] *= -1.0
    bad = dataclasses.replace(qf, common_den=common_den)
    stack = rs.PrecoderStack(random_unit(np.random.default_rng(0), 20), 4)
    with np.errstate(invalid="ignore"):
        rates = bad.evaluate(bad.f_blocks(stack)).common_rates()
    direct = common_se(scenario, stack, fig_config)
    assert not np.all(np.abs(rates - direct) < 1e-10)


def test_smoothed_objective_scale_invariance(fig_config, scenario):
    for build in (rs.build_quadforms_perfect, rs.build_quadforms_limited):
        qf = build(scenario, fig_config)
        f = random_unit(np.random.default_rng(12), 20)
        a = rs.smoothed_objective(qf, f, fig_config)
        b = rs.smoothed_objective(qf, 7.3 * f, fig_config)
        assert abs(a - b) < 1e-9


def test_kappa_zero_collapses_bounds_to_perfect_rates(fig_config):
    rng = np.random.default_rng(77)
    real = rs.draw_scenario(fig_config, rs.ScenarioLayout(kappa=0.0), rng)
    assert np.abs(real.user_estimates - real.user_channels).max() == 0.0
    qf_l = rs.build_quadforms_limited(real, fig_config)
    qf_p = rs.build_quadforms_perfect(real, fig_config)
    stack = rs.PrecoderStack(random_unit(rng, 20), 4)
    vl = qf_l.evaluate(qf_l.f_blocks(stack))
    vp = qf_p.evaluate(qf_p.f_blocks(stack))
    # rate bounds collapse onto the exact rates; leakage stays covariance-based
    assert np.abs(vl.common_rates() - vp.common_rates()).max() < 1e-12
    assert np.abs(vl.private_rates() - vp.private_rates()).max() < 1e-12
    s0_l = vl.smoothed_leakage(0, fig_config.smoothing)
    s0_p = vp.smoothed_leakage(0, fig_config.smoothing)
    assert abs(s0_l - s0_p) > 1e-6


def test_sdma_variant_has_no_common_block(fig_config, scenario):
    qf = rs.build_quadforms_perfect(scenario, fig_config)
    sdma = qf.without_common()
    assert qf.has_common and not sdma.has_common
    # same K+1-block layout, every array shared
    assert sdma.n_blocks == 5 and sdma.stack_dim == 20
    assert all(getattr(sdma, f.name) is getattr(qf, f.name)
               for f in dataclasses.fields(qf) if not f.name.startswith("common_"))
    f = random_unit(np.random.default_rng(1), 20)
    vals, full = sdma.evaluate(sdma.f_blocks(f)), qf.evaluate(qf.f_blocks(f))
    assert vals.common_num is None and vals.common_rates() is None
    alpha = fig_config.smoothing
    assert abs(full.objective(alpha) - vals.objective(alpha)
               - lse_min(full.common_rates(), alpha)) < 1e-12


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
    stack = rs.PrecoderStack(np.concatenate([np.zeros(n), random_unit(rng, k * n)]), n)
    qf = build(real, cfg).without_common()
    vals = qf.evaluate(qf.f_blocks(stack))
    if build is rs.build_quadforms_perfect:
        private = private_se(real, stack, cfg)
        for s in range(s_cnt):
            np.testing.assert_allclose(np.log2(vals.leak_ratios(s)),
                                       leakage_se(real, stack, cfg, s)[0], rtol=0, atol=1e-10)
    else:
        _, private, leaks = direct_limited_rates(real, cfg, stack)
        for s in range(s_cnt):
            assert abs(vals.smoothed_leakage(s, cfg.smoothing) - leaks[s]) < 1e-10
    np.testing.assert_allclose(vals.private_rates(), private, rtol=0, atol=1e-10)

    variant = "perfect" if build is rs.build_quadforms_perfect else "limited"
    solved, _ = rs.gpi_sdma_solve(real, cfg, variant, rng)
    assert solved.n_blocks == k + 1
    assert np.isfinite(solved.entries).all()
    assert abs(solved.norm - 1.0) < 1e-12
    assert np.all(solved.blocks[0] == 0)


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


def test_f_blocks_rejects_wrong_length(fig_config, scenario):
    qf = rs.build_quadforms_perfect(scenario, fig_config)
    with pytest.raises(ValueError):
        qf.f_blocks(np.ones(16, dtype=complex))


def test_dimension_mismatch_raises(fig_config, scenario):
    small = rs.SystemConfig(n_antennas=4, n_secret=1, n_normal=1, n_eves=2)
    with pytest.raises(ValueError):
        rs.build_quadforms_perfect(scenario, small)
