import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, solve
from scipy.special import softmax

import rsmasec as rs
from rsmasec import solver
from rsmasec.quadforms import QuadFormSet, QuadValues
from rsmasec.rates import _lse_softmax
from rsmasec.solver import (
    _align_phase,
    _matvec,
    assemble_kkt,
    block_solve,
    gpi_solve_batch,
    gpi_solve_vector,
    kkt_residual,
)


def random_unit(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def quads(blocks, vec):
    return float(np.vdot(vec, _matvec(blocks, vec)).real)


def operators(qf, f, alpha):
    """assemble_kkt's (A, B) at the precoder ``f``."""
    return assemble_kkt(qf, qf.evaluate(f.reshape(qf.shape)).smoothed(alpha, False))


@pytest.mark.parametrize("build", [rs.build_quadforms_perfect, rs.build_quadforms_limited])
def test_operator_tangency_identity(fig_config, scenario, build):
    # with unit prefactors, f^H A f == f^H B f at every point; this is what
    # makes the step scale-free and the eigenvalue drop out of the iteration
    qf = build(scenario, fig_config)
    for seed in range(10):
        f = random_unit(np.random.default_rng(seed), 20)
        a_op, b_op = operators(qf, f, fig_config.smoothing)
        qa, qb = quads(a_op, f), quads(b_op, f)
        assert abs(qa - qb) < 1e-10 * max(1.0, abs(qa))


@pytest.mark.parametrize("build", [rs.build_quadforms_perfect, rs.build_quadforms_limited])
def test_operator_matches_numeric_gradient(fig_config, scenario, build):
    qf = build(scenario, fig_config)
    f = random_unit(np.random.default_rng(3), 20)
    a_op, b_op = operators(qf, f, fig_config.smoothing)
    d = _matvec(a_op, f) - _matvec(b_op, f)
    analytic = np.concatenate([d.real, d.imag])

    x = np.concatenate([f.real, f.imag])
    h = 1e-6
    numeric = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        hi = (x + e)[: f.size] + 1j * (x + e)[f.size:]
        lo = (x - e)[: f.size] + 1j * (x - e)[f.size:]
        numeric[j] = (
            rs.smoothed_objective(qf, hi.reshape(qf.shape), fig_config)
            - rs.smoothed_objective(qf, lo.reshape(qf.shape), fig_config)
        ) / (2 * h)
    cos = numeric @ analytic / (np.linalg.norm(numeric) * np.linalg.norm(analytic))
    assert cos > 0.999


def sphere_gradient(qf, f, cfg, h=1e-6):
    """Central differences of the smoothed objective on the unit sphere, in
    the (real, imaginary) coordinates of f."""
    x = np.concatenate([f.real.ravel(), f.imag.ravel()])
    grad = np.zeros_like(x)
    for j in range(x.size):
        points = []
        for sign in (1.0, -1.0):
            y = x.copy()
            y[j] += sign * h
            g = (y[: f.size] + 1j * y[f.size:]).reshape(qf.shape)
            points.append(rs.smoothed_objective(qf, g / np.linalg.norm(g), cfg))
        grad[j] = (points[0] - points[1]) / (2 * h)
    return grad


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 4),
    s_cnt=st.integers(0, 3),
    m_cnt=st.integers(0, 2),
    e_cnt=st.integers(0, 3),
    alpha=st.sampled_from([0.01, 0.3, 5.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, s_cnt=0, m_cnt=2, e_cnt=2, alpha=0.3, seed=0)   # no secret user
@example(n=2, s_cnt=1, m_cnt=0, e_cnt=0, alpha=0.3, seed=1)   # K = 1, E = 0: empty wiretap set
@example(n=1, s_cnt=2, m_cnt=1, e_cnt=1, alpha=0.3, seed=2)   # one antenna
@example(n=4, s_cnt=2, m_cnt=2, e_cnt=2, alpha=0.01, seed=3)  # near-hard min and max
@example(n=4, s_cnt=2, m_cnt=2, e_cnt=2, alpha=5.0, seed=3)   # near-uniform softmaxes
@pytest.mark.parametrize("build", [rs.build_quadforms_perfect, rs.build_quadforms_limited])
def test_form_weights_give_the_objective_gradient(build, n, s_cnt, m_cnt, e_cnt, alpha, seed):
    # A f - B f, with one weight per form, points along the sphere gradient
    # of the smoothed objective for the full set and without the common
    # forms, from a near-hard to a near-uniform smoothing
    assume(s_cnt + m_cnt >= 1)
    cfg = rs.SystemConfig(n_antennas=n, n_secret=s_cnt, n_normal=m_cnt, n_eves=e_cnt,
                          smoothing=alpha)
    rng = np.random.default_rng(seed)
    real = rs.draw_scenario(cfg, rs.ScenarioLayout(quad_nodes=64), rng)
    full = build(real, cfg)
    k = cfg.n_users
    f = random_unit(rng, (k + 1) * n).reshape(k + 1, n)
    for qf, start in ((full, f), (full.without_common(), f * (np.arange(k + 1) > 0)[:, None])):
        start = start / np.linalg.norm(start)
        vals = qf.evaluate(start)
        assert vals.leak_ratios().shape == (s_cnt, e_cnt + k - 1)
        chunk = qf.take(np.newaxis)
        assert chunk.evaluate(start[None]).leak_ratios().shape == (1, s_cnt, e_cnt + k - 1)
        a_op, b_op = assemble_kkt(qf, vals.smoothed(cfg.smoothing, False))
        d = (_matvec(a_op, start) - _matvec(b_op, start)).ravel()
        analytic = np.concatenate([d.real, d.imag])
        numeric = sphere_gradient(qf, start, cfg)
        if np.linalg.norm(analytic) < 1e-9:
            # a flat objective (N = 1, one private stream): no direction to match
            assert np.linalg.norm(numeric) < 1e-6
            continue
        cos = numeric @ analytic / (np.linalg.norm(numeric) * np.linalg.norm(analytic))
        assert cos >= 0.999


def test_block_solve_matches_dense():
    rng = np.random.default_rng(5)
    blocks = np.empty((3, 4, 4), dtype=complex)
    for i in range(3):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        blocks[i] = g @ g.conj().T + np.eye(4)
    rhs = random_unit(rng, 12)
    x = block_solve(blocks, rhs)
    assert np.abs(x - solve(block_diag(*blocks), rhs)).max() < 1e-10


def test_block_solve_identity_blocks():
    rhs = np.arange(8, dtype=complex)
    blocks = np.tile(np.eye(4, dtype=complex), (2, 1, 1))
    assert np.array_equal(block_solve(blocks, rhs), rhs)


def test_block_solve_indefinite_block_falls_back():
    # Hermitian but not positive definite: Cholesky fails, LU must take over
    blocks = np.array([np.diag([1.0, -1.0]).astype(complex)])
    rhs = np.array([2.0, 3.0], dtype=complex)
    x = block_solve(blocks, rhs)
    assert np.allclose(x, [2.0, -3.0])


def test_block_solve_rejects_singular():
    blocks = np.zeros((1, 2, 2), dtype=complex)
    with pytest.raises(rs.NumericError):
        block_solve(blocks, np.ones(2, dtype=complex))


def solve_setup(fig_config, seed=7, **cfg_overrides):
    cfg = fig_config if not cfg_overrides else rs.SystemConfig(
        n_antennas=4, n_secret=2, n_normal=2, n_eves=2, **cfg_overrides)
    rng = np.random.default_rng(seed)
    real = rs.draw_scenario(cfg, rs.ScenarioLayout(), rng)
    qf = rs.build_quadforms_limited(real, cfg)
    start = rs.mrt_init(real.user_estimates)
    return cfg, qf, start


def test_gpi_trace_starts_at_initializer(fig_config):
    cfg, qf, start = solve_setup(fig_config)
    stack, trace = rs.gpi_solve(qf, start, cfg)
    it0, step0, obj0, _ = trace.rows[0]
    assert it0 == 0 and math.isnan(step0)
    assert abs(obj0 - rs.smoothed_objective(qf, start / np.linalg.norm(start), cfg)) < 1e-12
    assert abs(np.linalg.norm(stack) - 1.0) < 1e-12


def test_gpi_converged_means_small_last_step(fig_config):
    cfg, qf, start = solve_setup(fig_config)
    stack, trace = rs.gpi_solve(qf, start, cfg)
    assert trace.converged
    assert trace.iterations_used <= cfg.t_max
    assert trace.rows[-1][1] <= cfg.epsilon
    assert kkt_residual(qf, stack, cfg) <= 3 * cfg.epsilon


def test_gpi_restart_from_solution_stops_immediately(fig_config):
    cfg, qf, start = solve_setup(fig_config, epsilon=1e-7, t_max=500)
    stack, trace = rs.gpi_solve(qf, start, cfg)
    assert trace.converged
    again, trace2 = rs.gpi_solve(qf, stack, cfg)
    assert trace2.converged
    assert trace2.iterations_used == 1


def test_gpi_phase_invariance(fig_config):
    cfg, qf, start = solve_setup(fig_config)
    _, trace_a = rs.gpi_solve(qf, start, cfg)
    rotated = np.exp(1j * 1.23) * start
    _, trace_b = rs.gpi_solve(qf, rotated, cfg)
    objs_a = [row[2] for row in trace_a.rows]
    objs_b = [row[2] for row in trace_b.rows]
    assert np.allclose(objs_a, objs_b, atol=1e-9)


def test_gpi_exhaustion_returns_best_iterate(fig_config):
    cfg, qf, start = solve_setup(fig_config, epsilon=1e-15, t_max=3)
    stack, trace = rs.gpi_solve(qf, start, cfg)
    assert not trace.converged
    assert trace.iterations_used == 3
    best = max(row[2] for row in trace.rows)
    assert abs(rs.smoothed_objective(qf, stack, cfg) - best) < 1e-12


def test_gpi_breaks_periodic_orbits(fig_config):
    # this draw two-cycles under the plain iteration map at tight tolerance;
    # the accelerated steps must break the cycle and reach a genuine fixed point
    cfg = rs.SystemConfig(n_antennas=4, n_secret=2, n_normal=2, n_eves=2,
                          epsilon=1e-4, t_max=500).with_snr_db(20.0)
    rng = np.random.default_rng(1001)
    layout = rs.ScenarioLayout(user_center=float(rng.uniform(0, 2 * np.pi)))
    real = rs.draw_scenario(cfg, layout, rng)
    qf = rs.build_quadforms_perfect(real, cfg)
    stack, trace = rs.gpi_solve(qf, rs.mrt_init(real.user_channels), cfg)
    assert trace.converged
    assert kkt_residual(qf, stack, cfg) <= 1e-3


def test_gpi_holds_a_slow_limited_draw_to_its_fixed_point():
    # fixed-point-residual's draw 1107 under limited CSIT: the plain map
    # converges in 49 steps, and the accelerated solve must converge as well
    cfg = rs.SystemConfig(n_antennas=4, n_secret=2, n_normal=2, n_eves=2,
                          epsilon=1e-4, t_max=500).with_snr_db(20.0)
    rng = np.random.default_rng(1107)
    layout = rs.ScenarioLayout(user_center=float(rng.uniform(0, 2 * np.pi)))
    real = rs.draw_scenario(cfg, layout, rng)
    qf = rs.build_quadforms_limited(real, cfg)
    stack, trace = rs.gpi_solve(qf, rs.mrt_init(real.user_estimates), cfg)
    assert trace.converged
    assert kkt_residual(qf, stack, cfg) <= 1e-3


def test_gpi_improves_on_initializer(fig_config):
    cfg, qf, start = solve_setup(fig_config)
    stack, trace = rs.gpi_solve(qf, start, cfg)
    assert trace.rows[-1][2] >= trace.rows[0][2]


def test_gpi_rejects_bad_starts(fig_config, scenario):
    qf = rs.build_quadforms_perfect(scenario, fig_config)
    with pytest.raises(ValueError):
        gpi_solve_vector(qf, np.zeros(20, dtype=complex), fig_config)
    with pytest.raises(ValueError):
        gpi_solve_vector(qf, np.ones(8, dtype=complex), fig_config)


def test_gpi_rejects_common_start_without_common_family(fig_config, scenario):
    qf = rs.build_quadforms_perfect(scenario, fig_config).without_common()
    with pytest.raises(ValueError):
        rs.gpi_solve(qf, np.ones((5, 4), dtype=complex), fig_config)
    start = np.ones((5, 4), dtype=complex)
    start[0] = 0.0
    stack, _ = rs.gpi_solve(qf, start, fig_config)
    assert np.all(stack[0] == 0)


def test_lambda_recorded_every_iteration(fig_config):
    cfg, qf, start = solve_setup(fig_config)
    _, trace = rs.gpi_solve(qf, start, cfg)
    assert all(len(row) == 4 for row in trace.rows)
    # lambda can be any sign but must be recorded as a float
    assert all(isinstance(row[3], float) for row in trace.rows)


@pytest.mark.parametrize("shape", [(7,), (3, 5)])
def test_softmax_matches_scipy_bit_for_bit(shape):
    rng = np.random.default_rng(11)
    for scale in (1e-3, 1.0, 1e3):
        x = scale * rng.standard_normal(shape)
        axis = None if len(shape) == 1 else 1
        assert np.array_equal(_lse_softmax(x)[1], softmax(x, axis=axis))


def test_sweeps_never_compute_lambda(monkeypatch):
    smoothed = QuadValues.smoothed

    def forbidden(vals, alpha, with_lam):
        if with_lam:
            raise AssertionError("lambda computed during a sweep trial")
        return smoothed(vals, alpha, with_lam)

    monkeypatch.setattr(QuadValues, "smoothed", forbidden)
    for csit in ("limited", "perfect"):
        cfg = rs.parse_config_text(
            f"csit_mode = {csit}\nmethods = gpi-rsma, gpi-sdma, rzf-sdma, mrt\ntrials = 1")
        rows = rs.run_trial(cfg, None, 0)
        assert [r.method for r in rows] == ["gpi-rsma", "gpi-sdma", "rzf-sdma", "mrt"]
        assert all(math.isfinite(r.sum_secrecy_se) for r in rows)
        assert rows[0].iterations > 0


def test_trace_iterates_are_stable_and_carry_lambda(fig_config):
    cfg, qf, start = solve_setup(fig_config)
    _, trace = rs.gpi_solve(qf, start, cfg)
    _, again = rs.gpi_solve(qf, start, cfg)
    assert again == trace
    assert [row[3] for row in again.rows] == [row[3] for row in trace.rows]
    assert len(trace.rows) == trace.iterations_used + 1
    unit = start / np.linalg.norm(start, axis=(-2, -1))
    assert trace.rows[0][3] == qf.evaluate(unit).smoothed(cfg.smoothing, True).lam
    assert trace.rows[0][2] == rs.smoothed_objective(qf, unit, cfg)


def chunk(build, count, t_max=30):
    """The chunk's set, each draw's own set and the MRT starts of ``count``
    perfect-or-limited draws at a tight tolerance, so the chunk mixes fast,
    slow, accelerated and exhausted solves; draw 1001 two-cycles under the
    plain map."""
    cfg = rs.SystemConfig(n_antennas=4, n_secret=2, n_normal=2, n_eves=2,
                          epsilon=1e-4, t_max=t_max).with_snr_db(20.0)
    reals = []
    for seed in [1001, *range(2000, 2000 + count - 1)]:
        rng = np.random.default_rng(seed)
        layout = rs.ScenarioLayout(user_center=float(rng.uniform(0, 2 * np.pi)))
        reals.append(rs.draw_scenario(cfg, layout, rng))
    starts = np.stack([rs.mrt_init(real.user_channels) for real in reals])
    return cfg, build(rs.ChannelRealization.stack(reals), cfg), [build(r, cfg) for r in reals], starts


@pytest.mark.parametrize("build", [rs.build_quadforms_perfect, rs.build_quadforms_limited])
def test_batched_solve_matches_single_solves_bit_for_bit(build):
    cfg, stacked, sets, starts = chunk(build, 8)
    alone = [rs.gpi_solve(qf, start, cfg) for qf, start in zip(sets, starts)]
    assert len({trace.iterations_used for _, trace in alone}) > 2
    assert not all(trace.converged for _, trace in alone)
    subset = np.random.default_rng(3).permutation(len(sets))[:5]
    for pick in (np.arange(len(sets)), subset):
        solutions, trace = gpi_solve_batch(stacked.take(pick), starts[pick], cfg, keep_iterates=True)
        assert solutions.shape == (len(pick), *stacked.shape)
        for j, i in enumerate(pick):
            assert np.array_equal(solutions[j], alone[i][0])
            assert trace.take(j) == alone[i][1]
            assert [row[3] for row in trace.rows[j]] == [row[3] for row in alone[i][1].rows]


@pytest.mark.parametrize("build", [rs.build_quadforms_perfect, rs.build_quadforms_limited])
def test_failed_trial_leaves_the_rest_of_its_chunk_alone(build):
    cfg, stacked, sets, starts = chunk(build, 4)
    # trial 2's first signal row and its outer product
    rows, own = stacked.rows.copy(), stacked.own.copy()
    rows[2, 0, 0] = own[2, 0, 0, 0] = np.nan
    stacked = replace(stacked, rows=rows, own=own)
    solutions, trace = gpi_solve_batch(stacked, starts, cfg, keep_iterates=True)
    # the failed trial reads as its sweep row does
    assert np.isnan(solutions[2]).all() and math.isnan(trace.objective[2])
    assert (trace.iterations_used[2], trace.converged[2]) == (0, False)
    with pytest.raises(rs.NumericError):
        rs.gpi_solve(stacked.take(2), starts[2], cfg)
    with pytest.raises(rs.NumericError):
        kkt_residual(stacked.take(2), starts[2], cfg)
    for i in (0, 1, 3):
        stack, alone = rs.gpi_solve(sets[i], starts[i], cfg)
        assert np.array_equal(solutions[i], stack)
        assert trace.take(i) == alone
        assert alone.iterations_used > 0


@pytest.mark.parametrize("build", [rs.build_quadforms_perfect, rs.build_quadforms_limited])
def test_a_sweep_solve_keeps_no_iterates_and_the_same_outcome(build):
    cfg, stacked, _, starts = chunk(build, 8)
    want, full = gpi_solve_batch(stacked, starts, cfg, keep_iterates=True)
    solutions, trace = gpi_solve_batch(stacked, starts, cfg)
    assert np.array_equal(solutions, want)
    for name in ("iterations_used", "converged", "objective", "restarts"):
        assert np.array_equal(getattr(trace, name), getattr(full, name))
    assert trace.rows == ((),) * len(starts)
    assert [len(rows) for rows in full.rows] == (full.iterations_used + 1).tolist()


@pytest.mark.parametrize("build", [rs.build_quadforms_perfect, rs.build_quadforms_limited])
def test_trace_objective_is_the_returned_iterates(build):
    # the chunk mixes converged solves and solves stopped at t_max
    cfg, stacked, sets, starts = chunk(build, 8)
    solutions, batch = gpi_solve_batch(stacked, starts, cfg, keep_iterates=True)
    assert set(batch.converged.tolist()) == {True, False}
    assert np.array_equal(batch.objective, rs.smoothed_objective(stacked, solutions, cfg))
    for i, (qf, stack) in enumerate(zip(sets, solutions)):
        trace = batch.take(i)
        assert trace.objective == rs.smoothed_objective(qf, stack, cfg)
        objectives = [row[2] for row in trace.rows]
        assert trace.objective == (objectives[-1] if trace.converged else max(objectives))


def test_block_solve_solves_a_stack_of_trials():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((3, 2, 4, 4)) + 1j * rng.standard_normal((3, 2, 4, 4))
    blocks = g @ g.conj().transpose(0, 1, 3, 2) + np.eye(4)
    rhs = rng.standard_normal((3, 2, 4)) + 0j
    x = block_solve(blocks, rhs)
    assert x.shape == rhs.shape
    for t in range(3):
        assert np.array_equal(x[t], block_solve(blocks[t], rhs[t]))


def plain_map(stacked, starts, cfg):
    """Iterates, step norms and objectives of cfg.t_max plain steps on every
    trial of ``stacked``, written from QuadValues.smoothed, assemble_kkt,
    block_solve and _align_phase."""
    x = starts / np.linalg.norm(starts, axis=(-2, -1))[:, None, None]
    iterates, steps = [x], [None]
    smoothed = stacked.evaluate(x).smoothed(cfg.smoothing, False)
    objectives = [smoothed.objective]
    for _ in range(cfg.t_max):
        a_op, b_op = assemble_kkt(stacked, smoothed)
        img = block_solve(b_op, _matvec(a_op, x))
        img = _align_phase(img / np.linalg.norm(img, axis=(-2, -1))[:, None, None], x)
        steps.append(np.linalg.norm(img - x, axis=(-2, -1)))
        x = img
        iterates.append(x)
        smoothed = stacked.evaluate(x).smoothed(cfg.smoothing, False)
        objectives.append(smoothed.objective)
    return iterates, steps, objectives


def assert_plain_map(stack, trace, plain, i):
    """The solve of trial i of plain_map's stack followed the plain map bit
    for bit and returned its best iterate."""
    iterates, steps, objectives = plain
    assert not trace.converged
    assert [row[2] for row in trace.rows] == [float(o[i]) for o in objectives]
    assert [row[1] for row in trace.rows[1:]] == [float(s[i]) for s in steps[1:]]
    best = int(np.argmax([o[i] for o in objectives]))
    assert np.array_equal(stack, iterates[best][i])


@pytest.mark.parametrize("build", [rs.build_quadforms_perfect, rs.build_quadforms_limited])
def test_a_solve_within_the_warmup_is_the_plain_map_bit_for_bit(build):
    cfg, stacked, _, starts = chunk(build, 8, t_max=solver._WARMUP)
    cfg = replace(cfg, epsilon=1e-15)
    plain = plain_map(stacked, starts, cfg)
    solutions, batch = gpi_solve_batch(stacked, starts, cfg, keep_iterates=True)
    assert not batch.restarts.any()
    for i, stack in enumerate(solutions):
        assert_plain_map(stack, batch.take(i), plain, i)


@pytest.mark.parametrize("build", [rs.build_quadforms_perfect, rs.build_quadforms_limited])
def test_a_candidate_no_better_than_the_plain_image_is_rejected(build, monkeypatch):
    # every candidate is made the current iterate x; where the plain map
    # climbs at every step, x's objective is below g(x)'s, so the safeguard
    # must reject each candidate and leave the plain map bit for bit.  A
    # safeguard that compared the candidate with x would take x and stall
    cfg, stacked, _, starts = chunk(build, 8, t_max=solver._WARMUP + 10)
    cfg = replace(cfg, epsilon=1e-15)
    plain = plain_map(stacked, starts, cfg)
    climbs = (np.diff(plain[2], axis=0)[solver._WARMUP:] > 1e-9).all(axis=0)
    pick = np.flatnonzero(climbs)
    assert len(pick) >= 2
    monkeypatch.setattr(solver, "_anderson", lambda img, d_img, d_res, res: img - res)
    solutions, batch = gpi_solve_batch(stacked.take(pick), starts[pick], cfg, keep_iterates=True)
    assert (batch.restarts == cfg.t_max - solver._WARMUP).all()
    for j, i in enumerate(pick.tolist()):
        assert_plain_map(solutions[j], batch.take(j), plain, i)


@pytest.mark.parametrize("build", [rs.build_quadforms_perfect, rs.build_quadforms_limited])
def test_candidates_are_scored_without_copying_the_set(build, monkeypatch):
    # no trial stops before t_max, so the set is never compacted, and the
    # accelerated steps score their candidates on the active set itself
    cfg, stacked, sets, starts = chunk(build, 8, t_max=solver._WARMUP + 10)
    cfg = replace(cfg, epsilon=1e-15)
    alone = [rs.gpi_solve(qf, start, cfg) for qf, start in zip(sets, starts)]
    takes = []
    take = QuadFormSet.take
    monkeypatch.setattr(QuadFormSet, "take", lambda qf, index: takes.append(index) or take(qf, index))
    solutions, batch = gpi_solve_batch(stacked, starts, cfg, keep_iterates=True)
    assert takes == []
    assert not batch.converged.any() and (batch.iterations_used == cfg.t_max).all()
    for i, (want, full) in enumerate(alone):
        assert np.array_equal(solutions[i], want)
        assert batch.take(i) == full
