import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import block_diag, solve
from scipy.special import softmax

import rsmasec as rs
from rsmasec import solver
from rsmasec.solver import (
    _matvec,
    _softmax,
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


@pytest.mark.parametrize("build", [rs.build_quadforms_perfect, rs.build_quadforms_limited])
def test_operator_tangency_identity(fig_config, scenario, build):
    # with unit prefactors, f^H A f == f^H B f at every point; this is what
    # makes the step scale-free and the eigenvalue drop out of the iteration
    qf = build(scenario, fig_config)
    for seed in range(10):
        f = random_unit(np.random.default_rng(seed), 20)
        a_op, b_op = assemble_kkt(qf, qf.evaluate(f.reshape(qf.shape)), fig_config.smoothing)
        qa, qb = quads(a_op, f), quads(b_op, f)
        assert abs(qa - qb) < 1e-10 * max(1.0, abs(qa))


@pytest.mark.parametrize("build", [rs.build_quadforms_perfect, rs.build_quadforms_limited])
def test_operator_matches_numeric_gradient(fig_config, scenario, build):
    qf = build(scenario, fig_config)
    f = random_unit(np.random.default_rng(3), 20)
    a_op, b_op = assemble_kkt(qf, qf.evaluate(f.reshape(qf.shape)), fig_config.smoothing)
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
    it0, step0, obj0, _ = trace.iterates[0]
    assert it0 == 0 and math.isnan(step0)
    assert abs(obj0 - rs.smoothed_objective(qf, start / np.linalg.norm(start), cfg)) < 1e-12
    assert abs(np.linalg.norm(stack) - 1.0) < 1e-12


def test_gpi_converged_means_small_last_step(fig_config):
    cfg, qf, start = solve_setup(fig_config)
    stack, trace = rs.gpi_solve(qf, start, cfg)
    assert trace.converged
    assert trace.iterations_used <= cfg.t_max
    assert trace.iterates[-1][1] <= cfg.epsilon
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
    objs_a = [row[2] for row in trace_a.iterates]
    objs_b = [row[2] for row in trace_b.iterates]
    assert np.allclose(objs_a, objs_b, atol=1e-9)


def test_gpi_exhaustion_returns_best_iterate(fig_config):
    cfg, qf, start = solve_setup(fig_config, epsilon=1e-15, t_max=3)
    stack, trace = rs.gpi_solve(qf, start, cfg)
    assert not trace.converged
    assert trace.iterations_used == 3
    best = max(row[2] for row in trace.iterates)
    assert abs(rs.smoothed_objective(qf, stack, cfg) - best) < 1e-12


def test_gpi_breaks_periodic_orbits(fig_config):
    # this draw two-cycles under the plain iteration map at tight tolerance;
    # the damped steps must still reach a genuine fixed point
    cfg = rs.SystemConfig(n_antennas=4, n_secret=2, n_normal=2, n_eves=2,
                          epsilon=1e-4, t_max=500).with_snr_db(20.0)
    rng = np.random.default_rng(1001)
    layout = rs.ScenarioLayout(user_center=float(rng.uniform(0, 2 * np.pi)))
    real = rs.draw_scenario(cfg, layout, rng)
    qf = rs.build_quadforms_perfect(real, cfg)
    stack, trace = rs.gpi_solve(qf, rs.mrt_init(real.user_channels), cfg)
    assert trace.converged
    assert kkt_residual(qf, stack, cfg) <= 1e-3


def test_gpi_improves_on_initializer(fig_config):
    cfg, qf, start = solve_setup(fig_config)
    stack, trace = rs.gpi_solve(qf, start, cfg)
    assert trace.iterates[-1][2] >= trace.iterates[0][2]


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
    assert all(len(row) == 4 for row in trace.iterates)
    # lambda can be any sign but must be recorded as a float
    assert all(isinstance(row[3], float) for row in trace.iterates)


@pytest.mark.parametrize("shape", [(7,), (3, 5)])
def test_softmax_matches_scipy_bit_for_bit(shape):
    rng = np.random.default_rng(11)
    for scale in (1e-3, 1.0, 1e3):
        x = scale * rng.standard_normal(shape)
        axis = None if len(shape) == 1 else 1
        assert np.array_equal(_softmax(x, axis=axis), softmax(x, axis=axis))


def test_sweeps_never_compute_lambda(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("lambda computed during a sweep trial")

    monkeypatch.setattr(solver, "_lambda_from_values", forbidden)
    for csit in ("limited", "perfect"):
        cfg = rs.parse_config_text(
            f"csit_mode = {csit}\nmethods = gpi-rsma, gpi-sdma, rzf-sdma, mrt\ntrials = 1")
        rows = rs.run_trial(cfg, None, 0)
        assert [r.method for r in rows] == ["gpi-rsma", "gpi-sdma", "rzf-sdma", "mrt"]
        assert all(math.isfinite(r.sum_secrecy_se) for r in rows)
        assert rows[0].iterations > 0


def test_trace_equality_ignores_stored_values(fig_config):
    cfg, qf, start = solve_setup(fig_config)
    _, trace = rs.gpi_solve(qf, start, cfg)
    assert len(trace.values) == len(trace.rows) == trace.iterations_used + 1
    assert replace(trace, history=trace.history[::-1]) == trace
    assert replace(trace, converged=not trace.converged) != trace


def test_trace_iterates_are_stable_and_carry_lambda(fig_config):
    cfg, qf, start = solve_setup(fig_config)
    _, trace = rs.gpi_solve(qf, start, cfg)
    first, second = trace.iterates, trace.iterates
    assert first == second
    assert [row[:3] for row in first] == list(trace.rows)
    lam = [solver._lambda_from_values(v, cfg.smoothing) for v in trace.values]
    assert [row[3] for row in first] == lam


def chunk(build, count, t_max=60):
    """Sets and MRT starts of ``count`` perfect-or-limited draws at a tight
    tolerance, so the chunk mixes fast, slow, damped and exhausted solves;
    draw 1001 two-cycles under the plain map."""
    cfg = rs.SystemConfig(n_antennas=4, n_secret=2, n_normal=2, n_eves=2,
                          epsilon=1e-4, t_max=t_max).with_snr_db(20.0)
    sets, starts = [], []
    for seed in [1001, *range(2000, 2000 + count - 1)]:
        rng = np.random.default_rng(seed)
        layout = rs.ScenarioLayout(user_center=float(rng.uniform(0, 2 * np.pi)))
        real = rs.draw_scenario(cfg, layout, rng)
        sets.append(build(real, cfg))
        starts.append(rs.mrt_init(real.user_channels))
    return cfg, sets, np.stack(starts)


@pytest.mark.parametrize("build", [rs.build_quadforms_perfect, rs.build_quadforms_limited])
def test_batched_solve_matches_single_solves_bit_for_bit(build):
    cfg, sets, starts = chunk(build, 8)
    alone = [rs.gpi_solve(qf, start, cfg) for qf, start in zip(sets, starts)]
    assert len({trace.iterations_used for _, trace in alone}) > 2
    assert not all(trace.converged for _, trace in alone)
    subset = np.random.default_rng(3).permutation(len(sets))[:5]
    for pick in (np.arange(len(sets)), subset):
        batch = gpi_solve_batch([sets[i] for i in pick], starts[pick], cfg)
        for i, (stack, trace) in zip(pick, batch):
            assert np.array_equal(stack, alone[i][0])
            assert trace == alone[i][1]
            assert [v.private_num.tolist() for v in trace.values] == [
                v.private_num.tolist() for v in alone[i][1].values]


@pytest.mark.parametrize("build", [rs.build_quadforms_perfect, rs.build_quadforms_limited])
def test_failed_trial_leaves_the_rest_of_its_chunk_alone(build):
    cfg, sets, starts = chunk(build, 4)
    bases = sets[2].bases.copy()
    bases[1, 0, 0] = np.nan
    sets[2] = replace(sets[2], bases=bases)
    batch = gpi_solve_batch(sets, starts, cfg)
    assert isinstance(batch[2], rs.NumericError)
    with pytest.raises(rs.NumericError):
        rs.gpi_solve(sets[2], starts[2], cfg)
    for i in (0, 1, 3):
        stack, trace = rs.gpi_solve(sets[i], starts[i], cfg)
        assert np.array_equal(batch[i][0], stack)
        assert batch[i][1] == trace


def test_block_solve_solves_a_stack_of_trials():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((3, 2, 4, 4)) + 1j * rng.standard_normal((3, 2, 4, 4))
    blocks = g @ g.conj().transpose(0, 1, 3, 2) + np.eye(4)
    rhs = rng.standard_normal((3, 2, 4)) + 0j
    x = block_solve(blocks, rhs)
    assert x.shape == rhs.shape
    for t in range(3):
        assert np.array_equal(x[t], block_solve(blocks[t], rhs[t]))
