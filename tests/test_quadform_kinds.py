"""A quad-form set keeps its bases by kind: a scalar ridge, rank-1 rows, the
trial's own matrices, shared user covariances and the error scale c_kappa.
Its values and block stacks must equal those of the dense base stack the
realization describes, a trial's numbers must not depend on its chunk, and
what the trials share must stay shared."""
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rsmasec as rs
from rsmasec import harness
from rsmasec.quadforms import Smoothed
from rsmasec.solver import assemble_kkt

BUILDS = {"perfect": rs.build_quadforms_perfect, "limited": rs.build_quadforms_limited}


def outer(rows):
    return rows[..., :, None] * rows.conj()[..., None, :]


def dense_bases(real, csit, ridge):
    """The (..., n_bases, N, N) stack of every base matrix in the tables'
    base order, made from the realization's own arrays."""
    n = real.n_antennas
    eye = np.asarray(ridge)[..., None, None, None] * np.eye(n)
    eye = np.broadcast_to(eye, (*real.user_channels.shape[:-2], 1, n, n))
    if csit == "limited":
        parts = [outer(real.user_estimates), real.eve_covs, eye, real.user_covs, real.error_covs]
    else:
        parts = [outer(real.user_channels), outer(real.eve_channels), eye]
    return np.concatenate(parts, axis=-3)


def dense_values(table, bases, f):
    gram = np.einsum("tbi,tmij,tbj->tmb", f.conj(), bases, f).real
    return np.einsum("pmb,tmb->tp", table, gram)


def dense_blocks(table, bases, weights):
    return np.einsum("tp,pmb,tmij->tbij", weights, table, bases)


def assert_close(got, want):
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-12 * scale


def unit_stacks(rng, t, shape):
    f = rng.standard_normal((t, *shape)) + 1j * rng.standard_normal((t, *shape))
    return f / np.linalg.norm(f, axis=(1, 2), keepdims=True)


def check_against_dense(qf, real, csit, ridge, rng):
    t = len(qf.ridge)
    bases = dense_bases(real, csit, ridge)
    for sub in (qf, qf.without_common()):
        f = unit_stacks(rng, t, sub.shape)
        if not sub.has_common:
            f[:, 0] = 0.0
        vals = sub.evaluate(f)
        assert_close(vals.gain, dense_values(sub.gain, bases, f))
        assert_close(vals.loss, dense_values(sub.loss, bases, f))
        p = len(sub.gain)
        a, b = rng.uniform(0.1, 2.0, (2, t, p))
        a_op, b_op = assemble_kkt(sub, Smoothed(np.zeros(t), a, b, None))
        assert_close(a_op, dense_blocks(sub.gain, bases, a))
        assert_close(b_op, dense_blocks(sub.loss, bases, b))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 10),
    s=st.integers(0, 3),
    m=st.integers(0, 3),
    e=st.integers(0, 3),
    n_trials=st.integers(1, 4),
    csit=st.sampled_from(sorted(BUILDS)),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, s=3, m=2, e=1, n_trials=3, csit="limited", seed=0)   # K > N
@example(n=4, s=0, m=3, e=2, n_trials=2, csit="limited", seed=1)   # S = 0
@example(n=9, s=2, m=1, e=0, n_trials=2, csit="limited", seed=2)   # E = 0, rank-1 row forms
@example(n=1, s=1, m=1, e=2, n_trials=3, csit="perfect", seed=3)   # N = 1
def test_kinds_equal_the_dense_base_stack(n, s, m, e, n_trials, csit, seed):
    assume(s + m >= 1)
    cfg = rs.SystemConfig(n_antennas=n, n_secret=s, n_normal=m, n_eves=e)
    rng = np.random.default_rng(seed)
    real = rs.draw_scenario(cfg, rs.ScenarioLayout(quad_nodes=64),
                            [np.random.default_rng(seed + i) for i in range(n_trials)])
    ridge = rng.uniform(1e-3, 1.0, n_trials)
    check_against_dense(BUILDS[csit](real, cfg, ridge=ridge), real, csit, ridge, rng)


def pooled_chunk(axis, values, csit="limited", n_antennas=4, methods="gpi-rsma, mrt"):
    """A harness chunk pooled over ``values`` of ``axis``, two trials each."""
    cfg = rs.parse_config_text(
        f"n_antennas = {n_antennas}\ncsit_mode = {csit}\ntrials = 2\nsweep_axis = {axis}\n"
        f"sweep_values = {', '.join(map(str, values))}\nmethods = {methods}\n")
    (_, pieces), = harness._sweep_chunks(cfg, 1)
    parts, truth, ridge = harness._draw_chunk(cfg, pieces)
    return cfg, pieces, truth, ridge, harness._known(csit, truth, parts[0][0], ridge)[1]


@pytest.mark.parametrize("n_antennas", [4, 9])
@pytest.mark.parametrize("axis, values, shared", [
    ("kappa", (0.0, 0.4, 0.9), True),               # each trial's c_kappa differs
    ("snr_db", (0.0, 30.0), True),                  # each trial's ridge differs
    ("angular_separation", (0.2, 0.5), False),     # each piece's R differs
])
def test_a_pooled_chunk_equals_the_dense_base_stack(axis, values, shared, n_antennas):
    _, _, truth, ridge, qf = pooled_chunk(axis, values, n_antennas=n_antennas)
    assert len(set(qf.error_scale.tolist())) == (len(values) if axis == "kappa" else 1)
    assert (qf.covs.strides[0] == 0) == shared
    check_against_dense(qf, truth, "limited", ridge, np.random.default_rng(8))


@pytest.mark.parametrize("csit", sorted(BUILDS))
def test_a_trials_numbers_do_not_depend_on_its_chunk(csit):
    _, _, _, _, qf = pooled_chunk("kappa", (0.1, 0.5, 0.8), csit)
    t = len(qf.ridge)
    rng = np.random.default_rng(4)
    f = unit_stacks(rng, t, qf.shape)
    a, b = rng.uniform(0.1, 2.0, (2, t, len(qf.gain)))
    full_vals = qf.evaluate(f)
    full_ops = assemble_kkt(qf, Smoothed(np.zeros(t), a, b, None))
    for i in range(t):
        for pick in ([i], [i, (i + 3) % t]):
            sub = qf.take(np.array(pick))
            vals = sub.evaluate(f[pick])
            ops = assemble_kkt(sub, Smoothed(np.zeros(len(pick)), a[pick], b[pick], None))
            assert np.array_equal(vals.gain[0], full_vals.gain[i])
            assert np.array_equal(vals.loss[0], full_vals.loss[i])
            for op, full in zip(ops, full_ops):
                assert np.array_equal(op[0], full[i])


@pytest.mark.parametrize("axis, values", [("kappa", (0.1, 0.8)), ("snr_db", (0.0, 30.0))])
def test_a_trials_rows_do_not_depend_on_its_chunk(axis, values):
    cfg, pieces, _, _, _ = pooled_chunk(axis, values, methods=", ".join(harness.METHODS))
    trials = [(v, ai, t) for v, ai, run in pieces for t in run]
    rows = [harness._result_row(r)[:-1] for r in harness._run_chunk(cfg, pieces)]
    per_trial = len(cfg.methods)
    for j, (v, ai, t) in enumerate(trials):
        alone = harness._run_chunk(cfg, [(v, ai, range(t, t + 1))])
        assert [harness._result_row(r)[:-1] for r in alone] == rows[j * per_trial:(j + 1) * per_trial]
    pair = harness._run_chunk(cfg, [(v, ai, range(t, t + 1)) for v, ai, t in trials[1:3]])
    assert [harness._result_row(r)[:-1] for r in pair] == rows[per_trial:3 * per_trial]


def test_the_user_covariances_are_never_copied_per_trial():
    _, _, truth, _, qf = pooled_chunk("kappa", (0.1, 0.5, 0.8))
    assert qf.covs.strides[0] == 0 and truth.user_covs.strides[0] == 0
    assert not np.shares_memory(qf.covs, qf.own)
    t = len(qf.ridge)
    for index in (np.array([4, 1]), np.arange(t) % 2 == 0, slice(1, 4), np.newaxis):
        part = qf.take(index) if index is not np.newaxis else qf.take(2).take(index)
        assert part.covs.strides[0] == 0 and np.shares_memory(part.covs, qf.covs)
    assert np.shares_memory(qf.take(3).covs, qf.covs)


def test_every_set_of_one_shape_shares_one_pair_of_tables():
    _, _, _, _, a = pooled_chunk("snr_db", (0.0, 10.0))
    _, _, _, _, b = pooled_chunk("kappa", (0.2, 0.6))
    assert a.gain is b.gain and a.loss is b.loss
    assert not (a.gain.flags.writeable or a.loss.flags.writeable)
    _, _, _, _, perfect = pooled_chunk("snr_db", (0.0, 10.0), csit="perfect")
    assert perfect.gain is not a.gain


def array_bytes(qf):
    """Bytes the set's per-trial arrays hold: a broadcast array holds none."""
    return sum(getattr(qf, name).nbytes for name in ("rows", "own", "ridge", "error_scale", "covs")
               if getattr(qf, name).strides[0] != 0)


@pytest.mark.parametrize("csit", sorted(BUILDS))
@pytest.mark.parametrize("dims", [(4, 2, 2, 2), (6, 1, 2, 3), (3, 0, 4, 0)])
def test_trial_bytes_are_what_a_trial_adds_to_its_chunk(csit, dims):
    n, s, m, e = dims
    cfg = rs.SystemConfig(n_antennas=n, n_secret=s, n_normal=m, n_eves=e)
    rngs = [np.random.default_rng(i) for i in range(4)]
    real = rs.draw_scenario(cfg, rs.ScenarioLayout(quad_nodes=64), rngs)
    sizes = []
    for t in (3, 4):
        qf = BUILDS[csit](real.take(slice(0, t)), cfg)
        w = np.ones((t, len(qf.gain)))
        stacks = assemble_kkt(qf, Smoothed(np.zeros(t), w, w, None))
        sizes.append(array_bytes(qf) + sum(op.nbytes for op in stacks))
    assert sizes[1] - sizes[0] == harness._trial_bytes(cfg, csit)
