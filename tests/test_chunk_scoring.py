"""A sweep chunk is built and scored in one call per method: each builder,
scorer and baseline takes a leading trial axis, and its (T, ...) call equals
T single calls."""
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rsmasec as rs
from rsmasec import harness
from test_harness import cells


def draws(cfg, n_trials, seed):
    rng = np.random.default_rng(seed)
    reals = [rs.draw_scenario(cfg, rs.ScenarioLayout(quad_nodes=64), rng) for _ in range(n_trials)]
    dim = (cfg.n_users + 1, cfg.n_antennas)
    stacks = rng.standard_normal((n_trials, *dim)) + 1j * rng.standard_normal((n_trials, *dim))
    return reals, stacks / np.linalg.norm(stacks, axis=(1, 2), keepdims=True)


def assert_per_trial(batched, single, n_trials):
    for t in range(n_trials):
        np.testing.assert_allclose(batched[t], single(t), rtol=0, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    s=st.integers(0, 3),
    m=st.integers(0, 3),
    e=st.integers(0, 3),
    n_trials=st.integers(1, 4),
    snr_db=st.floats(-10, 60),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, s=0, m=2, e=1, n_trials=3, snr_db=20.0, seed=0)  # no secret user
@example(n=1, s=1, m=0, e=0, n_trials=2, snr_db=60.0, seed=1)  # K = 1, empty wiretap set
def test_trial_axis_calls_equal_per_trial_calls(n, s, m, e, n_trials, snr_db, seed):
    assume(s + m >= 1)
    cfg = rs.SystemConfig(n_antennas=n, n_secret=s, n_normal=m, n_eves=e).with_snr_db(snr_db)
    reals, stacks = draws(cfg, n_trials, seed)
    truth = rs.ChannelRealization.stack(reals)

    report = rs.sum_secrecy_se(truth, stacks, cfg)
    for field in dataclasses.fields(report):
        batched = np.asarray(getattr(report, field.name))
        assert batched.shape[0] == n_trials, field.name
        assert_per_trial(batched, lambda t: getattr(
            rs.sum_secrecy_se(reals[t], stacks[t], cfg), field.name), n_trials)

    est = np.stack([r.user_estimates for r in reals])
    for common_stream in (True, False):
        assert_per_trial(rs.mrt_init(est, common_stream=common_stream),
                         lambda t: rs.mrt_init(est[t], common_stream=common_stream), n_trials)
    assert_per_trial(rs.rzf_precoder(est, cfg), lambda t: rs.rzf_precoder(est[t], cfg), n_trials)

    for build in (rs.build_quadforms_perfect, rs.build_quadforms_limited):
        sets = [build(r, cfg) for r in reals]
        chunk = build(truth, cfg)
        for name in ("rows", "own", "ridge", "error_scale", "covs"):
            assert getattr(chunk, name).shape == (n_trials, *np.shape(getattr(sets[0], name))), name
        for t in range(n_trials):
            for name in ("rows", "own", "ridge", "error_scale", "covs"):
                assert np.array_equal(getattr(chunk, name)[t], getattr(sets[t], name)), name
            for name in ("gain", "loss"):
                assert getattr(chunk, name) is getattr(sets[t], name), name
        assert rs.smoothed_objective(chunk, stacks, cfg).tolist() == [
            rs.smoothed_objective(sets[t], stacks[t], cfg) for t in range(n_trials)]


@pytest.mark.parametrize("dims", [(4, 2, 2, 2), (3, 1, 7, 2), (2, 1, 0, 0)])
@pytest.mark.parametrize("build", [rs.build_quadforms_perfect, rs.build_quadforms_limited])
def test_a_point_axis_scores_each_point_as_its_own_call(build, dims):
    # a GPI step scores [image, candidate] in one call; each point's values
    # and record must be the bits of its own call.  (3, 1, 7, 2) has K = 8
    # common rates and E + K - 1 = 9 wiretap forms
    n, s, m, e = dims
    cfg = rs.SystemConfig(n_antennas=n, n_secret=s, n_normal=m, n_eves=e).with_snr_db(10.0)
    reals, _ = draws(cfg, 3, 7)
    chunk = build(rs.ChannelRealization.stack(reals), cfg)
    rng = np.random.default_rng(2)
    points = rng.standard_normal((3, 2, *chunk.shape)) + 1j * rng.standard_normal((3, 2, *chunk.shape))
    for qf, f in ((chunk, points), (build(reals[0], cfg), points[0]), (chunk.without_common(), points)):
        both = qf.evaluate(f)
        record = both.smoothed(cfg.smoothing, True)
        assert record.a.flags.c_contiguous and record.b.flags.c_contiguous
        for p in range(2):
            one = qf.evaluate(f[..., p, :, :])
            alone = one.smoothed(cfg.smoothing, True)
            pairs = [(both.gain[..., p, :], one.gain), (both.loss[..., p, :], one.loss),
                     (record.a[..., p, :], alone.a), (record.b[..., p, :], alone.b),
                     (record.objective[..., p], alone.objective), (record.lam[..., p], alone.lam)]
            for got, want in pairs:
                assert np.array_equal(got, want)
    with pytest.raises(ValueError):
        chunk.evaluate(points[:2])
    with pytest.raises(ValueError):
        chunk.evaluate(points[:, :, None])


def test_stacked_realization_keeps_the_dimensions():
    cfg = rs.SystemConfig(n_antennas=3, n_secret=1, n_normal=1, n_eves=2)
    reals, _ = draws(cfg, 4, 5)
    stacked = rs.ChannelRealization.stack(reals)
    assert (stacked.n_users, stacked.n_eves, stacked.n_antennas) == (2, 2, 3)
    assert stacked.user_covs.shape == (4, 2, 3, 3)
    assert np.array_equal(stacked.eve_aoas[2], reals[2].eve_aoas)


def test_a_chunk_without_secret_users_matches_its_single_trials():
    cfg = rs.parse_config_text(
        "n_secret = 0\nn_normal = 3\nmethods = gpi-rsma, gpi-sdma, rzf-sdma, mrt\ntrials = 3")
    chunk = harness._sweep_rows(cfg, workers=1)
    alone = [r for t in range(3) for r in rs.run_trial(cfg, None, t)]
    assert [cells(r) for r in chunk] == [cells(r) for r in alone]
