import math
import random
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rsmasec as rs
from rsmasec import channel
from rsmasec.channel import (
    TWO_PI,
    error_covariance,
    kl_decompose,
)

# Reference route for the covariance integral: plain trapezoid sum on a dense
# grid, written without reusing any production quadrature code.  At 100001
# nodes its own error is far below the 1e-8 comparison tolerance.  The sum
# over nodes is one matrix product with the trapezoid weights, so N=32 needs
# (N, nodes) arrays rather than (N, N, nodes).
def trapezoid_covariance(aoa, spread, n, spacing=0.5, nodes=100_001):
    pos = np.zeros((n, 2))
    pos[:, 0] = spacing * np.arange(n)
    x = np.linspace(aoa - spread, aoa + spread, nodes)
    direction = np.stack([np.cos(x), np.sin(x)])
    steer = np.exp(-1j * 2 * np.pi * (pos @ direction))
    weights = np.zeros(nodes)
    weights[:-1] += np.diff(x) / 2
    weights[1:] += np.diff(x) / 2
    return (steer * weights) @ steer.conj().T / (2 * spread)


def test_one_ring_matches_dense_reference():
    for aoa, spread, n, spacing in [(np.pi / 6, np.pi / 6, 4, 0.5), (4.0, 0.3, 4, 0.5),
                                     (1.0, 0.4, 3, 0.8), (2.5, np.pi / 6, 32, 0.5)]:
        produced = rs.one_ring_covariance(aoa, spread, n, spacing)
        reference = trapezoid_covariance(aoa, spread, n, spacing)
        assert np.abs(produced - reference).max() < 1e-8


def test_one_ring_frozen_entries():
    # values pinned from the dense trapezoid reference above
    r = rs.one_ring_covariance(np.pi / 6, np.pi / 6, 4)
    assert abs(r[0, 1] - (-0.768159122180887 + 0.452694103784663j)) < 1e-8
    assert abs(r[1, 3] - (+0.344643249669683 - 0.511324902295165j)) < 1e-8
    r = rs.one_ring_covariance(4.0, 0.3, 4)
    assert abs(r[0, 1] - (-0.402916708515238 - 0.825339848185752j)) < 1e-8
    assert abs(r[0, 3] - (+0.399815900006635 + 0.047124251994548j)) < 1e-8


@pytest.mark.parametrize("spacing", [0.5, 0.3, 1.7])
def test_phase_factors_from_cos_and_sin_equal_the_exponential(spacing):
    # one_ring_covariance writes exp(-j*phase) as cos(phase) - j*sin(phase);
    # a platform where the two differ in a bit would move every covariance
    angles = np.random.default_rng(11).uniform(-np.pi, np.pi, (32, 512))
    phase = TWO_PI * spacing * np.cos(angles)
    z = np.empty(phase.shape, dtype=complex)
    z.real, z.imag = np.cos(phase), -np.sin(phase)
    assert np.array_equal(z.view(float), np.exp(-1j * TWO_PI * spacing * np.cos(angles)).view(float))


@settings(max_examples=40, deadline=None)
@given(
    aoa=st.floats(0.0, TWO_PI),
    spread=st.floats(0.01, np.pi / 2),
    n=st.integers(1, 6),
)
def test_one_ring_structure(aoa, spread, n):
    r = rs.one_ring_covariance(aoa, spread, n)
    # unit diagonal: each entry integrates |exp|^2 = 1 against a unit weight
    assert np.abs(np.diag(r) - 1.0).max() < 1e-12
    assert np.abs(r - r.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(r).min() > -1e-10


@settings(max_examples=40, deadline=None)
@given(
    aoa=st.floats(0.0, TWO_PI),
    spread=st.floats(0.01, np.pi / 2),
    n=st.integers(1, 8),
    spacing=st.floats(0.1, 2.0),
)
def test_one_ring_is_exactly_hermitian_toeplitz(aoa, spread, n, spacing):
    r = rs.one_ring_covariance(aoa, spread, n, spacing)
    assert np.array_equal(r, r.conj().T)
    assert np.array_equal(r[1:, 1:], r[:-1, :-1])
    assert np.all(np.diag(r).imag == 0.0)


def test_one_ring_stack_equals_one_at_a_time():
    # 70 azimuths span three quadrature blocks
    aoas = np.random.default_rng(8).uniform(0.0, TWO_PI, (2, 35))
    stacked = rs.one_ring_covariance(aoas, np.pi / 6, 5)
    assert stacked.shape == (2, 35, 5, 5)
    for i, j in np.ndindex(aoas.shape):
        assert np.array_equal(stacked[i, j], rs.one_ring_covariance(aoas[i, j], np.pi / 6, 5))


@pytest.mark.parametrize("n", [2, 3, 7, 64, 512, 2048])
def test_gauss_nodes_match_leggauss(n):
    x, w = channel._gauss_nodes(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert np.abs(x - ref_x).max() <= 1e-15
    # leggauss's own end weights drift with n: at n=2048 they are off by
    # 6.3e-8 relative (1.1e-13 absolute) against a 40-digit reference, so the
    # end weights are checked against the recurrence in long arithmetic below
    inner = slice(1, -1) if n > 512 else slice(None)
    assert np.abs(w - ref_w)[inner].max() <= 1e-13
    assert abs(w.sum() - 2.0) <= 1e-14
    # exact for polynomials up to degree 2n-1; the odd ones vanish by symmetry
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    power = np.ones(n)
    for degree in range(0, 2 * n - 1, 2):
        assert abs((w * power).sum() - 2.0 / (degree + 1)) <= 1e-14
        power *= x * x


def test_gauss_end_weight_matches_long_arithmetic():
    mpmath = pytest.importorskip("mpmath")
    n = 2048
    x, w = channel._gauss_nodes(n)

    def legendre(t):   # (P_n(t), P_{n-1}(t)) by the recurrence
        prev, p = mpmath.mpf(1), t
        for j in range(1, n):
            prev, p = p, ((2 * j + 1) * t * p - j * prev) / (j + 1)
        return p, prev

    with mpmath.workdps(40):
        root = mpmath.mpf(float(x[-1]))
        for _ in range(3):   # Newton from the double node
            p, prev = legendre(root)
            root -= p * (root * root - 1) / (n * (root * p - prev))
        p, prev = legendre(root)
        exact = 2 * (1 - root * root) / (n * (root * p - prev)) ** 2
        # leggauss's end weight is off by 6.3e-8 here
        assert abs(float((float(w[-1]) - exact) / exact)) < 1e-9


def reconstruct(eigvecs, eigvals):
    return (eigvecs * eigvals) @ eigvecs.conj().T


def test_kl_decompose_reconstructs():
    cov = rs.one_ring_covariance(1.0, np.pi / 6, 4)
    u, lam = kl_decompose(cov)
    assert np.abs(reconstruct(u, lam) - cov).max() < 1e-8
    assert np.all(np.diff(lam) <= 0)
    assert np.all(lam > 0)
    gram = u.conj().T @ u
    assert np.abs(gram - np.eye(lam.size)).max() < 1e-12


def test_kl_truncation_drops_tiny_modes():
    cov = np.diag([1.0, 1e-14, 0.0]).astype(complex)
    u, lam = kl_decompose(cov, trunc_rel=1e-10)
    assert u.shape == (3, 1) and lam.tolist() == [1.0]


def test_kl_decompose_stack_zeroes_dropped_modes():
    covs = rs.one_ring_covariance(np.linspace(0.0, 3.0, 6).reshape(2, 3), np.pi / 12, 6)
    covs[1, 2] = np.diag([1.0, 1e-14, 0.0, 0.0, 0.0, 0.0])
    u, lam = kl_decompose(covs)
    assert u.shape == (2, 3, 6, 6) and lam.shape == (2, 3, 6)
    ranks = set()
    for i, j in np.ndindex(2, 3):
        one_u, one_lam = kl_decompose(covs[i, j])
        r = one_lam.size
        ranks.add(r)
        assert np.array_equal(lam[i, j, :r], one_lam) and np.all(lam[i, j, r:] == 0.0)
        assert np.array_equal(u[i, j, :, :r], one_u)
    assert len(ranks) > 1


def test_draw_scenario_power_tracks_trace():
    system = rs.SystemConfig(n_antennas=4, n_secret=1, n_normal=0, n_eves=0)
    layout = rs.ScenarioLayout(user_center=0.7)
    real = rs.draw_scenario(system, layout, [np.random.default_rng(i) for i in range(4000)])
    mean_power = float((np.abs(real.user_channels[:, 0]) ** 2).sum(axis=1).mean())
    trace = float(np.trace(rs.one_ring_covariance(0.7, np.pi / 6, 4)).real)
    assert abs(mean_power - trace) / trace < 0.1


def test_draw_scenario_kappa_zero_estimate_is_exact(fig_config):
    real = rs.draw_scenario(fig_config, rs.ScenarioLayout(kappa=0.0), np.random.default_rng(3))
    assert np.array_equal(real.user_estimates, real.user_channels)
    assert np.abs(real.error_covs).max() == 0.0


def test_draw_scenario_shares_channels_across_kappa(fig_config):
    # seed-matched runs across kappa draw the same channels
    a = rs.draw_scenario(fig_config, rs.ScenarioLayout(kappa=0.0), np.random.default_rng(5))
    b = rs.draw_scenario(fig_config, rs.ScenarioLayout(kappa=0.8), np.random.default_rng(5))
    assert np.array_equal(a.user_channels, b.user_channels)
    assert np.array_equal(a.eve_channels, b.eve_channels)
    assert not np.array_equal(a.user_estimates, b.user_estimates)


def test_error_covariance_scalar():
    cov = rs.one_ring_covariance(1.1, np.pi / 6, 4)
    kl = kl_decompose(cov)
    scale = 2.0 - 2.0 * math.sqrt(1.0 - 0.4**2)
    assert abs(scale - 0.16696972201766399) < 1e-15
    target = error_covariance(cov, 0.4)
    assert np.array_equal(target, scale * cov)
    assert np.abs(target - scale * reconstruct(*kl)).max() < 1e-14
    assert np.abs(error_covariance(cov, 0.0)).max() == 0.0
    with pytest.raises(ValueError):
        error_covariance(cov, 1.5)


def test_layout_sector_mode_positions():
    layout = rs.ScenarioLayout(user_mode="sector", user_sector=np.pi / 6, user_center=0.0)
    aoas = layout.user_aoas(4)
    expected = np.linspace(-np.pi / 12, np.pi / 12, 4) % TWO_PI
    assert np.allclose(aoas, expected)


def test_layout_spacing_mode_positions():
    layout = rs.ScenarioLayout(user_mode="spacing", user_spacing=np.pi / 6, user_center=1.0)
    aoas = layout.user_aoas(3)
    assert np.allclose(aoas, np.array([1.0 - np.pi / 6, 1.0, 1.0 + np.pi / 6]))


def test_layout_single_user_sits_at_center():
    layout = rs.ScenarioLayout(user_center=2.0)
    assert np.allclose(layout.user_aoas(1), [2.0])


def test_layout_rejects_bad_values():
    with pytest.raises(ValueError):
        rs.ScenarioLayout(user_mode="grid")
    with pytest.raises(ValueError):
        rs.ScenarioLayout(angular_spread=0.0)
    with pytest.raises(ValueError):
        rs.ScenarioLayout(kappa=2.0)


def test_draw_scenario_shapes_and_stats(fig_config):
    rng = np.random.default_rng(21)
    real = rs.draw_scenario(fig_config, rs.ScenarioLayout(), rng)
    k, n, e = fig_config.n_users, fig_config.n_antennas, fig_config.n_eves
    assert real.user_channels.shape == (k, n)
    assert real.user_estimates.shape == (k, n)
    assert real.eve_channels.shape == (e, n)
    assert real.error_covs.shape == (k, n, n)
    assert real.user_covs.shape == (k, n, n) and real.eve_covs.shape == (e, n, n)
    scale = 2.0 - 2.0 * math.sqrt(1.0 - 0.4**2)
    assert np.array_equal(real.error_covs, scale * real.user_covs)


def test_draw_scenario_without_eavesdroppers(fig_config):
    cfg = replace(fig_config, n_eves=0)
    real = rs.draw_scenario(cfg, rs.ScenarioLayout(), np.random.default_rng(22))
    assert real.eve_channels.shape == (0, 4)
    assert real.eve_covs.shape == (0, 4, 4) and real.eve_covs.dtype == complex


def test_draw_scenario_is_deterministic(fig_config):
    a = rs.draw_scenario(fig_config, rs.ScenarioLayout(), np.random.default_rng(33))
    b = rs.draw_scenario(fig_config, rs.ScenarioLayout(), np.random.default_rng(33))
    assert np.array_equal(a.user_channels, b.user_channels)
    assert np.array_equal(a.eve_channels, b.eve_channels)
    assert np.array_equal(a.user_estimates, b.user_estimates)
    assert np.array_equal(a.eve_aoas, b.eve_aoas)


def test_draw_scenario_caches_user_statistics_only(fig_config, monkeypatch):
    layout = rs.ScenarioLayout()
    a = rs.draw_scenario(fig_config, layout, np.random.default_rng(40))
    calls = []

    def counted(aoa, *args):
        calls.append(np.shape(aoa))
        return one_ring(aoa, *args)

    one_ring = channel.one_ring_covariance
    monkeypatch.setattr(channel, "one_ring_covariance", counted)
    b = rs.draw_scenario(fig_config, layout, [np.random.default_rng(41), np.random.default_rng(42)])
    # the users' statistics come from the cache; the eavesdroppers' are built
    # in one call for every trial
    assert calls == [(2, fig_config.n_eves)]
    n = fig_config.n_antennas
    cached, _ = channel._user_statistics(
        tuple(a.user_aoas.tolist()), layout.angular_spread, n,
        layout.antenna_spacing, layout.quad_nodes, layout.trunc_rel,
    )
    assert not cached.flags.writeable
    for i, aoa in enumerate(a.user_aoas):
        fresh = one_ring(aoa, layout.angular_spread, n, layout.antenna_spacing, layout.quad_nodes)
        assert np.array_equal(a.user_covs[i], fresh)
        assert np.array_equal(b.user_covs[1, i], fresh)
    assert not np.array_equal(a.eve_covs, b.eve_covs[0])
    assert not np.array_equal(a.eve_aoas, b.eve_aoas[0])


def _same_draws(chunk, single) -> bool:
    return all(
        np.array_equal(getattr(chunk, f.name), getattr(single, f.name))
        and getattr(chunk, f.name).shape == getattr(single, f.name).shape
        for f in fields(single)
    )


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 4),
    s=st.integers(0, 3),
    m=st.integers(0, 3),
    e=st.integers(0, 3),
    n_trials=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    order=st.randoms(use_true_random=False),
)
@example(n=32, s=8, m=8, e=8, n_trials=3, seed=2, order=random.Random(0))
def test_draw_scenario_trials_do_not_depend_on_their_chunk(n, s, m, e, n_trials, seed, order):
    assume(s + m >= 1)
    system = rs.SystemConfig(n_antennas=n, n_secret=s, n_normal=m, n_eves=e)
    layout = rs.ScenarioLayout(user_center=seed % 7)
    seeds = [seed + i for i in range(n_trials)]
    chunk = rs.draw_scenario(system, layout, [np.random.default_rng(x) for x in seeds])
    singles = [rs.draw_scenario(system, layout, np.random.default_rng(x)) for x in seeds]
    for i, single in enumerate(singles):
        assert _same_draws(chunk.take(i), single)
    subset = order.sample(range(n_trials), order.randint(1, n_trials))
    shuffled = rs.draw_scenario(system, layout, [np.random.default_rng(seeds[i]) for i in subset])
    for j, i in enumerate(subset):
        assert _same_draws(shuffled.take(j), singles[i])


def _per_terminal_draw(system, layout, seed):
    """A trial's channels drawn terminal by terminal: eavesdropper azimuths,
    then per user CN(0, I) coefficients of its channel and of its estimate's
    perturbation, then per eavesdropper those of its channel, each as a
    real and then an imaginary block of ``rank`` normals."""
    rng = np.random.default_rng(seed)
    n, kappa = system.n_antennas, layout.kappa
    eve_aoas = (layout.eve_center + layout.eve_sector * (rng.uniform(size=system.n_eves) - 0.5)) % TWO_PI

    def factor(aoa):
        cov = rs.one_ring_covariance(aoa, layout.angular_spread, n, layout.antenna_spacing,
                                     layout.quad_nodes)
        u, lam = kl_decompose(cov, layout.trunc_rel)
        return u * np.sqrt(lam)

    def cn(rank):
        return (rng.standard_normal(rank) + 1j * rng.standard_normal(rank)) / math.sqrt(2.0)

    h, est, g = [], [], []
    for aoa in layout.user_aoas(system.n_users):
        root = factor(aoa)
        h.append(root @ cn(root.shape[1]))
        est.append(math.sqrt(1.0 - kappa**2) * h[-1] + kappa * (root @ cn(root.shape[1])))
    for aoa in eve_aoas:
        root = factor(aoa)
        g.append(root @ cn(root.shape[1]))
    return np.array(h), np.array(est), np.array(g).reshape(-1, n)


@pytest.mark.parametrize("n, s, m, e", [(4, 2, 2, 2), (2, 2, 1, 3), (1, 1, 1, 0), (32, 4, 4, 4)])
def test_draw_scenario_stream_is_pinned(n, s, m, e):
    system = rs.SystemConfig(n_antennas=n, n_secret=s, n_normal=m, n_eves=e)
    layout = rs.ScenarioLayout(angular_spread=np.pi / 12)
    seeds = [11, 12, 13]
    rngs = [np.random.default_rng(x) for x in seeds]
    real = rs.draw_scenario(system, layout, rngs)
    for i, (rng, seed) in enumerate(zip(rngs, seeds)):
        kept_u = kl_decompose(real.user_covs[i])[1] > 0
        kept_e = kl_decompose(real.eve_covs[i])[1] > 0
        spent = np.random.default_rng(seed)
        spent.uniform(size=e)
        spent.standard_normal(4 * int(kept_u.sum()) + 2 * int(kept_e.sum()))
        assert rng.bit_generator.state == spent.bit_generator.state
        h, est, g = _per_terminal_draw(system, layout, seed)
        assert np.abs(real.user_channels[i] - h).max(initial=0.0) <= 1e-12
        assert np.abs(real.user_estimates[i] - est).max(initial=0.0) <= 1e-12
        assert np.abs(real.eve_channels[i] - g).max(initial=0.0) <= 1e-12
