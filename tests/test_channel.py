import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsmasec as rs
from rsmasec import channel
from rsmasec.channel import (
    TWO_PI,
    error_covariance,
    fdd_estimate,
    kl_decompose,
    sample_channel,
)

# Reference route for the covariance integral: plain trapezoid sum on a dense
# grid, written without reusing any production quadrature code.  At 100001
# nodes its own error is far below the 1e-8 comparison tolerance.
def trapezoid_covariance(aoa, spread, n, spacing=0.5, nodes=100_001):
    pos = np.zeros((n, 2))
    pos[:, 0] = spacing * np.arange(n)
    x = np.linspace(aoa - spread, aoa + spread, nodes)
    direction = np.stack([np.cos(x), np.sin(x)])
    steer = np.exp(-1j * 2 * np.pi * (pos @ direction))
    vals = steer[:, None, :] * steer.conj()[None, :, :]
    return np.trapezoid(vals, x, axis=2) / (2 * spread)


def test_one_ring_matches_dense_reference():
    for aoa, spread, n, spacing in [(np.pi / 6, np.pi / 6, 4, 0.5), (4.0, 0.3, 4, 0.5),
                                     (1.0, 0.4, 3, 0.8)]:
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


def test_sample_channel_power_tracks_trace():
    cov = rs.one_ring_covariance(0.7, np.pi / 6, 4)
    kl = kl_decompose(cov)
    rng = np.random.default_rng(11)
    draws = np.array([sample_channel(kl, rng) for _ in range(4000)])
    mean_power = float((np.abs(draws) ** 2).sum(axis=1).mean())
    trace = float(np.trace(cov).real)
    assert abs(mean_power - trace) / trace < 0.1


def test_fdd_estimate_kappa_zero_is_exact():
    cov = rs.one_ring_covariance(0.2, np.pi / 6, 4)
    kl = kl_decompose(cov)
    rng = np.random.default_rng(3)
    h = sample_channel(kl, rng)
    estimate, error = fdd_estimate(h, kl, 0.0, rng)
    assert np.abs(estimate - h).max() == 0.0
    assert np.abs(error).max() == 0.0


def test_fdd_estimate_consumes_rng_even_at_kappa_zero():
    # seed-matched runs across kappa must share subsequent draws
    cov = rs.one_ring_covariance(0.2, np.pi / 6, 4)
    kl = kl_decompose(cov)
    rng_a = np.random.default_rng(5)
    rng_b = np.random.default_rng(5)
    h = sample_channel(kl, np.random.default_rng(9))
    fdd_estimate(h, kl, 0.0, rng_a)
    fdd_estimate(h, kl, 0.8, rng_b)
    assert rng_a.uniform() == rng_b.uniform()


def test_fdd_estimate_rejects_bad_kappa():
    cov = rs.one_ring_covariance(0.2, np.pi / 6, 2)
    kl = kl_decompose(cov)
    h = sample_channel(kl, np.random.default_rng(0))
    with pytest.raises(ValueError):
        fdd_estimate(h, kl, 1.5, np.random.default_rng(0))


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

    def counted(*args):
        calls.append(args)
        return one_ring(*args)

    one_ring = channel.one_ring_covariance
    monkeypatch.setattr(channel, "one_ring_covariance", counted)
    b = rs.draw_scenario(fig_config, layout, np.random.default_rng(41))
    # the users' statistics come from the cache; only the eavesdroppers' are rebuilt
    assert len(calls) == fig_config.n_eves
    n = fig_config.n_antennas
    for i, aoa in enumerate(a.user_aoas):
        cached, _ = channel._user_statistics(
            float(aoa), layout.angular_spread, n,
            layout.antenna_spacing, layout.quad_nodes, layout.trunc_rel,
        )
        assert not cached.flags.writeable
        fresh = one_ring(aoa, layout.angular_spread, n, layout.antenna_spacing, layout.quad_nodes)
        assert np.array_equal(a.user_covs[i], fresh)
        assert np.array_equal(b.user_covs[i], fresh)
    assert not np.array_equal(a.eve_covs, b.eve_covs)
    assert not np.array_equal(a.eve_aoas, b.eve_aoas)
