import logging
import math

import numpy as np
import pytest

import rsmasec as rs


def test_mrt_structure_on_orthonormal_channels():
    est = np.eye(2, dtype=complex)
    stack = rs.mrt_init(est)
    assert abs(stack.norm - 1.0) < 1e-12
    blocks = stack.blocks
    # common block follows the mean channel, private blocks the channels
    mean = est.mean(axis=0)
    assert abs(abs(np.vdot(blocks[0], mean)) - np.linalg.norm(blocks[0]) * np.linalg.norm(mean)) < 1e-12
    for i in range(2):
        cos = abs(np.vdot(blocks[1 + i], est[i]))
        assert abs(cos - np.linalg.norm(blocks[1 + i])) < 1e-12
    # pre-normalization block norms: mean has norm 1/sqrt(2), channels norm 1
    total = math.sqrt(0.5 + 1.0 + 1.0)
    assert abs(np.linalg.norm(blocks[0]) - math.sqrt(0.5) / total) < 1e-12


def test_mrt_zero_channels_fall_back_randomly(caplog):
    est = np.zeros((2, 4), dtype=complex)
    with caplog.at_level(logging.WARNING, logger="rsmasec.baselines"):
        stack = rs.mrt_init(est, np.random.default_rng(0))
    assert "zero" in caplog.text.lower()
    assert abs(stack.norm - 1.0) < 1e-12
    sdma = rs.mrt_init(est, np.random.default_rng(0), common_stream=False)
    assert np.all(sdma.blocks[0] == 0)
    assert abs(sdma.norm - 1.0) < 1e-12


def test_mrt_sdma_has_no_common_block():
    rng = np.random.default_rng(2)
    est = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    stack = rs.mrt_init(est, common_stream=False)
    assert stack.entries.shape == (12,)
    assert np.all(stack.blocks[0] == 0)
    assert np.abs(stack.blocks[1:] - est / np.linalg.norm(est)).max() < 1e-15


def test_rzf_aligns_with_orthogonal_channels(fig_config):
    est = np.eye(4, dtype=complex)
    stack = rs.rzf_precoder(est, fig_config)
    blocks = stack.blocks[1:]
    for i in range(4):
        cos = abs(np.vdot(blocks[i], est[i])) / np.linalg.norm(blocks[i])
        assert abs(cos - 1.0) < 1e-12


def test_rzf_zero_regularization_zero_forces(fig_config):
    rng = np.random.default_rng(9)
    est = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    stack = rs.rzf_precoder(est, fig_config, regularization=0.0)
    blocks = stack.blocks[1:]
    for i in range(4):
        for j in range(4):
            if i != j:
                assert abs(np.vdot(est[i], blocks[j])) < 1e-8


def test_rzf_equal_column_powers(fig_config):
    rng = np.random.default_rng(10)
    est = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    stack = rs.rzf_precoder(est, fig_config)
    norms = np.linalg.norm(stack.blocks, axis=1)
    assert norms[0] == 0.0
    assert np.allclose(norms[1:], 0.5)
    assert abs(np.linalg.norm(stack.entries) - 1.0) < 1e-12


def test_rzf_rejects_degenerate_inputs(fig_config):
    est = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        rs.rzf_precoder(est, fig_config, regularization=-1.0)
    est_bad = est.copy()
    est_bad[2] = 0.0
    with pytest.raises(ValueError):
        rs.rzf_precoder(est_bad, fig_config, regularization=0.0)


def test_sdma_stacks_zero_the_common_stream(fig_config, scenario):
    for stack in (rs.rzf_precoder(scenario.user_estimates, fig_config),
                  rs.mrt_init(scenario.user_estimates, common_stream=False)):
        assert stack.entries.shape == (20,)
        assert np.abs(stack.blocks[0]).max() == 0.0
        assert abs(stack.norm - 1.0) < 1e-12
        report = rs.sum_secrecy_se(scenario, stack, fig_config)
        assert report.common_min == 0.0


def test_gpi_sdma_solves_and_improves(fig_config, scenario):
    stack, trace = rs.gpi_sdma_solve(scenario, fig_config, "limited", np.random.default_rng(3))
    assert stack.entries.shape == (20,)
    assert np.all(stack.blocks[0] == 0)
    assert abs(np.linalg.norm(stack.entries) - 1.0) < 1e-12
    assert trace.iterates[-1][2] >= trace.iterates[0][2]
    # the same solve as the rate-splitting solver on the set without a common family
    qf = rs.build_quadforms_limited(scenario, fig_config).without_common()
    start = rs.mrt_init(scenario.user_estimates, common_stream=False)
    again, trace_again = rs.gpi_solve(qf, start, fig_config)
    assert np.array_equal(again.entries, stack.entries)
    assert trace_again == trace


def test_gpi_sdma_perfect_mode_runs(fig_config, scenario):
    stack, trace = rs.gpi_sdma_solve(scenario, fig_config, "perfect", np.random.default_rng(4))
    assert trace.converged
