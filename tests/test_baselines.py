import math

import numpy as np
import pytest

import rsmasec as rs


def test_mrt_structure_on_orthonormal_channels():
    est = np.eye(2, dtype=complex)
    blocks = rs.mrt_init(est)
    assert abs(np.linalg.norm(blocks) - 1.0) < 1e-12
    # common block follows the mean channel, private blocks the channels
    mean = est.mean(axis=0)
    assert abs(abs(np.vdot(blocks[0], mean)) - np.linalg.norm(blocks[0]) * np.linalg.norm(mean)) < 1e-12
    for i in range(2):
        cos = abs(np.vdot(blocks[1 + i], est[i]))
        assert abs(cos - np.linalg.norm(blocks[1 + i])) < 1e-12
    # pre-normalization block norms: mean has norm 1/sqrt(2), channels norm 1
    total = math.sqrt(0.5 + 1.0 + 1.0)
    assert abs(np.linalg.norm(blocks[0]) - math.sqrt(0.5) / total) < 1e-12


@pytest.mark.parametrize("common_stream", [True, False])
def test_mrt_rejects_all_zero_estimates(common_stream):
    with pytest.raises(ValueError, match="all-zero"):
        rs.mrt_init(np.zeros((2, 4), dtype=complex), common_stream=common_stream)


def test_mrt_takes_no_generator():
    # a stale positional generator must not be read as common_stream
    est = np.eye(2, dtype=complex)
    with pytest.raises(TypeError):
        rs.mrt_init(est, np.random.default_rng(0))


def test_mrt_sdma_has_no_common_block():
    rng = np.random.default_rng(2)
    est = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    stack = rs.mrt_init(est, common_stream=False)
    assert stack.shape == (4, 3)
    assert np.all(stack[0] == 0)
    assert np.abs(stack[1:] - est / np.linalg.norm(est)).max() < 1e-15


def test_rzf_aligns_with_orthogonal_channels(fig_config):
    est = np.eye(4, dtype=complex)
    blocks = rs.rzf_precoder(est, fig_config)[1:]
    for i in range(4):
        cos = abs(np.vdot(blocks[i], est[i])) / np.linalg.norm(blocks[i])
        assert abs(cos - 1.0) < 1e-12


def test_rzf_equal_column_powers(fig_config):
    rng = np.random.default_rng(10)
    est = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    stack = rs.rzf_precoder(est, fig_config)
    norms = np.linalg.norm(stack, axis=1)
    assert norms[0] == 0.0
    assert np.allclose(norms[1:], 0.5)
    assert abs(np.linalg.norm(stack) - 1.0) < 1e-12


def test_rzf_rejects_degenerate_inputs(fig_config):
    est = np.eye(4, dtype=complex)
    est[2] = 0.0
    with pytest.raises(ValueError):
        rs.rzf_precoder(est, fig_config)


def test_sdma_stacks_zero_the_common_stream(fig_config, scenario):
    for stack in (rs.rzf_precoder(scenario.user_estimates, fig_config),
                  rs.mrt_init(scenario.user_estimates, common_stream=False)):
        assert stack.shape == (5, 4)
        assert np.abs(stack[0]).max() == 0.0
        assert abs(np.linalg.norm(stack) - 1.0) < 1e-12
        report = rs.sum_secrecy_se(scenario, stack, fig_config)
        assert report.common_min == 0.0


def test_gpi_sdma_solves_and_improves(fig_config, scenario):
    # the private-only solver is the rate-splitting one on the set without a
    # common family, started from a zero common block
    qf = rs.build_quadforms_limited(scenario, fig_config).without_common()
    start = rs.mrt_init(scenario.user_estimates, common_stream=False)
    stack, trace = rs.gpi_solve(qf, start, fig_config)
    assert stack.shape == (5, 4)
    assert np.all(stack[0] == 0)
    assert abs(np.linalg.norm(stack) - 1.0) < 1e-12
    assert trace.rows[-1][2] >= trace.rows[0][2]


def test_gpi_sdma_perfect_mode_runs(fig_config, scenario):
    qf = rs.build_quadforms_perfect(scenario, fig_config).without_common()
    start = rs.mrt_init(scenario.user_channels, common_stream=False)
    stack, trace = rs.gpi_solve(qf, start, fig_config)
    assert trace.converged
