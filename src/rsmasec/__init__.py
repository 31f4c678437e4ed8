"""Secure rate-splitting precoder optimization for multi-user downlink MIMO.

A transmitter serves secret and ordinary users over one array while
eavesdroppers (and the other users) may wiretap the secret streams.  The
package builds the smoothed sum secrecy spectral efficiency, solves for the
precoder stack by generalized power iteration under perfect or limited CSIT,
and ships an experiment harness with seeded Monte Carlo sweeps.
"""
from .baselines import gpi_sdma_solve, mrt_init, rzf_precoder
from .channel import (
    ArrayGeometry,
    ChannelRealization,
    HermitianCovariance,
    KlDecomposition,
    ScenarioLayout,
    draw_scenario,
    error_covariance,
    fdd_estimate,
    kl_decompose,
    one_ring_covariance,
    sample_channel,
)
from .config import SystemConfig
from .harness import (
    ConfigError,
    ExperimentConfig,
    TrialResult,
    parse_config,
    parse_config_text,
    run_convergence,
    run_sweep,
    run_trial,
)
from .quadforms import (
    QuadFormSet,
    build_quadforms_limited,
    build_quadforms_perfect,
    smoothed_objective,
)
from .rates import (
    PrecoderStack,
    RateReport,
    common_se,
    leakage_se,
    lse_max,
    lse_min,
    private_se,
    sum_secrecy_se,
)
from .solver import (
    KktOperator,
    NumericError,
    SolveTrace,
    assemble_kkt,
    block_solve,
    gpi_solve,
    gpi_solve_vector,
    kkt_residual,
)
from .validate import CheckResult, run_validate

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry",
    "ChannelRealization",
    "CheckResult",
    "ConfigError",
    "ExperimentConfig",
    "HermitianCovariance",
    "KktOperator",
    "KlDecomposition",
    "NumericError",
    "PrecoderStack",
    "QuadFormSet",
    "RateReport",
    "ScenarioLayout",
    "SolveTrace",
    "SystemConfig",
    "TrialResult",
    "assemble_kkt",
    "block_solve",
    "build_quadforms_limited",
    "build_quadforms_perfect",
    "common_se",
    "draw_scenario",
    "error_covariance",
    "fdd_estimate",
    "gpi_sdma_solve",
    "gpi_solve",
    "gpi_solve_vector",
    "kkt_residual",
    "kl_decompose",
    "leakage_se",
    "lse_max",
    "lse_min",
    "mrt_init",
    "one_ring_covariance",
    "parse_config",
    "parse_config_text",
    "private_se",
    "run_convergence",
    "run_sweep",
    "run_trial",
    "run_validate",
    "rzf_precoder",
    "sample_channel",
    "smoothed_objective",
    "sum_secrecy_se",
]
