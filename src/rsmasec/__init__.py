"""Secure rate-splitting precoder optimization for multi-user downlink MIMO.

A transmitter serves secret and ordinary users over one array while
eavesdroppers (and the other users) may wiretap the secret streams.  The
package builds the smoothed sum secrecy spectral efficiency, solves for the
precoder stack by generalized power iteration under perfect or limited CSIT,
and ships an experiment harness with seeded Monte Carlo sweeps.

The names below are the documented API (README, "Library entry points");
everything else is reached through its module.
"""
from .baselines import mrt_init, rzf_precoder
from .channel import ChannelRealization, ScenarioLayout, draw_scenario, one_ring_covariance
from .config import SystemConfig
from .harness import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    parse_config_text,
    run_convergence,
    run_sweep,
    run_trial,
)
from .quadforms import build_quadforms_limited, build_quadforms_perfect, smoothed_objective
from .rates import sum_secrecy_se
from .solver import NumericError, gpi_solve
from .validate import run_validate

__version__ = "0.1.0"

__all__ = [
    "ChannelRealization",
    "ConfigError",
    "ExperimentConfig",
    "NumericError",
    "ScenarioLayout",
    "SystemConfig",
    "build_quadforms_limited",
    "build_quadforms_perfect",
    "draw_scenario",
    "gpi_solve",
    "mrt_init",
    "one_ring_covariance",
    "parse_config",
    "parse_config_text",
    "run_convergence",
    "run_sweep",
    "run_trial",
    "run_validate",
    "rzf_precoder",
    "smoothed_objective",
    "sum_secrecy_se",
]
