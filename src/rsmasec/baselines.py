"""Reference transmit schemes the rate-splitting solver is compared against."""
from __future__ import annotations

import logging
import math

import numpy as np

from .channel import ChannelRealization
from .config import SystemConfig
from .quadforms import build_quadforms_limited, build_quadforms_perfect
from .rates import PrecoderStack
from .solver import SolveTrace, gpi_solve_vector

log = logging.getLogger(__name__)


def mrt_init(
    estimates: np.ndarray,
    rng: np.random.Generator | None = None,
    common_stream: bool = True,
) -> PrecoderStack:
    """Matched-filter initializer: f_k = estimate_k, f_c = their average.

    With ``common_stream=False`` the common block is zero (the private-only
    SDMA start).  All-zero estimates are degenerate; a uniformly random unit
    stack, with the same common block rule, is returned instead and a
    warning logged.
    """
    est = np.asarray(estimates, dtype=complex)
    if est.ndim != 2:
        raise ValueError("estimates must be a (K, N) array")
    k, n = est.shape
    common = est.mean(axis=0, keepdims=True) if common_stream else np.zeros((1, n))
    blocks = np.concatenate([common, est], axis=0)
    total = np.linalg.norm(blocks)
    if total == 0:
        log.warning("mrt_init got all-zero estimates; falling back to a random stack")
        rng = rng if rng is not None else np.random.default_rng(0)
        blocks = rng.standard_normal((k + 1, n)) + 1j * rng.standard_normal((k + 1, n))
        if not common_stream:
            blocks[0] = 0.0
        total = np.linalg.norm(blocks)
    return PrecoderStack(blocks.ravel() / total, n)


def rzf_precoder(
    estimates: np.ndarray,
    config: SystemConfig,
    regularization: float | None = None,
) -> PrecoderStack:
    """Regularized zero-forcing on the estimated channels.

    Directions are the columns of (H H^H + reg I)^-1 H with H = estimates^T
    and reg = K * sigma^2 / P by default; reg = 0 gives plain zero-forcing
    via the pseudoinverse.  Columns carry equal power, the stack is
    normalized to unit total power and its common block is zero.
    """
    est = np.asarray(estimates, dtype=complex)
    if est.ndim != 2:
        raise ValueError("estimates must be a (K, N) array")
    k, n = est.shape
    if regularization is None:
        regularization = k * config.noise_user_ratio
    if regularization < 0:
        raise ValueError("regularization must be >= 0")
    h = est.T  # (N, K), columns are channels
    if regularization > 0:
        w = np.linalg.solve(h @ h.conj().T + regularization * np.eye(n), h)
    else:
        w = np.linalg.pinv(h.conj().T)
    col_norms = np.linalg.norm(w, axis=0)
    if np.any(col_norms == 0):
        raise ValueError("zero precoding column; estimates are degenerate")
    w = w / col_norms / math.sqrt(k)
    return PrecoderStack.from_blocks(np.concatenate([np.zeros((1, n)), w.T]))


def gpi_sdma_solve(
    realization: ChannelRealization,
    config: SystemConfig,
    csit_mode: str = "perfect",
    rng: np.random.Generator | None = None,
) -> tuple[PrecoderStack, SolveTrace]:
    """Power iteration on the private-only objective (no common stream).

    The rate-splitting solver on ``without_common()`` of the scenario's set,
    started from a zero common block: the operators are block-diagonal, so
    that block stays exactly zero and no common-rate term enters.
    """
    if csit_mode not in ("perfect", "limited"):
        raise ValueError("csit_mode must be 'perfect' or 'limited'")
    if csit_mode == "limited":
        quadforms = build_quadforms_limited(realization, config)
        knowledge = realization.user_estimates
    else:
        quadforms = build_quadforms_perfect(realization, config)
        knowledge = realization.user_channels
    start = mrt_init(knowledge, rng, common_stream=False)
    vec, trace = gpi_solve_vector(quadforms.without_common(), start.entries, config)
    return PrecoderStack(vec, config.n_antennas), trace
