"""Reference transmit schemes the rate-splitting solver is compared against."""
from __future__ import annotations

import math

import numpy as np

from .channel import ChannelRealization
from .config import SystemConfig
from .quadforms import build_quadforms_limited, build_quadforms_perfect
from .solver import SolveTrace, gpi_solve_vector


def mrt_init(estimates: np.ndarray, *, common_stream: bool = True) -> np.ndarray:
    """Matched-filter initializer: f_k = estimate_k, f_c = their average.

    With ``common_stream=False`` the common block is zero (the private-only
    SDMA start).  On a (T, K, N) stack of estimates it returns the (T, K+1, N)
    stack of each trial's start.  All-zero estimates are degenerate and raise
    ValueError.
    """
    est = np.asarray(estimates, dtype=complex)
    if est.ndim not in (2, 3):
        raise ValueError("estimates must be a (K, N) or (T, K, N) array")
    if common_stream:
        common = est.mean(axis=-2, keepdims=True)
    else:
        common = np.zeros((*est.shape[:-2], 1, est.shape[-1]))
    blocks = np.concatenate([common, est], axis=-2)
    # each stack's norm as np.linalg.norm takes it: the dot products of the
    # real and of the imaginary parts of the flattened stack
    flat = blocks.reshape(*blocks.shape[:-2], 1, -1)
    total = np.sqrt(flat.real @ np.swapaxes(flat.real, -1, -2)
                    + flat.imag @ np.swapaxes(flat.imag, -1, -2))
    if np.any(total == 0):
        raise ValueError("all-zero estimates; the matched filter is degenerate")
    return blocks / total


def rzf_precoder(estimates: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Regularized zero-forcing on the estimated channels.

    Directions are the columns of (H H^H + reg I)^-1 H with H = estimates^T
    and reg = K * sigma^2 / P.  Columns carry equal power, the stack is
    normalized to unit total power and its common block is zero.  On a
    (T, K, N) stack of estimates it returns the (T, K+1, N) stack of each
    trial's precoder.
    """
    est = np.asarray(estimates, dtype=complex)
    if est.ndim not in (2, 3):
        raise ValueError("estimates must be a (K, N) or (T, K, N) array")
    k, n = est.shape[-2:]
    h = np.swapaxes(est, -1, -2)  # (..., N, K), columns are channels
    gram = h @ np.swapaxes(h.conj(), -1, -2)
    w = np.linalg.solve(gram + k * config.noise_user_ratio * np.eye(n), h)
    col_norms = np.linalg.norm(w, axis=-2, keepdims=True)
    if np.any(col_norms == 0):
        raise ValueError("zero precoding column; estimates are degenerate")
    w = w / col_norms / math.sqrt(k)
    return np.concatenate([np.zeros((*est.shape[:-2], 1, n)), np.swapaxes(w, -1, -2)], axis=-2)


def gpi_sdma_solve(
    realization: ChannelRealization,
    config: SystemConfig,
    csit_mode: str = "perfect",
) -> tuple[np.ndarray, SolveTrace]:
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
    start = mrt_init(knowledge, common_stream=False)
    vec, trace = gpi_solve_vector(quadforms.without_common(), start.ravel(), config)
    return vec.reshape(start.shape), trace
