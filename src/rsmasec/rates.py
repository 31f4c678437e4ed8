"""Per-stream spectral efficiencies and the sum secrecy objective.

The transmitter splits each message into a common part (stream 0, decoded by
every user and then cancelled) and private parts (one stream per user).  A
precoder is a complex (K+1, N) array whose row 0 is the common stream; its
ravel() is the stacked f = [f_c; f_1; ...; f_K].  Rates are in bits/s/Hz.
For a secret user s, the wiretap set is all eavesdroppers plus every other
user, each decoding s's private stream after cancelling what their own
receiver chain removes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .config import SystemConfig


@dataclass(frozen=True)
class RateReport:
    """Per-stream rates and the resulting sum secrecy spectral efficiency."""

    common_per_user: np.ndarray         # (K,)
    common_min: float
    private_per_user: np.ndarray        # (K,)
    leakage_per_wiretapper: np.ndarray  # (S, E+K-1) eavesdroppers, then other users
    leakage_per_secret: np.ndarray      # (S,) max over each wiretap set
    secrecy_per_secret: np.ndarray      # (S,) [private - leakage]^+
    sum_secrecy_se: float


def sum_secrecy_se(
    realization: ChannelRealization,
    blocks: np.ndarray,
    config: SystemConfig,
) -> RateReport:
    """Exact (non-smoothed) objective: min common rate plus the clamped
    secrecy rate of each secret user plus the private rates of normal users.

    Every rate reads the stream powers |h^H f_j|^2 of the users and of the
    eavesdroppers.  The common rate treats every private stream as noise; a
    private rate sees the other private streams once the common stream is
    cancelled.  Secret user s's stream leaks to each eavesdropper, which
    cancels nothing, and to each other user, which has removed the common
    stream and its own private stream.  An empty wiretap set leaks 0 bits.
    """
    k, n_s = config.n_users, config.n_secret
    want = (k + 1, config.n_antennas)
    if np.shape(blocks) != want:
        raise ValueError(f"precoder shape {np.shape(blocks)} is not (K+1, N) = {want}")
    if realization.n_users != k or realization.n_antennas != config.n_antennas:
        raise ValueError("realization/config dimension mismatch")
    if realization.n_eves != config.n_eves:
        raise ValueError("realization/config eavesdropper mismatch")
    pu = np.abs(realization.user_channels.conj() @ blocks.T) ** 2  # (K, K+1)
    pe = np.abs(realization.eve_channels.conj() @ blocks.T) ** 2   # (E, K+1)
    noise_u = config.noise_user_ratio

    private_total = pu[:, 1:].sum(axis=1)
    signal = np.diag(pu[:, 1:])
    interference = private_total - signal
    common = np.log2(1.0 + pu[:, 0] / (private_total + noise_u))
    private = np.log2(1.0 + signal / (interference + noise_u))

    eve_num = pe[:, 1 : n_s + 1].T                                  # (S, E)
    eve_ratio = eve_num / (pe.sum(axis=1) - eve_num + config.noise_eve_ratio)
    user_num = pu[:, 1 : n_s + 1].T                                 # (S, K)
    user_den = interference - user_num + noise_u
    others = ~np.eye(n_s, k, dtype=bool)                            # user u != s
    user_ratio = (user_num[others] / user_den[others]).reshape(n_s, k - 1)
    wiretap = np.log2(1.0 + np.concatenate([eve_ratio, user_ratio], axis=1))

    leak = wiretap.max(axis=1, initial=0.0)
    secrecy = np.maximum(private[:n_s] - leak, 0.0)
    total = float(common.min()) + float(secrecy.sum()) + float(private[n_s:].sum())
    return RateReport(
        common_per_user=common,
        common_min=float(common.min()),
        private_per_user=private,
        leakage_per_wiretapper=wiretap,
        leakage_per_secret=leak,
        secrecy_per_secret=secrecy,
        sum_secrecy_se=total,
    )


def _logsumexp(v: np.ndarray) -> np.ndarray:
    """log(sum(exp(v))) over the last axis as m + log(sum(exp(v - m))), m the
    row max (0 where that is not finite, so NaN and +-inf come out as the
    entries dictate).  One value per row: a scalar for 1-D input."""
    m = v.max(axis=-1, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    with np.errstate(over="ignore", divide="ignore"):
        return np.log(np.exp(v - m).sum(axis=-1)) + m[..., 0]


def _smooth(values, alpha: float, sign: float, name: str):
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.shape[-1] == 0:
        raise ValueError(f"{name} of empty sequence")
    out = sign * alpha * _logsumexp(sign * v / alpha)
    return float(out) if out.ndim == 0 else out


def lse_min(values, alpha: float):
    """Smooth minimum -alpha*ln(sum exp(-v/alpha)) over the last axis; within
    alpha*ln(n) below the min.  A float for 1-D input, else one per row."""
    return _smooth(values, alpha, -1.0, "lse_min")


def lse_max(values, alpha: float):
    """Smooth maximum alpha*ln(sum exp(v/alpha)) over the last axis; within
    alpha*ln(n) above the max.  A float for 1-D input, else one per row."""
    return _smooth(values, alpha, 1.0, "lse_max")
