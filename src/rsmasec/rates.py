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

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .config import SystemConfig


@dataclass(frozen=True)
class RateReport:
    """Per-stream rates and the resulting sum secrecy spectral efficiency."""

    common_per_user: np.ndarray      # (K,)
    common_min: float
    private_per_user: np.ndarray     # (K,)
    leakage_per_secret: np.ndarray   # (S,) max over each wiretap set
    secrecy_per_secret: np.ndarray   # (S,) [private - leakage]^+
    sum_secrecy_se: float


def _stream_powers(channels: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """|h_k^H f_j|^2 for every channel row k and stack block j."""
    return np.abs(channels.conj() @ blocks.T) ** 2


def _check_dims(realization: ChannelRealization, blocks: np.ndarray, config: SystemConfig) -> None:
    want = (config.n_users + 1, config.n_antennas)
    if np.shape(blocks) != want:
        raise ValueError(f"precoder shape {np.shape(blocks)} is not (K+1, N) = {want}")
    if realization.n_users != config.n_users or realization.n_antennas != config.n_antennas:
        raise ValueError("realization/config dimension mismatch")
    if realization.n_eves != config.n_eves:
        raise ValueError("realization/config eavesdropper mismatch")


def common_se(
    realization: ChannelRealization,
    blocks: np.ndarray,
    config: SystemConfig,
) -> np.ndarray:
    """Common-stream SE at each user, private streams all treated as noise."""
    _check_dims(realization, blocks, config)
    p = _stream_powers(realization.user_channels, blocks)
    denom = p[:, 1:].sum(axis=1) + config.noise_user_ratio
    return np.log2(1.0 + p[:, 0] / denom)


def private_se(
    realization: ChannelRealization,
    blocks: np.ndarray,
    config: SystemConfig,
) -> np.ndarray:
    """Private-stream SE at each user, common stream already cancelled."""
    _check_dims(realization, blocks, config)
    p = _stream_powers(realization.user_channels, blocks)[:, 1:]
    signal = np.diag(p)
    denom = p.sum(axis=1) - signal + config.noise_user_ratio
    return np.log2(1.0 + signal / denom)


def leakage_se(
    realization: ChannelRealization,
    blocks: np.ndarray,
    config: SystemConfig,
    secret: int,
) -> tuple[np.ndarray, float]:
    """SE of secret user ``secret``'s stream at each wiretapper.

    Returns (per-wiretapper rates ordered [eavesdroppers..., other users...],
    max over the set).  Eavesdroppers cannot cancel anything; a wiretapping
    user has already removed the common stream and its own private stream.
    An empty wiretap set yields ([], 0.0).
    """
    _check_dims(realization, blocks, config)
    if not 0 <= secret < config.n_secret:
        raise ValueError("secret index out of range")
    noise_u = config.noise_user_ratio
    rates = []

    if config.n_eves:
        pe = _stream_powers(realization.eve_channels, blocks)
        num = pe[:, secret + 1]
        denom = pe.sum(axis=1) - num + config.noise_eve_ratio
        rates.extend(np.log2(1.0 + num / denom))

    pu = _stream_powers(realization.user_channels, blocks)[:, 1:]
    for u in range(config.n_users):
        if u == secret:
            continue
        num = pu[u, secret]
        denom = pu[u].sum() - pu[u, u] - num + noise_u
        rates.append(math.log2(1.0 + num / denom))

    values = np.asarray(rates, dtype=float)
    return values, float(values.max()) if values.size else 0.0


def sum_secrecy_se(
    realization: ChannelRealization,
    blocks: np.ndarray,
    config: SystemConfig,
) -> RateReport:
    """Exact (non-smoothed) objective: min common rate plus the clamped
    secrecy rate of each secret user plus the private rates of normal users."""
    common = common_se(realization, blocks, config)
    private = private_se(realization, blocks, config)
    leak = np.asarray(
        [leakage_se(realization, blocks, config, s)[1] for s in config.secret_ids]
    )
    secrecy = np.maximum(private[: config.n_secret] - leak, 0.0)
    total = float(common.min()) + float(secrecy.sum()) + float(private[config.n_secret:].sum())
    return RateReport(
        common_per_user=common,
        common_min=float(common.min()),
        private_per_user=private,
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
