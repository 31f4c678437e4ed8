"""Per-stream spectral efficiencies and the sum secrecy objective.

The transmitter splits each message into a common part (stream 0, decoded by
every user and then cancelled) and private parts (one stream per user).
Rates are in bits/s/Hz.  For a secret user s, the wiretap set is all
eavesdroppers plus every other user, each decoding s's private stream after
cancelling what their own receiver chain removes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .config import SystemConfig

LN2 = math.log(2.0)


@dataclass(frozen=True)
class PrecoderStack:
    """Stacked precoder [f_common; f_1; ...; f_K], one block per stream."""

    entries: np.ndarray
    n_antennas: int

    def __post_init__(self) -> None:
        vec = np.asarray(self.entries, dtype=complex).ravel()
        if vec.size % self.n_antennas != 0 or vec.size // self.n_antennas < 2:
            raise ValueError("stack length must be a multiple >= 2 of n_antennas")
        object.__setattr__(self, "entries", vec)

    @property
    def n_blocks(self) -> int:
        return self.entries.size // self.n_antennas

    @property
    def blocks(self) -> np.ndarray:
        """(n_blocks, N) view; row 0 is the common-stream precoder."""
        return self.entries.reshape(self.n_blocks, self.n_antennas)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def normalized(self) -> "PrecoderStack":
        n = self.norm
        if n == 0:
            raise ValueError("cannot normalize a zero stack")
        return PrecoderStack(self.entries / n, self.n_antennas)

    @classmethod
    def from_blocks(cls, blocks: np.ndarray) -> "PrecoderStack":
        blocks = np.asarray(blocks, dtype=complex)
        return cls(blocks.ravel(), blocks.shape[1])


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


def _check_dims(realization: ChannelRealization, precoder: PrecoderStack, config: SystemConfig) -> None:
    if precoder.n_antennas != config.n_antennas:
        raise ValueError("precoder/config antenna mismatch")
    if precoder.n_blocks != config.n_users + 1:
        raise ValueError("stack must hold one common plus K private blocks")
    if realization.n_users != config.n_users or realization.n_antennas != config.n_antennas:
        raise ValueError("realization/config dimension mismatch")


def common_se(
    realization: ChannelRealization,
    precoder: PrecoderStack,
    config: SystemConfig,
) -> np.ndarray:
    """Common-stream SE at each user, private streams all treated as noise."""
    _check_dims(realization, precoder, config)
    p = _stream_powers(realization.user_channels, precoder.blocks)
    denom = p[:, 1:].sum(axis=1) + config.noise_user_ratio
    return np.log2(1.0 + p[:, 0] / denom)


def private_se(
    realization: ChannelRealization,
    precoder: PrecoderStack,
    config: SystemConfig,
) -> np.ndarray:
    """Private-stream SE at each user, common stream already cancelled."""
    _check_dims(realization, precoder, config)
    p = _stream_powers(realization.user_channels, precoder.blocks)[:, 1:]
    signal = np.diag(p)
    denom = p.sum(axis=1) - signal + config.noise_user_ratio
    return np.log2(1.0 + signal / denom)


def leakage_se(
    realization: ChannelRealization,
    precoder: PrecoderStack,
    config: SystemConfig,
    secret: int,
) -> tuple[np.ndarray, float]:
    """SE of secret user ``secret``'s stream at each wiretapper.

    Returns (per-wiretapper rates ordered [eavesdroppers..., other users...],
    max over the set).  Eavesdroppers cannot cancel anything; a wiretapping
    user has already removed the common stream and its own private stream.
    An empty wiretap set yields ([], 0.0).
    """
    _check_dims(realization, precoder, config)
    if not 0 <= secret < config.n_secret:
        raise ValueError("secret index out of range")
    blocks = precoder.blocks
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
    precoder: PrecoderStack,
    config: SystemConfig,
) -> RateReport:
    """Exact (non-smoothed) objective: min common rate plus the clamped
    secrecy rate of each secret user plus the private rates of normal users."""
    common = common_se(realization, precoder, config)
    private = private_se(realization, precoder, config)
    leak = np.asarray(
        [leakage_se(realization, precoder, config, s)[1] for s in config.secret_ids]
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


def _logsumexp(v: np.ndarray) -> np.float64:
    """log(sum(exp(v))) with the operations of scipy.special.logsumexp.

    Every maximal entry is taken out of the shifted sum and counted instead:
    log1p(sum(exp(v - max)) / count) + log(count) + max.  Same bits as scipy
    1.17.1 without its per-call array-API dispatch.  A NaN or infinite max
    takes scipy's direct log(sum(exp(v))) route, which returns NaN, +inf or
    -inf as the entries dictate.
    """
    v = v.ravel()
    v_max = v.max()
    if not np.isfinite(v_max):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return np.log(np.exp(v).sum())
    at_max = v == v_max
    count = np.float64(np.count_nonzero(at_max))
    shifted = np.exp(np.where(at_max, -np.inf, v) - v_max).sum()
    return np.log1p(shifted / count) + np.log(count) + v_max


def lse_min(values, alpha: float) -> float:
    """Smooth minimum -alpha*ln(sum exp(-v/alpha)); within alpha*ln(n) below min."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("lse_min of empty sequence")
    return float(-alpha * _logsumexp(-v / alpha))


def lse_max(values, alpha: float) -> float:
    """Smooth maximum alpha*ln(sum exp(v/alpha)); within alpha*ln(n) above max."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("lse_max of empty sequence")
    return float(alpha * _logsumexp(v / alpha))
