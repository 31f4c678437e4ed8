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
from functools import lru_cache

import numpy as np

from .channel import ChannelRealization
from .config import SystemConfig


@dataclass(frozen=True)
class RateReport:
    """Per-stream rates and the resulting sum secrecy spectral efficiency.

    A report on a stacked realization puts a leading trial axis on every
    field, the two totals included.
    """

    common_per_user: np.ndarray         # (..., K)
    common_min: float | np.ndarray      # (...)
    private_per_user: np.ndarray        # (..., K)
    leakage_per_wiretapper: np.ndarray  # (..., S, E+K-1) eavesdroppers, then other users
    leakage_per_secret: np.ndarray      # (..., S) max over each wiretap set
    secrecy_per_secret: np.ndarray      # (..., S) [private - leakage]^+
    sum_secrecy_se: float | np.ndarray  # (...)


def sum_secrecy_se(
    realization: ChannelRealization,
    blocks: np.ndarray,
    config: SystemConfig,
    *,
    noise_user_ratio: float | np.ndarray | None = None,
    noise_eve_ratio: float | np.ndarray | None = None,
) -> RateReport:
    """Exact (non-smoothed) objective: min common rate plus the clamped
    secrecy rate of each secret user plus the private rates of normal users.

    Every rate reads the stream powers |h^H f_j|^2 of the users and of the
    eavesdroppers.  The common rate treats every private stream as noise; a
    private rate sees the other private streams once the common stream is
    cancelled.  Secret user s's stream leaks to each eavesdropper, which
    cancels nothing, and to each other user, which has removed the common
    stream and its own private stream.  An empty wiretap set leaks 0 bits.
    Each denominator sums the powers of the streams that interfere there,
    never a total less the wanted ones, so no rate loses bits to
    cancellation when the noise term is small.

    On a realization made by ``ChannelRealization.stack`` (channels of shape
    (T, K, N) and (T, E, N)), ``blocks`` is the (T, K+1, N) stack of one
    precoder per trial, and every field of the report gains the trial axis.
    ``noise_user_ratio`` and ``noise_eve_ratio`` are sigma_u^2 / P and
    sigma_e^2 / P, one value or one per trial of the stack, so that one call
    scores trials at several SNRs; they default to the config's.
    """
    k, n_s = config.n_users, config.n_secret
    h, g = realization.user_channels, realization.eve_channels
    want = (*h.shape[:-2], k + 1, config.n_antennas)
    if np.shape(blocks) != want:
        raise ValueError(f"precoder shape {np.shape(blocks)} is not (..., K+1, N) = {want}")
    if realization.n_users != k or realization.n_antennas != config.n_antennas:
        raise ValueError("realization/config dimension mismatch")
    if realization.n_eves != config.n_eves:
        raise ValueError("realization/config eavesdropper mismatch")
    f = np.swapaxes(blocks, -1, -2)
    pu = np.abs(h.conj() @ f) ** 2   # (..., K, K+1) user u, stream j
    pe = np.abs(g.conj() @ f) ** 2   # (..., E, K+1)
    lead = h.shape[:-2]
    # one noise term per trial, with an axis for the streams (and for the
    # secret users) it is added to
    noise_u = per_trial(noise_user_ratio, config.noise_user_ratio, lead, "noise_user_ratio")[..., None]
    noise_e = per_trial(noise_eve_ratio, config.noise_eve_ratio, lead, "noise_eve_ratio")[..., None, None]
    at_user, at_eve, taps, at_tap = _interferers(k, n_s)

    common = np.log2(1.0 + pu[..., 0] / (pu[..., 1:].sum(axis=-1) + noise_u))
    signal = np.diagonal(pu[..., 1:], axis1=-2, axis2=-1)
    private = np.log2(1.0 + signal / ((pu * at_user).sum(axis=-1) + noise_u))

    eve_num = np.swapaxes(pe[..., 1 : n_s + 1], -1, -2)                  # (..., S, E)
    eve_den = (pe[..., None, :, :] * at_eve).sum(axis=-1) + noise_e
    user_num = pu[..., taps, 1 + np.arange(n_s)[:, None]]               # (..., S, K-1)
    user_den = (pu[..., taps, :] * at_tap).sum(axis=-1) + noise_u[..., None]
    wiretap = np.log2(1.0 + np.concatenate([eve_num / eve_den, user_num / user_den], axis=-1))

    leak = wiretap.max(axis=-1, initial=0.0)
    secrecy = np.maximum(private[..., :n_s] - leak, 0.0)
    common_min = common.min(axis=-1)
    return RateReport(
        common_per_user=common,
        common_min=common_min,
        private_per_user=private,
        leakage_per_wiretapper=wiretap,
        leakage_per_secret=leak,
        secrecy_per_secret=secrecy,
        sum_secrecy_se=common_min + secrecy.sum(axis=-1) + private[..., n_s:].sum(axis=-1),
    )


def per_trial(value, default: float, lead: tuple[int, ...], name: str) -> np.ndarray:
    """``value`` (``default`` when None) as a float array: one value (0-d),
    or one per trial of a stack whose trial axes are ``lead``.  Any other
    shape raises ValueError."""
    out = np.asarray(default if value is None else value, dtype=float)
    if out.ndim and out.shape != lead:
        raise ValueError(f"{name} has shape {out.shape}; want one value or {lead}, one per trial")
    return out


@lru_cache(maxsize=16)
def _interferers(k: int, n_s: int) -> tuple[np.ndarray, ...]:
    """0/1 masks over the K+1 streams of the powers each denominator sums,
    for K users of which the first n_s are secret, plus the wiretapping users:
      - at_user (K, K+1): at user u, every private stream but u's own;
      - at_eve (S, 1, K+1): at an eavesdropper of secret user s, every stream
        but s's;
      - taps (S, K-1): the users wiretapping s, every other user in index order;
      - at_tap (S, K-1, K+1): at wiretapping user taps[s, i], every private
        stream but its own and s's.
    Read-only, because every call with the same dimensions shares them."""
    streams = np.arange(k + 1)
    secrets = np.arange(n_s)[:, None]
    at_user = (streams >= 1) & (streams != 1 + np.arange(k)[:, None])
    not_secret = streams != 1 + secrets
    slots = np.arange(k - 1)
    taps = slots + (slots >= secrets)
    masks = (at_user.astype(float), not_secret[:, None].astype(float), taps,
             (at_user[taps] & not_secret[:, None]).astype(float))
    for arr in masks:
        arr.flags.writeable = False
    return masks


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the leading axis, adding the rows one at a time in order.
    numpy sums a contiguous run of 8 or more pairwise, so its sum of one
    column alone could differ in the last bit from the same column's sum
    beside others."""
    if len(x) < 2:
        return x.sum(axis=0)
    total = x[0] + x[1]
    for row in x[2:]:
        total += row
    return total


def _lse_softmax(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(sum(exp(v))) over the leading axis, one per column (0-d for 1-D
    input), and its gradient softmax(v) in v's shape, from one set of
    exponentials exp(v - m): m is the column max, or 0 where that is not
    finite, so NaN and +-inf come out as the entries dictate (call it under
    ``np.errstate`` that ignores overflow, divide and invalid).  Every max,
    exp, log and divide runs over whole rows, far cheaper than reductions
    along short rows, and the sum is ``_row_sum``'s, so a column's values do
    not depend on the columns beside it."""
    m = v.max(axis=0, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    e = np.exp(v - m)
    total = _row_sum(e)
    return np.log(total) + m[0], e / total


def _smooth(values, alpha: float, sign: float, name: str):
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.shape[-1] == 0:
        raise ValueError(f"{name} of empty sequence")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = sign * alpha * _lse_softmax(np.moveaxis(sign * v / alpha, -1, 0))[0]
    return float(out) if out.ndim == 0 else out


def lse_min(values, alpha: float):
    """Smooth minimum -alpha*ln(sum exp(-v/alpha)) over the last axis; within
    alpha*ln(n) below the min.  A float for 1-D input, else one per row."""
    return _smooth(values, alpha, -1.0, "lse_min")


def lse_max(values, alpha: float):
    """Smooth maximum alpha*ln(sum exp(v/alpha)) over the last axis; within
    alpha*ln(n) above the max.  A float for 1-D input, else one per row."""
    return _smooth(values, alpha, 1.0, "lse_max")
