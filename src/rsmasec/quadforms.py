"""Block-diagonal quadratic-form encoding of every objective term.

With a unit-norm stacked precoder f, each term of the smoothed objective is
a log-ratio log2(f^H G f / f^H L f) that the term raises, for a pair (G, L)
of block-diagonal Hermitian matrices (one N x N block per stream): a form.
A rate's gain G is its numerator and its loss L its denominator; a leakage
term is subtracted, so its gain is the leakage denominator and its loss the
numerator.  The first-order condition B(f)^-1 A(f) f = lam f then collects
every gain into A and every loss into B.

Every block of every G and L is a combination of a few base matrices: the
noise ridge (sigma_u^2 / P) * I, the K signal outer products, the E
eavesdropper matrices and, under limited CSIT, the K error covariances and
K user covariances.  A set stores each base matrix once plus two real
coefficient tables, ``gain`` and ``loss``, with entry [p, m, b] the weight of
base matrix m in block b of form p.  No block is ever assembled into the
full N*(K+1) x N*(K+1) matrix, which is what makes the solver's linear
algebra cost scale with the number of blocks rather than its cube.

Two variants exist:
  - "perfect": true channels, one form per rate; the secrecy leakage is the
    max over the wiretap set (smoothed with log-sum-exp).
  - "limited": estimated channels with known error covariance; rate forms
    encode Jensen lower bounds, and leakage forms encode the terms of a
    full-collusion upper bound log2(1 + sum of ratios), which needs no max.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelRealization
from .config import SystemConfig
from .rates import lse_max, lse_min


def _complex(x: np.ndarray) -> np.ndarray:
    """``x`` as a C-contiguous complex array, whose (re, im) pairs a float view reads."""
    return np.ascontiguousarray(x, dtype=complex)


@dataclass(frozen=True)
class QuadFormSet:
    """All forms for one scenario, or for a chunk of trials.

    ``bases`` is the (n_bases, N, N) stack of base matrices, or (T, n_bases,
    N, N) for a chunk of T trials; base 0 is each trial's noise ridge
    (sigma_u^2 / P) * I.  ``gain`` and ``loss`` are the (n_forms, n_bases,
    n_blocks) coefficient tables, with real entries in {0, +-1,
    sigma_e^2 / sigma_u^2}.  Forms come in the order: K common rates, K
    private rates, then each of the ``n_secret`` secret users' wiretap sets
    of ``width`` = E + K - 1 forms (eavesdroppers first, then every other
    user in index order).  The tables depend only on the dimensions, the
    CSIT mode and sigma_e^2 / sigma_u^2, never on the SNR or the drawn
    channels, so a chunk shares one of each, also across trials at
    different SNRs; ``evaluate`` and ``weighted_blocks`` then work per
    trial.  The stack always has K+1 blocks, block 0 carrying the common
    stream.  ``has_common`` is False only on a ``without_common()`` view,
    which scores private-only (SDMA) stacks whose common block is zero.
    """

    bases: np.ndarray
    gain: np.ndarray
    loss: np.ndarray
    variant: str
    n_secret: int
    width: int
    has_common: bool = True

    def __post_init__(self) -> None:
        if self.variant not in ("perfect", "limited"):
            raise ValueError("variant must be 'perfect' or 'limited'")

    def take(self, index) -> "QuadFormSet":
        """The trials ``index`` of a chunk's set: a chunk for an index array,
        one trial's set for an integer.  Shares the tables."""
        return replace(self, bases=self.bases[index])

    @property
    def n_antennas(self) -> int:
        return self.bases.shape[-1]

    def without_common(self) -> "QuadFormSet":
        """The same set with the K common-rate forms dropped (SDMA).

        Read with a zero common block, every remaining form equals the
        private-only set's, so no second build is needed.  The tables are
        views of this set's.
        """
        if not self.has_common:
            return self
        k = self.n_blocks - 1
        return replace(self, gain=self.gain[k:], loss=self.loss[k:], has_common=False)

    @property
    def n_blocks(self) -> int:
        return self.gain.shape[-1]

    @property
    def shape(self) -> tuple[int, int]:
        """(n_blocks, N), the shape of the precoders this set scores."""
        return self.n_blocks, self.n_antennas

    def evaluate(self, blocks: np.ndarray) -> "QuadValues":
        """Both quadratic forms of every form at one point.

        On a chunk's set ``blocks`` is (T, n_blocks, N), one precoder per
        trial, and every value gains the leading trial axis.
        """
        lead = self.bases.shape[:-3]
        bases = _complex(self.bases.reshape(-1, *self.bases.shape[-3:]))
        t, m, n, _ = bases.shape
        f = _complex(blocks).reshape(t, -1, n)
        # gram[t, m, b] = f_tb^H M_tm f_tb = sum_ij Re(M_ij conj(f_i) f_j), a real
        # product of the interleaved (re, im) entries of M and of f conj(f)^T;
        # flattened to match the tables' last axes
        outer = (f[..., :, None] * f.conj()[..., None, :]).view(float).reshape(t, -1, 2 * n * n)
        gram = (bases.view(float).reshape(t, m, -1) @ outer.transpose(0, 2, 1)).reshape(t, -1, 1)

        def ev(table):
            # the shared table against every trial's gram
            return (table.reshape(-1, gram.shape[1]) @ gram).reshape(*lead, len(table))

        return QuadValues(ev(self.gain), ev(self.loss), self.variant,
                          self.n_secret, self.width, self.has_common)

    def weighted_blocks(self, table: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Weighted sum of the block matrices that ``table`` (``gain`` or
        ``loss``) holds, one real weight per form on the last axis.

        The weights are contracted with the table first, so each base matrix
        is touched once.  Returns the (n_blocks, N, N) block stack, with a
        leading trial axis (and one row of weights per trial) on a chunk's
        set.
        """
        bases = _complex(self.bases.reshape(-1, *self.bases.shape[-3:]))
        t, m, n, _ = bases.shape
        nb = self.n_blocks
        coef = weights.reshape(t, 1, -1) @ table.reshape(-1, m * nb)
        # real coefficients times the interleaved (re, im) entries of the bases
        out = coef.reshape(t, m, nb).transpose(0, 2, 1) @ bases.view(float).reshape(t, m, -1)
        return out.view(complex).reshape(*self.bases.shape[:-3], nb, n, n)


@dataclass(frozen=True)
class QuadValues:
    """f^H G f and f^H L f of every form at one iterate, in the set's form
    order on the last axis of ``gain`` and ``loss``.

    Values of a chunk's set carry a leading trial axis on both arrays; the
    methods then return one value per trial.
    """

    gain: np.ndarray
    loss: np.ndarray
    variant: str
    n_secret: int
    width: int
    has_common: bool

    @property
    def n_rates(self) -> int:
        """Forms before the first wiretap set: the common and private rates."""
        return self.gain.shape[-1] - self.n_secret * self.width

    @property
    def n_users(self) -> int:
        return self.n_rates // (2 if self.has_common else 1)

    def take(self, index) -> "QuadValues":
        """The trials ``index`` of a chunk's values (one trial for an integer)."""
        return replace(self, gain=self.gain[index], loss=self.loss[index])

    def put(self, index, other: "QuadValues") -> "QuadValues":
        """These values with the trials ``index`` replaced by ``other``'s."""
        gain, loss = self.gain.copy(), self.loss.copy()
        gain[index], loss[index] = other.gain, other.loss
        return replace(self, gain=gain, loss=loss)

    def common_rates(self) -> np.ndarray | None:
        if not self.has_common:
            return None
        k = self.n_users
        return np.log2(self.gain[..., :k] / self.loss[..., :k])

    def private_rates(self) -> np.ndarray:
        rates = slice(self.n_rates - self.n_users, self.n_rates)
        return np.log2(self.gain[..., rates] / self.loss[..., rates])

    def leak_ratios(self) -> np.ndarray:
        """(..., S, E + K - 1) wiretap-set ratios, eavesdroppers first."""
        wire = slice(self.n_rates, None)
        ratios = self.loss[..., wire] / self.gain[..., wire]
        return ratios.reshape(*ratios.shape[:-1], self.n_secret, self.width)

    def smoothed_leakages(self, alpha: float) -> np.ndarray:
        """Leakage term of every secret user, in bits, on the last axis.

        Perfect variant: log-sum-exp smoothed max over the wiretap set.
        Limited variant: the collusion bound log2(1 + sum of ratios), which
        is already smooth.  Empty wiretap set contributes zero.
        """
        ratios = self.leak_ratios()
        if ratios.shape[-1] == 0:
            return np.zeros(ratios.shape[:-1])
        if self.variant == "perfect":
            return lse_max(np.log2(ratios), alpha)
        return np.log2(1.0 + ratios.sum(axis=-1))

    def objective(self, alpha: float):
        """Log-sum-exp smoothed sum secrecy SE at these values.

        The smoothed min over common rates replaces the hard min, each secret
        user's leakage enters through ``smoothed_leakages``, and the
        positive-part clamp on secrecy rates is relaxed.  A float, or one
        value per trial for a chunk's values.
        """
        private = self.private_rates()
        leak = self.smoothed_leakages(alpha)
        total = 0.0
        if self.has_common:
            total = total + lse_min(self.common_rates(), alpha)
        for s in range(self.n_secret):
            total = total + (private[..., s] - leak[..., s])
        total = total + private[..., self.n_secret:].sum(axis=-1)
        return float(total) if np.ndim(total) == 0 else total


def smoothed_objective(
    quadforms: QuadFormSet,
    blocks: np.ndarray,
    config: SystemConfig,
) -> float | np.ndarray:
    """Smoothed sum secrecy SE (``QuadValues.objective``) evaluated through
    the quad forms at a ``quadforms.shape`` precoder.  Scale-invariant.

    On a chunk's set ``blocks`` is the (T, n_blocks, N) stack of one precoder
    per trial, and the result holds one value per trial.
    """
    want = (*quadforms.bases.shape[:-3], *quadforms.shape)
    if np.shape(blocks) != want:
        raise ValueError(f"precoder shape {np.shape(blocks)} does not match {want}")
    return quadforms.evaluate(blocks).objective(config.smoothing)


def build_quadforms_perfect(
    realization: ChannelRealization,
    config: SystemConfig,
    *,
    ridge: float | np.ndarray | None = None,
) -> QuadFormSet:
    """Pairs over true channels; rates are exact SINR-plus-one quotients.

    On a ``ChannelRealization.stack`` of T draws the set is a chunk's:
    (T, n_bases, N, N) bases and one shared copy of each table.  ``ridge``
    is sigma_u^2 / P, one value or one per trial of the stack, so that one
    chunk can hold trials at several SNRs; it defaults to the config's.
    """
    return _build(realization, config, ridge, limited=False)


def build_quadforms_limited(
    realization: ChannelRealization,
    config: SystemConfig,
    *,
    ridge: float | np.ndarray | None = None,
) -> QuadFormSet:
    """Pairs over the transmitter's knowledge: channel estimates plus error
    covariances for rate lower bounds, wiretapper covariances for the
    collusion leakage upper bound.  True channels are not read.  Takes a
    stacked realization and ``ridge`` as ``build_quadforms_perfect`` does."""
    return _build(realization, config, ridge, limited=True)


def _outer(rows: np.ndarray) -> np.ndarray:
    return np.einsum("...ki,...kj->...kij", rows, rows.conj())


def _build(
    realization: ChannelRealization,
    config: SystemConfig,
    ridge: float | np.ndarray | None,
    limited: bool,
) -> QuadFormSet:
    n = config.n_antennas
    k = config.n_users
    s_cnt = config.n_secret
    e_cnt = config.n_eves
    if realization.n_users != k or realization.n_antennas != n:
        raise ValueError("realization/config dimension mismatch")
    if realization.n_eves != e_cnt:
        raise ValueError("realization/config eavesdropper mismatch")

    nb = k + 1
    # the eavesdroppers' ridge sigma_e^2 / P, in units of base 0's sigma_u^2 / P
    eve_ridge = config.noise_eve / config.noise_user

    # Base matrices: noise ridge, signals, [error covs], eavesdroppers, [user
    # covs].  Under perfect CSIT a wiretapping user sees its own signal matrix.
    if limited:
        parts = [
            _outer(realization.user_estimates),
            realization.error_covs,
            realization.eve_covs,
            realization.user_covs,
        ]
        sig, err, eve, wire = 1, 1 + k, 1 + 2 * k, 1 + 2 * k + e_cnt
    else:
        parts = [
            _outer(realization.user_channels),
            _outer(realization.eve_channels),
        ]
        sig, err, eve, wire = 1, None, 1 + k, 1
    lead = realization.user_channels.shape[:-2]
    ridge = np.broadcast_to(config.noise_user_ratio if ridge is None else ridge, lead)
    noise = ridge[..., None, None, None] * np.eye(n, dtype=complex)
    bases = np.concatenate([noise, *parts], axis=-3)
    m = bases.shape[-3]
    users = np.arange(k)
    width = e_cnt + k - 1
    gain = np.zeros((2 * k + s_cnt * width, m, nb))
    loss = np.zeros_like(gain)

    def rate_forms(forms: slice, blocks, signal_block):
        # user i: ridge + signal_i (+ error_i) on ``blocks``; the loss (the
        # denominator) drops signal_i from the block carrying i's wanted stream
        num, den = gain[forms], loss[forms]
        num[:, 0, :] = 1.0
        num[users, sig + users, blocks] = 1.0
        if limited:
            num[users, err + users, blocks] = 1.0
        den[...] = num
        den[users, sig + users, signal_block] = 0.0

    rate_forms(slice(0, k), slice(None), 0)
    rate_forms(slice(k, 2 * k), slice(1, None), 1 + users)

    # Wiretap sets: a leakage ratio num/den is subtracted, so its numerator
    # is the form's loss and its denominator the form's gain.
    leak_num = loss[2 * k:].reshape(s_cnt, width, m, nb)
    leak_den = gain[2 * k:].reshape(s_cnt, width, m, nb)

    # Leakage of secret user s at eavesdropper e, perfect-CSIT form:
    # num = eve ridge + M_e on every block, den = num without M_e on s's block.
    secrets = np.arange(s_cnt)[:, None]
    eves = np.arange(e_cnt)
    num, den = leak_num[:, :e_cnt], leak_den[:, :e_cnt]
    num[:, :, 0, :] = eve_ridge
    num[:, eves, eve + eves, :] = 1.0
    den[...] = num
    den[secrets, eves, eve + eves, 1 + secrets] = 0.0

    # Leakage at wiretapping user u (every user but s): num = ridge + M_u on
    # the private blocks other than u's own, den = num without M_u on s's block.
    slots = np.arange(k - 1)[None, :]
    taps = slots + (slots >= secrets)
    num, den = leak_num[:, e_cnt:], leak_den[:, e_cnt:]
    num[:, :, 0, :] = 1.0
    num[secrets, slots, wire + taps, 1:] = 1.0
    num[secrets, slots, wire + taps, 1 + taps] = 0.0
    den[...] = num
    den[secrets, slots, wire + taps, 1 + secrets] = 0.0

    if limited:
        # Collusion terms are SINRs, not SINR + 1: the numerator keeps only
        # the wiretapper's matrix on s's block.
        leak_num -= leak_den

    return QuadFormSet(
        bases=bases,
        gain=gain,
        loss=loss,
        variant="limited" if limited else "perfect",
        n_secret=s_cnt,
        width=width,
    )
