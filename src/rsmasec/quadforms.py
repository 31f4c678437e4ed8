"""Block-diagonal quadratic-form encoding of every rate expression.

With a unit-norm stacked precoder f, each spectral efficiency becomes
log2(f^H A f / f^H B f) for a pair (A, B) of block-diagonal Hermitian
matrices (one N x N block per stream).  Every block of every A and B is a
combination of a few base matrices: the identity (which carries the noise
ridge), the K signal outer products, the E eavesdropper matrices and, under
limited CSIT, the K error covariances and K user covariances.  A set stores
each base matrix once plus one real coefficient table per rate family, with
entry [..., m, b] the weight of base matrix m in block b of one form.  No
block is ever assembled into the full N*(K+1) x N*(K+1) matrix, which is what
makes the solver's linear algebra cost scale with the number of blocks rather
than its cube.

Two variants exist:
  - "perfect": true channels, one pair per rate; the secrecy leakage is the
    max over the wiretap set (smoothed with log-sum-exp).
  - "limited": estimated channels with known error covariance; rate pairs
    encode Jensen lower bounds, and leakage pairs encode the terms of a
    full-collusion upper bound log2(1 + sum of ratios), which needs no max.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelRealization
from .config import SystemConfig
from .rates import lse_max, lse_min


_TABLES = ("common_num", "common_den", "private_num", "private_den",
           "eve_num", "eve_den", "user_num", "user_den")


def _take(obj, index, names):
    """``obj`` with every named array field indexed by ``index``."""
    return replace(obj, **{n: getattr(obj, n)[index] for n in names if getattr(obj, n) is not None})


def _complex(x: np.ndarray) -> np.ndarray:
    """``x`` as a C-contiguous complex array, whose (re, im) pairs a float view reads."""
    return np.ascontiguousarray(x, dtype=complex)


@dataclass(frozen=True)
class QuadFormSet:
    """All quadratic-form pairs for one scenario, or for a chunk of trials.

    ``bases`` is the (n_bases, N, N) stack of base matrices.  Each table has
    shape (..., n_bases, n_blocks) and real entries in {0, +-1, ridge}:
    ``common_*`` (K, ...), ``private_*`` (K, ...), ``eve_*`` (S, E, ...) and
    ``user_*`` (S, K-1, ...), where secret user s's wiretapping users run over
    every other user in index order.  The stack always has K+1 blocks, block 0
    carrying the common stream.  ``common_*`` is None only on a
    ``without_common()`` view, which scores private-only (SDMA) stacks whose
    common block is zero.

    A set made by ``stack`` puts a leading trial axis on ``bases`` and on
    every table; ``evaluate`` and ``weighted_blocks`` then work per trial.
    """

    bases: np.ndarray
    common_num: np.ndarray | None
    common_den: np.ndarray | None
    private_num: np.ndarray
    private_den: np.ndarray
    eve_num: np.ndarray
    eve_den: np.ndarray
    user_num: np.ndarray
    user_den: np.ndarray
    variant: str

    def __post_init__(self) -> None:
        if self.variant not in ("perfect", "limited"):
            raise ValueError("variant must be 'perfect' or 'limited'")

    @staticmethod
    def stack(sets: Sequence["QuadFormSet"]) -> "QuadFormSet":
        """One set with a leading trial axis over ``sets``, which must share
        variant, shape and common family."""
        first = sets[0]
        if any((s.variant, s.has_common, s.bases.shape) != (first.variant, first.has_common, first.bases.shape)
               for s in sets):
            raise ValueError("stacked sets must share variant, shape and common family")
        return replace(first, bases=np.stack([s.bases for s in sets]), **{
            n: np.stack([getattr(s, n) for s in sets])
            for n in _TABLES if getattr(first, n) is not None
        })

    def take(self, index) -> "QuadFormSet":
        """The trials ``index`` (an index array) of a stacked set."""
        return _take(self, index, ("bases", *_TABLES))

    @property
    def has_common(self) -> bool:
        return self.common_num is not None

    @property
    def n_antennas(self) -> int:
        return self.bases.shape[-1]

    def without_common(self) -> "QuadFormSet":
        """The same set with the common-rate family dropped (SDMA).

        Read with a zero common block, every remaining table equals the
        private-only set, so no second build is needed.  Shares every array.
        """
        return replace(self, common_num=None, common_den=None)

    @property
    def n_secret(self) -> int:
        return self.eve_num.shape[-4]

    @property
    def n_blocks(self) -> int:
        return self.private_num.shape[-1]

    @property
    def shape(self) -> tuple[int, int]:
        """(n_blocks, N), the shape of the precoders this set scores."""
        return self.n_blocks, self.n_antennas

    def evaluate(self, blocks: np.ndarray) -> "QuadValues":
        """All quadratic forms at one point, grouped by rate family.

        On a stacked set ``blocks`` is (T, n_blocks, N), one precoder per
        trial, and every value gains the leading trial axis.
        """
        bases = _complex(self.bases.reshape(-1, *self.bases.shape[-3:]))
        t, m, n, _ = bases.shape
        f = _complex(blocks).reshape(t, -1, n)
        # gram[t, m, b] = f_tb^H M_tm f_tb = sum_ij Re(M_ij conj(f_i) f_j), a real
        # product of the interleaved (re, im) entries of M and of f conj(f)^T;
        # flattened to match the tables' last axes
        outer = (f[..., :, None] * f.conj()[..., None, :]).view(float).reshape(t, -1, 2 * n * n)
        gram = (bases.view(float).reshape(t, m, -1) @ outer.transpose(0, 2, 1)).reshape(t, -1, 1)

        def ev(table):
            if table is None:
                return None
            return (table.reshape(t, -1, gram.shape[1]) @ gram).reshape(table.shape[:-2])

        return QuadValues(
            **{name: ev(getattr(self, name)) for name in _TABLES},
            variant=self.variant,
            n_secret=self.n_secret,
        )

    def weighted_blocks(self, weights: dict[str, np.ndarray]) -> np.ndarray:
        """Weighted sum of the block matrices of the named forms.

        ``weights`` maps a table name ("private_num", "eve_den", ...) to one
        real weight per form, shaped like that table's leading axes.  The
        weights are contracted with the tables first, so each base matrix is
        touched once.  Returns the (n_blocks, N, N) block stack, with a
        leading trial axis on a stacked set.
        """
        bases = _complex(self.bases.reshape(-1, *self.bases.shape[-3:]))
        t, m, n, _ = bases.shape
        nb = self.n_blocks
        coef = sum(
            w.reshape(t, 1, -1) @ getattr(self, name).reshape(t, -1, m * nb)
            for name, w in weights.items()
        )
        # real coefficients times the interleaved (re, im) entries of the bases
        out = coef.reshape(t, m, nb).transpose(0, 2, 1) @ bases.view(float).reshape(t, m, -1)
        return out.view(complex).reshape(*self.bases.shape[:-3], nb, n, n)


@dataclass(frozen=True)
class QuadValues:
    """Numerator/denominator quadratic forms per rate family at one iterate.

    Values of a stacked set carry a leading trial axis on every array; the
    methods then return one value per trial.
    """

    common_num: np.ndarray | None
    common_den: np.ndarray | None
    private_num: np.ndarray
    private_den: np.ndarray
    eve_num: np.ndarray      # (S, E)
    eve_den: np.ndarray
    user_num: np.ndarray     # (S, K-1)
    user_den: np.ndarray
    variant: str
    n_secret: int

    def take(self, index) -> "QuadValues":
        """The trials ``index`` of stacked values (one trial for an integer)."""
        return _take(self, index, _TABLES)

    def common_rates(self) -> np.ndarray | None:
        if self.common_num is None:
            return None
        return np.log2(self.common_num / self.common_den)

    def private_rates(self) -> np.ndarray:
        return np.log2(self.private_num / self.private_den)

    def leak_ratios(self) -> np.ndarray:
        """(..., S, E + K - 1) wiretap-set ratios, eavesdroppers first."""
        return np.concatenate(
            [self.eve_num / self.eve_den, self.user_num / self.user_den], axis=-1)

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
        value per trial for stacked values.
        """
        private = self.private_rates()
        leak = self.smoothed_leakages(alpha)
        total = 0.0
        if self.common_num is not None:
            total = total + lse_min(self.common_rates(), alpha)
        for s in range(self.n_secret):
            total = total + (private[..., s] - leak[..., s])
        total = total + private[..., self.n_secret:].sum(axis=-1)
        return float(total) if np.ndim(total) == 0 else total


def smoothed_objective(
    quadforms: QuadFormSet,
    blocks: np.ndarray,
    config: SystemConfig,
) -> float:
    """Smoothed sum secrecy SE (``QuadValues.objective``) evaluated through
    the quad forms at a ``quadforms.shape`` precoder.  Scale-invariant."""
    if np.shape(blocks) != quadforms.shape:
        raise ValueError(f"precoder shape {np.shape(blocks)} does not match {quadforms.shape}")
    return quadforms.evaluate(blocks).objective(config.smoothing)


def build_quadforms_perfect(
    realization: ChannelRealization,
    config: SystemConfig,
) -> QuadFormSet:
    """Pairs over true channels; rates are exact SINR-plus-one quotients."""
    return _build(realization, config, limited=False)


def build_quadforms_limited(
    realization: ChannelRealization,
    config: SystemConfig,
) -> QuadFormSet:
    """Pairs over the transmitter's knowledge: channel estimates plus error
    covariances for rate lower bounds, wiretapper covariances for the
    collusion leakage upper bound.  True channels are not read."""
    return _build(realization, config, limited=True)


def _outer(rows: np.ndarray) -> np.ndarray:
    return np.einsum("ki,kj->kij", rows, rows.conj())


def _build(
    realization: ChannelRealization,
    config: SystemConfig,
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
    ridge_u = config.noise_user_ratio
    ridge_e = config.noise_eve_ratio

    # Base matrices: identity, signals, [error covs], eavesdroppers, [user covs].
    # Under perfect CSIT a wiretapping user sees its own signal matrix.
    if limited:
        parts = [
            np.eye(n, dtype=complex)[None],
            _outer(realization.user_estimates),
            realization.error_covs,
            realization.eve_covs,
            realization.user_covs,
        ]
        sig, err, eve, wire = 1, 1 + k, 1 + 2 * k, 1 + 2 * k + e_cnt
    else:
        parts = [
            np.eye(n, dtype=complex)[None],
            _outer(realization.user_channels),
            _outer(realization.eve_channels),
        ]
        sig, err, eve, wire = 1, None, 1 + k, 1
    bases = np.concatenate(parts)
    m = bases.shape[0]
    users = np.arange(k)

    def rate_tables(blocks: slice, signal_block):
        # user i: ridge + signal_i (+ error_i) on ``blocks``; the denominator
        # drops signal_i from the block carrying i's wanted stream
        num = np.zeros((k, m, nb))
        num[:, 0, :] = ridge_u
        num[users, sig + users, blocks] = 1.0
        if limited:
            num[users, err + users, blocks] = 1.0
        den = num.copy()
        den[users, sig + users, signal_block] = 0.0
        return num, den

    common_num, common_den = rate_tables(slice(None), 0)
    private_num, private_den = rate_tables(slice(1, None), 1 + users)

    # Leakage of secret user s at eavesdropper e, perfect-CSIT form:
    # num = ridge_e + M_e on every block, den = num without M_e on s's block.
    secrets = np.arange(s_cnt)[:, None]
    eves = np.arange(e_cnt)
    eve_num = np.zeros((s_cnt, e_cnt, m, nb))
    eve_num[:, :, 0, :] = ridge_e
    eve_num[:, eves, eve + eves, :] = 1.0
    eve_den = eve_num.copy()
    eve_den[secrets, eves, eve + eves, 1 + secrets] = 0.0

    # Leakage at wiretapping user u (every user but s): num = ridge_u + M_u on
    # the private blocks other than u's own, den = num without M_u on s's block.
    slots = np.arange(k - 1)[None, :]
    taps = slots + (slots >= secrets)
    user_num = np.zeros((s_cnt, k - 1, m, nb))
    user_num[:, :, 0, :] = ridge_u
    user_num[secrets, slots, wire + taps, 1:] = 1.0
    user_num[secrets, slots, wire + taps, 1 + taps] = 0.0
    user_den = user_num.copy()
    user_den[secrets, slots, wire + taps, 1 + secrets] = 0.0

    if limited:
        # Collusion terms are SINRs, not SINR + 1: the numerator keeps only
        # the wiretapper's matrix on s's block.
        eve_num -= eve_den
        user_num -= user_den

    return QuadFormSet(
        bases=bases,
        common_num=common_num,
        common_den=common_den,
        private_num=private_num,
        private_den=private_den,
        eve_num=eve_num,
        eve_den=eve_den,
        user_num=user_num,
        user_den=user_den,
        variant="limited" if limited else "perfect",
    )
