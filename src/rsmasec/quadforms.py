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

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelRealization
from .config import SystemConfig
from .rates import PrecoderStack, lse_max, lse_min


@dataclass(frozen=True)
class QuadFormSet:
    """All quadratic-form pairs for one scenario.

    ``bases`` is the (n_bases, N, N) stack of base matrices.  Each table has
    shape (..., n_bases, n_blocks) and real entries in {0, +-1, ridge}:
    ``common_*`` (K, ...), ``private_*`` (K, ...), ``eve_*`` (S, E, ...) and
    ``user_*`` (S, K-1, ...), where secret user s's wiretapping users run over
    every other user in index order.  The stack always has K+1 blocks, block 0
    carrying the common stream.  ``common_*`` is None only on a
    ``without_common()`` view, which scores private-only (SDMA) stacks whose
    common block is zero.
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
        return self.eve_num.shape[0]

    @property
    def n_blocks(self) -> int:
        return self.private_num.shape[-1]

    @property
    def stack_dim(self) -> int:
        return self.n_blocks * self.n_antennas

    def f_blocks(self, precoder: PrecoderStack | np.ndarray) -> np.ndarray:
        vec = precoder.entries if isinstance(precoder, PrecoderStack) else np.asarray(precoder)
        if vec.size != self.stack_dim:
            raise ValueError(
                f"stack length {vec.size} does not match {self.stack_dim}"
            )
        return vec.reshape(self.n_blocks, self.n_antennas)

    def evaluate(self, f_blocks: np.ndarray) -> "QuadValues":
        """All quadratic forms at one point, grouped by rate family."""
        # gram[m, b] = f_b^H M_m f_b, flattened to match the tables' last axes
        gram = np.einsum("bi,mib->mb", f_blocks.conj(), self.bases @ f_blocks.T).real.ravel()

        def ev(table):
            if table is None:
                return None
            return table.reshape(*table.shape[:-2], gram.size) @ gram

        return QuadValues(
            common_num=ev(self.common_num),
            common_den=ev(self.common_den),
            private_num=ev(self.private_num),
            private_den=ev(self.private_den),
            eve_num=ev(self.eve_num),
            eve_den=ev(self.eve_den),
            user_num=ev(self.user_num),
            user_den=ev(self.user_den),
            variant=self.variant,
            n_secret=self.n_secret,
        )

    def weighted_blocks(self, weights: dict[str, np.ndarray]) -> np.ndarray:
        """Weighted sum of the block matrices of the named forms.

        ``weights`` maps a table name ("private_num", "eve_den", ...) to one
        real weight per form, shaped like that table's leading axes.  The
        weights are contracted with the tables first, so each base matrix is
        touched once.  Returns the (n_blocks, N, N) block stack.
        """
        m, n, nb = self.bases.shape[0], self.n_antennas, self.n_blocks
        coef = sum(
            w.ravel() @ getattr(self, name).reshape(w.size, m * nb)
            for name, w in weights.items()
        )
        return (coef.reshape(m, nb).T @ self.bases.reshape(m, n * n)).reshape(nb, n, n)


@dataclass(frozen=True)
class QuadValues:
    """Numerator/denominator quadratic forms per rate family at one iterate."""

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

    def common_rates(self) -> np.ndarray | None:
        if self.common_num is None:
            return None
        return np.log2(self.common_num / self.common_den)

    def private_rates(self) -> np.ndarray:
        return np.log2(self.private_num / self.private_den)

    def leak_ratios(self, secret: int) -> np.ndarray:
        """Wiretap-set ratios for one secret user, eavesdroppers first."""
        return np.concatenate([
            self.eve_num[secret] / self.eve_den[secret],
            self.user_num[secret] / self.user_den[secret],
        ])

    def smoothed_leakage(self, secret: int, alpha: float) -> float:
        """Leakage term for one secret user, in bits.

        Perfect variant: log-sum-exp smoothed max over the wiretap set.
        Limited variant: the collusion bound log2(1 + sum of ratios), which
        is already smooth.  Empty wiretap set contributes zero.
        """
        ratios = self.leak_ratios(secret)
        if ratios.size == 0:
            return 0.0
        if self.variant == "perfect":
            return lse_max(np.log2(ratios), alpha)
        return math.log2(1.0 + float(ratios.sum()))

    def objective(self, alpha: float) -> float:
        """Log-sum-exp smoothed sum secrecy SE at these values.

        The smoothed min over common rates replaces the hard min, each secret
        user's leakage enters through ``smoothed_leakage``, and the
        positive-part clamp on secrecy rates is relaxed.
        """
        private = self.private_rates()
        total = 0.0
        if self.common_num is not None:
            total += lse_min(self.common_rates(), alpha)
        for s in range(self.n_secret):
            total += private[s] - self.smoothed_leakage(s, alpha)
        total += float(private[self.n_secret:].sum())
        return float(total)


def smoothed_objective(
    quadforms: QuadFormSet,
    precoder: PrecoderStack | np.ndarray,
    config: SystemConfig,
) -> float:
    """Smoothed sum secrecy SE (``QuadValues.objective``) evaluated through
    the quad forms.  Scale-invariant in the precoder."""
    return quadforms.evaluate(quadforms.f_blocks(precoder)).objective(config.smoothing)


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
