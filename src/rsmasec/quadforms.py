"""Block-diagonal quadratic-form encoding of every objective term.

With a unit-norm stacked precoder f, each term of the smoothed objective is
a log-ratio log2(f^H G f / f^H L f) that the term raises, for a pair (G, L)
of block-diagonal Hermitian matrices (one N x N block per stream): a form.
A rate's gain G is its numerator and its loss L its denominator; a leakage
term is subtracted, so its gain is the leakage denominator and its loss the
numerator.  The first-order condition B(f)^-1 A(f) f = lam f then collects
every gain into A and every loss into B.  ``QuadValues.smoothed``, in one
pass, gives the smoothed objective and the per-form coefficients of both.

Every block of every G and L is a weighted sum of a few base matrices, and
a set stores each by its kind:
  - the noise ridge (sigma_u^2 / P) * I, one scalar per trial; the identity
    sits with the trial's own matrices, so one product covers it;
  - rank-1 rows v (the K estimates under limited CSIT; the K user and E
    eavesdropper channels under perfect CSIT), whose quadratic form is
    |v^H f_b|^2, and their outer products, which feed A and B;
  - under limited CSIT, the E eavesdropper covariances of each trial;
  - under limited CSIT, the K user covariances R, which every trial of a
    sweep point shares (a broadcast view, never copied per trial), and the
    K error covariances Phi = c_kappa R, which exist only as each trial's
    scale c_kappa: Phi's form is c_kappa times R's.
Two real coefficient tables, ``gain`` and ``loss``, give entry [p, m, b],
the weight of base matrix m in block b of form p.  They depend only on the
set's shape, so they are built once per process and shared read-only.  No
block is ever assembled into the full N*(K+1) x N*(K+1) matrix, which is
what makes the solver's linear algebra cost scale with the number of blocks
rather than its cube.

Two variants exist:
  - "perfect": true channels, one form per rate; the secrecy leakage is the
    max over the wiretap set (smoothed with log-sum-exp).
  - "limited": estimated channels with known error covariance; rate forms
    encode Jensen lower bounds, and leakage forms encode the terms of a
    full-collusion upper bound log2(1 + sum of ratios), which needs no max.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channel import ChannelRealization
from .config import SystemConfig
from .rates import _lse_softmax, _row_sum
# Not called here; kept as module attributes for perfbench/spans.py's tracer.
from .rates import lse_max, lse_min  # noqa: F401


def _complex(x: np.ndarray) -> np.ndarray:
    """``x`` as a C-contiguous complex array, whose (re, im) pairs a float view reads."""
    return np.ascontiguousarray(x, dtype=complex)


def _flat(matrices: np.ndarray, t: int) -> np.ndarray:
    """A (..., count, N, N) complex stack as (t, count, 2 N^2) interleaved
    (re, im) entries, a view that keeps a broadcast trial axis broadcast."""
    n = matrices.shape[-1]
    return matrices.view(float).reshape(t, matrices.shape[-3], 2 * n * n)


# Antennas up to which a set reads its rank-1 rows' forms from their outer
# products, in the own matrices' product: there one fewer batched product
# saves more than the extra flops cost (per evaluate under limited CSIT,
# K=4, T=140: 246 vs 301 us at N=4 and 469 vs 560 us at N=8; the rank-1
# forms win from N=16 on, 877 vs 1045 us at N=32, K=16, T=4).
_FOLD_N = 8


@dataclass(frozen=True)
class QuadFormSet:
    """All forms for one scenario, or for a chunk of trials.

    The bases, by kind, each with a leading trial axis on a chunk's set:
    ``rows`` holds the (r, N) rank-1 rows; ``own`` the (r + e + 1, N, N)
    matrices of the trial alone, the rows' outer products, then (limited)
    its e = E eavesdropper covariances, then the identity; ``ridge``
    sigma_u^2 / P, the identity's weight, and ``error_scale`` c_kappa, with
    Phi = c_kappa R; and ``covs`` the (k, N, N) user covariances R (k = K
    under limited CSIT, else 0), across a chunk a broadcast view of one
    array wherever its trials share them.  The base axis of the tables runs
    in the order: the ``own`` matrices (the identity standing for the ridge
    (sigma_u^2 / P) * I), each R, then each Phi.

    ``gain`` and ``loss`` are the (n_forms, n_bases, n_blocks) coefficient
    tables, with real entries in {0, +-1, sigma_e^2 / sigma_u^2}.  Forms come
    in the order: K common rates, K private rates, then each of the
    ``n_secret`` secret users' wiretap sets of ``width`` = E + K - 1 forms
    (eavesdroppers first, then every other user in index order).  The
    tables depend only on the dimensions, the CSIT mode and sigma_e^2 /
    sigma_u^2, never on the SNR, kappa or the drawn channels, so every set
    of one shape shares one of each, also across trials at different SNRs
    and kappas; ``evaluate`` and ``kkt_blocks`` then work per trial.
    The stack always has K+1 blocks, block 0 carrying the common stream.
    ``has_common`` is False only on a ``without_common()`` view, which scores
    private-only (SDMA) stacks whose common block is zero.
    """

    rows: np.ndarray
    own: np.ndarray
    ridge: np.ndarray
    error_scale: np.ndarray
    covs: np.ndarray
    gain: np.ndarray
    loss: np.ndarray
    variant: str
    n_secret: int
    width: int
    has_common: bool = True

    def __post_init__(self) -> None:
        if self.variant not in ("perfect", "limited"):
            raise ValueError("variant must be 'perfect' or 'limited'")

    @property
    def trial_shape(self) -> tuple[int, ...]:
        """() for one scenario's set, (T,) for a chunk's."""
        return np.shape(self.ridge)

    def take(self, index) -> "QuadFormSet":
        """The trials ``index`` of a chunk's set: a chunk for an index array,
        one trial's set for an integer; ``np.newaxis`` makes one scenario's
        set a chunk of one.  Shares the tables, and shared covariances stay
        a broadcast view."""
        ridge, covs = self.ridge[index], self.covs
        # every trial of a broadcast stack reads one array: a slice keeps it so
        covs = covs[:len(ridge)] if ridge.ndim and covs.strides[0] == 0 else covs[index]
        return replace(self, rows=self.rows[index], own=self.own[index], ridge=ridge,
                       error_scale=self.error_scale[index], covs=covs)

    @property
    def n_antennas(self) -> int:
        return self.rows.shape[-1]

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

    def _kinds(self) -> tuple[int, int, int, int]:
        """(t, r, e, k): trials, rank-1 rows, eavesdropper covariances, covariances R."""
        r = self.rows.shape[-2]
        return math.prod(self.trial_shape), r, self.own.shape[-3] - r - 1, self.covs.shape[-3]

    def evaluate(self, blocks: np.ndarray) -> "QuadValues":
        """Both quadratic forms of every form at one point, or at several.

        ``blocks`` is (n_blocks, N), or (P, n_blocks, N) for P points; on a
        chunk's set it has the leading trial axis too, (T, n_blocks, N) or
        (T, P, n_blocks, N).  Every value gains those leading axes.  Every
        product is batched over the trials and points, with a shared operand
        broadcast, and each point is contracted with the tables in its own
        one-column product, so a point's values do not depend on its chunk
        or on the other points.
        """
        t, r, e, k = self._kinds()
        nb, n = self.shape
        f = _complex(blocks)
        lead, trial = f.shape[:-2], self.trial_shape
        if lead[:len(trial)] != trial or len(lead) > len(trial) + 1 or f.shape[-2:] != (nb, n):
            raise ValueError(f"precoder shape {f.shape} does not match the set's "
                             f"{(*trial, nb, n)}, with at most one point axis")
        f = f.reshape(t, -1, nb, n)
        fc = f.conj()
        # gram[t, p, m, b] = f_tpb^H M_tm f_tpb, in the tables' base order
        gram = np.empty((t, f.shape[1], r + e + 1 + 2 * k, nb))
        # the rank-1 rows' forms |v^H f_b|^2, unless they ride in the own
        # matrices' product
        lo = 0 if n <= _FOLD_N else r
        if lo:
            p = self.rows.reshape(t, 1, r, n) @ fc.transpose(0, 1, 3, 2)   # conj(v^H f_b)
            np.add(np.square(p.real), np.square(p.imag), out=gram[:, :, :r])
        # a full matrix's form is sum_ij Re(M_ij conj(f_i) f_j), a real
        # product of the interleaved (re, im) entries of M and of f conj(f)^T
        outer = (f[..., :, None] * fc[..., None, :]).view(float).reshape(*f.shape[:3], 2 * n * n)
        outer = outer.transpose(0, 1, 3, 2)
        np.matmul(_flat(self.own[..., lo:, :, :], t)[:, None], outer, out=gram[:, :, lo:r + e + 1])
        if k:
            r_forms = gram[:, :, r + e + 1:r + e + 1 + k]
            np.matmul(_flat(self.covs, t)[:, None], outer, out=r_forms)
            np.multiply(r_forms, self.error_scale.reshape(t, 1, 1, 1), out=gram[:, :, r + e + 1 + k:])
        gram[:, :, r + e] *= self.ridge.reshape(t, 1, 1)
        gram = gram.reshape(*gram.shape[:2], -1, 1)

        def ev(table):
            # the shared table against every point's gram
            return (table.reshape(-1, gram.shape[2]) @ gram).reshape(*lead, len(table))

        return QuadValues(ev(self.gain), ev(self.loss), self.variant,
                          self.n_secret, self.width, self.has_common)

    def kkt_blocks(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The block stacks (A, B): the weighted sums of the block matrices
        that ``gain`` holds, one real weight per form in ``a`` on the last
        axis, and of those that ``loss`` holds, with ``b``.

        The weights are contracted with the tables first, so each base matrix
        is touched once for both stacks: the trial's ``own`` matrices, the
        identity's coefficient scaled by the ridge, in one product, and the
        shared covariances in another, Phi's coefficient folded into R's as
        c_R + c_kappa c_Phi.  Returns A and B as one (2, n_blocks, N, N)
        array, which unpacks as (A, B), with a trial axis after the first
        (and one row of weights per trial) on a chunk's set.
        """
        t, r, e, k = self._kinds()
        nb, n = self.shape
        coef = np.empty((2, t, 1, self.gain[0].size))
        for table, weights, c in ((self.gain, a, coef[0]), (self.loss, b, coef[1])):
            np.matmul(weights.reshape(t, 1, -1), table.reshape(len(table), -1), out=c)
        coef = coef.reshape(2, t, -1, nb)
        coef[:, :, r + e] *= self.ridge.reshape(t, 1)
        # real coefficients times the interleaved (re, im) entries of the
        # bases; A and B are the two halves of one product.  The shared
        # covariances' part goes to the second half of the same buffer, so
        # that no call allocates and frees a temporary as large as the stacks
        # (whose churn makes the heap fault fresh pages at paper scale)
        buf = np.empty((2 if k else 1, 2, t, nb, 2 * n * n))
        out = buf[0]
        np.matmul(coef[:, :, :r + e + 1].transpose(0, 1, 3, 2), _flat(self.own, t), out=out)
        if k:
            phi = coef[:, :, r + e + 1 + k:]
            phi *= self.error_scale.reshape(t, 1, 1)
            covs = coef[:, :, r + e + 1:r + e + 1 + k]
            covs += phi
            np.matmul(covs.transpose(0, 1, 3, 2), _flat(self.covs, t), out=buf[1])
            out += buf[1]
        return out.view(complex).reshape(2, *self.trial_shape, nb, n, n)


class Smoothed(NamedTuple):
    """The smoothed objective at one iterate and, per form, the coefficients
    w/g and w/l that A and B contract with the ``gain`` and ``loss`` tables:
    w is the objective's derivative in the form's log-ratio log2(g / l), g and
    l its quadratic forms.  ``lam`` is the eigenvalue diagnostic, or None where
    not asked for.  A chunk's record has the trial axis first on every array."""

    objective: np.ndarray | float
    a: np.ndarray
    b: np.ndarray
    lam: np.ndarray | None


@dataclass(frozen=True)
class QuadValues:
    """f^H G f and f^H L f of every form at one point, in the set's form
    order on the last axis of ``gain`` and ``loss``.

    Values of a chunk's set carry a leading trial axis on both arrays, and
    values at several points a point axis after it; the methods then return
    one value per trial and point.  Every smoothing decision of the
    objective lives in ``smoothed``.
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

    def _pass(self, alpha: float):
        """The one smoothing pass: (rates, lse, leak, a, b), every leading
        axis of the values flattened into the points.  ``rates`` are the (r,
        points) log2(g/l) of the rate forms, ``lse`` the common rates'
        log-sum-exp over -alpha (None without them), ``leak`` the smoothed
        leakage (S, points), and ``a`` and ``b`` the C-contiguous (points,
        forms) coefficients w/g and w/l.

        It runs on contiguous (forms, points) copies of ``gain`` and
        ``loss``, so every max, exp, log and divide acts on whole rows and
        sums over forms add rows in order (``_row_sum``): a point's results
        do not depend on the points beside it.  Every log-sum-exp is one
        column of one ``_lse_softmax`` call, padded with -inf (whose
        exponential adds 0): the common rates' smoothed min and, under
        perfect CSIT, each wiretap set's smoothed max of log2(l/g).  Under
        limited CSIT a wiretap set leaks the collusion bound log2(1 + sum of
        ratios), w = ratio / (1 + sum), and B's w/l is written
        1 / (g (1 + sum)), l cancelled, so it stays finite where l
        vanishes.  An empty wiretap set leaks nothing."""
        k, n_s, r, width = self.n_users, self.n_secret, self.n_rates, self.width
        n_forms = self.gain.shape[-1]
        gain, loss = (np.ascontiguousarray(x.reshape(-1, n_forms).T) for x in (self.gain, self.loss))
        pts = gain.shape[1]
        a, b = np.empty((2, pts, n_forms))
        a_t, b_t = a.T, b.T
        den, num = gain[r:], loss[r:]
        sets = (n_s, width, pts)
        rates = np.log2(gain[:r] / loss[:r])
        np.divide(1.0, gain[r - k:r], out=a_t[r - k:r])
        np.divide(1.0, loss[r - k:r], out=b_t[r - k:r])
        # (E + K - 1, S, points): the wiretap forms lead
        ratios = (num / den).reshape(sets).transpose(1, 0, 2)
        common = k if self.has_common else 0
        # wiretap sets in the log-sum-exp, and the column of the first
        wire = n_s if self.variant == "perfect" and width else 0
        first = 1 if common else 0
        if common or wire:
            groups = np.full((max(common, width if wire else 0), first + wire, pts), -np.inf)
            if common:
                np.divide(rates[:k], -alpha, out=groups[:k, 0])
            if wire:
                np.divide(np.log2(ratios), alpha, out=groups[:width, first:])
            lse, weight = _lse_softmax(groups)
        if common:
            np.divide(weight[:k, 0], gain[:k], out=a_t[:k])
            np.divide(weight[:k, 0], loss[:k], out=b_t[:k])
        if wire:
            weight = weight[:width, first:].transpose(1, 0, 2).reshape(den.shape)
            np.divide(weight, den, out=a_t[r:])
            np.divide(weight, num, out=b_t[r:])
            leak = alpha * lse[first:]
        elif width:
            norm = 1.0 + _row_sum(ratios)
            np.divide((ratios / norm).transpose(1, 0, 2).reshape(den.shape), den, out=a_t[r:])
            np.divide(1.0, (den.reshape(sets) * norm[:, None]).reshape(den.shape), out=b_t[r:])
            leak = np.log2(norm)
        else:
            leak = np.zeros((n_s, pts))
        return rates, lse[0] if common else None, leak, a, b

    def smoothed_leakages(self, alpha: float) -> np.ndarray:
        """Leakage term of every secret user, in bits, on the last axis."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            leak = self._pass(alpha)[2]
        return leak.T.reshape(*self.gain.shape[:-1], self.n_secret)

    def smoothed(self, alpha: float, with_lam: bool) -> Smoothed:
        """The log-sum-exp smoothed sum secrecy SE and its gradient
        coefficients, from one pass over these values (``_pass``), whatever
        their leading axes (trials, points).  The smoothed min over common
        rates replaces the hard min, each secret user's leakage enters
        through ``smoothed_leakages``, and the positive-part clamp on secrecy
        rates is relaxed.  Weights: 1 for a private rate, the smoothed-min
        softmax over the common rates, ``_pass``' on the wiretap forms.
        With ``with_lam``, ``lam`` is exp(smoothed common + sum normal rates)
        * (exp(sum secret private rates) - exp(sum smoothed leakages))."""
        k, n_s, r = self.n_users, self.n_secret, self.n_rates
        lead = self.gain.shape[:-1]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            rates, lse, leak, a, b = self._pass(alpha)
            private = rates[r - k:]
            total = 0.0 if lse is None else -alpha * lse
            for secrecy in private[:n_s] - leak:
                total = total + secrecy
            normal = _row_sum(private[n_s:])
            total = total + normal
            lam = None
            if with_lam:
                base = normal if lse is None else normal - alpha * lse
                lam = np.exp(base) * (np.exp(_row_sum(private[:n_s])) - np.exp(_row_sum(leak)))
                lam = lam.reshape(lead)[()]
        return Smoothed(total.reshape(lead)[()], a.reshape(*lead, -1), b.reshape(*lead, -1), lam)


def smoothed_objective(
    quadforms: QuadFormSet,
    blocks: np.ndarray,
    config: SystemConfig,
) -> float | np.ndarray:
    """Smoothed sum secrecy SE (``QuadValues.smoothed``) evaluated through
    the quad forms at a ``quadforms.shape`` precoder.  Scale-invariant.

    On a chunk's set ``blocks`` is the (T, n_blocks, N) stack of one precoder
    per trial, and the result holds one value per trial.
    """
    want = (*quadforms.trial_shape, *quadforms.shape)
    if np.shape(blocks) != want:
        raise ValueError(f"precoder shape {np.shape(blocks)} does not match {want}")
    total = quadforms.evaluate(blocks).smoothed(config.smoothing, False).objective
    return float(total) if np.ndim(total) == 0 else total


def build_quadforms_perfect(
    realization: ChannelRealization,
    config: SystemConfig,
    *,
    ridge: float | np.ndarray | None = None,
) -> QuadFormSet:
    """Pairs over true channels; rates are exact SINR-plus-one quotients.
    Every base but the ridge is rank 1: the K user and E eavesdropper
    channels are the set's rows.

    On a ``ChannelRealization.stack`` of T draws the set is a chunk's, with
    a leading trial axis on each kind of base and one shared copy of each
    table.  ``ridge`` is sigma_u^2 / P, one value or one per trial of the
    stack, so that one chunk can hold trials at several SNRs; it defaults to
    the config's.
    """
    return _build(realization, config, ridge, limited=False)


def build_quadforms_limited(
    realization: ChannelRealization,
    config: SystemConfig,
    *,
    ridge: float | np.ndarray | None = None,
) -> QuadFormSet:
    """Pairs over the transmitter's knowledge: channel estimates (the rows)
    plus error covariances for rate lower bounds, wiretapper covariances for
    the collusion leakage upper bound.  True channels are not read.  The
    user covariances stay one array across a chunk where the draw shares
    them.  Takes a stacked realization and ``ridge`` as
    ``build_quadforms_perfect`` does."""
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
    if realization.n_users != config.n_users or realization.n_antennas != n:
        raise ValueError("realization/config dimension mismatch")
    if realization.n_eves != config.n_eves:
        raise ValueError("realization/config eavesdropper mismatch")
    lead = realization.user_channels.shape[:-2]
    eye = np.broadcast_to(np.eye(n, dtype=complex), (*lead, 1, n, n))
    if limited:
        rows = _complex(realization.user_estimates)
        own = np.concatenate([_outer(rows), realization.eve_covs, eye], axis=-3)
        covs, scale = realization.user_covs, realization.error_scale
        if covs.ndim == 4 and covs.strides[0] == 0:
            # shared along the trial axis: stays one array, broadcast
            covs = np.broadcast_to(_complex(covs[0]), covs.shape)
        else:
            covs = _complex(covs)
    else:
        # under perfect CSIT a wiretapping user sees its own signal matrix
        rows = _complex(np.concatenate([realization.user_channels, realization.eve_channels], axis=-2))
        own = np.concatenate([_outer(rows), eye], axis=-3)
        covs, scale = np.zeros((*lead, 0, n, n), dtype=complex), 0.0
    ridge = config.noise_user_ratio if ridge is None else ridge
    gain, loss = _tables(config.n_users, config.n_secret, config.n_eves, limited,
                         config.noise_eve / config.noise_user)
    return QuadFormSet(
        rows=rows,
        own=_complex(own),
        ridge=np.array(np.broadcast_to(ridge, lead), dtype=float),
        error_scale=np.array(np.broadcast_to(scale, lead), dtype=float),
        covs=covs,
        gain=gain,
        loss=loss,
        variant="limited" if limited else "perfect",
        n_secret=config.n_secret,
        width=config.n_eves + config.n_users - 1,
    )


@lru_cache(maxsize=32)
def _tables(k: int, s_cnt: int, e_cnt: int, limited: bool,
            eve_ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``gain`` and ``loss`` tables of a set with K = ``k`` users, of
    which ``s_cnt`` are secret, and ``e_cnt`` eavesdroppers.  ``eve_ridge``
    is the eavesdroppers' ridge sigma_e^2 / P in units of the ridge base's
    sigma_u^2 / P.  Read-only, because every set of this shape shares them.

    Base order: the signal rows' matrices (K); the eavesdroppers' (E); the
    ridge; under limited CSIT, the user covariances (K), which a wiretapping
    user sees, then the error covariances (K).  Under perfect CSIT a
    wiretapping user sees its own signal matrix.
    """
    nb = k + 1
    sig, eve, ridge = 0, k, k + e_cnt
    if limited:
        wire, err = k + e_cnt + 1, 2 * k + e_cnt + 1
        m = 3 * k + e_cnt + 1
    else:
        wire, err = sig, None
        m = k + e_cnt + 1
    users = np.arange(k)
    width = e_cnt + k - 1
    gain = np.zeros((2 * k + s_cnt * width, m, nb))
    loss = np.zeros_like(gain)

    def rate_forms(forms: slice, blocks, signal_block):
        # user i: ridge + signal_i (+ error_i) on ``blocks``; the loss (the
        # denominator) drops signal_i from the block carrying i's wanted stream
        num, den = gain[forms], loss[forms]
        num[:, ridge, :] = 1.0
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
    num[:, :, ridge, :] = eve_ridge
    num[:, eves, eve + eves, :] = 1.0
    den[...] = num
    den[secrets, eves, eve + eves, 1 + secrets] = 0.0

    # Leakage at wiretapping user u (every user but s): num = ridge + M_u on
    # the private blocks other than u's own, den = num without M_u on s's block.
    slots = np.arange(k - 1)[None, :]
    taps = slots + (slots >= secrets)
    num, den = leak_num[:, e_cnt:], leak_den[:, e_cnt:]
    num[:, :, ridge, :] = 1.0
    num[secrets, slots, wire + taps, 1:] = 1.0
    num[secrets, slots, wire + taps, 1 + taps] = 0.0
    den[...] = num
    den[secrets, slots, wire + taps, 1 + secrets] = 0.0

    if limited:
        # Collusion terms are SINRs, not SINR + 1: the numerator keeps only
        # the wiretapper's matrix on s's block.
        leak_num -= leak_den

    for table in (gain, loss):
        table.flags.writeable = False
    return gain, loss
