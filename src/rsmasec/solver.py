"""Generalized power iteration for the smoothed sum secrecy objective.

A first-order stationary point of the smoothed objective satisfies a
nonlinear eigenvector equation B(f)^-1 A(f) f = lam(f) f, where A and B are
block-diagonal positive-definite operators rebuilt from the current iterate:
every Rayleigh-quotient term contributes its numerator matrix (scaled by one
over its own quadratic form) to the operator on the side the term helps, and
its denominator matrix to the other side.  Leakage terms enter with the roles
swapped because they are subtracted.  The iteration repeatedly applies
B^-1 A and renormalizes; the arbitrary positive prefactors of A and B are
fixed to one, which leaves the iterates unchanged.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from .config import SystemConfig
from .quadforms import QuadFormSet, QuadValues
from .rates import lse_min


class NumericError(RuntimeError):
    """A weight, quadratic form, or solve came out nonfinite or nonpositive."""


@dataclass(frozen=True)
class SolveTrace:
    """Per-iteration records: (iteration, step_norm, objective).

    Row 0 holds the initializer (step_norm is NaN there).  ``converged``
    reports whether the step-norm test fired before ``t_max``.  ``values``
    keeps each iterate's quadratic forms so that ``iterates`` can add the
    lambda diagnostic when it is read; equality ignores them.
    """

    rows: tuple[tuple[int, float, float], ...]
    converged: bool
    iterations_used: int
    alpha: float
    values: tuple[QuadValues, ...] = field(compare=False, repr=False)

    @property
    def iterates(self) -> tuple[tuple[int, float, float, float], ...]:
        """(iteration, step_norm, objective, lam) per iterate; lam is
        computed here from the stored values, never inside the solve."""
        return tuple(
            (*row, _lambda_from_values(vals, self.alpha))
            for row, vals in zip(self.rows, self.values)
        )


def _lambda_from_values(vals: QuadValues, alpha: float) -> float:
    """Objective-linked eigenvalue diagnostic.

    exp(smoothed common + sum normal rates) * (exp(sum secret private rates)
    - exp(sum smoothed leakages)); negative when leakage exceeds the secret
    rates at the current point.  Computed only when ``SolveTrace.iterates``
    is read, never fed back.
    """
    private = vals.private_rates()
    s_cnt = vals.n_secret
    base = float(private[s_cnt:].sum())
    if vals.common_num is not None:
        base += lse_min(vals.common_rates(), alpha)
    leak = sum(vals.smoothed_leakage(s, alpha) for s in range(s_cnt))
    secret = float(private[:s_cnt].sum())
    with np.errstate(over="ignore"):
        return float(np.exp(base) * (np.exp(secret) - np.exp(leak)))


def _softmax(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    """scipy.special.softmax's operations: shift by the max, exp, normalize."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def assemble_kkt(
    quadforms: QuadFormSet,
    vals: QuadValues,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The (A, B) block stacks of the stationarity condition at the iterate
    whose quadratic forms are ``vals``, each of shape (n_blocks, N, N).

    Normalized weights are computed in log space (softmax over rates divided
    by alpha), which is algebraically identical to the raw-weight form but
    immune to exponential overflow.
    """
    a_w = {"private_num": 1.0 / vals.private_num}
    b_w = {"private_den": 1.0 / vals.private_den}
    if quadforms.has_common:
        w_c = _softmax(-vals.common_rates() / alpha)
        a_w["common_num"] = w_c / vals.common_num
        b_w["common_den"] = w_c / vals.common_den

    e_cnt = vals.eve_num.shape[1]
    if e_cnt + vals.user_num.shape[1]:  # an empty wiretap set leaks nothing
        if quadforms.variant == "perfect":
            # Pooled softmax over each wiretap set; split back per family.
            pooled = _softmax(np.log2(np.concatenate(
                [vals.eve_num / vals.eve_den, vals.user_num / vals.user_den], axis=1,
            )) / alpha, axis=1)
            w_eve, w_user = pooled[:, :e_cnt], pooled[:, e_cnt:]
            a_w["eve_den"] = w_eve / vals.eve_den
            b_w["eve_num"] = w_eve / vals.eve_num
            a_w["user_den"] = w_user / vals.user_den
            b_w["user_num"] = w_user / vals.user_num
        else:
            # Collusion bound: weights are the raw ratios and the normalizer
            # carries the +1 from log2(1 + sum).  On the B side the ratio's
            # numerator cancels, so the coefficient stays finite even when a
            # collusion term's numerator quadratic form vanishes.
            norm = (1.0 + (vals.eve_num / vals.eve_den).sum(axis=1)
                    + (vals.user_num / vals.user_den).sum(axis=1))[:, None]
            a_w["eve_den"] = vals.eve_num / (vals.eve_den**2 * norm)
            b_w["eve_num"] = 1.0 / (vals.eve_den * norm)
            a_w["user_den"] = vals.user_num / (vals.user_den**2 * norm)
            b_w["user_num"] = 1.0 / (vals.user_den * norm)

    a_op = quadforms.weighted_blocks(a_w)
    b_op = quadforms.weighted_blocks(b_w)
    if not (np.isfinite(a_op).all() and np.isfinite(b_op).all()):
        raise NumericError("operator assembly produced nonfinite blocks")
    return a_op, b_op


_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), (np.zeros((1, 1), dtype=complex),))


def block_solve(b_blocks: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the block-diagonal system one Hermitian block at a time.

    Cholesky per block (LAPACK potrf/potrs called directly, with the
    arguments scipy's cho_factor/cho_solve pass), falling back to pivoted LU
    for a block that is not numerically positive definite.  Cost is
    n_blocks * N^3 instead of the (n_blocks * N)^3 of a dense solve.
    """
    nb, n, _ = b_blocks.shape
    r = np.asarray(rhs, dtype=complex).reshape(nb, n)
    out = np.empty_like(r)
    for i in range(nb):
        c, info = _POTRF(b_blocks[i], lower=False, overwrite_a=False, clean=False)
        if info > 0:  # leading minor not positive definite
            out[i] = lu_solve(lu_factor(b_blocks[i], check_finite=False), r[i], check_finite=False)
        else:
            out[i] = _POTRS(c, r[i], lower=False, overwrite_b=False)[0]
        if not np.isfinite(out[i]).all():
            raise NumericError(f"solve produced nonfinite values in block {i}")
    return out.ravel()


def _matvec(blocks: np.ndarray, vec: np.ndarray) -> np.ndarray:
    nb, n, _ = blocks.shape
    return (blocks @ vec.reshape(nb, n)[:, :, None])[:, :, 0].ravel()


def _align_phase(vec: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Rotate out the global phase so vec is as close to ref as possible."""
    inner = np.vdot(ref, vec)
    mag = abs(inner)
    if mag < 1e-300:
        return vec
    return vec * (inner.conjugate() / mag)


def _gpi_map(quadforms: QuadFormSet, vec: np.ndarray, vals: QuadValues, alpha: float) -> np.ndarray:
    """One undamped step f -> B^-1 A f at the unit stack ``vec`` whose quadratic
    forms are ``vals``, normalized and phase-aligned to ``vec``."""
    a_op, b_op = assemble_kkt(quadforms, vals, alpha)
    nxt = block_solve(b_op, _matvec(a_op, vec))
    nrm = np.linalg.norm(nxt)
    if nrm == 0 or not np.isfinite(nrm):
        raise NumericError("iteration produced a zero or nonfinite stack")
    return _align_phase(nxt / nrm, vec)


def gpi_solve_vector(
    quadforms: QuadFormSet,
    start: np.ndarray,
    config: SystemConfig,
) -> tuple[np.ndarray, SolveTrace]:
    """Power-iterate from ``start`` (any nonzero stack of matching length).

    On a set without a common family the start's common block must be zero;
    the block-diagonal operators then keep it exactly zero.  Stops when the
    phase-aligned step norm drops to config.epsilon or after config.t_max
    steps.  On exhaustion the best-objective iterate seen is
    returned with converged=False.

    The plain map f -> normalize(B^-1 A f) can settle into a short periodic
    orbit when its linearization has an eigenvalue outside the unit disk with
    negative or complex phase (sharp softmax weights do this at tight
    tolerances).  When an iterate lands back near a recently visited point,
    subsequent steps are damped by blending with the previous iterate; the
    damped map has exactly the same fixed points, and contracting runs never
    trigger it.
    """
    vec = np.asarray(start, dtype=complex).ravel()
    if vec.size != quadforms.n_blocks * quadforms.n_antennas:
        raise ValueError("start vector length does not match the quad-form set")
    nrm = np.linalg.norm(vec)
    if nrm == 0 or not np.isfinite(nrm):
        raise ValueError("start vector must be nonzero and finite")
    if not quadforms.has_common and np.any(vec[: quadforms.n_antennas]):
        raise ValueError("set has no common family; the start's common block must be zero")
    vec = vec / nrm

    alpha = config.smoothing
    vals = quadforms.evaluate(vec.reshape(quadforms.shape))
    obj = vals.objective(alpha)
    rows = [(0, math.nan, obj)]
    history = [vals]
    best_obj, best_vec = obj, vec
    converged = False
    iterations = 0
    hist: deque[np.ndarray] = deque(maxlen=5)
    gamma = 1.0

    for t in range(1, config.t_max + 1):
        nxt = _gpi_map(quadforms, vec, vals, alpha)
        if gamma < 1.0:
            nxt = vec + gamma * (nxt - vec)
            nxt = _align_phase(nxt / np.linalg.norm(nxt), vec)

        step = float(np.linalg.norm(nxt - vec))
        if step > config.epsilon and any(
            float(np.linalg.norm(nxt - past)) < 0.5 * step for past in hist
        ):
            # returned near a point visited a few steps ago: periodic orbit
            gamma = max(0.5 * gamma, 0.0625)
        vals = quadforms.evaluate(nxt.reshape(quadforms.shape))
        obj = vals.objective(alpha)
        rows.append((t, step, obj))
        history.append(vals)
        iterations = t
        if obj > best_obj:
            best_obj, best_vec = obj, nxt
        hist.append(vec)
        vec = nxt
        if step <= config.epsilon:
            converged = True
            break

    result = vec if converged else best_vec
    return result, SolveTrace(tuple(rows), converged, iterations, alpha, tuple(history))


def gpi_solve(
    quadforms: QuadFormSet,
    start: np.ndarray,
    config: SystemConfig,
) -> tuple[np.ndarray, SolveTrace]:
    """GPI on a ``quadforms.shape`` precoder: a common block plus K private
    blocks.  Returns the solution in the same shape.

    Takes either kind of set; on a ``without_common()`` set the start's
    common block must be zero, and it stays zero.
    """
    if np.shape(start) != quadforms.shape:
        raise ValueError(f"start shape {np.shape(start)} does not match {quadforms.shape}")
    vec, trace = gpi_solve_vector(quadforms, start.ravel(), config)
    return vec.reshape(quadforms.shape), trace


def kkt_residual(
    quadforms: QuadFormSet,
    blocks: np.ndarray,
    config: SystemConfig,
) -> float:
    """Distance between f and the normalized, phase-aligned image B^-1 A f.

    Zero exactly at a fixed point of the iteration map; the convergence
    tolerance epsilon bounds it loosely at a converged solve.
    """
    if np.shape(blocks) != quadforms.shape:
        raise ValueError(f"precoder shape {np.shape(blocks)} does not match {quadforms.shape}")
    nrm = np.linalg.norm(blocks)
    if nrm == 0:
        raise ValueError("cannot normalize a zero stack")
    vec = blocks.ravel() / nrm
    vals = quadforms.evaluate(vec.reshape(quadforms.shape))
    return float(np.linalg.norm(_gpi_map(quadforms, vec, vals, config.smoothing) - vec))
