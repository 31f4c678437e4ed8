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
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .config import SystemConfig
from .quadforms import QuadFormSet, QuadValues
from .rates import lse_min


class NumericError(RuntimeError):
    """A weight, quadratic form, or solve came out nonfinite or nonpositive."""


@dataclass(frozen=True)
class SolveTrace:
    """Per-iteration records: (iteration, step_norm, objective).

    Row 0 holds the initializer (step_norm is NaN there).  ``converged``
    reports whether the step-norm test fired before ``t_max``.  ``history``
    keeps, per iterate, the chunk's stacked quadratic forms and this trial's
    position in them, so that ``values`` and ``iterates`` (which adds the
    lambda diagnostic) can be cut out when read; equality ignores it.
    """

    rows: tuple[tuple[int, float, float], ...]
    converged: bool
    iterations_used: int
    alpha: float
    history: tuple[tuple[QuadValues, int], ...] = field(compare=False, repr=False)

    @property
    def values(self) -> tuple[QuadValues, ...]:
        """Each iterate's quadratic forms."""
        return tuple(vals.take(pos) for vals, pos in self.history)

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
    leak = float(vals.smoothed_leakages(alpha).sum())
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
    whose quadratic forms are ``vals``, each of shape (n_blocks, N, N), with
    a leading trial axis on a stacked set.

    Normalized weights are computed in log space (softmax over rates divided
    by alpha), which is algebraically identical to the raw-weight form but
    immune to exponential overflow.  Nonfinite values are passed through;
    the solve loop drops the trials they reach.
    """
    a_w = {"private_num": 1.0 / vals.private_num}
    b_w = {"private_den": 1.0 / vals.private_den}
    if quadforms.has_common:
        w_c = _softmax(-vals.common_rates() / alpha, axis=-1)
        a_w["common_num"] = w_c / vals.common_num
        b_w["common_den"] = w_c / vals.common_den

    e_cnt = vals.eve_num.shape[-1]
    if e_cnt + vals.user_num.shape[-1]:  # an empty wiretap set leaks nothing
        if quadforms.variant == "perfect":
            # Pooled softmax over each wiretap set; split back per family.
            pooled = _softmax(np.log2(np.concatenate(
                [vals.eve_num / vals.eve_den, vals.user_num / vals.user_den], axis=-1,
            )) / alpha, axis=-1)
            w_eve, w_user = pooled[..., :e_cnt], pooled[..., e_cnt:]
            a_w["eve_den"] = w_eve / vals.eve_den
            b_w["eve_num"] = w_eve / vals.eve_num
            a_w["user_den"] = w_user / vals.user_den
            b_w["user_num"] = w_user / vals.user_num
        else:
            # Collusion bound: weights are the raw ratios and the normalizer
            # carries the +1 from log2(1 + sum).  On the B side the ratio's
            # numerator cancels, so the coefficient stays finite even when a
            # collusion term's numerator quadratic form vanishes.
            norm = (1.0 + (vals.eve_num / vals.eve_den).sum(axis=-1)
                    + (vals.user_num / vals.user_den).sum(axis=-1))[..., None]
            a_w["eve_den"] = vals.eve_num / (vals.eve_den**2 * norm)
            b_w["eve_num"] = 1.0 / (vals.eve_den * norm)
            a_w["user_den"] = vals.user_num / (vals.user_den**2 * norm)
            b_w["user_num"] = 1.0 / (vals.user_den * norm)

    return quadforms.weighted_blocks(a_w), quadforms.weighted_blocks(b_w)


def block_solve(b_blocks: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the block-diagonal system B x = rhs, every block at once.

    ``b_blocks`` is (..., n_blocks, N, N); ``rhs`` holds n_blocks * N
    entries per leading index and the solution comes back in its shape.  One
    LU solve per block (``np.linalg.solve`` over the whole stack), so the
    cost is n_blocks * N^3 instead of the (n_blocks * N)^3 of a dense solve.
    Raises NumericError when a block is singular or the solution is not
    finite.
    """
    r = np.asarray(rhs, dtype=complex)
    try:
        x = np.linalg.solve(b_blocks, r.reshape(*b_blocks.shape[:-1], 1))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"block solve failed: {exc}") from None
    if not np.isfinite(x).all():
        raise NumericError("solve produced nonfinite values")
    return x.reshape(r.shape)


def _solve_each(b_blocks: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``block_solve`` over a chunk; a trial whose solve fails comes back NaN
    and leaves the others as they are."""
    try:
        return block_solve(b_blocks, rhs)
    except NumericError:
        out = np.full(rhs.shape, np.nan, dtype=complex)
        for i in range(len(rhs)):
            try:
                out[i] = block_solve(b_blocks[i], rhs[i])
            except NumericError:
                pass
        return out


def _matvec(blocks: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Block-diagonal (..., n_blocks, N, N) times a vector, in the vector's shape."""
    x = np.reshape(vec, (*blocks.shape[:-1], 1))
    return (blocks @ x).reshape(np.shape(vec))


def _norms(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each trial's (n_blocks, N) stack."""
    return np.linalg.norm(x, axis=(-2, -1))


def _finite(x: np.ndarray) -> np.ndarray:
    """Whether each trial's entries of ``x`` are all finite."""
    return np.isfinite(x.reshape(len(x), -1)).all(axis=1)


def _align_phase(vec: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Rotate out each trial's global phase so vec is as close to ref as possible."""
    t = len(vec)
    inner = (ref.reshape(t, 1, -1).conj() @ vec.reshape(t, -1, 1)).reshape(t)
    mag = np.abs(inner)
    turn = inner.conj() / mag
    turn[mag < 1e-300] = 1.0
    return vec * turn[:, None, None]


# Past iterates searched for a return to a recently visited point.
_ORBIT_MEMORY = 5


def gpi_solve_batch(
    quadforms: Sequence[QuadFormSet],
    starts: np.ndarray,
    config: SystemConfig,
) -> list[tuple[np.ndarray, SolveTrace] | NumericError]:
    """Power-iterate every set of a chunk from its start, all trials at once.

    ``quadforms`` are T sets of one shape and kind and ``starts`` the
    (T, n_blocks, N) stack of nonzero, finite starting precoders.  On a set
    without a common family the start's common block must be zero; the
    block-diagonal operators then keep it exactly zero.  Returns, per trial,
    the solution and its trace, or the NumericError that stopped it.

    Each trial stops when its phase-aligned step norm drops to
    config.epsilon, or after config.t_max steps, when its best-objective
    iterate is returned with converged=False.  Stopped and failed trials
    leave the active set; every operation acts on each trial alone, so a
    trial's result does not depend on the others in its chunk.

    The plain map f -> normalize(B^-1 A f) can settle into a short periodic
    orbit when its linearization has an eigenvalue outside the unit disk with
    negative or complex phase (sharp softmax weights do this at tight
    tolerances).  When an iterate lands back near a recently visited point,
    that trial's later steps are damped by blending with its previous
    iterate; the damped map has exactly the same fixed points, and
    contracting runs never trigger it.
    """
    qf = QuadFormSet.stack(quadforms)
    n_trials = len(quadforms)
    vec = np.asarray(starts, dtype=complex)
    if vec.shape != (n_trials, *qf.shape):
        raise ValueError(f"start stack shape {vec.shape} does not match {(n_trials, *qf.shape)}")
    nrm = _norms(vec)
    if not (np.isfinite(nrm).all() and (nrm > 0).all()):
        raise ValueError("start vector must be nonzero and finite")
    if not qf.has_common and vec[:, 0].any():
        raise ValueError("set has no common family; the start's common block must be zero")
    vec = vec / nrm[:, None, None]

    alpha, eps = config.smoothing, config.epsilon
    out: list = [None] * n_trials
    idx = np.arange(n_trials)      # chunk index of each active trial
    vals = qf.evaluate(vec)
    obj = vals.objective(alpha)
    rows = [[(0, math.nan, float(o))] for o in obj]
    history = [[(vals, i)] for i in range(n_trials)]
    best_obj, best_vec = obj, vec
    gamma = np.ones(n_trials)
    damped = False                 # whether any trial's steps are damped
    past = np.empty((n_trials, _ORBIT_MEMORY, *qf.shape), dtype=complex)

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for t in range(1, config.t_max + 1):
            a_op, b_op = assemble_kkt(qf, vals, alpha)
            nxt = _solve_each(b_op, _matvec(a_op, vec))
            nrm = _norms(nxt)
            ok = (nrm > 0) & (nrm < np.inf) & _finite(a_op) & _finite(b_op)
            nxt = _align_phase(nxt / nrm[:, None, None], vec)
            if damped and (d := gamma < 1.0).any():
                blend = vec[d] + gamma[d, None, None] * (nxt[d] - vec[d])
                nxt[d] = _align_phase(blend / _norms(blend)[:, None, None], vec[d])

            step = _norms(nxt - vec)
            seen = min(t - 1, _ORBIT_MEMORY)
            if seen:
                # returned near a point visited a few steps ago: periodic orbit
                near = (_norms(nxt[:, None] - past[:, :seen]) < 0.5 * step[:, None]).any(axis=1)
                orbit = near & (step > eps)
                if orbit.any():
                    gamma[orbit] = np.maximum(0.5 * gamma[orbit], 0.0625)
                    damped = True
            vals = qf.evaluate(nxt)
            obj = vals.objective(alpha)
            better = obj > best_obj
            best_obj = np.where(better, obj, best_obj)
            best_vec = np.where(better[:, None, None], nxt, best_vec)
            past[:, (t - 1) % _ORBIT_MEMORY] = vec
            vec = nxt

            keep = []
            for j, (i, fine, st, ob) in enumerate(zip(idx.tolist(), ok.tolist(), step.tolist(), obj.tolist())):
                stop = st <= eps
                keep.append(fine and not stop)
                if not fine:
                    out[i] = NumericError("iteration produced nonfinite operator blocks, "
                                          "a singular block or a zero or nonfinite stack")
                    continue
                rows[i].append((t, st, ob))
                history[i].append((vals, j))
                if stop or t == config.t_max:
                    out[i] = ((vec[j] if stop else best_vec[j]).copy(),
                              SolveTrace(tuple(rows[i]), stop, t, alpha, tuple(history[i])))
            if not all(keep):
                if not any(keep):
                    break
                keep = np.array(keep)
                idx, vec, vals, qf = idx[keep], vec[keep], vals.take(keep), qf.take(keep)
                best_obj, best_vec, gamma, past = best_obj[keep], best_vec[keep], gamma[keep], past[keep]
    return out


def gpi_solve_vector(
    quadforms: QuadFormSet,
    start: np.ndarray,
    config: SystemConfig,
) -> tuple[np.ndarray, SolveTrace]:
    """``gpi_solve_batch`` on one set from a flat start of matching length;
    returns the flat solution and raises the NumericError that stopped it."""
    vec = np.asarray(start, dtype=complex)
    if vec.size != quadforms.n_blocks * quadforms.n_antennas:
        raise ValueError("start vector length does not match the quad-form set")
    result = gpi_solve_batch([quadforms], vec.reshape(1, *quadforms.shape), config)[0]
    if isinstance(result, NumericError):
        raise result
    solution, trace = result
    return solution.ravel(), trace


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
    tolerance epsilon bounds it loosely at a converged solve.  This is the
    step norm of one undamped iteration from f.
    """
    if np.shape(blocks) != quadforms.shape:
        raise ValueError(f"precoder shape {np.shape(blocks)} does not match {quadforms.shape}")
    if not np.any(blocks):
        raise ValueError("cannot normalize a zero stack")
    _, trace = gpi_solve_vector(quadforms, blocks.ravel(), replace(config, t_max=1))
    return trace.rows[1][1]
