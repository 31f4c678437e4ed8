"""Generalized power iteration for the smoothed sum secrecy objective.

A first-order stationary point of the smoothed objective satisfies a
nonlinear eigenvector equation B(f)^-1 A(f) f = lam(f) f, where A and B are
block-diagonal positive-definite operators rebuilt from the current iterate.
``QuadValues.smoothed`` makes every smoothing decision: it returns the
objective with one coefficient per form for A (on the form's gain matrix)
and one for B (on its loss matrix).  This module keeps the linear algebra:
contracting those coefficients into A and B, the block solves, and the
iteration, which repeatedly applies B^-1 A and renormalizes, Anderson
accelerated after a warm-up.  The arbitrary positive prefactors of A and B
are fixed to one, which leaves the iterates unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .quadforms import QuadFormSet, Smoothed
# Not called here; kept as a module attribute for perfbench/spans.py's tracer.
from .rates import lse_min  # noqa: F401


class NumericError(RuntimeError):
    """A weight, quadratic form, or solve came out nonfinite or nonpositive."""


@dataclass(frozen=True)
class SolveTrace:
    """How a solve ended, and its per-iteration rows when kept.

    ``converged`` reports whether the step-norm test fired before ``t_max``.
    ``objective`` is the smoothed objective at the returned iterate: the
    last row's when converged, else the best row's (the first of equal
    ones).  ``restarts`` counts the accelerated candidates the safeguard
    rejected.  With ``keep_iterates`` each row is (iteration, step_norm,
    objective, lam); row 0 holds the initializer (step_norm is NaN there).
    A solve run without it leaves ``rows`` empty.
    """

    rows: tuple[tuple[int, float, float, float], ...]
    converged: bool
    iterations_used: int
    objective: float
    restarts: int


def assemble_kkt(quadforms: QuadFormSet, smoothed: Smoothed) -> tuple[np.ndarray, np.ndarray]:
    """The (A, B) block stacks of the stationarity condition at the iterate
    ``smoothed`` was computed at, each (n_blocks, N, N), with a leading trial
    axis on a chunk's set: A contracts the gain table with ``smoothed.a``, B
    the loss table with ``smoothed.b``.  Nonfinite coefficients are passed
    through; the solve loop drops the trials they reach."""
    return quadforms.kkt_blocks(smoothed.a, smoothed.b)


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


def _unit_starts(quadforms: QuadFormSet, starts: np.ndarray) -> np.ndarray:
    """A chunk's (T, n_blocks, N) starts scaled to unit norm; ValueError on a wrong
    shape, a zero or nonfinite start, or a common block on a set without one."""
    vec = np.asarray(starts, dtype=complex)
    want = (*quadforms.trial_shape, *quadforms.shape)
    if len(quadforms.trial_shape) != 1 or vec.shape != want:
        raise ValueError(f"start stack shape {vec.shape} does not match the chunk's set's {want}")
    nrm = _norms(vec)
    if not (np.isfinite(nrm).all() and (nrm > 0).all()):
        raise ValueError("start vector must be nonzero and finite")
    if not quadforms.has_common and vec[:, 0].any():
        raise ValueError("set has no common family; the start's common block must be zero")
    return vec / nrm[:, None, None]


def _plain_step(quadforms: QuadFormSet, smoothed: Smoothed, vec: np.ndarray):
    """The plain image g(x) = align(normalize(B^-1 A x), x) of every trial's
    iterate x, whose record is ``smoothed``, and whether each trial's blocks
    and image came out finite (and the image nonzero)."""
    a_op, b_op = assemble_kkt(quadforms, smoothed)
    img = _solve_each(b_op, _matvec(a_op, vec))
    nrm = _norms(img)
    ok = (nrm > 0) & (nrm < np.inf) & _finite(a_op) & _finite(b_op)
    return _align_phase(img / nrm[:, None, None], vec), ok


_STEP_FAILED = ("iteration produced nonfinite operator blocks, a singular block or a zero or "
                "nonfinite stack")

# Plain steps before the first accelerated one: a solve with t_max at most
# this runs the plain map alone.
_WARMUP = 10
# Anderson depth: the past residual differences mixed into each step.
_DEPTH = 3
# Tikhonov weight of the mixing normal equations, relative to their trace.
_MIX_RIDGE = 1e-10


def _anderson(img: np.ndarray, d_img: np.ndarray, d_res: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Type-II Anderson points img - dG gamma, one per trial, where the
    columns of dG are the trial's stored image differences ``d_img`` and the
    real weights gamma minimize ||res - dF gamma|| over its residual
    differences dF, ``d_res`` (each (T, m, n_blocks, N); a cleared slot is
    zero and gets weight zero).  The regularized m x m normal equations of
    every trial are one stacked solve."""
    t, m = d_res.shape[:2]
    d_res = d_res.reshape(t, m, -1)
    gram = (d_res.conj() @ d_res.transpose(0, 2, 1)).real
    rhs = (d_res.conj() @ res.reshape(t, -1, 1)).real
    ridge = _MIX_RIDGE * np.trace(gram, axis1=1, axis2=2) + np.finfo(float).tiny
    weights = np.linalg.solve(gram + ridge[:, None, None] * np.eye(m), rhs)
    return img - (d_img.reshape(t, m, -1).transpose(0, 2, 1) @ weights).reshape(img.shape)


def gpi_solve_batch(
    quadforms: QuadFormSet,
    starts: np.ndarray,
    config: SystemConfig,
    *,
    keep_iterates: bool = False,
) -> list[tuple[np.ndarray, SolveTrace] | NumericError]:
    """Power-iterate every set of a chunk from its start, all trials at once.

    ``quadforms`` is a chunk's set (its bases carry the T trials; the
    tables are shared) and ``starts`` the (T, n_blocks, N) stack of nonzero,
    finite starting precoders.  On a set without a common family the start's
    common block must be zero; the block-diagonal operators then keep it
    exactly zero.  Returns, per trial, the solution and its trace, or the
    NumericError that stopped it.

    Each step maps a trial's iterate x to its plain image
    g(x) = align(normalize(B^-1 A x), x).  The trial stops when the step norm
    ||g(x) - x|| drops to config.epsilon, returning g(x), or after
    config.t_max steps, when its best-objective iterate is returned with
    converged=False.  Stopped and failed trials leave the active set; every
    operation acts on each trial alone, so a trial's result does not depend
    on the others in its chunk.  The chunk's trials may sit at different
    SNRs: the set's bases carry each trial's noise ridge, and config supplies
    only the smoothing, epsilon and t_max.

    The first ``_WARMUP`` steps move to g(x).  Later steps are Anderson
    accelerated (type II, depth ``_DEPTH``; Walker & Ni, SIAM J. Numer.
    Anal. 2011): the candidate g(x) - dG gamma mixes the trial's last
    differences of images dG and of residuals dF, with gamma the
    least-squares fit of the residual g(x) - x by dF.  The plain map can
    circle in a short periodic orbit at tight tolerances; the mixing breaks
    such orbits.  Safeguard: the step moves to the normalized candidate only
    if its smoothed objective is at least g(x)'s; otherwise it moves to g(x)
    and clears the trial's differences, and the trace counts a restart.

    The loop carries one ``QuadValues.smoothed`` record per trial: the
    iterate's objective and the coefficients of its A and B.  Only with
    ``keep_iterates`` does a trace keep its per-iterate ``rows``, each with
    the record's lambda diagnostic; without it the trace holds
    ``iterations_used``, ``converged``, ``restarts`` and ``objective``, and
    lambda is never computed.  A row's step norm is ||g(x) - x|| and its
    objective and lambda those of the iterate the step moved to.
    """
    qf = quadforms
    vec = _unit_starts(qf, starts)
    n_trials = len(vec)
    alpha, eps = config.smoothing, config.epsilon
    out: list = [None] * n_trials
    idx = np.arange(n_trials)      # chunk index of each active trial
    sm = qf.evaluate(vec).smoothed(alpha, keep_iterates)
    obj = sm.objective
    rows: list[list] = [[] for _ in range(n_trials)]
    if keep_iterates:
        for i, (o, lam) in enumerate(zip(obj.tolist(), sm.lam.tolist())):
            rows[i].append((0, math.nan, o, lam))
    best_obj, best_vec = obj, vec
    # per-trial rings of the last _DEPTH image and residual differences,
    # made at the step of the oldest difference the first accelerated step
    # mixes; a solve with no accelerated step makes none and keeps no
    # previous image or residual
    first_record = _WARMUP - _DEPTH + 2 if config.t_max > _WARMUP else math.inf
    restarts = np.zeros(n_trials, dtype=int)

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for t in range(1, config.t_max + 1):
            img, ok = _plain_step(qf, sm, vec)
            res = img - vec
            step = _norms(res)
            sm = qf.evaluate(img).smoothed(alpha, keep_iterates)
            obj = sm.objective
            nxt = img

            # every active trial fills the same ring slot
            if t >= first_record:
                if t == first_record:
                    d_img = np.zeros((len(vec), _DEPTH, *qf.shape), dtype=complex)
                    d_res = np.zeros_like(d_img)
                d_img[:, t % _DEPTH] = img - prev_img
                d_res[:, t % _DEPTH] = res - prev_res
            acc = np.flatnonzero(ok & (step > eps)) if t > _WARMUP else []
            if len(acc):
                cand = _anderson(img[acc], d_img[acc], d_res[acc], res[acc])
                cand = cand / _norms(cand)[:, None, None]
                cand_sm = qf.take(acc).evaluate(cand).smoothed(alpha, keep_iterates)
                up = cand_sm.objective >= obj[acc]      # the safeguard: no worse than g(x)
                win, lost = acc[up], acc[~up]
                nxt = img.copy()
                nxt[win] = cand[up]
                for field, cand_field in zip(sm, cand_sm):   # in place; lam may be None
                    if field is not None:
                        field[win] = cand_field[up]
                d_img[lost] = 0.0
                d_res[lost] = 0.0
                restarts[lost] += 1
            if t >= first_record - 1:
                prev_img, prev_res = img, res

            better = obj > best_obj
            best_obj = np.where(better, obj, best_obj)
            best_vec = np.where(better[:, None, None], nxt, best_vec)
            vec = nxt

            stop = ok & (step <= eps)
            if keep_iterates:
                for i, st, ob, la in zip(idx[ok].tolist(), step[ok].tolist(),
                                         obj[ok].tolist(), sm.lam[ok].tolist()):
                    rows[i].append((t, st, ob, la))
            keep = ok & ~stop
            done = np.flatnonzero(~keep) if t < config.t_max else range(len(idx))
            for j in done:
                i = idx[j]
                if not ok[j]:
                    out[i] = NumericError(_STEP_FAILED)
                    continue
                hit = bool(stop[j])
                out[i] = ((vec[j] if hit else best_vec[j]).copy(),
                          SolveTrace(tuple(rows[i]), hit, t,
                                     float(obj[j] if hit else best_obj[j]), int(restarts[j])))
            if not keep.all():
                if not keep.any():
                    break
                idx, vec, qf = idx[keep], vec[keep], qf.take(keep)
                sm = Smoothed(*(None if field is None else field[keep] for field in sm))
                best_obj, best_vec, restarts = best_obj[keep], best_vec[keep], restarts[keep]
                if t >= first_record - 1:
                    prev_img, prev_res = prev_img[keep], prev_res[keep]
                if t >= first_record:
                    d_img, d_res = d_img[keep], d_res[keep]
    return out


def gpi_solve_vector(
    quadforms: QuadFormSet,
    start: np.ndarray,
    config: SystemConfig,
) -> tuple[np.ndarray, SolveTrace]:
    """``gpi_solve_batch`` on one set from a flat start of matching length;
    returns the flat solution with its full trace (``keep_iterates``) and
    raises the NumericError that stopped it."""
    vec = np.asarray(start, dtype=complex)
    if vec.size != quadforms.n_blocks * quadforms.n_antennas:
        raise ValueError("start vector length does not match the quad-form set")
    chunk = quadforms.take(np.newaxis)
    result = gpi_solve_batch(chunk, vec.reshape(1, *quadforms.shape), config, keep_iterates=True)[0]
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
    step norm of one plain iteration from f, the step ``gpi_solve_batch``
    takes; raises NumericError where that step fails.
    """
    if np.shape(blocks) != quadforms.shape:
        raise ValueError(f"precoder shape {np.shape(blocks)} does not match {quadforms.shape}")
    chunk = quadforms.take(np.newaxis)
    vec = _unit_starts(chunk, np.asarray(blocks)[None])
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        img, ok = _plain_step(chunk, chunk.evaluate(vec).smoothed(config.smoothing, False), vec)
    if not ok[0]:
        raise NumericError(_STEP_FAILED)
    return float(_norms(img - vec)[0])
