#!/usr/bin/env python3
"""Time every layer of a sweep, per call, on a config's first chunk.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/time_layers.py CONFIG [--repeats R]

Takes the first chunk of the config's sweep as a sweep takes it
(``harness._sweep_chunks``, ``_draw_chunk`` and ``_known``) and runs it once
through ``harness._run_chunk`` for its columns.  Then it times two groups of
calls, one after the other, each in R interleaved rounds (R = 100 by
default), so a group's calls share the machine's drift.

The chunk group, the layers run around the solver by ``_run_chunk`` and ``run_sweep``:

  - ``draw``: ``_draw_chunk``, the seeds, the stacked draws, the noise terms
    and the head columns;
  - ``build``: the chunk's quad-form set (``_known``);
  - ``<method>_baseline``: each method's set and start as the sweep makes
    them (``_method_start``: its MRT start, or ``rzf_precoder`` for
    ``rzf-sdma``, and the ``without_common()`` view for the SDMA methods);
    ``<method>_objective``: ``smoothed_objective`` for ``rzf-sdma`` and
    ``mrt`` (a GPI method reads its trace's);
  - ``scoring``: one ``sum_secrecy_se`` call per method, summed (a GPI
    method scores the precoders of one batched solve);
  - ``csv_write``: the chunk's lines formatted from its columns and written
    as ``run_sweep`` writes them (``_rows`` and ``_write_csv``);
  - ``aggregate``: ``harness.aggregate`` over the chunk's columns.

The kernel group, the parts of one GPI iteration at each trial's MRT start
on the full set (with the common forms): ``evaluate``, ``smoothed`` on its
values, ``assemble_kkt`` on that record, ``block_solve`` on the resulting B
and A f, ``plain_step`` (one whole ``solver._plain_step``), ``anderson``
(``solver._anderson`` on the differences of ``_DEPTH`` + 1 plain steps) and
``pair_scoring`` (one two-point ``evaluate`` plus ``smoothed`` on the stack
[image, candidate]).

Prints one JSON line: the chunk's trial count, its set's (n_blocks, N) shape,
R, and each layer's min and median milliseconds.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

import numpy as np

from rsmasec.baselines import mrt_init
from rsmasec.harness import (
    CSV_COLUMNS,
    GPI_METHODS,
    _draw_chunk,
    _known,
    _method_start,
    _rows,
    _run_chunk,
    _sweep_chunks,
    _write_csv,
    aggregate,
    parse_config,
)
from rsmasec.quadforms import smoothed_objective
from rsmasec.rates import sum_secrecy_se
from rsmasec.solver import (_DEPTH, _anderson, _matvec, _plain_step, assemble_kkt, block_solve,
                            gpi_solve_batch)


def _timed(calls: dict, repeats: int) -> dict:
    """Each call's min and median milliseconds over ``repeats`` interleaved rounds."""
    ms: dict[str, list[float]] = {name: [] for name in calls}
    for _ in range(repeats):
        for name, call in calls.items():
            t0 = time.perf_counter()
            call()
            ms[name].append(1e3 * (time.perf_counter() - t0))
    return {f"{name}_ms": {"min": round(min(v), 4), "median": round(statistics.median(v), 4)}
            for name, v in ms.items()}


def _chunk_calls(config, pieces, drawn, knowledge, quadforms, path: str) -> dict:
    system, truth, ridge, noise_eve, _ = drawn
    noise = {"noise_user_ratio": ridge, "noise_eve_ratio": noise_eve}
    calls = {
        "draw": lambda: _draw_chunk(config, pieces),
        "build": lambda: _known(config.csit_mode, truth, system, ridge),
    }
    precoders = {}
    for method in config.methods:
        calls[f"{method}_baseline"] = lambda m=method: _method_start(m, knowledge, quadforms, system, ridge)
        forms, f = calls[f"{method}_baseline"]()
        if method in GPI_METHODS:
            f = gpi_solve_batch(forms, f, system)[0]
        else:
            calls[f"{method}_objective"] = lambda forms=forms, f=f: smoothed_objective(forms, f, system)
        precoders[method] = f

    chunk = _run_chunk(config, pieces)
    calls.update({
        "scoring": lambda: [sum_secrecy_se(truth, f, system, **noise) for f in precoders.values()],
        "csv_write": lambda: _write_csv(path, CSV_COLUMNS, _rows(chunk, text=True)),
        "aggregate": lambda: aggregate([chunk]),
    })
    return calls


def _kernel_calls(quadforms, point: np.ndarray, alpha: float) -> dict:
    values = quadforms.evaluate(point)
    smoothed = values.smoothed(alpha, False)
    a_op, b_op = assemble_kkt(quadforms, smoothed)
    rhs = _matvec(a_op, point)
    # an accelerated step's inputs, from _DEPTH + 1 plain steps
    x = [point]
    for _ in range(_DEPTH + 1):
        img, ok = _plain_step(quadforms, quadforms.evaluate(x[-1]).smoothed(alpha, False), x[-1])
        x.append(img)
    residuals = np.diff(x, axis=0)
    d_img, d_res = (np.ascontiguousarray(np.diff(steps, axis=0).swapaxes(0, 1))
                    for steps in (x[1:], residuals))
    pair = np.stack([img, img], axis=1)
    _anderson(img, d_img, d_res, residuals[-1], ok, pair[:, 1])
    return {
        "evaluate": lambda: quadforms.evaluate(point),
        "smoothed": lambda: values.smoothed(alpha, False),
        "assemble_kkt": lambda: assemble_kkt(quadforms, smoothed),
        "block_solve": lambda: block_solve(b_op, rhs),
        "plain_step": lambda: _plain_step(quadforms, smoothed, point),
        "anderson": lambda: _anderson(img, d_img, d_res, residuals[-1], ok, np.empty_like(img)),
        "pair_scoring": lambda: quadforms.evaluate(pair).smoothed(alpha, False),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config")
    parser.add_argument("--repeats", type=int, default=100)
    args = parser.parse_args(argv)
    config = parse_config(args.config)

    _, pieces = _sweep_chunks(config, 1)[0]
    drawn = _draw_chunk(config, pieces)
    system, truth, ridge, _, _ = drawn
    knowledge, quadforms = _known(config.csit_mode, truth, system, ridge)
    with tempfile.TemporaryDirectory() as tmp:
        chunk = _timed(_chunk_calls(config, pieces, drawn, knowledge, quadforms,
                                    os.path.join(tmp, "chunk.csv")), args.repeats)
    kernels = _timed(_kernel_calls(quadforms, mrt_init(knowledge), system.smoothing), args.repeats)
    print(json.dumps({"trials": len(ridge), "shape": list(quadforms.shape), "repeats": args.repeats,
                      **chunk, **kernels}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
