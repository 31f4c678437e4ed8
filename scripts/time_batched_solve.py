#!/usr/bin/env python3
"""Time a sweep's GPI solves one set at a time and batched per chunk.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/time_batched_solve.py CONFIG [--repeats R]

Draws every trial of the config's sweep in the harness's chunks (which may
span several axis values) and builds each chunk's quad-form set, then
solves the sets of each configured GPI method twice: one ``gpi_solve`` call
per trial's set (``take`` of the chunk's), and one ``gpi_solve_batch`` call
per chunk, as a sweep makes it.  Draws, builds, starts and scoring are
outside the timed region.  Prints one JSON line with the best wall seconds
of each over the repeats, the chunk sizes, the total iterations and
``loop_iterations``, the sum over the batched solves of each one's longest
trial (the iterations the batched loop runs), the total ``restarts`` (the
accelerated candidates the solver rejected), and exits 1 if the two
disagree on any solution bit, iteration count, stop flag or objective.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from rsmasec.baselines import mrt_init
from rsmasec.harness import _draw_chunk, _known, _sweep_chunks, parse_config
from rsmasec.solver import gpi_solve, gpi_solve_batch


def _outcome(trace) -> tuple:
    """What a sweep reads of a trace, which a batched solve keeps."""
    return trace.iterations_used, trace.converged, trace.objective


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    config = parse_config(args.config)

    jobs = []  # (system, each trial's set, the chunk's set, starts) per chunk and GPI method
    for _, pieces in _sweep_chunks(config, 1):
        parts, truth, ridge = _draw_chunk(config, pieces)
        system = parts[0][0]
        knowledge, quadforms = _known(config.csit_mode, truth, system, ridge)
        for rsma in [m == "gpi-rsma" for m in config.methods if m.startswith("gpi")]:
            chunk = quadforms if rsma else quadforms.without_common()
            sets = [chunk.take(i) for i in range(len(ridge))]
            jobs.append((system, sets, chunk, mrt_init(knowledge, common_stream=rsma)))

    def one_by_one():
        return [gpi_solve(qf, s, system) for system, sets, _, starts in jobs for qf, s in zip(sets, starts)]

    def batched():
        return [gpi_solve_batch(chunk, starts, system) for system, _, chunk, starts in jobs]

    runs = {"one_by_one": one_by_one, "batched": batched}
    seconds = {name: [] for name in runs}
    results = {}
    for _ in range(args.repeats):
        for name, run in runs.items():
            t0 = time.perf_counter()
            results[name] = run()
            seconds[name].append(time.perf_counter() - t0)
    single, solves = results["one_by_one"], results["batched"]
    batch = [r for solve in solves for r in solve]
    same = all(np.array_equal(a[0], b[0]) and _outcome(a[1]) == _outcome(b[1])
               for a, b in zip(single, batch))
    best = {f"{name}_s": round(min(s), 4) for name, s in seconds.items()}
    print(json.dumps({
        **best,
        "speedup": round(best["one_by_one_s"] / best["batched_s"], 2),
        "solves": len(single),
        "iterations": sum(trace.iterations_used for _, trace in single),
        "loop_iterations": sum(max(trace.iterations_used for _, trace in solve) for solve in solves),
        "restarts": sum(trace.restarts for _, trace in batch),
        "chunk_sizes": sorted({len(sets) for _, sets, _, _ in jobs}),
        "bit_identical": same,
    }))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
