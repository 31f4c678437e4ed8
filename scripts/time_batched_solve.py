#!/usr/bin/env python3
"""Time a sweep's GPI solves one set at a time and batched per chunk.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/time_batched_solve.py CONFIG [--repeats R]

Draws every trial of the config's sweep in the harness's chunks, then solves
the sets of each configured GPI method twice: one ``gpi_solve`` call per set,
and one ``gpi_solve_batch`` call per chunk.  Draws, starts and scoring are
outside the timed region.  Prints one JSON line with the best wall seconds of
each over the repeats, the chunk sizes and the total iterations, and exits 1
if the two disagree on any solution bit.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from rsmasec.baselines import mrt_init
from rsmasec.harness import _draw_chunk, _sweep_chunks, parse_config
from rsmasec.solver import gpi_solve, gpi_solve_batch


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    config = parse_config(args.config)

    jobs = []  # (system, sets, starts) per chunk and GPI method
    for _, value, axis_index, trials in _sweep_chunks(config, 1):
        system, _, _, draws = _draw_chunk(config, value, axis_index, trials)
        for rsma in [m == "gpi-rsma" for m in config.methods if m.startswith("gpi")]:
            sets = [qf if rsma else qf.without_common() for *_, qf in draws]
            starts = np.stack([mrt_init(k, common_stream=rsma) for _, k, _ in draws])
            jobs.append((system, sets, starts))

    def one_by_one():
        return [gpi_solve(qf, s, system) for system, sets, starts in jobs for qf, s in zip(sets, starts)]

    def batched():
        return [r for system, sets, starts in jobs for r in gpi_solve_batch(sets, starts, system)]

    runs = {"one_by_one": one_by_one, "batched": batched}
    seconds = {name: [] for name in runs}
    results = {}
    for _ in range(args.repeats):
        for name, run in runs.items():
            t0 = time.perf_counter()
            results[name] = run()
            seconds[name].append(time.perf_counter() - t0)
    single, batch = results["one_by_one"], results["batched"]
    same = all(np.array_equal(a[0], b[0]) and a[1] == b[1] for a, b in zip(single, batch))
    best = {f"{name}_s": round(min(s), 4) for name, s in seconds.items()}
    print(json.dumps({
        **best,
        "speedup": round(best["one_by_one_s"] / best["batched_s"], 2),
        "solves": len(single),
        "iterations": sum(trace.iterations_used for _, trace in single),
        "chunk_sizes": sorted({len(sets) for _, sets, _ in jobs}),
        "bit_identical": same,
    }))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
