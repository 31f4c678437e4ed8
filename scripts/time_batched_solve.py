#!/usr/bin/env python3
"""Time a sweep's draws and GPI solves one trial at a time and batched per chunk.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/time_batched_solve.py CONFIG [--repeats R]

Draws every trial of the config's sweep twice: one ``draw_scenario`` call
per trial with its own generator, and one ``harness._draw_chunk`` call per
chunk of the harness (which may span several axis values), as a sweep makes
it.  Then builds each chunk's quad-form set and solves the sets of each
configured GPI method twice: one ``gpi_solve`` call per trial's set
(``take`` of the chunk's), and one ``gpi_solve_batch`` call per chunk.
Builds, starts and scoring are outside the timed regions.  Prints one JSON
line with the best wall seconds of each over the repeats, the chunk sizes,
the total iterations and ``loop_iterations``, the sum over the batched
solves of each one's longest trial (the iterations the batched loop runs),
the total ``restarts`` (the accelerated candidates the solver rejected),
and exits 1 if the two draws disagree on any bit of any field, or the two
solves on any solution bit, iteration count, stop flag or objective.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields

import numpy as np

from rsmasec.baselines import mrt_init
from rsmasec.channel import draw_scenario
from rsmasec.harness import (
    _draw_chunk,
    _known,
    _sweep_chunks,
    derive_seed,
    effective_scenario,
    parse_config,
)
from rsmasec.solver import gpi_solve, gpi_solve_batch


def _outcome(trace) -> tuple:
    """What a sweep reads of a trace, which a batched solve keeps."""
    return trace.iterations_used, trace.converged, trace.objective


def _best(runs: dict, repeats: int) -> tuple[dict, dict]:
    """Each run's result and its best wall seconds over ``repeats``."""
    seconds = {name: [] for name in runs}
    results = {}
    for _ in range(repeats):
        for name, run in runs.items():
            t0 = time.perf_counter()
            results[name] = run()
            seconds[name].append(time.perf_counter() - t0)
    return results, {name: min(s) for name, s in seconds.items()}


def _draws(config, chunks, repeats: int) -> tuple[dict, list, bool]:
    """Times one draw per trial against one ``_draw_chunk`` per chunk; returns
    the best seconds, the chunks' draws and whether every trial's fields
    agree to the bit."""
    def one_by_one():
        return [draw_scenario(*effective_scenario(config, value),
                              np.random.default_rng(derive_seed(config.master_seed, index, t)))
                for _, pieces in chunks for value, index, trials in pieces for t in trials]

    def chunked():
        return [_draw_chunk(config, pieces) for _, pieces in chunks]

    results, best = _best({"draw_one_by_one": one_by_one, "draw_chunked": chunked}, repeats)
    stacked = [truth.take(i) for _, truth, ridge in results["draw_chunked"] for i in range(len(ridge))]
    same = len(stacked) == len(results["draw_one_by_one"]) and all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        for a, b in zip(results["draw_one_by_one"], stacked) for f in fields(a))
    return best, results["draw_chunked"], same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    config = parse_config(args.config)

    chunks = _sweep_chunks(config, 1)
    draw_best, drawn, draws_same = _draws(config, chunks, args.repeats)
    jobs = []  # (system, each trial's set, the chunk's set, starts) per chunk and GPI method
    for parts, truth, ridge in drawn:
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

    results, seconds = _best({"one_by_one": one_by_one, "batched": batched}, args.repeats)
    single, solves = results["one_by_one"], results["batched"]
    batch = [r for solve in solves for r in solve]
    same = all(np.array_equal(a[0], b[0]) and _outcome(a[1]) == _outcome(b[1])
               for a, b in zip(single, batch))
    best = {f"{name}_s": round(s, 4) for name, s in {**draw_best, **seconds}.items()}
    print(json.dumps({
        **best,
        "draw_speedup": round(best["draw_one_by_one_s"] / best["draw_chunked_s"], 2),
        "speedup": round(best["one_by_one_s"] / best["batched_s"], 2),
        "solves": len(single),
        "iterations": sum(trace.iterations_used for _, trace in single),
        "loop_iterations": sum(max(trace.iterations_used for _, trace in solve) for solve in solves),
        "restarts": sum(trace.restarts for _, trace in batch),
        "chunk_sizes": sorted({len(sets) for _, sets, _, _ in jobs}),
        "draws_bit_identical": draws_same,
        "bit_identical": same,
    }))
    return 0 if same and draws_same else 1


if __name__ == "__main__":
    sys.exit(main())
