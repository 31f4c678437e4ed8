#!/usr/bin/env python3
"""Time the quad-form kernels of one GPI iteration on a config's first chunk.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/time_quadforms.py CONFIG [--repeats R]

Draws the first chunk of the config's sweep as a sweep draws it
(``harness._draw_chunk``), builds its quad-form set (the full set, with the
common forms) and takes each trial's MRT start as the point.  Then, R times
in turn, it calls each of ``QuadFormSet.evaluate`` at the point,
``QuadValues.smoothed`` on the point's values, ``assemble_kkt`` on the
point's smoothed record, ``block_solve`` on the resulting B and A f, and one
whole plain GPI step (``solver._plain_step``) from the point, so the five
interleave and share the machine's drift.
Prints one JSON line with each call's min and median milliseconds, the
chunk's trial count and its set's (n_blocks, N) shape.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from rsmasec.baselines import mrt_init
from rsmasec.harness import _draw_chunk, _known, _sweep_chunks, parse_config
from rsmasec.solver import _matvec, _plain_step, assemble_kkt, block_solve


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config")
    parser.add_argument("--repeats", type=int, default=200)
    args = parser.parse_args(argv)
    config = parse_config(args.config)

    _, pieces = _sweep_chunks(config, 1)[0]
    parts, truth, ridge = _draw_chunk(config, pieces)
    system = parts[0][0]
    knowledge, quadforms = _known(config.csit_mode, truth, system, ridge)
    point = mrt_init(knowledge)
    values = quadforms.evaluate(point)
    smoothed = values.smoothed(system.smoothing, False)
    a_op, b_op = assemble_kkt(quadforms, smoothed)
    rhs = _matvec(a_op, point)
    calls = {
        "evaluate": lambda: quadforms.evaluate(point),
        "smoothed": lambda: values.smoothed(system.smoothing, False),
        "assemble_kkt": lambda: assemble_kkt(quadforms, smoothed),
        "block_solve": lambda: block_solve(b_op, rhs),
        "plain_step": lambda: _plain_step(quadforms, smoothed, point),
    }
    ms: dict[str, list[float]] = {name: [] for name in calls}
    for _ in range(args.repeats):
        for name, call in calls.items():
            t0 = time.perf_counter()
            call()
            ms[name].append(1e3 * (time.perf_counter() - t0))
    print(json.dumps({
        "trials": len(ridge),
        "shape": list(quadforms.shape),
        "repeats": args.repeats,
        **{f"{name}_ms": {"min": round(min(v), 4), "median": round(statistics.median(v), 4)}
           for name, v in ms.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
