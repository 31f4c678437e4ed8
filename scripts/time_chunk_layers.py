#!/usr/bin/env python3
"""Time the layers of a sweep chunk around the solver on a config's first chunk.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/time_chunk_layers.py CONFIG [--repeats R]

Runs the first chunk of the config's sweep once as ``harness._run_chunk``
does, each GPI method's batched solve included.  Then, R times in turn, it
calls each layer that ``_run_chunk`` and ``run_sweep`` run around the
solver, so the layers interleave and share the machine's drift:

  - ``draw``: ``harness._draw_chunk``, the seeds and the stacked draws;
  - ``build``: the chunk's quad-form set (``harness._known``);
  - ``<method>_baseline``: each method's linear precoder or start, the MRT
    start of a GPI method, ``rzf_precoder`` with each trial's noise for
    ``rzf-sdma``; and ``<method>_objective``, the ``smoothed_objective``
    call of ``rzf-sdma`` and ``mrt`` (a GPI method reads its trace's);
  - ``scoring``: one ``sum_secrecy_se`` call per method, summed;
  - ``rows``: one ``_method_rows`` call per method, summed;
  - ``csv_write``: the chunk's rows written as ``run_sweep`` writes them;
  - ``aggregate``: ``harness.aggregate`` over the chunk's rows.

Prints one JSON line with each layer's min and median milliseconds and the
chunk's trial count.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

from rsmasec.baselines import mrt_init, rzf_precoder
from rsmasec.harness import (
    CSV_COLUMNS,
    _draw_chunk,
    _each_trial,
    _known,
    _method_rows,
    _result_line,
    _run_chunk,
    _sweep_chunks,
    _write_csv,
    aggregate,
    parse_config,
)
from rsmasec.quadforms import smoothed_objective
from rsmasec.rates import sum_secrecy_se
from rsmasec.solver import gpi_solve_batch


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config")
    parser.add_argument("--repeats", type=int, default=50)
    args = parser.parse_args(argv)
    config = parse_config(args.config)

    _, pieces = _sweep_chunks(config, 1)[0]
    rows = _run_chunk(config, pieces)
    parts, truth, ridge = _draw_chunk(config, pieces)
    system = parts[0][0]
    knowledge, quadforms = _known(config.csit_mode, truth, system, ridge)
    noise = {"noise_user_ratio": ridge, "noise_eve_ratio": _each_trial(parts, "noise_eve_ratio")}
    heads = [(r.trial_index, r.seed, r.axis_value, r.snr_db, r.n_antennas, r.n_users, r.n_secret,
              r.n_normal, r.n_eves, r.kappa, r.alpha) for r in rows[::len(config.methods)]]
    calls = {
        "draw": lambda: _draw_chunk(config, pieces),
        "build": lambda: _known(config.csit_mode, truth, system, ridge),
    }
    results = {}
    for method in config.methods:
        rsma = method == "gpi-rsma"
        if method == "rzf-sdma":
            calls[f"{method}_baseline"] = lambda: rzf_precoder(knowledge, system, noise_user_ratio=ridge)
        else:
            calls[f"{method}_baseline"] = lambda rsma=rsma: mrt_init(knowledge, common_stream=rsma)
        precoders = calls[f"{method}_baseline"]()
        if method in ("gpi-rsma", "gpi-sdma"):
            precoders, trace = gpi_solve_batch(quadforms if rsma else quadforms.without_common(),
                                               precoders, system)
            objective = trace.objective.tolist()
        else:
            scored = quadforms.without_common() if method == "rzf-sdma" else quadforms
            calls[f"{method}_objective"] = (
                lambda scored=scored, precoders=precoders: smoothed_objective(scored, precoders, system))
            objective = calls[f"{method}_objective"]().tolist()
        results[method] = (precoders, objective, sum_secrecy_se(truth, precoders, system, **noise))
    # each method's rows of the chunk, for their iterations and flags
    mine = {method: rows[j::len(config.methods)] for j, method in enumerate(config.methods)}

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chunk.csv")
        calls.update({
            "scoring": lambda: [sum_secrecy_se(truth, precoders, system, **noise)
                                for precoders, _, _ in results.values()],
            "rows": lambda: [
                _method_rows(method, heads, [r.iterations for r in mine[method]],
                             [r.converged for r in mine[method]], objective, report, 0.0)
                for method, (_, objective, report) in results.items()],
            "csv_write": lambda: _write_csv(path, CSV_COLUMNS, map(_result_line, rows)),
            "aggregate": lambda: aggregate(rows),
        })
        ms: dict[str, list[float]] = {name: [] for name in calls}
        for _ in range(args.repeats):
            for name, call in calls.items():
                t0 = time.perf_counter()
                call()
                ms[name].append(1e3 * (time.perf_counter() - t0))
    print(json.dumps({
        "trials": len(ridge),
        "repeats": args.repeats,
        **{f"{name}_ms": {"min": round(min(v), 4), "median": round(statistics.median(v), 4)}
           for name, v in ms.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
