#!/usr/bin/env python3
"""Paired optimality gap of a sweep's GPI solves: stopping tolerance and start.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/optimality_gap.py CONFIG

Draws every trial of the config's sweep in the harness's chunks and, per
configured GPI method and scenario, scores three solves on the true
channels with ``sum_secrecy_se``:

- ``config``: the sweep's own solve, from the MRT start at the config's
  epsilon and t_max;
- ``reference``: the MRT start at epsilon 1e-4 and t_max 500;
- ``best_start``: of the MRT start and ``STARTS`` random starts (drawn
  from the config's master seed), each solved at the reference tolerance,
  the one whose smoothed objective is highest (the transmitter knows the
  objective; the true SE does not pick).

Prints, per axis value and method, the mean and standard error of the
paired SE gains reference - config (what stopping at the config's epsilon
leaves unclaimed) and best_start - reference (what a better start adds),
each with the number of scenarios where the gain is positive, and the
median iterations of the config and reference solves; then one JSON line
with the same per method over all scenarios.  A scenario where any of its
solves failed is left out of the gains and counted as failed.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from rsmasec.harness import (GPI_METHODS, _draw_chunk, _known, _method_start, _sweep_chunks,
                             parse_config)
from rsmasec.rates import sum_secrecy_se
from rsmasec.solver import gpi_solve_batch

REFERENCE = {"epsilon": 1e-4, "t_max": 500}
STARTS = 16      # random starts per scenario


def _solve(quadforms, starts, system, truth, noise):
    """(objective, true SE, iterations) per trial of one batched solve;
    NaN objective and SE, and 0 iterations, where a trial failed.  ``noise``
    holds each trial's ``sum_secrecy_se`` noise keywords."""
    precoders, trace = gpi_solve_batch(quadforms, starts, system)
    se = sum_secrecy_se(truth, precoders, system, **noise).sum_secrecy_se
    return trace.objective, se, trace.iterations_used


def _summary(rows: list[dict]) -> dict:
    """Mean, standard error and wins of both gains over scenarios whose
    three solves all finished, with the median iterations."""
    ok = [r for r in rows if all(math.isfinite(r[k]) for k in ("config", "reference", "best_start"))]
    out = {"scenarios": len(rows), "failed": len(rows) - len(ok)}
    for name, hi, lo in (("reference_gain", "reference", "config"),
                         ("start_gain", "best_start", "reference")):
        gain = np.array([r[hi] - r[lo] for r in ok])
        stderr = float(gain.std(ddof=1) / math.sqrt(len(gain))) if len(gain) > 1 else math.nan
        out[name] = {"mean": float(gain.mean()) if len(gain) else math.nan,
                     "stderr": stderr, "wins": int((gain > 0).sum()), "of": len(gain)}
    for kind in ("config", "reference"):
        out[f"median_iterations_{kind}"] = float(np.median([r[f"iterations_{kind}"] for r in rows]))
    return out


def _line(label: str, s: dict) -> str:
    ref, start = s["reference_gain"], s["start_gain"]
    return (f"{label}: reference - config {ref['mean']:+.4f} ± {ref['stderr']:.4f} "
            f"(positive {ref['wins']}/{ref['of']}); best start - reference "
            f"{start['mean']:+.4f} ± {start['stderr']:.4f} (positive {start['wins']}/{start['of']}); "
            f"median iterations {s['median_iterations_config']:g} / {s['median_iterations_reference']:g}"
            + (f"; {s['failed']} failed" if s["failed"] else ""))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config")
    args = parser.parse_args(argv)
    config = parse_config(args.config)
    methods = [m for m in config.methods if m in GPI_METHODS]
    if not methods:
        parser.error("the config runs no GPI method")
    rng = np.random.default_rng(config.master_seed)

    rows: list[dict] = []
    for _, pieces in _sweep_chunks(config, 1):
        system, truth, ridge, noise_eve, heads = _draw_chunk(config, pieces)
        reference = replace(system, **REFERENCE)
        knowledge, quadforms = _known(config.csit_mode, truth, system, ridge)
        noise = {"noise_user_ratio": ridge, "noise_eve_ratio": noise_eve}
        for method in methods:
            chunk, mrt = _method_start(method, knowledge, quadforms, system, ridge)
            _, se_config, it_config = _solve(chunk, mrt, system, truth, noise)
            best_obj, se_ref, it_ref = _solve(chunk, mrt, reference, truth, noise)
            se_best = se_ref.copy()
            for _ in range(STARTS):
                starts = rng.standard_normal((len(ridge), *chunk.shape, 2)) @ [1.0, 1j]
                if not chunk.has_common:
                    starts[:, 0] = 0.0
                obj, se, _ = _solve(chunk, starts, reference, truth, noise)
                better = obj > np.where(np.isnan(best_obj), -np.inf, best_obj)
                best_obj = np.where(better, obj, best_obj)
                se_best = np.where(better, se, se_best)
            rows += [{"axis": value, "method": method,
                      "config": se_config[i], "reference": se_ref[i], "best_start": se_best[i],
                      "iterations_config": int(it_config[i]), "iterations_reference": int(it_ref[i])}
                     for i, value in enumerate(heads["axis_value"])]

    for value in dict.fromkeys(r["axis"] for r in rows):
        for method in methods:
            group = [r for r in rows if r["axis"] == value and r["method"] == method]
            label = method if value is None else f"{config.sweep_axis}={value:g} {method}"
            print(_line(label, _summary(group)))
    print(json.dumps({
        "config": args.config, "epsilon": config.system.epsilon, "t_max": config.system.t_max,
        "reference": REFERENCE, "starts": STARTS,
        "methods": {m: _summary([r for r in rows if r["method"] == m]) for m in methods},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
