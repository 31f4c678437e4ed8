#!/usr/bin/env python3
"""Benchmark of rsmasec Monte Carlo sweeps.

Run from the repository root:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0

The seed becomes the master_seed of a generated experiment config; the
program receives only that config.  Every sweep runs in a fresh interpreter
(perfbench/child.py) that calls rsmasec.harness.run_sweep with explicit
workers and BLAS pinned to one thread.

--trace 0 repeats the same sweep until --seconds are used and prints the
end-to-end metrics as medians over the repeats.  --trace 1 runs the sweep
once untraced and once traced at workers=1 and prints the per-layer metrics
and a per-span table.  Both check the outputs: CSV schema, row count and
order, value ranges, and rows (without runtime_ms) identical across every
sweep of the run.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Why each workload exists
is in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH_DIR, "child.py")
OUT_DIR = os.path.join(BENCH_DIR, "out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_DEADLINE_S = 170.0
SETUP_SAMPLES = 5

# The sweep CSV schema the benchmark expects, kept here rather than read from
# the package so that a schema change shows as a failed check.
COLUMNS = [
    "method", "trial", "seed", "axis", "snr_db", "n", "k", "s", "m", "e",
    "kappa", "alpha", "iterations", "converged", "objective",
    "sum_secrecy_se", "common_min", "runtime_ms",
]
AGG_COLUMNS = ["axis", "method", "mean_secrecy_se", "stderr", "n_trials"]

PAPER_DIMS = {"n_antennas": 4, "n_secret": 2, "n_normal": 2, "n_eves": 2}

# Config settings per workload; master_seed is added from --seed.
WORKLOADS = {
    "paper-sweep": {
        **PAPER_DIMS, "csit_mode": "limited", "kappa": 0.4, "trials": 20,
        "methods": ["gpi-rsma", "gpi-sdma", "rzf-sdma", "mrt"],
        "sweep_axis": "snr_db", "sweep_values": [0, 5, 10, 15, 20, 25, 30],
    },
    # epsilon is unreachable, so every solve runs exactly t_max iterations and
    # the work per trial does not depend on the seed.
    "large-limited": {
        "n_antennas": 32, "n_secret": 8, "n_normal": 8, "n_eves": 8,
        "csit_mode": "limited", "kappa": 0.4, "snr_db": 20, "epsilon": 1e-12,
        "t_max": 10, "trials": 12, "methods": ["gpi-rsma", "rzf-sdma", "mrt"],
    },
    # rzf-sdma rides along so that every traced layer has calls here too.
    "tight-perfect": {
        **PAPER_DIMS, "csit_mode": "perfect", "epsilon": 1e-4, "t_max": 500,
        "trials": 35, "methods": ["gpi-rsma", "gpi-sdma", "rzf-sdma"],
        "sweep_axis": "snr_db", "sweep_values": [0, 10, 20, 30],
    },
}
# Workloads whose run also sweeps once on a process pool, unmeasured, and
# requires the same rows as at workers=1.
POOL_CHECKED = ("paper-sweep",)


class BenchError(Exception):
    """A sweep process failed or the run could not be completed."""


def config_text(settings: dict, seed: int) -> str:
    lines = []
    for key, value in {**settings, "master_seed": seed}.items():
        if isinstance(value, list):
            value = ", ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def child_env(root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(args: list[str], env: dict, deadline: float) -> dict:
    """Start child.py in its own process group, wait for it, parse its line."""
    cmd = [sys.executable, CHILD, *args[:3], repr(time.time()), *args[3:]]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("sweep process ran past the run deadline")
    if proc.returncode != 0:
        raise BenchError(f"sweep process exited with {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def read_csv(path: str) -> list[list[str]]:
    if not os.path.isfile(path):
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_sweep(csv_path: str, settings: dict) -> tuple[list[dict], str, list[str]]:
    """Rows, a digest of the outputs without runtime_ms, and the problems found."""
    values = settings.get("sweep_values", [None])
    methods, trials = settings["methods"], settings["trials"]
    errors: list[str] = []
    table = read_csv(csv_path)
    agg = read_csv(csv_path[: -len(".csv")] + ".agg.csv")
    if not table or table[0] != COLUMNS:
        return [], "", [f"CSV header {table[:1]} is not {COLUMNS}"]
    rows = [dict(zip(COLUMNS, r)) for r in table[1:]]

    expected = [(v, t, m) for v in values for t in range(trials) for m in methods]
    if len(rows) != len(expected):
        errors.append(f"{len(rows)} rows, expected {len(expected)} (trials x methods)")
    try:
        for r, (v, t, m) in zip(rows, expected):
            if r["method"] != m or int(r["trial"]) != t or (v is not None and float(r["axis"]) != v):
                errors.append(f"row {r['method']} trial {r['trial']} axis {r['axis']} out of order")
                break
        for r in rows:
            its = int(r["iterations"])
            if r["converged"] not in ("true", "false"):
                errors.append(f"converged is {r['converged']!r}")
            if not 0 <= its <= settings.get("t_max", 100):
                errors.append(f"iterations {its} outside [0, t_max]")
            if not r["method"].startswith("gpi") and its != 0:
                errors.append(f"{r['method']} row reports {its} iterations")
            se = float(r["sum_secrecy_se"])
            if math.isfinite(se) and se < 0:
                errors.append(f"negative sum_secrecy_se {se}")
    except (ValueError, KeyError) as exc:
        errors.append(f"malformed row: {exc}")

    if not agg or agg[0] != AGG_COLUMNS:
        errors.append(f"aggregate header {agg[:1]} is not {AGG_COLUMNS}")
    elif len(agg) - 1 != len(values) * len(methods) or any(r[4] != str(trials) for r in agg[1:]):
        errors.append("aggregate rows do not match the sweep shape")

    digest = hashlib.sha256()
    drop = COLUMNS.index("runtime_ms")
    for r in table + [["agg"]] + agg:
        digest.update(",".join(r[:drop] + r[drop + 1:] if len(r) == len(COLUMNS) else r).encode())
        digest.update(b"\n")
    return rows, digest.hexdigest(), errors


def failed_rows(rows: list[dict]) -> int:
    """Rows whose sum_secrecy_se is not finite (NumericError rows)."""
    count = 0
    for r in rows:
        try:
            count += not math.isfinite(float(r["sum_secrecy_se"]))
        except ValueError:
            count += 1
    return count


def n_trials(settings: dict) -> int:
    return len(settings.get("sweep_values", [None])) * settings["trials"]


def git_commit(root: str) -> str | None:
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def run(workload: str, settings: dict, seed: int, seconds: float, trace: bool,
        root: str, work: str) -> tuple[dict, dict, list[str]]:
    """One benchmark run.  Returns (result, meta, per-span table lines)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = child_env(root)
    nproc = len(os.sched_getaffinity(0))
    cfg = os.path.join(work, "workload.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(config_text(settings, seed))

    sweeps: list[tuple[dict, list[dict], str]] = []
    errors: list[str] = []

    def sweep(workers: int, spans: str | None = None) -> dict:
        out_csv = os.path.join(work, f"sweep{len(sweeps)}.csv")
        args = [cfg, out_csv, str(workers)] + (["--spans", spans] if spans else [])
        child = run_child(args, env, deadline)
        rows, digest, problems = check_sweep(out_csv, settings)
        errors.extend(problems)
        sweeps.append((child, rows, digest))
        return child

    table: list[str] = []
    if trace:
        untraced = sweep(1)
        spans_path = os.path.join(OUT_DIR, f"{workload}-seed{seed}.spans.npz")
        traced = sweep(1, spans_path)
        if not traced["restored"]:
            errors.append("traced run left rsmasec attributes rebound")
        from spans import layer_metrics
        rows = sweeps[0][1]
        metrics, table = layer_metrics(spans_path, rows, traced["wall_s"])
        gpi = [r for r in rows if r["method"].startswith("gpi")]
        extra = {
            "harness.busy_frac": (sum(float(r["runtime_ms"]) for r in rows) / 1e3 / untraced["wall_s"], "fraction"),
            "trace.overhead_frac": (traced["wall_s"] / untraced["wall_s"] - 1.0, "fraction"),
            "failed_frac": (failed_rows(rows) / max(len(rows), 1), "fraction"),
            "nonconverged_frac": (sum(r["converged"] == "false" for r in gpi) / max(len(gpi), 1), "fraction"),
        }
        metrics.update({k: {"value": float(v), "unit": u} for k, (v, u) in extra.items()})
        measured = sweeps[:1]
        missing = traced["missing"]
    else:
        # Start another sweep while at least half of one still fits in --seconds.
        start = time.monotonic()
        while True:
            sweep(1)
            elapsed = time.monotonic() - start
            if elapsed + 0.5 * elapsed / len(sweeps) > seconds:
                break
        measured = list(sweeps)
        setup = [c["setup_s"] for c, _, _ in measured]
        while len(setup) < SETUP_SAMPLES:
            setup.append(run_child([cfg, os.path.join(work, "none.csv"), "1", "--setup-only"],
                                   env, deadline)["setup_s"])
        if workload in POOL_CHECKED:
            sweep(max(2, nproc))
        rows = measured[0][1]
        # A failed solve delivers no secrecy, so it counts as 0.
        se = [float(r["sum_secrecy_se"]) for r in rows if r["method"] == "gpi-rsma"]
        se = [v if math.isfinite(v) else 0.0 for v in se]
        metrics = {
            "trials_per_s": (statistics.median(n_trials(settings) / c["wall_s"] for c, _, _ in measured), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(c["rss_kib"] / 1024 for c, _, _ in measured), "MiB"),
            "mean_se_gpi_rsma": (statistics.fmean(se) if se else 0.0, "bit/s/Hz"),
        }
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
        missing = []

    if len({d for _, _, d in sweeps}) > 1:
        errors.append("rows differ between sweeps of the same inputs")
    attempted = sum(len(rows) for _, rows, _ in measured)
    failed = sum(failed_rows(rows) for _, rows, _ in measured)
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    meta = {
        "workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
        "sweeps": len(sweeps), "measured_sweeps": len(measured),
        "sweep_wall_s": [c["wall_s"] for c, _, _ in sweeps],
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "nproc": nproc, "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "commit": git_commit(root), "errors": errors[:20], "missing_bindings": missing,
        "config": config_text(settings, seed),
    }
    return result, meta, table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rsmasec", "harness.py")):
        print("perfbench: src/rsmasec not found; run from the repository root", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        result, meta, table = run(args.workload, WORKLOADS[args.workload], args.seed,
                                  args.seconds, bool(args.trace), root, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result, "spans": table}, fh, indent=1)
    print(json.dumps({"meta": meta}))
    for key, m in result["metrics"].items():
        print(f"  {key:<38} {m['value']:>14.6g} {m['unit']}")
    for line in table:
        print("  " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
