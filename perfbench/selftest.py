#!/usr/bin/env python3
"""Fast self-test of the benchmark on shrunken inputs (about half a minute).

    python3 perfbench/selftest.py        # from the repository root

Checks, on every workload shrunk to a few trials:
  - each run passes its output checks, and prints every metric that
    BENCHMARK.json names, with the unit it names;
  - the traced run restores every rsmasec attribute it rebound, and count
    metrics repeat exactly between two traced runs;
  - without the package next to it, the benchmark exits non-zero and prints
    no result.
Exits 0 when all pass, 1 otherwise.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run as bench
import spans

SHRINK = {
    "paper-sweep": {"trials": 2, "sweep_values": [0, 30]},
    "large-limited": {"n_antennas": 8, "n_secret": 2, "n_normal": 2, "n_eves": 2, "trials": 1},
    "tight-perfect": {"trials": 1, "sweep_values": [0, 30]},
}


def check_rebinding(failures: list[str]) -> None:
    """Every binding is replaced while installed and is the original after restore."""
    before = {}
    for path, attr, _ in spans.BINDINGS:
        owner = spans.binding_owner(path)
        before[path, attr] = vars(owner)[attr]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (path, attr), original in before.items():
            if vars(spans.binding_owner(path))[attr] is original:
                failures.append(f"{path}.{attr} was not rebound")
    finally:
        tracer.restore()
    for (path, attr), original in before.items():
        if vars(spans.binding_owner(path))[attr] is not original:
            failures.append(f"{path}.{attr} not restored")
    if tracer.missing:
        print(f"note: bindings not present in this version: {tracer.missing}")


def check_runs(spec: dict, root: str, work: str, failures: list[str]) -> None:
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for name in sorted(bench.WORKLOADS):
        settings = {**bench.WORKLOADS[name], **SHRINK[name]}
        counts = []
        for trace in (0, 1, 1):
            result, meta, _ = bench.run(name, settings, 3, 0.0, bool(trace), root, work)
            tag = f"{name} trace={trace}"
            if not result["correct"]:
                failures.append(f"{tag}: output checks failed: {meta['errors']}")
            got = result["metrics"]
            for m in wanted[trace]:
                if m["name"] not in got:
                    failures.append(f"{tag}: metric {m['name']} not printed")
                elif got[m["name"]]["unit"] != m["unit"]:
                    failures.append(f"{tag}: {m['name']} unit {got[m['name']]['unit']} != {m['unit']}")
            extra = set(got) - {m["name"] for m in wanted[trace]}
            if extra:
                failures.append(f"{tag}: metrics not in BENCHMARK.json: {sorted(extra)}")
            if trace:
                counts.append({k: v["value"] for k, v in got.items()
                               if v["unit"] == "count" and "iterations" not in k})
        if counts[0] != counts[1]:
            failures.append(f"{name}: count metrics differ between traced runs: {counts}")
        print(f"ok {name}: {counts[0]}")


def check_without_package(root: str, work: str, failures: list[str]) -> None:
    bare = os.path.join(work, "bare")
    shutil.copytree(bench.BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append("benchmark ran without the package next to it")


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(bench.OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=bench.OUT_DIR)
    failures: list[str] = []
    try:
        check_rebinding(failures)
        check_runs(spec, root, work, failures)
        check_without_package(root, work, failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
