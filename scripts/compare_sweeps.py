#!/usr/bin/env python3
"""Compare two sweep outputs row by row, e.g. before and after a change.

    python scripts/compare_sweeps.py PARENT.csv CHANGE.csv

Sweep CSVs: rows are matched in file order and named by (axis, trial,
method).  Lists every row whose ``iterations`` or ``converged`` changed and
every row whose ``sum_secrecy_se`` moved by more than 1e-9, counts rows that
differ in any other column (``runtime_ms`` is ignored), prints the largest
|delta ``sum_secrecy_se``| and |delta ``objective``| over the matched rows
where both values are finite, and diffs the ``.agg.csv`` files next to the
two CSVs.

``rsmasec converge`` CSVs (they have an ``iteration`` column): rows are
keyed by (snr_db, trial, iteration).  Lists every (snr_db, trial) whose
iteration count changed and, for each of ``step_norm``, ``objective`` and
``lam``, how many matched rows moved, the largest relative |delta| (and its
row) and the median relative |delta| of the rows that moved.

Both kinds are also compared line by line as raw text, line ends included,
which the parsed rows cannot show (line ends, quoting, header bytes): the
first line that differs outside ``runtime_ms`` is printed, and for a sweep
the first differing raw line of the ``.agg.csv`` too.

Exits 0 when the outputs are identical (sweep rows without ``runtime_ms``),
1 on any difference, 2 when a file cannot be read.
"""
from __future__ import annotations

import argparse
import csv
import math
import statistics
import sys

from rsmasec.harness import aggregate_path

SE_TOL = 1e-9
IGNORED = ("runtime_ms",)
DELTA_COLUMNS = ("sum_secrecy_se", "objective")
TRACE_KEY = ("snr_db", "trial", "iteration")
TRACE_COLUMNS = ("step_norm", "objective", "lam")


def read_rows(path: str) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def read_raw(path: str) -> list[str]:
    """The file's lines as written, each with its line end."""
    with open(path, newline="", encoding="utf-8") as fh:
        return fh.read().splitlines(keepends=True)


def first_raw_difference(parent: list[str], change: list[str], ignored=()) -> str | None:
    """A report line for the first raw line that differs outside the
    ``ignored`` columns (their cells, found by the parent's header, are
    dropped before comparing; the line ends are kept), or for differing
    line counts; None when the lines agree."""
    header = parent[0].rstrip("\r\n").split(",") if parent else []
    skip = {header.index(col) for col in ignored if col in header}

    def kept(line: str) -> tuple[list[str], str]:
        body = line.rstrip("\r\n")
        return [c for i, c in enumerate(body.split(",")) if i not in skip], line[len(body):]

    outside = f" outside {', '.join(ignored)}" if ignored else ""
    for i, (a, b) in enumerate(zip(parent, change)):
        if a != b and kept(a) != kept(b):
            return f"raw line {i + 1} differs{outside}: {a!r} -> {b!r}"
    if len(parent) != len(change):
        return f"raw line count differs: {len(parent)} vs {len(change)}"
    return None


def _se_moved(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) != math.isnan(y)
    return abs(x - y) > SE_TOL


def compare_rows(parent: list[dict], change: list[dict]) -> tuple[list[str], int]:
    """Report lines for the notable row changes, and the count of rows that
    differ in any compared column."""
    report, differing = [], 0
    for p, c in zip(parent, change):
        name = f"axis={p['axis']} trial={p['trial']} method={p['method']}"
        if (p["axis"], p["trial"], p["method"]) != (c["axis"], c["trial"], c["method"]):
            report.append(f"row order differs: {name} vs "
                          f"axis={c['axis']} trial={c['trial']} method={c['method']}")
            differing += 1
            continue
        if any(p[k] != c[k] for k in p if k not in IGNORED):
            differing += 1
        for col in ("iterations", "converged"):
            if p[col] != c[col]:
                report.append(f"{name}: {col} {p[col]} -> {c[col]}")
        if _se_moved(p["sum_secrecy_se"], c["sum_secrecy_se"]):
            delta = float(c["sum_secrecy_se"]) - float(p["sum_secrecy_se"])
            report.append(f"{name}: sum_secrecy_se {p['sum_secrecy_se']} -> "
                          f"{c['sum_secrecy_se']} ({delta:+.3g})")
    return report, differing


def largest_deltas(parent: list[dict], change: list[dict]) -> dict[str, float]:
    """Largest |change - parent| of each of DELTA_COLUMNS over the rows
    matched by (axis, trial, method) whose two values are finite; 0 when
    there are none."""
    out = dict.fromkeys(DELTA_COLUMNS, 0.0)
    for p, c in zip(parent, change):
        if (p["axis"], p["trial"], p["method"]) != (c["axis"], c["trial"], c["method"]):
            continue
        for col in DELTA_COLUMNS:
            delta = abs(float(c[col]) - float(p[col]))
            if math.isfinite(delta):
                out[col] = max(out[col], delta)
    return out


def _relative(a: str, b: str) -> float:
    """|b - a| / max(|a|, |b|) of two cells; infinite when just one is empty
    or NaN."""
    x, y = (float(v) if v else math.nan for v in (a, b))
    if math.isnan(x) or math.isnan(y):
        return 0.0 if math.isnan(x) and math.isnan(y) else math.inf
    scale = max(abs(x), abs(y))
    return abs(y - x) / scale if scale else 0.0


def compare_traces(parent: list[dict], change: list[dict]) -> tuple[list[str], bool]:
    """Report lines for two ``converge`` outputs, and whether they are identical."""
    keyed = [{tuple(r[k] for k in TRACE_KEY): r for r in rows} for rows in (parent, change)]
    counts = [{}, {}]
    for count, rows in zip(counts, keyed):
        for snr, trial, it in rows:
            count[snr, trial] = max(count.get((snr, trial), 0), int(it))
    report = [
        f"snr_db={snr} trial={trial}: iterations {counts[0].get((snr, trial))} -> "
        f"{counts[1].get((snr, trial))}"
        for snr, trial in sorted(counts[0].keys() | counts[1].keys(),
                                 key=lambda st: (float(st[0]), int(st[1])))
        if counts[0].get((snr, trial)) != counts[1].get((snr, trial))
    ]
    same = not report and len(parent) == len(change)
    matched = keyed[0].keys() & keyed[1].keys()
    report.append(f"rows: {len(matched)} matched by {', '.join(TRACE_KEY)}")
    for col in TRACE_COLUMNS:
        moved = sorted((_relative(keyed[0][key][col], keyed[1][key][col]), key)
                       for key in matched if keyed[0][key][col] != keyed[1][key][col])
        same = same and not moved
        line = f"{col}: {len(moved)} rows moved"
        if moved:
            rel, key = moved[-1]
            line += (f"; largest relative |delta| {rel:.3g} at "
                     + " ".join(f"{k}={v}" for k, v in zip(TRACE_KEY, key))
                     + f" ({keyed[0][key][col]} -> {keyed[1][key][col]})"
                     + f"; median {statistics.median(r for r, _ in moved):.3g}")
        report.append(line)
    return report, same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="row CSV from the reference run")
    parser.add_argument("change", help="row CSV from the run under test")
    args = parser.parse_args(argv)
    try:
        p_cols, p_rows = read_rows(args.parent)
        c_cols, c_rows = read_rows(args.change)
        if p_cols != c_cols:
            print(f"columns differ: {p_cols} vs {c_cols}")
            return 1
        if "iteration" in p_cols:
            report, same = compare_traces(p_rows, c_rows)
            raw = first_raw_difference(read_raw(args.parent), read_raw(args.change))
            print("\n".join(report + [raw] * (raw is not None)))
            return 0 if same and raw is None else 1
        raw = first_raw_difference(read_raw(args.parent), read_raw(args.change), IGNORED)
        p_agg = read_lines(aggregate_path(args.parent))
        c_agg = read_lines(aggregate_path(args.change))
        agg_raw = first_raw_difference(read_raw(aggregate_path(args.parent)),
                                       read_raw(aggregate_path(args.change)))
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2

    report, differing = compare_rows(p_rows, c_rows)
    if len(p_rows) != len(c_rows):
        report.append(f"row count differs: {len(p_rows)} vs {len(c_rows)}")
    for line in report:
        print(line)
    print(f"rows: {min(len(p_rows), len(c_rows))} compared, {differing} differ "
          f"outside {', '.join(IGNORED)}")
    deltas = largest_deltas(p_rows, c_rows)
    print("largest |delta| over matched rows: "
          + ", ".join(f"{col} {value:.3g}" for col, value in deltas.items()))
    print(raw or f"raw lines: identical outside {', '.join(IGNORED)}")
    rows_same = differing == 0 and len(p_rows) == len(c_rows) and raw is None

    agg_diff = [
        f"aggregate line {i + 1}: {a!r} -> {b!r}"
        for i, (a, b) in enumerate(zip(p_agg, c_agg)) if a != b
    ]
    if len(p_agg) != len(c_agg):
        agg_diff.append(f"aggregate line count differs: {len(p_agg)} vs {len(c_agg)}")
    if agg_raw is not None and not agg_diff:   # equal lines, other bytes
        agg_diff.append(f"aggregate {agg_raw}")
    for line in agg_diff:
        print(line)
    print(f"aggregates: {'identical' if not agg_diff else f'{len(agg_diff)} differences'}")
    return 0 if rows_same and not agg_diff else 1


if __name__ == "__main__":
    sys.exit(main())
