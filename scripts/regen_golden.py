#!/usr/bin/env python3
"""Rewrite the golden row references that ``tests/test_golden.py`` checks.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/regen_golden.py

Sweeps every case in-process, as the test does, and writes
``tests/golden/<case>.csv``.  A change that runs this moves rows on purpose;
``git diff tests/golden`` then shows which.  Prints each case's row count.
"""
from __future__ import annotations

import importlib.util
import pathlib
import sys

TEST = pathlib.Path(__file__).resolve().parent.parent / "tests" / "test_golden.py"
_spec = importlib.util.spec_from_file_location("test_golden", TEST)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def main() -> int:
    golden.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in golden.CASES:
        lines = golden.reference_lines(name)
        (golden.GOLDEN_DIR / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"{name}: {len(lines) - 1} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
