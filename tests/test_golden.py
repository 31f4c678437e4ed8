"""Golden rows: every bundled config, and three benchmark settings at seed 1
with fewer trials, swept in-process and compared with the references under
``tests/golden/``.

A row's method, trial and axis cell, its iterations and its converged flag
must match exactly; its objective, ``sum_secrecy_se`` and ``common_min``
within an absolute ``TOLERANCE`` (NaN matches NaN).  The tolerance passes
last-digit moves (3.4e-9 is the largest a reordered sum has made) and fails
any move of 1e-6, while leaving room for other BLAS builds, which bit
equality would not.  ``scripts/regen_golden.py`` rewrites the references.
"""
import functools
import importlib.util
import pathlib

import numpy as np
import pytest

import rsmasec as rs
from rsmasec import harness

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
TOLERANCE = 1e-7
COLUMNS = ["method", "trial", "axis", "iterations", "converged", "objective",
           "sum_secrecy_se", "common_min"]
REALS = COLUMNS[5:]

_PAPER_DIMS = "n_antennas = 4\nn_secret = 2\nn_normal = 2\nn_eves = 2\n"
# The benchmark's workloads at master seed 1, with fewer trials: the only
# settings here with perfect CSIT, a tight tolerance, or N = 32.
BENCH_SETTINGS = {
    "paper-sweep": _PAPER_DIMS + (
        "csit_mode = limited\nkappa = 0.4\ntrials = 5\n"
        "methods = gpi-rsma, gpi-sdma, rzf-sdma, mrt\n"
        "sweep_axis = snr_db\nsweep_values = 0, 5, 10, 15, 20, 25, 30\nmaster_seed = 1\n"),
    "large-limited": (
        "n_antennas = 32\nn_secret = 8\nn_normal = 8\nn_eves = 8\n"
        "csit_mode = limited\nkappa = 0.4\nsnr_db = 20\nepsilon = 1e-12\nt_max = 10\n"
        "trials = 3\nmethods = gpi-rsma, rzf-sdma, mrt\nmaster_seed = 1\n"),
    "tight-perfect": _PAPER_DIMS + (
        "csit_mode = perfect\nepsilon = 1e-4\nt_max = 500\ntrials = 5\n"
        "methods = gpi-rsma, gpi-sdma, rzf-sdma\n"
        "sweep_axis = snr_db\nsweep_values = 0, 10, 20, 30\nmaster_seed = 1\n"),
}
CASES = sorted(p.stem for p in (ROOT / "configs").glob("*.cfg")) + sorted(BENCH_SETTINGS)


def case_config(name: str) -> rs.ExperimentConfig:
    if name in BENCH_SETTINGS:
        return rs.parse_config_text(BENCH_SETTINGS[name])
    return rs.parse_config(str(ROOT / "configs" / f"{name}.cfg"))


@functools.cache
def reference_lines(name: str) -> list[str]:
    """The case's sweep rows in reference form, one line each, header first."""
    rows = harness._sweep_rows(case_config(name), workers=1)
    return [",".join(COLUMNS)] + [
        f"{r.method},{r.trial_index},{harness._axis_cell(r.axis_value)},{r.iterations},"
        f"{'true' if r.converged else 'false'},{r.smoothed_objective:.12g},"
        f"{r.sum_secrecy_se:.12g},{r.common_min:.12g}"
        for r in rows]


def _table(lines: list[str]) -> tuple[list[tuple], np.ndarray]:
    """The exact cells and the real columns of reference lines."""
    cells = [line.split(",") for line in lines[1:]]
    exact = [tuple(c[:5]) for c in cells]
    return exact, np.array([[float(x) for x in c[5:]] for c in cells]).reshape(-1, len(REALS))


def moved_rows(got_lines: list[str], want_lines: list[str]) -> list[str]:
    """Each difference of ``got_lines`` from ``want_lines`` beyond the gate's
    rules, described; empty when they match."""
    if got_lines[0] != want_lines[0] or len(got_lines) != len(want_lines):
        return [f"header or row count: {got_lines[0]!r} x {len(got_lines) - 1} "
                f"against {want_lines[0]!r} x {len(want_lines) - 1}"]
    got, got_reals = _table(got_lines)
    want, want_reals = _table(want_lines)
    moved = [f"row {i}: {w} -> {g}" for i, (g, w) in enumerate(zip(got, want)) if g != w]
    close = np.isclose(got_reals, want_reals, rtol=0.0, atol=TOLERANCE, equal_nan=True)
    return moved + [f"row {i} {got[i][:3]} {REALS[j]}: {want_reals[i, j]!r} -> {got_reals[i, j]!r}"
                    for i, j in zip(*np.nonzero(~close))]


@pytest.mark.parametrize("name", CASES)
def test_rows_match_the_golden_reference(name):
    want_lines = (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8").splitlines()
    moved = moved_rows(reference_lines(name), want_lines)
    assert not moved, f"{len(moved)} differences:\n" + "\n".join(moved[:10])


def test_the_gate_passes_last_digit_moves_and_fails_the_rest():
    want = [",".join(COLUMNS), "gpi-rsma,0,20,7,true,1.25,nan,-0.5"]
    assert moved_rows(want, want) == []
    assert moved_rows([want[0], "gpi-rsma,0,20,7,true,1.2500000034,nan,-0.5000000034"], want) == []
    for line in ("gpi-rsma,0,20,7,true,1.250001,nan,-0.5",    # a 1e-6 move
                 "gpi-rsma,0,20,7,true,1.25,0,-0.5",          # NaN against a number
                 "gpi-rsma,0,20,8,true,1.25,nan,-0.5",        # one more iteration
                 "gpi-rsma,0,20,7,false,1.25,nan,-0.5",
                 "gpi-sdma,0,20,7,true,1.25,nan,-0.5"):
        assert len(moved_rows([want[0], line], want)) == 1, line
    assert moved_rows(want[:1], want)


def test_regen_golden_writes_every_reference(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("regen_golden", ROOT / "scripts" / "regen_golden.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    # this module's cached sweeps, so the script costs no second sweep
    monkeypatch.setattr(regen.golden, "reference_lines", reference_lines)
    monkeypatch.setattr(regen.golden, "GOLDEN_DIR", tmp_path)
    assert regen.main() == 0
    for name in CASES:
        assert (tmp_path / f"{name}.csv").read_text(encoding="utf-8") == "\n".join(reference_lines(name)) + "\n"
    assert capsys.readouterr().out == "".join(f"{name}: {len(reference_lines(name)) - 1} rows\n"
                                              for name in CASES)
