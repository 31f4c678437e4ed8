import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "compare_sweeps.py"
_spec = importlib.util.spec_from_file_location("compare_sweeps", SCRIPT)
compare_sweeps = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_sweeps)

HEADER = "method,trial,axis,iterations,converged,objective,sum_secrecy_se,runtime_ms"
ROWS = [
    "gpi-rsma,0,0,7,true,1.25,1.80623285922,7.8",
    "mrt,0,0,0,true,0.5,0.75,0.1",
    "gpi-rsma,1,0,12,false,1.5,nan,9.1",
]
AGG = ["axis,method,mean_secrecy_se,stderr,n_trials", "0,gpi-rsma,1.8,0,2", "0,mrt,0.75,0,1"]


def write_sweep(directory: pathlib.Path, rows: list[str], agg: list[str]) -> str:
    directory.mkdir()
    (directory / "rows.csv").write_text("\n".join([HEADER, *rows]) + "\n")
    (directory / "rows.agg.csv").write_text("\n".join(agg) + "\n")
    return str(directory / "rows.csv")


def test_identical_apart_from_runtime(tmp_path, capsys):
    parent = write_sweep(tmp_path / "p", ROWS, AGG)
    change = write_sweep(tmp_path / "c", [r.rsplit(",", 1)[0] + ",99" for r in ROWS], AGG)
    assert compare_sweeps.main([parent, change]) == 0
    out = capsys.readouterr().out
    assert "3 compared, 0 differ" in out
    assert "aggregates: identical" in out


def test_lists_changed_rows_and_aggregates(tmp_path, capsys):
    parent = write_sweep(tmp_path / "p", ROWS, AGG)
    rows = [
        "gpi-rsma,0,0,8,false,1.25,1.80623286922,7.8",   # iterations, flag, SE +1e-8
        "mrt,0,0,0,true,0.5000001,0.75,0.1",             # objective only
        "gpi-rsma,1,0,12,false,1.5,2.0,9.1",             # NaN became a number
    ]
    change = write_sweep(tmp_path / "c", rows, [AGG[0], "0,gpi-rsma,1.9,0,2", AGG[2]])
    assert compare_sweeps.main([parent, change]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "axis=0 trial=0 method=gpi-rsma: iterations 7 -> 8" in out
    assert "axis=0 trial=0 method=gpi-rsma: converged true -> false" in out
    assert any(line.startswith("axis=0 trial=0 method=gpi-rsma: sum_secrecy_se") for line in out)
    assert any(line.startswith("axis=0 trial=1 method=gpi-rsma: sum_secrecy_se nan -> 2.0")
               for line in out)
    assert not any("method=mrt" in line for line in out)
    assert "rows: 3 compared, 3 differ outside runtime_ms" in out
    assert "aggregate line 2: '0,gpi-rsma,1.8,0,2' -> '0,gpi-rsma,1.9,0,2'" in out


@pytest.mark.parametrize("se, listed", [("0.7500000005", False), ("0.750000002", True)])
def test_se_tolerance(tmp_path, capsys, se, listed):
    parent = write_sweep(tmp_path / "p", ROWS, AGG)
    change = write_sweep(tmp_path / "c", [ROWS[0], f"mrt,0,0,0,true,0.5,{se},0.1", ROWS[2]], AGG)
    assert compare_sweeps.main([parent, change]) == 1   # any row difference fails
    out = capsys.readouterr().out
    assert ("method=mrt: sum_secrecy_se" in out) is listed


def test_largest_deltas_over_matched_finite_rows(tmp_path, capsys):
    parent = write_sweep(tmp_path / "p", ROWS, AGG)
    rows = [
        "gpi-rsma,0,0,7,true,1.2500003,1.80623286922,7.8",   # SE +1e-8, objective +3e-7
        "mrt,0,0,0,true,0.49,0.75,0.1",                      # objective -0.01
        "gpi-rsma,1,0,12,false,1.5,2.0,9.1",                 # NaN became a number: no delta
    ]
    change = write_sweep(tmp_path / "c", rows, AGG)
    assert compare_sweeps.main([parent, change]) == 1
    out = capsys.readouterr().out
    assert "largest |delta| over matched rows: sum_secrecy_se 1e-08, objective 0.01" in out
    assert compare_sweeps.main([parent, parent]) == 0
    assert ("largest |delta| over matched rows: sum_secrecy_se 0, objective 0"
            in capsys.readouterr().out)


def test_row_count_and_missing_file(tmp_path, capsys):
    parent = write_sweep(tmp_path / "p", ROWS, AGG)
    change = write_sweep(tmp_path / "c", ROWS[:2], AGG)
    assert compare_sweeps.main([parent, change]) == 1
    assert "row count differs: 3 vs 2" in capsys.readouterr().out
    assert compare_sweeps.main([parent, str(tmp_path / "none.csv")]) == 2


TRACE_HEADER = "snr_db,trial,seed,iteration,step_norm,objective,lam"
TRACE = [
    "0,0,11,0,,1.5,-2.0",
    "0,0,11,1,0.25,1.75,3.0",
    "0,0,11,2,0.001,1.8,4.0",
    "10,0,12,0,,2.5,-1e-13",
    "10,0,12,1,0.5,2.75,5.0",
]


def write_trace(directory: pathlib.Path, rows: list[str]) -> str:
    directory.mkdir()
    path = directory / "converge.csv"
    path.write_text("\n".join([TRACE_HEADER, *rows]) + "\n")
    return str(path)


def test_identical_traces(tmp_path, capsys):
    parent = write_trace(tmp_path / "p", TRACE)
    assert compare_sweeps.main([parent, write_trace(tmp_path / "c", TRACE)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["rows: 5 matched by snr_db, trial, iteration", "step_norm: 0 rows moved",
                   "objective: 0 rows moved", "lam: 0 rows moved"]


def test_trace_deltas_and_iteration_counts(tmp_path, capsys):
    parent = write_trace(tmp_path / "p", TRACE)
    rows = [
        TRACE[0],
        "0,0,11,1,0.2500000001,1.75,3.0000003",   # step_norm 4e-10, lam 1e-7 relative
        TRACE[2],
        "10,0,12,0,,2.5,0.0",                     # lam lost its cancellation residue
        TRACE[4],
        "10,0,12,2,0.01,2.8,6.0",                 # one more iteration
    ]
    assert compare_sweeps.main([parent, write_trace(tmp_path / "c", rows)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "snr_db=10 trial=0: iterations 1 -> 2"
    assert out[1] == "rows: 5 matched by snr_db, trial, iteration"
    assert out[2] == ("step_norm: 1 rows moved; largest relative |delta| 4e-10 at snr_db=0 "
                      "trial=0 iteration=1 (0.25 -> 0.2500000001); median 4e-10")
    assert out[3] == "objective: 0 rows moved"
    assert out[4] == ("lam: 2 rows moved; largest relative |delta| 1 at snr_db=10 trial=0 "
                      "iteration=0 (-1e-13 -> 0.0); median 0.5")


def test_raw_lines_show_line_ends_quoting_and_header_bytes(tmp_path, capsys):
    parent = write_sweep(tmp_path / "p", ROWS, AGG)
    crlf = tmp_path / "crlf"
    crlf.mkdir()
    # the same cells as csv.reader reads them, with csv.writer's line ends
    (crlf / "rows.csv").write_bytes(("\r\n".join([HEADER, *ROWS]) + "\r\n").encode())
    (crlf / "rows.agg.csv").write_text("\n".join(AGG) + "\n")
    assert compare_sweeps.main([parent, str(crlf / "rows.csv")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "rows: 3 compared, 0 differ outside runtime_ms" in out
    assert f"raw line 1 differs outside runtime_ms: {HEADER + chr(10)!r} -> {HEADER + chr(13) + chr(10)!r}" in out

    quoted = write_sweep(tmp_path / "q", [ROWS[0], '"mrt",0,0,0,true,0.5,0.75,0.1', ROWS[2]], AGG)
    assert compare_sweeps.main([parent, quoted]) == 1
    assert ("raw line 3 differs outside runtime_ms: 'mrt,0,0,0,true,0.5,0.75,0.1\\n' -> "
            "'\"mrt\",0,0,0,true,0.5,0.75,0.1\\n'") in capsys.readouterr().out

    # runtime_ms alone may differ; the aggregate's line ends may not
    timed = write_sweep(tmp_path / "t", [r.rsplit(",", 1)[0] + ",99" for r in ROWS], AGG)
    (tmp_path / "t" / "rows.agg.csv").write_text("\r\n".join(AGG) + "\r\n", newline="")
    assert compare_sweeps.main([parent, timed]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "raw lines: identical outside runtime_ms" in out
    assert any(line.startswith("aggregate raw line 1 differs: ") for line in out)
    assert "aggregates: 1 differences" in out

    trace = write_trace(tmp_path / "tp", TRACE)
    (tmp_path / "tc").mkdir()
    (tmp_path / "tc" / "converge.csv").write_text("\r\n".join([TRACE_HEADER, *TRACE]) + "\r\n",
                                                   newline="")
    assert compare_sweeps.main([trace, str(tmp_path / "tc" / "converge.csv")]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("raw line 1 differs: ")
