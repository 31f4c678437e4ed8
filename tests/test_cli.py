import csv
from dataclasses import replace

import pytest

import rsmasec.cli as cli
from rsmasec import harness
from rsmasec.harness import CSV_COLUMNS
from rsmasec.validate import CheckResult


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "n_antennas = 4\nn_secret = 2\nn_normal = 2\nn_eves = 2\n"
        "methods = mrt\ntrials = 2\n"
    )
    return str(path)


def test_single_prints_rows(config_file, capsys):
    code = cli.main(["single", "--config", config_file, "--seed", "5"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == ",".join(CSV_COLUMNS)
    assert out[1].startswith("mrt,0,")


def test_single_seed_changes_rows(config_file, capsys):
    cli.main(["single", "--config", config_file, "--seed", "5"])
    first = capsys.readouterr().out
    cli.main(["single", "--config", config_file, "--seed", "6"])
    second = capsys.readouterr().out
    assert first != second


def test_sweep_writes_both_files(config_file, tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    code = cli.main(["sweep", "--config", config_file, "--out", out, "--workers", "1"])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    with open(str(tmp_path / "rows.agg.csv"), newline="") as fh:
        assert len(list(csv.reader(fh))) == 2


def test_converge_writes_trace(config_file, tmp_path):
    out = str(tmp_path / "trace.csv")
    code = cli.main(["converge", "--config", config_file, "--snr", "0,20", "--out", out])
    assert code == 0
    with open(out, newline="") as fh:
        header = next(csv.reader(fh))
    assert header[0] == "snr_db"


def test_missing_config_is_io_error(tmp_path, capsys):
    code = cli.main(["sweep", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "io error" in capsys.readouterr().err


def test_bad_config_key_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("warp_factor = 9\n")
    code = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_bad_snr_list_is_config_error(config_file, tmp_path, capsys):
    code = cli.main(["converge", "--config", config_file, "--snr", "fast",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 1


def test_nonfinite_snr_is_config_error(config_file, tmp_path, capsys):
    code = cli.main(["converge", "--config", config_file, "--snr", "0,nan",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_duplicate_snr_is_config_error(config_file, tmp_path, capsys):
    code = cli.main(["converge", "--config", config_file, "--snr", "10,10",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "duplicate" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_failed_converge_solve_is_numeric_error(config_file, tmp_path, monkeypatch, capsys):
    solve = harness.gpi_solve_batch

    def failing(*args, **kwargs):
        solutions, trace = solve(*args, **kwargs)
        return solutions, replace(trace, iterations_used=0 * trace.iterations_used)

    monkeypatch.setattr(harness, "gpi_solve_batch", failing)
    code = cli.main(["converge", "--config", config_file, "--snr", "0,20",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 4
    assert capsys.readouterr().err.startswith("numeric error: ")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_workers_below_one_is_config_error(config_file, tmp_path, capsys, workers):
    code = cli.main(["sweep", "--config", config_file, "--out", str(tmp_path / "x.csv"),
                     "--workers", workers])
    assert code == 1
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_out_defaults_to_config_output_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("methods = mrt\ntrials = 2\n")
    for command in (["sweep", "--workers", "1"], ["converge", "--snr", "0"]):
        assert cli.main([command[0], "--config", str(cfg), *command[1:]]) == 1
        assert "output_path" in capsys.readouterr().err

    cfg.write_text("methods = mrt\ntrials = 2\noutput_path = new/dir/rows.csv\n")
    assert cli.main(["sweep", "--config", str(cfg), "--workers", "1"]) == 0
    assert "wrote new/dir/rows.csv and new/dir/rows.agg.csv (" in capsys.readouterr().out
    with open(tmp_path / "new" / "dir" / "rows.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 3
    assert (tmp_path / "new" / "dir" / "rows.agg.csv").is_file()

    cfg.write_text("trials = 1\noutput_path = other/trace.csv\n")
    assert cli.main(["converge", "--config", str(cfg), "--snr", "0"]) == 0
    assert "wrote other/trace.csv (" in capsys.readouterr().out
    with open(tmp_path / "other" / "trace.csv", newline="") as fh:
        assert next(csv.reader(fh))[0] == "snr_db"


def test_unknown_filter_is_config_error(capsys):
    assert cli.main(["validate", "--filter", "definitely-not-a-check"]) == 1


def test_validate_exit_codes(monkeypatch, capsys):
    ok = CheckResult("demo", True, "fine", 0.1, 1.0)
    bad = CheckResult("demo", False, "broken", 0.1, 1.0)
    monkeypatch.setattr(cli, "run_validate", lambda f: [ok])
    assert cli.main(["validate"]) == 0
    assert "PASS demo" in capsys.readouterr().out
    monkeypatch.setattr(cli, "run_validate", lambda f: [ok, bad])
    assert cli.main(["validate"]) == 3
    out = capsys.readouterr().out
    assert "FAIL demo" in out and "1/2 checks passed" in out


def test_env_var_overrides_master_seed(config_file, tmp_path, monkeypatch):
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    out_c = str(tmp_path / "c.csv")
    cli.main(["sweep", "--config", config_file, "--out", out_a, "--workers", "1"])
    monkeypatch.setenv("RSMASEC_MASTER_SEED", "999")
    cli.main(["sweep", "--config", config_file, "--out", out_b, "--workers", "1"])
    monkeypatch.setenv("RSMASEC_MASTER_SEED", "999")
    cli.main(["sweep", "--config", config_file, "--out", out_c, "--workers", "1"])

    def seeds(path):
        with open(path, newline="") as fh:
            return [r[2] for r in list(csv.reader(fh))[1:]]

    assert seeds(out_a) != seeds(out_b)
    assert seeds(out_b) == seeds(out_c)


def test_bad_env_var_is_config_error(config_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RSMASEC_MASTER_SEED", "lots")
    code = cli.main(["sweep", "--config", config_file, "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "RSMASEC_MASTER_SEED" in capsys.readouterr().err


def test_negative_seed_is_config_error(config_file, capsys):
    code = cli.main(["single", "--config", config_file, "--seed", "-3"])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_negative_env_seed_is_config_error(config_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RSMASEC_MASTER_SEED", "-5")
    code = cli.main(["sweep", "--config", config_file, "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "RSMASEC_MASTER_SEED" in capsys.readouterr().err

