import importlib.util
import json
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "optimality_gap.py"
_spec = importlib.util.spec_from_file_location("optimality_gap", SCRIPT)
optimality_gap = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(optimality_gap)


def test_gap_report_on_a_two_trial_sweep(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(optimality_gap, "STARTS", 2)
    config = tmp_path / "sweep.cfg"
    config.write_text("trials = 2\nmethods = gpi-rsma, gpi-sdma, mrt\n")
    assert optimality_gap.main([str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == ["gpi-rsma", "gpi-sdma"]
    report = json.loads(lines[-1])
    assert report["reference"] == {"epsilon": 1e-4, "t_max": 500} and report["starts"] == 2
    assert set(report["methods"]) == {"gpi-rsma", "gpi-sdma"}
    for summary in report["methods"].values():
        assert summary["scenarios"] == 2 and summary["failed"] == 0
        for gain in ("reference_gain", "start_gain"):
            assert summary[gain]["of"] == 2 and 0 <= summary[gain]["wins"] <= 2
        # the reference solve runs at least as long as the config's
        assert summary["median_iterations_reference"] >= summary["median_iterations_config"]
