import importlib.util
import json
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "time_chunk_layers.py"
_spec = importlib.util.spec_from_file_location("time_chunk_layers", SCRIPT)
time_chunk_layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(time_chunk_layers)


def test_times_each_layer_on_the_first_chunk(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("trials = 3\nsweep_axis = snr_db\nsweep_values = 0, 20\n"
                      "methods = gpi-rsma, gpi-sdma, rzf-sdma, mrt\n")
    assert time_chunk_layers.main([str(config), "--repeats", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trials"] == 6   # both SNR values share the first chunk
    assert report["repeats"] == 3
    layers = ["draw", "build", "gpi-rsma_baseline", "gpi-sdma_baseline", "rzf-sdma_baseline",
              "rzf-sdma_objective", "mrt_baseline", "mrt_objective", "scoring", "rows",
              "csv_write", "aggregate"]
    assert sorted(report) == sorted([f"{name}_ms" for name in layers] + ["trials", "repeats"])
    for name in layers:
        times = report[f"{name}_ms"]
        assert 0 < times["min"] <= times["median"]
