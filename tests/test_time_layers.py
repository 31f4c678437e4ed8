import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "time_layers.py"
_spec = importlib.util.spec_from_file_location("time_layers", SCRIPT)
time_layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(time_layers)

KERNELS = ["evaluate", "smoothed", "assemble_kkt", "block_solve", "plain_step", "anderson",
           "pair_scoring"]


@pytest.mark.parametrize("text, methods, shape", [
    ("methods = gpi-rsma, gpi-sdma, rzf-sdma, mrt", ["gpi-rsma", "gpi-sdma", "rzf-sdma", "mrt"], [5, 4]),
    ("csit_mode = perfect\nn_normal = 3\nmethods = gpi-sdma, mrt", ["gpi-sdma", "mrt"], [6, 4]),
])
def test_times_every_layer_on_the_first_chunk(tmp_path, capsys, text, methods, shape):
    config = tmp_path / "sweep.cfg"
    config.write_text(f"trials = 3\nsweep_axis = snr_db\nsweep_values = 0, 20\n{text}\n")
    assert time_layers.main([str(config), "--repeats", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    # both SNR values share the first chunk
    assert (report["trials"], report["shape"], report["repeats"]) == (6, shape, 3)
    layers = ["draw", "build", *[f"{m}_baseline" for m in methods],
              *[f"{m}_objective" for m in methods if m in ("rzf-sdma", "mrt")],
              "scoring", "csv_write", "aggregate", *KERNELS]
    assert sorted(report) == sorted([f"{name}_ms" for name in layers] + ["trials", "shape", "repeats"])
    for name in layers:
        times = report[f"{name}_ms"]
        assert 0 < times["min"] <= times["median"]
