import importlib.util
import json
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "time_quadforms.py"
_spec = importlib.util.spec_from_file_location("time_quadforms", SCRIPT)
time_quadforms = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(time_quadforms)


def test_times_each_kernel_on_the_first_chunk(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("trials = 3\nsweep_axis = snr_db\nsweep_values = 0, 20\n")
    assert time_quadforms.main([str(config), "--repeats", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trials"] == 6   # both SNR values share the first chunk
    assert report["shape"] == [5, 4] and report["repeats"] == 3
    for name in ("evaluate", "smoothed", "assemble_kkt", "block_solve", "plain_step"):
        times = report[f"{name}_ms"]
        assert 0 < times["min"] <= times["median"]
