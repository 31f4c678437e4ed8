import importlib.util
import json
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "time_batched_solve.py"
_spec = importlib.util.spec_from_file_location("time_batched_solve", SCRIPT)
time_batched_solve = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(time_batched_solve)


def test_batched_and_single_solves_agree_on_a_small_sweep(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("trials = 2\nmethods = gpi-rsma, gpi-sdma\n"
                      "sweep_axis = snr_db\nsweep_values = 0, 20\n"
                      "epsilon = 1e-4\nt_max = 500\n")
    assert time_batched_solve.main([str(config), "--repeats", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    # one draw per trial and one per chunk (here two SNR pieces) agree to the bit
    assert report["draws_bit_identical"] is True
    assert report["bit_identical"] is True
    assert report["solves"] == 8
    assert report["chunk_sizes"] == [4]   # both SNR values share one chunk
    # one batched solve of 4 trials per method, as long as its slowest trial
    assert report["iterations"] / 4 <= report["loop_iterations"] <= report["iterations"]
    # a tolerance tight enough that solves run past the plain warm-up
    assert report["restarts"] > 0
