import csv
import io
import math
import os
import pathlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rsmasec as rs
from rsmasec import harness
from rsmasec.harness import CSV_COLUMNS, derive_seed, effective_scenario


def test_empty_config_fills_documented_defaults():
    cfg = rs.parse_config_text("")
    assert cfg.system.n_antennas == 4
    assert cfg.system.n_secret == 2 and cfg.system.n_normal == 2
    assert abs(cfg.system.snr_db - 20.0) < 1e-12
    assert cfg.system.noise_user == 1.0
    assert cfg.system.smoothing == 0.3
    assert cfg.system.epsilon == 0.05
    assert cfg.system.t_max == 100
    assert cfg.layout.angular_spread == math.pi / 6
    assert cfg.layout.kappa == 0.4
    assert cfg.trials == 100
    assert cfg.csit_mode == "limited"
    assert cfg.methods == ("gpi-rsma",)


@pytest.mark.parametrize(
    "path",
    sorted((pathlib.Path(__file__).resolve().parent.parent / "configs").glob("*.cfg")),
    ids=lambda p: p.name,
)
def test_bundled_configs_parse_with_output_under_results(path):
    # the bundled configs hold the CLI's default --out
    cfg = rs.parse_config(str(path))
    assert cfg.output_path.startswith("results/")


def test_parse_comments_and_lists():
    cfg = rs.parse_config_text(
        """
        # scenario shape
        n_secret = 2   # confidential users
        n_normal = 2
        methods = gpi-rsma, mrt
        sweep_axis = snr_db
        sweep_values = 0, 10, 20
        """
    )
    assert cfg.methods == ("gpi-rsma", "mrt")
    assert cfg.sweep_values == (0.0, 10.0, 20.0)


def test_parse_k_consistency_check():
    rs.parse_config_text("n_secret = 2\nn_normal = 2\nk = 4")
    with pytest.raises(rs.ConfigError, match="k = 4"):
        rs.parse_config_text("n_secret = 3\nn_normal = 2\nk = 4")


@pytest.mark.parametrize(
    "text,needle",
    [
        ("bogus = 1", "unknown config key"),
        ("n_antennas = four", "bad value"),
        ("just a line", "expected"),
        ("methods = warp-drive", "unknown method"),
        ("methods = mrt, mrt", "duplicate entry in methods"),
        ("sweep_axis = humidity\nsweep_values = 1", "sweep_axis"),
        ("sweep_values = 1, 2", "without a sweep_axis"),
        ("sweep_axis = kappa", "needs sweep_values"),
        ("sweep_axis = snr_db\nsweep_values = 10, 10", "duplicate snr_db value"),
        ("sweep_axis = kappa\nsweep_values = 1.5", "kappa"),
        ("sweep_axis = n_eves\nsweep_values = 1.5", "integers"),
        ("sweep_axis = n_secret\nsweep_values = 9", "exceeds"),
        ("sweep_axis = angular_separation\nsweep_values = -1", "positive"),
        ("trials = 0", "trials"),
        ("csit_mode = psychic", "csit_mode"),
        ("n_secret = 0\nn_normal = 0", "user"),
        ("snr_db = nan", "symbol_power must be finite"),
        ("snr_db = inf", "symbol_power must be finite"),
        ("alpha = inf", "smoothing must be finite"),
        ("epsilon = nan", "epsilon must be finite"),
        ("angular_spread = nan", "angular_spread must be finite"),
        ("trunc_rel = 2", "trunc_rel"),
        ("quad_nodes = 1", "quad_nodes"),
        ("sweep_axis = n_eves\nsweep_values = nan", "finite"),
        ("sweep_axis = snr_db\nsweep_values = 10, nan", "finite"),
        ("sweep_axis = snr_db\nsweep_values = 10, 5000", "snr_db sweep value 5000"),
        ("sweep_axis = angular_separation\nsweep_values = nan", "finite"),
        ("methods =", "methods list is empty"),
        ("master_seed = -1", "master_seed"),
        ("trials = 5\n\ntrials = 6", "line 3: 'trials' is already set on line 1"),
    ],
)
def test_parse_errors(text, needle):
    with pytest.raises(rs.ConfigError, match=needle):
        rs.parse_config_text(text)


@pytest.mark.parametrize(
    "changes,needle",
    [
        (dict(csit_mode="psychic"), "csit_mode"),
        (dict(methods=()), "methods list is empty"),
        (dict(methods=("warp-drive",)), "unknown method"),
        (dict(methods=("mrt", "mrt")), "duplicate entry in methods"),
        (dict(sweep_axis="humidity", sweep_values=(1.0,)), "sweep_axis"),
        (dict(sweep_values=(1.0, 2.0)), "without a sweep_axis"),
        (dict(sweep_axis="kappa"), "needs sweep_values"),
        (dict(sweep_axis="snr_db", sweep_values=(10.0, 10.0)), "duplicate snr_db value"),
        (dict(sweep_axis="kappa", sweep_values=(1.5,)), "kappa"),
        (dict(sweep_axis="n_eves", sweep_values=(1.5,)), "integers"),
        (dict(sweep_axis="n_secret", sweep_values=(9.0,)), "exceeds"),
        (dict(sweep_axis="angular_separation", sweep_values=(-1.0,)), "positive"),
        (dict(sweep_axis="n_eves", sweep_values=(math.nan,)), "finite"),
        (dict(sweep_axis="snr_db", sweep_values=(10.0, math.nan)), "finite"),
        (dict(sweep_axis="snr_db", sweep_values=(10.0, 5000.0)), "snr_db sweep value 5000"),
        (dict(sweep_axis="angular_separation", sweep_values=(math.nan,)), "finite"),
        (dict(trials=0), "trials"),
        (dict(master_seed=-1), "master_seed"),
    ],
)
def test_a_config_built_in_code_obeys_the_files_rules(tmp_path, changes, needle):
    # test_parse_errors' cases on ExperimentConfig's own fields, set by replace
    config = rs.parse_config_text("trials = 2\nmethods = mrt")
    with pytest.raises(rs.ConfigError, match=needle):
        rs.run_sweep(replace(config, **changes), str(tmp_path / "out.csv"), workers=1)
    assert list(tmp_path.iterdir()) == []


def test_error_messages_carry_line_numbers():
    with pytest.raises(rs.ConfigError, match="line 3"):
        rs.parse_config_text("n_secret = 2\n\nbogus = 1\n")


def test_effective_scenario_axis_application():
    cfg = rs.parse_config_text("sweep_axis = n_secret\nsweep_values = 1, 3")
    system, _ = effective_scenario(cfg, 3.0)
    assert system.n_secret == 3 and system.n_normal == 1
    cfg = rs.parse_config_text("sweep_axis = angular_separation\nsweep_values = 0.2")
    _, layout = effective_scenario(cfg, 0.2)
    assert layout.user_mode == "spacing" and layout.user_spacing == 0.2
    cfg = rs.parse_config_text("sweep_axis = kappa\nsweep_values = 0.1")
    _, layout = effective_scenario(cfg, 0.1)
    assert layout.kappa == 0.1
    cfg = rs.parse_config_text("sweep_axis = snr_db\nsweep_values = 5")
    system, _ = effective_scenario(cfg, 5.0)
    assert abs(system.snr_db - 5.0) < 1e-12


def test_seed_derivation_is_stable():
    a = derive_seed(123, 0, 0)
    assert a == derive_seed(123, 0, 0)
    assert derive_seed(123, 0, 1) != a
    assert derive_seed(123, 1, 0) != a
    assert derive_seed(124, 0, 0) != a


def test_run_trial_is_deterministic():
    cfg = rs.parse_config_text("methods = gpi-rsma, mrt\ntrials = 1")
    rows_a = rs.run_trial(cfg, None, 0)
    rows_b = rs.run_trial(cfg, None, 0)
    for a, b in zip(rows_a, rows_b):
        assert a.method == b.method
        assert a.seed == b.seed
        assert a.smoothed_objective == b.smoothed_objective
        assert a.sum_secrecy_se == b.sum_secrecy_se


def test_run_trial_noniterative_methods():
    cfg = rs.parse_config_text("methods = mrt, rzf-sdma")
    for row in rs.run_trial(cfg, None, 0):
        assert row.iterations == 0
        assert row.converged is True
        assert math.isfinite(row.sum_secrecy_se)


def test_run_trial_shares_scenario_across_methods():
    cfg = rs.parse_config_text("methods = gpi-rsma, gpi-sdma, rzf-sdma, mrt")
    rows = rs.run_trial(cfg, None, 5)
    assert len({r.seed for r in rows}) == 1
    assert [r.method for r in rows] == ["gpi-rsma", "gpi-sdma", "rzf-sdma", "mrt"]


def test_kappa_zero_limited_bounds_equal_perfect_rates():
    # with exact estimates the lower-bound rate forms collapse to the exact
    # forms; the harness-level guarantee is rate equality, not leakage
    cfg = rs.parse_config_text("kappa = 0")
    system, layout = effective_scenario(cfg, None)
    rng = np.random.default_rng(derive_seed(cfg.master_seed, 0, 0))
    real = rs.draw_scenario(system, layout, rng)
    stack = rs.mrt_init(real.user_estimates)
    qf_l = rs.build_quadforms_limited(real, system)
    qf_p = rs.build_quadforms_perfect(real, system)
    vl = qf_l.evaluate(stack)
    vp = qf_p.evaluate(stack)
    assert np.abs(vl.common_rates() - vp.common_rates()).max() < 1e-6
    assert np.abs(vl.private_rates() - vp.private_rates()).max() < 1e-6


def test_sweep_row_count_and_schema(tmp_path):
    cfg = rs.parse_config_text(
        "methods = mrt, rzf-sdma\n"
        "sweep_axis = snr_db\n"
        "sweep_values = 0, 5, 10, 15, 20, 25, 30\n"
        "trials = 100\n"
    )
    out = str(tmp_path / "sweep.csv")
    rows_path, agg_path = rs.run_sweep(cfg, out)
    with open(rows_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) - 1 == 7 * 100 * 2
    # deterministic (axis, trial, method) ordering
    assert [r[0] for r in rows[1:5]] == ["mrt", "rzf-sdma", "mrt", "rzf-sdma"]
    assert rows[1][3] == "0" and rows[-1][3] == "30"

    with open(agg_path, newline="") as fh:
        agg = list(csv.reader(fh))
    assert agg[0] == ["axis", "method", "mean_secrecy_se", "stderr", "n_trials"]
    assert len(agg) - 1 == 7 * 2

    # recompute one aggregate cell from the row file
    sel = [float(r[15]) for r in rows[1:] if r[0] == "mrt" and r[3] == "10"]
    arr = np.asarray(sel)
    want_mean = arr.mean()
    want_se = arr.std(ddof=1) / math.sqrt(arr.size)
    got = next(r for r in agg[1:] if r[0] == "10" and r[1] == "mrt")
    assert abs(float(got[2]) - want_mean) < 1e-9
    assert abs(float(got[3]) - want_se) < 1e-9
    assert got[4] == "100"


def test_sweep_axis_none_leaves_axis_column_empty(tmp_path):
    cfg = rs.parse_config_text("methods = mrt\ntrials = 2")
    rows_path, _ = rs.run_sweep(cfg, str(tmp_path / "none.csv"))
    with open(rows_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(r[3] == "" for r in rows[1:])
    assert all(r[13] == "true" for r in rows[1:])


def test_sweep_worker_counts_agree(tmp_path):
    # one worker solves both axis values' trials as one chunk of 6, two
    # workers as one chunk per value, and three in chunks of 2 whose middle
    # one spans both values; no method may care
    def body_without_runtime(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("runtime_ms")
        return [r[:drop] + r[drop + 1:] for r in rows]

    sweeps = [(methods, "snr_db", "0, 20") for methods in ("mrt", ", ".join(harness.METHODS))]
    sweeps += [(", ".join(harness.METHODS), "kappa", "0.1, 0.6"),
               (", ".join(harness.METHODS), "angular_separation", "0.2, 0.5")]
    for methods, axis, values in sweeps:
        cfg = rs.parse_config_text(
            f"methods = {methods}\nsweep_axis = {axis}\nsweep_values = {values}\ntrials = 3"
        )
        layouts = {w: [[len(trials) for _, _, trials in pieces]
                       for _, pieces in harness._sweep_chunks(cfg, w)] for w in (1, 2, 3)}
        assert layouts == {1: [[3, 3]], 2: [[3], [3]], 3: [[2], [1, 1], [2]]}
        a, agg_a = rs.run_sweep(cfg, str(tmp_path / "a.csv"), workers=1)
        for workers in (2, 3):
            b, agg_b = rs.run_sweep(cfg, str(tmp_path / "b.csv"), workers=workers)
            assert body_without_runtime(a) == body_without_runtime(b)
            with open(agg_a) as fa, open(agg_b) as fb:
                assert fa.read() == fb.read()


@pytest.mark.parametrize("axis, values, pooled", [
    ("snr_db", "0, 10, 20", True),
    ("kappa", "0.1, 0.4, 0.8", True),
    ("angular_separation", "0.2, 0.4, 0.6", True),
    ("n_eves", "0, 2, 4", False),
    ("n_secret", "1, 2, 3", False),
])
def test_chunks_pool_the_values_that_share_a_set_shape(axis, values, pooled):
    # a noise_eve unlike noise_user changes the tables, not the pooling:
    # every value of a sweep shares sigma_e^2 / sigma_u^2
    cfg = rs.parse_config_text(
        f"noise_eve = 3\nsweep_axis = {axis}\nsweep_values = {values}\ntrials = 4")
    chunks = [pieces for _, pieces in harness._sweep_chunks(cfg, 1)]
    each = [(v, ai, range(4)) for ai, v in enumerate(cfg.sweep_values)]
    assert chunks == ([each] if pooled else [[piece] for piece in each])
    # the chunk's trials follow the sweep order, so its rows do too
    rows = harness._run_chunk(cfg, chunks[0])
    assert [(r.axis_value, r.trial_index) for r in rows] == [
        (v, t) for v, _, trials in chunks[0] for t in trials]


def cells(row):
    """A row's CSV cells without runtime_ms."""
    return harness._result_line(row).split(",")[:-1]


def test_chunk_size_follows_the_byte_budget():
    def sizes(text):
        return [sum(len(trials) for _, _, trials in pieces)
                for _, pieces in harness._sweep_chunks(rs.parse_config_text(text), 1)]

    # only the per-trial bases and block stacks grow with the chunk; the
    # tables and the user covariances are shared
    size = harness.CHUNK_BYTES // harness._trial_bytes(rs.parse_config_text("").system, "limited")
    assert size == 907
    assert sizes(f"trials = {size}") == [size]
    assert sizes(f"trials = {size + 45}") == [size, 45]
    assert sizes("n_antennas = 32\nn_secret = 8\nn_normal = 8\nn_eves = 8\ntrials = 5") == [4, 1]


def poison_trial(monkeypatch, cfg, seed):
    """Make the slice of its chunk's quad-form set that belongs to the draw
    for ``seed`` nonfinite, so that trial's GPI solves fail and nothing else
    changes."""
    system, layout = harness.effective_scenario(cfg, None)
    target = rs.draw_scenario(system, layout, np.random.default_rng(seed)).user_channels
    build = harness.build_quadforms_limited

    def poisoned(truth, system, **kwargs):
        qf = build(truth, system, **kwargs)
        # the trial's first signal row and its outer product
        rows, own = qf.rows.copy(), qf.own.copy()
        hit = (truth.user_channels == target).all(axis=(1, 2))
        rows[hit, 0, 0] = own[hit, 0, 0, 0] = np.inf
        return replace(qf, rows=rows, own=own)

    monkeypatch.setattr(harness, "build_quadforms_limited", poisoned)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scoring the poisoned trial's mrt row
def test_failed_solve_gives_only_its_own_trial_a_failed_row(monkeypatch):
    cfg = rs.parse_config_text("methods = gpi-rsma, gpi-sdma, mrt\ntrials = 3")
    clean = [rs.run_trial(cfg, None, t) for t in range(3)]
    poison_trial(monkeypatch, cfg, clean[1][0].seed)
    rows = harness._sweep_rows(cfg, workers=1)
    for r in rows[3:5]:
        assert r.trial_index == 1 and r.method.startswith("gpi")
        assert (r.iterations, r.converged) == (0, False)
        assert all(math.isnan(x) for x in (r.smoothed_objective, r.sum_secrecy_se, r.common_min))
    assert [cells(r) for r in rows[:3] + rows[6:]] == [cells(r) for r in clean[0] + clean[2]]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scoring the poisoned trial's mrt row
def test_failed_row_is_left_out_of_its_aggregate(monkeypatch):
    cfg = rs.parse_config_text("methods = gpi-rsma, gpi-sdma, mrt\ntrials = 3")
    clean = [rs.run_trial(cfg, None, t) for t in range(3)]
    poison_trial(monkeypatch, cfg, clean[1][0].seed)
    agg = harness.aggregate(harness._sweep_rows(cfg, workers=1))
    for j, method in enumerate(("gpi-rsma", "gpi-sdma")):
        mean, stderr, n = agg[None, method]
        kept = np.array([clean[0][j].sum_secrecy_se, clean[2][j].sum_secrecy_se])
        assert n == 2
        assert mean == kept.mean()
        assert stderr == pytest.approx(kept.std(ddof=1) / math.sqrt(2), rel=1e-12)
    assert agg[None, "mrt"][2] == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scoring the poisoned trial's mrt row
def test_each_failed_solve_logs_one_warning(monkeypatch, caplog):
    cfg = rs.parse_config_text("methods = gpi-rsma, gpi-sdma, mrt\ntrials = 3")
    poison_trial(monkeypatch, cfg, derive_seed(cfg.master_seed, 0, 1))
    with caplog.at_level("WARNING", logger=harness.log.name):
        harness._sweep_rows(cfg, workers=1)
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", f"trial 1 method {method} failed numerically") for method in ("gpi-rsma", "gpi-sdma")]


def test_convergence_raises_on_a_failed_solve(monkeypatch, tmp_path):
    cfg = rs.parse_config_text("trials = 3")
    poison_trial(monkeypatch, cfg, derive_seed(cfg.master_seed, 0, 1))
    with pytest.raises(rs.NumericError):
        rs.run_convergence(cfg, [cfg.system.snr_db], str(tmp_path / "trace.csv"))


def test_aggregate_of_only_failed_rows_is_nan_with_count_zero():
    row = rs.run_trial(rs.parse_config_text("methods = mrt"), None, 0)[0]
    failed = replace(row, sum_secrecy_se=math.nan)
    mean, stderr, n = harness.aggregate([failed, failed])[None, "mrt"]
    assert math.isnan(mean) and math.isnan(stderr) and n == 0
    assert harness.aggregate([failed, row])[None, "mrt"] == (row.sum_secrecy_se, 0.0, 1)


@pytest.mark.parametrize("csit_mode", ["limited", "perfect"])
def test_each_method_depends_on_the_scenario_alone(csit_mode):
    # the rows of a method do not depend on which other methods run, or in what order
    methods = ("gpi-rsma", "gpi-sdma", "rzf-sdma", "mrt")

    def rows_by_method(order):
        cfg = rs.parse_config_text(
            f"csit_mode = {csit_mode}\nmethods = {', '.join(order)}\ntrials = 3")
        out = {}
        for r in harness._sweep_rows(cfg, workers=1):
            out.setdefault(r.method, []).append(cells(r))
        return out

    together = rows_by_method(methods)
    assert rows_by_method(methods[::-1]) == together
    for method in methods:
        assert rows_by_method((method,)) == {method: together[method]}


def test_float_formatting_round_trips():
    cfg = rs.parse_config_text("methods = mrt\ntrials = 1")
    row = rs.run_trial(cfg, None, 0)[0]
    text = harness._result_line(row).split(",")
    assert float(text[15]) == pytest.approx(row.sum_secrecy_se, rel=1e-11)
    assert text[1] == "0"
    assert text[2] == str(row.seed)
    assert text[13] == "true"


def test_convergence_trace_file(tmp_path):
    cfg = rs.parse_config_text("trials = 2")
    out = rs.run_convergence(cfg, [0.0, 20.0], str(tmp_path / "trace.csv"))
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["snr_db", "trial", "seed", "iteration", "step_norm", "objective", "lam"]
    assert all(math.isfinite(float(r[6])) for r in rows[1:])
    starts = [r for r in rows[1:] if r[3] == "0"]
    assert len(starts) == 4   # 2 SNRs x 2 trials
    assert all(r[4] == "" for r in starts)

    # iteration-0 objective equals an independently rebuilt initializer objective
    r0 = starts[0]
    system = cfg.system.with_snr_db(float(r0[0]))
    rng = np.random.default_rng(int(r0[2]))
    real = rs.draw_scenario(system, cfg.layout, rng)
    qf = rs.build_quadforms_limited(real, system)
    start = rs.mrt_init(real.user_estimates)
    want = rs.smoothed_objective(qf, start / np.linalg.norm(start), system)
    assert abs(float(r0[5]) - want) < 1e-9

    # each trial's trace ends converged or at the iteration cap
    for snr in ("0", "20"):
        for trial in ("0", "1"):
            steps = [r for r in rows[1:] if r[0] == snr and r[1] == trial]
            last = steps[-1]
            assert float(last[4]) <= cfg.system.epsilon or int(last[3]) == cfg.system.t_max


def test_convergence_csv_bytes_are_csv_writers(tmp_path, monkeypatch):
    cfg = rs.parse_config_text("trials = 2\nt_max = 12")
    out = rs.run_convergence(cfg, [0.0, 20.0], str(tmp_path / "trace.csv"))
    with open(out, newline="", encoding="utf-8") as fh:
        text = fh.read()
    again = io.StringIO(newline="")
    csv.writer(again).writerows(csv.reader(io.StringIO(text, newline="")))
    assert text == again.getvalue()
    # iteration 0's step_norm cell is empty, not quoted
    starts = [line for line in text.split("\r\n")[1:-1] if line.split(",")[3] == "0"]
    assert len(starts) == 4 and all(line.split(",")[4] == "" for line in starts)

    # a failed solve leaves no file
    solve = harness.gpi_solve_batch

    def failing(*args, **kwargs):
        solutions, trace = solve(*args, **kwargs)
        return solutions, replace(trace, iterations_used=0 * trace.iterations_used)

    monkeypatch.setattr(harness, "gpi_solve_batch", failing)
    with pytest.raises(rs.NumericError):
        rs.run_convergence(cfg, [0.0, 20.0], str(tmp_path / "failed.csv"))
    assert not (tmp_path / "failed.csv").exists()


def test_convergence_rejects_empty_snr_list(tmp_path):
    cfg = rs.parse_config_text("")
    with pytest.raises(rs.ConfigError):
        rs.run_convergence(cfg, [], str(tmp_path / "x.csv"))


def test_convergence_rejects_duplicate_snrs(tmp_path):
    # two trial sets under the same (snr_db, trial, iteration) keys
    cfg = rs.parse_config_text("trials = 1")
    with pytest.raises(rs.ConfigError, match="duplicate snr_db value"):
        rs.run_convergence(cfg, [10.0, 0.0, 10.0], str(tmp_path / "x.csv"))
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("csit_mode", ["limited", "perfect"])
def test_convergence_traces_match_sweep_trials(tmp_path, csit_mode):
    cfg = rs.parse_config_text(
        f"csit_mode = {csit_mode}\nsweep_axis = snr_db\nsweep_values = 0, 20\ntrials = 2"
    )
    out = rs.run_convergence(cfg, list(cfg.sweep_values), str(tmp_path / "trace.csv"))
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for ai, snr in enumerate(cfg.sweep_values):
        for trial in range(cfg.trials):
            row = rs.run_trial(cfg, snr, trial, ai)[0]
            trace = [r for r in rows if float(r["snr_db"]) == snr and int(r["trial"]) == trial]
            assert {r["seed"] for r in trace} == {str(row.seed)}
            assert int(trace[-1]["iteration"]) == row.iterations


def test_default_workers_follow_cpu_affinity(monkeypatch):
    # one usable CPU means a serial sweep, however many the machine has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def no_pool(*args, **kwargs):
        raise AssertionError("process pool started with one available CPU")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    cfg = rs.parse_config_text(
        "methods = mrt\nsweep_axis = snr_db\nsweep_values = 0, 10\ntrials = 2")
    rows = harness._sweep_rows(cfg)
    assert [(r.axis_value, r.trial_index) for r in rows] == [(0, 0), (0, 1), (10, 0), (10, 1)]


def test_the_pool_has_no_more_workers_than_work_items(monkeypatch):
    # the fork start method starts every worker up front, so an idle one costs a fork
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    cfg = rs.parse_config_text(
        "methods = mrt\nsweep_axis = snr_db\nsweep_values = 0, 10\ntrials = 3")
    rows = harness._sweep_rows(cfg, workers=16)
    assert started == [len(harness._sweep_chunks(cfg, 16))] == [6]
    untimed = [replace(r, runtime_ms=0.0) for r in harness._sweep_rows(cfg, workers=1)]
    assert [replace(r, runtime_ms=0.0) for r in rows] == untimed


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 4),
    s=st.integers(0, 4),
    m=st.integers(0, 4),
    e=st.integers(0, 3),
    snr_db=st.sampled_from([-30.0, 0.0, 60.0]),
    alpha=st.sampled_from([0.01, 0.3, 5.0]),
    csit_mode=st.sampled_from(["perfect", "limited"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_trial_edge_dimensions(n, s, m, e, snr_db, alpha, csit_mode, seed):
    assume(s + m >= 1)
    system = rs.SystemConfig(n_antennas=n, n_secret=s, n_normal=m, n_eves=e, smoothing=alpha)
    cfg = rs.ExperimentConfig(
        system=system.with_snr_db(snr_db),
        layout=rs.ScenarioLayout(),
        csit_mode=csit_mode,
        methods=harness.METHODS,
        trials=1,
        master_seed=seed,
    )
    rows = rs.run_trial(cfg, None, 0)
    assert [r.method for r in rows] == list(harness.METHODS)
    for r in rows:
        assert math.isfinite(r.sum_secrecy_se) and r.sum_secrecy_se >= 0.0, r
        assert 0 <= r.iterations <= system.t_max, r
    # one chunk of three trials gives each trial the rows it gets alone
    cfg = replace(cfg, trials=3)
    swept = harness._sweep_rows(cfg, workers=1)
    for t in range(3):
        alone = rows if t == 0 else rs.run_trial(cfg, None, t)
        got = swept[4 * t: 4 * t + 4]
        assert [cells(r) for r in got] == [cells(r) for r in alone]
