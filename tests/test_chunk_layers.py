"""Every layer around the solver runs once per chunk: the draw once per
layout, RZF and scoring once per method with each trial's noise terms, and
the sweep CSV in one write.  Each is pinned bit for bit to the per-piece or
per-row form it replaces."""
import csv
import dataclasses
import io
import math

import numpy as np
import pytest

import rsmasec as rs
from rsmasec import cli, harness
from rsmasec.rates import RateReport
from test_harness import poison_trial


def chunk_config(axis, values, csit="limited", trials=2, extra=""):
    return rs.parse_config_text(
        f"csit_mode = {csit}\ntrials = {trials}\nsweep_axis = {axis}\n"
        f"sweep_values = {', '.join(map(str, values))}\n{extra}")


@pytest.mark.parametrize("axis, values, calls", [
    ("snr_db", (0.0, 30.0, 10.0), 1),
    ("kappa", (0.1, 0.5, 0.8), 3),
    ("angular_separation", (0.2, 0.5), 2),
])
def test_a_chunk_draws_once_per_layout(monkeypatch, axis, values, calls):
    cfg = chunk_config(axis, values, trials=3, extra="noise_eve = 3\n")
    (_, pieces), = harness._sweep_chunks(cfg, 1)
    counted = []

    def draw(*args):
        counted.append(len(args[2]))
        return rs.draw_scenario(*args)

    monkeypatch.setattr(harness, "draw_scenario", draw)
    parts, truth, ridge = harness._draw_chunk(cfg, pieces)
    assert len(counted) == calls and sum(counted) == 3 * len(values)

    # the stack of one draw per piece, as each piece alone would draw it
    each = [rs.draw_scenario(system, layout, [np.random.default_rng(s) for s in seeds])
            for system, layout, seeds, _ in parts]
    per_piece = rs.ChannelRealization.stack(each, join=np.concatenate)
    for field in dataclasses.fields(truth):
        got, want = getattr(truth, field.name), getattr(per_piece, field.name)
        assert (got is None) == (want is None), field.name
        if got is not None:
            assert got.shape == want.shape and np.array_equal(got, want), field.name
    assert ridge.tolist() == [s.noise_user_ratio for s, _, seeds, _ in parts for _ in seeds]


def stacked_trials(dims, snrs, seed):
    """Draws at several SNRs, one system per trial, and a unit precoder stack."""
    n, s, m, e = dims
    base = rs.SystemConfig(n_antennas=n, n_secret=s, n_normal=m, n_eves=e, noise_eve=2.5)
    systems = [base.with_snr_db(snr) for snr in snrs]
    truth = rs.draw_scenario(base, rs.ScenarioLayout(quad_nodes=64),
                             [np.random.default_rng(seed + i) for i in range(len(snrs))])
    rng = np.random.default_rng(seed)
    shape = (len(snrs), s + m + 1, n)
    f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return base, systems, truth, f / np.linalg.norm(f, axis=(1, 2), keepdims=True)


DIMS = [(4, 2, 2, 2), (3, 1, 3, 0), (2, 0, 2, 1), (1, 1, 0, 2), (2, 2, 3, 1)]


@pytest.mark.parametrize("dims", DIMS)
def test_per_trial_noise_equals_each_trials_own_call(dims):
    snrs = (0.0, 17.5, -5.0, 40.0)
    base, systems, truth, f = stacked_trials(dims, snrs, 11)
    user = np.array([s.noise_user_ratio for s in systems])
    eve = np.array([s.noise_eve_ratio for s in systems])
    report = rs.sum_secrecy_se(truth, f, base, noise_user_ratio=user, noise_eve_ratio=eve)
    precoders = rs.rzf_precoder(truth.user_estimates, base, noise_user_ratio=user)
    for t, system in enumerate(systems):
        one = slice(t, t + 1)
        alone = rs.sum_secrecy_se(truth.take(one), f[one], system)
        for field in dataclasses.fields(RateReport):
            got, want = getattr(report, field.name), getattr(alone, field.name)
            assert np.array_equal(got[one], want), field.name
        assert np.array_equal(precoders[one], rs.rzf_precoder(truth.user_estimates[one], system))


def test_one_noise_value_is_the_configs_default():
    base, _, truth, f = stacked_trials((4, 2, 2, 2), (0.0, 20.0), 3)
    default = rs.sum_secrecy_se(truth, f, base)
    given = rs.sum_secrecy_se(truth, f, base, noise_user_ratio=base.noise_user_ratio,
                              noise_eve_ratio=np.float64(base.noise_eve_ratio))
    for field in dataclasses.fields(RateReport):
        assert np.array_equal(getattr(given, field.name), getattr(default, field.name))
    assert np.array_equal(rs.rzf_precoder(truth.user_estimates, base, noise_user_ratio=0.01),
                          rs.rzf_precoder(truth.user_estimates, base))
    single = truth.take(0)
    assert np.array_equal(rs.sum_secrecy_se(single, f[0], base, noise_user_ratio=0.01).sum_secrecy_se,
                          rs.sum_secrecy_se(single, f[0], base).sum_secrecy_se)


@pytest.mark.parametrize("bad", [np.ones(3), np.ones(1), np.ones((2, 1)), np.ones((1, 2))])
def test_a_noise_array_of_the_wrong_shape_raises(bad):
    base, _, truth, f = stacked_trials((4, 2, 2, 2), (0.0, 20.0), 3)
    for kwargs in ({"noise_user_ratio": bad}, {"noise_eve_ratio": bad}):
        with pytest.raises(ValueError, match="one per trial"):
            rs.sum_secrecy_se(truth, f, base, **kwargs)
    with pytest.raises(ValueError, match="one per trial"):
        rs.rzf_precoder(truth.user_estimates, base, noise_user_ratio=bad)
    with pytest.raises(ValueError, match="one per trial"):
        rs.sum_secrecy_se(truth.take(0), f[0], base, noise_user_ratio=np.ones(2))
    with pytest.raises(ValueError, match="one per trial"):
        rs.rzf_precoder(truth.user_estimates[0], base, noise_user_ratio=np.ones(2))


def parent_cell(value) -> str:
    """A cell as the sweep CSV wrote it through ``csv.writer``, cell by cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def csv_text(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def sweep_texts(monkeypatch, tmp_path, cfg):
    """The two files ``run_sweep`` writes for ``cfg``, and the same rows
    written by ``csv.writer`` over the cell rules above."""
    written = []

    def sweep_rows(*args):
        written.extend(rows := run(*args))
        return rows

    run = harness._sweep_rows
    monkeypatch.setattr(harness, "_sweep_rows", sweep_rows)
    rows_path, agg_path = rs.run_sweep(cfg, str(tmp_path / "sweep.csv"), workers=1)
    names = [f.name for f in dataclasses.fields(harness.TrialResult)]
    want_rows = csv_text(harness.CSV_COLUMNS,
                         [[parent_cell(getattr(r, name)) for name in names] for r in written])
    want_agg = csv_text(harness.AGG_COLUMNS, [
        [parent_cell(value), method, "%.12g" % mean, "%.12g" % stderr, str(n)]
        for (value, method), (mean, stderr, n) in harness.aggregate(written).items()])
    with open(rows_path, "rb") as rows_fh, open(agg_path, "rb") as agg_fh:
        got = rows_fh.read().decode(), agg_fh.read().decode()
    return got, (want_rows, want_agg), written


@pytest.mark.parametrize("csit", ["limited", "perfect"])
@pytest.mark.parametrize("axis", ["none", "snr_db", "kappa"])
def test_the_sweep_csv_is_the_csv_writers_bytes(monkeypatch, tmp_path, csit, axis):
    values = {"none": "", "snr_db": "sweep_values = -10, 12.5\n", "kappa": "sweep_values = 0, 0.35\n"}
    cfg = rs.parse_config_text(f"csit_mode = {csit}\ntrials = 2\nsweep_axis = {axis}\n{values[axis]}"
                               "methods = gpi-rsma, gpi-sdma, rzf-sdma, mrt\n")
    got, want, rows = sweep_texts(monkeypatch, tmp_path, cfg)
    assert got == want
    assert got[0].count("\r\n") == 1 + len(rows) and "\n" not in got[0].replace("\r\n", "")
    if axis == "none":
        assert all(line.split(",")[3] == "" for line in got[0].splitlines()[1:])
        assert got[1].splitlines()[1].startswith(",gpi-rsma,")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scoring the poisoned trial's mrt row
def test_a_failed_rows_nan_cells_are_the_csv_writers_bytes(monkeypatch, tmp_path):
    cfg = rs.parse_config_text("methods = gpi-rsma, mrt\ntrials = 3")
    poison_trial(monkeypatch, cfg, harness.derive_seed(cfg.master_seed, 0, 1))
    got, want, rows = sweep_texts(monkeypatch, tmp_path, cfg)
    assert got == want
    failed = got[0].splitlines()[3].split(",")
    assert failed[:2] == ["gpi-rsma", "1"] and failed[12:17] == ["0", "false", "nan", "nan", "nan"]
    assert math.isnan(rows[2].sum_secrecy_se)


def test_single_prints_the_parent_cells(monkeypatch, capsys, tmp_path):
    config = tmp_path / "one.cfg"
    config.write_text("methods = gpi-rsma, gpi-sdma, rzf-sdma, mrt\nsweep_axis = snr_db\n"
                      "sweep_values = 0, 10\n")
    printed = []

    def run_trial(*args):
        printed.extend(rows := harness.run_trial(*args))
        return rows

    monkeypatch.setattr(cli, "run_trial", run_trial)
    assert cli.main(["single", "--config", str(config), "--seed", "9"]) == 0
    names = [f.name for f in dataclasses.fields(harness.TrialResult)]
    assert capsys.readouterr().out == "".join(
        ",".join(cells) + "\n"
        for cells in [harness.CSV_COLUMNS,
                      *([parent_cell(getattr(r, name)) for name in names] for r in printed)])
    assert [harness._result_row(r) for r in printed] == [
        [parent_cell(getattr(r, name)) for name in names] for r in printed]
