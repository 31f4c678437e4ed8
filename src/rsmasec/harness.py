"""Experiment harness: config files, seeded trials, sweeps, CSV output.

Config files are plain ``key = value`` lines with ``#`` comments and
comma-separated lists.  Every trial derives its own seed from
(master_seed, axis_index, trial_index), draws one channel scenario, runs
each configured method on that same scenario, and scores the resulting
precoder against the true channels.  A sweep runs chunks of consecutive
trials, which may span consecutive axis values whose systems differ only in
SNR (``_pool_key``).  A chunk draws its trials in one call per layout,
stacks the draws and builds one quad-form set from them, whose bases carry
each trial's noise ridge, then handles each method in one pass over all of
its trials: one batched GPI solve, MRT start or RZF precoder, one objective
(read from the solver's trace for the GPI methods) and one
``sum_secrecy_se`` call over the chunk, the last two given each trial's
noise terms.  A trial's rows do not depend on its chunk.  A chunk's results
stay columns, one per field of ``ROW_SPEC``, from the draw to the sweep CSV,
which is written in one pass, and to the aggregates.
"""
from __future__ import annotations

import itertools
import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, make_dataclass, replace

import numpy as np

from .baselines import mrt_init, rzf_precoder
from .channel import ChannelRealization, ScenarioLayout, draw_scenario
from .config import SystemConfig
from .quadforms import build_quadforms_limited, build_quadforms_perfect, smoothed_objective
from .rates import sum_secrecy_se
from .solver import NumericError, gpi_solve_batch

log = logging.getLogger(__name__)

METHODS = ("gpi-rsma", "gpi-sdma", "rzf-sdma", "mrt")
GPI_METHODS = ("gpi-rsma", "gpi-sdma")   # solved from their start; the rest are scored as made
SWEEP_AXES = ("none", "snr_db", "n_secret", "n_eves", "angular_separation", "kappa")
CSIT_MODES = ("perfect", "limited")

AGG_COLUMNS = ["axis", "method", "mean_secrecy_se", "stderr", "n_trials"]

SEED_ENV_VAR = "RSMASEC_MASTER_SEED"


class ConfigError(Exception):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; every construction and ``replace`` checks its fields."""

    system: SystemConfig
    layout: ScenarioLayout
    csit_mode: str = "limited"
    methods: tuple[str, ...] = ("gpi-rsma",)
    sweep_axis: str = "none"
    sweep_values: tuple[float, ...] = ()
    trials: int = 100
    master_seed: int = 12345
    output_path: str | None = None

    def __post_init__(self) -> None:
        for name, least in (("trials", 1), ("master_seed", 0)):
            value = getattr(self, name)
            if type(value) is not int:   # not a float, and not a bool either
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ConfigError(f"{name} must be >= {least}")
        for name, kinds, what in (("methods", str, "names"), ("sweep_values", (int, float), "numbers")):
            items = getattr(self, name)
            if type(items) is not tuple or any(type(v) is bool or not isinstance(v, kinds) for v in items):
                raise ConfigError(f"{name} must be a tuple of {what}, got {items!r}")
        if self.csit_mode not in CSIT_MODES:
            raise ConfigError(f"csit_mode must be one of {CSIT_MODES}, got {self.csit_mode!r}")
        if not self.methods:
            raise ConfigError("methods list is empty")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; known: {METHODS}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError(f"duplicate entry in methods: {', '.join(self.methods)}")
        axis, values, system = self.sweep_axis, self.sweep_values, self.system
        if axis not in SWEEP_AXES:
            raise ConfigError(f"sweep_axis must be one of {SWEEP_AXES}, got {axis!r}")
        if axis == "none" and values:
            raise ConfigError("sweep_values given without a sweep_axis")
        if axis != "none" and not values:
            raise ConfigError(f"sweep_axis = {axis} needs sweep_values")
        if len(set(values)) != len(values):
            raise ConfigError(f"duplicate {axis} value: {', '.join(map(_fmt, values))}")
        for v in values:
            if not math.isfinite(v):
                raise ConfigError(f"{axis} sweep values must be finite, got {v}")
            if axis in ("n_secret", "n_eves"):
                if v != int(v) or v < 0:
                    raise ConfigError(f"{axis} sweep values must be nonnegative integers, got {v}")
                if axis == "n_secret" and int(v) > system.n_users:
                    raise ConfigError(f"n_secret sweep value {int(v)} exceeds K = {system.n_users}")
            elif axis == "kappa" and not 0.0 <= v <= 1.0:
                raise ConfigError(f"kappa sweep values must lie in [0, 1], got {v}")
            elif axis == "angular_separation" and v <= 0:
                raise ConfigError(f"angular separation must be positive, got {v}")
            elif axis == "snr_db":
                try:
                    system.with_snr_db(v)
                except (ValueError, OverflowError) as exc:
                    raise ConfigError(f"snr_db sweep value {v}: {exc}") from exc


def _fmt(x: float) -> str:
    return "%.12g" % x


def _axis_cell(value: float | None) -> str:
    """The ``axis`` cell: empty when the sweep has no axis."""
    return "" if value is None else _fmt(value)


# The result row: (CSV name, TrialResult field, type, cell) per column, in CSV
# order: the method, then each trial's head columns from ``_draw_chunk``, then
# each method's result columns from ``_run_chunk``.  A cell is a %-format or
# the function that gives its text; a float is "%.12g" (nan and inf as such).
# No cell needs quoting: method names come from METHODS, every other cell is
# a number, a flag or empty.  A new column is one entry plus its values.
_HEAD_SPEC = (
    ("trial", "trial_index", "int", "%s"),
    ("seed", "seed", "int", "%s"),
    ("axis", "axis_value", "float | None", _axis_cell),
    ("snr_db", "snr_db", "float", "%.12g"),
    ("n", "n_antennas", "int", "%s"),
    ("k", "n_users", "int", "%s"),
    ("s", "n_secret", "int", "%s"),
    ("m", "n_normal", "int", "%s"),
    ("e", "n_eves", "int", "%s"),
    ("kappa", "kappa", "float", "%.12g"),
    ("alpha", "alpha", "float", "%.12g"),
)
_RESULT_SPEC = (
    ("iterations", "iterations", "int", "%s"),
    ("converged", "converged", "bool", lambda ok: "true" if ok else "false"),
    ("objective", "smoothed_objective", "float", "%.12g"),
    ("sum_secrecy_se", "sum_secrecy_se", "float", "%.12g"),
    ("common_min", "common_min", "float", "%.12g"),
    ("runtime_ms", "runtime_ms", "float", "%.12g"),
)
ROW_SPEC = (("method", "method", "str", "%s"), *_HEAD_SPEC, *_RESULT_SPEC)
CSV_COLUMNS = [name for name, *_ in ROW_SPEC]
_HEAD_LINE, _RESULT_LINE = (",".join(cell if isinstance(cell, str) else "%s" for *_, cell in spec)
                            for spec in (_HEAD_SPEC, _RESULT_SPEC))
TrialResult = make_dataclass(
    "TrialResult", [(field, kind) for _, field, kind, _ in ROW_SPEC], frozen=True,
    namespace={"__module__": __name__, "__doc__": "One method's row of one trial, by ROW_SPEC."})


_INT_KEYS = {"n_antennas", "n_secret", "n_normal", "n_eves", "k", "t_max",
             "trials", "master_seed", "quad_nodes"}
_FLOAT_KEYS = {"snr_db", "noise_user", "noise_eve", "alpha", "epsilon",
               "kappa", "angular_spread", "user_sector", "user_spacing",
               "user_center", "eve_center", "eve_sector", "antenna_spacing",
               "trunc_rel"}
_STR_KEYS = {"csit_mode", "sweep_axis", "user_layout", "output_path"}
_LIST_KEYS = {"methods", "sweep_values"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | _LIST_KEYS


def parse_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def parse_config_text(text: str) -> ExperimentConfig:
    raw: dict[str, object] = {}
    set_on: dict[str, int] = {}   # the line that set each key
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key: {key!r}")
        if key in set_on:
            raise ConfigError(f"line {lineno}: {key!r} is already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            if key in _INT_KEYS:
                raw[key] = int(value)
            elif key in _FLOAT_KEYS:
                raw[key] = float(value)
            elif key in _LIST_KEYS:
                items = [v.strip() for v in value.split(",")] if value else []
                if "" in items:
                    raise ConfigError(f"line {lineno}: empty item in {key!r}: {value!r}")
                raw[key] = tuple(items) if key == "methods" else tuple(float(v) for v in items)
            else:
                raw[key] = value
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
    return _config_from_dict(raw)


_RENAMED = {"alpha": "smoothing", "user_layout": "user_mode"}


def _fields_set(raw: dict, cls) -> dict:
    """The config entries that set fields of ``cls``, keyed by field name."""
    names = {f.name for f in fields(cls)}
    named = {_RENAMED.get(key, key): value for key, value in raw.items()}
    return {key: value for key, value in named.items() if key in names}


def _config_from_dict(raw: dict) -> ExperimentConfig:
    system_kw = _fields_set(raw, SystemConfig)
    if "noise_user" in raw:
        system_kw.setdefault("noise_eve", raw["noise_user"])
    try:
        system = SystemConfig(**system_kw).with_snr_db(raw.get("snr_db", 20.0))
        layout = ScenarioLayout(**_fields_set(raw, ScenarioLayout))
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    if "k" in raw and raw["k"] != system.n_users:
        raise ConfigError(f"k = {raw['k']} contradicts n_secret + n_normal = {system.n_users}")
    return ExperimentConfig(system=system, layout=layout, **_fields_set(raw, ExperimentConfig))


def effective_scenario(
    config: ExperimentConfig, axis_value: float | None
) -> tuple[SystemConfig, ScenarioLayout]:
    """Apply one sweep-axis value to the base system/layout."""
    system, layout = config.system, config.layout
    axis = config.sweep_axis
    if axis == "none" or axis_value is None:
        return system, layout
    if axis == "snr_db":
        return system.with_snr_db(axis_value), layout
    if axis == "n_secret":
        s = int(axis_value)
        return replace(system, n_secret=s, n_normal=system.n_users - s), layout
    if axis == "n_eves":
        return replace(system, n_eves=int(axis_value)), layout
    if axis == "angular_separation":
        return system, replace(layout, user_mode="spacing", user_spacing=axis_value)
    return system, replace(layout, kappa=axis_value)   # the last of SWEEP_AXES


def derive_seed(master_seed: int, axis_index: int, trial_index: int) -> int:
    """Counter-mixed per-trial seed; stable across runs and worker counts."""
    ss = np.random.SeedSequence([master_seed, axis_index, trial_index])
    return int(ss.generate_state(1, np.uint64)[0])


def run_trial(config: ExperimentConfig, axis_value: float | None, trial_index: int,
              axis_index: int = 0) -> list[TrialResult]:
    """One scenario draw, every configured method solved and scored on it:
    a chunk of one trial, so its rows equal the sweep's rows."""
    return _rows(_run_chunk(config, [(axis_value, axis_index, range(trial_index, trial_index + 1))]))


def _draw_chunk(config: ExperimentConfig, pieces: list[tuple]):
    """``(system, truth, noise_user, noise_eve, heads)`` of a work item's
    ``(axis_value, axis_index, trials)`` pieces: the first piece's system (a
    chunk's pieces share the set's shape and the solver's settings,
    ``_pool_key``), the stacked draws, each trial's sigma_u^2 / P and
    sigma_e^2 / P from its own piece's system, and the head columns, a list
    per row field from ``trial_index`` to ``alpha``.  Each trial draws from
    its own seed; each run of consecutive pieces with equal layouts (all of
    an ``snr_db`` chunk) is drawn in one ``draw_scenario`` call.  The
    generators end here, so every method is a function of the draws alone."""
    runs, noise_user, noise_eve, heads = [], [], [], {}
    for axis_value, axis_index, trials in pieces:
        system, layout = effective_scenario(config, axis_value)
        seeds = [derive_seed(config.master_seed, axis_index, t) for t in trials]
        if not runs or runs[-1][1] != layout:
            runs.append((system, layout, []))
        runs[-1][2].extend(np.random.default_rng(seed) for seed in seeds)
        noise_user += [system.noise_user_ratio] * len(seeds)
        noise_eve += [system.noise_eve_ratio] * len(seeds)
        shared = {"axis_value": axis_value, "kappa": layout.kappa, "alpha": system.smoothing,
                  **{name: getattr(system, name) for name in
                     ("snr_db", "n_antennas", "n_users", "n_secret", "n_normal", "n_eves")}}
        for name, column in [("trial_index", trials), ("seed", seeds),
                             *((name, [value] * len(seeds)) for name, value in shared.items())]:
            heads.setdefault(name, []).extend(column)
    draws = [draw_scenario(*run) for run in runs]
    truth = draws[0] if len(draws) == 1 else ChannelRealization.stack(draws, join=np.concatenate)
    return runs[0][0], truth, np.array(noise_user), np.array(noise_eve), heads


def _known(csit_mode: str, truth: ChannelRealization, system: SystemConfig, ridge=None):
    """What the transmitter knows of a chunk's stacked draws under
    ``csit_mode``: ``(knowledge, quadforms)``, the stacked channels it sees
    and the chunk's one quad-form set, with each trial's ``ridge`` (default:
    the system's)."""
    if csit_mode == "limited":
        return truth.user_estimates, build_quadforms_limited(truth, system, ridge=ridge)
    return truth.user_channels, build_quadforms_perfect(truth, system, ridge=ridge)


def _method_start(method: str, knowledge: np.ndarray, quadforms, system: SystemConfig, ridge):
    """``(quadforms, precoders)`` of ``method`` on a chunk before any solve:
    the set it is solved or scored on and its precoders, each trial's start
    for a GPI method.  The private-only (SDMA) methods run on
    ``quadforms.without_common()`` with a zero common block; ``ridge`` is
    each trial's sigma_u^2 / P, RZF's regularizer."""
    if method in ("gpi-rsma", "mrt"):
        return quadforms, mrt_init(knowledge)
    private = quadforms.without_common()
    if method == "gpi-sdma":
        return private, mrt_init(knowledge, common_stream=False)
    return private, rzf_precoder(knowledge, system, noise_user_ratio=ridge)


def _run_chunk(config: ExperimentConfig, pieces: list[tuple]) -> tuple[dict, dict]:
    """``(heads, results)`` of a work item's ``(axis_value, axis_index,
    trials)`` pieces: ``_draw_chunk``'s head columns, and per method, in
    config order, its result columns, (T,) arrays keyed by ``TrialResult``
    field.  Each layer runs once over the chunk, as the module docstring
    says: a method's set and precoders (``_method_start``), one
    ``gpi_solve_batch`` call or else one objective, and one
    ``sum_secrecy_se`` call.  A GPI row's objective is its trace's; a
    method's time is split evenly over the chunk's rows.  A trial's rows do
    not depend on the chunk."""
    system, truth, ridge, noise_eve, heads = _draw_chunk(config, pieces)
    knowledge, quadforms = _known(config.csit_mode, truth, system, ridge)
    n = len(ridge)
    results = {}
    for method in config.methods:
        t0 = time.perf_counter()
        forms, precoders = _method_start(method, knowledge, quadforms, system, ridge)
        if method in GPI_METHODS:
            # a failed trial scores its NaN precoder, so only its own row is NaN
            precoders, trace = gpi_solve_batch(forms, precoders, system)
            for i in np.flatnonzero(trace.iterations_used == 0):
                log.warning("trial %d method %s failed numerically", heads["trial_index"][i], method)
            iterations, converged, objective = trace.iterations_used, trace.converged, trace.objective
        else:
            iterations, converged = np.zeros(n, int), np.ones(n, bool)
            objective = smoothed_objective(forms, precoders, system)
        report = sum_secrecy_se(truth, precoders, system,
                                noise_user_ratio=ridge, noise_eve_ratio=noise_eve)
        runtime_ms = 1e3 * (time.perf_counter() - t0) / n
        results[method] = {"iterations": iterations, "converged": converged,
                           "smoothed_objective": objective, "sum_secrecy_se": report.sum_secrecy_se,
                           "common_min": report.common_min, "runtime_ms": np.full(n, runtime_ms)}
    return heads, results


def _rows(chunk: tuple[dict, dict], text: bool = False) -> list:
    """The rows of a ``_run_chunk`` result, in (piece, trial, method) order:
    ``TrialResult``s, or with ``text`` their CSV lines without line ends, the
    cells by ``ROW_SPEC`` and each trial's head cells formatted once."""
    heads, results = chunk

    def cells(spec, columns):
        return [columns[field] if not text or isinstance(cell, str) else map(cell, columns[field])
                for _, field, _, cell in spec]

    head = list(zip(*cells(_HEAD_SPEC, heads)))
    if text:
        head = [_HEAD_LINE % values for values in head]
    by_method = []
    for method, columns in results.items():
        each = zip(head, *cells(_RESULT_SPEC, {f: column.tolist() for f, column in columns.items()}))
        line = f"{method},%s,{_RESULT_LINE}"
        by_method.append([line % row for row in each] if text
                         else [TrialResult(method, *h, *values) for h, *values in each])
    return [row for rows in zip(*by_method) for row in rows]


def _write_csv(path: str, header: list[str], lines) -> None:
    """Write ``header`` and ``lines`` (cells joined by commas, none of which
    needs quoting) in one write, each line ended by CR LF as ``csv.writer``
    ends them."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join([",".join(header), *lines, ""]))


def aggregate_path(out_path: str) -> str:
    return out_path.removesuffix(".csv") + ".agg.csv"


# Bytes of solver arrays one chunk may hold; see ``_trial_bytes``.
CHUNK_BYTES = 4 * 2**20


def _trial_bytes(system: SystemConfig, csit_mode: str) -> int:
    """Bytes of the solver arrays a trial adds to its chunk: its ridge and
    error scale, its rank-1 rows, its own matrices (the rows' outer products,
    under limited CSIT its eavesdropper covariances, and the identity) and
    its (A, B) block stacks.  The coefficient tables and the user
    covariances are shared by the whole chunk, so they are not counted;
    neither is the scratch of one call, such as the user covariances' share
    of the stacks, which ``kkt_blocks`` keeps in their buffer."""
    n, k, e = system.n_antennas, system.n_users, system.n_eves
    n_rows = k if csit_mode == "limited" else k + e
    return 8 * 2 + 16 * (n_rows * n + (k + e + 1 + 2 * (k + 1)) * n * n)


def _pool_key(system: SystemConfig) -> SystemConfig:
    """``system`` with its SNR factored out: what is left fixes the shape of
    a chunk's quad-form set and its tables (the dimensions and sigma_e^2 /
    sigma_u^2) and the solver's settings (smoothing, epsilon, t_max).  Trials
    whose systems have equal keys can share a chunk."""
    return replace(system, symbol_power=1.0, noise_user=1.0,
                   noise_eve=system.noise_eve / system.noise_user)


def _sweep_chunks(config: ExperimentConfig, workers: int) -> list[tuple]:
    """The sweep's work items ``(config, pieces)``: runs of consecutive
    trials, each piece an ``(axis_value, axis_index, trials)`` run at one
    value.

    Consecutive axis values whose effective systems have equal ``_pool_key``s
    (in practice every value of an ``snr_db``, ``kappa`` or
    ``angular_separation`` sweep, never two of ``n_secret`` or ``n_eves``)
    form one run of trials, which a chunk may cross.  A chunk holds as many
    trials as fit in CHUNK_BYTES (at least one), and with several workers at
    most an even share of all trials, so that every worker gets work.
    """
    values: list[float | None] = list(config.sweep_values) if config.sweep_axis != "none" else [None]
    n = config.trials
    share = -(-len(values) * n // workers)
    systems = [(v, ai, effective_scenario(config, v)[0]) for ai, v in enumerate(values)]
    items = []
    for _, run in itertools.groupby(systems, key=lambda member: _pool_key(member[2])):
        run = list(run)
        size = min(max(1, CHUNK_BYTES // _trial_bytes(run[0][2], config.csit_mode)), share)
        for lo in range(0, len(run) * n, size):
            hi = min(lo + size, len(run) * n)
            # the run's trials [lo, hi), cut at its values' boundaries
            items.append((config, [
                (v, ai, range(max(lo - j * n, 0), min(hi - j * n, n)))
                for j, (v, ai, _) in enumerate(run) if lo < (j + 1) * n and j * n < hi
            ]))
    return items


def _sweep_columns(config: ExperimentConfig, workers: int | None = None) -> list[tuple]:
    """Every chunk's ``_run_chunk`` result, in sweep order.

    Chunks of trials are independent work items; with workers > 1 they are
    dispatched to a process pool of at most one process per item, since the
    fork start method starts every worker up front.  Neither the chunking nor
    the worker count changes any row.
    """
    if workers is None:
        # the CPUs this process may run on, which can be fewer than the machine has
        has_affinity = hasattr(os, "sched_getaffinity")
        workers = len(os.sched_getaffinity(0)) if has_affinity else os.cpu_count() or 1
    items = _sweep_chunks(config, max(workers, 1))
    if workers <= 1 or len(items) == 1:
        return [_run_chunk(*it) for it in items]
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(_run_chunk, *zip(*items)))


def _sweep_rows(config: ExperimentConfig, workers: int | None = None) -> list[TrialResult]:
    """Every row of the sweep, in (axis, trial, method) order."""
    return [r for chunk in _sweep_columns(config, workers) for r in _rows(chunk)]


def aggregate(chunks: list[tuple]) -> dict[tuple[float | None, str], tuple[float, float, int]]:
    """Mean, standard error and count of the finite sum secrecy SEs per (axis
    value, method) of a sweep's ``_run_chunk`` results, reduced as one array
    in row order, keys in order of first appearance; a group whose every
    solve failed reads (NaN, NaN, 0).  The standard error is the sample
    standard deviation over sqrt(count), and 0 for a single trial."""
    groups: dict[tuple[float | None, str], list[np.ndarray]] = {}
    for heads, results in chunks:
        start = 0
        for value, run in itertools.groupby(heads["axis_value"]):   # a piece's trials
            stop = start + len(list(run))
            for method, columns in results.items():
                groups.setdefault((value, method), []).append(columns["sum_secrecy_se"][start:stop])
            start = stop
    out = {}
    for key, parts in groups.items():
        vals = np.concatenate(parts)
        vals = vals[np.isfinite(vals)]   # a failed solve's row has a NaN SE
        stderr = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
        out[key] = (float(vals.mean()), stderr, vals.size) if vals.size else (math.nan, math.nan, 0)
    return out


def run_sweep(config: ExperimentConfig, out_path: str, workers: int | None = None) -> tuple[str, str]:
    """Run the configured sweep and write per-trial plus aggregate CSVs,
    each in one pass from the chunks' columns (``_rows``, whose ``ROW_SPEC``
    says why no cell needs quoting) and one write."""
    chunks = _sweep_columns(config, workers)
    _write_csv(out_path, CSV_COLUMNS, [line for chunk in chunks for line in _rows(chunk, text=True)])
    agg = aggregate_path(out_path)
    _write_csv(agg, AGG_COLUMNS, [
        f"{_axis_cell(value)},{method},{_fmt(mean)},{_fmt(stderr)},{n}"
        for (value, method), (mean, stderr, n) in aggregate(chunks).items()])
    return out_path, agg


CONVERGE_COLUMNS = ["snr_db", "trial", "seed", "iteration", "step_norm", "objective", "lam"]


def run_convergence(config: ExperimentConfig, snr_list: list[float], out_path: str) -> str:
    """Per-iteration solve traces of the rate-splitting solver across SNRs.

    The SNR list is run as an ``snr_db`` sweep, so each (snr index, trial)
    draws the scenario of the matching sweep row.  One CSV row per (snr,
    trial, iteration); iteration 0 carries the initializer objective and an
    empty step norm.  ``lam`` is the solver's stationarity multiplier
    estimate at that iterate.  The CSV is written in one pass after the last
    solve, so a failed solve leaves no file.
    """
    if not snr_list:
        raise ConfigError("converge needs at least one SNR value")
    config = replace(config, sweep_axis="snr_db", sweep_values=tuple(snr_list))
    lines = []
    for _, pieces in _sweep_chunks(config, 1):
        system, truth, ridge, _, heads = _draw_chunk(config, pieces)
        knowledge, quadforms = _known(config.csit_mode, truth, system, ridge)
        _, trace = gpi_solve_batch(*_method_start("gpi-rsma", knowledge, quadforms, system, ridge),
                                   system, keep_iterates=True)
        if (trace.iterations_used == 0).any():
            raise NumericError("a solve of the chunk failed numerically")
        for trial, seed, snr, rows in zip(heads["trial_index"], heads["seed"], heads["snr_db"],
                                          trace.rows):
            lines.extend(
                f"{_fmt(snr)},{trial},{seed},{it},{'' if math.isnan(step) else _fmt(step)},"
                f"{_fmt(obj)},{_fmt(lam)}" for it, step, obj, lam in rows)
    _write_csv(out_path, CONVERGE_COLUMNS, lines)
    return out_path
