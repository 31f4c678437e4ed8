"""Experiment harness: config files, seeded trials, sweeps, CSV output.

Config files are plain ``key = value`` lines with ``#`` comments and
comma-separated lists.  Every trial derives its own seed from
(master_seed, axis_index, trial_index), draws one channel scenario, runs
each configured method on that same scenario, and scores the resulting
precoder against the true channels.  A sweep runs chunks of consecutive
trials at one axis value, solving each GPI method for the whole chunk at
once; a trial's rows do not depend on its chunk.
"""
from __future__ import annotations

import csv
import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .baselines import mrt_init, rzf_precoder
from .channel import ScenarioLayout, draw_scenario
from .config import SystemConfig
from .quadforms import (
    build_quadforms_limited,
    build_quadforms_perfect,
    smoothed_objective,
)
from .rates import sum_secrecy_se
from .solver import NumericError, gpi_solve_batch

log = logging.getLogger(__name__)

METHODS = ("gpi-rsma", "gpi-sdma", "rzf-sdma", "mrt")
SWEEP_AXES = ("none", "snr_db", "n_secret", "n_eves", "angular_separation", "kappa")
CSIT_MODES = ("perfect", "limited")

CSV_COLUMNS = [
    "method", "trial", "seed", "axis", "snr_db", "n", "k", "s", "m", "e",
    "kappa", "alpha", "iterations", "converged", "objective",
    "sum_secrecy_se", "common_min", "runtime_ms",
]
AGG_COLUMNS = ["axis", "method", "mean_secrecy_se", "stderr", "n_trials"]

SEED_ENV_VAR = "RSMASEC_MASTER_SEED"


class ConfigError(Exception):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemConfig
    layout: ScenarioLayout
    csit_mode: str = "limited"
    methods: tuple[str, ...] = ("gpi-rsma",)
    sweep_axis: str = "none"
    sweep_values: tuple[float, ...] = ()
    trials: int = 100
    master_seed: int = 12345
    output_path: str | None = None


@dataclass(frozen=True)
class TrialResult:
    method: str
    trial_index: int
    seed: int
    axis_value: float | None
    snr_db: float
    n_antennas: int
    n_users: int
    n_secret: int
    n_normal: int
    n_eves: int
    kappa: float
    alpha: float
    iterations: int
    converged: bool
    smoothed_objective: float
    sum_secrecy_se: float
    common_min: float
    runtime_ms: float


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
        try:
            if key in _INT_KEYS:
                raw[key] = int(value)
            elif key in _FLOAT_KEYS:
                raw[key] = float(value)
            elif key in _LIST_KEYS:
                items = [v.strip() for v in value.split(",") if v.strip()]
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
    config = ExperimentConfig(system=system, layout=layout, **_fields_set(raw, ExperimentConfig))

    if "k" in raw and raw["k"] != system.n_users:
        raise ConfigError(
            f"k = {raw['k']} contradicts n_secret + n_normal = {system.n_users}"
        )

    if config.csit_mode not in CSIT_MODES:
        raise ConfigError(f"csit_mode must be one of {CSIT_MODES}, got {config.csit_mode!r}")

    methods = config.methods
    if not methods:
        raise ConfigError("methods list is empty")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; known: {METHODS}")
    if len(set(methods)) != len(methods):
        raise ConfigError(f"duplicate entry in methods: {', '.join(methods)}")

    axis, values = config.sweep_axis, config.sweep_values
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep_axis must be one of {SWEEP_AXES}, got {axis!r}")
    if axis == "none" and values:
        raise ConfigError("sweep_values given without a sweep_axis")
    if axis != "none" and not values:
        raise ConfigError(f"sweep_axis = {axis} needs sweep_values")
    if len(set(values)) != len(values):
        raise ConfigError(f"duplicate entry in sweep_values: {', '.join(map(_fmt, values))}")
    _check_axis_values(axis, values, system)

    if config.trials < 1:
        raise ConfigError("trials must be >= 1")
    if config.master_seed < 0:
        raise ConfigError("master_seed must be >= 0")
    return config


def _check_axis_values(axis: str, values: tuple[float, ...], system: SystemConfig) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ConfigError(f"{axis} sweep values must be finite, got {v}")
        if axis in ("n_secret", "n_eves"):
            if v != int(v) or v < 0:
                raise ConfigError(f"{axis} sweep values must be nonnegative integers, got {v}")
            if axis == "n_secret" and int(v) > system.n_users:
                raise ConfigError(
                    f"n_secret sweep value {int(v)} exceeds K = {system.n_users}"
                )
        elif axis == "kappa" and not 0.0 <= v <= 1.0:
            raise ConfigError(f"kappa sweep values must lie in [0, 1], got {v}")
        elif axis == "angular_separation" and v <= 0:
            raise ConfigError(f"angular separation must be positive, got {v}")
        elif axis == "snr_db":
            try:
                system.with_snr_db(v)
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"snr_db sweep value {v}: {exc}") from exc


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
    if axis == "kappa":
        return system, replace(layout, kappa=axis_value)
    raise ConfigError(f"unknown sweep axis {axis!r}")


def derive_seed(master_seed: int, axis_index: int, trial_index: int) -> int:
    """Counter-mixed per-trial seed; stable across runs and worker counts."""
    ss = np.random.SeedSequence([master_seed, axis_index, trial_index])
    return int(ss.generate_state(1, np.uint64)[0])


def _draw(config: ExperimentConfig, system: SystemConfig, layout: ScenarioLayout, seed: int):
    """Seeded scenario draw plus what the transmitter knows under the CSIT mode:
    ``(realization, knowledge, quadforms)``.  The generator ends here, so every
    method is a function of the drawn scenario alone."""
    realization = draw_scenario(system, layout, np.random.default_rng(seed))
    if config.csit_mode == "limited":
        return realization, realization.user_estimates, build_quadforms_limited(realization, system)
    return realization, realization.user_channels, build_quadforms_perfect(realization, system)


def run_trial(
    config: ExperimentConfig,
    axis_value: float | None,
    trial_index: int,
    axis_index: int = 0,
) -> list[TrialResult]:
    """One scenario draw, every configured method solved and scored on it:
    a chunk of one trial, so its rows equal the sweep's rows."""
    return _run_chunk(config, axis_value, axis_index, range(trial_index, trial_index + 1))


def _draw_chunk(config: ExperimentConfig, axis_value: float | None, axis_index: int, trials: range):
    """``(system, layout, seeds, draws)`` of consecutive trials at one axis
    value; each draw is ``_draw``'s tuple for that trial's seed."""
    system, layout = effective_scenario(config, axis_value)
    seeds = [derive_seed(config.master_seed, axis_index, t) for t in trials]
    return system, layout, seeds, [_draw(config, system, layout, seed) for seed in seeds]


def _gpi_chunk(draws: list, system: SystemConfig, rsma: bool) -> list:
    """``gpi_solve_batch`` over a chunk's draws from their MRT starts, on the
    full sets (rate splitting) or their ``without_common()`` views (SDMA)."""
    return gpi_solve_batch(
        [qf if rsma else qf.without_common() for _, _, qf in draws],
        np.stack([mrt_init(knowledge, common_stream=rsma) for _, knowledge, _ in draws]),
        system,
    )


def _run_chunk(
    config: ExperimentConfig,
    axis_value: float | None,
    axis_index: int,
    trials: range,
) -> list[TrialResult]:
    """Consecutive trials at one axis value, in (trial, method) order.

    Each trial draws its scenario as ``run_trial`` would.  Then every method
    runs over the whole chunk in config order; the GPI methods solve all
    trials in one ``gpi_solve_batch`` call, whose time is split evenly over
    the chunk's rows.  A trial's rows do not depend on the chunk it is in.
    """
    system, layout, seeds, draws = _draw_chunk(config, axis_value, axis_index, trials)
    rows: list[list[TrialResult]] = [[] for _ in draws]
    for method in config.methods:
        shared_s = 0.0
        if method in ("gpi-rsma", "gpi-sdma"):
            t0 = time.perf_counter()
            solved = _gpi_chunk(draws, system, rsma=method == "gpi-rsma")
            shared_s = (time.perf_counter() - t0) / len(draws)
        for i, (realization, knowledge, quadforms) in enumerate(draws):
            t0 = time.perf_counter()
            iterations, converged, stack = 0, True, None
            if method == "rzf-sdma":
                stack = rzf_precoder(knowledge, system)
            elif method == "mrt":
                stack = mrt_init(knowledge)
            elif method not in ("gpi-rsma", "gpi-sdma"):
                raise ConfigError(f"unknown method {method!r}")
            elif isinstance(solved[i], NumericError):
                log.warning("trial %d method %s failed numerically: %s",
                            trials[i], method, solved[i])
                converged = False
            else:
                stack, trace = solved[i]
                iterations, converged = trace.iterations_used, trace.converged
            objective = secrecy_se = common_min = math.nan
            if stack is not None:
                # private-only methods have no common family to score
                qf = quadforms.without_common() if method in ("gpi-sdma", "rzf-sdma") else quadforms
                objective = smoothed_objective(qf, stack, system)
                report = sum_secrecy_se(realization, stack, system)
                secrecy_se, common_min = report.sum_secrecy_se, report.common_min
            rows[i].append(TrialResult(
                method=method,
                trial_index=trials[i],
                seed=seeds[i],
                axis_value=axis_value,
                snr_db=system.snr_db,
                n_antennas=system.n_antennas,
                n_users=system.n_users,
                n_secret=system.n_secret,
                n_normal=system.n_normal,
                n_eves=system.n_eves,
                kappa=layout.kappa,
                alpha=system.smoothing,
                iterations=iterations,
                converged=converged,
                smoothed_objective=objective,
                sum_secrecy_se=secrecy_se,
                common_min=common_min,
                runtime_ms=1e3 * (shared_s + time.perf_counter() - t0),
            ))
    return [r for trial_rows in rows for r in trial_rows]


def _fmt(x: float) -> str:
    return "%.12g" % x


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _result_row(r: TrialResult) -> list[str]:
    """CSV cells of ``r``; the field order of TrialResult is CSV_COLUMNS."""
    return [_cell(getattr(r, f.name)) for f in fields(r)]


def aggregate_path(out_path: str) -> str:
    if out_path.endswith(".csv"):
        return out_path[: -len(".csv")] + ".agg.csv"
    return out_path + ".agg.csv"


# Bytes of solver arrays one chunk may hold; see ``_trial_bytes``.
CHUNK_BYTES = 4 * 2**20


def _trial_bytes(system: SystemConfig, csit_mode: str) -> int:
    """Bytes of one trial's solver arrays: its quad-form set (complex base
    matrices plus real coefficient tables) and the (A, B) block stacks."""
    n, k, s, e = system.n_antennas, system.n_users, system.n_secret, system.n_eves
    n_bases = 1 + k + e + (2 * k if csit_mode == "limited" else 0)
    n_forms = 2 * (2 * k + s * e + s * (k - 1))
    return 16 * (n_bases + 2 * (k + 1)) * n * n + 8 * n_forms * n_bases * (k + 1)


def _sweep_chunks(config: ExperimentConfig, workers: int) -> list[tuple]:
    """The sweep's work items: runs of consecutive trials at one axis value.

    A chunk holds as many trials as fit in CHUNK_BYTES (at least one), and
    with several workers at most an even share of all trials, so that every
    worker gets work.
    """
    values: list[float | None] = list(config.sweep_values) if config.sweep_axis != "none" else [None]
    share = -(-len(values) * config.trials // workers)
    items = []
    for ai, v in enumerate(values):
        system, _ = effective_scenario(config, v)
        size = min(max(1, CHUNK_BYTES // _trial_bytes(system, config.csit_mode)), share)
        items += [
            (config, v, ai, range(t, min(t + size, config.trials)))
            for t in range(0, config.trials, size)
        ]
    return items


def _sweep_rows(config: ExperimentConfig, workers: int | None = None) -> list[TrialResult]:
    """Every trial of the sweep, in (axis, trial, method) order.

    Chunks of trials are independent work items; with workers > 1 they are
    dispatched to a process pool.  Neither the chunking nor the worker count
    changes any row.
    """
    if workers is None:
        # the CPUs this process may run on, which can be fewer than the machine has
        has_affinity = hasattr(os, "sched_getaffinity")
        workers = len(os.sched_getaffinity(0)) if has_affinity else os.cpu_count() or 1
    items = _sweep_chunks(config, max(workers, 1))
    if workers <= 1 or len(items) == 1:
        batches = [_run_chunk(*it) for it in items]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_run_chunk, *zip(*items)))
    return [r for batch in batches for r in batch]


def aggregate(rows: list[TrialResult]) -> dict[tuple[float | None, str], tuple[float, float, int]]:
    """Mean, standard error and count of the finite sum secrecy SEs per (axis
    value, method), keys in order of first appearance; a group whose every
    solve failed reads (NaN, NaN, 0).  The standard error is the sample
    standard deviation over sqrt(count), and 0 for a single trial."""
    groups: dict[tuple[float | None, str], list[float]] = {}
    for r in rows:
        groups.setdefault((r.axis_value, r.method), []).append(r.sum_secrecy_se)
    out = {}
    for key, xs in groups.items():
        vals = np.asarray(xs)
        vals = vals[np.isfinite(vals)]   # a failed solve's row has a NaN SE
        stderr = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
        out[key] = (float(vals.mean()), stderr, vals.size) if vals.size else (math.nan, math.nan, 0)
    return out


def run_sweep(
    config: ExperimentConfig,
    out_path: str,
    workers: int | None = None,
) -> tuple[str, str]:
    """Run the configured sweep and write per-trial plus aggregate CSVs."""
    rows = _sweep_rows(config, workers)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow(_result_row(r))

    agg = aggregate_path(out_path)
    with open(agg, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGG_COLUMNS)
        for (value, method), (mean, stderr, n) in aggregate(rows).items():
            writer.writerow([_cell(value), method, _fmt(mean), _fmt(stderr), str(n)])
    return out_path, agg


CONVERGE_COLUMNS = ["snr_db", "trial", "seed", "iteration", "step_norm", "objective", "lam"]


def run_convergence(
    config: ExperimentConfig,
    snr_list: list[float],
    out_path: str,
) -> str:
    """Per-iteration solve traces of the rate-splitting solver across SNRs.

    The SNR list is run as an ``snr_db`` sweep, so each (snr index, trial)
    draws the scenario of the matching sweep row.  One CSV row per (snr,
    trial, iteration); iteration 0 carries the initializer objective and an
    empty step norm.  ``lam`` is the solver's stationarity multiplier
    estimate at that iterate.
    """
    if not snr_list:
        raise ConfigError("converge needs at least one SNR value")
    config = replace(config, sweep_axis="snr_db", sweep_values=tuple(snr_list))
    _check_axis_values(config.sweep_axis, config.sweep_values, config.system)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CONVERGE_COLUMNS)
        for _, snr, si, trials in _sweep_chunks(config, 1):
            system, _, seeds, draws = _draw_chunk(config, snr, si, trials)
            for trial, seed, solved in zip(trials, seeds, _gpi_chunk(draws, system, rsma=True)):
                if isinstance(solved, NumericError):
                    raise solved
                for it, step, obj, lam in solved[1].iterates:
                    writer.writerow([
                        _fmt(snr), str(trial), str(seed), str(it),
                        "" if math.isnan(step) else _fmt(step),
                        _fmt(obj), _fmt(lam),
                    ])
    return out_path
