"""Experiment harness: config files, seeded trials, sweeps, CSV output.

Config files are plain ``key = value`` lines with ``#`` comments and
comma-separated lists.  Every trial derives its own seed from
(master_seed, axis_index, trial_index), draws one channel scenario, runs
each configured method on that same scenario, and scores the resulting
precoder against the true channels.
"""
from __future__ import annotations

import csv
import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .baselines import gpi_sdma_solve, mrt_init, rzf_precoder
from .channel import ChannelRealization, ScenarioLayout, draw_scenario
from .config import SystemConfig
from .quadforms import (
    QuadFormSet,
    build_quadforms_limited,
    build_quadforms_perfect,
    smoothed_objective,
)
from .rates import PrecoderStack, sum_secrecy_se
from .solver import NumericError, gpi_solve

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


def _config_from_dict(raw: dict) -> ExperimentConfig:
    snr_db = raw.get("snr_db", 20.0)
    noise_user = raw.get("noise_user", 1.0)
    try:
        system = SystemConfig(
            n_antennas=raw.get("n_antennas", 4),
            n_secret=raw.get("n_secret", 2),
            n_normal=raw.get("n_normal", 2),
            n_eves=raw.get("n_eves", 2),
            symbol_power=noise_user * 10.0 ** (snr_db / 10.0),
            noise_user=noise_user,
            noise_eve=raw.get("noise_eve", noise_user),
            smoothing=raw.get("alpha", 0.3),
            epsilon=raw.get("epsilon", 0.05),
            t_max=raw.get("t_max", 100),
        )
        layout = ScenarioLayout(
            user_mode=raw.get("user_layout", "sector"),
            user_sector=raw.get("user_sector", math.pi / 6),
            user_spacing=raw.get("user_spacing", math.pi / 6),
            user_center=raw.get("user_center", 0.0),
            eve_center=raw.get("eve_center", 0.0),
            eve_sector=raw.get("eve_sector", 2 * math.pi),
            angular_spread=raw.get("angular_spread", math.pi / 6),
            antenna_spacing=raw.get("antenna_spacing", 0.5),
            kappa=raw.get("kappa", 0.4),
            trunc_rel=raw.get("trunc_rel", 1e-10),
            quad_nodes=raw.get("quad_nodes", 512),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if "k" in raw and raw["k"] != system.n_users:
        raise ConfigError(
            f"k = {raw['k']} contradicts n_secret + n_normal = {system.n_users}"
        )

    csit_mode = raw.get("csit_mode", "limited")
    if csit_mode not in CSIT_MODES:
        raise ConfigError(f"csit_mode must be one of {CSIT_MODES}, got {csit_mode!r}")

    methods = raw.get("methods", ("gpi-rsma",))
    if not methods:
        raise ConfigError("methods list is empty")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; known: {METHODS}")
    if len(set(methods)) != len(methods):
        raise ConfigError(f"duplicate entry in methods: {', '.join(methods)}")

    axis = raw.get("sweep_axis", "none")
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep_axis must be one of {SWEEP_AXES}, got {axis!r}")
    values = raw.get("sweep_values", ())
    if axis == "none" and values:
        raise ConfigError("sweep_values given without a sweep_axis")
    if axis != "none" and not values:
        raise ConfigError(f"sweep_axis = {axis} needs sweep_values")
    if len(set(values)) != len(values):
        raise ConfigError(f"duplicate entry in sweep_values: {', '.join(map(_fmt, values))}")
    _check_axis_values(axis, values, system)

    trials = raw.get("trials", 100)
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    master_seed = raw.get("master_seed", 12345)
    if master_seed < 0:
        raise ConfigError("master_seed must be >= 0")

    return ExperimentConfig(
        system=system,
        layout=layout,
        csit_mode=csit_mode,
        methods=tuple(methods),
        sweep_axis=axis,
        sweep_values=tuple(values),
        trials=trials,
        master_seed=master_seed,
        output_path=raw.get("output_path"),
    )


def _check_axis_values(axis: str, values: tuple[float, ...], system: SystemConfig) -> None:
    for v in values:
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


def _nan_result(method, trial_index, seed, axis_value, system, layout, runtime_ms):
    return TrialResult(
        method=method, trial_index=trial_index, seed=seed, axis_value=axis_value,
        snr_db=system.snr_db, n_antennas=system.n_antennas, n_users=system.n_users,
        n_secret=system.n_secret, n_normal=system.n_normal, n_eves=system.n_eves,
        kappa=layout.kappa, alpha=system.smoothing, iterations=0, converged=False,
        smoothed_objective=math.nan, sum_secrecy_se=math.nan, common_min=math.nan,
        runtime_ms=runtime_ms,
    )


def run_trial(
    config: ExperimentConfig,
    axis_value: float | None,
    trial_index: int,
    axis_index: int = 0,
) -> list[TrialResult]:
    """One scenario draw, every configured method solved and scored on it."""
    system, layout = effective_scenario(config, axis_value)
    seed = derive_seed(config.master_seed, axis_index, trial_index)
    rng = np.random.default_rng(seed)
    realization = draw_scenario(system, layout, rng)
    limited = config.csit_mode == "limited"
    knowledge = realization.user_estimates if limited else realization.user_channels

    quadforms: QuadFormSet | None = None

    def get_quadforms():
        nonlocal quadforms
        if quadforms is None:
            build = build_quadforms_limited if limited else build_quadforms_perfect
            quadforms = build(realization, system)
        return quadforms

    results = []
    for method in config.methods:
        t0 = time.perf_counter()
        try:
            if method == "gpi-rsma":
                stack, trace = gpi_solve(get_quadforms(), mrt_init(knowledge, rng), system)
                iterations, converged = trace.iterations_used, trace.converged
            elif method == "gpi-sdma":
                stack, trace = gpi_sdma_solve(realization, system, config.csit_mode, rng)
                iterations, converged = trace.iterations_used, trace.converged
            elif method == "rzf-sdma":
                stack = rzf_precoder(knowledge, system)
                iterations, converged = 0, True
            elif method == "mrt":
                stack = mrt_init(knowledge, rng)
                iterations, converged = 0, True
            else:
                raise ConfigError(f"unknown method {method!r}")
            qf = get_quadforms()
            if method in ("gpi-sdma", "rzf-sdma"):  # private-only: no common family
                qf = qf.without_common()
            objective = smoothed_objective(qf, stack, system)
            report = sum_secrecy_se(realization, stack, system)
        except NumericError as exc:
            runtime_ms = 1e3 * (time.perf_counter() - t0)
            log.warning("trial %d method %s failed numerically: %s", trial_index, method, exc)
            results.append(_nan_result(method, trial_index, seed, axis_value,
                                       system, layout, runtime_ms))
            continue
        runtime_ms = 1e3 * (time.perf_counter() - t0)
        results.append(TrialResult(
            method=method,
            trial_index=trial_index,
            seed=seed,
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
            sum_secrecy_se=report.sum_secrecy_se,
            common_min=report.common_min,
            runtime_ms=runtime_ms,
        ))
    return results


def _fmt(x: float) -> str:
    return "%.12g" % x


def _result_row(r: TrialResult) -> list[str]:
    return [
        r.method,
        str(r.trial_index),
        str(r.seed),
        "" if r.axis_value is None else _fmt(r.axis_value),
        _fmt(r.snr_db),
        str(r.n_antennas),
        str(r.n_users),
        str(r.n_secret),
        str(r.n_normal),
        str(r.n_eves),
        _fmt(r.kappa),
        _fmt(r.alpha),
        str(r.iterations),
        "true" if r.converged else "false",
        _fmt(r.smoothed_objective),
        _fmt(r.sum_secrecy_se),
        _fmt(r.common_min),
        _fmt(r.runtime_ms),
    ]


def _sweep_item(args) -> list[TrialResult]:
    config, axis_value, trial_index, axis_index = args
    return run_trial(config, axis_value, trial_index, axis_index)


def aggregate_path(out_path: str) -> str:
    if out_path.endswith(".csv"):
        return out_path[: -len(".csv")] + ".agg.csv"
    return out_path + ".agg.csv"


def run_sweep(
    config: ExperimentConfig,
    out_path: str,
    workers: int | None = None,
) -> tuple[str, str]:
    """Run the configured sweep and write per-trial plus aggregate CSVs.

    Trials are independent work items; with workers > 1 they are dispatched
    to a process pool, and rows are always written in deterministic
    (axis, trial, method) order regardless of worker count.
    """
    values: list[float | None] = list(config.sweep_values) if config.sweep_axis != "none" else [None]
    items = [
        (config, v, t, ai)
        for ai, v in enumerate(values)
        for t in range(config.trials)
    ]
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1 or len(items) == 1:
        batches = [_sweep_item(it) for it in items]
    else:
        chunk = max(1, len(items) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_sweep_item, items, chunksize=chunk))
    rows = [r for batch in batches for r in batch]

    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow(_result_row(r))

    agg = aggregate_path(out_path)
    with open(agg, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGG_COLUMNS)
        for v in values:
            for method in config.methods:
                vals = np.asarray([
                    r.sum_secrecy_se for r in rows
                    if r.method == method and (r.axis_value == v or (v is None and r.axis_value is None))
                ])
                stderr = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
                writer.writerow([
                    "" if v is None else _fmt(v),
                    method,
                    _fmt(float(vals.mean())),
                    _fmt(stderr),
                    str(vals.size),
                ])
    return out_path, agg


CONVERGE_COLUMNS = ["snr_db", "trial", "seed", "iteration", "step_norm", "objective", "lam"]


def run_convergence(
    config: ExperimentConfig,
    snr_list: list[float],
    out_path: str,
) -> str:
    """Per-iteration solve traces of the rate-splitting solver across SNRs.

    One CSV row per (snr, trial, iteration); iteration 0 carries the
    initializer objective and an empty step norm.  ``lam`` is the solver's
    stationarity multiplier estimate at that iterate.
    """
    if not snr_list:
        raise ConfigError("converge needs at least one SNR value")
    limited = config.csit_mode == "limited"
    build = build_quadforms_limited if limited else build_quadforms_perfect
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CONVERGE_COLUMNS)
        for si, snr in enumerate(snr_list):
            system = config.system.with_snr_db(snr)
            for trial in range(config.trials):
                seed = derive_seed(config.master_seed, si, trial)
                rng = np.random.default_rng(seed)
                realization = draw_scenario(system, config.layout, rng)
                knowledge = realization.user_estimates if limited else realization.user_channels
                qf = build(realization, system)
                _, trace = gpi_solve(qf, mrt_init(knowledge, rng), system)
                for it, step, obj, lam in trace.iterates:
                    writer.writerow([
                        _fmt(snr), str(trial), str(seed), str(it),
                        "" if math.isnan(step) else _fmt(step),
                        _fmt(obj), _fmt(lam),
                    ])
    return out_path
