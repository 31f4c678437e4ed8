"""Command-line front end: sweeps, convergence traces, single trials, checks.

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 one or more
validation checks failed, 4 numeric error (a ``converge`` solve that
failed, which writes no file).  The master seed from the config file can be
overridden with the RSMASEC_MASTER_SEED environment variable, and
``sweep``/``converge`` write to the config's ``output_path`` (relative to
the current directory) unless ``--out`` is given.
"""
from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time
from dataclasses import replace

from .harness import (
    CSV_COLUMNS,
    SEED_ENV_VAR,
    ConfigError,
    ExperimentConfig,
    parse_config,
    run_convergence,
    run_sweep,
    _rows,
    _run_chunk,
)
from .solver import NumericError
from .validate import run_validate


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsmasec",
        description="Secure rate-splitting precoder experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep to CSV")
    sweep.add_argument("--config", required=True, help="experiment config file")
    sweep.add_argument("--out", default=None,
                       help="per-trial CSV output path (default: the config's output_path)")
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: available cores)")

    conv = sub.add_parser("converge", help="record per-iteration solver traces")
    conv.add_argument("--config", required=True, help="experiment config file")
    conv.add_argument("--snr", required=True,
                      help="comma-separated SNR values in dB, e.g. 0,10,20,30")
    conv.add_argument("--out", default=None,
                      help="trace CSV output path (default: the config's output_path)")

    single = sub.add_parser("single", help="run one trial and print its rows")
    single.add_argument("--config", required=True, help="experiment config file")
    single.add_argument("--seed", required=True, type=int, help="master seed for the trial")

    val = sub.add_parser("validate", help="run the acceptance checks")
    val.add_argument("--filter", default=None,
                     help="only run checks whose name contains this substring")
    return parser


def _with_seed(config: ExperimentConfig, seed: int, source: str) -> ExperimentConfig:
    if seed < 0:
        raise ConfigError(f"{source} must be >= 0, got {seed}")
    return replace(config, master_seed=seed)


def _load_config(path: str) -> ExperimentConfig:
    config = parse_config(path)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
        config = _with_seed(config, seed, SEED_ENV_VAR)
    return config


def _parse_snr_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad SNR list {text!r}")
    if not values:
        raise ConfigError("SNR list is empty")
    return values


def _out_path(out: str | None, config: ExperimentConfig) -> str:
    """``--out``, else the config's output_path; its parent directory is created."""
    out = out or config.output_path
    if not out:
        raise ConfigError("no --out given and the config sets no output_path")
    pathlib.Path(out).parent.mkdir(parents=True, exist_ok=True)
    return out


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "sweep":
        if args.workers is not None and args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        config = _load_config(args.config)
        out = _out_path(args.out, config)
        start = time.perf_counter()
        rows_path, agg_path = run_sweep(config, out, workers=args.workers)
        print(f"wrote {rows_path} and {agg_path} ({time.perf_counter() - start:.1f}s)")
        return 0

    if args.command == "converge":
        config = _load_config(args.config)
        snr_list = _parse_snr_list(args.snr)
        out = _out_path(args.out, config)
        start = time.perf_counter()
        run_convergence(config, snr_list, out)
        print(f"wrote {out} ({time.perf_counter() - start:.1f}s)")
        return 0

    if args.command == "single":
        config = _load_config(args.config)
        config = _with_seed(config, args.seed, "--seed")
        chunk = _run_chunk(config, [(None, 0, range(1))])
        print("\n".join([",".join(CSV_COLUMNS), *_rows(chunk, text=True)]))
        return 0

    if args.command == "validate":
        results = run_validate(args.filter)
        if not results:
            raise ConfigError(f"no check matches filter {args.filter!r}")
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.name} ({r.seconds:.1f}s): {r.detail}")
        failed = sum(not r.passed for r in results)
        print(f"{len(results) - failed}/{len(results)} checks passed")
        return 3 if failed else 0

    raise ConfigError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
