"""One sweep in a fresh interpreter, started by perfbench/run.py.

    python3 perfbench/child.py CONFIG OUT_CSV WORKERS SPAWNED [--spans NPZ] [--setup-only]

SPAWNED is the parent's time.time() just before it started this process, so
setup_s covers interpreter start, the numpy, scipy and rsmasec imports and
the config parse, up to the entry into run_sweep.  Prints one JSON line.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("out_csv")
    parser.add_argument("workers", type=int)
    parser.add_argument("spawned", type=float)
    parser.add_argument("--spans", default=None, help="trace the sweep and save spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from rsmasec.harness import parse_config, run_sweep

    config = parse_config(args.config)
    tracer = None
    if args.spans:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    setup_s = time.time() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    t0 = time.perf_counter()
    try:
        run_sweep(config, args.out_csv, workers=args.workers)
        wall_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.save(args.spans)
        out.update(restored=tracer.restored(), missing=tracer.missing)
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
