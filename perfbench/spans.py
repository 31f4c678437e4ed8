"""In-memory span recorder for the traced benchmark run.

The tracer rebinds the module attributes that rsmasec looks up at call time,
so each call into a layer records one span (name, start, end, parent span,
trial index) with no change to the package.  ``restore`` puts every original
attribute back.  Spans stay in memory until ``save`` writes them out, and
``layer_metrics`` derives the per-layer numbers from the saved file.
"""
from __future__ import annotations

import importlib
import time

import numpy as np

# (owner, attribute, span name).  Each entry is a binding that the harness,
# the solver or the baselines actually look up, so wrapping it sees every call
# made through that module.  Bindings a later version no longer has are skipped
# and reported as missing.
BINDINGS = (
    ("rsmasec.harness", "run_trial", "run_trial"),
    ("rsmasec.harness", "draw_scenario", "draw_scenario"),
    ("rsmasec.channel", "one_ring_covariance", "one_ring_covariance"),
    ("rsmasec.channel", "kl_decompose", "kl_decompose"),
    ("rsmasec.harness", "build_quadforms_limited", "build_quadforms"),
    ("rsmasec.harness", "build_quadforms_perfect", "build_quadforms"),
    ("rsmasec.baselines", "build_quadforms_limited", "build_quadforms"),
    ("rsmasec.baselines", "build_quadforms_perfect", "build_quadforms"),
    ("rsmasec.quadforms:QuadFormSet", "evaluate", "evaluate"),
    ("rsmasec.solver", "assemble_kkt", "assemble_kkt"),
    ("rsmasec.solver", "block_solve", "block_solve"),
    ("rsmasec.solver", "gpi_solve_vector", "gpi_solve_vector"),
    ("rsmasec.baselines", "gpi_solve_vector", "gpi_solve_vector"),
    ("rsmasec.rates", "lse_min", "lse"),
    ("rsmasec.rates", "lse_max", "lse"),
    ("rsmasec.solver", "lse_min", "lse"),
    ("rsmasec.quadforms", "lse_min", "lse"),
    ("rsmasec.quadforms", "lse_max", "lse"),
    ("rsmasec.harness", "smoothed_objective", "smoothed_objective"),
    ("rsmasec.harness", "sum_secrecy_se", "sum_secrecy_se"),
    ("rsmasec.harness", "mrt_init", "mrt_init"),
    ("rsmasec.harness", "rzf_precoder", "rzf_precoder"),
)

# Direct children of a solve that are not counted in solver.loop_self_ms.
LOOP_CHILDREN = ("evaluate", "assemble_kkt", "block_solve")


def binding_owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls, None) if cls else obj


def array_bytes(obj, seen: set | None = None) -> int:
    """Bytes of every numpy array reachable from ``obj`` through its fields."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(x, seen) for x in obj)
    if isinstance(obj, dict):
        return sum(array_bytes(x, seen) for x in obj.values())
    if hasattr(obj, "__dict__"):
        return array_bytes(vars(obj), seen)
    return 0


class Tracer:
    """Records spans for every call through the wrapped bindings (single thread)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[float]] = []   # [name id, start, end, parent, trial]
        self.stack_bytes: list[int] = []     # computed size of each built quad-form set
        self.missing: list[str] = []
        self._open: list[int] = []
        self._trial = -1
        self._trials = 0
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for path, attr, name in BINDINGS:
            owner = binding_owner(path)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{path}.{attr}")
                continue
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, name))
            self._saved.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)

    def restored(self) -> bool:
        return all(vars(owner)[attr] is original for owner, attr, original in self._saved)

    def _wrap(self, original, name: str):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, open_spans, clock = self.spans, self._open, time.perf_counter
        is_trial = name == "run_trial"
        is_build = name == "build_quadforms"

        def traced(*args, **kwargs):
            if is_trial:
                self._trial = self._trials
                self._trials += 1
            span = [nid, 0.0, 0.0, open_spans[-1] if open_spans else -1, self._trial]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
                if is_trial:
                    self._trial = -1
            if is_build:
                self.stack_bytes.append(array_bytes(result))
            return result

        return traced

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.asarray(self.names),
            spans=np.asarray(self.spans, dtype=float).reshape(-1, 5),
            stack_bytes=np.asarray(self.stack_bytes, dtype=float),
        )


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans_path: str, rows: list[dict], traced_wall: float) -> tuple[dict, list[str]]:
    """Per-layer metrics and a per-span-name table from one traced sweep.

    ``rows`` are the sweep's CSV rows and ``traced_wall`` the traced
    run_sweep wall time.  Times per call are means over all calls.
    """
    with np.load(spans_path) as data:
        names = [str(n) for n in data["names"]]
        spans = data["spans"]
        stack_bytes = data["stack_bytes"]
    name = spans[:, 0].astype(int)
    dur = spans[:, 2] - spans[:, 1]
    parent = spans[:, 3].astype(int)
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(spans))
    self_time = dur - child_sum

    def mask(n: str) -> np.ndarray:
        return name == names.index(n) if n in names else np.zeros(len(spans), bool)

    def mean_ms(n: str) -> float:
        m = mask(n)
        return 1e3 * float(dur[m].mean()) if m.any() else 0.0

    # Nearest enclosing solve of every span (spans are stored in start order,
    # so a parent always precedes its children).
    is_solve = mask("gpi_solve_vector")
    in_solve = np.zeros(len(spans), bool)
    for i in range(len(spans)):
        p = parent[i]
        in_solve[i] = p >= 0 and (is_solve[p] or in_solve[p])

    loop_child = np.zeros(len(spans), bool)
    for n in LOOP_CHILDREN:
        loop_child |= mask(n)
    loop_child &= has_parent
    loop_child_sum = np.bincount(parent[loop_child], weights=dur[loop_child], minlength=len(spans))

    gpi_rows = [r for r in rows if r["method"].startswith("gpi")]
    iterations = [int(r["iterations"]) for r in gpi_rows]
    total_iterations = max(sum(iterations), 1)
    solves = max(int(is_solve.sum()), 1)
    trials = max(int(mask("run_trial").sum()), 1)
    trial_ms = 1e3 * dur[mask("run_trial")]
    lse = mask("lse")

    metrics = {
        "channel.draw_ms": (mean_ms("draw_scenario"), "ms"),
        "channel.covariance_ms": (mean_ms("one_ring_covariance"), "ms"),
        "channel.covariance_calls_per_trial": (mask("one_ring_covariance").sum() / trials, "count"),
        "channel.kl_ms": (mean_ms("kl_decompose"), "ms"),
        "quadforms.build_ms": (mean_ms("build_quadforms"), "ms"),
        "quadforms.build_calls_per_trial": (mask("build_quadforms").sum() / trials, "count"),
        "quadforms.stack_mb": (float(stack_bytes.max()) / 2**20 if stack_bytes.size else 0.0, "MiB"),
        "quadforms.evaluate_ms": (mean_ms("evaluate"), "ms"),
        "quadforms.evaluate_calls_per_solve": ((mask("evaluate") & in_solve).sum() / solves, "count"),
        "quadforms.objective_ms": (mean_ms("smoothed_objective"), "ms"),
        "solver.solve_ms": (mean_ms("gpi_solve_vector"), "ms"),
        "solver.iterations_p50": (_percentile(iterations, 50), "count"),
        "solver.iterations_p90": (_percentile(iterations, 90), "count"),
        "solver.iteration_ms": (1e3 * dur[is_solve].sum() / total_iterations, "ms"),
        "solver.assemble_ms": (mean_ms("assemble_kkt"), "ms"),
        "solver.block_solve_ms": (mean_ms("block_solve"), "ms"),
        "solver.loop_self_ms": (
            1e3 * (dur[is_solve] - loop_child_sum[is_solve]).sum() / total_iterations, "ms"),
        "rates.score_ms": (mean_ms("sum_secrecy_se"), "ms"),
        "rates.lse_calls_per_iteration": ((lse & in_solve).sum() / total_iterations, "count"),
        "rates.lse_ms": (mean_ms("lse"), "ms"),
        "baselines.mrt_ms": (mean_ms("mrt_init"), "ms"),
        "baselines.rzf_ms": (mean_ms("rzf_precoder"), "ms"),
        "harness.trial_ms_p50": (_percentile(trial_ms, 50), "ms"),
        "harness.trial_ms_p90": (_percentile(trial_ms, 90), "ms"),
        "harness.write_s": (traced_wall - float(dur[mask("run_trial")].sum()), "s"),
    }
    metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}

    table = [f"{'span':<22}{'calls':>9}{'total_ms':>12}{'self_ms':>12}"]
    for nid, n in enumerate(names):
        m = name == nid
        table.append(f"{n:<22}{int(m.sum()):>9}{1e3 * dur[m].sum():>12.2f}{1e3 * self_time[m].sum():>12.2f}")
    return metrics, table

