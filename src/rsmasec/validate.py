"""Self-checking acceptance suite runnable from the CLI.

Each check draws its own seeded scenarios, measures one documented property
of the implementation (oracle equivalence, bound tightness, solver fixed
points, statistical fidelity, trend orderings, determinism), and reports
pass/fail together with the measured numbers and wall time.  Every check
carries a runtime budget; exceeding it fails the check.

The oracle checks deliberately recompute their reference values through a
second code path (direct per-term arithmetic on channels and covariances)
so a defect in the block quadratic-form machinery cannot hide itself.
"""
from __future__ import annotations

import csv
import math
import os
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .baselines import mrt_init
from .channel import (
    ChannelRealization,
    ScenarioLayout,
    draw_scenario,
    error_covariance,
    kl_decompose,
    one_ring_covariance,
)
from .config import SystemConfig
from .harness import (
    ExperimentConfig,
    _known,
    _sweep_rows,
    aggregate,
    parse_config_text,
    run_sweep,
)
from .quadforms import (
    QuadFormSet,
    build_quadforms_limited,
    build_quadforms_perfect,
    smoothed_objective,
)
from .rates import lse_max, lse_min, sum_secrecy_se
from .solver import NumericError, _matvec, assemble_kkt, block_solve, gpi_solve_batch, kkt_residual


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    limit_seconds: float


def _unit_stack(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _max_abs(diff) -> float:
    """Largest absolute entry, with NaN promoted to +inf so it cannot hide
    behind Python's NaN-dropping max()."""
    a = np.abs(np.atleast_1d(np.asarray(diff, dtype=float)))
    if a.size == 0:
        return 0.0
    if np.isnan(a).any():
        return math.inf
    return float(a.max())


def _fig_shape_config(**overrides) -> SystemConfig:
    base = dict(n_antennas=4, n_secret=2, n_normal=2, n_eves=2)
    base.update(overrides)
    return SystemConfig(**base)


def _random_layout(rng: np.random.Generator, **overrides) -> ScenarioLayout:
    params = dict(user_center=float(rng.uniform(0.0, 2.0 * np.pi)))
    params.update(overrides)
    return ScenarioLayout(**params)


# --- direct second-route formulas for the limited-knowledge bounds ---------


def _direct_limited_rates(realization, config, fb: np.ndarray):
    """Lower-bound rates and collusion leakage computed term by term."""
    k = config.n_users
    est = realization.user_estimates
    phi = realization.error_covs
    ridge = config.noise_user_ratio

    def quad(mat, v) -> float:
        return float((v.conj() @ mat @ v).real)

    powers = np.abs(np.conj(est) @ fb.T) ** 2   # (K, K+1)
    phi_all = np.array([[quad(phi[i], fb[b]) for b in range(k + 1)] for i in range(k)])

    common = np.empty(k)
    private = np.empty(k)
    for i in range(k):
        den_c = powers[i, 1:].sum() + phi_all[i].sum() + ridge
        common[i] = math.log2(1.0 + powers[i, 0] / den_c)
        den_p = powers[i, 1:].sum() - powers[i, 1 + i] + phi_all[i, 1:].sum() + ridge
        private[i] = math.log2(1.0 + powers[i, 1 + i] / den_p)

    leak = np.empty(config.n_secret)
    for s in range(config.n_secret):
        total = 0.0
        for e in range(config.n_eves):
            cov = realization.eve_covs[e]
            num = quad(cov, fb[1 + s])
            den = sum(quad(cov, fb[b]) for b in range(k + 1) if b != 1 + s)
            total += num / (den + config.noise_eve_ratio)
        for u in range(k):
            if u == s:
                continue
            cov = realization.user_covs[u]
            num = quad(cov, fb[1 + s])
            den = sum(
                quad(cov, fb[1 + j]) for j in range(k) if j not in (u, s)
            )
            total += num / (den + ridge)
        leak[s] = math.log2(1.0 + total)
    return common, private, leak


# --- individual checks ------------------------------------------------------


def _check_quadform_oracle() -> tuple[bool, str]:
    """Every rate through the block pairs matches direct formulas to 1e-10."""
    config = _fig_shape_config()
    worst = 0.0
    for i in range(1000):
        rng = np.random.default_rng(20_000 + i)
        realization = draw_scenario(config, _random_layout(rng), rng)
        fb = _unit_stack(rng, 5 * config.n_antennas).reshape(5, config.n_antennas)
        if i % 2 == 0:
            qf = build_quadforms_perfect(realization, config)
            report = sum_secrecy_se(realization, fb, config)
            with np.errstate(invalid="ignore"):
                vals = qf.evaluate(fb)
                worst = max(worst, _max_abs(vals.common_rates() - report.common_per_user))
                worst = max(worst, _max_abs(vals.private_rates() - report.private_per_user))
                worst = max(worst, _max_abs(
                    np.log2(vals.leak_ratios()) - report.leakage_per_wiretapper))
        else:
            qf = build_quadforms_limited(realization, config)
            with np.errstate(invalid="ignore"):
                vals = qf.evaluate(fb)
                common, private, leak = _direct_limited_rates(realization, config, fb)
                worst = max(worst, _max_abs(vals.common_rates() - common))
                worst = max(worst, _max_abs(vals.private_rates() - private))
                worst = max(worst, _max_abs(vals.smoothed_leakages(config.smoothing) - leak))
    return worst <= 1e-10, f"max |rate difference| = {worst:.3e} bits (limit 1e-10)"


def _check_lse_sandwich() -> tuple[bool, str]:
    """lse_min in [min - a*ln n, min], lse_max in [max, max + a*ln n]."""
    rng = np.random.default_rng(31_000)
    slack = 1e-12
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        v = rng.normal(0.0, 5.0, size=n)
        for alpha in (1.0, 0.3, 0.01):
            width = alpha * math.log(n)
            smin, smax = lse_min(v, alpha), lse_max(v, alpha)
            margins = np.asarray([
                smin - (v.min() - width),
                v.min() - smin,
                smax - v.max(),
                (v.max() + width) - smax,
            ])
            worst = max(worst, _max_abs(np.minimum(margins, 0.0)))
    return worst <= slack, f"largest bound violation = {worst:.3e} (fp slack 1e-12)"


def _check_gradient_consistency() -> tuple[bool, str]:
    """KKT stationarity direction matches numeric gradients of the objective."""
    config = _fig_shape_config()
    h = 1e-6
    worst = 1.0
    for variant in ("perfect", "limited"):
        build = build_quadforms_perfect if variant == "perfect" else build_quadforms_limited
        for i in range(50):
            rng = np.random.default_rng(42_000 + i)
            realization = draw_scenario(config, _random_layout(rng), rng)
            qf = build(realization, config)
            f = _unit_stack(rng, math.prod(qf.shape))

            smoothed = qf.evaluate(f.reshape(qf.shape)).smoothed(config.smoothing, False)
            a_op, b_op = assemble_kkt(qf, smoothed)
            d = _matvec(a_op, f) - _matvec(b_op, f)
            analytic = np.concatenate([d.real, d.imag])

            x = np.concatenate([f.real, f.imag])
            numeric = np.zeros_like(x)
            for j in range(x.size):
                step = np.zeros_like(x)
                step[j] = h
                hi = ((x + step)[: f.size] + 1j * (x + step)[f.size:]).reshape(qf.shape)
                lo = ((x - step)[: f.size] + 1j * (x - step)[f.size:]).reshape(qf.shape)
                numeric[j] = (
                    smoothed_objective(qf, hi / np.linalg.norm(hi), config)
                    - smoothed_objective(qf, lo / np.linalg.norm(lo), config)
                ) / (2.0 * h)
            cos = float(
                numeric @ analytic
                / (np.linalg.norm(numeric) * np.linalg.norm(analytic))
            )
            if not math.isfinite(cos):
                cos = -1.0
            worst = min(worst, cos)
    return worst >= 0.999, f"min gradient cosine = {worst:.6f} (limit 0.999)"


def _residual(qf: QuadFormSet, solution: np.ndarray, config: SystemConfig) -> float:
    """``kkt_residual`` at a solution; a nonfinite one or a NumericError counts as +inf."""
    if not np.isfinite(solution).all():
        return math.inf
    try:
        return kkt_residual(qf, solution, config)
    except NumericError:
        return math.inf


def _check_fixed_point_residual() -> tuple[bool, str]:
    """Residual of the returned precoder under the iteration map."""
    config = _fig_shape_config(epsilon=1e-4, t_max=500).with_snr_db(20.0)
    draws = []
    for i in range(200):
        rng = np.random.default_rng(1000 + i)
        draws.append(draw_scenario(config, _random_layout(rng), rng))
    residuals = []
    for mode, half in (("perfect", draws[:100]), ("limited", draws[100:])):   # one batch per CSIT mode
        knowledge, qf = _known(mode, ChannelRealization.stack(half), config)
        solutions, _ = gpi_solve_batch(qf, mrt_init(knowledge), config)
        residuals += [_residual(qf.take(i), solution, config) for i, solution in enumerate(solutions)]
    passed = sum(res <= 1e-3 for res in residuals)
    return passed >= 190, f"{passed}/200 residuals <= 1e-3 (need 190); max = {max(residuals):.3e}"


def _check_block_solve() -> tuple[bool, str]:
    """Per-block Hermitian solves agree with one dense solve."""
    rng = np.random.default_rng(52_000)
    n, k = 8, 8
    worst = 0.0
    for _ in range(100):
        blocks = np.empty((k + 1, n, n), dtype=complex)
        dense = np.zeros(((k + 1) * n, (k + 1) * n), dtype=complex)
        for b in range(k + 1):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            blocks[b] = g @ g.conj().T + (0.1 + rng.uniform()) * np.eye(n)
            dense[b * n:(b + 1) * n, b * n:(b + 1) * n] = blocks[b]
        rhs = _unit_stack(rng, (k + 1) * n)
        x_blocks = block_solve(blocks, rhs)
        x_dense = np.linalg.solve(dense, rhs)
        worst = max(worst, _max_abs(
            np.linalg.norm(x_blocks - x_dense) / np.linalg.norm(x_dense)))
    return worst <= 1e-8, f"max relative solve error = {worst:.3e} (limit 1e-8)"


def _check_convergence_speed() -> tuple[bool, str]:
    """Iteration counts at the default tolerance across SNR."""
    iters: list[int] = []
    converged = 0
    for snr in (0.0, 10.0, 20.0, 30.0):
        config = ExperimentConfig(
            system=_fig_shape_config().with_snr_db(snr),
            layout=ScenarioLayout(),
            csit_mode="limited",
            methods=("gpi-rsma",),
            trials=100,
            master_seed=61_000,
        )
        for row in _sweep_rows(config, workers=1):
            iters.append(row.iterations)
            converged += row.converged
    median = float(np.median(iters))
    frac = converged / len(iters)
    ok = median <= 20.0 and frac >= 0.95
    return ok, f"median iterations = {median:.1f} (limit 20); converged {frac:.1%} (need 95%)"


def _monotone(config: ExperimentConfig, direction: str) -> tuple[bool, str]:
    """Adjacent axis means of the one method ordered as required, within one
    pooled standard error."""
    means = list(aggregate(_sweep_rows(config, workers=1)).values())
    ok = True
    for (m0, s0, _), (m1, s1, _) in zip(means, means[1:]):
        pooled = math.hypot(s0, s1)
        if direction == "non-increasing":
            ok &= m1 <= m0 + pooled
        else:
            ok &= m1 >= m0 - pooled
    shown = ", ".join(f"{m:.3f}±{s:.3f}" for m, s, _ in means)
    return ok, shown


def _check_ordering_rsma_sdma() -> tuple[bool, str]:
    """Rate splitting beats plain private-stream precoding on its home turf."""
    config = ExperimentConfig(
        system=SystemConfig(n_antennas=4, n_secret=4, n_normal=0, n_eves=0).with_snr_db(20.0),
        layout=ScenarioLayout(),
        csit_mode="limited",
        methods=("gpi-rsma", "gpi-sdma"),
        trials=100,
        master_seed=71_000,
    )
    means = aggregate(_sweep_rows(config, workers=1))
    rsma, sdma = means[None, "gpi-rsma"][0], means[None, "gpi-sdma"][0]
    return rsma >= sdma, f"mean secrecy SE: rate-splitting {rsma:.3f} vs private-only {sdma:.3f}"


def _check_trend(
    axis: str, values: tuple[float, ...], seed: int, direction: str, label: str,
) -> tuple[bool, str]:
    """Limited-CSIT rate-splitting mean SE at 20 dB moves in ``direction``
    along ``axis`` (100 trials per value)."""
    config = ExperimentConfig(
        system=_fig_shape_config().with_snr_db(20.0),
        layout=ScenarioLayout(),
        csit_mode="limited",
        methods=("gpi-rsma",),
        sweep_axis=axis,
        sweep_values=values,
        trials=100,
        master_seed=seed,
    )
    ok, shown = _monotone(config, direction)
    return ok, f"mean secrecy SE over {label}: {shown}"


def _check_collusion_bound() -> tuple[bool, str]:
    """Covariance-hardened ratio sum tracks the Monte Carlo expectation.

    Eight wiretappers with distinct one-ring covariances observe a fixed
    precoder stack; the deterministic log2(1 + sum of quadratic-form ratios)
    must sit within 10% of the sampled E[log2(1 + sum X_i/Y_i)].
    """
    n, n_streams, n_taps, draws = 8, 5, 8, 100_000
    rng = np.random.default_rng(81_000)
    fb = _unit_stack(rng, n_streams * n).reshape(n_streams, n)
    secret_col = 1
    noise = 0.01   # noise-to-power ratio at the wiretappers

    approx_sum = 0.0
    mc_ratio_sum = np.zeros(draws)
    for w in range(n_taps):
        aoa = 2.0 * np.pi * w / n_taps + rng.uniform(-0.1, 0.1)
        cov = one_ring_covariance(aoa, np.pi / 6.0, n)
        eigvecs, eigvals = kl_decompose(cov)

        quads = np.einsum("si,ij,sj->s", fb.conj(), cov, fb).real
        approx_sum += quads[secret_col] / (quads.sum() - quads[secret_col] + noise)

        root = eigvecs * np.sqrt(eigvals)
        zeta = (rng.standard_normal((draws, root.shape[1]))
                + 1j * rng.standard_normal((draws, root.shape[1]))) / math.sqrt(2.0)
        g = zeta @ root.T
        powers = np.abs(g @ fb.conj().T) ** 2
        mc_ratio_sum += powers[:, secret_col] / (
            powers.sum(axis=1) - powers[:, secret_col] + noise)

    approx = math.log2(1.0 + approx_sum)
    mc = float(np.log2(1.0 + mc_ratio_sum).mean())
    rel = abs(mc - approx) / abs(mc)
    return rel <= 0.10, f"MC {mc:.4f} vs deterministic {approx:.4f}; relative error {rel:.3%}"


def _check_channel_statistics() -> tuple[bool, str]:
    """Drawn channels and estimation errors reproduce their covariances.

    One user at pi/5 (N=4, kappa=0.4) drawn through ``draw_scenario``, the
    path sweeps run: one generator per draw, in chunks of ``chunk`` draws."""
    n, draws, kappa, chunk = 4, 100_000, 0.4, 10_000
    system = SystemConfig(n_antennas=n, n_secret=1, n_normal=0, n_eves=0)
    layout = ScenarioLayout(user_center=np.pi / 5.0, kappa=kappa)
    seeds = np.random.SeedSequence(91_000).spawn(draws)
    emp_h = np.zeros((n, n), dtype=complex)
    emp_e = np.zeros((n, n), dtype=complex)
    for lo in range(0, draws, chunk):
        real = draw_scenario(system, layout, [np.random.default_rng(s) for s in seeds[lo:lo + chunk]])
        channels = real.user_channels[:, 0]
        errors = channels - real.user_estimates[:, 0]
        emp_h += channels.T @ channels.conj()
        emp_e += errors.T @ errors.conj()
    emp_h /= draws
    emp_e /= draws

    cov = one_ring_covariance(np.pi / 5.0, layout.angular_spread, n)
    rel_h = float(np.linalg.norm(emp_h - cov) / np.linalg.norm(cov))
    target_e = error_covariance(cov, kappa)
    rel_e = float(np.linalg.norm(emp_e - target_e) / np.linalg.norm(target_e))
    worst = max(rel_h, rel_e)
    return worst <= 0.05, (
        f"relative Frobenius error: channels {rel_h:.3%}, errors {rel_e:.3%} (limit 5%)"
    )


_DETERMINISM_CONFIG = """
n_antennas = 4
n_secret = 2
n_normal = 2
n_eves = 2
snr_db = 20
csit_mode = limited
methods = gpi-rsma, mrt
sweep_axis = snr_db
sweep_values = 0, 20
trials = 5
master_seed = 77
"""


def _strip_runtime(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("runtime_ms")
    return [row[:drop] + row[drop + 1:] for row in rows]


def _check_determinism() -> tuple[bool, str]:
    """Same config, same rows, independent of repetition and worker count."""
    config = parse_config_text(_DETERMINISM_CONFIG)
    with tempfile.TemporaryDirectory() as tmp:
        a = os.path.join(tmp, "a.csv")
        b = os.path.join(tmp, "b.csv")
        _, agg_a = run_sweep(config, a, workers=1)
        _, agg_b = run_sweep(config, b, workers=2)
        same_rows = _strip_runtime(a) == _strip_runtime(b)
        with open(agg_a, encoding="utf-8") as fa, open(agg_b, encoding="utf-8") as fb:
            same_agg = fa.read() == fb.read()
        n_rows = len(_strip_runtime(a)) - 1
    ok = same_rows and same_agg
    return ok, (
        f"{n_rows} rows identical across serial and 2-worker runs: {same_rows}; "
        f"aggregates identical: {same_agg}"
    )


CHECKS: tuple[tuple[str, float, Callable[[], tuple[bool, str]]], ...] = (
    ("quadform-oracle", 30.0, _check_quadform_oracle),
    ("lse-sandwich", 5.0, _check_lse_sandwich),
    ("gradient-consistency", 120.0, _check_gradient_consistency),
    ("fixed-point-residual", 300.0, _check_fixed_point_residual),
    ("block-solve", 60.0, _check_block_solve),
    ("convergence-speed", 600.0, _check_convergence_speed),
    ("ordering-rsma-sdma", 450.0, _check_ordering_rsma_sdma),
    ("ordering-eavesdroppers", 450.0, partial(
        _check_trend, "n_eves", (0.0, 2.0, 4.0), 72_000, "non-increasing",
        "eavesdropper counts (0,2,4)")),
    ("ordering-separation", 450.0, partial(
        _check_trend, "angular_separation", (math.pi / 18.0, math.pi / 6.0, math.pi / 3.0),
        73_000, "non-decreasing", "user spacings (pi/18, pi/6, pi/3)")),
    ("ordering-kappa", 450.0, partial(
        _check_trend, "kappa", (0.0, 0.4, 0.8), 74_000, "non-increasing",
        "estimation-error levels (0, 0.4, 0.8)")),
    ("collusion-bound", 120.0, _check_collusion_bound),
    ("channel-statistics", 120.0, _check_channel_statistics),
    ("determinism", 300.0, _check_determinism),
)


def run_validate(name_filter: str | None = None) -> list[CheckResult]:
    """Run every check whose name contains ``name_filter`` (all when None)."""
    results = []
    for name, limit, func in CHECKS:
        if name_filter and name_filter not in name:
            continue
        start = time.perf_counter()
        passed, detail = func()
        elapsed = time.perf_counter() - start
        if elapsed > limit:
            passed = False
            detail += f"; exceeded {limit:.0f}s budget"
        results.append(CheckResult(name, passed, detail, elapsed, limit))
    return results
