"""Spatially correlated channel model.

Each terminal sees the array through a one-ring scatterer geometry: the
covariance of its channel is an average of steering outer products over a
narrow angular interval around the terminal's azimuth.  Channels are drawn
through the Karhunen-Loeve factorization of that covariance, and limited
CSIT is modeled as a quantized estimate whose error covariance is known in
closed form.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .config import SystemConfig

TWO_PI = 2.0 * math.pi


@lru_cache(maxsize=8)
def _gauss_nodes(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n_nodes)


def one_ring_covariance(
    aoa: float,
    spread: float,
    n_antennas: int,
    antenna_spacing: float = 0.5,
    n_nodes: int = 512,
) -> np.ndarray:
    """One-ring covariance of a uniform linear array for a terminal at ``aoa``.

    [R]_{a,b} = (1/2*spread) * integral over x in [aoa-spread, aoa+spread]
    of exp(-j*2*pi*(cos x, sin x) . (r_a - r_b)), with element a at
    (a * antenna_spacing, 0) in wavelengths.  Evaluated with fixed-node
    Gauss-Legendre quadrature (deterministic, sub-1e-9 accurate for these
    smooth oscillatory integrands).  Returns the Hermitian (N, N) matrix.
    """
    if spread <= 0:
        raise ValueError("angular spread must be positive")
    if n_nodes < 2:
        raise ValueError("n_nodes must be >= 2")
    x, w = _gauss_nodes(n_nodes)
    ang = aoa + spread * x
    # the array lies on the x-axis, so only cos(angle) enters the phase
    phase = TWO_PI * np.outer(antenna_spacing * np.arange(n_antennas), np.cos(ang))
    steer = np.exp(-1j * phase)
    # Interval substitution cancels the 1/(2*spread) prefactor down to 1/2.
    r = 0.5 * (steer * w) @ steer.conj().T
    return 0.5 * (r + r.conj().T)


def kl_decompose(cov: np.ndarray, trunc_rel: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Karhunen-Loeve factor ``(eigvecs, eigvals)`` of a Hermitian covariance,
    R ~= U diag(eigvals) U^H: the (N, rank) orthonormal eigenvectors and the
    (rank,) eigenvalues, descending, of the modes whose eigenvalue exceeds
    trunc_rel * max.  No mode is kept when the largest eigenvalue is not
    positive."""
    w, u = np.linalg.eigh(cov)
    w = w[::-1]
    u = u[:, ::-1]
    if w.size == 0 or w[0] <= 0:
        return u[:, :0], w[:0]
    keep = w > trunc_rel * w[0]
    return u[:, keep], w[keep]


def sample_channel(kl: tuple[np.ndarray, np.ndarray], rng: np.random.Generator) -> np.ndarray:
    """h = U diag(sqrt(eigvals)) zeta with zeta ~ CN(0, I), for ``kl`` =
    ``kl_decompose``'s (U, eigvals)."""
    eigvecs, eigvals = kl
    zeta = _cn_vector(eigvals.size, rng)
    return eigvecs @ (np.sqrt(eigvals) * zeta)


def fdd_estimate(
    h: np.ndarray,
    kl: tuple[np.ndarray, np.ndarray],
    kappa: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Quantized estimate of ``h`` plus its error.

    estimate = sqrt(1-kappa^2)*h + kappa*U diag(sqrt(eigvals)) v, v ~ CN(0, I);
    returns (estimate, h - estimate).  The perturbation v is drawn even at
    kappa = 0 so that seed-matched runs across kappa values share channel
    draws.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must be in [0, 1]")
    eigvecs, eigvals = kl
    v = _cn_vector(eigvals.size, rng)
    estimate = math.sqrt(1.0 - kappa**2) * h + kappa * (eigvecs @ (np.sqrt(eigvals) * v))
    return estimate, h - estimate


def error_covariance(cov: np.ndarray, kappa: float) -> np.ndarray:
    """E[(h - estimate)(h - estimate)^H] = (2 - 2*sqrt(1-kappa^2)) R for a
    channel of covariance ``cov`` = R (up to the modes KL truncation drops)."""
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must be in [0, 1]")
    return (2.0 - 2.0 * math.sqrt(1.0 - kappa**2)) * cov


def _cn_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)


@dataclass(frozen=True)
class ScenarioLayout:
    """Everything that positions terminals and shapes their statistics.

    ``user_mode`` selects how the K user azimuths are laid out:
      - "sector": equispaced across a sector of total width ``user_sector``
        centered at ``user_center`` (adjacent spacing = width / (K-1));
      - "spacing": fixed pairwise spacing ``user_spacing`` centered at
        ``user_center``.
    Eavesdropper azimuths are drawn uniformly from a sector of width
    ``eve_sector`` around ``eve_center`` (default: the full circle).
    """

    user_mode: str = "sector"
    user_sector: float = math.pi / 6
    user_spacing: float = math.pi / 6
    user_center: float = 0.0
    eve_center: float = 0.0
    eve_sector: float = TWO_PI
    angular_spread: float = math.pi / 6
    antenna_spacing: float = 0.5
    kappa: float = 0.4
    trunc_rel: float = 1e-10
    quad_nodes: int = 512

    def __post_init__(self) -> None:
        for name in ("user_sector", "user_spacing", "user_center", "eve_center", "eve_sector",
                     "angular_spread", "antenna_spacing", "kappa", "trunc_rel"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.user_mode not in ("sector", "spacing"):
            raise ValueError("user_mode must be 'sector' or 'spacing'")
        if self.angular_spread <= 0:
            raise ValueError("angular_spread must be positive")
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError("kappa must be in [0, 1]")
        if self.antenna_spacing <= 0:
            raise ValueError("antenna_spacing must be positive")
        if not 0.0 <= self.trunc_rel < 1.0:
            raise ValueError("trunc_rel must be in [0, 1)")
        if self.quad_nodes < 2:
            raise ValueError("quad_nodes must be >= 2")

    def user_aoas(self, n_users: int) -> np.ndarray:
        if n_users == 1:
            return np.asarray([self.user_center % TWO_PI])
        if self.user_mode == "sector":
            offsets = np.linspace(-self.user_sector / 2, self.user_sector / 2, n_users)
        else:
            offsets = (np.arange(n_users) - (n_users - 1) / 2) * self.user_spacing
        return (self.user_center + offsets) % TWO_PI


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of all channels plus the statistics the transmitter knows.

    Under limited CSIT the transmitter sees ``user_estimates``, ``error_covs``
    and the covariances; ``user_channels``/``eve_channels`` are ground truth
    used only for scoring.  Every covariance is a Hermitian (N, N) array.
    A realization made by ``stack`` puts a leading trial axis on every array.
    """

    user_channels: np.ndarray        # (K, N)
    eve_channels: np.ndarray         # (E, N)
    user_estimates: np.ndarray       # (K, N)
    error_covs: np.ndarray           # (K, N, N)
    user_covs: np.ndarray            # (K, N, N)
    eve_covs: np.ndarray             # (E, N, N)
    user_aoas: np.ndarray = field(default=None)
    eve_aoas: np.ndarray = field(default=None)

    @staticmethod
    def stack(realizations: Sequence["ChannelRealization"]) -> "ChannelRealization":
        """One realization with a leading trial axis over ``realizations``,
        which must share their dimensions."""
        first = realizations[0]
        return ChannelRealization(**{
            f.name: np.stack([getattr(r, f.name) for r in realizations])
            for f in fields(first) if getattr(first, f.name) is not None
        })

    def take(self, index) -> "ChannelRealization":
        """The trials ``index`` of a stacked realization (views for a slice)."""
        return ChannelRealization(**{
            f.name: getattr(self, f.name)[index]
            for f in fields(self) if getattr(self, f.name) is not None
        })

    @property
    def n_users(self) -> int:
        return self.user_channels.shape[-2]

    @property
    def n_eves(self) -> int:
        return self.eve_channels.shape[-2]

    @property
    def n_antennas(self) -> int:
        return self.user_channels.shape[-1]


@lru_cache(maxsize=128)
def _user_statistics(
    aoa: float,
    spread: float,
    n_antennas: int,
    antenna_spacing: float,
    n_nodes: int,
    trunc_rel: float,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Covariance and KL factor of a terminal at a layout-fixed azimuth.

    User azimuths depend only on the layout, so every trial of a sweep point
    shares them; the arrays are read-only because every caller shares them.
    """
    cov = one_ring_covariance(aoa, spread, n_antennas, antenna_spacing, n_nodes)
    kl = kl_decompose(cov, trunc_rel)
    for arr in (cov, *kl):
        arr.flags.writeable = False
    return cov, kl


def draw_scenario(
    config: SystemConfig,
    layout: ScenarioLayout,
    rng: np.random.Generator,
) -> ChannelRealization:
    """Place terminals, build their covariances, and draw one channel set.

    User statistics come from a cache keyed by azimuth and geometry;
    eavesdropper azimuths are drawn per trial, so theirs are rebuilt.
    """
    n = config.n_antennas
    k = config.n_users
    e = config.n_eves

    user_aoas = layout.user_aoas(k)
    eve_aoas = (
        layout.eve_center + layout.eve_sector * (rng.uniform(size=e) - 0.5)
    ) % TWO_PI

    h = np.zeros((k, n), dtype=complex)
    h_est = np.zeros((k, n), dtype=complex)
    user_covs = np.zeros((k, n, n), dtype=complex)
    for i in range(k):
        user_covs[i], kl = _user_statistics(
            float(user_aoas[i]), layout.angular_spread, n,
            layout.antenna_spacing, layout.quad_nodes, layout.trunc_rel,
        )
        h[i] = sample_channel(kl, rng)
        h_est[i], _ = fdd_estimate(h[i], kl, layout.kappa, rng)

    g = np.zeros((e, n), dtype=complex)
    eve_covs = np.zeros((e, n, n), dtype=complex)
    for i in range(e):
        eve_covs[i] = one_ring_covariance(
            eve_aoas[i], layout.angular_spread, n, layout.antenna_spacing, layout.quad_nodes,
        )
        g[i] = sample_channel(kl_decompose(eve_covs[i], layout.trunc_rel), rng)

    return ChannelRealization(
        user_channels=h,
        eve_channels=g,
        user_estimates=h_est,
        error_covs=error_covariance(user_covs, layout.kappa),
        user_covs=user_covs,
        eve_covs=eve_covs,
        user_aoas=user_aoas,
        eve_aoas=eve_aoas,
    )
