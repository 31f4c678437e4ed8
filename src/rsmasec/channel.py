"""Spatially correlated channel model.

Each terminal sees the array through a one-ring scatterer geometry: the
covariance of its channel is an average of steering outer products over a
narrow angular interval around the terminal's azimuth.  Channels are drawn
through the Karhunen-Loeve factorization of that covariance, and limited
CSIT is modeled as a quantized estimate whose error covariance is known in
closed form.  ``draw_scenario`` draws a whole set of trials in one pass,
each from its own generator.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .config import SystemConfig

TWO_PI = 2.0 * math.pi


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_{n-1}(x)) by the three-term recurrence
    P_{j+1} = ((2j+1) x P_j - j P_{j-1}) / (j+1)."""
    prev, p, nxt = np.ones_like(x), x.copy(), np.empty_like(x)
    for j in range(1, n):
        np.multiply(x, p, out=nxt)
        nxt *= (2 * j + 1) / (j + 1)
        prev *= j / (j + 1)
        nxt -= prev
        prev, p, nxt = p, nxt, prev
    return p, prev


@lru_cache(maxsize=8)
def _gauss_nodes(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the three-term recurrence, started from Tricomi's
    asymptotic estimates of the nonnegative nodes (Hale & Townsend, SIAM J.
    Sci. Comput. 2013); the rest follow by symmetry.  O(n^2) work, against
    the dense n x n companion eigenproblem of ``numpy``'s ``leggauss``.  The
    weight 2 / ((1 - x^2) P_n'(x)^2) uses P_n'(x) = n (x P_n - P_{n-1}) /
    (x^2 - 1), evaluated at the converged node.
    """
    n = n_nodes
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[-1] = 0.0   # the middle node; P_n(0) = 0 exactly for odd n
    for _ in range(20):   # converges quadratically; three or four steps in practice
        p, prev = _legendre(n, x)
        step = p * (x * x - 1.0) / (n * (x * p - prev))
        x -= step
        if np.abs(step).max() < 1e-14:
            break
    p, prev = _legendre(n, x)
    w = 2.0 * (1.0 - x * x) / (n * (x * p - prev)) ** 2
    half = n // 2   # the nodes that are strictly positive, descending
    return (np.concatenate([-x[:half], x[half:], x[:half][::-1]]),
            np.concatenate([w[:half], w[half:], w[:half][::-1]]))


# Covariances per quadrature block of ``one_ring_covariance``: bounds the node
# powers it holds at once, whatever the number of terminals.
_COV_BLOCK = 32


def one_ring_covariance(
    aoa,
    spread: float,
    n_antennas: int,
    antenna_spacing: float = 0.5,
    n_nodes: int = 512,
) -> np.ndarray:
    """One-ring covariances of a uniform linear array for terminals at ``aoa``.

    [R]_{a,b} = (1/2*spread) * integral over x in [aoa-spread, aoa+spread]
    of exp(-j*2*pi*(cos x, sin x) . (r_a - r_b)), with element a at
    (a * antenna_spacing, 0) in wavelengths.  The entry depends on a - b
    only, so R is the Hermitian Toeplitz matrix of its first column
    c[m] = (1/2) sum_k w_k z_k^m, with z_k = exp(-j*2*pi*antenna_spacing*cos x_k)
    at the Gauss-Legendre nodes x_k (weights w_k) of the interval: one
    exponential per node, its powers by repeated multiplication
    (deterministic, sub-1e-9 accurate for these smooth oscillatory
    integrands).  ``aoa`` is a float or an array; returns the Hermitian
    (*aoa.shape, N, N) stack.  Each covariance is a function of its own
    azimuth alone, to the bit.
    """
    if spread <= 0:
        raise ValueError("angular spread must be positive")
    if n_nodes < 2:
        raise ValueError("n_nodes must be >= 2")
    x, w = _gauss_nodes(n_nodes)
    aoa = np.asarray(aoa, dtype=float)
    flat = aoa.reshape(-1, 1)
    # interval substitution cancels the 1/(2*spread) prefactor down to 1/2
    half_w = 0.5 * w
    col = np.empty((flat.shape[0], n_antennas), dtype=complex)
    col[:, 0] = half_w.sum()
    for lo in range(0, flat.shape[0], _COV_BLOCK):
        # z = exp(-j*phase), its parts from cos and sin: the same bits, half the time
        phase = TWO_PI * antenna_spacing * np.cos(flat[lo:lo + _COV_BLOCK] + spread * x)
        z = np.empty(phase.shape, dtype=complex)
        np.cos(phase, out=z.real)
        np.negative(np.sin(phase), out=z.imag)
        power = half_w * z   # C order: each row sums over its own contiguous nodes
        for m in range(1, n_antennas):
            col[lo:lo + _COV_BLOCK, m] = power.sum(axis=-1)
            if m + 1 < n_antennas:
                power *= z
    lag = np.subtract.outer(np.arange(n_antennas), np.arange(n_antennas))
    below = col[:, np.abs(lag)]
    r = np.where(lag >= 0, below, below.conj())
    return r.reshape(*aoa.shape, n_antennas, n_antennas)


def kl_decompose(cov: np.ndarray, trunc_rel: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Karhunen-Loeve factor ``(eigvecs, eigvals)`` of Hermitian covariances,
    R ~= U diag(eigvals) U^H, eigenvalues descending.  A mode is kept when
    its eigenvalue exceeds trunc_rel * max, and none is when the largest
    eigenvalue is not positive.  For one (N, N) covariance: the (N, rank)
    orthonormal eigenvectors and the (rank,) kept eigenvalues.  For a stack
    (..., N, N), whose ranks may differ: all (..., N, N) eigenvectors and
    (..., N) eigenvalues, with each dropped mode's eigenvalue set to 0, so a
    kept eigenvalue is positive and the rank is their count."""
    w, u = np.linalg.eigh(cov)
    w = w[..., ::-1]
    u = u[..., ::-1]
    top = w[..., :1]
    keep = (w > trunc_rel * top) & (top > 0)
    if cov.ndim == 2:
        return u[:, keep], w[keep]
    return u, np.where(keep, w, 0.0)


def error_scale(kappa: float) -> float:
    """c_kappa = 2 - 2*sqrt(1-kappa^2), the scale of ``error_covariance``."""
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must be in [0, 1]")
    return 2.0 - 2.0 * math.sqrt(1.0 - kappa**2)


def error_covariance(cov: np.ndarray, kappa: float) -> np.ndarray:
    """E[(h - estimate)(h - estimate)^H] = c_kappa R for a channel of
    covariance ``cov`` = R (up to the modes KL truncation drops)."""
    return error_scale(kappa) * cov


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

    Under limited CSIT the transmitter sees ``user_estimates``, the
    covariances and ``error_scale`` c_kappa, which makes the error
    covariances ``error_covs`` = c_kappa R; ``user_channels``/``eve_channels``
    are ground truth used only for scoring.  Every covariance is a Hermitian
    (N, N) array.  A realization drawn for T generators, or made by
    ``stack``, puts a leading trial axis on every array.  A drawn
    realization's user statistics are read-only arrays that every trial
    shares: along the trial axis they are broadcast views.
    """

    user_channels: np.ndarray        # (K, N)
    eve_channels: np.ndarray         # (E, N)
    user_estimates: np.ndarray       # (K, N)
    user_covs: np.ndarray            # (K, N, N)
    eve_covs: np.ndarray             # (E, N, N)
    error_scale: float | np.ndarray  # c_kappa, one per trial
    user_aoas: np.ndarray = field(default=None)
    eve_aoas: np.ndarray = field(default=None)

    @property
    def error_covs(self) -> np.ndarray:
        """(K, N, N) error covariances c_kappa R, made on each read."""
        return np.asarray(self.error_scale)[..., None, None, None] * self.user_covs

    @staticmethod
    def stack(realizations: Sequence["ChannelRealization"], join=np.stack) -> "ChannelRealization":
        """One realization with a leading trial axis over ``realizations``,
        which must share their dimensions; ``join=np.concatenate`` joins
        stacked realizations along their trial axis instead, and keeps a
        field that every trial shares (equal broadcast views) one view."""
        first = realizations[0]

        def joined(arrays):
            if join is np.concatenate and all(
                    a.strides[0] == 0 and np.array_equal(a[0], arrays[0][0]) for a in arrays):
                return np.broadcast_to(arrays[0][0], (sum(map(len, arrays)), *arrays[0].shape[1:]))
            return join(arrays)

        return ChannelRealization(**{
            f.name: joined([getattr(r, f.name) for r in realizations])
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


@lru_cache(maxsize=32)
def _user_statistics(
    aoas: tuple[float, ...],
    spread: float,
    n_antennas: int,
    antenna_spacing: float,
    n_nodes: int,
    trunc_rel: float,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Covariances (K, N, N) and stacked KL factor of the users at the
    layout-fixed azimuths ``aoas``.

    User azimuths depend only on the layout, so every trial of a sweep point
    shares them; the arrays are read-only because every caller shares them.
    """
    covs = one_ring_covariance(np.array(aoas), spread, n_antennas, antenna_spacing, n_nodes)
    kl = kl_decompose(covs, trunc_rel)
    for arr in (covs, *kl):
        arr.flags.writeable = False
    return covs, kl


def _combine(eigvecs: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_j eigvecs[..., :, j] * coef[..., j]: an elementwise product, laid
    out in C order, summed over its last axis, so each terminal's sum is the
    same whatever the stack around it."""
    return np.multiply(eigvecs, coef[..., None, :], order="C").sum(axis=-1)


def _cn(normals: np.ndarray) -> np.ndarray:
    """CN(0, I) coefficients from (..., 2, N) real and imaginary parts."""
    return (normals[..., 0, :] + 1j * normals[..., 1, :]) / math.sqrt(2.0)


def draw_scenario(
    config: SystemConfig,
    layout: ScenarioLayout,
    rng: np.random.Generator | Sequence[np.random.Generator],
) -> ChannelRealization:
    """Place terminals, build their covariances, and draw channel sets.

    ``rng`` is one generator, or a sequence of T generators, one per trial;
    then every field gets a leading trial axis, and trial i equals the draw
    of ``rng[i]`` alone, to the bit.  Each generator makes two calls:
    ``uniform(E)`` for its eavesdroppers' azimuths, then one
    ``standard_normal`` whose numbers are cut terminal by terminal, users
    first, into blocks of ``rank`` (the terminal's KL rank): for a user the
    real and imaginary parts of its channel's CN(0, I) coefficients zeta
    and then of its estimate's perturbation v, for an eavesdropper those of
    zeta.  A channel is h = U diag(sqrt(eigvals)) zeta, and a user's
    estimate sqrt(1-kappa^2) h + kappa U diag(sqrt(eigvals)) v, whose error
    h - estimate has covariance ``error_covariance(R, kappa)``, carried as
    its scale ``error_scale``.  v is drawn even at kappa = 0, so
    seed-matched draws across kappa values share their channels.

    User statistics come from a cache keyed by azimuths and geometry;
    eavesdropper azimuths are drawn per trial, so theirs are built here, in
    one ``one_ring_covariance`` and one ``kl_decompose`` call for all trials.
    """
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    t, n, k, e = len(rngs), config.n_antennas, config.n_users, config.n_eves

    user_aoas = layout.user_aoas(k)
    user_covs, (user_vecs, user_vals) = _user_statistics(
        tuple(user_aoas.tolist()), layout.angular_spread, n,
        layout.antenna_spacing, layout.quad_nodes, layout.trunc_rel,
    )
    unit = np.array([gen.uniform(size=e) for gen in rngs]).reshape(t, e)
    eve_aoas = (layout.eve_center + layout.eve_sector * (unit - 0.5)) % TWO_PI
    eve_covs = one_ring_covariance(
        eve_aoas, layout.angular_spread, n, layout.antenna_spacing, layout.quad_nodes,
    )
    eve_vecs, eve_vals = kl_decompose(eve_covs, layout.trunc_rel)

    # Each terminal's blocks padded to N numbers, of which the first ``rank``
    # (its kept modes) are drawn: users (K, 4, N), then eavesdroppers (E, 2, N).
    kept = np.concatenate([
        np.broadcast_to(user_vals[:, None, :] > 0, (t, k, 4, n)).reshape(t, -1),
        np.broadcast_to(eve_vals[:, :, None, :] > 0, (t, e, 2, n)).reshape(t, -1),
    ], axis=1)
    normals = np.zeros(kept.shape)
    normals[kept] = np.concatenate([gen.standard_normal(c) for gen, c in zip(rngs, kept.sum(axis=1))])
    user_normals = normals[:, :4 * k * n].reshape(t, k, 2, 2, n)
    eve_normals = normals[:, 4 * k * n:].reshape(t, e, 2, n)

    user_roots = np.sqrt(user_vals)
    h = _combine(user_vecs, user_roots * _cn(user_normals[:, :, 0]))
    h_est = (math.sqrt(1.0 - layout.kappa**2) * h
             + layout.kappa * _combine(user_vecs, user_roots * _cn(user_normals[:, :, 1])))
    g = _combine(eve_vecs, np.sqrt(eve_vals) * _cn(eve_normals))

    shared = (t, k, n, n)
    realization = ChannelRealization(
        user_channels=h,
        eve_channels=g,
        user_estimates=h_est,
        user_covs=np.broadcast_to(user_covs, shared),
        eve_covs=eve_covs,
        error_scale=np.full(t, error_scale(layout.kappa)),
        user_aoas=np.broadcast_to(user_aoas, (t, k)),
        eve_aoas=eve_aoas,
    )
    return realization.take(0) if single else realization
