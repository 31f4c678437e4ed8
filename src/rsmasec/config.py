"""System-level configuration shared by rate metrics, solver, and harness."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SystemConfig:
    """Scenario dimensions, powers, and solver knobs.

    Users come in two groups: the first ``n_secret`` carry confidential
    messages, the remaining ``n_normal`` carry ordinary ones.  All rate
    expressions depend on power only through the noise-to-power ratios
    ``noise_user / symbol_power`` and ``noise_eve / symbol_power``.
    """

    n_antennas: int = 4
    n_secret: int = 2
    n_normal: int = 2
    n_eves: int = 2
    symbol_power: float = 100.0
    noise_user: float = 1.0
    noise_eve: float = 1.0
    smoothing: float = 0.3
    epsilon: float = 0.05
    t_max: int = 100

    def __post_init__(self) -> None:
        for name in ("symbol_power", "noise_user", "noise_eve", "smoothing", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be >= 1")
        if self.n_secret < 0 or self.n_normal < 0 or self.n_eves < 0:
            raise ValueError("group sizes must be >= 0")
        if self.n_secret + self.n_normal < 1:
            raise ValueError("need at least one user")
        if self.symbol_power <= 0 or self.noise_user <= 0 or self.noise_eve <= 0:
            raise ValueError("powers must be positive")
        if self.smoothing <= 0:
            raise ValueError("smoothing must be positive")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")

    @property
    def n_users(self) -> int:
        return self.n_secret + self.n_normal

    @property
    def snr_db(self) -> float:
        return 10.0 * math.log10(self.symbol_power / self.noise_user)

    @property
    def noise_user_ratio(self) -> float:
        """sigma^2 / P, the ridge term in every legitimate-user denominator."""
        return self.noise_user / self.symbol_power

    @property
    def noise_eve_ratio(self) -> float:
        return self.noise_eve / self.symbol_power

    @property
    def secret_ids(self) -> range:
        return range(self.n_secret)

    def with_snr_db(self, snr_db: float) -> "SystemConfig":
        """Same scenario at a different SNR, holding noise powers fixed."""
        return replace(self, symbol_power=self.noise_user * 10.0 ** (snr_db / 10.0))
