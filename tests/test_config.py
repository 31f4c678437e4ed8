import math

import pytest

from rsmasec import SystemConfig


def test_defaults_give_20_db():
    cfg = SystemConfig()
    assert cfg.symbol_power == 100.0
    assert cfg.noise_user == 1.0
    assert abs(cfg.snr_db - 20.0) < 1e-12
    assert cfg.n_users == 4


def test_noise_ratios():
    cfg = SystemConfig(symbol_power=50.0, noise_user=2.0, noise_eve=0.5)
    assert cfg.noise_user_ratio == 2.0 / 50.0
    assert cfg.noise_eve_ratio == 0.5 / 50.0


def test_with_snr_db_roundtrip():
    cfg = SystemConfig().with_snr_db(7.5)
    assert abs(cfg.snr_db - 7.5) < 1e-12
    assert cfg.noise_user == 1.0
    # symbol power carries the change
    assert abs(cfg.symbol_power - 10 ** 0.75) < 1e-12


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_antennas=0),
        dict(n_secret=-1),
        dict(n_secret=0, n_normal=0),
        dict(symbol_power=0.0),
        dict(noise_user=-1.0),
        dict(noise_eve=0.0),
        dict(smoothing=0.0),
        dict(epsilon=-0.1),
        dict(t_max=0),
        dict(symbol_power=math.nan),
        dict(noise_eve=math.inf),
        dict(smoothing=math.inf),
        dict(epsilon=math.nan),
    ],
)
def test_invalid_configs_raise(kwargs):
    with pytest.raises(ValueError):
        SystemConfig(**kwargs)


def test_eves_may_be_zero():
    cfg = SystemConfig(n_eves=0)
    assert cfg.n_eves == 0
    assert math.isclose(cfg.snr_db, 20.0)
