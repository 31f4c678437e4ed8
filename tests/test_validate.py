import dataclasses

import numpy as np
import pytest

import rsmasec
import rsmasec.validate as validate

EXPECTED_NAMES = [
    "quadform-oracle",
    "lse-sandwich",
    "gradient-consistency",
    "fixed-point-residual",
    "block-solve",
    "convergence-speed",
    "ordering-rsma-sdma",
    "ordering-eavesdroppers",
    "ordering-separation",
    "ordering-kappa",
    "collusion-bound",
    "channel-statistics",
    "determinism",
]


def test_registry_covers_all_checks():
    assert [name for name, _, _ in validate.CHECKS] == EXPECTED_NAMES
    assert all(limit > 0 for _, limit, _ in validate.CHECKS)


def test_filter_selects_by_substring():
    results = rsmasec.run_validate("lse")
    assert [r.name for r in results] == ["lse-sandwich"]
    assert rsmasec.run_validate("no-such-check") == []


def test_fast_checks_pass_and_report_timing():
    for name in ("lse-sandwich", "block-solve"):
        (result,) = rsmasec.run_validate(name)
        assert result.passed, result.detail
        assert result.seconds >= 0.0
        assert result.seconds < result.limit_seconds
        assert result.detail


def test_sign_flip_mutation_fails_oracle_check(monkeypatch):
    # an injected sign error in user 0's common-denominator table row (the
    # loss of form 0) must be caught
    original = validate.build_quadforms_perfect

    def corrupted(realization, config):
        qf = original(realization, config)
        loss = qf.loss.copy()
        loss[0] *= -1.0
        return dataclasses.replace(qf, loss=loss)

    monkeypatch.setattr(validate, "build_quadforms_perfect", corrupted)
    with np.errstate(invalid="ignore"):
        ok, detail = validate._check_quadform_oracle()
    assert not ok


def test_overlong_check_is_failed(monkeypatch):
    checks = (("block-solve", 1e-9, validate.CHECKS[4][2]),)
    monkeypatch.setattr(validate, "CHECKS", checks)
    (result,) = validate.run_validate()
    assert not result.passed
    assert "budget" in result.detail
