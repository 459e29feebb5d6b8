"""Acceptance gate: one test per criterion, each printing its pass/fail line
with the measured values; the assertions hold every stated tolerance."""
import pytest

from gipsp.acceptance import (criterion_1, criterion_2, criterion_3, criterion_4,
                              criterion_5, criterion_6, criterion_7, criterion_8,
                              criterion_9)

_ALL = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9,
}


def _run(number):
    result = _ALL[number]()
    print()
    result.show()
    details = {name: m for name, m in result.metrics.items() if m[2] != "info"}
    for name, (value, tol, kind) in details.items():
        if kind == "max":
            assert value <= tol, f"{name}: {value:.3e} > {tol:.1e}"
        else:
            assert value >= tol, f"{name}: {value:.3e} < {tol:.1e}"
    assert result.passed


def test_criterion_1_gauge_invariance():
    _run(1)


def test_criterion_2_reduction_identities():
    _run(2)


def test_criterion_3_husimi_consistency():
    _run(3)


def test_criterion_4_round_trips():
    _run(4)


def test_criterion_5_reality():
    _run(5)


def test_criterion_6_dynamics_cross_validation():
    _run(6)


def test_criterion_7_classical_limit_order():
    _run(7)


def test_criterion_8_intertwining():
    _run(8)


def test_criterion_9_distinctness_guard():
    _run(9)
