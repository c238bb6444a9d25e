"""Rounding helpers: half-up convention for every reported percentage."""

import random
from fractions import Fraction

import pytest

from safereq import percentage


def test_percentage_rounds_half_up():
    assert percentage(5, 200, 0) == 3.0  # 2.5
    assert percentage(7, 200, 0) == 4.0  # 3.5
    assert percentage(1005, 100000) == 1.01
    assert percentage(1004, 100000) == 1.0
    assert percentage(-5, 200, 0) == -3.0  # -2.5, away from zero


def test_percentage_is_not_bankers_rounding():
    # round() ties to even; the reporting convention must not.
    assert round(2.5) == 2
    assert percentage(1, 40, 0) == 3.0


def test_percentage_published_rates():
    # Stability: 30 of 42 ids classified identically across three runs.
    assert percentage(30, 42) == 71.43
    # Duplicate detection, first and final prompt.
    assert percentage(3, 8) == 37.5
    assert percentage(7, 8) == 87.5
    # Contradiction detection.
    assert percentage(7, 9) == 77.78


def test_percentage_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        percentage(1, 0)


def test_percentage_agrees_with_exact_fraction_arithmetic():
    # Independent oracle: exact rational arithmetic with an explicit
    # half-up tie rule, no Decimal involved.
    rng = random.Random(20240817)
    for _ in range(500):
        den = rng.randint(1, 400)
        num = rng.randint(0, den)
        hundredths = Fraction(100 * num, den) * 100
        floor = hundredths.numerator // hundredths.denominator
        if hundredths - floor >= Fraction(1, 2):
            floor += 1
        assert percentage(num, den) == floor / 100
