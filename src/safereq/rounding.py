"""Decimal rounding used by every reported metric."""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal


def percentage(numerator: int, denominator: int, places: int = 2) -> float:
    """100 * numerator / denominator, rounded half-up."""
    if denominator == 0:
        raise ZeroDivisionError("percentage denominator is zero")
    value = Decimal(100) * Decimal(numerator) / Decimal(denominator)
    quantum = Decimal(1).scaleb(-places)
    return float(value.quantize(quantum, rounding=ROUND_HALF_UP))
