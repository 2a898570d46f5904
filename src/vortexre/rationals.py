"""Exact rational coefficients.

``Rational`` is the stdlib ``fractions.Fraction``: arbitrary precision,
always canonical (positive denominator, gcd(num, den) = 1), printed as
``p/q``, and raising ZeroDivisionError on a zero denominator.
"""

from __future__ import annotations

from fractions import Fraction as Rational


def rational(numerator, denominator=1):
    """Canonical rational from ints, strings like ``"5/6"``, or rationals."""
    return Rational(numerator, denominator) if denominator != 1 else Rational(numerator)


def is_integer(value) -> bool:
    """True when the rational has denominator 1."""
    return value.denominator == 1
