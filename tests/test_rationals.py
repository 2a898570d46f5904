"""Exact coefficient arithmetic used by every algebraic module."""

import pytest

from vortexre.rationals import Rational, is_integer, rational


def test_basic_arithmetic_is_exact():
    assert rational(1, 2) + rational(1, 3) == rational(5, 6)
    assert rational(1, 3) * 3 == 1
    assert rational(1, 10) + rational(2, 10) == rational(3, 10)  # no float drift


def test_construction_canonicalizes():
    assert rational(2, 4) == rational(1, 2)
    assert str(rational(2, 4)) == "1/2"
    assert rational(-1, -2) == rational(1, 2)


def test_denominator_always_positive():
    q = rational(3, -7)
    assert q.denominator == 7
    assert q.numerator == -3


def test_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        rational(1, 0)


def test_string_parsing():
    assert rational("5/6") == rational(5, 6)
    assert rational("-2") == -2


def test_big_values_round_trip():
    big = rational(10**40, 3)
    assert (big * 3).numerator == 10**40
    assert big * 2 / 2 == big


def test_is_integer():
    assert is_integer(rational(4, 2))
    assert not is_integer(rational(1, 2))


def test_hash_and_compare_match_ints():
    assert rational(6, 3) == 2
    assert hash(rational(6, 3)) == hash(2)
    assert rational(1, 2) < rational(2, 3)
    assert sorted([rational(3, 2), rational(1, 3), 1]) == [rational(1, 3), 1, rational(3, 2)]


def test_type_alias_constructs():
    assert Rational(7) == 7
