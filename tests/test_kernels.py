"""The monomial and term-map kernels, including the memoized order keys."""

import random
from fractions import Fraction

from helpers import reference_key
from vortexre import _kernels


def random_monomial(rng, n=4, span=6):
    return tuple(rng.randint(0, span) for _ in range(n))


def random_terms(rng, n=4, terms=8):
    out = {}
    for _ in range(terms):
        c = rng.randint(-9, 9)
        if c:
            out[random_monomial(rng, n)] = Fraction(c, rng.randint(1, 5))
    return out


ORDER_SPECS = [
    ("lex", 0),
    ("degrevlex", 0),
    ("elim", 2),
    ("elim", 1),
]


def test_cancellation_removes_zero_entries():
    t = {(1, 0, 0, 0): Fraction(2)}
    assert _kernels.terms_add(t, {(1, 0, 0, 0): Fraction(-2)}) == {}
    acc = dict(t)
    _kernels.terms_iadd_scaled(acc, t, Fraction(-1), None)
    assert acc == {}


def test_coefficients_stay_exact():
    # kernels must treat coefficients as opaque objects, not floats
    big = Fraction(10**30, 7)
    t = {(0, 0, 0, 0): big}
    assert _kernels.terms_mul(t, t)[(0, 0, 0, 0)] == big * big


def test_iadd_scaled_mutates_in_place():
    rng = random.Random(20240504)
    for shift in (None, (1, 0, 2, 0)):
        acc = random_terms(rng)
        before = dict(acc)
        src = random_terms(rng)
        c = Fraction(3, 2)
        moved = src if shift is None else {
            tuple(x + s for x, s in zip(m, shift)): v for m, v in src.items()
        }
        expected = {}
        for m in set(before) | set(moved):
            v = before.get(m, 0) + c * moved.get(m, 0)
            if v:
                expected[m] = v
        same = acc
        _kernels.terms_iadd_scaled(acc, src, c, shift)
        assert acc is same
        assert acc == expected


def test_leading_monomial_of_empty_map_is_none():
    assert _kernels.leading_monomial({}, ORDER_SPECS[0]) is None


def test_cached_keys_order_like_fresh_keys_under_every_spec():
    # One monomial set sorted under several orders, in both call orders:
    # a cache keyed by the monomial alone would reuse the first order's keys.
    rng = random.Random(20240505)
    monos = list({random_monomial(rng, span=9) for _ in range(120)})
    for specs in (ORDER_SPECS, ORDER_SPECS[::-1]):
        for spec in specs:
            expected = sorted(monos, key=lambda m: reference_key(spec, m))
            assert sorted(monos, key=lambda m: _kernels.order_key(spec, m)) == expected
            terms = dict.fromkeys(monos, Fraction(1))
            assert _kernels.leading_monomial(terms, spec) == expected[-1]
            a, b = expected[0], expected[-1]
            key = _kernels.order_key
            assert key(spec, a) < key(spec, b)
            assert key(spec, a) == key(spec, a)


def test_backend_info_names_the_single_implementation():
    import vortexre

    assert vortexre.backend_info() == {"kernels": "pure", "rationals": "fractions"}
