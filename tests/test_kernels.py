"""The monomial and term-map kernels, including the memoized order keys."""

import random
from fractions import Fraction

from helpers import random_multipoly, reference_key, seeded
from vortexre import _kernels
from vortexre.polynomials import MonomialOrder, PolynomialRing


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


def test_iadd_scaled_mutates_in_place(monkeypatch):
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
    # the fraction-free reduction subtracts through this same function
    calls = []
    iadd_scaled = _kernels.terms_iadd_scaled
    monkeypatch.setattr(_kernels, "terms_iadd_scaled",
                        lambda *args: calls.append(args) or iadd_scaled(*args))
    lex = ("lex", 0)
    assert _kernels.reduce_integer({(2, 1): 1}, [((1, 0), {(1, 0): 1, (0, 1): -1})],
                                   lex) == ({(0, 3): 1}, 1)
    assert len(calls) == 2  # x^2*y -> x*y^2 -> y^3


def _random_xy_terms(rng):
    return random_multipoly(PolynomialRing(("x", "y")), rng).terms


def test_ring_axioms_on_random_elements():
    add, mul = _kernels.terms_add, _kernels.terms_mul
    rng = seeded(3)
    for _ in range(15):
        a, b, c = (_random_xy_terms(rng) for _ in range(3))
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_difference_of_squares():
    add, mul, neg = _kernels.terms_add, _kernels.terms_mul, _kernels.terms_neg
    x, y = {(1, 0): Fraction(1)}, {(0, 1): Fraction(1)}
    assert mul(add(x, y), add(x, neg(y))) == add(mul(x, x), neg(mul(y, y)))


def test_binomial_cube_coefficients():
    x_plus_1 = {(1, 0): Fraction(1), (0, 0): Fraction(1)}
    cube = _kernels.terms_mul(_kernels.terms_mul(x_plus_1, x_plus_1), x_plus_1)
    assert [cube.get((k, 0), 0) for k in range(4)] == [1, 3, 3, 1]
    assert len(cube) == 4


def test_additive_inverse_gives_zero():
    rng = seeded(2)
    for _ in range(20):
        p = _random_xy_terms(rng)
        assert _kernels.terms_add(p, _kernels.terms_neg(p)) == {}


def test_leading_term_is_multiplicative():
    order = MonomialOrder.degrevlex()
    rng = seeded(4)
    for _ in range(25):
        a, b = _random_xy_terms(rng), _random_xy_terms(rng)
        if not a or not b:
            continue
        ab = _kernels.terms_mul(a, b)
        ma, mb, mab = (_kernels.leading_monomial(t, order) for t in (a, b, ab))
        assert mab == tuple(i + j for i, j in zip(ma, mb))
        assert ab[mab] == a[ma] * b[mb]


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
