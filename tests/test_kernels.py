"""Packed monomials and the term-map kernels."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    leading_exponents,
    random_multipoly,
    reference_divides,
    reference_key,
    reference_lcm,
    reference_product,
    reference_quotient,
    seeded,
)
from vortexre import _kernels
from vortexre.groebner import buchberger
from vortexre.polynomials import MonomialOrder, PolynomialRing

ORDER_SPECS = [
    MonomialOrder.lex(),
    MonomialOrder.degrevlex(),
    MonomialOrder.elimination(2),
    MonomialOrder.elimination(1),
]
LIMIT = _kernels.LIMIT
WXYZ = PolynomialRing(("w", "x", "y", "z"))


def random_monomial(rng, n=4, span=6):
    return tuple(rng.randint(0, span) for _ in range(n))


def random_terms(rng, n=4, terms=8):
    out = {}
    for _ in range(terms):
        c = rng.randint(-9, 9)
        if c:
            out[random_monomial(rng, n)] = Fraction(c, rng.randint(1, 5))
    return out


def packed(terms, ring=WXYZ):
    return {ring.packing.pack(m): c for m, c in terms.items()}


def test_cancellation_removes_zero_entries():
    t = packed({(1, 0, 0, 0): Fraction(2)})
    assert _kernels.terms_add(t, packed({(1, 0, 0, 0): Fraction(-2)})) == {}
    acc = dict(t)
    _kernels.terms_iadd_scaled(acc, t, Fraction(-1), 0)
    assert acc == {}


def test_coefficients_stay_exact():
    # kernels must treat coefficients as opaque objects, not floats
    big = Fraction(10**30, 7)
    t = {0: big}
    assert _kernels.terms_mul(t, t, WXYZ.packing)[0] == big * big


def test_iadd_scaled_mutates_in_place(monkeypatch):
    rng = random.Random(20240504)
    for shift in ((0, 0, 0, 0), (1, 0, 2, 0)):
        acc = random_terms(rng)
        before = dict(acc)
        src = random_terms(rng)
        c = Fraction(3, 2)
        moved = {reference_product(m, shift): v for m, v in src.items()}
        expected = {}
        for m in set(before) | set(moved):
            v = before.get(m, 0) + c * moved.get(m, 0)
            if v:
                expected[m] = v
        acc = same = packed(acc)
        _kernels.terms_iadd_scaled(acc, packed(src), c, WXYZ.packing.pack(shift))
        assert acc is same
        assert acc == packed(expected)
    # the fraction-free reduction subtracts through this same function
    calls = []
    iadd_scaled = _kernels.terms_iadd_scaled
    monkeypatch.setattr(_kernels, "terms_iadd_scaled",
                        lambda *args: calls.append(args) or iadd_scaled(*args))
    lex = PolynomialRing(("x", "y"), MonomialOrder.lex())
    pack = lex.packing.pack
    assert _kernels.reduce_integer({pack((2, 1)): 1},
                                   [(pack((1, 0)), {pack((1, 0)): 1, pack((0, 1)): -1})],
                                   lex.packing) == ({pack((0, 3)): 1}, 1)
    assert len(calls) == 2  # x^2*y -> x*y^2 -> y^3


XY = PolynomialRing(("x", "y"))


def _random_xy_terms(rng):
    return random_multipoly(XY, rng).terms


def _mul(a, b):
    return _kernels.terms_mul(a, b, XY.packing)


def test_ring_axioms_on_random_elements():
    add, mul = _kernels.terms_add, _mul
    rng = seeded(3)
    for _ in range(15):
        a, b, c = (_random_xy_terms(rng) for _ in range(3))
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_difference_of_squares():
    add, neg = _kernels.terms_add, _kernels.terms_neg
    x, y = packed({(1, 0): Fraction(1)}, XY), packed({(0, 1): Fraction(1)}, XY)
    assert _mul(add(x, y), add(x, neg(y))) == add(_mul(x, x), neg(_mul(y, y)))


def test_binomial_cube_coefficients():
    x_plus_1 = packed({(1, 0): Fraction(1), (0, 0): Fraction(1)}, XY)
    cube = _mul(_mul(x_plus_1, x_plus_1), x_plus_1)
    assert [cube.get(XY.packing.pack((k, 0)), 0) for k in range(4)] == [1, 3, 3, 1]
    assert len(cube) == 4


def test_additive_inverse_gives_zero():
    rng = seeded(2)
    for _ in range(20):
        p = _random_xy_terms(rng)
        assert _kernels.terms_add(p, _kernels.terms_neg(p)) == {}


def test_leading_term_is_multiplicative():
    # the leading monomial is the largest int, and a product is a sum
    rng = seeded(4)
    for _ in range(25):
        a, b = _random_xy_terms(rng), _random_xy_terms(rng)
        if not a or not b:
            continue
        ab = _mul(a, b)
        ma, mb, mab = max(a), max(b), max(ab)
        assert mab == ma + mb
        assert XY.packing.exponents(mab) == reference_product(XY.packing.exponents(ma),
                                                              XY.packing.exponents(mb))
        assert ab[mab] == a[ma] * b[mb]


def test_packed_monomials_order_like_reference_keys_under_every_spec():
    # One monomial set packed and sorted under several orders, in both call
    # orders: the packing of one ring must not leak into another's.
    rng = random.Random(20240505)
    monos = list({random_monomial(rng, span=9) for _ in range(120)})
    for specs in (ORDER_SPECS, ORDER_SPECS[::-1]):
        for spec in specs:
            packing = WXYZ.with_order(spec).packing
            expected = sorted(monos, key=lambda m: reference_key(spec, m))
            assert sorted(monos, key=packing.pack) == expected
            assert [packing.exponents(m) for m in sorted(map(packing.pack, monos))] == expected
            terms = dict.fromkeys(map(packing.pack, monos), Fraction(1))
            assert packing.exponents(max(terms)) == expected[-1]
            a, b = expected[0], expected[-1]
            assert packing.pack(a) < packing.pack(b)
            assert packing.pack(a) == packing.pack(a)


# exponents small enough that any product or lcm of two stays in range
_exponents = st.lists(st.integers(0, LIMIT // 8 - 1), min_size=4, max_size=4).map(tuple)
_near_limit = st.lists(st.sampled_from([0, 1, 2, LIMIT // 8 - 1]), min_size=4,
                       max_size=4).map(tuple)


@pytest.mark.parametrize("order", ORDER_SPECS, ids=repr)
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(a=st.one_of(_exponents, _near_limit), b=st.one_of(_exponents, _near_limit))
def test_packed_arithmetic_agrees_with_the_tuple_definitions(order, a, b):
    packing = WXYZ.with_order(order).packing
    pa, pb = packing.pack(a), packing.pack(b)
    assert packing.exponents(pa) == a
    assert pa + pb == packing.pack(reference_product(a, b))
    assert packing.check(pa + pb) == pa + pb
    assert packing.divides(pa, pb) == reference_divides(a, b)
    assert packing.divides(pa, pa + pb) and packing.divides(pb, pa + pb)
    if reference_divides(a, b):
        assert pb - pa == packing.pack(reference_quotient(b, a))
    assert packing.lcm(pa, pb) == packing.pack(reference_lcm(a, b))
    assert (pa < pb) == (reference_key(order, a) < reference_key(order, b))
    assert (pa == pb) == (a == b)


@pytest.mark.parametrize("order,fits,refused,message", [
    (MonomialOrder.lex(), (LIMIT - 1, LIMIT - 1), (LIMIT, 0), f"degree {LIMIT} in x is"),
    (MonomialOrder.degrevlex(), (LIMIT - 2, 1), (LIMIT - 1, 1), f"degree {LIMIT} in x, y is"),
    (MonomialOrder.elimination(1), (LIMIT - 1, LIMIT - 1), (0, LIMIT), f"degree {LIMIT} in y is"),
], ids=["lex", "degrevlex", "elim"])
def test_exponent_width_is_checked_at_every_entry(order, fits, refused, message):
    ring = PolynomialRing(("x", "y"), order)
    x, y = fits
    assert leading_exponents(ring.monomial(fits)) == fits
    assert leading_exponents(ring.parse(f"x^{x}*y^{y}")) == fits
    text = "*".join(f"{name}^{e}" for name, e in zip("xy", refused) if e)
    for entry in (lambda: ring.monomial(refused), lambda: ring.parse(text)):
        with pytest.raises(ValueError, match=message):
            entry()
    for wrong in ((-1, 0), (1, 0, 0)):
        with pytest.raises(ValueError, match="is not 2 exponents, none negative"):
            ring.monomial(wrong)


@pytest.mark.parametrize("order,below,a,b", [
    (MonomialOrder.lex(), (LIMIT - 2, 0), (LIMIT - 1, 0), (1, 0)),
    (MonomialOrder.degrevlex(), (LIMIT - 2, 0), (LIMIT - 1, 0), (0, 1)),
    (MonomialOrder.elimination(1), (7, LIMIT - 2), (7, LIMIT - 1), (3, 1)),
], ids=["lex", "degrevlex", "elim"])
def test_a_product_past_the_limit_is_refused_not_carried(order, below, a, b):
    # below*b is the largest product that fits; a*b is one past it
    packing = PolynomialRing(("x", "y"), order).packing
    pa, pb, pbelow = packing.pack(a), packing.pack(b), packing.pack(below)
    product = _kernels.terms_mul({pbelow: 1}, {pb: 1}, packing)
    assert [packing.exponents(m) for m in product] == [reference_product(below, b)]
    with pytest.raises(ValueError, match=f"degree {LIMIT} in [xy, ]+ is not below {LIMIT}"):
        _kernels.terms_mul({pa: 1, 0: 1}, {pb: 1}, packing)
    with pytest.raises(ValueError, match=f"degree {LIMIT} in [xy, ]+ is not below {LIMIT}"):
        packing.check(pa + pb)
    if order.kind == "degrevlex":  # the lcm x^(LIMIT-1)*y has degree LIMIT
        with pytest.raises(ValueError, match=f"degree {LIMIT} in [xy, ]+ is not below {LIMIT}"):
            packing.lcm(pa, pb)


def test_a_reduction_past_the_limit_is_refused():
    # x - y^(LIMIT-1) rewrites x*y as y^LIMIT, which no field can hold
    ring = PolynomialRing(("x", "y"), MonomialOrder.lex())
    with pytest.raises(ValueError, match=f"degree {LIMIT} in y is not below"):
        buchberger([ring.parse(f"x - y^{LIMIT - 1}"), ring.parse("x*y - 1")])


def test_backend_info_names_the_single_implementation():
    import vortexre

    assert vortexre.backend_info() == {"kernels": "pure", "rationals": "fractions"}
