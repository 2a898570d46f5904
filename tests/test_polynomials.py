"""Polynomials as the API prints and reads them, and monomial orders."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    exponent_terms,
    from_exponent_terms,
    leading_exponents,
    random_multipoly,
    reference_poly_str,
    reference_primitive_part,
    reference_variables_used,
    seeded,
)
from vortexre import _kernels
from vortexre.groebner import buchberger, elimination_ideal
from vortexre.halfangle import build_equal_weight_system, build_symmetry_case_system
from vortexre.polynomials import MonomialOrder, PolynomialRing

POOLS = Path(__file__).resolve().parents[1] / "vortexbench" / "pools.json"


@pytest.fixture
def ring():
    return PolynomialRing(("x", "y"))


def test_parse_str_round_trip(ring):
    rng = seeded(1)
    for _ in range(40):
        p = random_multipoly(ring, rng)
        assert ring.parse(str(p)) == p


def test_text_form_matches_the_fraction_reference():
    rng = seeded(11)
    rings = [PolynomialRing(("x", "y")), PolynomialRing(("a", "b", "c"), MonomialOrder.lex()),
             PolynomialRing(("t",))]
    coeffs = [1, -1, 2, -7, 12, Fraction(1, 2), Fraction(-3, 4), Fraction(22, 7),
              Fraction(-1, 9), Fraction(5, 1)]
    for trial in range(300):
        ring = rings[trial % len(rings)]
        terms = {}
        for _ in range(rng.randint(0, 6)):
            e = tuple(rng.randint(0, 3) for _ in ring.variables)
            if rng.random() < 0.2:
                e = (0,) * ring.nvars  # constant term
            terms[e] = terms.get(e, 0) + Fraction(rng.choice(coeffs))
        p = from_exponent_terms(ring, terms)
        text = str(p)
        assert text == reference_poly_str(p)
        assert ring.parse(text) == p
    # one-term edge cases: bare constants and unit coefficients
    one, x, xy = (0, 0), (1, 0), (1, 1)
    for terms in ({one: 1}, {one: -1}, {one: Fraction(-2, 3)}, {x: -1}, {xy: 1},
                  {xy: -1, one: 1}, {x: Fraction(1, 3), one: Fraction(-1, 3)}):
        p = from_exponent_terms(rings[0], terms)
        assert str(p) == reference_poly_str(p)


def test_system_text_through_one_ring_matches_the_reference():
    # every polynomial and factor of an N=6 system shares one ring, whose
    # monomial-text table the second pass reads; unit coefficients and
    # constant terms take their own text paths, so the set includes them
    system = build_equal_weight_system((1, 2, -3, 4, 5, -6))
    ring, unit = system.ring, (0,) * 5  # the monomial 1, packed to 0
    polys = list(system.polys) + [
        f for rec in system.stripped_factors for f, _ in rec.denominator_factors]
    polys += [ring.monomial(unit, 1), ring.monomial(unit, -1),
              ring.parse("-r2*r6^3 + r5 - 1"), ring.parse("3/2*r2^2 - 7")]
    assert all(p.ring is ring for p in polys)
    assert {1, -1} <= {c for p in polys for c in p.terms.values()}
    assert sum(0 in p.terms for p in polys) > 5
    expected = [reference_poly_str(p) for p in polys]
    assert [str(p) for p in polys] == expected
    assert [str(p) for p in polys] == expected


def test_parse_handles_rationals_and_powers(ring):
    p = ring.parse("3/2*x^2*y - y + 7")
    assert exponent_terms(p) == {(2, 1): Fraction(3, 2), (0, 1): Fraction(-1),
                                 (0, 0): Fraction(7)}


def test_parse_reads_back_every_exact_output():
    # the systems `build-system` prints for the benchmark's N=4 and N=5
    # vectors, the reduced bases `certify --show-basis` prints for ten N=3
    # vectors, and the symmetry-case systems with their elimination ideals
    # (the stripped factors `build-system` prints read back to themselves)
    pools = json.loads(POOLS.read_text())
    polys = []
    for entry in pools["build_n4"] + pools["build_n5"]:
        system = build_equal_weight_system(entry["mu"])
        polys += system.polys
        for rec in system.stripped_factors:
            polys += [f for f, _ in rec.denominator_factors + rec.collision_factors]
    for entry in pools["certify_n3"][:10]:
        polys += buchberger(list(build_equal_weight_system(entry["mu"]).polys)).polys
    for case in (1, 2, 3):
        system = build_symmetry_case_system(case)
        polys += system.polys + elimination_ideal(system.polys, 1).polys
    for p in polys:
        assert p.ring.parse(str(p)) == p


@pytest.mark.parametrize("text", ["", "x +", "(x)", "x^", "x**2", "2x", "+ x", "x - - y",
                                  "x*", "2*", "1/0", "2*z"])
def test_parse_rejects_any_other_text(ring, text):
    with pytest.raises(ValueError):
        ring.parse(text)


def test_parse_adds_equal_monomials(ring):
    assert exponent_terms(ring.parse("x*y - 2*y + 1/2*x*y + y*x")) == \
        {(1, 1): Fraction(5, 2), (0, 1): Fraction(-2)}
    assert ring.parse("x - x").is_zero()


def test_content_is_gcd_of_numerators_over_lcm_of_denominators(ring):
    # the unit of `_kernels.primitive` is the content, signed like the
    # leading coefficient, and the primitive map times it gives back p
    rng = seeded(12)
    for _ in range(100):
        p = {}
        for _ in range(rng.randint(1, 6)):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            c = Fraction(rng.randint(-40, 40), rng.randint(1, 30))
            if c:
                p = _kernels.terms_add(p, {ring.packing.pack(e): c})
        if not p:
            continue
        coeffs = p.values()
        want = Fraction(math.gcd(*(c.numerator for c in coeffs)),
                        math.lcm(*(c.denominator for c in coeffs)))
        lm, t, unit = _kernels.primitive(p)
        assert abs(unit) == want
        assert (unit > 0) == (p[lm] > 0)
        assert _kernels.terms_scale(t, unit) == p


def test_degrevlex_orders_by_total_degree_first():
    R = PolynomialRing(("x", "y"))
    p = R.parse("x^2*y + x*y^2")
    assert leading_exponents(p) == (2, 1)
    assert leading_exponents(R.parse("x^2*y + y^3 - 1")) == (2, 1)


def test_degrevlex_tie_break():
    # same total degree: y^2 beats x*z under graded reverse lex
    R = PolynomialRing(("x", "y", "z"))
    p = R.parse("x*z + y^2")
    assert leading_exponents(p) == (0, 2, 0)


def test_lex_ignores_total_degree():
    R = PolynomialRing(("x", "y"), MonomialOrder.lex())
    p = R.parse("x + y^9")
    assert leading_exponents(p) == (1, 0)


def test_elimination_order_front_block_dominates():
    R = PolynomialRing(("r2", "r3", "m1", "m2", "m3"), MonomialOrder.elimination(2))
    p = R.parse("r3 + m1^5*m2^5*m3^5")
    assert leading_exponents(p) == (0, 1, 0, 0, 0)


def test_content_and_primitive_part(ring):
    rng = seeded(7)
    for _ in range(20):
        p = random_multipoly(ring, rng)
        if p.is_zero():
            continue
        prim, cont = reference_primitive_part(p)
        assert _kernels.terms_scale(prim.terms, cont) == p.terms
        assert all(c.denominator == 1 for c in prim.terms.values())
        assert math.gcd(*(c.numerator for c in prim.terms.values())) == 1
        assert exponent_terms(prim)[leading_exponents(prim)] > 0
        assert abs(cont) == abs(_kernels.primitive(p.terms)[2])


def test_order_key_is_strict_total_order():
    # the packed int is the order key
    rng = seeded(9)
    for order in (MonomialOrder.lex(), MonomialOrder.degrevlex(), MonomialOrder.elimination(1)):
        monos = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(30)]
        keys = [PolynomialRing("xyz", order).packing.pack(m) for m in monos]
        for m, k in zip(monos, keys):
            # equal monomials must agree, distinct must differ
            for m2, k2 in zip(monos, keys):
                assert (m == m2) == (k == k2)


def test_degree_accessors(ring):
    p = ring.parse("x^3*y + y^2")
    assert set(exponent_terms(p)) == {(3, 1), (0, 2)}
    assert leading_exponents(p) == (3, 1)  # total degree 4 leads under degrevlex
    assert reference_variables_used(p) == {"x", "y"}


def test_constant_detection(ring):
    c = ring.monomial((0, 0), Fraction(5, 2))
    assert c.is_constant()
    assert exponent_terms(c) == {(0, 0): Fraction(5, 2)}
    assert not ring.parse("x").is_constant()


def test_with_order_preserves_terms():
    R = PolynomialRing(("x", "y"))
    p = R.parse("x + y^9")
    L = R.with_order(MonomialOrder.lex())
    q = L.parse(str(p))
    assert leading_exponents(q) == (1, 0)
    assert leading_exponents(p) == (0, 9)
