"""Exact multivariate polynomial arithmetic and monomial orders."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    random_multipoly,
    reference_poly_str,
    reference_primitive_part,
    reference_variables_used,
    seeded,
)
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
        p = ring.zero()
        for _ in range(rng.randint(0, 6)):
            e = tuple(rng.randint(0, 3) for _ in ring.variables)
            if rng.random() < 0.2:
                e = (0,) * ring.nvars  # constant term
            p = p + ring.monomial(e, rng.choice(coeffs))
        text = str(p)
        assert text == reference_poly_str(p)
        assert ring.parse(text) == p
    # one-term edge cases: bare constants and unit coefficients
    x, y = rings[0].gens()
    for p in (rings[0].constant(1), rings[0].constant(-1), rings[0].constant(Fraction(-2, 3)),
              -x, x * y, -x * y + 1, x / 3 - Fraction(1, 3)):
        assert str(p) == reference_poly_str(p)


def test_parse_handles_rationals_and_powers(ring):
    p = ring.parse("3/2*x^2*y - y + 7")
    x, y = ring.gens()
    assert p == ring.monomial((2, 1), Fraction(3, 2)) - y + ring.constant(7)


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
        polys += list(system) + list(elimination_ideal(list(system), [system.ring.variables[0]]))
    for p in polys:
        assert p.ring.parse(str(p)) == p


@pytest.mark.parametrize("text", ["", "x +", "(x)", "x^", "x**2", "2x", "+ x", "x - - y",
                                  "x*", "2*", "1/0", "2*z"])
def test_parse_rejects_any_other_text(ring, text):
    with pytest.raises(ValueError):
        ring.parse(text)


def test_parse_adds_equal_monomials(ring):
    x, y = ring.gens()
    assert ring.parse("x*y - 2*y + 1/2*x*y + y*x") == Fraction(5, 2) * x * y - 2 * y
    assert ring.parse("x - x").is_zero()


def test_content_is_gcd_of_numerators_over_lcm_of_denominators(ring):
    rng = seeded(12)
    for _ in range(100):
        p = ring.zero()
        for _ in range(rng.randint(1, 6)):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            p = p + ring.monomial(e, Fraction(rng.randint(-40, 40), rng.randint(1, 30)))
        coeffs = p.terms.values()
        want = Fraction(math.gcd(*(c.numerator for c in coeffs)),
                        math.lcm(*(c.denominator for c in coeffs)))
        assert p.content() == want
    assert ring.zero().content() == 0


def test_difference_of_squares(ring):
    x, y = ring.gens()
    assert (x + y) * (x - y) == x * x - y * y


def test_binomial_cube_coefficients(ring):
    x, _ = ring.gens()
    cube = (x + ring.one()) ** 3
    assert [cube.coefficient((k, 0)) for k in range(4)] == [1, 3, 3, 1]


def test_additive_inverse_gives_zero(ring):
    rng = seeded(2)
    for _ in range(20):
        p = random_multipoly(ring, rng)
        assert (p + (-p)).is_zero()


def test_ring_axioms_on_random_elements(ring):
    rng = seeded(3)
    for _ in range(15):
        a = random_multipoly(ring, rng)
        b = random_multipoly(ring, rng)
        c = random_multipoly(ring, rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_degrevlex_orders_by_total_degree_first():
    R = PolynomialRing(("x", "y"))
    p = R.parse("x^2*y + x*y^2")
    assert p.leading_monomial() == (2, 1)


def test_degrevlex_tie_break():
    # same total degree: y^2 beats x*z under graded reverse lex
    R = PolynomialRing(("x", "y", "z"))
    p = R.parse("x*z + y^2")
    assert p.leading_monomial() == (0, 2, 0)


def test_lex_ignores_total_degree():
    R = PolynomialRing(("x", "y"), MonomialOrder.lex())
    p = R.parse("x + y^9")
    assert p.leading_monomial() == (1, 0)


def test_elimination_order_front_block_dominates():
    R = PolynomialRing(("r2", "r3", "m1", "m2", "m3"), MonomialOrder.elimination(2))
    p = R.parse("r3 + m1^5*m2^5*m3^5")
    assert p.leading_monomial() == (0, 1, 0, 0, 0)


def test_leading_term_is_multiplicative(ring):
    rng = seeded(4)
    for _ in range(25):
        a = random_multipoly(ring, rng)
        b = random_multipoly(ring, rng)
        if a.is_zero() or b.is_zero():
            continue
        ab = a * b
        ma, mb, mab = a.leading_monomial(), b.leading_monomial(), ab.leading_monomial()
        assert mab == tuple(i + j for i, j in zip(ma, mb))
        assert ab.terms[mab] == a.terms[ma] * b.terms[mb]


def test_derivative_product_rule(ring):
    rng = seeded(5)
    for _ in range(15):
        a = random_multipoly(ring, rng)
        b = random_multipoly(ring, rng)
        lhs = (a * b).derivative("x")
        rhs = a.derivative("x") * b + a * b.derivative("x")
        assert lhs == rhs


def test_evaluate_float_matches_exact(ring):
    p = ring.parse("x^3 - 2*x*y + 1/2")
    exact = p.evaluate({"x": Fraction(1, 2), "y": Fraction(3)})
    approx = p.evaluate_float({"x": 0.5, "y": 3.0})
    assert abs(float(exact) - approx) < 1e-14


def test_content_and_primitive_part(ring):
    rng = seeded(7)
    for _ in range(20):
        p = random_multipoly(ring, rng)
        if p.is_zero():
            continue
        prim, cont = reference_primitive_part(p)
        assert prim * ring.constant(cont) == p
        assert prim.content() == 1
        assert prim.leading_coefficient() > 0
        assert abs(cont) == p.content()


def test_monic_normalizes_leading_coefficient(ring):
    p = ring.parse("2*x^2 + 4")
    assert p.monic() == ring.parse("x^2 + 2")


def test_order_key_is_strict_total_order():
    rng = seeded(9)
    for order in (MonomialOrder.lex(), MonomialOrder.degrevlex(), MonomialOrder.elimination(1)):
        monos = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(30)]
        keys = [order.key(m) for m in monos]
        for m, k in zip(monos, keys):
            # equal monomials must agree, distinct must differ
            for m2, k2 in zip(monos, keys):
                assert (m == m2) == (k == k2)


def test_degree_accessors(ring):
    p = ring.parse("x^3*y + y^2")
    assert set(p.terms) == {(3, 1), (0, 2)}
    assert p.leading_monomial() == (3, 1)  # total degree 4 leads under degrevlex
    assert reference_variables_used(p) == {"x", "y"}


def test_constant_detection(ring):
    c = ring.constant(Fraction(5, 2))
    assert c.is_constant()
    assert c.coefficient((0, 0)) == Fraction(5, 2)
    assert not ring.parse("x").is_constant()


def test_with_order_preserves_terms():
    R = PolynomialRing(("x", "y"))
    p = R.parse("x + y^9")
    L = R.with_order(MonomialOrder.lex())
    q = L.parse(str(p))
    assert q.leading_monomial() == (1, 0)
    assert p.leading_monomial() == (0, 9)
