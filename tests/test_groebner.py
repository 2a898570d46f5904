"""Buchberger completion, division, and elimination ideals."""

import hashlib
import math
from fractions import Fraction

import pytest

from helpers import (
    exponent_terms,
    from_exponent_terms,
    is_groebner_basis,
    leading_exponents,
    lines_to_multipoly,
    random_line_arrangement,
    random_multipoly,
    reference_buchberger,
    reference_evaluate_float,
    reference_lcm,
    reference_key,
    reference_normal_form,
    reference_s_polynomial,
    reference_variables_used,
    seeded,
    to_sympy,
)
from vortexre import _kernels, groebner
from vortexre.groebner import buchberger, elimination_ideal
from vortexre.halfangle import build_equal_weight_system, build_symmetry_case_system
from vortexre.polynomials import MonomialOrder, MultiPoly, PolynomialRing


@pytest.fixture
def lex_ring():
    return PolynomialRing(("x", "y"), MonomialOrder.lex())


def _reduce(p, divisors):
    """p's remainder over Q from `_kernels.reduce_integer`: the integer
    remainder of p's primitive part, over its scale k, times p's content."""
    _, t, unit = _kernels.primitive(p.terms)
    r, k = _kernels.reduce_integer(t, groebner._divisors(divisors), p.ring.packing)
    return MultiPoly(p.ring, {m: unit * c / k for m, c in r.items()})


def test_division_single_divisor(lex_ring):
    pack = lex_ring.packing.pack
    assert _kernels.reduce_integer({pack((2, 1)): 1},
                                   [(pack((1, 0)), {pack((1, 0)): 1, pack((0, 1)): -1})],
                                   lex_ring.packing) == ({pack((0, 3)): 1}, 1)
    assert reference_normal_form(lex_ring.parse("x^2*y"), [lex_ring.parse("x - y")]) == \
        lex_ring.parse("y^3")


def test_remainder_has_no_reducible_term(lex_ring):
    rng = seeded(12)
    for _ in range(25):
        p = random_multipoly(lex_ring, rng)
        divisors = [d for d in (random_multipoly(lex_ring, rng),) if not d.is_zero()]
        if not divisors:
            continue
        remainder = _reduce(p, divisors)
        assert remainder == reference_normal_form(p, divisors)
        lead = leading_exponents(divisors[0])
        for mono in exponent_terms(remainder):
            assert any(m < lm for m, lm in zip(lead, mono)) or not all(
                e >= le for e, le in zip(mono, lead)
            )


def test_self_reduction_is_zero(lex_ring):
    rng = seeded(13)
    for _ in range(20):
        p = random_multipoly(lex_ring, rng)
        if p.is_zero():
            continue
        assert _reduce(p, [p]).is_zero()
        assert reference_normal_form(p, [p]).is_zero()


def test_s_polynomial_cancels_leading_terms(lex_ring):
    # Buchberger's integer S-polynomial is the one over Q times the lcm
    # of the two leading coefficients, and it cancels the leading terms
    rng = seeded(14)
    order, pack = lex_ring.order, lex_ring.packing.pack
    for _ in range(20):
        f = random_multipoly(lex_ring, rng)
        g = random_multipoly(lex_ring, rng)
        if f.is_zero() or g.is_zero():
            continue
        (mf, tf), (mg, tg) = groebner._divisors((f, g))
        lcm = reference_lcm(leading_exponents(f), leading_exponents(g))
        s = groebner._s_terms((mf, tf), (mg, tg), pack(lcm))
        scale = math.lcm(tf[mf], tg[mg])
        assert MultiPoly(lex_ring, {m: Fraction(c, scale) for m, c in s.items()}) == \
            reference_s_polynomial(f, g)
        if not s:
            continue
        lead = lex_ring.packing.exponents(max(s))
        assert reference_key(order, lead) < reference_key(order, lcm)


def test_circle_meets_line(lex_ring):
    gb = buchberger([lex_ring.parse("x^2 + y^2 - 1"), lex_ring.parse("x - y")])
    assert sorted(str(g) for g in gb.polys) == ["x - y", "y^2 - 1/2"]


def test_principal_ideal(lex_ring):
    gb = buchberger([lex_ring.parse("2*x")])
    assert [str(g) for g in gb.polys] == ["x"]


def test_unit_ideal_collapses_to_one(lex_ring):
    gb = buchberger([lex_ring.parse("x"), lex_ring.parse("x + 1")])
    assert [str(g) for g in gb.polys] == ["1"]


def test_zero_generators_dropped(lex_ring):
    gb = buchberger([lex_ring.parse("0"), lex_ring.parse("x")])
    assert [str(g) for g in gb.polys] == ["x"]


def test_produced_bases_pass_buchberger_criterion():
    rng = seeded(15)
    ring = PolynomialRing(("x", "y", "z"))
    for _ in range(8):
        gens = [random_multipoly(ring, rng, max_terms=3, max_deg=2) for _ in range(3)]
        gb = buchberger(gens)
        # every S-polynomial reduces to zero modulo the basis
        assert is_groebner_basis(gb.polys)


def test_incomplete_generating_set_detected(lex_ring):
    assert not is_groebner_basis([lex_ring.parse("x^2 + y^2 - 1"), lex_ring.parse("x - y")])


def test_reduced_basis_is_canonical():
    rng = seeded(16)
    ring = PolynomialRing(("x", "y", "z"))
    for _ in range(6):
        gens = [random_multipoly(ring, rng, max_terms=3, max_deg=2) for _ in range(3)]
        gb = buchberger(gens)
        # basis of a basis is itself
        again = buchberger(gb.polys)
        assert sorted(map(str, again.polys)) == sorted(map(str, gb.polys))
        # generator order must not matter
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert sorted(map(str, buchberger(shuffled).polys)) == sorted(map(str, gb.polys))
        # neither must constant rescaling
        scaled = [MultiPoly(ring, _kernels.terms_scale(g.terms, Fraction(3))) for g in gens]
        assert sorted(map(str, buchberger(scaled).polys)) == sorted(map(str, gb.polys))


def test_membership(lex_ring):
    circle, line = lex_ring.parse("x^2 + y^2 - 1"), lex_ring.parse("x - y")
    gb = buchberger([circle, line])
    packing = lex_ring.packing
    member = MultiPoly(lex_ring, _kernels.terms_add(
        _kernels.terms_mul(circle.terms, lex_ring.parse("x + y").terms, packing),
        _kernels.terms_mul(line.terms, lex_ring.parse("y^5").terms, packing)))
    for p, zero in ((member, True), (lex_ring.parse("1"), False),
                    (lex_ring.parse("x + 17"), False)):
        assert reference_normal_form(p, gb.polys).is_zero() == zero
        assert _reduce(p, gb.polys).is_zero() == zero


def test_basis_reduces_under_its_own_order():
    # in an elimination ring x - y^2 has leading term x, so the remainder
    # of x is y^2; under degrevlex the leading term is y^2 and x is reduced
    ring = PolynomialRing(("x", "y"))
    elim = ring.with_order(MonomialOrder.elimination(1))
    x = elim.parse("x")
    gb = buchberger([elim.parse("y^3 - 1"), elim.parse("x - y^2")])
    assert gb.ring == elim and gb.order == elim.order
    assert [elim.packing.exponents(lm) for lm, _ in gb.elements] == [(0, 3), (1, 0)]
    for nf in (reference_normal_form, _reduce):
        assert nf(x, gb.polys) == elim.parse("y^2")
        assert nf(x, gb.polys).ring is elim
        assert nf(elim.parse("x^3 - 1"), gb.polys).is_zero()
        assert not nf(elim.parse("x - y"), gb.polys).is_zero()
    plain = buchberger([ring.parse("y^3 - 1"), ring.parse("x - y^2")])
    assert (1, 0) not in [ring.packing.exponents(lm) for lm, _ in plain.elements]


def test_polynomials_from_two_orders_are_refused():
    # same variables, different orders: every call that takes polynomials
    # from both rings refuses them instead of picking one order
    ring = PolynomialRing(("x", "y"))
    elim = ring.with_order(MonomialOrder.elimination(1))
    f, g = ring.parse("x - y^2"), elim.parse("y^3 - 1")
    with pytest.raises(ValueError):
        buchberger([f, g])
    with pytest.raises(ValueError):
        buchberger([g, f])
    with pytest.raises(ValueError):
        elimination_ideal([f, g], 1)
    with pytest.raises(ValueError):
        ring.check([f, g])
    # an equal ring built anew is the same ring
    again = PolynomialRing(("x", "y"))
    assert [str(g) for g in buchberger([f, again.parse("x - y^2")])] == ["y^2 - x"]
    ring.check([f, again.parse("y^2")])


def test_normal_form_is_linear(lex_ring):
    rng = seeded(17)
    gb = buchberger([lex_ring.parse("x^3 - y"), lex_ring.parse("y^2 - x")])
    for _ in range(10):
        a = random_multipoly(lex_ring, rng)
        b = random_multipoly(lex_ring, rng)
        nf = lambda p: _reduce(p, gb.polys)
        a_plus_b = MultiPoly(lex_ring, _kernels.terms_add(a.terms, b.terms))
        assert nf(a_plus_b).terms == _kernels.terms_add(nf(a).terms, nf(b).terms)
        assert nf(nf(a)) == nf(a)
        assert nf(a) == reference_normal_form(a, gb.polys)


def test_agrees_with_independent_cas():
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x y z")
    rng = seeded(18)
    for order_name, order in (("grevlex", MonomialOrder.degrevlex()), ("lex", MonomialOrder.lex())):
        ring = PolynomialRing(("x", "y", "z"), order)
        for _ in range(5):
            gens = [random_multipoly(ring, rng, max_terms=3, max_deg=2) for _ in range(3)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            ours = {sympy.Poly(to_sympy(g, xs), *xs, domain="QQ") for g in buchberger(gens).polys}
            theirs = sympy.groebner(
                [to_sympy(g, xs) for g in gens], *xs, order=order_name, domain="QQ"
            )
            assert ours == {sympy.Poly(e, *xs, domain="QQ") for e in theirs.exprs}


# -- scale bookkeeping: integer division must give the remainder over Q -----

def _random_fraction_poly(ring, rng, max_terms=5, max_deg=3):
    p = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in ring.variables)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        if c:
            p[e] = p.get(e, 0) + c
    return from_exponent_terms(ring, p)


def test_normal_form_with_fraction_divisors_matches_cas():
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x y z")
    rng = seeded(23)
    checked = non_monic = 0
    for order_name, order in (("grevlex", MonomialOrder.degrevlex()), ("lex", MonomialOrder.lex())):
        ring = PolynomialRing(("x", "y", "z"), order)
        for _ in range(15):
            p = _random_fraction_poly(ring, rng, max_terms=6, max_deg=4)
            divisors = [_random_fraction_poly(ring, rng, max_terms=3, max_deg=2)
                        for _ in range(rng.randint(1, 3))]
            divisors = [d for d in divisors if not d.is_zero()]
            if p.is_zero() or not divisors:
                continue
            non_monic += any(exponent_terms(d)[leading_exponents(d)] not in (1, -1)
                             for d in divisors)
            _, theirs = sympy.reduced(to_sympy(p, xs), [to_sympy(d, xs) for d in divisors],
                                      *xs, order=order_name, domain="QQ")
            for ours in (_reduce(p, divisors), reference_normal_form(p, divisors)):
                assert sympy.Poly(to_sympy(ours, xs), *xs, domain="QQ") == \
                    sympy.Poly(theirs, *xs, domain="QQ")
            checked += 1
    assert checked >= 20 and non_monic >= 15


@pytest.mark.parametrize("scale", [Fraction(7, 3), -10**40])
def test_buchberger_ignores_the_scale_of_the_generators(scale):
    rng = seeded(24)
    ring = PolynomialRing(("x", "y", "z"))
    cases = [list(build_equal_weight_system((2, -1, 3)).polys)]
    cases += [[_random_fraction_poly(ring, rng, max_terms=3, max_deg=2) for _ in range(3)]
              for _ in range(4)]
    for gens in cases:
        want = [str(g) for g in buchberger(gens)]
        scaled = [MultiPoly(g.ring, _kernels.terms_scale(g.terms, Fraction(scale))) for g in gens]
        assert [str(g) for g in buchberger(scaled)] == want


# sha256 of the newline-joined remainders of 20 Fraction-coefficient
# polynomials modulo elimination-order bases, recorded from the engine that
# reduced over Fraction coefficients
ELIMINATION_NF_DIGEST = "42b5c74cf97b58a5c1a76a8c78feaa681c2459a2277975b17e941b9098f97c2e"


def test_basis_normal_form_under_elimination_order_is_frozen():
    rng = seeded(22)
    elim = PolynomialRing(("x", "y", "z"), MonomialOrder.elimination(1))
    lines = []
    for _ in range(4):
        gb = buchberger([_random_fraction_poly(elim, rng, max_terms=3, max_deg=2)
                         for _ in range(3)])
        for _ in range(5):
            p = _random_fraction_poly(elim, rng)
            lines.append(str(reference_normal_form(p, gb.polys)))
            assert _reduce(p, gb.polys) == reference_normal_form(p, gb.polys)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ELIMINATION_NF_DIGEST


def test_elimination_of_circle_line_system():
    ring = PolynomialRing(("x", "y"))
    elim = elimination_ideal([ring.parse("x^2 + y^2 - 5"), ring.parse("x - y - 1")], 1)
    assert [str(g) for g in elim.polys] == ["y^2 + y - 2"]


def test_elimination_can_be_empty():
    ring = PolynomialRing(("x", "y"))
    assert not elimination_ideal([ring.parse("x - y")], 1).polys


def test_empty_elimination_basis_keeps_its_ring():
    ring = PolynomialRing(("x", "y"))
    empty = elimination_ideal([ring.parse("x - y")], 1)
    full = elimination_ideal([ring.parse("x - y"), ring.parse("y^2 - 1")], 1)
    assert [str(g) for g in full] == ["y^2 - 1"]
    assert empty.ring == full.ring
    assert empty.ring.variables == ("x", "y")
    assert empty.order == MonomialOrder.elimination(1)
    assert not empty.elements and not empty.polys
    # the elimination ring prints x first
    assert str(empty.ring.parse("y^2 - x")) == "-x + y^2"


def test_elimination_output_avoids_eliminated_variables():
    rng = seeded(19)
    ring = PolynomialRing(("x", "y", "z"))
    kept = {1: 0, 2: 0}
    for _ in range(6):
        gens = [random_multipoly(ring, rng, max_terms=3, max_deg=2) for _ in range(3)]
        for block in (1, 2):
            elim = elimination_ideal(gens, block)
            assert elim.order == MonomialOrder.elimination(block)
            for g in elim.polys:
                assert not reference_variables_used(g) & set("xy"[:block])
            kept[block] += len(elim)
    assert all(kept.values())


def test_elimination_matches_lex_route():
    # block order and a straight lex basis must cut out the same ideal
    rng = seeded(20)
    ring = PolynomialRing(("x", "y", "z"))
    lex_ring = ring.with_order(MonomialOrder.lex())
    for _ in range(5):
        gens = [random_multipoly(ring, rng, max_terms=3, max_deg=2) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        block = elimination_ideal(gens, 1)
        lex_gb = buchberger([lex_ring.parse(str(g)) for g in gens])
        lex_kept = [g for g in lex_gb.polys if "x" not in reference_variables_used(g)]
        assert len(block) == len(lex_kept)
        for b in block:
            assert reference_normal_form(lex_ring.parse(str(b)), lex_kept).is_zero()
        for k in lex_kept:
            assert reference_normal_form(block.ring.parse(str(k)), list(block)).is_zero()


def test_elimination_vanishes_on_projected_roots():
    ring = PolynomialRing(("x", "y"))
    rng = seeded(21)
    f, g, _ = random_line_arrangement(rng, 2, 2)
    pf, pg = lines_to_multipoly(ring, f), lines_to_multipoly(ring, g)
    elim = elimination_ideal([pf, pg], 1)
    assert elim.polys
    # collect the y-coordinates of the actual intersection points
    import itertools

    for (a1, b1, c1), (a2, b2, c2) in itertools.product(f, g):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        y_val = (-a1 * c2 + a2 * c1) / det
        for e in elim.polys:
            assert abs(reference_evaluate_float(e, {"y": float(y_val)})) < 1e-9


# -- the pair criteria against a Buchberger that reduces every S-pair --------

def _reductions(monkeypatch):
    """A list that grows by one for every integer division from now on."""
    calls = []
    reduce_integer = _kernels.reduce_integer

    def counting(*args):
        calls.append(None)
        return reduce_integer(*args)

    monkeypatch.setattr(_kernels, "reduce_integer", counting)
    return calls


RELEASE_VECTORS = [(1, 1, 1), (2, 1, 9), (2, -1, 3), (-1, -3, 10)]
MIXED_SIGN_VECTORS = [(10, -3, 2), (-4, -5, -3), (-11, 8, 6), (-9, 7, 9), (-9, -5, 11),
                      (-4, -7, 9), (3, -5, 4), (12, -10, -7), (-5, 2, 12), (11, 5, -12),
                      (2, -12, -9), (-7, 12, -12)]


@pytest.mark.parametrize("mu", RELEASE_VECTORS + MIXED_SIGN_VECTORS)
def test_pair_criteria_keep_the_reduced_basis_of_vortex_systems(monkeypatch, mu):
    system = list(build_equal_weight_system(mu).polys)
    calls = _reductions(monkeypatch)
    gb = buchberger(system)
    skipping = len(calls)
    want = reference_buchberger(system)
    assert [g.terms for g in gb] == [g.terms for g in want]
    # the chain criterion spares reductions that the reference does
    assert skipping < len(calls) - skipping


@pytest.mark.parametrize("mu", RELEASE_VECTORS)
def test_tail_reduction_divides_each_minimal_element_once(monkeypatch, mu):
    # the leading monomials of a minimal basis never change, so one pass
    # of reductions leaves the basis reduced
    system = list(build_equal_weight_system(mu).polys)
    calls = _reductions(monkeypatch)
    reduced_basis = groebner._reduced_basis
    passes = []

    def counting(basis, ring):
        before = len(calls)
        gb = reduced_basis(basis, ring)
        passes.append((len(calls) - before, len(gb)))
        return gb

    monkeypatch.setattr(groebner, "_reduced_basis", counting)
    gb = buchberger(system)
    assert passes == [(len(gb), len(gb))]
    assert [g.terms for g in gb] == [g.terms for g in reference_buchberger(system)]


@pytest.mark.parametrize("case", [1, 2, 3])
def test_pair_criteria_keep_the_symmetry_case_elimination_ideals(monkeypatch, case):
    system = build_symmetry_case_system(case)
    got = elimination_ideal(system.polys, 1)
    monkeypatch.setattr(groebner, "buchberger", reference_buchberger)
    want = elimination_ideal(system.polys, 1)
    assert got.ring == want.ring
    assert [g.terms for g in got] == [g.terms for g in want]


@pytest.mark.parametrize("order,variables", [
    (MonomialOrder.lex(), "xyz"), (MonomialOrder.degrevlex(), "xyz"),
    (MonomialOrder.elimination(1), "xyz"), (MonomialOrder.elimination(2), "zxy"),
], ids=["order0", "order1", "order2", "order3"])
def test_pair_criteria_keep_the_reduced_basis_of_random_ideals(order, variables):
    rng = seeded(25)
    ring = PolynomialRing(variables, order)
    for _ in range(10):
        gens = [random_multipoly(ring, rng, max_terms=3, max_deg=3) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            assert [g.terms for g in buchberger(gens)] == \
                [g.terms for g in reference_buchberger(gens)]


# -- the basis as integer elements, the order and elimination's input -------

@pytest.mark.parametrize("order,variables", [
    (MonomialOrder.lex(), "xyz"), (MonomialOrder.degrevlex(), "xyz"),
    (MonomialOrder.elimination(1), "zxy"),
], ids=["order0", "order1", "order2"])
def test_basis_elements_are_primitive_and_polys_are_them_made_monic(order, variables):
    rng = seeded(26)
    ring = PolynomialRing(variables, order)
    checked = 0
    for _ in range(8):
        gens = [random_multipoly(ring, rng, max_terms=3, max_deg=2) for _ in range(3)]
        gens = [MultiPoly(ring, _kernels.terms_scale(
                    g.terms, Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))))
                for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        assert len(gb) == len(gb.elements) == len(gb.polys)
        for (lm, t), p in zip(gb.elements, gb.polys):
            assert all(type(c) is int for c in t.values())
            assert math.gcd(*t.values()) == 1 and t[lm] > 0
            assert p.terms[lm] == 1 and max(p.terms) == lm
            assert leading_exponents(p) == ring.packing.exponents(lm)
            assert p.terms == {m: Fraction(c, t[lm]) for m, c in t.items()}
        assert [ring.packing.exponents(lm) for lm, _ in gb.elements] == \
            [leading_exponents(p) for p in gb.polys]
        checked += len(gb)
    assert checked >= 8


def test_an_elimination_order_needs_a_block():
    for make in (lambda: MonomialOrder("elim"), lambda: MonomialOrder("elim", 0),
                 lambda: MonomialOrder.elimination(0)):
        with pytest.raises(ValueError, match="block must be >= 1"):
            make()


@pytest.mark.parametrize("kind", ["lex", "degrevlex"])
def test_lex_and_degrevlex_take_no_block(kind):
    for block in (1, 2, -1):
        with pytest.raises(ValueError, match=f"a {kind} order has no elimination block"):
            MonomialOrder(kind, block)
    assert MonomialOrder(kind, 0) == getattr(MonomialOrder, kind)()


def test_an_elimination_block_must_leave_a_variable():
    for block in (2, 5):
        with pytest.raises(ValueError, match=f"block {block} leaves none of the 2"):
            PolynomialRing(("x", "y"), MonomialOrder.elimination(block))
    # block 1 of 2 eliminates x: the basis of <xy - 1, y^2 - x> holds y^3 - 1
    ring = PolynomialRing(("x", "y"), MonomialOrder.elimination(1))
    gb = buchberger([ring.parse("x*y - 1"), ring.parse("y^2 - x")])
    assert [str(g) for g in gb] == ["y^3 - 1", "x - y^2"]


def test_order_repr_round_trips():
    assert MonomialOrder._fields == ("kind", "block")
    assert repr(MonomialOrder.elimination(2)) == "MonomialOrder.elimination(2)"
    assert repr(MonomialOrder.degrevlex()) == "MonomialOrder.degrevlex()"
    assert repr(MonomialOrder.lex()) == "MonomialOrder.lex()"
    for order in (MonomialOrder.lex(), MonomialOrder.degrevlex(),
                  MonomialOrder.elimination(1), MonomialOrder.elimination(3)):
        assert eval(repr(order)) == order


@pytest.mark.parametrize("generators,block,message", [
    ([], 1, "no generators"),
    (["x - y"], 0, "elimination block must be >= 1"),
    (["x - y"], 2, "elimination block 2 leaves none of the 2 variables"),
])
def test_elimination_refuses_bad_input_with_its_own_message(generators, block, message):
    # a block count that eliminates no variable, or every one, is refused
    # by the order and the ring that elimination_ideal builds from it
    ring = PolynomialRing(("x", "y"))
    with pytest.raises(ValueError, match=message):
        elimination_ideal([ring.parse(g) for g in generators], block)
