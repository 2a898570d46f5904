"""Buchberger completion, division, and elimination ideals."""

import hashlib
import math
from fractions import Fraction

import pytest

from helpers import (
    is_groebner_basis,
    lines_to_multipoly,
    random_line_arrangement,
    random_multipoly,
    reference_buchberger,
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
    order = p.ring.order
    _, t, unit = _kernels.primitive(p.terms, order)
    r, k = _kernels.reduce_integer(t, groebner._divisors(divisors, order), order)
    return MultiPoly(p.ring, {m: unit * c / k for m, c in r.items()})


def test_division_single_divisor(lex_ring):
    x, y = lex_ring.gens()
    assert _kernels.reduce_integer({(2, 1): 1}, [((1, 0), {(1, 0): 1, (0, 1): -1})],
                                   lex_ring.order) == ({(0, 3): 1}, 1)
    assert reference_normal_form(x * x * y, [x - y]) == y**3


def test_remainder_has_no_reducible_term(lex_ring):
    rng = seeded(12)
    for _ in range(25):
        p = random_multipoly(lex_ring, rng)
        divisors = [d for d in (random_multipoly(lex_ring, rng),) if not d.is_zero()]
        if not divisors:
            continue
        remainder = _reduce(p, divisors)
        assert remainder == reference_normal_form(p, divisors)
        lead = divisors[0].leading_monomial()
        for mono in remainder.terms:
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
    order = lex_ring.order
    for _ in range(20):
        f = random_multipoly(lex_ring, rng)
        g = random_multipoly(lex_ring, rng)
        if f.is_zero() or g.is_zero():
            continue
        (mf, tf), (mg, tg) = groebner._divisors((f, g), order)
        s = groebner._s_terms((mf, tf), (mg, tg))
        scale = math.lcm(tf[mf], tg[mg])
        assert MultiPoly(lex_ring, {m: Fraction(c, scale) for m, c in s.items()}) == \
            reference_s_polynomial(f, g)
        if not s:
            continue
        lcm = tuple(max(a, b) for a, b in zip(mf, mg))
        assert order.key(_kernels.leading_monomial(s, order)) < order.key(lcm)


def test_circle_meets_line(lex_ring):
    x, y = lex_ring.gens()
    gb = buchberger([x * x + y * y - lex_ring.one(), x - y])
    assert sorted(str(g) for g in gb.polys) == ["x - y", "y^2 - 1/2"]


def test_principal_ideal(lex_ring):
    x, _ = lex_ring.gens()
    gb = buchberger([x * 2])
    assert [str(g) for g in gb.polys] == ["x"]


def test_unit_ideal_collapses_to_one(lex_ring):
    x, _ = lex_ring.gens()
    gb = buchberger([x, x + lex_ring.one()])
    assert [str(g) for g in gb.polys] == ["1"]


def test_zero_generators_dropped(lex_ring):
    x, _ = lex_ring.gens()
    gb = buchberger([lex_ring.zero(), x])
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
    x, y = lex_ring.gens()
    assert not is_groebner_basis([x * x + y * y - lex_ring.one(), x - y])


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
        scaled = [g * ring.constant(3) for g in gens]
        assert sorted(map(str, buchberger(scaled).polys)) == sorted(map(str, gb.polys))


def test_membership(lex_ring):
    x, y = lex_ring.gens()
    gb = buchberger([x * x + y * y - lex_ring.one(), x - y])
    member = (x * x + y * y - lex_ring.one()) * (x + y) + (x - y) * y**5
    for p, zero in ((member, True), (lex_ring.one(), False),
                    (x + lex_ring.constant(17), False)):
        assert reference_normal_form(p, gb.polys).is_zero() == zero
        assert _reduce(p, gb.polys).is_zero() == zero


def test_basis_reduces_under_its_own_order():
    # in an elimination ring x - y^2 has leading term x, so the remainder
    # of x is y^2; under degrevlex the leading term is y^2 and x is reduced
    ring = PolynomialRing(("x", "y"))
    elim = ring.with_order(MonomialOrder.elimination(1))
    x, y = elim.gens()
    gb = buchberger([elim.parse("y^3 - 1"), elim.parse("x - y^2")])
    assert gb.ring == elim and gb.order == elim.order
    assert gb.leading_monomials() == [(0, 3), (1, 0)]
    for nf in (reference_normal_form, _reduce):
        assert nf(x, gb.polys) == y**2
        assert nf(x, gb.polys).ring is elim
        assert nf(x**3 - 1, gb.polys).is_zero()
        assert not nf(x - y, gb.polys).is_zero()
    plain = buchberger([ring.parse("y^3 - 1"), ring.parse("x - y^2")])
    assert (1, 0) not in plain.leading_monomials()


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
        elimination_ideal([f, g], ["x"])
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError):
            op(f, g)
        with pytest.raises(ValueError):
            op(g, f)
    # an equal ring built anew is the same ring
    again = PolynomialRing(("x", "y"))
    assert [str(g) for g in buchberger([f, again.parse("x - y^2")])] == ["y^2 - x"]
    assert f + again.parse("y^2") == ring.parse("x")


def test_normal_form_is_linear(lex_ring):
    rng = seeded(17)
    x, y = lex_ring.gens()
    gb = buchberger([x * x * x - y, y * y - x])
    for _ in range(10):
        a = random_multipoly(lex_ring, rng)
        b = random_multipoly(lex_ring, rng)
        nf = lambda p: _reduce(p, gb.polys)
        assert nf(a + b) == nf(a) + nf(b)
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
    p = ring.zero()
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in ring.variables)
        p = p + ring.monomial(e, Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
    return p


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
            non_monic += any(d.leading_coefficient() not in (1, -1) for d in divisors)
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
    cases = [list(build_equal_weight_system((2, -1, 3)))]
    cases += [[_random_fraction_poly(ring, rng, max_terms=3, max_deg=2) for _ in range(3)]
              for _ in range(4)]
    for gens in cases:
        want = [str(g) for g in buchberger(gens)]
        assert [str(g) for g in buchberger([g * scale for g in gens])] == want


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
    x, y = ring.gens()
    elim = elimination_ideal([x * x + y * y - ring.constant(5), x - y - ring.one()], ["x"])
    assert [str(g) for g in elim.polys] == ["y^2 + y - 2"]


def test_elimination_can_be_empty():
    ring = PolynomialRing(("x", "y"))
    x, y = ring.gens()
    assert not elimination_ideal([x - y], ["x"]).polys


def test_empty_elimination_basis_keeps_its_ring():
    ring = PolynomialRing(("x", "y"))
    x, y = ring.gens()
    empty = elimination_ideal([x - y], ["x"])
    full = elimination_ideal([x - y, y * y - ring.one()], ["x"])
    assert [str(g) for g in full] == ["y^2 - 1"]
    assert empty.ring == full.ring
    assert empty.ring.variables == ("x", "y")
    assert empty.order == MonomialOrder.elimination(1)
    assert not empty.elements and not empty.polys
    # the elimination ring prints x first
    assert str(empty.ring.parse(str(y * y - x))) == "-x + y^2"


def test_elimination_output_avoids_eliminated_variables():
    rng = seeded(19)
    ring = PolynomialRing(("x", "y", "z"))
    for _ in range(6):
        gens = [random_multipoly(ring, rng, max_terms=3, max_deg=2) for _ in range(3)]
        elim = elimination_ideal(gens, ["x"])
        for g in elim.polys:
            assert "x" not in reference_variables_used(g)


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
        block = elimination_ideal(gens, ["x"])
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
    elim = elimination_ideal([pf, pg], ["x"])
    assert elim.polys
    # collect the y-coordinates of the actual intersection points
    import itertools

    for (a1, b1, c1), (a2, b2, c2) in itertools.product(f, g):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        y_val = (-a1 * c2 + a2 * c1) / det
        for e in elim.polys:
            assert abs(e.evaluate_float({"y": float(y_val)})) < 1e-9


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
    system = list(build_equal_weight_system(mu))
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
    system = list(build_equal_weight_system(mu))
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
    eliminate = [system.ring.variables[0]]
    got = elimination_ideal(list(system), eliminate)
    monkeypatch.setattr(groebner, "buchberger", reference_buchberger)
    want = elimination_ideal(list(system), eliminate)
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
        gens = [g * Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for g in gens
                if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        assert len(gb) == len(gb.elements) == len(gb.polys)
        for (lm, t), p in zip(gb.elements, gb.polys):
            assert all(type(c) is int for c in t.values())
            assert math.gcd(*t.values()) == 1 and t[lm] > 0
            assert p.leading_monomial() == lm and p.leading_coefficient() == 1
            assert p.terms == {m: Fraction(c, t[lm]) for m, c in t.items()}
        assert gb.leading_monomials() == [p.leading_monomial() for p in gb.polys]
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


@pytest.mark.parametrize("generators,eliminate,message", [
    ([], ["x"], "no generators"),
    (["x - y"], [], "cannot eliminate 0 of 2"),
    (["x - y"], ["z"], "not a variable"),
    (["x - y"], ["x", "x"], "named twice"),
    (["x - y"], ["x", "y"], "cannot eliminate 2 of 2"),
    (["x - y"], ["y"], "only the leading variables"),
])
def test_elimination_refuses_bad_input_with_its_own_message(generators, eliminate, message):
    ring = PolynomialRing(("x", "y"))
    with pytest.raises(ValueError, match=message):
        elimination_ideal([ring.parse(g) for g in generators], eliminate)


def test_elimination_takes_its_leading_block_in_any_order():
    ring = PolynomialRing(("x", "y", "z"))
    gens = [ring.parse(g) for g in ("x - y + z", "x*y - z^2", "y^2 - z - 1")]
    want = elimination_ideal(gens, ["x", "y"])
    got = elimination_ideal(gens, ["y", "x"])
    assert got.ring == want.ring
    assert got.ring.order == MonomialOrder.elimination(2)
    assert [g.terms for g in got] == [g.terms for g in want]
    assert want.polys and all(not any(m[:2]) for g in want for m in g.terms)
    with pytest.raises(ValueError, match="only the leading variables"):
        elimination_ideal(gens, ["x", "z"])
