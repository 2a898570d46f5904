"""Exact system builders in cotangent coordinates, and the angle round trip."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    grid_newton_real_roots,
    reference_derivative,
    reference_evaluate_float,
    reference_identify,
    reference_half_angle_coordinates,
    reference_numerators,
    reference_primitive_part,
    seeded,
)
from vortexre import _kernels, halfangle
from vortexre.errors import CollisionError
from vortexre.halfangle import (
    back_transform,
    build_equal_weight_system,
    build_symmetry_case_system,
)
from vortexre.polynomials import PolynomialRing
from vortexre.potential import potential_gradient
from vortexre.search import find_all_critical_points

P_111 = (
    "1 - r2^4 + 6*r2*r3 - 2*r2^3*r3 - 3*r3^2 + 12*r2^2*r3^2 - r2^4*r3^2"
    " - 6*r2*r3^3 + 2*r2^3*r3^3"
)
Q_111 = (
    "-1 + 3*r2^2 - 6*r2*r3 + 6*r2^3*r3 - 12*r2^2*r3^2 + 2*r2*r3^3"
    " - 2*r2^3*r3^3 + r3^4 + r2^2*r3^4"
)
CASE1_V2 = (
    "mu2*mu3 + 6*r^2*mu1*mu2 - 15*r^2*mu2*mu3 + 4*r^4*mu1*mu2"
    " + 15*r^4*mu2*mu3 - 2*r^6*mu1*mu2 - r^6*mu2*mu3"
)
CASE1_V3 = (
    "-mu2*mu3 - 6*r^2*mu1*mu3 + 15*r^2*mu2*mu3 - 4*r^4*mu1*mu3"
    " - 15*r^4*mu2*mu3 + 2*r^6*mu1*mu3 + r^6*mu2*mu3"
)
CASE2_V2 = "-r^2*mu1*mu2 + r^2*mu2*mu3 + 3*mu1*mu2 - 3*mu2*mu3"
CASE2_V3 = (
    "-r^6*mu1*mu3 - 2*r^6*mu2*mu3 + 15*r^4*mu1*mu3 + 4*r^4*mu2*mu3"
    " - 15*r^2*mu1*mu3 + 6*r^2*mu2*mu3 + mu1*mu3"
)
CASE3_V2 = (
    "-r^6*mu1*mu2 - 2*r^6*mu2*mu3 + 15*r^4*mu1*mu2 + 4*r^4*mu2*mu3"
    " - 15*r^2*mu1*mu2 + 6*r^2*mu2*mu3 + mu1*mu2"
)
CASE3_V3 = "-r^2*mu1*mu3 + r^2*mu2*mu3 + 3*mu1*mu3 - 3*mu2*mu3"
# (denominator factors, collision factors, content) per component
CASE_RECORDS = {
    1: [((("r", 1), ("r^2 + 1", 2)), (), "1/4")] * 2,
    2: [((("r^2 + 1", 1),), (("r", 1),), "1/2"),
        ((("r", 1), ("r^2 + 1", 2)), (), "1/4")],
    3: [((("r", 1), ("r^2 + 1", 2)), (), "1/4"),
        ((("r^2 + 1", 1),), (("r", 1),), "1/2")],
}
# sha256 of the newline-joined polynomial text that `build-system` prints;
# any change to a single byte shows
POLY_DIGESTS = {
    (1, 2, 3, 4): "0388e1eef96213833e0c752b18b31eab75ebbf29424843a91edaaa6e9458aa6b",
    (3, 7, -8, -9, 1): "c6cb1f073e97c4bc239b77a323c17f6de0a092c01518827f63f81c71bb988fab",
}


def test_equal_weight_builder_golden_polynomials():
    system = build_equal_weight_system((1, 1, 1))
    ring = system.polys[0].ring
    assert ring.variables == ("r2", "r3")
    assert system.polys[0] == ring.parse(P_111)
    assert system.polys[1] == ring.parse(Q_111)


def test_equal_weight_builder_records_stripped_factors():
    system = build_equal_weight_system((1, 1, 1))
    assert [rec.component for rec in system.stripped_factors] == [
        "V_theta2",
        "V_theta3",
    ]
    ring = system.ring
    for rec in system.stripped_factors:
        assert rec.collision_factors == ()
        assert type(rec.content) is Fraction and rec.content == Fraction(1, 2)
        assert rec.denominator_factors == (
            (ring.parse("r2^2 + 1"), 1), (ring.parse("r3^2 + 1"), 1),
            (ring.parse("r2 - r3"), 1))
        assert all(f.ring is ring for f, _ in rec.denominator_factors)


def test_records_list_every_norm_and_the_pairs_of_the_component():
    system = build_equal_weight_system((2, -1, 3, 5))
    assert [rec.content for rec in system.stripped_factors] == [
        Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)]
    norms = ["r2^2 + 1", "r3^2 + 1", "r4^2 + 1"]
    pairs = {"V_theta2": ["r2 - r3", "r2 - r4"], "V_theta3": ["r2 - r3", "r3 - r4"],
             "V_theta4": ["r2 - r4", "r3 - r4"]}
    for rec in system.stripped_factors:
        names = [str(f) for f, _ in rec.denominator_factors]
        assert names == norms + pairs[rec.component]
        assert {k for _, k in rec.denominator_factors} == {1}


@pytest.mark.parametrize("mu", sorted(POLY_DIGESTS))
def test_polynomial_text_is_frozen(mu):
    text = "\n".join(str(p) for p in build_equal_weight_system(mu).polys)
    assert hashlib.sha256(text.encode()).hexdigest() == POLY_DIGESTS[mu]


@pytest.mark.parametrize("mu", [
    (3, -2), (2, -1, 3), (1, -3, -3, 7), (3, 7, -8, -9, 1), (1, 2, -3, 4, 5, -6),
    (1, 2, 3, -4, 5, 6, -7),
])
def test_numerators_match_the_pairwise_sum(mu):
    # the running products give the term maps that rebuilding every
    # leave-one-out product gives, numerator and factors alike
    # (vortex 1 at (1, 0) and vortex k at (r_k, 1), as in the builder)
    ring = PolynomialRing([f"r{k}" for k in range(2, len(mu) + 1)])
    unit = (0,) * ring.nvars
    one = {ring.packing.pack(unit): 1}
    points = [(one, {})] + [({ring.packing.pack(unit[:k] + (1,) + unit[k + 1:]): 1}, one)
                            for k in range(ring.nvars)]
    weights = [{ring.packing.pack(unit): m} for m in mu]
    assert halfangle._numerators(points, weights, ring.packing) == \
        reference_numerators(points, weights, ring.packing)


@pytest.mark.parametrize("case", [1, 2, 3])
def test_symmetry_case_numerators_match_the_pairwise_sum(case):
    # the point sets of `build_symmetry_case_system` in (r, mu1, mu2, mu3),
    # with the weights as ring variables
    packing = PolynomialRing(["r", "mu1", "mu2", "mu3"]).packing
    unit, lin, sq = (packing.pack(e) for e in ((0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0)))
    one, r = {unit: 1}, {lin: 1}
    half, double = (r, one), ({sq: 1, unit: -1}, {lin: 2})
    points = [(one, {})] + {1: [half, ({lin: -1}, one)], 2: [half, double],
                            3: [double, half]}[case]
    mu = [{packing.pack(e): 1} for e in ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    assert halfangle._numerators(points, mu, packing) == \
        reference_numerators(points, mu, packing)


def _record_value(rec, values):
    """content * prod(collision) / prod(denominators) at `values`."""
    value = float(rec.content)
    for f, power in rec.collision_factors:
        value *= reference_evaluate_float(f, values) ** power
    for f, power in rec.denominator_factors:
        value /= reference_evaluate_float(f, values) ** power
    return value


@pytest.mark.parametrize("mu", [
    (1, -2), (2, 1, 9), (1, -3, -3, 7), (3, 7, -8, -9, 1), (4, -1, 2, -5, 3, 1),
])
def test_records_reassemble_the_gradient(mu):
    system = build_equal_weight_system(mu)
    ring = system.ring
    rng = seeded(47)
    for _ in range(5):
        roots = [rng.uniform(-3, 3) for _ in ring.variables]
        values = dict(zip(ring.variables, roots))
        grad = potential_gradient(back_transform(roots), mu)
        for i, (p, rec) in enumerate(zip(system.polys, system.stripped_factors)):
            got = reference_evaluate_float(p, values) * _record_value(rec, values)
            want = grad[i + 1]
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_builder_output_is_primitive_integer():
    rng = seeded(43)
    for _ in range(8):
        mu = tuple(rng.choice([-3, -2, -1, 1, 2, 3, 5]) for _ in range(3))
        system = build_equal_weight_system(mu)
        for p in system.polys:
            assert all(c.denominator == 1 for c in p.terms.values())
            assert math.gcd(*(c.numerator for c in p.terms.values())) == 1


@pytest.mark.parametrize("build,arg", [
    (build_equal_weight_system, (1, -1)),
    (build_equal_weight_system, (2, -1, 3)),
    (build_equal_weight_system, (12, -10, -7, 5)),
    *((build_symmetry_case_system, case) for case in (1, 2, 3)),
])
def test_builders_return_fraction_coefficients(build, arg):
    # the builders multiply int term maps but return Fraction polynomials:
    # an int coefficient left in would make a caller's `/` divide into floats
    for p in build(arg).polys:
        assert p.terms
        assert all(type(c) is Fraction for c in p.terms.values())


def test_builder_stripped_factors_only_vanish_at_collisions():
    rng = seeded(44)
    mu = (2, -1, 3)
    system = build_equal_weight_system(mu)
    for rec in system.stripped_factors:
        for f, _power in rec.denominator_factors + rec.collision_factors:
            for _ in range(50):
                r2, r3 = rng.uniform(-4, 4), rng.uniform(-4, 4)
                if abs(reference_evaluate_float(f, {"r2": r2, "r3": r3})) < 1e-9:
                    # a real zero must be a weak-weak collision r2 = r3
                    assert abs(r2 - r3) < 1e-4


def test_builder_rejects_non_integer_or_zero_weights():
    # count, then zero, then integers: 1/2,0,3 is refused for its zero
    with pytest.raises(ValueError, match="^weights must be nonzero$"):
        build_equal_weight_system((1, 0, 1))
    with pytest.raises(ValueError, match="^weights must be nonzero$"):
        build_equal_weight_system((Fraction(1, 2), 0, 3))
    with pytest.raises(ValueError, match="integer weights.*rescale, e.g. 1,2,6$"):
        build_equal_weight_system((Fraction(1, 2), 1, 3))
    with pytest.raises(ValueError, match="^need at least two weights$"):
        build_equal_weight_system((1,))
    with pytest.raises(ValueError, match="^need at least two weights$"):
        build_equal_weight_system((Fraction(1, 2),))


def _assert_case_golden(case, v2, v3):
    system = build_symmetry_case_system(case)
    ring = system.polys[0].ring
    assert ring.variables == ("r", "mu1", "mu2", "mu3")
    assert system.polys[0] == ring.parse(v2)
    assert system.polys[1] == ring.parse(v3)
    got = [(tuple((str(f), k) for f, k in rec.denominator_factors),
            tuple((str(f), k) for f, k in rec.collision_factors), str(rec.content))
           for rec in system.stripped_factors]
    assert got == CASE_RECORDS[case]


def test_symmetry_case_one_golden_polynomials():
    _assert_case_golden(1, CASE1_V2, CASE1_V3)


@pytest.mark.parametrize("case,golden", [
    (2, (CASE2_V2, CASE2_V3)), (3, (CASE3_V2, CASE3_V3)),
])
def test_symmetry_cases_two_and_three_golden_polynomials(case, golden):
    _assert_case_golden(case, *golden)


@pytest.mark.parametrize("case,make_angles", [
    (1, lambda t: (0.0, t, -t)),
    (2, lambda t: (0.0, t, 2 * t)),
    (3, lambda t: (0.0, 2 * t, t)),
])
def test_symmetry_case_records_reassemble_the_gradient(case, make_angles):
    system = build_symmetry_case_system(case)
    rng = seeded(48)
    for _ in range(10):
        mu = [rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 5.0]) for _ in range(3)]
        phi = rng.uniform(0.1, 2.0)
        values = {"r": 1.0 / math.tan(phi / 2), "mu1": mu[0], "mu2": mu[1], "mu3": mu[2]}
        grad = potential_gradient(make_angles(phi), mu)
        for i, (p, rec) in enumerate(zip(system.polys, system.stripped_factors)):
            got = reference_evaluate_float(p, values) * _record_value(rec, values)
            want = grad[i + 1]
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_symmetry_case_one_collapses_for_equal_pair_weights():
    system = build_symmetry_case_system(1)
    subbed = [reference_identify(p, "mu3", "mu2") for p in system.polys]
    prim0, _ = reference_primitive_part(subbed[0])
    prim1, _ = reference_primitive_part(subbed[1])
    assert prim0.terms in (prim1.terms, _kernels.terms_neg(prim1.terms))


def test_invalid_case_rejected():
    with pytest.raises(ValueError):
        build_symmetry_case_system(4)


@pytest.mark.parametrize(
    "case,mu,make_angles",
    [
        (1, (1.0, 1.0, 1.0), lambda t: (0.0, t, -t)),
        (2, (1.0, 5.0, 1.0), lambda t: (0.0, t, 2 * t)),
        (3, (2.0, 2.0, 7.0), lambda t: (0.0, 2 * t, t)),
    ],
)
def test_symmetric_system_roots_are_critical_points(case, mu, make_angles):
    system = build_symmetry_case_system(case)
    values = dict(zip(("mu1", "mu2", "mu3"), mu))
    evals = [(lambda r, p=p: reference_evaluate_float(p, {"r": r, **values}))
             for p in system.polys]
    grid = np.linspace(-6, 6, 2001)
    samples = [[f(g) for g in grid] for f in evals]
    # with compatible weights one equation may vanish identically; bisect
    # on the one that still has structure
    track = max(range(2), key=lambda k: max(abs(v) for v in samples[k]))
    f = evals[track]
    roots = []
    for a, b, fa, fb in zip(grid, grid[1:], samples[track], samples[track][1:]):
        if fa == 0 or fa * fb > 0:
            continue
        lo, hi = a, b
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        roots.append(0.5 * (lo + hi))
    assert roots, "symmetric family should have at least one representative"
    for r in roots:
        assert abs(evals[1 - track](r)) < 1e-6  # the pair stays consistent
        theta = tuple(t % (2 * math.pi) for t in make_angles(math.pi - 2 * math.atan(r)))
        if min(theta[1], theta[2], abs(theta[1] - theta[2])) < 1e-3:
            continue  # bisection landed on a collision factor zero
        grad = potential_gradient(theta, mu)
        assert np.abs(grad).max() < 1e-8


def test_system_vanishes_at_search_critical_points():
    for mu in ((1, 1, 1), (2, 1, 9)):
        system = build_equal_weight_system(mu)
        found = find_all_critical_points(mu, seeds=512)
        assert len(found)
        for theta in found.theta:
            coords = reference_half_angle_coordinates(theta)
            values = {"r2": coords[0], "r3": coords[1]}
            for p in system.polys:
                assert abs(reference_evaluate_float(p, values)) < 1e-7


def test_numeric_roots_map_back_to_critical_points():
    mu = (3, 1, 2)
    system = build_equal_weight_system(mu)
    p, q = system.polys
    fns = lambda x, y: (
        reference_evaluate_float(p, {"r2": x, "r3": y}),
        reference_evaluate_float(q, {"r2": x, "r3": y}),
    )
    pd = {(n, v): reference_derivative(p, v) for n, v in (("p", "r2"), ("p", "r3"))}
    qd = {(n, v): reference_derivative(q, v) for n, v in (("q", "r2"), ("q", "r3"))}
    jac = lambda x, y: (
        (
            reference_evaluate_float(pd[("p", "r2")], {"r2": x, "r3": y}),
            reference_evaluate_float(pd[("p", "r3")], {"r2": x, "r3": y}),
        ),
        (
            reference_evaluate_float(qd[("q", "r2")], {"r2": x, "r3": y}),
            reference_evaluate_float(qd[("q", "r3")], {"r2": x, "r3": y}),
        ),
    )
    roots = grid_newton_real_roots(fns, jac, box=4.0, grid=24)
    assert roots
    for root in roots:
        theta = back_transform(tuple(root))
        grad = potential_gradient(theta, mu)
        assert np.abs(grad).max() < 1e-8


def test_back_transform_marked_values():
    assert back_transform((1.0,))[1] == pytest.approx(math.pi / 2)
    assert back_transform((0.0,))[1] == pytest.approx(math.pi)
    assert back_transform((0.5, -2.0))[0] == 0.0


def test_back_transform_rejects_coinciding_roots():
    with pytest.raises(CollisionError):
        back_transform((2.0, 2.0 + 1e-12))


def test_round_trip_angles_to_roots_and_back():
    rng = seeded(45)
    for _ in range(50):
        t2 = rng.uniform(0.05, 2 * math.pi - 0.05)
        t3 = rng.uniform(0.05, 2 * math.pi - 0.05)
        if abs(t2 - t3) < 0.05:
            continue
        coords = reference_half_angle_coordinates((0.0, t2, t3))
        back = back_transform(coords)
        assert back[1] == pytest.approx(t2, abs=1e-12)
        assert back[2] == pytest.approx(t3, abs=1e-12)


def test_round_trip_roots_to_angles_and_back():
    rng = seeded(46)
    for _ in range(50):
        r2 = rng.uniform(-8, 8)
        r3 = rng.uniform(-8, 8)
        if abs(r2 - r3) < 1e-3:
            continue
        again = reference_half_angle_coordinates(back_transform((r2, r3)))
        assert again[0] == pytest.approx(r2, abs=1e-9)
        assert again[1] == pytest.approx(r3, abs=1e-9)
