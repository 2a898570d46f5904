"""Seeded Newton search for critical points, dedup, families, symmetry."""

import json
import math
import time

import numpy as np
import pytest

from helpers import (
    reference_dedup,
    reference_find_all_critical_points,
    reference_group_into_families,
    reference_lattice_seeds,
    seeded,
)
from vortexre.potential import AngularConfig, CirculationWeights, potential_gradient
from vortexre.search import (
    CriticalPoint,
    CriticalPointSet,
    _dedup,
    _lattice_seeds,
    _newton_steps,
    export_critical_points,
    find_all_critical_points,
    group_into_families,
    rotation_distance,
    symmetry_axes,
    symmetry_check,
)

EQUILATERAL = (0.0, 2 * math.pi / 3, 4 * math.pi / 3)


@pytest.fixture(scope="module")
def equal_weights():
    return find_all_critical_points((1, 1, 1), seeds=1024)


def test_two_vortex_catalog_is_exact():
    found = find_all_critical_points((1, 1), seeds=256)
    angles = sorted(p.config.theta[1] for p in found.points)
    expected = [math.pi / 3, math.pi, 5 * math.pi / 3]
    assert len(angles) == 3
    for got, want in zip(angles, expected):
        assert got == pytest.approx(want, abs=1e-9)
    assert len(group_into_families(found)) == 2


def test_equal_weights_point_count(equal_weights):
    assert len(equal_weights.points) == 14


def test_equal_weights_family_structure(equal_weights):
    families = group_into_families(equal_weights)
    assert sorted(len(f) for f in families) == [2, 6, 6]
    # each family is homogeneous in classification
    for fam in families:
        verdicts = {
            (
                equal_weights.points[i].report.verdict,
                equal_weights.points[i].report.extremal_type,
            )
            for i in fam
        }
        assert len(verdicts) == 1


def test_equal_weights_verdict_census(equal_weights):
    census = {}
    for p in equal_weights.points:
        key = (p.report.verdict, p.report.extremal_type)
        census[key] = census.get(key, 0) + 1
    assert census == {
        ("stable", "minimum"): 6,
        ("unstable", "saddle"): 6,
        ("unstable", "maximum"): 2,
    }


def test_every_point_is_actually_critical(equal_weights):
    for p in equal_weights.points:
        g = potential_gradient(p.config, equal_weights.mu)
        # the polisher drives the reduced gradient below tol; the gauge
        # component is minus their sum
        assert np.abs(g[1:]).max() < 1e-10
        assert np.abs(g).max() < 1e-9


def test_points_are_pairwise_distinct(equal_weights):
    pts = equal_weights.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert rotation_distance(pts[i].config.theta, pts[j].config.theta) > 1e-6


def test_catalog_is_sorted_and_gauge_fixed(equal_weights):
    thetas = [p.config.theta for p in equal_weights.points]
    assert thetas == sorted(thetas)
    for t in thetas:
        assert t[0] == 0.0


def test_seed_count_already_saturated():
    a = find_all_critical_points((1, 1, 1), seeds=512)
    b = find_all_critical_points((1, 1, 1), seeds=1024)
    assert len(a.points) == len(b.points) == 14


def test_mixed_sign_weights_find_stable_saddle():
    found = find_all_critical_points((2, -1, 3), seeds=1024)
    assert len(found.points) == 10
    assert len(group_into_families(found)) == 5
    kinds = {(p.report.verdict, p.report.extremal_type) for p in found.points}
    assert ("stable", "saddle") in kinds


def test_rotation_distance_behaviour():
    base = (0.0, 1.0, 2.0)
    shifted = tuple((t + 1.234) % (2 * math.pi) for t in base)
    assert rotation_distance(base, shifted) < 1e-12
    assert rotation_distance(base, (0.0, 1.0, 2.5)) == pytest.approx(0.5)
    assert rotation_distance(base, base) == 0.0
    # symmetric in its arguments
    other = (0.1, 1.4, 3.0)
    assert rotation_distance(base, other) == pytest.approx(rotation_distance(other, base))


def test_symmetry_detection():
    assert symmetry_check(EQUILATERAL)
    assert symmetry_axes(EQUILATERAL) == (0, 1, 2)
    assert symmetry_check((0.0, 1.0, 2 * math.pi - 1.0))
    assert not symmetry_check((0.0, 1.0, 2.5))


def test_symmetry_respects_weights():
    iso = (0.0, 1.0, 2 * math.pi - 1.0)
    # geometrically symmetric, but the reflection must also preserve weights
    assert symmetry_check(iso, mu=(5, 1, 1))
    assert not symmetry_check(iso, mu=(5, 1, 2))


def test_equal_weight_points_all_symmetric(equal_weights):
    for p in equal_weights.points:
        assert symmetry_check(p.config, tol=1e-6)


def test_unequal_weight_points_all_asymmetric():
    found = find_all_critical_points((2, 1, 9), seeds=1024)
    assert len(found.points) == 10
    for p in found.points:
        assert not symmetry_check(p.config, tol=1e-6)


def test_export_schema(equal_weights):
    out = export_critical_points(equal_weights)
    assert out["count"] == 14
    assert out["family_count"] == 3
    assert isinstance(out["dedup_rule"], str)
    point = out["points"][0]
    for key in (
        "angles",
        "mu",
        "family",
        "symmetric",
        "hessian_eigenvalues",
        "weighted_eigenvalues",
        "zero_count",
        "verdict",
        "extremal_type",
        "gradient_norm",
    ):
        assert key in point
    assert len(point["angles"]) == 3
    import json

    json.dumps(out)  # must be serializable as-is


# -- batched search against the one-seed-at-a-time reference ------------------

@pytest.mark.parametrize("mu,seeds", [
    ((1, 1, 1), 512),
    ((2, -1, 3), 512),
    ((2, 1, 9), 512),
    ((-1, -3, 10), 512),
    ((1, 2, 3, 4), 512),
    ((1, 1, 1, 1, 1), 512),
    ((1, 1, 1, 1, 1, 1), 256),
])
def test_search_matches_reference_byte_for_byte(mu, seeds):
    ref = reference_find_all_critical_points(mu, seeds)
    got = find_all_critical_points(mu, seeds=seeds)
    want = json.dumps(export_critical_points(ref, reference_group_into_families(ref)))
    assert json.dumps(export_critical_points(got, group_into_families(got))) == want


def test_lattice_keeps_first_fifteen_primes_and_grows_past_them():
    assert np.array_equal(_lattice_seeds(15, 64), reference_lattice_seeds(15, 64))
    seeds = _lattice_seeds(17, 64)
    assert seeds.shape == (64, 17)
    assert np.array_equal(seeds[:, :15], reference_lattice_seeds(15, 64))
    # sqrt(53) and sqrt(59) drive the two new axes
    assert seeds[0, 15] == pytest.approx((math.sqrt(53) % 1.0) * 2 * math.pi)
    assert seeds[0, 16] == pytest.approx((math.sqrt(59) % 1.0) * 2 * math.pi)


def test_singular_hessian_rows_fall_back_to_least_squares():
    H = np.array([[[2.0, 1.0], [1.0, 3.0]], [[1.0, 0.0], [0.0, 0.0]]])
    rhs = np.array([[1.0, -1.0], [4.0, 5.0]])
    steps = _newton_steps(H, rhs)
    assert np.array_equal(steps[0], np.linalg.solve(H[0], rhs[0]))
    assert np.array_equal(steps[1], np.linalg.lstsq(H[1], rhs[1], rcond=None)[0])


def test_dedup_merges_across_the_wrap():
    points = np.array([[2 * math.pi - 1e-9, 1.0], [1e-9, 1.0]])
    kept = _dedup(points, 1e-6)
    assert len(kept) == 1
    assert tuple(kept[0]) == (1e-9, 1.0)


def test_dedup_matches_linear_scan_near_cell_edges():
    rng = seeded(7)
    centres = [[rng.choice((0.0, 2 * math.pi, rng.uniform(0, 2 * math.pi)))
                for _ in range(3)] for _ in range(12)]
    points = []
    for _ in range(400):
        c = rng.choice(centres)
        points.append([(a + rng.uniform(-1.5e-6, 1.5e-6)) % (2 * math.pi) for a in c])
    points = np.array(points)
    got = _dedup(points, 1e-6)
    want = reference_dedup(points, 1e-6)
    assert [tuple(x) for x in got] == [tuple(x) for x in want]


def _point_set(thetas, mu):
    points = tuple(CriticalPoint(config=AngularConfig(t), report=None) for t in thetas)
    return CriticalPointSet(points=points, mu=CirculationWeights(mu))


def test_family_gap_on_a_rounding_boundary_still_merges():
    tol = 1e-6
    gap = (1234567 + 0.5) * tol   # half-way between two rounding units
    base = (0.0, gap, 4.0)
    below = (0.0, gap - 1e-12, 4.0)
    above = (0.0, gap + 1e-12, 4.0)
    mirror = (0.0, (2 * math.pi - 4.0) % (2 * math.pi),
              (2 * math.pi - gap - 1e-12) % (2 * math.pi))
    other = (0.0, 1.0, 4.0)
    point_set = _point_set([base, below, other, above, mirror], (1, 1, 1))
    families = group_into_families(point_set, family_tol=tol)
    assert families == [(0, 1, 3, 4), (2,)]
    assert families == reference_group_into_families(point_set, family_tol=tol)


def test_families_at_eight_equal_weights_are_fast():
    found = find_all_critical_points((1,) * 8, seeds=256)
    assert len(found) > 100
    start = time.perf_counter()
    families = group_into_families(found)
    assert time.perf_counter() - start < 1.0
    assert sorted(i for fam in families for i in fam) == list(range(len(found)))
