"""Seeded Newton search for critical points, dedup, families, symmetry."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import time
import tracemalloc
import types

import numpy as np
import pytest

from helpers import (
    ZERO_SUM_SADDLES,
    reference_batched_polish,
    reference_cell_dedup,
    reference_classify,
    reference_dedup,
    reference_family_keys,
    reference_find_all_critical_points,
    reference_group_into_families,
    reference_lattice_seeds,
    reference_rotation_distances,
    reference_symmetry_axes,
    reference_wrapped_polish,
    seeded,
)
from vortexre import search
from vortexre.cli import main
from vortexre.errors import NotACriticalPointError
from vortexre.potential import (
    CirculationWeights,
    _classify,
    _pair_table,
    _scales,
    classify,
    potential_gradient,
    potential_hessian,
)
from vortexre.search import (
    _DEDUP_TOL,
    _FAMILY_TOL,
    _ROUNDING_MARGIN,
    TWO_PI,
    CriticalPointSet,
    _circle,
    _dedup,
    _family_keys,
    _gauged,
    _lattice_seeds,
    _newton_steps,
    _polish,
    _symmetric,
    export_critical_points,
    find_all_critical_points,
    group_into_families,
)

EQUILATERAL = (0.0, 2 * math.pi / 3, 4 * math.pi / 3)


@pytest.fixture(scope="module")
def equal_weights():
    return find_all_critical_points((1, 1, 1), seeds=1024)


def test_two_vortex_catalog_is_exact():
    found = find_all_critical_points((1, 1), seeds=256)
    angles = sorted(found.theta[:, 1])
    expected = [math.pi / 3, math.pi, 5 * math.pi / 3]
    assert len(angles) == 3
    for got, want in zip(angles, expected):
        assert got == pytest.approx(want, abs=1e-9)
    assert len(group_into_families(found)) == 2


def test_equal_weights_point_count(equal_weights):
    assert len(equal_weights) == len(equal_weights.theta) == 14


def test_equal_weights_family_structure(equal_weights):
    families = group_into_families(equal_weights)
    assert sorted(len(f) for f in families) == [2, 6, 6]
    # each family is homogeneous in classification
    for fam in families:
        verdicts = {
            (equal_weights.reports[i].verdict, equal_weights.reports[i].extremal_type)
            for i in fam
        }
        assert len(verdicts) == 1


def test_equal_weights_verdict_census(equal_weights):
    census = {}
    for report in equal_weights.reports:
        key = (report.verdict, report.extremal_type)
        census[key] = census.get(key, 0) + 1
    assert census == {
        ("stable", "minimum"): 6,
        ("unstable", "saddle"): 6,
        ("unstable", "maximum"): 2,
    }


def test_every_point_is_actually_critical(equal_weights):
    for theta in equal_weights.theta:
        g = potential_gradient(theta, equal_weights.mu)
        # the polisher drives the reduced gradient below tol; the gauge
        # component is minus their sum
        assert np.abs(g[1:]).max() < 1e-10
        assert np.abs(g).max() < 1e-9


def test_points_are_pairwise_distinct(equal_weights):
    pts = equal_weights.theta
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert reference_rotation_distances(pts[i], pts[j])[0] > 1e-6


def test_catalog_is_sorted_and_gauge_fixed(equal_weights):
    thetas = equal_weights.theta.tolist()
    assert thetas == sorted(thetas)
    for t in thetas:
        assert t[0] == 0.0


def test_seed_count_already_saturated():
    a = find_all_critical_points((1, 1, 1), seeds=512)
    b = find_all_critical_points((1, 1, 1), seeds=1024)
    assert len(a) == len(b) == 14


def test_mixed_sign_weights_find_stable_saddle():
    found = find_all_critical_points((2, -1, 3), seeds=1024)
    assert len(found) == 10
    assert len(group_into_families(found)) == 5
    kinds = {(r.verdict, r.extremal_type) for r in found.reports}
    assert ("stable", "saddle") in kinds


def test_symmetry_detection():
    mask = _symmetric([EQUILATERAL, (0.0, 1.0, 2 * math.pi - 1.0), (0.0, 1.0, 2.5)], 1e-8)
    assert mask.tolist() == [True, True, False]


def test_symmetry_respects_weights():
    iso = (0.0, 1.0, 2 * math.pi - 1.0)
    # geometrically symmetric, but a weighted reflection must also preserve
    # the weights; the acceptance checks ask the reference that question
    assert _symmetric([iso], 1e-8).all()
    assert reference_symmetry_axes(iso, (5, 1, 1)) == (0,)
    assert reference_symmetry_axes(iso, (5, 1, 2)) == ()


def _least_gap(row):
    """Least distance on the circle between two vortices of row."""
    ranked = sorted(a % TWO_PI for a in row)
    return min(b - a for a, b in zip(ranked, ranked[1:] + [ranked[0] + TWO_PI]))


@pytest.mark.parametrize("mu,seeds", [((1, 1, 1), 256), ((2, -1, 3), 256),
                                      ((1, 2, 3, 4), 256), ((1,) * 5, 256),
                                      ((1,) * 6, 256)])
def test_symmetry_mask_equals_the_per_point_reference_on_catalogues(mu, seeds):
    found = find_all_critical_points(mu, seeds=seeds)
    symmetric = 0
    for tol in (1e-8, 1e-6):
        mask = _symmetric(found.theta, tol)
        assert mask.shape == (len(found),)
        for got, theta in zip(mask.tolist(), found.theta):
            assert got == bool(reference_symmetry_axes(theta, None, tol))
            symmetric += got
    assert symmetric or len(set(mu)) == len(mu)  # equal weights give symmetric points


def test_symmetry_mask_equals_the_per_point_reference_on_built_cases():
    tol = 1e-6
    t = 2 * math.pi
    rows = [
        # vortices 1 and 2 closer than 2 tol: some images have two
        # candidates within tol
        (0.0, 1.0, 1.0 + 0.6 * tol, t - 1.0 - 0.3 * tol, t - 1.0 + 0.6 * tol),
        (0.0, 1.0, 1.0 + 0.5 * tol, t - 1.0, t - 1.0 - 0.5 * tol),
        (0.0, 2.0, 2.0 + 1.5 * tol, 4.0, 4.0 - 0.2 * tol),
        # the images of vortices 1 and 2 each have the one candidate 3, and
        # 3's image only 1: rounding makes "within tol" one-sided here
        (4.891099201051372, 0.9186617148314635, 0.9186626171700718, 2.580351477753086),
        # at the wrap, and outside [0, 2*pi)
        (t - 1e-9, 1.0, t - 1.0 - 2e-9),
        (-1.0, 1.0, 0.0),
        (1e-9, t - 1e-9, math.pi),
        (0.0, 2 * t + 1.0, -1.0 - 3 * t),
    ]
    rng = seeded(11)
    for _ in range(200):
        # mirror pairs about a random axis, jittered by about tol
        axis = rng.uniform(0.0, t)
        half = [rng.uniform(0.0, math.pi) for _ in range(2)]
        angles = [axis] + [axis + s * h for h in half for s in (1, -1)]
        angles += [angles[1] + rng.uniform(-2 * tol, 2 * tol)]
        rows.append(tuple((a + rng.uniform(-tol, tol)) % t for a in angles[:5])
                    + (angles[5],))
    differ = []
    for n in sorted({len(row) for row in rows}):
        theta = np.array([row for row in rows if len(row) == n])
        for got, row in zip(_symmetric(theta, tol).tolist(), theta.tolist()):
            if got != bool(reference_symmetry_axes(row, None, tol)):
                differ.append(tuple(row))
    # the two rules can differ only where two vortices lie within 2 tol of
    # each other; here they differ on row 0 alone
    assert differ == [rows[0]] and _least_gap(rows[0]) <= 2 * tol
    # the circle order matches 1 with 4 and 2 with 3 about vortex 0; the
    # greedy reference takes vortex 3 first for vortex 1 and leaves vortex 2
    # no partner, so it calls this row asymmetric
    assert _symmetric([rows[0]], tol).tolist() == [True]
    assert reference_symmetry_axes(rows[0], None, tol) == ()
    assert _symmetric([rows[1]], tol).tolist() == [True]
    assert _symmetric([rows[3]], tol).tolist() == [False]
    iso = np.array([(0.0, 1.0, t - 1.0), (1.0, 0.0, 2.0)])
    assert _symmetric(iso, tol).tolist() == [True, True]
    assert _symmetric([(t - 1e-9, 1.0, t - 1.0 - 2e-9)], 1e-8).tolist() == [True]


@pytest.mark.parametrize("n", range(2, 8))
def test_symmetry_mask_equals_the_per_point_reference_on_mirror_rows(n):
    # configurations with an axis through vortex 0 (and through vortex 1
    # when n is even), shifted by whole turns, each angle then moved by up
    # to tol / 4, which keeps the symmetry, or by up to 1.5 tol, which
    # mostly breaks it
    rng = seeded(60 + n)
    flags = []
    for _ in range(2000):
        tol = 10.0 ** rng.uniform(-9, -5)
        axis = rng.uniform(0.0, TWO_PI)
        half = [rng.uniform(0.05, math.pi - 0.05) for _ in range((n - 1) // 2)]
        angles = [axis] + [axis + math.pi] * (n % 2 == 0)
        angles += [axis + s * h for h in half for s in (1, -1)]
        shift = rng.choice((-TWO_PI, 0.0, TWO_PI, 2 * TWO_PI))
        jitter = rng.choice((0.25, 1.5)) * tol
        row = [a + shift + rng.uniform(-jitter, jitter) for a in angles]
        if _least_gap(row) <= 2 * tol:
            continue
        got = _symmetric([row], tol).tolist()
        assert got == [bool(reference_symmetry_axes(row, None, tol))]
        flags += got
    assert len(flags) > 1900 and 0.4 < sum(flags) / len(flags) < 0.8


def test_symmetry_mask_and_export_of_an_empty_catalogue():
    assert _symmetric(np.zeros((0, 5)), 1e-6).shape == (0,)
    empty = CriticalPointSet(theta=np.zeros((0, 4)), reports=(),
                             mu=CirculationWeights((1, 1, 1, 1)))
    out = export_critical_points(empty, group_into_families(empty))
    assert (out["count"], out["family_count"], out["points"]) == (0, 0, [])


def test_equal_weight_points_all_symmetric(equal_weights):
    assert _symmetric(equal_weights.theta, 1e-6).all()


def test_unequal_weight_points_all_asymmetric():
    found = find_all_critical_points((2, 1, 9), seeds=1024)
    assert len(found) == 10
    assert not _symmetric(found.theta, 1e-6).any()


def test_export_schema(equal_weights):
    out = export_critical_points(equal_weights, group_into_families(equal_weights))
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


@pytest.mark.parametrize("n", range(2, 9))
def test_dedup_merges_rows_within_half_tol_and_no_rows_beyond_its_bound(n):
    # `_dedup`'s guarantee for two rows: angles that each differ by at most
    # tol/2, modulo 2*pi, merge into the lesser row, and a difference of
    # more than 2.6 tol on one angle keeps both.  Half the angles lie within
    # tol of 0 = 2*pi, so many pairs straddle the wrap.
    rng = seeded(80 + n)
    for tol in (1e-6, 1e-3):
        for _ in range(300):
            a = [rng.uniform(0.0, TWO_PI) if rng.random() < 0.5
                 else rng.uniform(-tol, tol) % TWO_PI for _ in range(n - 1)]
            near = [(x + rng.choice((-0.5, 0.5, rng.uniform(-0.5, 0.5))) * tol) % TWO_PI
                    for x in a]
            assert _dedup(np.array([a, near]), tol) == [min(a, near)]
            far = list(near)
            j = rng.randrange(n - 1)
            far[j] = (a[j] + rng.choice((1, -1)) * rng.uniform(2.6 + 1e-6, 3.0) * tol) % TWO_PI
            assert sorted(_dedup(np.array([a, far]), tol)) == sorted([a, far])


def test_dedup_keys_at_eight_vortices_stay_within_a_cell_of_each_cluster(monkeypatch):
    # Rows filling one cell on each of 7 angles, and every seventh with an
    # angle of 2*pi: the cluster of the cell reaches the cells on either
    # side of it on every angle, 3**7 keys, and none further, though the
    # angle of 2*pi rounds to the cell at 2*pi and wraps to cell 0
    n, tol = 8, 1e-6
    points = np.random.default_rng(5).uniform(0.0, 2 * tol, (2000, n - 1))
    points[::7, 3] = TWO_PI
    sizes = []
    grouped = search._grouped

    def counted(key_sets):
        sizes.extend(len(set(keys)) for keys in key_sets)
        return grouped(key_sets)

    monkeypatch.setattr(search, "_grouped", counted)
    start = time.perf_counter()
    kept = _dedup(points, tol)
    assert time.perf_counter() - start < 1.0
    assert max(sizes) == 3 ** (n - 1)
    assert kept == [min(points.tolist())]


def test_dedup_merges_a_chain_of_clusters_in_every_row_order():
    # B and C lie 0.40 and 0.47 tol apart, so they merge; A meets B's keys
    # and not C's, and leads the lexsort: a grouping that let C join only
    # a group holding one of its own keys kept A with B, and C alone
    tol = 1e-6
    w = TWO_PI / math.ceil(math.pi / tol)
    a = [1000.5 * w, 5003.95 * w]
    b = [1001 * w + 0.2e-6, 5005 * w - 0.15e-6]
    c = [1001 * w - 0.2e-6, 5005 * w + 0.32e-6]
    assert _dedup(np.array([b, c]), tol) == [min(b, c)]
    for rows in itertools.permutations([a, b, c]):
        assert _dedup(np.array(rows), tol) == [min(a, b, c)]


def test_grouping_joins_chains_and_orders_groups_by_first_member():
    assert search._grouped([{1}, {2}, {1, 2}]) == [[0, 1, 2]]
    assert search._grouped([{5}, {1}, {2}, {1, 2}, {5, 6}, {7}, {6}]) == \
        [[0, 4, 6], [1, 2, 3], [5]]
    assert search._grouped([]) == []


@pytest.mark.parametrize("dim", range(1, 8))
def test_seed_filter_equals_the_wrapped_pairwise_gap(dim):
    # the least arc in circle order is the least gap over all pairs,
    # wrapped into [0, pi], each pair taken both ways
    for count in (64, 1024, 16384):
        full = _gauged(_lattice_seeds(dim, count))
        gaps = np.abs((full[:, :, None] - full[:, None, :] + np.pi) % TWO_PI - np.pi)
        gaps[:, np.arange(dim + 1), np.arange(dim + 1)] = np.inf
        want, got = gaps.min(axis=(1, 2)), _circle(full)[1].min(axis=1)
        assert np.abs(got - want).max() < 1e-14
        assert np.array_equal(got >= 0.05, want >= 0.05)


def test_find_polishes_the_seeds_clear_of_every_collision(monkeypatch):
    polished = []

    def recorded(seeds, w, tol_grad):
        polished.append(seeds)
        return _polish(seeds, w, tol_grad)

    monkeypatch.setattr(search, "_polish", recorded)
    find_all_critical_points((2, -1, 3, 5), seeds=1024)
    assert np.array_equal(polished[0], _search_seeds(3, 1024))


def _search_seeds(dim, count):
    """The lattice seeds `find` polishes: those clear of every collision."""
    start = _lattice_seeds(dim, count)
    return start[_circle(_gauged(start))[1].min(axis=1) >= 0.05]


@pytest.mark.parametrize("mu", [(1, 1, 1, 1, 1), (2, -1, 3), (-4, 11, -7), (1, 2, 3, 4),
                                (1,) * 6, (2e-8, -1e-8, 3e-8),
                                # from N = 8 numpy adds each row's N terms
                                # pairwise rather than left to right
                                (1, 2, 3, 4, 5, 6, 7, 8), (1,) * 9])
def test_polish_equals_the_full_table_reference_bit_for_bit(mu):
    seeds = _search_seeds(len(mu) - 1, 4096 if len(mu) < 8 else 512)
    w = np.array(mu, dtype=float)
    # the reference's tolerance is absolute; the polish scales its own
    got = _polish(seeds, w, 1e-10)
    want = reference_batched_polish(seeds, w, 1e-10 * _scales(w)[1])
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_polish_equals_the_reference_when_steps_cross_the_wrap():
    # the first angle starts within 0.4 of vortex 1, on either side of 0
    mu = (2.0, -1.0, 3.0)
    seeds = _lattice_seeds(2, 2048)
    seeds[:, 0] = (seeds[:, 0] * (0.8 / TWO_PI) - 0.4) % TWO_PI
    seeds = seeds[_circle(_gauged(seeds))[1].min(axis=1) >= 0.05]
    full = _gauged(seeds)
    step = _newton_steps(potential_hessian(full, mu)[:, 1:, 1:],
                         -potential_gradient(full, mu)[:, 1:])
    moved = seeds + step
    assert ((moved < 0.0) | (moved >= TWO_PI)).any(axis=1).sum() > 100
    w = np.array(mu)
    got, want = _polish(seeds, w, 1e-10), reference_batched_polish(seeds, w, 1e-10)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def _full_step_is_the_iterate(x, mu):
    full = _gauged(x)
    step = _newton_steps(potential_hessian(full, mu)[:, 1:, 1:],
                         -potential_gradient(full, mu)[:, 1:])
    return ((x + step).view(np.int64) == x.view(np.int64)).all(axis=1)


@pytest.mark.parametrize("mu", [(2, -1, 3), (1, 2, 3, 4)])
def test_polish_skips_only_trials_that_are_the_iterate(mu):
    # Polished seeds sit at the float floor, where the full step or one of
    # its halvings rounds to the iterate itself.  Shifted by a full turn,
    # the same rounding leaves the raw trial at the seed but wraps it to
    # other bits, so that trial must still be evaluated.  A component at
    # exactly 2*pi is a collision with vortex 1.
    w = np.array(mu, dtype=float)
    seeds = _search_seeds(len(mu) - 1, 256)
    polished, ok = _polish(seeds, w, 1e-10)
    at_floor = polished[ok][:40]
    assert _full_step_is_the_iterate(at_floor, mu).any()
    turned = at_floor + TWO_PI * np.eye(len(mu) - 1)[0]
    assert _full_step_is_the_iterate(turned, mu).any()
    edge = np.concatenate((at_floor, turned, seeds[:40] + TWO_PI, seeds[:40]))
    edge[-1, 0] = TWO_PI
    got = _polish(edge, w, 1e-10)
    want = reference_wrapped_polish(edge, w, 1e-10)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert not got[1][-1]
    inside = np.concatenate((at_floor, seeds[:40]))
    got = _polish(inside, w, 1e-10)
    want = reference_batched_polish(inside, w, 1e-10)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_polish_evaluates_few_trials_and_the_same_iterates(monkeypatch):
    # counts rows, not seconds: 80,181 pair-table rows when every
    # backtracking trial was evaluated
    rows = {"pair": 0, "hessian": 0}
    pair_table, hessian = search._pair_table, search._hessian

    # the batch runs along the last axis of the angles and of the table
    def counted_pair_table(theta, *args):
        rows["pair"] += theta.shape[-1]
        return pair_table(theta, *args)

    def counted_hessian(table, w):
        rows["hessian"] += table.shape[-1]
        return hessian(table, w)

    monkeypatch.setattr(search, "_pair_table", counted_pair_table)
    monkeypatch.setattr(search, "_hessian", counted_hessian)
    _polish(_search_seeds(2, 4096), np.array([2.0, -1.0, 3.0]), 1e-10)
    assert rows["pair"] <= 40_000
    assert rows["hessian"] == 30_091

@pytest.mark.parametrize("mu,seeds", [((2, -1, 3), 4096), ((1, 2, 3, 4), 1024),
                                      ((1, 1, 1, 1, 1), 256)])
def test_dedup_equals_the_linear_scan_on_converged_catalogues(mu, seeds):
    polished, ok = _polish(_search_seeds(len(mu) - 1, seeds), np.array(mu, float), 1e-10)
    points = polished[ok]
    assert len(np.unique(points, axis=0)) < len(points)  # exact duplicates occur
    got = _dedup(points, 1e-6)
    want = reference_dedup(points, 1e-6)
    assert sorted(map(tuple, got)) == sorted(map(tuple, want))


def test_dedup_drops_exact_duplicates_interleaved_out_of_order():
    rng = seeded(9)
    centres = [[rng.choice((1e-9, 2 * math.pi - 1e-9, rng.uniform(0, 2 * math.pi)))
                for _ in range(3)] for _ in range(12)]
    distinct = [[(a + rng.uniform(-1e-13, 1e-13)) % (2 * math.pi) for a in c]
                for c in centres for _ in range(4)]
    points = [list(p) for p in distinct for _ in range(3)]
    rng.shuffle(points)
    points = np.array(points)
    got = _dedup(points, 1e-6)
    want = reference_dedup(points, 1e-6)
    assert sorted(map(tuple, got)) == sorted(map(tuple, want))


@pytest.mark.parametrize("mu", [(1, 1, 1), (2, 1, 9), (2, -1, 3), (-1, -3, 10),
                                (1, 1, 1, 1, 1)] + [mu for mu, _ in ZERO_SUM_SADDLES])
def test_batched_classify_equals_per_point_classify(mu):
    found = find_all_critical_points(mu)
    theta = np.array(found.theta)
    off = theta[:1].copy()
    off[0, 1] += 1e-3  # no longer critical
    theta = np.concatenate((theta, off))
    reports = _classify(_pair_table(theta.T), np.array(mu, dtype=float), 1e-9, 1e-8)
    assert reports[-1] is None
    with pytest.raises(NotACriticalPointError):
        classify(theta[-1], mu, tol_grad=1e-9)
    for row, report in zip(theta[:-1], reports):
        assert report == classify(row, mu, tol_grad=1e-9)
        assert report == reference_classify(row, mu, tol_grad=1e-9)
    assert list(found.reports) == reports[:-1]


# sha256 of `find --format json`, recorded before the pair-table search
FIND_DIGESTS = {
    ("1,1,1", 4096): "676ab5758dc810e9d952030eec430a0e7ac5673f816b46ef29410cfeba5c7a17",
    ("2,1,9", 4096): "aec52b1b609ca2c9f4bfc2c1a05f60f892bf76193527ddc3daf4791d382b5ad8",
    ("2,-1,3", 4096): "8d5b87b94050b0a37e8f5f9960096fdf48fb8320a17f7b5c1fa9a34947f042a4",
    ("-1,-3,10", 4096): "afc440d27639198c9c4e18df0bbe823a9dcbbaa85b19e900a10dadbfbca629e4",
    ("1,2,3,4", 4096): "f9ffaadbfb4ee6f7bc09419ee46d771ec10bea72603cb84f6b003acd2a2e23b0",
    ("1,1,1,1,1", 4096): "f7433e81ebab4825c28c7f9d8b1402df09561bed70200d5db0c2b01088192c09",
    ("1,1,1,1,1,1", 512): "4a76e2c0087cf212e1ba8167517a5222fbc1a9c7a73a8d289daa7569e64cac48",
    # recorded before the pair-major search, where row sums of 8 terms
    # first add pairwise
    ("1,2,3,4,5,6,7,8", 256):
        "387546fc9f741c69c290a8c6753c1043fe2e20a098153c36e6771c171f713d87",
    # recorded before the clustered dedup: the seeds polished to the six
    # degenerate points of 3,3,3,1 spread over 5.3e-8 rad, the widest
    # clusters of these catalogues
    ("3,3,3,1", 4096): "5c4394c3a66512c6e2ee3c8d730593e120a92ace8b5ae4eaa99ceca0477825a2",
}


# sha256 of `find --format csv` and `--format table` at 4096 seeds,
# recorded before the catalogue became one angle array
FIND_FORMAT_DIGESTS = {
    ("2,-1,3", "csv"): "e8fc883f0dc569f737b8540e90f1274c40d17a8f9f41a2e9322450f4e12eb7bf",
    ("2,-1,3", "table"): "de5fb4c496cffd853eb518f5002440f1b695aa6309019521420afd87372fda2d",
    ("1,2,3,4", "csv"): "958eb1ed34ba9bf97194c5088e1e2a5eb5d490e8b7d80216f405e9cd0a52ccc2",
    ("1,2,3,4", "table"): "77f77f3279bebd4339ceb2227690dc18e2b602104193d0c915a50d57fd7e9ebc",
}


@pytest.mark.parametrize("base", [(1, 1, 1), (2, -1, 3), (2, 1, 9), (1, 2, 3, 4)])
@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1e3, 1e6])
def test_catalogue_does_not_depend_on_the_weight_scale(base, scale):
    # V scales with mu_i mu_j, so the critical set and every verdict depend
    # only on the weight ratios
    unit = find_all_critical_points(base, seeds=1024)
    scaled = find_all_critical_points(tuple(scale * m for m in base), seeds=1024)
    assert len(scaled) == len(unit)
    assert group_into_families(scaled) == group_into_families(unit)
    assert np.abs(scaled.theta - unit.theta).max(initial=0.0) < 1e-14
    for p, q in zip(scaled.reports, unit.reports):
        assert (p.verdict, p.extremal_type, p.zero_count) == (
            q.verdict, q.extremal_type, q.zero_count)


@pytest.mark.parametrize("mu,seeds", FIND_DIGESTS)
def test_find_output_is_frozen(mu, seeds):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["find", "--mu=" + mu, "--seeds", str(seeds), "--format", "json"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == FIND_DIGESTS[mu, seeds]


@pytest.mark.parametrize("mu,fmt", FIND_FORMAT_DIGESTS)
def test_find_csv_and_table_output_is_frozen(mu, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["find", "--mu=" + mu, "--format", fmt]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == FIND_FORMAT_DIGESTS[mu, fmt]


# -- the clustered dedup and the batched family keys against the per-row code --

@pytest.mark.parametrize("mu,seeds", FIND_DIGESTS)
def test_dedup_and_family_keys_equal_the_per_row_code_on_the_digest_catalogues(mu, seeds):
    w = np.array([float(m) for m in mu.split(",")])
    polished, ok = _polish(_search_seeds(len(w) - 1, seeds), w, 1e-10)
    points = polished[ok]
    kept = _dedup(points, _DEDUP_TOL)
    assert sorted(kept) == sorted(reference_cell_dedup(points, _DEDUP_TOL))
    # nor do the merged rows depend on the order of the rows
    rng = np.random.default_rng(len(points))
    for _ in range(3):
        assert sorted(_dedup(rng.permutation(points), _DEDUP_TOL)) == sorted(kept)
    theta = _gauged(np.array(sorted(kept)))
    assert _family_keys(theta, tuple(w), _FAMILY_TOL) == \
        reference_family_keys(theta, tuple(w), _FAMILY_TOL)
    # the families of the catalogue in another order are the same points
    families = group_into_families(_point_set(theta, tuple(w)))
    perm = rng.permutation(len(theta))
    shuffled = group_into_families(_point_set(theta[perm], tuple(w)))
    assert sorted(tuple(sorted(perm[list(f)].tolist())) for f in shuffled) == families


@pytest.mark.parametrize("mu", [(1, 1, 1, 1, 1), (1, 2, 1, 2, 1), (2, 1, 1, 3, 1, 1),
                                (1, 1, 1, 1, 1, 1)])
def test_family_keys_equal_the_per_row_keys_near_rounding_boundaries(mu):
    # gaps half a unit off a whole number of units, give or take a little
    # more than the rounding margin, so some rows get two, four or more
    # keys; the angles in random order around the circle
    rng = seeded(len(mu) + sum(mu))
    n, tol = len(mu), _FAMILY_TOL
    rows = []
    for _ in range(300):
        units = [rng.randrange(1, int(TWO_PI / (n * tol))) for _ in range(n - 1)]
        gaps = [(u + rng.choice((0.0, 0.5)) + rng.uniform(-1.2, 1.2) * _ROUNDING_MARGIN) * tol
                for u in units]
        angles = [rng.uniform(0.0, TWO_PI)]
        for gap in gaps:
            angles.append(angles[-1] + gap)
        rng.shuffle(angles)
        rows.append([a % TWO_PI for a in angles])
        if rng.random() < 0.2:  # a mirror image, rotated
            c = rng.uniform(0.0, TWO_PI)
            rows.append([(c - a) % TWO_PI for a in rows[-1]])
    theta = np.array(rows)
    got = _family_keys(theta, mu, tol)
    assert got == reference_family_keys(theta, mu, tol)
    assert max(len(keys) for keys in got) >= 4


def _point_set(thetas, mu):
    return CriticalPointSet(theta=np.array(thetas), reports=(None,) * len(thetas),
                            mu=CirculationWeights(mu))


def test_family_gap_on_a_rounding_boundary_still_merges():
    tol = _FAMILY_TOL
    gap = (1234567 + 0.5) * tol   # half-way between two rounding units
    base = (0.0, gap, 4.0)
    below = (0.0, gap - 1e-12, 4.0)
    above = (0.0, gap + 1e-12, 4.0)
    mirror = (0.0, (2 * math.pi - 4.0) % (2 * math.pi),
              (2 * math.pi - gap - 1e-12) % (2 * math.pi))
    other = (0.0, 1.0, 4.0)
    point_set = _point_set([base, below, other, above, mirror], (1, 1, 1))
    families = group_into_families(point_set)
    assert families == [(0, 1, 3, 4), (2,)]
    assert families == reference_group_into_families(point_set, family_tol=tol)


def test_families_at_eight_equal_weights_are_fast():
    found = find_all_critical_points((1,) * 8, seeds=256)
    assert len(found) > 100
    start = time.perf_counter()
    families = group_into_families(found)
    assert time.perf_counter() - start < 1.0
    assert sorted(i for fam in families for i in fam) == list(range(len(found)))
    start = time.perf_counter()
    export_critical_points(found, families)
    assert time.perf_counter() - start < 1.0
    polished, ok = _polish(_search_seeds(7, 256), np.ones(8), 1e-10)
    start = time.perf_counter()
    assert len(_dedup(polished[ok], 1e-6)) >= len(found)
    assert time.perf_counter() - start < 1.0


def test_export_of_a_large_catalogue_builds_no_cubic_temporary():
    # the symmetry flags hold (K, N, N - 1) arrays; one (K, N, N, N) float
    # array alone would take 82 MB here
    count, n = 20_000, 8
    theta = np.random.default_rng(3).uniform(0.0, TWO_PI, (count, n))
    theta[:, 0] = 0.0
    report = types.SimpleNamespace(to_dict=dict)
    point_set = CriticalPointSet(theta=theta, reports=(report,) * count,
                                 mu=CirculationWeights((1,) * n))
    tracemalloc.start()
    try:
        out = export_critical_points(point_set, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out["count"] == count
    assert peak < count * n ** 3 * 8 / 2


# -- the Morse check ------------------------------------------------------------

def _reference_morse_check(points):
    """The Morse check as the CLI made it before the catalogue did: each
    index counted again from the report's Hessian eigenvalues sorted by
    size, the one nearest zero dropped."""
    mu = points.mu.mu
    if not (all(m > 0 for m in mu) or all(m < 0 for m in mu)):
        return None
    total = 0
    for report in points.reports:
        if report.zero_count != 1:
            return None
        total += (-1) ** sum(e < 0 for e in sorted(report.hessian_eigs, key=abs)[1:])
    want = math.factorial(len(mu) - 1)
    return None if total == want else (total, want)


def _census():
    """Every primitive integer N=3 weight vector with |mu_i| <= 5, up to
    permutation and global sign."""
    vectors = set()
    for mu in itertools.product(range(-5, 6), repeat=3):
        if 0 not in mu and math.gcd(*mu) == 1:
            vectors.add(min(tuple(sorted(mu)), tuple(sorted(-m for m in mu))))
    return sorted(vectors)


@pytest.mark.parametrize("seeds", [16, 4096])
def test_the_morse_index_and_check_keep_the_cli_sums_on_the_census(seeds):
    vectors = _census()
    assert len(vectors) == 96
    failed = 0
    for mu in vectors:
        points = find_all_critical_points(mu, seeds=seeds)
        for report in points.reports:
            assert report.index == sum(e < 0 for e in sorted(report.hessian_eigs, key=abs)[1:])
            assert (report.extremal_type in ("minimum", "maximum")) == (
                report.index in (0, len(mu) - 1) and report.extremal_type != "degenerate")
        assert points.morse_check() == _reference_morse_check(points)
        failed += points.morse_check() is not None
    # few seeds miss points on some same-sign vectors; the default seeds none
    assert (failed > 0) == (seeds == 16)


@pytest.mark.parametrize("mu,seeds", list(FIND_DIGESTS) + [
    ("1,1,1,1,1,1", 256), ("1,1,1,1", 16), ("-1,-2,-3,-4", 32), ("3,3,3,1", 64)])
def test_find_warns_where_the_cli_sum_warned(mu, seeds):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["find", "--mu=" + mu, "--seeds", str(seeds)]) == 0
    points = find_all_critical_points([float(m) for m in mu.split(",")], seeds=seeds)
    failed = _reference_morse_check(points)
    assert err.getvalue() == ("" if failed is None else
                              f"warning: incomplete catalogue: Morse sum {failed[0]} over "
                              f"{len(points)} points, but same-sign weights give (N-1)! = "
                              f"{failed[1]}; raise --seeds\n")
