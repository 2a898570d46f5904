"""Reduced interaction potential: values, derivatives, classification."""

import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    ZERO_SUM_SADDLES,
    central_difference,
    reference_potential_gradient,
    reference_potential_hessian,
    reference_potential_value,
    seeded,
)
from vortexre.errors import CollisionError, NotACriticalPointError
from vortexre.potential import (
    CirculationWeights,
    _row_sums,
    classify,
    potential_gradient,
    potential_hessian,
    potential_value,
)

EQUILATERAL = (0.0, 2 * math.pi / 3, 4 * math.pi / 3)


def random_config(rng, n, min_gap=0.15):
    while True:
        theta = [0.0] + sorted(rng.uniform(0.2, 2 * math.pi - 0.2) for _ in range(n - 1))
        gaps = [b - a for a, b in zip(theta, theta[1:])] + [2 * math.pi - theta[-1]]
        if min(gaps) > min_gap:
            return tuple(theta)


def test_two_vortex_value():
    assert potential_value((0.0, math.pi), (1, 1)) == pytest.approx(
        1 - math.log(2), abs=1e-14
    )


def test_equilateral_value():
    expected = 1.5 - 1.5 * math.log(3)
    assert potential_value(EQUILATERAL, (1, 1, 1)) == pytest.approx(expected, abs=1e-14)


def test_value_scales_bilinearly_in_weights():
    rng = seeded(51)
    theta = random_config(rng, 3)
    base = potential_value(theta, (1, 1, 1))
    # doubling every weight multiplies each pair term by four
    assert potential_value(theta, (2, 2, 2)) == pytest.approx(4 * base, rel=1e-12)


def test_value_is_rotation_invariant():
    rng = seeded(52)
    for _ in range(20):
        theta = random_config(rng, 4)
        mu = tuple(rng.uniform(0.5, 2.0) for _ in range(4))
        shift = rng.uniform(0, 2 * math.pi)
        rotated = tuple(t + shift for t in theta)
        assert potential_value(rotated, mu) == pytest.approx(
            potential_value(theta, mu), abs=1e-12
        )


def test_gradient_is_rotation_equivariant():
    rng = seeded(53)
    for _ in range(20):
        theta = random_config(rng, 3)
        mu = (1.3, -0.4, 2.0)
        shift = rng.uniform(0, 2 * math.pi)
        g = potential_gradient(theta, mu)
        g_rot = potential_gradient(tuple(t + shift for t in theta), mu)
        assert np.abs(g - g_rot).max() < 1e-12


def test_gradient_components_sum_to_zero():
    rng = seeded(54)
    for _ in range(20):
        n = rng.randint(2, 5)
        theta = random_config(rng, n)
        mu = tuple(rng.choice([-2, -1, 1, 2, 3]) for _ in range(n))
        assert abs(potential_gradient(theta, mu).sum()) < 1e-12


def test_gradient_matches_finite_differences():
    rng = seeded(55)
    for _ in range(100):
        n = rng.randint(2, 5)
        theta = np.array(random_config(rng, n))
        mu = tuple(rng.choice([-2, -1, 1, 2, 3]) for _ in range(n))
        f = lambda t: potential_value(tuple(t), mu)
        fd = central_difference(f, theta)
        g = potential_gradient(tuple(theta), mu)
        scale = max(1.0, np.abs(g).max())
        assert np.abs(fd - g).max() / scale < 1e-6


def test_hessian_matches_finite_differences():
    rng = seeded(56)
    for _ in range(100):
        n = rng.randint(2, 4)
        theta = np.array(random_config(rng, n))
        mu = tuple(rng.choice([-2, -1, 1, 2]) for _ in range(n))
        H = potential_hessian(tuple(theta), mu)
        fd = np.zeros((n, n))
        for j in range(n):
            g = lambda t: potential_gradient(tuple(t), mu)[j]
            fd[j] = central_difference(g, theta)
        scale = max(1.0, np.abs(H).max())
        assert np.abs(fd - H).max() / scale < 1e-6


def test_hessian_symmetric_with_rotational_null_vector():
    rng = seeded(57)
    for _ in range(20):
        n = rng.randint(2, 5)
        theta = random_config(rng, n)
        mu = tuple(rng.choice([-2, -1, 1, 2, 3]) for _ in range(n))
        H = potential_hessian(theta, mu)
        assert np.abs(H - H.T).max() < 1e-12
        assert np.abs(H @ np.ones(n)).max() < 1e-12


def test_hessian_pair_values():
    # the pair-interaction curvature at three marked separations
    for phi, expected in ((math.pi / 3, -1.5), (math.pi, 0.75), (2 * math.pi / 3, 1 / 6)):
        H = potential_hessian((0.0, phi), (1, 1))
        assert H[0, 1] == pytest.approx(expected, abs=1e-12)
        assert H[0, 0] == pytest.approx(-expected, abs=1e-12)


def test_relabeling_equivariance():
    rng = seeded(59)
    theta = random_config(rng, 4)
    mu = (1.0, 2.0, -1.0, 0.5)
    perm = (2, 0, 3, 1)
    theta_p = tuple(theta[i] for i in perm)
    mu_p = tuple(mu[i] for i in perm)
    g = potential_gradient(theta, mu)
    gp = potential_gradient(theta_p, mu_p)
    assert np.abs(gp - g[list(perm)]).max() < 1e-12
    assert potential_value(theta_p, mu_p) == pytest.approx(
        potential_value(theta, mu), rel=1e-12
    )


def test_collision_raises():
    with pytest.raises(CollisionError):
        potential_value((0.0, 0.0), (1, 1))
    with pytest.raises(CollisionError):
        potential_gradient((0.0, 1.0, 1.0 + 1e-14), (1, 1, 1))


def test_batch_rows_match_single_calls_and_flag_collisions():
    rng = seeded(11)
    mu = (2.0, -1.0, 3.0, 1.5)
    rows = [random_config(rng, 4) for _ in range(5)]
    rows.insert(2, (0.0, 1.0, 1.0, 3.0))  # vortices 2 and 3 coincide
    batch = np.array(rows)
    values = potential_value(batch, mu)
    grads = potential_gradient(batch, mu)
    hessians = potential_hessian(batch, mu)
    assert values.shape == (6,)
    assert grads.shape == (6, 4) and hessians.shape == (6, 4, 4)
    assert np.isnan(values[2])
    assert np.isnan(grads[2]).all() and np.isnan(hessians[2]).all()
    for k in (0, 1, 3, 4, 5):
        assert values[k] == potential_value(rows[k], mu)
        assert np.array_equal(grads[k], potential_gradient(rows[k], mu))
        assert np.array_equal(hessians[k], potential_hessian(rows[k], mu))
    assert potential_gradient(batch[:0], mu).shape == (0, 4)
    assert potential_hessian(batch[:0], mu).shape == (0, 4, 4)


# -- pair-table kernels against the full-table reference ----------------------


@pytest.mark.parametrize("n", range(2, 9))
def test_kernels_equal_the_full_table_reference_bit_for_bit(n):
    rng = np.random.default_rng(300 + n)
    mu = tuple(rng.uniform(0.5, 3.0, n) * np.where(np.arange(n) % 3 == 1, -1.0, 1.0))
    batch = rng.uniform(0.0, 2 * math.pi, (48, n))
    batch[5, 1] = batch[5, 0]                              # exact coincidence
    batch[17, n - 1] = batch[17, 0] + 1e-12                # inside the collision chord
    batch[30, :2] = (0.0, 2 * math.pi - 1e-13)             # coincide across the wrap
    for kernel, reference in ((potential_value, reference_potential_value),
                              (potential_gradient, reference_potential_gradient),
                              (potential_hessian, reference_potential_hessian)):
        got, want = kernel(batch, mu), reference(batch, mu)
        assert got.shape == want.shape
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(got, want, equal_nan=True)
        for k in (5, 17, 30):
            assert np.isnan(got[k]).all()
        for k in (0, 1, 2, 47):
            single, reference_single = kernel(batch[k], mu), reference(batch[k], mu)
            assert np.array_equal(single, reference_single)


def test_row_sums_add_in_the_order_of_ndarray_sum_bit_for_bit():
    # Terms spread over 60 orders of magnitude, so that a different order
    # of addition shows in the last bits; N = 2..300 takes in the left to
    # right sums below 8 terms, the eight running sums up to 128 and the
    # halving above it.  Rows of -0.0 and of mixed zeros check the sign.
    rng = np.random.default_rng(29)
    wrong = []
    for n in range(2, 301):
        rows = rng.standard_normal((40, n)) * np.exp(rng.uniform(-70.0, 70.0, (40, n)))
        rows[0] = -0.0
        rows[1, ::2] = 0.0
        rows[1, 1::2] = -0.0
        want = rows.sum(axis=-1)
        got = _row_sums(np.ascontiguousarray(rows.T))
        if not np.array_equal(got.view(np.int64), want.view(np.int64)):
            wrong.append(n)
    assert wrong == []


@pytest.mark.parametrize("theta", [
    (0.0, 1.0, 1.0, 2.5, 2.5),
    (0.0, 2.5, 1.0, 1.0, 2.5),
    (0.0, 3.0, 1.0, 3.0, 1.0),
])
def test_collision_names_the_same_pair_as_the_full_table(theta):
    # two pairs coincide: the first of them in row-major order is named
    mu = (1.0, -2.0, 1.5, 3.0, 1.0)
    with pytest.raises(CollisionError) as want:
        reference_potential_gradient(theta, mu)
    for kernel in (potential_value, potential_gradient, potential_hessian, classify):
        with pytest.raises(CollisionError) as got:
            kernel(theta, mu)
        assert str(got.value) == str(want.value)


def test_two_vortex_critical_angles():
    # the only critical separations are pi/3, pi, 5*pi/3
    for phi in (math.pi / 3, math.pi, 5 * math.pi / 3):
        assert abs(potential_gradient((0.0, phi), (1, 1))[1]) < 1e-12
    for phi in (0.5, 2.0, 4.0):
        assert abs(potential_gradient((0.0, phi), (1, 1))[1]) > 1e-3


def test_classify_two_vortex_points():
    near = classify((0.0, math.pi / 3), (1, 1))
    assert (near.verdict, near.extremal_type) == ("stable", "minimum")
    far = classify((0.0, math.pi), (1, 1))
    assert (far.verdict, far.extremal_type) == ("unstable", "maximum")
    assert far.zero_count == 1


def test_classify_equilateral_is_unstable_maximum():
    report = classify(EQUILATERAL, (1, 1, 1))
    assert (report.verdict, report.extremal_type) == ("unstable", "maximum")
    eigs = sorted(np.real(report.weighted_eigs))
    assert np.allclose(eigs, [-0.5, -0.5, 0.0], atol=1e-10)


def test_classify_rejects_noncritical_configuration():
    with pytest.raises(NotACriticalPointError):
        classify((0.0, 1.0), (1, 1))


def test_classify_reports_degeneracy_with_loose_tolerance():
    report = classify((0.0, math.pi), (1, 1), tol_zero=10.0)
    assert report.verdict == "degenerate"
    assert report.zero_count > 1


@pytest.mark.parametrize("mu, theta", ZERO_SUM_SADDLES)
def test_zero_sum_weights_count_the_defective_zero_at_every_rotation(mu, theta):
    # With sum(mu) = 0 the rotational zero of diag(1/mu) V'' is a 2x2
    # Jordan block; rounding splits it, so counting on W itself gives 0
    # or 2 depending on the rotation.  On the quotient it is always 2.
    counts = set()
    for angle in np.linspace(0.0, 6.0, 13):
        report = classify((np.array(theta) + angle) % (2 * math.pi), mu)
        counts.add((report.zero_count, report.verdict, report.extremal_type))
    assert counts == {(2, "degenerate", "saddle")}


def test_stability_equals_minimum_for_positive_weights():
    # with all weights positive, stable and nondegenerate-minimum coincide
    from vortexre.search import find_all_critical_points

    for mu in ((1, 1, 1), (2, 1, 9)):
        found = find_all_critical_points(mu, seeds=512)
        assert len(found)
        for report in found.reports:
            assert (report.verdict == "stable") == (report.extremal_type == "minimum")


def test_mixed_signs_break_the_minimum_rule():
    # a saddle that is nevertheless stable exists for this sign pattern
    from vortexre.search import find_all_critical_points

    found = find_all_critical_points((2, -1, 3), seeds=1024)
    kinds = {(r.verdict, r.extremal_type) for r in found.reports}
    assert ("stable", "saddle") in kinds


def test_report_round_trips_to_dict():
    report = classify((0.0, math.pi / 3), (1, 1))
    d = report.to_dict()
    assert d["verdict"] == "stable"
    assert d["zero_count"] == 1
    assert len(d["hessian_eigenvalues"]) == 2


def test_weights_validate():
    cw = CirculationWeights((2, -1, 3))
    assert cw.mu == (2.0, -1.0, 3.0)
    assert not cw.all_positive()
    assert CirculationWeights((1, 1)).all_positive()
    assert CirculationWeights((Fraction(1, 2), Fraction(3, 4))).mu == (0.5, 0.75)
    with pytest.raises(ValueError, match="nonzero"):
        CirculationWeights((1, 0, 2))
    for mu in ((math.nan, 1), (1, math.inf), (-math.inf, 2), (1e200, 1e200, 1)):
        with pytest.raises(ValueError, match="finite"):
            CirculationWeights(mu)
    for mu in ((1,), ()):
        with pytest.raises(ValueError, match="at least two weights"):
            CirculationWeights(mu)
    # one huge weight is fine while every product of two stays finite
    assert CirculationWeights((1e200, 1, 1)).mu[0] == 1e200
    # products below the smallest normal float lose the weight ratios
    for mu in ((1e-170, 1e-170, 1e-170), (1e-200, 1e-200, 1), (1e-160, 1e-160),
               (1e-300, 1e-10, 1)):
        with pytest.raises(ValueError, match="underflow"):
            CirculationWeights(mu)
    # one tiny weight is fine while every product of two stays normal
    assert CirculationWeights((1e-300, 1e10, 1)).mu[0] == 1e-300
