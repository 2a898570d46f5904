"""Release gate: each test prints one PASS/FAIL line for one criterion."""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    central_difference,
    from_exponent_terms,
    is_groebner_basis,
    leading_exponents,
    random_multipoly,
    reference_primitive_part,
    reference_symmetry_axes,
    row_configs,
    seeded,
    squarefree_distinct_complex_roots,
    sturm_distinct_real_roots,
)
from vortexre import _kernels
from vortexre.dynamics import (
    continue_family,
    full_system_stability,
    polygon_family,
    re_residual,
)
from vortexre.groebner import buchberger, elimination_ideal
from vortexre.halfangle import build_equal_weight_system, build_symmetry_case_system
from vortexre.hermite import (
    count_real_roots,
    hermite_matrix,
    quotient_basis,
    signature_and_rank,
)
from vortexre.polynomials import PolynomialRing
from vortexre.potential import (
    CirculationWeights,
    potential_gradient,
    potential_value,
    potential_hessian,
)
from vortexre.search import find_all_critical_points, group_into_families

WEIGHTS = ((1, 1, 1), (2, 1, 9), (2, -1, 3), (-1, -3, 10))

EQUAL_WEIGHT_LEADING_TERMS = {
    "r2^3*r3^3", "r2^4*r3^2", "r2^5*r3", "r2^6", "r3^7", "r2*r3^6", "r2^2*r3^5",
}


def _emit(capsys, number, title, failures):
    verdict = "PASS" if not failures else "FAIL: " + "; ".join(failures)
    with capsys.disabled():
        print(f"\nCRITERION {number} ({title}): {verdict}")
    assert not failures, f"criterion {number}: {failures}"


@pytest.fixture(scope="module")
def certified():
    out = {}
    for mu in WEIGHTS:
        t0 = time.monotonic()
        gb = buchberger(build_equal_weight_system(mu).polys)
        basis = quotient_basis(gb)
        H = hermite_matrix(gb, basis)
        count = signature_and_rank(H)
        out[mu] = SimpleNamespace(gb=gb, basis=basis, H=H, count=count,
                                  seconds=time.monotonic() - t0)
    return out


@pytest.fixture(scope="module")
def found():
    return {mu: find_all_critical_points(mu, seeds=1024) for mu in WEIGHTS}


def test_criterion_1_equal_weight_certification(capsys, certified):
    c = certified[(1, 1, 1)]
    leading = {str(g.ring.monomial(leading_exponents(g), 1)) for g in c.gb}
    failures = []
    if c.count.real_distinct != 14:
        failures.append(f"real root count {c.count.real_distinct} != 14")
    if len(c.basis) != 24:
        failures.append(f"quotient dimension {len(c.basis)} != 24")
    if len(c.gb) != 7:
        failures.append(f"basis size {len(c.gb)} != 7")
    if leading != EQUAL_WEIGHT_LEADING_TERMS:
        failures.append(f"leading terms {sorted(leading)}")
    if c.seconds >= 60.0:
        failures.append(f"runtime {c.seconds:.1f}s >= 60s")
    _emit(capsys, 1, "equal-weight exact certification", failures)


def test_criterion_2_equal_weight_families(capsys, found):
    pts = found[(1, 1, 1)]
    fams = group_into_families(pts)
    mu = CirculationWeights((1, 1, 1))
    targets = {
        math.pi / 4: ("stable", "minimum", 6),
        2 * math.pi / 3: ("unstable", "maximum", 2),
        3 * math.pi / 4: ("unstable", "saddle", 6),
    }
    failures = []
    if len(pts) != 14:
        failures.append(f"point count {len(pts)} != 14")
    if len(fams) != 3:
        failures.append(f"family count {len(fams)} != 3")

    def circle_gap(a, b):
        d = abs(a - b) % (2 * math.pi)
        return min(d, 2 * math.pi - d)

    seen = set()
    for fam in fams:
        fam_targets = set()
        for idx in fam:
            theta, report = pts.theta[idx], pts.reports[idx]
            axes = reference_symmetry_axes(theta, mu)
            if not axes:
                failures.append(f"point {idx} has no symmetry axis")
                continue
            k = axes[0]
            seps = [circle_gap(theta[i], theta[k])
                    for i in range(3) if i != k]
            target = min(targets, key=lambda t: abs(seps[0] - t))
            if max(abs(s - target) for s in seps) > 1e-8:
                failures.append(f"point {idx} separations {seps} off target {target}")
            fam_targets.add(target)
            verdict, kind, _ = targets[target]
            if (report.verdict, report.extremal_type) != (verdict, kind):
                failures.append(
                    f"point {idx} is {report.verdict}/{report.extremal_type}, "
                    f"expected {verdict}/{kind}")
        if len(fam_targets) != 1:
            failures.append(f"family {fam} mixes separations {fam_targets}")
            continue
        target = fam_targets.pop()
        seen.add(target)
        if len(fam) != targets[target][2]:
            failures.append(f"family at {target:.4f} has size {len(fam)}")
    if seen != set(targets):
        failures.append("not all three separations realized")
    if sum(len(f) for f in fams) != 14:
        failures.append("family sizes do not total 14")
    _emit(capsys, 2, "equal-weight family geometry and stability", failures)


def test_criterion_3_asymmetric_counts(capsys, certified, found):
    expected = {(2, 1, 9): 10, (2, -1, 3): 10, (-1, -3, 10): 8}
    failures = []
    for mu, want in expected.items():
        got = certified[mu].count.real_distinct
        if got != want:
            failures.append(f"certified {mu}: {got} != {want}")
        pts = found[mu]
        if len(pts) != want:
            failures.append(f"found {mu}: {len(pts)} != {want}")
        bad = [i for i, theta in enumerate(pts.theta) if reference_symmetry_axes(theta, mu)]
        if bad:
            failures.append(f"{mu}: points {bad} flagged symmetric")
    _emit(capsys, 3, "asymmetric weight-vector counts", failures)


def test_criterion_4_symmetry_weight_conditions(capsys):
    cases = {1: ("mu2", "mu3"), 2: ("mu1", "mu3"), 3: ("mu1", "mu2")}
    failures = []
    for case, (a, b) in cases.items():
        t0 = time.monotonic()
        system = build_symmetry_case_system(case)
        elim = elimination_ideal(system.polys, 1)
        seconds = time.monotonic() - t0
        gens = [reference_primitive_part(p)[0] for p in elim]
        if len(gens) != 1:
            failures.append(f"case {case}: {len(gens)} generators")
            continue
        g = gens[0]
        ring = g.ring
        want = ring.parse(f"mu1*mu2*mu3*{a} - mu1*mu2*mu3*{b}")
        if g.terms not in (want.terms, _kernels.terms_neg(want.terms)):
            failures.append(f"case {case}: generator {g}")
        if seconds >= 30.0:
            failures.append(f"case {case}: runtime {seconds:.1f}s >= 30s")
    _emit(capsys, 4, "symmetric-case weight conditions", failures)


def test_criterion_5_mixed_sign_counterexamples(capsys, found):
    failures = []
    kinds_213 = {(r.verdict, r.extremal_type) for r in found[(2, -1, 3)].reports}
    if ("stable", "saddle") not in kinds_213:
        failures.append(f"(2,-1,3) kinds {sorted(kinds_213)} lack a stable saddle")
    reports = found[(-1, -3, 10)].reports
    kinds = {(r.verdict, r.extremal_type) for r in reports}
    if ("stable", "maximum") not in kinds:
        failures.append(f"(-1,-3,10) kinds {sorted(kinds)} lack a stable maximum")
    minima = [r for r in reports if r.extremal_type == "minimum"]
    if not minima:
        failures.append("(-1,-3,10) has no minimum family")
    elif any(r.verdict != "unstable" for r in minima):
        failures.append("(-1,-3,10) minimum family is not unstable")
    _emit(capsys, 5, "stability without extremality for mixed signs", failures)


def test_criterion_6_continuation_of_stable_saddle(capsys, found):
    raw = (2.0, -1.0, 3.0)
    scale = 1.0 / math.sqrt(sum(m * m for m in raw))
    mu = CirculationWeights(tuple(m * scale for m in raw))
    points = found[(2, -1, 3)]
    start = next(theta for theta, r in zip(points.theta, points.reports)
                 if (r.verdict, r.extremal_type) == ("stable", "saddle"))
    failures = []
    trace = continue_family(start, mu, eps_max=0.1, step=0.005)
    if trace.failure:
        failures.append(f"continuation stopped: {trace.failure}")
    for eps in (0.05, 0.1):
        hits = [c for c in row_configs(trace) if abs(c.epsilon - eps) < 1e-12]
        if not hits:
            failures.append(f"no record at eps={eps}")
            continue
        config = hits[0]
        residual = float(np.abs(re_residual(config)).max())
        if residual >= 1e-10:
            failures.append(f"eps={eps}: residual {residual:.2e}")
        report = full_system_stability(config)
        if report.verdict != "stable":
            failures.append(f"eps={eps}: spectrum verdict {report.verdict}")
        angles = config.angles
        if reference_symmetry_axes(angles - angles[0], mu):
            failures.append(f"eps={eps}: configuration is symmetric")
    halved = continue_family(start, mu, eps_max=0.1, step=0.0025)
    # max over each trace of max_i |r_i - 1| / eps
    drift, halved = (max(np.abs(config.radii - 1.0).max() / config.epsilon
                         for config in row_configs(walk)) for walk in (trace, halved))
    if not (math.isfinite(drift) and drift > 0):
        failures.append(f"radial drift constant {drift}")
    elif abs(drift - halved) / drift >= 1e-6:
        failures.append(f"drift constant moves under step halving: "
                        f"{drift:.9f} vs {halved:.9f}")
    _emit(capsys, 6, "continuation of the stable saddle", failures)


def test_criterion_7_polygon_residuals(capsys):
    failures = []
    for n in range(2, 7):
        for mu in (1.0, 2.0):
            for eps in (0.0, 0.05, 0.1):
                config = polygon_family(n, mu, eps)
                residual = float(np.abs(re_residual(config)).max())
                if residual >= 1e-12:
                    failures.append(f"N={n} mu={mu} eps={eps}: {residual:.2e}")
    _emit(capsys, 7, "exact polygon relative equilibria", failures)


def _random_config(rng, n, min_gap=0.15):
    while True:
        theta = [0.0] + sorted(rng.uniform(0.2, 2 * math.pi - 0.2)
                               for _ in range(n - 1))
        gaps = [b - a for a, b in zip(theta, theta[1:])] + [2 * math.pi - theta[-1]]
        if min(gaps) > min_gap:
            return tuple(theta)


def _univariate(coeffs, ring):
    return from_exponent_terms(ring, {(k,): c for k, c in enumerate(coeffs)})


def test_criterion_8_property_suites(capsys, certified):
    failures = []
    rng = seeded(88)

    for _ in range(25):
        n = rng.randint(2, 5)
        theta = np.array(_random_config(rng, n))
        mu = tuple(rng.choice([-2, -1, 1, 2, 3]) for _ in range(n))
        g = potential_gradient(tuple(theta), mu)
        fd = central_difference(lambda t: potential_value(tuple(t), mu), theta)
        if np.abs(fd - g).max() / max(1.0, np.abs(g).max()) >= 1e-6:
            failures.append("gradient finite differences")
            break
    for _ in range(15):
        n = rng.randint(2, 4)
        theta = np.array(_random_config(rng, n))
        mu = tuple(rng.choice([-2, -1, 1, 2]) for _ in range(n))
        H = potential_hessian(tuple(theta), mu)
        fd = np.zeros((n, n))
        for j in range(n):
            fd[j] = central_difference(
                lambda t: potential_gradient(tuple(t), mu)[j], theta)
        if np.abs(fd - H).max() / max(1.0, np.abs(H).max()) >= 1e-6:
            failures.append("hessian finite differences")
            break

    for _ in range(20):
        theta = _random_config(rng, 4)
        mu = tuple(rng.uniform(0.5, 2.0) for _ in range(4))
        shift = rng.uniform(0, 2 * math.pi)
        rotated = tuple(t + shift for t in theta)
        if abs(potential_value(rotated, mu) - potential_value(theta, mu)) >= 1e-12:
            failures.append("rotation invariance of the value")
            break
        dg = potential_gradient(rotated, mu) - potential_gradient(theta, mu)
        if np.abs(dg).max() >= 1e-12:
            failures.append("rotation equivariance of the gradient")
            break

    ring = PolynomialRing(("x",))
    counts = [c.count for c in certified.values()]
    mismatches = 0
    for _ in range(200):
        deg = rng.randint(1, 7)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        rc = count_real_roots([_univariate(coeffs, ring)])
        counts.append(rc)
        if rc.real_distinct != sturm_distinct_real_roots(coeffs):
            mismatches += 1
        if rc.complex_distinct != squarefree_distinct_complex_roots(coeffs):
            mismatches += 1
    if mismatches:
        failures.append(f"{mismatches} univariate oracle mismatches")

    bases = [c.gb for c in certified.values()]
    xy = PolynomialRing(("x", "y"))
    for seed in range(6):
        local = seeded(880 + seed)
        gens = [random_multipoly(xy, local) for _ in range(2)]
        bases.append(buchberger(gens))
    # every S-polynomial of each basis reduces to zero
    if not all(is_groebner_basis(gb.polys) for gb in bases):
        failures.append("produced basis fails the confluence check")

    H = certified[(1, 1, 1)].H
    if H != tuple(zip(*H)):
        failures.append("trace-form matrix is not exactly symmetric")
    for rc in counts:
        if (rc.real_distinct - rc.complex_distinct) % 2 != 0:
            failures.append("real/complex count parity broken")
            break
        if not 0 <= rc.real_distinct <= rc.complex_distinct:
            failures.append("real count exceeds complex count")
            break
    _emit(capsys, 8, "always-on property suites", failures)
