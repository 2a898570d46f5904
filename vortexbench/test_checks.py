"""Each checker accepts a correct output and rejects a wrong one.

    python3 -m pytest -q vortexbench/test_checks.py

The correct outputs are made from reference.py alone, so these tests
run without vortexre.
"""

import copy
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import reference as ref  # noqa: E402

MU3 = (2.0, -1.0, 3.0)


@pytest.fixture(scope="module")
def find_payload():
    points = ref.census(MU3, 60)
    return {"count": len(points), "family_count": len(points),
            "points": [{"angles": list(p), "family": k} for k, p in enumerate(points)]}


def test_find_accepts_the_census(find_payload):
    assert len(find_payload["points"]) == 10
    assert checks.check_find(find_payload, MU3, 10) == []


def test_find_rejects_a_count_off_by_one(find_payload):
    assert checks.check_find(find_payload, MU3, 11)
    short = copy.deepcopy(find_payload)
    short["points"].pop()
    short["count"] = short["family_count"] = 9
    assert checks.check_find(short, MU3, 10)


def test_find_rejects_a_point_with_nonzero_gradient(find_payload):
    bad = copy.deepcopy(find_payload)
    bad["points"][3]["angles"][1] += 1e-5
    assert any("gradient" in p for p in checks.check_find(bad, MU3, 10))


def test_find_rejects_a_duplicate_point(find_payload):
    bad = copy.deepcopy(find_payload)
    bad["points"][4]["angles"] = [a + (2 * math.pi if k else 0.0) for k, a in
                                  enumerate(bad["points"][5]["angles"])]
    assert any("apart" in p for p in checks.check_find(bad, MU3, 10))


def test_find_rejects_families_that_do_not_add_up(find_payload):
    bad = copy.deepcopy(find_payload)
    bad["points"][0]["family"] = None
    assert any("family" in p for p in checks.check_find(bad, MU3, 10))


def test_find_checks_the_morse_sum_for_positive_weights():
    mu = (1.0, 1.0, 1.0)
    points = ref.census(mu, 60)
    payload = {"count": len(points), "family_count": 1,
               "points": [{"angles": list(p), "family": 0} for p in points]}
    assert checks.check_find(payload, mu, 14) == []
    # drop one extremum and its twin saddle-count no longer balances
    minimum = next(k for k, p in enumerate(points) if ref.morse_index(p, mu) == 0)
    payload["points"].pop(minimum)
    payload["count"] = 13
    assert any("Morse" in p for p in checks.check_find(payload, mu, 13))


def test_certify_counts_and_invariants():
    good = {"mu": [2, -1, 3], "real_distinct": 10, "complex_distinct": 16,
            "quotient_dimension": 24}
    assert checks.check_certify(good, [2, -1, 3], 10) == []
    assert checks.check_certify(dict(good, real_distinct=11), [2, -1, 3], 10)
    assert checks.check_certify(good, [2, -1, 3], 11)
    assert checks.check_certify(dict(good, complex_distinct=15), [2, -1, 3], 10)
    assert checks.check_certify(dict(good, quotient_dimension=12), [2, -1, 3], 10)


def _polygon_trace(n, c, step, steps, omega=1.0):
    records = []
    for k in range(1, steps + 1):
        eps = k * step
        records.append({"epsilon": eps, "omega": omega, "verdict": "unstable",
                        "angles": [2 * math.pi * j / n for j in range(n)],
                        "radii": [ref.polygon_radius(n, c, eps)] * n,
                        "residual": 0.0})
    return {"mu": [c] * n, "failure": None, "records": records}


def test_continue_accepts_the_exact_polygon():
    n, c = 8, 1.5
    start = [2 * math.pi * j / n for j in range(n)]
    payload = _polygon_trace(n, c, 1e-3, 5)
    payload["records"][0]["verdict"] = ref.reduced_verdict(start, [c] * n)
    assert checks.check_continue(payload, [c] * n, start, 5, polygon=True) == []


def test_continue_rejects_a_residual_above_tolerance():
    n, c = 8, 1.5
    start = [2 * math.pi * j / n for j in range(n)]
    payload = _polygon_trace(n, c, 1e-3, 5)
    payload["records"][0]["verdict"] = ref.reduced_verdict(start, [c] * n)
    payload["records"][2]["omega"] = 1.0 + 1e-6
    found = checks.check_continue(payload, [c] * n, start, 5, polygon=True)
    assert len(found) == 1 and "residual" in found[0]


def test_continue_rejects_a_wrong_radius_and_a_wrong_verdict():
    n, c = 8, 1.5
    start = [2 * math.pi * j / n for j in range(n)]
    payload = _polygon_trace(n, c, 1e-3, 5)
    want = ref.reduced_verdict(start, [c] * n)
    payload["records"][0]["verdict"] = "stable" if want == "unstable" else "unstable"
    payload["records"][1]["radii"] = [1.0] * n
    found = checks.check_continue(payload, [c] * n, start, 5, polygon=True)
    assert any("radius" in p for p in found)
    assert any("verdict" in p for p in found)
    assert checks.check_continue(payload, [c] * n, start, 6, polygon=True)


def test_build_checks_the_system_at_a_known_root():
    point = [0.0, 2 * math.atan(1 / 2.0), 2 * math.atan(1 / 3.0)]   # r2 = 2, r3 = 3
    good = {"variables": ["r2", "r3"], "polynomials": ["r2*r3 - 6", "-3*r2^2 + 12"]}
    assert checks.check_build(good, [1, 1, 1], point) == []
    bad = dict(good, polynomials=["r2*r3 - 7", "-3*r2^2 + 12"])
    assert checks.check_build(bad, [1, 1, 1], point)
    assert checks.check_build(dict(good, variables=["r2", "r4"]), [1, 1, 1], point)


def test_parse_polynomial():
    terms = checks.parse_polynomial("-3*r2^2*r3 + 5/2*r2 - r3^4 + 7")
    assert terms == [(-3, {"r2": 2, "r3": 1}), (2.5, {"r2": 1}), (-1, {"r3": 4}),
                     (7, {})]


def test_simulate_checks_conserved_quantities():
    circ = [1.0, 0.05, 0.05, 0.05]
    z = np.exp(2j * math.pi * np.arange(3) / 3)
    first = [0.0, 0.0] + [float(v) for w in z for v in (w.real, w.imag)]
    header = "t," + ",".join(f"x{i},y{i}" for i in range(4))
    rows = [header, "0," + ",".join(map(repr, first)),
            "1," + ",".join(map(repr, first))]
    assert checks.check_simulate("\n".join(rows) + "\n", circ) == []
    moved = list(first)
    moved[2] *= 1.01
    rows[-1] = "2," + ",".join(map(repr, moved))
    found = checks.check_simulate("\n".join(rows) + "\n", circ)
    assert any("Hamiltonian" in p for p in found)
    assert any("impulse" in p for p in found)
