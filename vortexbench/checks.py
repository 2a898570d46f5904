"""Checkers for every job output the benchmark produces.

Each checker takes what the CLI printed (parsed) and what the benchmark
knows independently of vortexre, and returns a list of problems; an
empty list means the output is correct.  The tolerances are fixed here,
not per job.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np

import reference as ref

GRAD_TOL = 1e-8          # |dV/dtheta|_inf at a reported critical point
DISTINCT_TOL = 1e-6      # two reported points closer than this are duplicates
RESIDUAL_TOL = 1e-9      # rotating-frame velocity mismatch of a continuation record
RADIUS_TOL = 1e-9        # polygon radius against the closed form
POLY_TOL = 1e-8          # relative value of a system polynomial at a known root
DRIFT_TOL = 1e-7         # Hamiltonian and impulse drift over a simulation


def check_certify(payload, mu, expected_real):
    problems = []
    real = payload.get("real_distinct")
    cplx = payload.get("complex_distinct")
    qdim = payload.get("quotient_dimension")
    if list(payload.get("mu", [])) != list(mu):
        problems.append(f"certify echoed mu {payload.get('mu')}, asked {list(mu)}")
    if real != expected_real:
        problems.append(f"certify {mu}: {real} real roots, oracle counts {expected_real}")
    if not (isinstance(real, int) and isinstance(cplx, int) and isinstance(qdim, int)
            and 0 <= real <= cplx <= qdim):
        problems.append(f"certify {mu}: need real <= complex <= quotient dim, "
                        f"got {real}, {cplx}, {qdim}")
    elif (cplx - real) % 2:
        problems.append(f"certify {mu}: complex - real = {cplx - real} is odd")
    return problems


_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*?)?((?:[A-Za-z]\w*(?:\^\d+)?\*?)*)$")


def parse_polynomial(text):
    """[(coefficient, {variable: exponent})] from the CLI's text form."""
    tokens = text.replace("- ", "-").replace("+ ", "+").split(" ")
    terms = []
    for tok in tokens:
        sign = -1 if tok.startswith("-") else 1
        body = tok.lstrip("+-")
        m = _TERM.match(body)
        if not body or m is None:
            raise ValueError(f"cannot parse term {tok!r}")
        coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        powers = {}
        for factor in filter(None, m.group(2).split("*")):
            name, _, exp = factor.partition("^")
            powers[name] = powers.get(name, 0) + int(exp or 1)
        terms.append((sign * coeff, powers))
    return terms


def relative_value(terms, values):
    """|p(values)| / sum |term(values)|: near zero exactly at a root."""
    total = 0.0
    scale = 0.0
    for coeff, powers in terms:
        t = float(coeff)
        for name, exp in powers.items():
            t *= values[name] ** exp
        total += t
        scale += abs(t)
    return abs(total) / scale if scale else 0.0


def check_build(payload, mu, point):
    """The system must vanish at the half-angle coordinates of a known
    critical point, in the variables r_2..r_N with theta_1 = 0."""
    n = len(mu)
    names = [f"r{i}" for i in range(2, n + 1)]
    problems = []
    if payload.get("variables") != names:
        problems.append(f"build {mu}: variables {payload.get('variables')}, want {names}")
        return problems
    polys = payload.get("polynomials", [])
    if len(polys) != n - 1:
        problems.append(f"build {mu}: {len(polys)} polynomials, want {n - 1}")
    values = dict(zip(names, ref.half_angle(point)))
    for k, text in enumerate(polys):
        try:
            rel = relative_value(parse_polynomial(text), values)
        except ValueError as exc:
            problems.append(f"build {mu}: polynomial {k + 1}: {exc}")
            continue
        if not rel < POLY_TOL:
            problems.append(f"build {mu}: polynomial {k + 1} is {rel:.2e} "
                            "(relative) at a known critical point")
    return problems


def check_find(payload, mu, expected_count):
    problems = []
    points = payload.get("points", [])
    mu = np.asarray(mu, dtype=float)
    if payload.get("count") != expected_count or len(points) != expected_count:
        problems.append(f"find {list(mu)}: count {payload.get('count')} with "
                        f"{len(points)} records, oracle counts {expected_count}")
    if not points:
        return problems
    angles = np.array([p["angles"] for p in points], dtype=float)
    if angles.shape[1] != len(mu) or np.any(angles[:, 0] != 0.0):
        problems.append(f"find {list(mu)}: points are not gauge-fixed (theta_1 = 0)")
        return problems
    for k, theta in enumerate(angles):
        with np.errstate(all="ignore"):
            g = float(np.abs(ref.gradient(theta, mu)).max())
        if not g < GRAD_TOL:
            problems.append(f"find {list(mu)}: point {k} has gradient {g:.2e}")
    d = ref.min_pair_distance(angles)
    if not d > DISTINCT_TOL:
        problems.append(f"find {list(mu)}: two points {d:.1e} apart modulo rotation")
    if np.all(mu > 0):
        want = math.factorial(len(mu) - 1)
        got = ref.morse_sum(angles, mu)
        if got != want:
            problems.append(f"find {list(mu)}: Morse sum {got}, expected (N-1)! = {want}")
    labels = [p.get("family") for p in points]
    sizes = Counter(labels)
    if None in sizes or sum(sizes.values()) != len(points) \
            or len(sizes) != payload.get("family_count"):
        problems.append(f"find {list(mu)}: family sizes {dict(sizes)} do not add up "
                        f"to {len(points)} points in {payload.get('family_count')} families")
    return problems


def check_continue(payload, mu, start, steps, polygon=False):
    """Every record solves the rotating-frame equations by the benchmark's
    own field; polygons keep the closed-form radius; the first verdict
    agrees with the reduced-potential verdict of the start point."""
    problems = []
    records = payload.get("records", [])
    if payload.get("failure"):
        problems.append(f"continue {list(mu)}: {payload['failure']}")
    if len(records) != steps:
        problems.append(f"continue {list(mu)}: {len(records)} records, want {steps}")
    n = len(mu)
    for rec in records:
        res = ref.rotating_residual(rec, mu)
        if not res < RESIDUAL_TOL:
            problems.append(f"continue {list(mu)}: residual {res:.2e} "
                            f"at eps={rec['epsilon']:.6g}")
        if polygon:
            want = ref.polygon_radius(n, mu[0], rec["epsilon"])
            err = float(np.abs(np.asarray(rec["radii"]) - want).max())
            if not err < RADIUS_TOL:
                problems.append(f"continue polygon {n}: radius off by {err:.2e} "
                                f"at eps={rec['epsilon']:.6g}")
    if records:
        want = ref.reduced_verdict(start, mu)
        if records[0]["verdict"] != want:
            problems.append(f"continue {list(mu)}: first verdict {records[0]['verdict']}, "
                            f"reduced potential says {want}")
    return problems


def check_simulate(csv_text, circulations):
    """Hamiltonian and linear impulse, recomputed from the first and last
    states the CLI wrote, must be conserved."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    if len(rows) < 3:
        return [f"simulate: only {len(rows) - 1} states written"]
    n = len(circulations)

    def state(row):
        xy = np.asarray(row[1:], dtype=float).reshape(n, 2)
        return xy[:, 0] + 1j * xy[:, 1]

    first, last = state(rows[1]), state(rows[-1])
    problems = []
    dh = abs(ref.hamiltonian(last, circulations) - ref.hamiltonian(first, circulations))
    dp = abs(ref.impulse(last, circulations) - ref.impulse(first, circulations))
    if not dh < DRIFT_TOL:
        problems.append(f"simulate: Hamiltonian drift {dh:.2e}")
    if not dp < DRIFT_TOL:
        problems.append(f"simulate: impulse drift {dp:.2e}")
    return problems
