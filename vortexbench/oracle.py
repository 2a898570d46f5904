"""Regenerate the benchmark's input pools and their expected answers.

    python3 vortexbench/oracle.py [--out vortexbench/pools.json]

Every expected answer comes from reference.py, which shares no code with
vortexre: a vectorised damped-Newton census of the reduced gradient from
a dense seed grid, run at two grid densities that must agree.  For
positive weights the census must also satisfy the Morse identity
sum (-1)^index = (N-1)!, which holds because V is proper on each of the
(N-1)! cyclic orderings.  The pool vectors are drawn from a fixed
generator seed, so a rerun reproduces the file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reference as ref  # noqa: E402

POOL_SEED = 1508
RELEASE = [(1, 1, 1), (2, 1, 9), (2, -1, 3), (-1, -3, 10)]
# one base vector per N for `find`: mixed signs with stable saddles,
# distinct positive weights, equal weights
FIND_BASES = {3: (2, -1, 3), 4: (1, 2, 3, 4), 5: (1, 1, 1, 1, 1)}
# Its saddle's two slow frequencies nearly coincide, and vortexre's
# full-system verdict flips between stable and unstable for first steps
# from 5e-5 to 5e-4, so the first-step check would fail on some seeds only.
CONTINUE_LEFT_OUT = {(-4, -7, 9)}
# grid densities (seeds per axis) for the two census passes
GRIDS = {3: (90, 127), 4: (26, 33), 5: (16, 19)}


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


def _primitive(v):
    g = 0
    for x in v:
        g = math.gcd(g, abs(x))
    return g == 1


def _canonical(v):
    """One representative of a weight vector up to relabeling and sign."""
    return min(tuple(sorted(v)), tuple(sorted(-x for x in v)))


def _integer_vectors(rng, n, count, low, high, accept=lambda v: True, seen=()):
    seen = set(seen)
    out = []
    while len(out) < count:
        v = tuple(rng.choice([-1, 1]) * rng.randint(low, high) for _ in range(n))
        if not _primitive(v) or not accept(v) or _canonical(v) in seen:
            continue
        seen.add(_canonical(v))
        out.append(v)
    return out


def checked_census(mu):
    """Census at two densities; both must find the same points."""
    coarse, fine = (ref.census(mu, g) for g in GRIDS[len(mu)])
    same = len(coarse) == len(fine) and all(
        np.abs(ref.wrapped(np.subtract(a, b))).max() < 1e-6
        for a, b in zip(coarse, fine))
    if not same:
        raise RuntimeError(f"census of {mu} not converged: "
                           f"{len(coarse)} vs {len(fine)} points")
    points = fine
    if all(m > 0 for m in mu):
        want = math.factorial(len(mu) - 1)
        got = ref.morse_sum(points, mu)
        if got != want:
            raise RuntimeError(f"census of {mu}: Morse sum {got}, expected {want}")
    return points


def _nondegenerate(points, mu, tol=1e-6):
    for p in points:
        ev = np.linalg.eigvalsh(ref.hessian(p, mu)[1:, 1:])
        if np.abs(ev).min() < tol * max(1.0, np.abs(ev).max()):
            return False
    return True


def _stable_saddle(points, mu):
    for p in points:
        if ref.morse_index(p, mu) not in (0, len(mu) - 1) and \
                ref.reduced_verdict(p, mu) == "stable":
            return p
    return None


def _one_point(mu, rng):
    """A critical point away from theta = 0 (finite half-angle coordinates)."""
    seeds = np.array([[rng.uniform(0.3, 2 * math.pi - 0.3) for _ in mu[1:]]
                      for _ in range(400)])
    x, alive = ref.newton_batch(seeds, mu, iters=60)
    for xi, ok in zip(x, alive):
        p = np.concatenate([[0.0], xi])
        if not ok or not np.isfinite(p).all():
            continue
        if np.abs(ref.gradient(p, mu)).max() > 1e-11 * np.abs(np.outer(mu, mu)).sum():
            continue
        if np.abs(np.sin(0.5 * p[1:])).min() < 0.05:
            continue
        gaps = np.abs(ref.wrapped(p[:, None] - p[None, :]))
        np.fill_diagonal(gaps, math.inf)
        if gaps.min() < 0.05:
            continue
        return [float(v) for v in p]
    raise RuntimeError(f"no usable critical point for {mu}")


def build_pools():
    rng = random.Random(POOL_SEED)
    pools = {"generator_seed": POOL_SEED}

    _log("certify_n3 ...")
    vectors = RELEASE + _integer_vectors(rng, 3, 156, 1, 12,
                                         seen=[_canonical(v) for v in RELEASE])
    certify = []
    for mu in vectors:
        pts = checked_census(mu)
        if not _nondegenerate(pts, mu):
            continue
        certify.append({"mu": list(mu), "real": len(pts)})
    pools["certify_n3"] = certify

    for n, key, count in ((4, "build_n4", 60), (5, "build_n5", 60)):
        _log(f"{key} ...")
        pools[key] = [{"mu": list(mu), "point": _one_point(mu, rng)}
                      for mu in _integer_vectors(rng, n, count, 1, 9)]

    # Zero total weight makes the rotational zero eigenvalue of
    # diag(1/mu) V'' defective, so the stability verdict is ill-posed.
    _log("continue_n3 (mixed signs, with a stable saddle) ...")
    starts = []
    for mu in _integer_vectors(rng, 3, 400, 1, 12,
                               accept=lambda v: min(v) < 0 < max(v) and sum(v)):
        if mu in CONTINUE_LEFT_OUT:
            continue
        pts = checked_census(mu)
        saddle = _stable_saddle(pts, mu)
        if saddle is None or not _nondegenerate(pts, mu):
            continue
        starts.append({"mu": list(mu), "angles": [float(v) for v in saddle]})
        if len(starts) == 60:
            break
    pools["continue_n3"] = starts

    # `find` runs c * base for a seed-drawn scale c.  V scales by c^2, so
    # the critical set, and with it the count, is that of the base.
    _log("find bases ...")
    pools["find"] = {}
    for n, base in FIND_BASES.items():
        pools["find"][str(n)] = {"base": list(base),
                                 "count": len(checked_census(base))}
    return pools


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "pools.json"))
    args = parser.parse_args()
    t0 = time.perf_counter()
    pools = build_pools()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(pools, fh, indent=1)
        fh.write("\n")
    _log(f"wrote {args.out} in {time.perf_counter() - t0:.0f} s")


if __name__ == "__main__":
    main()
