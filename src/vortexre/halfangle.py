"""Exact polynomial systems for the critical-point equations.

The gradient of the reduced potential is

    dV/dtheta_i = -mu_i sum_{j != i} mu_j T(theta_i - theta_j),
    T(phi) = -sin(phi) + sin(phi) / (2 - 2 cos(phi)),

with vortex 1 fixed at theta = 0.  Every term has a closed form in the
cotangent coordinates r = cot(theta/2), written projectively as
r = p/q.  With n = p^2 + q^2, c_ij = p_i p_j + q_i q_j and
e_ij = p_j q_i - p_i q_j,

    sin(theta_i - theta_j) = 2 c_ij e_ij / (n_i n_j),
    cot((theta_i - theta_j) / 2) = c_ij / e_ij,

so T(theta_i - theta_j) = c_ij (n_i n_j - 4 e_ij^2) / (2 n_i n_j e_ij).
Vortex 1 is the point (p, q) = (1, 0), which gives
T(theta_i) = p_i (p_i^2 - 3 q_i^2) / (2 q_i n_i).  Component i is then
one numerator over the known denominator 2 n_i prod_{j != i} n_j g_ij,
where g = p_a q_b - p_b q_a for the pair a < b; made primitive, the
numerators are integer polynomial systems for exact root counting.

Since theta = pi - 2*atan(r), the collision with vortex 1 sits at
r = infinity and weak-weak collisions are the factors r_i - r_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from vortexre.errors import CollisionError
from vortexre.polynomials import PolynomialRing, exact_divide
from vortexre.rationals import is_integer, rational


@dataclass(frozen=True)
class NormalizationRecord:
    """How one gradient numerator was normalized to a primitive polynomial."""

    component: str
    denominator_factors: tuple
    collision_factors: tuple
    content: str


@dataclass(frozen=True)
class HalfAngleSystem:
    """Primitive integer polynomial system with its normalization records."""

    polys: tuple
    stripped_factors: tuple

    @property
    def ring(self):
        return self.polys[0].ring

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)


def _numerators(points, mu):
    """Gradient numerators over cotangent points (p_k, q_k).

    `points[0]` is vortex 1, (1, 0), so n_1 = 1 and g_1i = q_i.  For each
    later vortex i, returns the numerator N_i and the denominator factors
    F_i (n_k for every k >= 2, then g_ij for each j != i), with
    dV/dtheta_i = N_i / (2 prod F_i).
    """
    norms = [p * p + q * q for p, q in points]
    out = []
    for i in range(1, len(points)):
        pi, qi = points[i]
        others = [j for j in range(len(points)) if j != i]
        g = {}
        for j in others:
            (pa, qa), (pb, qb) = points[min(i, j)], points[max(i, j)]
            g[j] = pa * qb - pb * qa
        h = {j: norms[j] * g[j] for j in others}
        num = 0
        for j in others:
            pj, qj = points[j]
            term = mu[j] * (pi * pj + qi * qj) * (norms[i] * norms[j] - 4 * g[j] * g[j])
            for k in others:
                if k != j:
                    term = term * h[k]
            # g_ij = e_ij when j < i and -e_ij when j > i
            num = num + term if j < i else num - term
        out.append((-mu[i] * num, norms[1:] + [g[j] for j in others]))
    return out


def _divide_out(p, f, limit=None):
    """(p / f^k, k) for the largest k (at most `limit`) with f^k dividing p."""
    power = 0
    while power != limit:
        q = exact_divide(p, f)
        if q is None:
            break
        p, power = q, power + 1
    return p, power


def build_symmetry_case_system(case):
    """Polynomial system for one reflection-symmetric configuration type.

    The three types for three weak vortices, with the free angle phi:
    case 1 puts vortex 1 on the symmetry axis (theta3 = -theta2 = -phi),
    case 2 puts vortex 3 on it (theta3 = 2*theta2, phi = theta2), and
    case 3 puts vortex 2 on it (theta2 = 2*theta3, phi = theta3).  The
    weights stay symbolic, so the system lives in (r, mu1, mu2, mu3) with
    r = cot(phi/2).  Every denominator factor is a power of r or r^2 + 1;
    those the numerator shares are cancelled, and the further powers of
    r it carries (collisions land on r = 0 or r = inf) are stripped and
    recorded.
    """
    ring = PolynomialRing(["r", "mu1", "mu2", "mu3"])
    r, *mu = ring.gens()
    one = ring.one()
    half, double = (r, one), (r * r - 1, 2 * r)  # cot(phi/2), cot(phi)
    cases = {1: [half, (-r, one)], 2: [half, double], 3: [double, half]}
    if case not in cases:
        raise ValueError("case must be 1, 2, or 3")
    polys, records = [], []
    numerators = _numerators([(one, ring.zero())] + cases[case], mu)
    for i, (num, factors) in enumerate(numerators, start=2):
        den = math.prod(factors, start=ring.constant(2))
        kept = []
        for f in (r, r * r + 1):
            den, power = _divide_out(den, f)
            num, cancelled = _divide_out(num, f, power)
            if power > cancelled:
                kept.append((str(f), power - cancelled))
        num, collisions = _divide_out(num, r)
        scale = den.constant_value()
        content = num.content()
        polys.append(num * (rational(1) / (content if scale > 0 else -content)))
        records.append(NormalizationRecord(
            component=f"V_theta{i}",
            denominator_factors=tuple(kept),
            collision_factors=((str(r), collisions),) if collisions else (),
            content=str(content / abs(scale)),
        ))
    return HalfAngleSystem(tuple(polys), tuple(records))


def build_equal_weight_system(mu):
    """Critical-point system for numeric integer weights (any N >= 2).

    Variables are the cotangent coordinates r_2..r_N with vortex 1 fixed
    at theta = 0.  Component i is the gradient numerator for theta_i over
    its reduced denominator 2 prod_k (r_k^2 + 1) prod_{j != i} (r_a - r_b),
    made primitive; the records list those factors and the content.
    """
    mu = [rational(m) for m in mu]
    if len(mu) < 2:
        raise ValueError("need at least two weights")
    for m in mu:
        if not m:
            raise ValueError("weights must be nonzero")
        if not is_integer(m):
            raise ValueError(
                "exact certification requires integer weights; "
                "scale the vector by a common denominator"
            )
    ring = PolynomialRing([f"r{i}" for i in range(2, len(mu) + 1)])
    one = ring.one()
    points = [(one, ring.zero())] + [(r, one) for r in ring.gens()]
    polys, records = [], []
    for i, (num, factors) in enumerate(_numerators(points, mu), start=2):
        content = num.content()
        polys.append(num * (rational(1) / content))
        records.append(NormalizationRecord(
            component=f"V_theta{i}",
            denominator_factors=tuple(sorted(
                (str(f), 1) for f in factors if not f.is_constant())),
            collision_factors=(),
            content=str(content / 2),
        ))
    return HalfAngleSystem(tuple(polys), tuple(records))


# -- coordinate maps ---------------------------------------------------------

def back_transform(roots, collision_tol=1e-9):
    """Angles (theta_1 = 0 first) from half-angle roots (r_2,...,r_N).

    Uses theta = pi - 2*atan(r), the inverse of the substitution above;
    every finite root gives an angle in (0, 2*pi), so collisions with
    vortex 1 cannot occur.  Coinciding roots mean two weak vortices
    collide and raise CollisionError.
    """
    from vortexre.potential import AngularConfig

    roots = [float(r) for r in roots]
    for a in range(len(roots)):
        for b in range(a + 1, len(roots)):
            if abs(roots[a] - roots[b]) < collision_tol:
                raise CollisionError(
                    f"roots {a + 2} and {b + 2} coincide: vortices collide"
                )
    theta = [0.0] + [(math.pi - 2.0 * math.atan(r)) % (2.0 * math.pi) for r in roots]
    return AngularConfig(tuple(theta))


def half_angle_coordinates(config):
    """Half-angle coordinates (r_2,...,r_N) of a gauge-fixed configuration."""
    theta = config.theta if hasattr(config, "theta") else tuple(config)
    out = []
    for t in theta[1:]:
        t = t % (2.0 * math.pi)
        if t == 0.0:
            raise CollisionError("vortex coincides with vortex 1 (theta = 0)")
        out.append(math.cos(t / 2.0) / math.sin(t / 2.0))
    return tuple(out)
