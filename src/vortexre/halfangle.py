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

For integer weights every coefficient on the way is an integer, and so it
is for the symmetry cases, whose weights are ring variables.  The
numerators are therefore multiplied as integer term maps (monomial ->
int, see `vortexre._kernels`), and the symmetry cases strip their monic
denominator factors r and r^2 + 1 from those maps as well; ``Fraction``
appears only in the polynomials, factors and contents the builders return.

Since theta = pi - 2*atan(r), the collision with vortex 1 sits at
r = infinity and weak-weak collisions are the factors r_i - r_j.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from vortexre import _kernels
from vortexre.errors import CollisionError
from vortexre.polynomials import MultiPoly, PolynomialRing


@dataclass(frozen=True)
class NormalizationRecord:
    """How one gradient numerator was normalized to a primitive polynomial.

    The factor tuples hold (polynomial, power) pairs; `content` is the
    positive ``Fraction`` divided out of the numerator over its
    denominator.
    """

    component: str
    denominator_factors: tuple
    collision_factors: tuple
    content: Fraction


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

    Points and weights are integer term maps.  `points[0]` is vortex 1,
    (1, 0), so n_1 = 1 and g_1i = q_i.  For each later vortex i, returns
    the numerator N_i and the denominator factors F_i (n_k for every
    k >= 2, then g_ij for each j != i), all integer term maps, with
    dV/dtheta_i = N_i / (2 prod F_i).
    """
    mul, add = _kernels.terms_mul, _kernels.terms_add
    neg, scale = _kernels.terms_neg, _kernels.terms_scale
    norms = [add(mul(p, p), mul(q, q)) for p, q in points]
    out = []
    for i in range(1, len(points)):
        pi, qi = points[i]
        others = [j for j in range(len(points)) if j != i]
        g = {}
        for j in others:
            (pa, qa), (pb, qb) = points[min(i, j)], points[max(i, j)]
            g[j] = add(mul(pa, qb), neg(mul(pb, qa)))
        h = {j: mul(norms[j], g[j]) for j in others}
        num = {}
        for j in others:
            pj, qj = points[j]
            cos = add(mul(pi, pj), mul(qi, qj))
            ratio = add(mul(norms[i], norms[j]), scale(mul(g[j], g[j]), -4))
            term = mul(mul(mu[j], cos), ratio)
            for k in others:
                if k != j:
                    term = mul(term, h[k])
            # g_ij = e_ij when j < i and -e_ij when j > i
            num = add(num, term if j < i else neg(term))
        out.append((mul(neg(mu[i]), num), norms[1:] + [g[j] for j in others]))
    return out


def _poly(ring, terms):
    """Polynomial with Fraction coefficients from an integer term map."""
    return MultiPoly(ring, {m: Fraction(c) for m, c in terms.items()})


def _divide_out(p, f, order, limit=None):
    """(p / f^k, k) for the largest k (at most `limit`) with f^k dividing the
    integer term map p; f is monic, so every quotient is integral."""
    lm, power = _kernels.leading_monomial(f, order), 0
    while power != limit:
        work, quotient = dict(p), {}
        while work:
            m = _kernels.leading_monomial(work, order)
            shift = _kernels.monomial_div(m, lm)
            if shift is None:
                return p, power
            quotient[shift] = c = work[m]
            _kernels.terms_iadd_scaled(work, f, -c, shift)
        p, power = quotient, power + 1
    return p, power


def build_symmetry_case_system(case):
    """Polynomial system for one reflection-symmetric configuration type.

    The three types for three weak vortices, with the free angle phi:
    case 1 puts vortex 1 on the symmetry axis (theta3 = -theta2 = -phi),
    case 2 puts vortex 2 on it (theta3 = 2*theta2, phi = theta2), and
    case 3 puts vortex 3 on it (theta2 = 2*theta3, phi = theta3).  The
    reflection swaps the other two, whose weights the elimination of r
    equates: mu2 = mu3, mu1 = mu3 and mu1 = mu2 respectively.  The
    weights stay symbolic, so the system lives in (r, mu1, mu2, mu3) with
    r = cot(phi/2).  Every denominator factor is a power of r or r^2 + 1;
    those the numerator shares are cancelled, and the further powers of
    r it carries (collisions land on r = 0 or r = inf) are stripped and
    recorded.  The sign comes from the constant left of the denominator.
    """
    ring = PolynomialRing(["r", "mu1", "mu2", "mu3"])
    unit, lin, sq = (0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0)  # the monomials 1, r, r^2
    one, r = {unit: 1}, {lin: 1}
    half, double = (r, one), ({sq: 1, unit: -1}, {lin: 2})  # cot(phi/2), cot(phi)
    cases = {1: [half, ({lin: -1}, one)], 2: [half, double], 3: [double, half]}
    if case not in cases:
        raise ValueError("case must be 1, 2, or 3")
    mu = [{(0, 1, 0, 0): 1}, {(0, 0, 1, 0): 1}, {(0, 0, 0, 1): 1}]
    polys, records = [], []
    for i, (num, factors) in enumerate(_numerators([(one, {})] + cases[case], mu), start=2):
        den = functools.reduce(_kernels.terms_mul, factors, {unit: 2})
        kept = []
        for f in (r, {sq: 1, unit: 1}):
            den, power = _divide_out(den, f, ring.order)
            num, cancelled = _divide_out(num, f, ring.order, power)
            if power > cancelled:
                kept.append((_poly(ring, f), power - cancelled))
        num, collisions = _divide_out(num, r, ring.order)
        (scale,) = den.values()  # what is left of the denominator is a constant
        content = math.gcd(*num.values())
        sign = content if scale > 0 else -content
        polys.append(_poly(ring, {m: c // sign for m, c in num.items()}))
        records.append(NormalizationRecord(
            component=f"V_theta{i}",
            denominator_factors=tuple(kept),
            collision_factors=((_poly(ring, r), collisions),) if collisions else (),
            content=Fraction(content, abs(scale)),
        ))
    return HalfAngleSystem(tuple(polys), tuple(records))


def build_equal_weight_system(mu):
    """Critical-point system for numeric integer weights (any N >= 2).

    Variables are the cotangent coordinates r_2..r_N with vortex 1 fixed
    at theta = 0.  Component i is the gradient numerator for theta_i over
    its reduced denominator 2 prod_k (r_k^2 + 1) prod_{j != i} (r_a - r_b),
    made primitive; the records list those factors and the content.
    """
    mu = [Fraction(m) for m in mu]
    if len(mu) < 2:
        raise ValueError("need at least two weights")
    if not all(mu):
        raise ValueError("weights must be nonzero")
    if any(m.denominator != 1 for m in mu):
        scale = math.lcm(*(m.denominator for m in mu))
        raise ValueError(
            "exact certification requires integer weights; the counts depend only "
            "on the weight ratio, so rescale, e.g. " + ",".join(str(m * scale) for m in mu))
    ring = PolynomialRing([f"r{i}" for i in range(2, len(mu) + 1)])
    unit = (0,) * ring.nvars
    one = {unit: 1}
    points = [(one, {})] + [({unit[:k] + (1,) + unit[k + 1:]: 1}, one)
                            for k in range(ring.nvars)]
    weights = [{unit: int(m)} for m in mu]
    polys, records = [], []
    for i, (num, factors) in enumerate(_numerators(points, weights), start=2):
        content = math.gcd(*num.values())
        polys.append(_poly(ring, {m: c // content for m, c in num.items()}))
        factors = (_poly(ring, f) for f in factors)
        records.append(NormalizationRecord(
            component=f"V_theta{i}",
            denominator_factors=tuple((f, 1) for f in factors if not f.is_constant()),
            collision_factors=(),
            content=Fraction(content, 2),
        ))
    return HalfAngleSystem(tuple(polys), tuple(records))


# -- coordinate maps ---------------------------------------------------------

_COLLISION_TOL = 1e-9  # roots closer than this are one collided pair


def back_transform(roots):
    """Angles (theta_1 = 0 first) from half-angle roots (r_2,...,r_N).

    Uses theta = pi - 2*atan(r), the inverse of the substitution above;
    every finite root gives an angle in (0, 2*pi), so collisions with
    vortex 1 cannot occur.  Coinciding roots mean two weak vortices
    collide and raise CollisionError.
    """
    roots = [float(r) for r in roots]
    for a in range(len(roots)):
        for b in range(a + 1, len(roots)):
            if abs(roots[a] - roots[b]) < _COLLISION_TOL:
                raise CollisionError(
                    f"roots {a + 2} and {b + 2} coincide: vortices collide"
                )
    return (0.0,) + tuple((math.pi - 2.0 * math.atan(r)) % (2.0 * math.pi) for r in roots)


def half_angle_coordinates(theta):
    """Half-angle coordinates (r_2,...,r_N) of gauge-fixed angles theta."""
    out = []
    for t in theta[1:]:
        t = t % (2.0 * math.pi)
        if t == 0.0:
            raise CollisionError("vortex coincides with vortex 1 (theta = 0)")
        out.append(math.cos(t / 2.0) / math.sin(t / 2.0))
    return tuple(out)
