"""Exact polynomial systems for the critical-point equations.

The gradient of the reduced potential is built from terms
T(phi) = -sin(phi) + sin(phi)/(2 - 2 cos(phi)) over pairwise angle
differences.  Substituting cos(theta) = (r^2-1)/(1+r^2) and
sin(theta) = 2r/(1+r^2) turns each component into a rational function
of the half-angle variables r_i; the numerators, with collision factors
stripped and recorded, are integer polynomial systems suitable for
exact root counting.

Under this substitution theta = pi - 2*atan(r): the collision with the
strong-axis vortex (theta = 0) sits at r = infinity, and weak-weak
collisions appear as polynomial factors r_i = r_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from vortexre.errors import CollisionError
from vortexre.polynomials import MultiPoly, PolynomialRing, exact_divide
from vortexre.rationals import Rational, is_integer, rational


class RationalFunc:
    """Quotient of a polynomial by a product of primitive factor powers.

    The denominator is kept factored; construction cancels factors into
    the numerator whenever they divide it exactly, so values like
    sin(phi)/(2-2*cos(phi)) stay small instead of accumulating cleared
    denominators.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, num, den=()):
        ring = num.ring
        scale = rational(1)
        factors = {}
        for f, p in den:
            if p == 0:
                continue
            if p < 0:
                raise ValueError("negative denominator power")
            if f.is_constant():
                c = f.constant_value()
                if not c:
                    raise ZeroDivisionError("zero denominator factor")
                scale = scale * c ** p
                continue
            prim, unit = f.primitive_part()
            scale = scale * unit ** p
            if len(prim.terms) == 1:
                # Monomial factor: split into per-variable powers.
                (mono,) = prim.terms
                for i, e in enumerate(mono):
                    if e:
                        v = ring.variable(ring.variables[i])
                        key = str(v)
                        poly, power = factors.get(key, (v, 0))
                        factors[key] = (poly, power + e * p)
            else:
                key = str(prim)
                poly, power = factors.get(key, (prim, 0))
                factors[key] = (poly, power + p)
        if scale != 1:
            num = num * (rational(1) / scale)
        if num.is_zero():
            factors = {}
        else:
            for key in list(factors):
                poly, power = factors[key]
                while power > 0:
                    q = exact_divide(num, poly)
                    if q is None:
                        break
                    num = q
                    power -= 1
                if power:
                    factors[key] = (poly, power)
                else:
                    del factors[key]
        self.ring = ring
        self.num = num
        self.den = tuple(sorted(factors.values(), key=lambda fp: str(fp[0])))

    @property
    def numerator(self):
        return self.num

    @property
    def denominator(self):
        """The denominator expanded to a single polynomial."""
        out = self.ring.one()
        for f, p in self.den:
            out = out * f ** p
        return out

    def is_zero(self):
        return self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, RationalFunc):
            return other
        if isinstance(other, MultiPoly):
            return RationalFunc(other)
        if isinstance(other, (int, Rational)):
            return RationalFunc(self.ring.constant(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        common = {}
        for f, p in self.den + other.den:
            key = str(f)
            poly, power = common.get(key, (f, 0))
            common[key] = (poly, max(power, p))

        def lift(rf):
            own = {str(f): p for f, p in rf.den}
            out = rf.num
            for key, (f, p) in common.items():
                deficit = p - own.get(key, 0)
                if deficit:
                    out = out * f ** deficit
            return out

        return RationalFunc(lift(self) + lift(other), tuple(common.values()))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunc(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunc(self.num * other.num, self.den + other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * other._inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self._inverse()

    def _inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RationalFunc(self.denominator, ((self.num, 1),))

    def __pow__(self, n):
        if n < 0:
            return self._inverse() ** (-n)
        out = RationalFunc(self.ring.one())
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num * other.denominator == other.num * self.denominator

    def evaluate(self, values):
        """Exact rational value; raises ZeroDivisionError on a pole."""
        den = rational(1)
        for f, p in self.den:
            den = den * f.evaluate(values) ** p
        return self.num.evaluate(values) / den

    def evaluate_float(self, values):
        den = 1.0
        for f, p in self.den:
            den *= f.evaluate_float(values) ** p
        return self.num.evaluate_float(values) / den

    def __str__(self):
        if not self.den:
            return str(self.num)
        den = " * ".join(
            f"({f})" + (f"^{p}" if p > 1 else "") for f, p in self.den
        )
        return f"({self.num}) / ({den})"

    def __repr__(self):
        return f"<RationalFunc {self}>"


def half_angle_transform(expr, angles):
    """Substitute half-angle forms for cosine/sine variable pairs.

    `expr` is a polynomial whose ring contains, for each angle, a cosine
    variable and a sine variable; `angles` lists (cos_name, sin_name,
    r_name) triples.  Other variables pass through.  Returns a
    RationalFunc over the ring with each pair replaced by one half-angle
    variable; its denominator is a product of powers of (1 + r^2).
    """
    in_ring = expr.ring
    cos_names = {c: r for c, _, r in angles}
    sin_names = {s: r for _, s, r in angles}
    out_vars = []
    for name in in_ring.variables:
        if name in cos_names:
            out_vars.append(cos_names[name])
        elif name in sin_names:
            continue
        else:
            out_vars.append(name)
    out_ring = PolynomialRing(out_vars, in_ring.order)

    substitutions = {}
    for cos_name, sin_name, r_name in angles:
        r = out_ring.variable(r_name)
        d = r * r + 1
        substitutions[in_ring._index[cos_name]] = RationalFunc(r * r - 1, ((d, 1),))
        substitutions[in_ring._index[sin_name]] = RationalFunc(2 * r, ((d, 1),))

    total = RationalFunc(out_ring.zero())
    for mono, coeff in expr.terms.items():
        passthrough = [0] * out_ring.nvars
        factor = RationalFunc(out_ring.constant(coeff))
        for i, e in enumerate(mono):
            if not e:
                continue
            rf = substitutions.get(i)
            if rf is None:
                passthrough[out_ring._index[in_ring.variables[i]]] = e
            else:
                factor = factor * rf ** e
        term = out_ring.monomial(tuple(passthrough))
        total = total + factor * term
    return total


# -- gradient assembly -------------------------------------------------------

def _interaction(sin_rf, cos_rf):
    """T(phi) = -sin(phi) + sin(phi) / (2 - 2 cos(phi))."""
    return -sin_rf + sin_rf / (2 - 2 * cos_rf)


def _angle_multiples(ring, kmax):
    """(sin, cos) of k*phi for k = 1..kmax as rational functions of r."""
    r = ring.variable(ring.variables[0])
    d = r * r + 1
    s1 = RationalFunc(2 * r, ((d, 1),))
    c1 = RationalFunc(r * r - 1, ((d, 1),))
    table = {1: (s1, c1)}
    for k in range(2, kmax + 1):
        s, c = table[k - 1]
        table[k] = (s * c1 + c * s1, c * c1 - s * s1)
    return table


def _signed_multiple(table, k):
    s, c = table[abs(k)]
    return (-s, c) if k < 0 else (s, c)


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


def _normalize(components, collision_candidates):
    polys = []
    records = []
    for name, rf in components:
        if rf.is_zero():
            raise ValueError(f"gradient component {name} vanished identically")
        num = rf.num
        stripped = []
        for f in collision_candidates:
            power = 0
            while True:
                q = exact_divide(num, f)
                if q is None:
                    break
                num = q
                power += 1
            if power:
                stripped.append((str(f), power))
        content = num.content()
        num = num * (rational(1) / content)
        polys.append(num)
        records.append(
            NormalizationRecord(
                component=name,
                denominator_factors=tuple(
                    (str(f), p) for f, p in rf.den
                ),
                collision_factors=tuple(stripped),
                content=str(content),
            )
        )
    return HalfAngleSystem(tuple(polys), tuple(records))


def build_symmetry_case_system(case):
    """Polynomial system for one reflection-symmetric configuration type.

    The three types for three weak vortices, with the free angle phi:
    case 1 puts vortex 1 on the symmetry axis (theta3 = -theta2 = -phi),
    case 2 puts vortex 3 on it (theta3 = 2*theta2, phi = theta2), and
    case 3 puts vortex 2 on it (theta2 = 2*theta3, phi = theta3).  The
    weights stay symbolic, so the system lives in (r, mu1, mu2, mu3).
    """
    ring = PolynomialRing(["r", "mu1", "mu2", "mu3"])
    mu1, mu2, mu3 = (ring.variable(n) for n in ("mu1", "mu2", "mu3"))
    table = _angle_multiples(ring, 2)

    def T(k):
        s, c = _signed_multiple(table, k)
        return _interaction(s, c)

    if case == 1:
        v2 = -mu1 * mu2 * T(1) - mu2 * mu3 * T(2)
        v3 = -mu2 * mu3 * T(-2) - mu1 * mu3 * T(-1)
    elif case == 2:
        v2 = -mu1 * mu2 * T(1) - mu2 * mu3 * T(-1)
        v3 = -mu2 * mu3 * T(1) - mu1 * mu3 * T(2)
    elif case == 3:
        v2 = -mu1 * mu2 * T(2) - mu2 * mu3 * T(1)
        v3 = -mu2 * mu3 * T(-1) - mu1 * mu3 * T(1)
    else:
        raise ValueError("case must be 1, 2, or 3")
    # Weak-weak and weak-strong collisions both land on r = 0 or r = inf
    # in the symmetric coordinates, so r is the only collision factor.
    return _normalize(
        [("V_theta2", v2), ("V_theta3", v3)], [ring.variable("r")]
    )


def build_equal_weight_system(mu):
    """Critical-point system for numeric integer weights (any N >= 2).

    Variables are the half-angle coordinates r_2..r_N with vortex 1
    fixed at theta = 0.  Components are the gradient numerators for
    theta_2..theta_N made primitive, with weak-weak collision factors
    (r_i - r_j) stripped and recorded.
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
    n = len(mu)
    names = [f"r{i}" for i in range(2, n + 1)]
    ring = PolynomialRing(names)
    rv = {i: ring.variable(f"r{i}") for i in range(2, n + 1)}
    dv = {i: rv[i] * rv[i] + 1 for i in range(2, n + 1)}

    def T_strong(i):
        # T(theta_i) with theta_1 = 0: sin = 2r/d, 2-2cos = 4/d.
        return RationalFunc(
            rv[i] * (rv[i] * rv[i] - 3), ((dv[i], 1), (ring.constant(2), 1))
        )

    def T_weak(i, j):
        ri, rj = rv[i], rv[j]
        di, dj = dv[i], dv[j]
        sin_ij = RationalFunc(2 * (rj - ri) * (ri * rj + 1), ((di, 1), (dj, 1)))
        cos_ij = RationalFunc(
            (ri * ri - 1) * (rj * rj - 1) + 4 * ri * rj, ((di, 1), (dj, 1))
        )
        return _interaction(sin_ij, cos_ij)

    components = []
    for i in range(2, n + 1):
        grad = -mu[0] * mu[i - 1] * T_strong(i)
        for j in range(2, n + 1):
            if j != i:
                grad = grad - mu[i - 1] * mu[j - 1] * T_weak(i, j)
        components.append((f"V_theta{i}", grad))
    collision = [
        rv[i] - rv[j] for i in range(2, n + 1) for j in range(i + 1, n + 1)
    ]
    return _normalize(components, collision)


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
