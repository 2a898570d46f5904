"""Independent oracles and small utilities shared by the test suite.

Everything here is deliberately implemented from first principles —
Sturm chains, finite differences, brute-force root searches, monomial
orders from their definitions and polynomial division over Q with
`Fraction` coefficients — so the library is checked against code that
shares none of its internals.  Buchberger's criterion and the reference
trace form reduce by that division, and the trace form takes none of the
trace-matrix shortcuts.  The one exception is the reference Buchberger:
it shares the library's integer division and auto-reduction, but skips
no S-pair.  scipy, a test-only dependency, supplies the oracles of the
stability reduction (its null space) and of the integrator (its RK45).
The search's former hashed dedup and per-row family keys are kept here
verbatim, as the oracles of the batched code that replaced them, and so
is the half-angle builder's former numerator loop, which rebuilt each
leave-one-out product on the library's term-map kernels.  The polynomial
oracles read and write exponent tuples (`exponent_terms` and
`from_exponent_terms`) and keep the monomial arithmetic and orders in
their tuple definitions, never the library's packed ints.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from vortexre import _kernels, groebner
from vortexre.polynomials import MultiPoly


# -- polynomials as exponent maps, and monomials as exponent tuples ---------

def exponent_terms(p):
    """p's terms keyed by exponent tuples instead of packed monomials."""
    exponents = p.ring.packing.exponents
    return {exponents(m): c for m, c in p.terms.items()}


def leading_exponents(p):
    """The exponent tuple of p's leading monomial in its ring's order."""
    return p.ring.packing.exponents(max(p.terms))


def from_exponent_terms(ring, terms):
    """The polynomial of `ring` with {exponent tuple: coefficient} terms."""
    pack = ring.packing.pack
    return MultiPoly(ring, {pack(e): Fraction(c) for e, c in terms.items() if c})


def reference_product(a, b):
    return tuple(x + y for x, y in zip(a, b))


def reference_quotient(b, a):
    """b / a, or None when a does not divide b."""
    return tuple(y - x for x, y in zip(a, b)) if reference_divides(a, b) else None


def reference_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def reference_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


# -- univariate Sturm-chain real-root counting --------------------------------

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_deriv(p):
    return _poly_trim([Fraction(i) * c for i, c in enumerate(p)][1:])


def _poly_rem(a, b):
    """Remainder of a / b, coefficients ascending."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and _poly_trim(a):
        da, la = len(a) - 1, a[-1]
        shift = da - db
        factor = la / lb
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        _poly_trim(a)
    return a


def _sign_changes(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if x * y < 0)


def _sign_at_inf(p, positive):
    # sign of p(x) as x -> +/- infinity
    lead = p[-1]
    deg = len(p) - 1
    s = 1 if lead > 0 else -1
    if not positive and deg % 2 == 1:
        s = -s
    return s


def sturm_distinct_real_roots(coeffs):
    """Number of distinct real roots; coeffs ascending, exact rationals."""
    p = _poly_trim([Fraction(c) for c in coeffs])
    if len(p) <= 1:
        return 0
    chain = [p, _poly_deriv(p)]
    while len(chain[-1]) > 1:
        r = _poly_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    if len(chain[-1]) == 1 and chain[-1][0] == 0:
        chain.pop()
    neg = _sign_changes([_sign_at_inf(q, False) for q in chain])
    pos = _sign_changes([_sign_at_inf(q, True) for q in chain])
    return neg - pos


def poly_gcd(a, b):
    a = _poly_trim([Fraction(c) for c in a])
    b = _poly_trim([Fraction(c) for c in b])
    while b:
        a, b = b, _poly_rem(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def squarefree_distinct_complex_roots(coeffs):
    """deg(p) - deg(gcd(p, p')): the number of distinct complex roots."""
    p = _poly_trim([Fraction(c) for c in coeffs])
    if len(p) <= 1:
        return 0
    g = poly_gcd(p, _poly_deriv(p))
    return (len(p) - 1) - (len(g) - 1)


# -- quick numerical root search for small 2x2 polynomial systems -------------

def grid_newton_real_roots(fns, jac, box=5.0, grid=48, tol=1e-10, dedup=1e-6):
    """All real roots of a 2-equation system inside [-box, box]^2.

    Dense grid of Newton starts with deduplication; an oracle for small
    hand-picked systems whose roots are known to sit well inside the box.
    """
    found = []
    lin = np.linspace(-box, box, grid)
    for x0 in lin:
        for y0 in lin:
            v = np.array([x0, y0])
            ok = False
            for _ in range(60):
                f = np.array(fns(v[0], v[1]), dtype=float)
                if np.abs(f).max() < tol:
                    ok = True
                    break
                J = np.array(jac(v[0], v[1]), dtype=float)
                try:
                    step = np.linalg.solve(J, -f)
                except np.linalg.LinAlgError:
                    break
                if not np.all(np.isfinite(step)):
                    break
                v = v + step
                if np.abs(v).max() > 50 * box:
                    break
            if not ok or np.abs(v).max() > box + 1e-6:
                continue
            if not any(np.abs(v - w).max() < dedup for w in found):
                found.append(v)
    return found


# -- line arrangements: systems with combinatorially exact root counts --------

def _same_line(p, q):
    (a1, b1, c1), (a2, b2, c2) = p, q
    return (a1 * b2 == a2 * b1) and (a1 * c2 == a2 * c1) and (b1 * c2 == b2 * c1)


def random_line_arrangement(rng, lines_f, lines_g):
    """Two products of rational linear forms plus their exact intersection count.

    Returns (f_lines, g_lines, distinct_points) where each line is
    (a, b, c) for a*x + b*y + c and distinct_points is the exact number
    of distinct finite intersections between the two families.
    """
    def fresh_line(avoid):
        while True:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            if not (a or b):
                continue
            line = (Fraction(a), Fraction(b), Fraction(rng.randint(-3, 3)))
            if not any(_same_line(line, other) for other in avoid):
                return line

    f = []
    for _ in range(lines_f):
        f.append(fresh_line(()))
    g = []
    for _ in range(lines_g):
        # a line shared by both products would make the common zero set
        # one-dimensional, so keep the two families component-disjoint
        g.append(fresh_line(f))
    points = set()
    for (a1, b1, c1), (a2, b2, c2) in itertools.product(f, g):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue  # parallel: no finite intersection
        x = (-c1 * b2 + c2 * b1) / det
        y = (-a1 * c2 + a2 * c1) / det
        points.add((x, y))
    return f, g, len(points)


def lines_to_multipoly(ring, lines):
    """The product of the linear forms a*x + b*y + c, as a polynomial in ring."""
    pack = ring.packing.pack
    p = {0: Fraction(1)}
    for a, b, c in lines:
        form = {pack(m): Fraction(v) for m, v in (((1, 0), a), ((0, 1), b), ((0, 0), c)) if v}
        p = _kernels.terms_mul(p, form, ring.packing)
    return MultiPoly(ring, p)


# -- polynomial text form -------------------------------------------------------

def reference_poly_str(p):
    """`MultiPoly.__str__` as it was when it compared and printed Fractions."""
    if not p.terms:
        return "0"
    parts, terms = [], exponent_terms(p)
    for m in sorted(terms, key=lambda e: reference_key(p.ring.order, e), reverse=True):
        c = terms[m]
        factors = []
        for i, e in enumerate(m):
            if e == 1:
                factors.append(p.ring.variables[i])
            elif e > 1:
                factors.append(f"{p.ring.variables[i]}^{e}")
        mag = c if c > 0 else -c
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


# -- half-angle numerators ------------------------------------------------------

def reference_numerators(points, mu, packing):
    """`halfangle._numerators` as it was when each component summed its
    terms a_j * prod_{k != j} h_k, each product rebuilt from scratch."""
    add, neg, scale = _kernels.terms_add, _kernels.terms_neg, _kernels.terms_scale

    def mul(a, b):
        return _kernels.terms_mul(a, b, packing)

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


# -- sympy bridge (for cross-checking against an independent CAS) -------------

def reference_variables_used(p):
    """Names of the variables that appear in p with a positive exponent."""
    return {p.ring.variables[i] for m in exponent_terms(p) for i, e in enumerate(m) if e}


def reference_identify(p, source, target):
    """p with the variable named `source` replaced by the one named `target`."""
    i, j = p.ring.variables.index(source), p.ring.variables.index(target)
    out = {}
    for m, c in exponent_terms(p).items():
        e = list(m)
        e[j], e[i] = e[j] + e[i], 0
        out[tuple(e)] = out.get(tuple(e), 0) + c
    return from_exponent_terms(p.ring, out)


def reference_evaluate_float(p, values):
    """p at float values, given by name for every variable that p uses."""
    names = p.ring.variables
    acc = 0.0
    for m, c in exponent_terms(p).items():
        term = float(c)
        for name, e in zip(names, m):
            if e:
                term *= float(values[name]) ** e
        acc += term
    return acc


def reference_derivative(p, name):
    """The partial derivative of p by the variable called name."""
    i = p.ring.variables.index(name)
    out = {}
    for m, c in exponent_terms(p).items():
        if m[i]:
            out[m[:i] + (m[i] - 1,) + m[i + 1:]] = c * m[i]
    return from_exponent_terms(p.ring, out)


def reference_primitive_part(p):
    """(primitive, unit) with p == unit * primitive, the coefficients of
    primitive coprime integers and its leading one positive; (0, 1) for 0."""
    if p.is_zero():
        return p, Fraction(1)
    coeffs = [Fraction(c) for c in p.terms.values()]
    unit = Fraction(math.gcd(*(c.numerator for c in coeffs)),
                    math.lcm(*(c.denominator for c in coeffs)))
    terms = exponent_terms(p)
    if terms[reference_leading_monomial(terms, p.ring.order)] < 0:
        unit = -unit
    return MultiPoly(p.ring, {m: Fraction(c) / unit for m, c in p.terms.items()}), unit


def to_sympy(p, symbols):
    import sympy

    expr = sympy.Integer(0)
    for mono, coeff in exponent_terms(p).items():
        term = sympy.Rational(int(coeff.numerator), int(coeff.denominator))
        for s, e in zip(symbols, mono):
            if e:
                term *= s**e
        expr += term
    return expr


# -- reference potential kernels: full N x N difference tables ----------------
#
# The kernels as they were before the pair tables: both transcendentals on
# every entry of the (S, N, N) difference table, diagonal included.  The
# library's pair-table kernels must agree with these bit for bit.

_COLLISION_CHORD = 1e-9


def _ref_diagonals(a):
    n = a.shape[-1]
    return a.reshape(len(a), n * n)[:, ::n + 1]


def reference_difference_tables(theta):
    """(single, cos, sin, u, collided) of one configuration or a batch; u is
    1 on the diagonal and on colliding rows, and a single colliding
    configuration raises CollisionError."""
    from vortexre.errors import CollisionError

    theta = np.asarray(theta, dtype=float)
    single = theta.ndim == 1
    theta = np.atleast_2d(theta)
    d = theta[:, :, None] - theta[:, None, :]
    cos = np.cos(d)
    sin = np.sin(d)
    u = 2.0 - 2.0 * cos
    chord = np.sqrt(np.maximum(u, 0.0))
    _ref_diagonals(chord)[...] = np.inf
    collided = chord.min(axis=(1, 2)) < _COLLISION_CHORD
    if single and collided[0]:
        i, j = divmod(int(chord[0].argmin()), chord.shape[1])
        raise CollisionError(f"vortices {i + 1} and {j + 1} coincide")
    _ref_diagonals(u)[...] = 1.0
    u[collided] = 1.0
    return single, cos, sin, u, collided


def reference_potential_value(theta, w):
    w = np.asarray(w, dtype=float)
    single, cos, _, u, collided = reference_difference_tables(theta)
    pair = np.outer(w, w) * (cos + 0.5 * np.log(u))
    v = -np.triu(pair, 1).sum(axis=(1, 2))
    v[collided] = np.nan
    return float(v[0]) if single else v


def reference_potential_gradient(theta, w):
    w = np.asarray(w, dtype=float)
    single, _, sin, u, collided = reference_difference_tables(theta)
    t = sin * (-1.0 + 1.0 / u)
    _ref_diagonals(t)[...] = 0.0
    g = -(w[:, None] * w[None, :] * t).sum(axis=-1)
    g[collided] = np.nan
    return g[0] if single else g


def reference_potential_hessian(theta, w):
    w = np.asarray(w, dtype=float)
    single, cos, sin, u, collided = reference_difference_tables(theta)
    gpp = -cos + (cos * u - 2.0 * sin**2) / u**2
    _ref_diagonals(gpp)[...] = 0.0
    H = np.outer(w, w) * gpp
    _ref_diagonals(H)[...] = -H.sum(axis=-1)
    H[collided] = np.nan
    return H[0] if single else H


def reference_classify(theta, mu, tol_grad=1e-10, tol_zero=1e-8):
    """`classify` one point at a time on the full-table kernels."""
    from vortexre.errors import NotACriticalPointError
    from vortexre.potential import StabilityReport

    theta = np.asarray(theta, dtype=float)
    w = np.asarray(mu, dtype=float)
    gnorm = float(np.abs(reference_potential_gradient(theta, w)).max())
    if gnorm >= tol_grad:
        raise NotACriticalPointError(f"gradient infinity-norm {gnorm:.3e}")
    H = reference_potential_hessian(theta, w)
    hessian_eigs = np.linalg.eigvalsh(H)
    W = H / w[:, None]
    weighted = np.linalg.eigvals(W)
    weighted = weighted[np.lexsort((weighted.imag, weighted.real))]
    zero_tol = tol_zero * max(1.0, float(np.abs(weighted).max()))
    quotient = np.linalg.eigvals(W[1:, 1:] - W[0:1, 1:])
    zero_count = 1 + int(np.sum(np.abs(quotient) < zero_tol))
    if zero_count != 1:
        verdict = "degenerate"
    else:
        nonzero = weighted[np.abs(weighted) >= zero_tol]
        real_positive = (nonzero.real > zero_tol) & (
            np.abs(nonzero.imag) < tol_zero * np.maximum(1.0, np.abs(nonzero)))
        verdict = "stable" if bool(real_positive.all()) else "unstable"
    n = len(theta)
    Q, _ = np.linalg.qr(np.eye(n)[:, 1:] - np.ones((n, n - 1)) / n)
    restricted = np.linalg.eigvalsh(Q.T @ H @ Q)
    h_tol = tol_zero * max(1.0, float(np.abs(hessian_eigs).max()))
    if np.any(np.abs(restricted) < h_tol):
        extremal = "degenerate"
    elif np.all(restricted > 0):
        extremal = "minimum"
    elif np.all(restricted < 0):
        extremal = "maximum"
    else:
        extremal = "saddle"
    return StabilityReport(
        hessian_eigs=tuple(float(x) for x in hessian_eigs),
        weighted_eigs=tuple(complex(z) for z in weighted),
        zero_count=zero_count, verdict=verdict, extremal_type=extremal,
        index=sum(e < 0 for e in sorted(hessian_eigs.tolist(), key=abs)[1:]),
        gradient_norm=gnorm)


def reference_batched_polish(seeds, w, tol_grad, max_iter=50):
    """The batched Newton polish with three full tables per iterate: the
    gradient and Hessian at x, and the gradient at each unwrapped trial."""
    from vortexre.search import _newton_steps

    def gauged(x):
        return np.concatenate((np.zeros((len(x), 1)), x), axis=1)

    x = np.array(seeds, dtype=float)
    converged = np.zeros(len(x), dtype=bool)
    collided = np.zeros(len(x), dtype=bool)
    rows = np.arange(len(x))
    for _ in range(max_iter):
        if not len(rows):
            break
        full = gauged(x[rows])
        g = reference_potential_gradient(full, w)[:, 1:]
        hit = np.isnan(g[:, 0])
        collided[rows[hit]] = True
        gnorm = np.abs(g).max(axis=1)
        converged[rows[gnorm < tol_grad]] = True
        go = ~hit & (gnorm != 0.0)
        rows, full, g, gnorm = rows[go], full[go], g[go], gnorm[go]
        H = reference_potential_hessian(full, w)[:, 1:, 1:]
        step = _newton_steps(H, -g)
        go = np.isfinite(step).all(axis=1)
        rows, step, gnorm = rows[go], step[go], gnorm[go]
        scale = np.ones(len(rows))
        pending = np.ones(len(rows), dtype=bool)
        for _ in range(12):
            idx = np.flatnonzero(pending)
            if not len(idx):
                break
            trial = x[rows[idx]] + scale[idx, None] * step[idx]
            trial_norm = np.abs(
                reference_potential_gradient(gauged(trial), w)[:, 1:]).max(axis=1)
            better = trial_norm < gnorm[idx]
            x[rows[idx[better]]] = trial[better] % _TWO_PI
            pending[idx[better]] = False
            scale[idx[~better]] *= 0.5
        rows = rows[~pending]
    return x % _TWO_PI, converged & ~collided


def reference_wrapped_polish(seeds, w, tol_grad, max_iter=50):
    """The batched Newton polish one row at a time, evaluating every trial:
    the full step and then each of up to 11 halvings, each trial wrapped
    modulo 2*pi before its gradient is taken, as the search takes them.
    Built on the public kernels, one configuration per call."""
    from vortexre.potential import potential_gradient, potential_hessian
    from vortexre.search import _newton_steps

    def full(x):  # a batch of one, so a collision gives NaN, not an error
        return np.concatenate(([0.0], x))[None]

    def gradient(x):
        return potential_gradient(full(x), w)[0, 1:]

    out = np.array(seeds, dtype=float)
    ok = np.zeros(len(out), dtype=bool)
    for k, x in enumerate(out):
        g = gradient(x)
        if np.isnan(g[0]):
            continue
        converged = False
        for _ in range(max_iter):
            gnorm = np.abs(g).max()
            converged |= bool(gnorm < tol_grad)
            if gnorm == 0.0:
                break
            H = potential_hessian(full(x), w)[:, 1:, 1:]
            step = _newton_steps(H, -g[None])[0]
            if not np.isfinite(step).all():
                break
            for scale in 0.5 ** np.arange(12):
                trial = (x + scale * step) % _TWO_PI
                trial_g = gradient(trial)
                if np.abs(trial_g).max() < gnorm:
                    x, g = trial, trial_g
                    break
            else:
                break
        out[k], ok[k] = x, converged
    return out % _TWO_PI, ok


# -- reference search: one seed at a time, permutation-orbit families --------
#
# The search as it was first written: Newton polishes each lattice seed
# alone, dedup scans every kept point in order, and families compare each
# founder's images under all N! weight-preserving relabelings.  Quadratic
# or factorial, but plain enough to check the batched, hashed search
# against byte for byte.

_TWO_PI = 2.0 * np.pi
_FIRST_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def reference_lattice_seeds(dim, count):
    alpha = np.array([np.sqrt(p) % 1.0 for p in _FIRST_PRIMES[:dim]])
    k = np.arange(1, count + 1)[:, None]
    return (k * alpha % 1.0) * _TWO_PI


def reference_rotation_distances(images, b):
    """min over rotations of the infinity-norm angle distance from each
    row of images to b."""
    images = np.atleast_2d(np.asarray(images, dtype=float))
    b = np.asarray(b, dtype=float)
    best = np.full(len(images), np.inf)
    for i in range(images.shape[1]):
        c = b[i] - images[:, i]
        d = (images - b + c[:, None] + np.pi) % _TWO_PI - np.pi
        best = np.minimum(best, np.abs(d).max(axis=1))
    return best


def reference_newton_polish(x0, w, tol_grad, max_iter=50):
    """Newton on the reduced gradient of one seed; None on failure."""
    from vortexre.errors import CollisionError
    from vortexre.potential import potential_gradient, potential_hessian

    x = np.array(x0, dtype=float)
    converged = False
    for _ in range(max_iter):
        full = np.concatenate(([0.0], x))
        try:
            g = potential_gradient(full, w)[1:]
            H = potential_hessian(full, w)[1:, 1:]
        except CollisionError:
            return None
        gnorm = np.abs(g).max()
        if gnorm < tol_grad:
            converged = True
            if gnorm == 0.0:
                break
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(H, -g, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        scale = 1.0
        for _ in range(12):
            trial = x + scale * step
            try:
                trial_norm = np.abs(
                    potential_gradient(np.concatenate(([0.0], trial)), w)[1:]).max()
            except CollisionError:
                trial_norm = np.inf
            if trial_norm < gnorm:
                break
            scale *= 0.5
        else:
            break
        x = trial % _TWO_PI
    return x % _TWO_PI if converged else None


def reference_dedup(points, tol):
    """Merge in order into the first kept point within tol in rotation
    distance, keeping the lexicographically smaller of the two."""
    found = []
    for x in points:
        for k, y in enumerate(found):
            d = reference_rotation_distances(np.concatenate(([0.0], x)),
                                             np.concatenate(([0.0], y)))[0]
            if d < tol:
                if tuple(x) < tuple(y):
                    found[k] = x
                break
        else:
            found.append(x)
    return found


def reference_find_all_critical_points(mu, seeds, tol_grad=1e-10, dedup_tol=1e-6,
                                       tol_zero=1e-8, seed_gap=0.05):
    from vortexre.errors import NotACriticalPointError
    from vortexre.potential import CirculationWeights, classify
    from vortexre.search import CriticalPointSet

    w = CirculationWeights(tuple(mu))
    polished = []
    for seed in reference_lattice_seeds(len(w) - 1, seeds):
        full = np.concatenate(([0.0], seed))
        gaps = np.abs((full[:, None] - full[None, :] + np.pi) % _TWO_PI - np.pi)
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() < seed_gap:
            continue
        x = reference_newton_polish(seed, w.array, tol_grad)
        if x is not None:
            polished.append(x)
    rows, reports = [], []
    for x in sorted(reference_dedup(polished, dedup_tol), key=tuple):
        theta = (0.0,) + tuple(map(float, x))
        try:
            reports.append(classify(theta, w, tol_grad=10.0 * tol_grad, tol_zero=tol_zero))
        except NotACriticalPointError:
            continue
        rows.append(theta)
    return CriticalPointSet(theta=np.array(rows).reshape(len(rows), len(w)),
                            reports=tuple(reports), mu=w)


def reference_group_into_families(point_set, family_tol=1e-6):
    """Each unassigned point founds a family and takes in every later
    unassigned point that one of its images under a weight-preserving
    relabeling, optionally reflected, matches up to rotation."""
    mu = point_set.mu.mu
    n = len(mu)
    perms = [perm for perm in itertools.permutations(range(n))
             if all(mu[perm[i]] == mu[i] for i in range(n))]
    configs = list(point_set.theta)
    family_of = [None] * len(configs)
    families = []
    for i, theta in enumerate(configs):
        if family_of[i] is not None:
            continue
        images = []
        for perm in perms:
            relabeled = theta[list(perm)]
            for sign in (1.0, -1.0):
                img = (sign * (relabeled - relabeled[0])) % _TWO_PI
                img[0] = 0.0
                images.append(img)
        family_of[i] = len(families)
        members = [i]
        for j in range(i + 1, len(configs)):
            if family_of[j] is None and \
                    reference_rotation_distances(images, configs[j]).min() < family_tol:
                family_of[j] = len(families)
                members.append(j)
        families.append(tuple(members))
    return families


# -- the hashed dedup and the per-row family keys, as the search had them ----
#
# The search's catalogue stages before they took clusters and keys from
# whole-batch passes, kept verbatim: the scan meets every distinct row, and
# each row's keys are built from Python lists.  The search must give what
# these give, bit for bit.

def reference_aligned_within(a, b, tol):
    """True when, for some rotation c = b_i - a_i, which aligns vortex i,
    every difference a_j - b_j + c wrapped into [-pi, pi) is within tol.
    Trying only the aligning rotations tests an upper bound of the
    rotation distance d, at most 2d, as the best rotation is within d of
    each aligning one: points with d < tol/2 always pass, but (0, 1, 2)
    and (0, 1, 2.5), with d = 0.25, fail at tol 0.4999.  The angles are
    finite Python floats; the scan stops at the first such c."""
    return any(all(abs((aj - bj + c + math.pi) % _TWO_PI - math.pi) < tol
                   for aj, bj in zip(a, b))
               for c in (bi - ai for ai, bi in zip(a, b)))


def reference_cell_dedup(points, tol):
    """Merge points that `reference_aligned_within` finds within tol of
    each other up to rotation; the kept points as lists of Python floats.

    Equal rows are collapsed to their first occurrence first: a stable
    lexsort on the angle columns makes equal rows neighbours, and a row
    that differs from the one before it in some angle starts a new group
    (float equality, as np.unique(axis=0) has it: -0.0 equals 0.0 and a
    row holding NaN is never equal).  The first rows of the groups are
    taken in their original order.  Each one merges into the first kept
    point within tol, which is replaced when the newcomer is
    lexicographically smaller; otherwise it is kept.  Kept points sit in
    a hash of cells on the gauge-fixed torus, and a lookup probes every
    cell within 2.5 tol of the point on each angle, wrapping modulo 2*pi,
    so it finds every point `reference_aligned_within` would merge: with
    theta_1 = 0 for both, the aligning rotation c that passes has |c| < tol
    (vortex 1's difference), so every angle differs by less than
    |c| + tol < 2 tol, and the other tol/2 is a margin for rounding.  The
    cells are computed for the whole batch; the scan runs on Python
    floats (see `reference_aligned_within`).
    """
    order = np.lexsort(points.T[::-1])
    ranked = points[order]
    first = np.ones(len(points), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    points = points[np.sort(order[first])]
    cells = max(1, int(_TWO_PI / (16.0 * tol)))  # per angle
    width = _TWO_PI / cells
    reach = 2.5 * tol
    full, keys = [], []  # kept points with theta_1 = 0 prepended, their cells
    bucket = {}
    for x, cell, lo, hi in zip(points.tolist(),
                               (np.floor(points / width) % cells).astype(np.int64).tolist(),
                               np.floor((points - reach) / width).astype(np.int64).tolist(),
                               np.floor((points + reach) / width).astype(np.int64).tolist()):
        cell = tuple(cell)
        near = sorted({k for probe in itertools.product(*map(range, lo, [h + 1 for h in hi]))
                       for k in bucket.get(tuple(c % cells for c in probe), ())})
        fx = [0.0] + x
        k = next((k for k in near if reference_aligned_within(fx, full[k], tol)), None)
        if k is not None:
            if fx >= full[k]:
                continue
            bucket[keys[k]].remove(k)
            full[k], keys[k] = fx, cell
        else:
            k = len(full)
            full.append(fx)
            keys.append(cell)
        bucket.setdefault(cell, []).append(k)
    return [fx[1:] for fx in full]


def reference_family_keys(theta, mu, tol):
    """Canonical keys of weighted configurations on the circle, one set
    per row of the (K, N) angle array theta.

    The key is the cyclic sequence of (weight, gap) in circle order, with
    gaps in whole units of tol, least over the N rotations of the
    sequence and of its reflection (the least circular shift, Booth
    1980).  It is the same for every image under relabeling of equal
    weights, reflection and rotation.  A gap near a rounding boundary is
    rounded both ways, so each row gets a set of keys: configurations
    whose sets meet are images of each other.  The circle order, the gaps
    and their rounding are computed for the whole batch; each row's keys
    are built from Python lists.
    """
    from vortexre.search import _ROUNDING_MARGIN as rounding_margin

    theta = np.asarray(theta, dtype=float) % _TWO_PI
    order = np.argsort(theta, axis=1, kind="stable")
    ranked = np.take_along_axis(theta, order, axis=1)
    q = np.diff(ranked, axis=1, append=ranked[:, :1] + _TWO_PI) / tol
    nearest = np.rint(q)
    off = q - nearest
    twice = np.abs(off) > 0.5 - rounding_margin
    n = theta.shape[1]
    out = []
    for row, near, other, both in zip(order.tolist(),
                                      nearest.astype(np.int64).tolist(),
                                      (nearest + np.sign(off)).astype(np.int64).tolist(),
                                      twice.tolist()):
        weights = [mu[i] for i in row]
        choices = [(r, o) if b else (r,) for r, o, b in zip(near, other, both)]
        keys = set()
        for gaps in itertools.product(*choices):
            seq = list(zip(weights, gaps))
            # reflected, circle order reverses and each vortex takes the gap before it
            mirror = [(weights[n - 1 - k], gaps[(n - 2 - k) % n]) for k in range(n)]
            keys.add(min(tuple(s[k:] + s[:k]) for s in (seq, mirror) for k in range(n)))
        out.append(keys)
    return out


def reference_symmetry_axes(theta, mu=None, tol=1e-8):
    """Axes i whose reflection theta_j -> 2 theta_i - theta_j gives each
    vortex j in turn the first unused vortex of equal weight within tol
    of its image, one point at a time."""
    theta = np.asarray(theta, dtype=float)
    n = len(theta)
    mu = tuple(mu) if mu is not None else (1.0,) * n
    axes = []
    for i in range(n):
        reflected = (2.0 * theta[i] - theta) % _TWO_PI
        used = set()
        for j in range(n):
            match = next((k for k in range(n) if k not in used and mu[k] == mu[j]
                          and abs((reflected[j] - theta[k] + np.pi) % _TWO_PI - np.pi) < tol),
                         None)
            if match is None:
                break
            used.add(match)
        else:
            axes.append(i)
    return tuple(axes)


def reference_half_angle_coordinates(theta):
    """Cotangent coordinates r_i = cot(theta_i / 2), i = 2..N, of angles
    with theta_1 = 0: the inverse of vortexre.halfangle.back_transform."""
    return tuple(math.cos(t / 2.0) / math.sin(t / 2.0) for t in theta[1:])


# -- rotating-frame residual and Jacobian, one vortex pair at a time -----------
#
# The hand-expanded formulas the library used before it took both from the
# field of the full (N+1)-vortex system.  Loops over pairs, 2x2 blocks
# written out, no shared code with vortexre.dynamics.

_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _ref_kernel(v):
    """Derivative of v / |v|^2:  (I |v|^2 - 2 v v^T) / |v|^4."""
    n2 = v @ v
    return (np.eye(2) * n2 - 2.0 * np.outer(v, v)) / n2 ** 2


def reference_re_residual(z, mu, eps):
    """Row i: -J z_i + (1 + eps*mu_i) J z_i/|z_i|^2
    + eps * sum_{j != i} mu_j (J z_j/|z_j|^2 + J(z_i - z_j)/|z_i - z_j|^2)."""
    z = np.asarray(z, dtype=float)
    mu = np.asarray(mu, dtype=float)
    n = len(z)
    unit = z / (z ** 2).sum(axis=1)[:, None]
    out = -z + (1.0 + eps * mu)[:, None] * unit
    for i in range(n):
        acc = np.zeros(2)
        for j in range(n):
            if j != i:
                d = z[i] - z[j]
                acc += mu[j] * (unit[j] + d / (d @ d))
        out[i] += eps * acc
    return (out @ _J2.T).ravel()


def reference_re_jacobian(z, mu, eps):
    """d reference_re_residual / d z, flattened (2N, 2N)."""
    z = np.asarray(z, dtype=float)
    mu = np.asarray(mu, dtype=float)
    n = len(z)
    A = np.zeros((2 * n, 2 * n))
    for i in range(n):
        diag = -np.eye(2) + (1.0 + eps * mu[i]) * _ref_kernel(z[i])
        for j in range(n):
            if j == i:
                continue
            kd = _ref_kernel(z[i] - z[j])
            diag += eps * mu[j] * kd
            A[2 * i:2 * i + 2, 2 * j:2 * j + 2] = _J2 @ (eps * mu[j] * (_ref_kernel(z[j]) - kd))
        A[2 * i:2 * i + 2, 2 * i:2 * i + 2] = _J2 @ diag
    return A


# -- the least-squares Newton iteration, the oracle of the bordered one ------

def reference_lstsq_newton(Z, epsilon, mu, buffers=None, tol=1e-12, wary=False):
    """vortexre.dynamics._newton as it was before each step solved a square
    bordered system: from the guess as given, each step solves the 2N
    residual rows and the gauge row y_1 = 0 by lstsq at rcond 1e-10.  It
    takes _newton's arguments and ignores its buffers and wary, since it
    has no probe to give up on, so a walk can run on it in _newton's place,
    and returns new arrays Z, residual and Jacobian."""
    from vortexre.dynamics import HelioConfig, re_jacobian, re_residual
    from vortexre.errors import ConvergenceError

    z = np.array(Z, dtype=float)
    gauge_row = np.zeros((1, z.size))
    gauge_row[0, 1] = 1.0
    for _ in range(51):
        config = HelioConfig(z, epsilon, mu)  # raises CollisionError
        res, jacobian = re_residual(config), re_jacobian(config)
        if max(np.abs(res).max(), abs(z[0, 1])) < tol:
            return z, res, jacobian
        aug, rhs = np.vstack([jacobian, gauge_row]), -np.append(res, z[0, 1])
        step = np.linalg.lstsq(aug, rhs, rcond=1e-10)[0]
        if not np.isfinite(step).all():
            raise ConvergenceError("Newton step is not finite")
        z = z + step.reshape(-1, 2)
    HelioConfig(z, epsilon, mu)
    raise ConvergenceError(f"no convergence to {tol} within 50 iterations")


# -- the walk from the solution before, the oracle of the extrapolated one --

def reference_previous_guess_walk(current, schedule, tol):
    """vortexre.dynamics._walk as it was before each step started from an
    extrapolation: each Newton solve starts from the solution before it,
    the first from the eps = 0 start.  It takes _walk's arguments, so a
    continuation can run on it in _walk's place, and looks up
    dynamics._newton at each step, so a test may replace that too."""
    from vortexre import dynamics
    from vortexre.dynamics import ContinuationTrace, HelioConfig
    from vortexre.errors import CirculationError, CollisionError, ConvergenceError

    weights, mu = current.mu, current.mu.array
    buffers = dynamics._newton_buffers(len(mu))
    solved, residuals, jacobians = [], [], []
    failure = None
    for eps in schedule:
        try:
            dynamics._total_circulation(eps * mu)
            z, res, jacobian = dynamics._newton(current.Z, eps, weights, buffers, tol)
        except (CirculationError, ConvergenceError, CollisionError) as exc:
            failure = f"eps={eps:.6g}: {exc}"
            break
        current = HelioConfig(z, eps, weights)
        solved.append(current)
        residuals.append(float(np.abs(res).max()))
        jacobians.append(np.array(jacobian))
    epsilon = np.array([config.epsilon for config in solved], dtype=float)
    Z = np.array([config.Z for config in solved]).reshape(len(solved), len(mu), 2)
    Z.flags.writeable = False
    reports = (dynamics._stability(Z, epsilon, weights, np.array(jacobians))
               if solved else [])
    return ContinuationTrace(weights, epsilon, Z, np.array(residuals, dtype=float),
                             tuple(report.verdict for report in reports), failure)


def row_config(trace, k):
    """The checked configuration of row k of a continuation trace."""
    from vortexre.dynamics import HelioConfig

    return HelioConfig(trace.Z[k], float(trace.epsilon[k]), trace.mu)


def row_configs(trace):
    """row_config of every row of a continuation trace."""
    return [row_config(trace, k) for k in range(len(trace))]


# Saddles of two weight vectors that sum to zero, as `find` reports them.
ZERO_SUM_SADDLES = [
    ((-4, 11, -7), (0.0, 0.8405045016914133, 4.273118733325888)),
    ((1, -12, 11), (0.0, 2.520526368993409, 1.498321957599876)),
]


# -- scipy's null space, the oracle of the stability reduction ---------------

def reference_null_space(M):
    """scipy.linalg.null_space(M): same rank rule, independent SVD wrapper."""
    from scipy.linalg import null_space

    return null_space(M)


def reference_full_system_stability(config, tol=1e-6):
    """Verdict and sorted spectrum of the rotating-frame linearization, one
    configuration at a time: scipy's null space of the two constraint rows
    (rotation and scaling, through the symplectic form kron(S, -J)), the
    spectrum of Q^T A Q, and the cluster semisimplicity check by SVD."""
    from vortexre.dynamics import re_jacobian

    if config.epsilon == 0.0:
        raise ValueError("full-system stability needs epsilon > 0")
    A = re_jacobian(config)
    gamma = config.epsilon * config.mu.array
    S = np.diag(gamma) - np.outer(gamma, gamma) / (1.0 + gamma.sum())
    B = np.kron(S, -_J2)
    constraints = np.vstack([(config.Z @ _J2.T).ravel() @ B, config.Z.ravel() @ B])
    Q = reference_null_space(constraints)
    reduced = Q.T @ A @ Q
    eigvals = np.linalg.eigvals(reduced)
    cut = tol * max(1.0, float(np.abs(eigvals).max(initial=0.0)))
    max_real = float(np.abs(eigvals.real).max(initial=0.0))
    semisimple = True
    checked = np.zeros(len(eigvals), dtype=bool)
    for i, lam in enumerate(eigvals):
        if checked[i] or lam.imag < -cut:
            continue
        cluster = np.abs(eigvals - lam) <= cut
        checked |= cluster
        k = int(cluster.sum())
        if k > 1:
            sv = np.linalg.svd(reduced - lam * np.eye(len(eigvals)), compute_uv=False)
            if np.count_nonzero(sv <= cut) < k:
                semisimple = False
                break
    verdict = "stable" if (max_real <= cut and semisimple) else "unstable"
    order = np.lexsort((eigvals.real, eigvals.imag))
    return verdict, tuple(complex(v) for v in eigvals[order])


def reference_stability_reports(Z, epsilon, mu, jacobians):
    """vortexre.dynamics._stability as it was before it took the verdicts'
    inputs in whole-stack passes: the same reduction and eigvals call per
    constraint rank, then each record's cut, largest |Re lambda|, cluster
    check and order one record at a time."""
    from vortexre import dynamics

    B = dynamics._symplectic_form(epsilon, mu)
    rows = [v.reshape(len(Z), 1, -1) @ B for v in (dynamics._perp(Z), Z)]
    reports = [None] * len(Z)
    for records, Q in dynamics._null_space(np.concatenate(rows, axis=1)):
        reduced = Q.transpose(0, 2, 1) @ jacobians[records] @ Q
        for k, A, eigvals in zip(records, reduced, np.linalg.eigvals(reduced)):
            if not eigvals.imag.any():  # eigvals of A alone would be real
                eigvals = eigvals.real
            cut = dynamics._CLUSTER * max(1.0, float(np.abs(eigvals).max(initial=0.0)))
            max_real = float(np.abs(eigvals.real).max(initial=0.0))
            stable = max_real <= cut and dynamics._semisimple(A, eigvals, cut)
            order = np.lexsort((eigvals.real, eigvals.imag))
            reports[k] = dynamics.FullStabilityReport(
                eigenvalues=tuple(complex(v) for v in eigvals[order]),
                verdict="stable" if stable else "unstable", max_real_part=max_real)
    return reports



# -- the per-record trace export, the oracle of the batched one -------------

def _reference_configuration_dict(config):
    """HelioConfig.to_dict as the library wrote it before a trace exported
    the angles, radii and z0 of all its rows at once."""
    Z, gamma = config.Z, config.epsilon * config.mu.array
    angles = np.arctan2(Z[:, 1], Z[:, 0]) % (2.0 * math.pi)
    angles[angles > 2.0 * math.pi - 1e-12] = 0.0
    z0 = -(gamma[:, None] * Z).sum(axis=0) / (1.0 + gamma.sum(axis=-1))
    return {
        "angles": [float(a) for a in angles],
        "radii": [float(r) for r in np.hypot(Z[:, 0], Z[:, 1])],
        "mu": list(config.mu.mu),
        "epsilon": float(config.epsilon),
        "omega": 1.0,
        "z0": [float(c) for c in z0],
    }


def reference_trace_dict(trace):
    """ContinuationTrace.to_dict, one row's checked configuration at a time."""
    return {
        "mu": list(trace.mu.mu),
        "failure": trace.failure,
        "records": [
            {"epsilon": config.epsilon, "residual": float(trace.residual[k]),
             "verdict": trace.verdict[k], **_reference_configuration_dict(config)}
            for k, config in enumerate(row_configs(trace))
        ],
    }


def reference_csv_rows(trace):
    """The rows cli._continue_rows makes of a trace's payload, one row's
    checked configuration at a time."""
    n = len(trace.mu)
    rows = [["eps"] + [f"r{i+1}" for i in range(n)]
            + [f"theta{i+1}" for i in range(n)] + ["residual", "verdict"]]
    for k, config in enumerate(row_configs(trace)):
        record = _reference_configuration_dict(config)
        rows.append([f"{config.epsilon:.10g}"]
                    + [f"{r:.12f}" for r in record["radii"]]
                    + [f"{t:.12f}" for t in record["angles"]]
                    + [f"{trace.residual[k]:.3e}", trace.verdict[k]])
    return rows

# -- the field formula, and scipy's RK45, the oracles of the integrator -----

def reference_vortex_field(q, g):
    """vortex_field as the library computed it before it kept one buffered
    field kernel per run: a fresh pair table, weights with a zeroed
    diagonal, and the +90 degree rotation as a product with _J2.T."""
    from vortexre.errors import CollisionError

    q, g = np.asarray(q, dtype=float), np.asarray(g, dtype=float)
    diff = q[:, None, :] - q[None, :, :]
    dist2 = (diff ** 2).sum(axis=2)
    dist2.flat[::len(q) + 1] = 1.0
    if not dist2.min(initial=math.inf) > 1e-12 ** 2:  # a collision, or a NaN
        close = np.argwhere(dist2 <= 1e-12 ** 2)
        if len(close):
            i, j = close[0]
            raise CollisionError(f"vortices {i} and {j} coincide")
    weights = g[None, :] / dist2
    weights.flat[::len(g) + 1] = 0.0
    return np.asarray((weights[:, :, None] * diff).sum(axis=1), dtype=float) @ _J2.T


def reference_integrate(q, g, t_final, tol):
    """integrate_vortices through scipy's solve_ivp(method="RK45") and
    reference_vortex_field, as the library integrated before it had its own
    Dormand-Prince loop."""
    from scipy.integrate import solve_ivp

    from vortexre.errors import ConvergenceError

    g = np.asarray(g, dtype=float)
    n = len(g)

    def rhs(_, y):
        return reference_vortex_field(y.reshape(n, 2), g).ravel()

    sol = solve_ivp(rhs, (0.0, t_final), np.asarray(q, dtype=float).ravel(),
                    method="RK45", rtol=tol, atol=tol)
    if not sol.success:
        raise ConvergenceError(f"integration failed: {sol.message}")
    return sol.t, sol.y.T.reshape(len(sol.t), n, 2)


# -- Groebner oracle --------------------------------------------------------

def reference_key(order, e):
    """The order key written out from the definitions, never cached."""
    kind, block = order

    def grevlex(part):
        return (sum(part), [-x for x in reversed(part)])

    if kind == "lex":
        return list(e)
    if kind == "degrevlex":
        return grevlex(e)
    return (grevlex(e[:block]), grevlex(e[block:]))


def reference_leading_monomial(terms, order):
    return max(terms, key=lambda m: reference_key(order, m))


def reference_normal_form(p, divisors):
    """Remainder of p on division by the divisors over Q, the textbook way:
    the leading term of what is left is cancelled by the first divisor
    whose leading monomial divides it, or else moved to the remainder."""
    order = p.ring.order
    leads = [(reference_leading_monomial(d, order), d) for d in map(exponent_terms, divisors)]
    work, remainder = exponent_terms(p), {}
    while work:
        m = reference_leading_monomial(work, order)
        for lm, d in leads:
            if reference_divides(lm, m):
                q = work[m] / d[lm]
                for dm, c in d.items():
                    key = reference_product(dm, reference_quotient(m, lm))
                    value = work.get(key, 0) - q * c
                    if value:
                        work[key] = value
                    else:
                        del work[key]
                break
        else:
            remainder[m] = work.pop(m)
    return from_exponent_terms(p.ring, remainder)


def reference_s_polynomial(f, g):
    """lcm/LT(f) * f - lcm/LT(g) * g, the leading terms cancelled over Q."""
    ring, out = f.ring, {}
    ft, gt = exponent_terms(f), exponent_terms(g)
    lf = reference_leading_monomial(ft, ring.order)
    lg = reference_leading_monomial(gt, ring.order)
    lcm = reference_lcm(lf, lg)
    for t, lm, sign in ((ft, lf, 1), (gt, lg, -1)):
        shift = reference_quotient(lcm, lm)
        for m, c in t.items():
            key = reference_product(m, shift)
            out[key] = out.get(key, 0) + sign * c / t[lm]
    return from_exponent_terms(ring, out)


def is_groebner_basis(polys):
    """Buchberger's criterion: every S-polynomial reduces to zero."""
    polys = list(polys)
    return all(reference_normal_form(reference_s_polynomial(polys[i], polys[j]),
                                     polys).is_zero()
               for j in range(len(polys)) for i in range(j))


def reference_buchberger(generators):
    """Reduced Groebner basis by Buchberger's algorithm with no pair
    criterion: every S-pair is reduced, in normal selection order."""
    generators = [g for g in generators if not g.is_zero()]
    ring = generators[0].ring
    exponents, pack = ring.packing.exponents, ring.packing.pack
    basis = groebner._divisors(generators)

    def lcm(ij):
        return reference_lcm(exponents(basis[ij[0]][0]), exponents(basis[ij[1]][0]))

    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}
    while pairs:
        i, j = min(pairs, key=lambda ij: (reference_key(ring.order, lcm(ij)), ij))
        pairs.discard((i, j))
        s = groebner._s_terms(basis[i], basis[j], pack(lcm((i, j))))
        r, _ = _kernels.reduce_integer(s, basis, ring.packing)
        if r:
            basis.append(_kernels.primitive(r)[:2])
            pairs.update((i2, len(basis) - 1) for i2 in range(len(basis) - 1))
    return groebner._reduced_basis(basis, ring)


# -- reference trace form ---------------------------------------------------
# The straightforward trace-form engine: every trace Tr(M_m) reduces each
# product m*b anew, and the signature comes from Fraction row and
# column operations.  Slow, but with no shortcut to get wrong.

def reference_trace_monomial(m, gb, basis, cache):
    """Tr(M_m) for an exponent tuple m: the normal form of m*b, reduced
    anew, for every monomial b of the (packed) quotient basis."""
    total = Fraction(0)
    for b in map(gb.ring.packing.exponents, basis):
        mb = reference_product(m, b)
        nf = cache.get(mb)
        if nf is None:
            nf = reference_normal_form(gb.ring.monomial(mb), gb.polys)
            nf = cache[mb] = exponent_terms(nf)
        total += nf.get(b, 0)
    return total


def reference_hermite_matrix(gb, basis):
    """H[i][j] = Tr(M_{b_i b_j}) as rows of Fractions."""
    cache, exponents = {}, [gb.ring.packing.exponents(b) for b in basis]
    return [[reference_trace_monomial(reference_product(a, b), gb, basis, cache)
             for b in exponents] for a in exponents]


def _swap_cr(B, i, j):
    B[i], B[j] = B[j], B[i]
    for row in B:
        row[i], row[j] = row[j], row[i]


def _sumdiff_cr(B, i, j):
    """Congruence sending (row/col i, row/col j) to (i+j, j-i)."""
    for row in B:
        row[i], row[j] = row[i] + row[j], row[j] - row[i]
    B[i], B[j] = (
        [a + b for a, b in zip(B[i], B[j])],
        [b - a for a, b in zip(B[i], B[j])],
    )


def _clear_cr(B, i):
    n = len(B)
    d = B[i][i]
    for j in range(i + 1, n):
        f = B[j][i] / d
        if f:
            B[j] = [a - f * b for a, b in zip(B[j], B[i])]
    for j in range(i + 1, n):
        f = B[i][j] / d
        if f:
            for k in range(n):
                B[k][j] = B[k][j] - f * B[k][i]


def reference_signature_and_rank(entries):
    """(signature, rank) of a symmetric rational matrix by Fraction congruence."""
    B = [[Fraction(c) for c in row] for row in entries]
    n = len(B)
    for i in range(n):
        if not B[i][i]:
            for j in range(i + 1, n):
                if B[j][j]:
                    _swap_cr(B, i, j)
                    break
        if not B[i][i]:
            for j in range(i + 1, n):
                if B[i][j]:
                    _sumdiff_cr(B, i, j)
                    break
        if B[i][i]:
            _clear_cr(B, i)
    pos = sum(1 for i in range(n) if B[i][i] > 0)
    neg = sum(1 for i in range(n) if B[i][i] < 0)
    return pos - neg, pos + neg


# -- misc ---------------------------------------------------------------------

def central_difference(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (f(xp) - f(xm)) / (2 * h)
    return out


def random_multipoly(ring, rng, max_terms=6, max_deg=4, coeff_span=9):
    n = len(ring.variables)
    p = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(n))
        c = rng.randint(-coeff_span, coeff_span)
        if c:
            p = _kernels.terms_add(p, {ring.packing.pack(e): Fraction(c)})
    return MultiPoly(ring, p)


def seeded(seed):
    return random.Random(seed)


# -- the float reading of a weight list, the oracle of the CLI's exact reader --

def reference_weights_parse(text):
    """The weights `CirculationWeights.parse` read from a comma-separated
    list like '2,-1,3' or '1/2,1,1', before the CLI read every number list
    exactly; the body is that method's, returning the floats it validated."""
    parts = [p.strip() for p in text.split(",")]
    if not all(parts):
        raise ValueError(f"empty entry in weight list {text!r}")
    values = []
    for p in parts:
        if "/" in p:
            num, den = map(float, p.split("/", 1))
            if den == 0.0:
                raise ValueError(f"zero denominator in {p!r}")
            values.append(num / den)
        else:
            values.append(float(p))
    return tuple(values)
