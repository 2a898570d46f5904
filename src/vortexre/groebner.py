"""Buchberger's algorithm, polynomial reduction, and elimination ideals.

All arithmetic is exact over the rationals.  Polynomials come in and go
out with ``Fraction`` coefficients, but reduction and Buchberger run on
primitive integer term maps (``_kernels.reduce_integer``) and turn back
into ``Fraction`` only at the end.  A polynomial's ring holds its
monomial order, and every function here works under that order:
polynomials passed to one call must share one ring.  ``buchberger``
returns the unique reduced Groebner basis for the ring's order, so
golden tests can compare bases verbatim.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from vortexre import _kernels
from vortexre.polynomials import MonomialOrder, MultiPoly


class GroebnerBasis:
    """The reduced Groebner basis of an ideal, in one ring."""

    __slots__ = ("polys", "ring")

    def __init__(self, polys, ring):
        self.polys = tuple(polys)
        self.ring = ring
        ring.check(self.polys)

    @property
    def order(self):
        return self.ring.order

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __getitem__(self, i):
        return self.polys[i]

    def leading_monomials(self):
        return [g.leading_monomial() for g in self.polys]

    def normal_form(self, p):
        """Unique remainder of p modulo the basis, with p moved into the
        basis ring (same variables, the basis order)."""
        if p.ring.variables != self.ring.variables:
            raise ValueError("polynomial and basis have different variables")
        return normal_form(MultiPoly(self.ring, p.terms), self.polys)

    def __repr__(self):
        return f"GroebnerBasis({len(self.polys)} polys, {self.order!r})"


def normal_form(p, divisors):
    """Remainder of p on division by the divisors, tried in list order."""
    ring = p.ring
    ring.check(divisors)
    if not p.terms:
        return p
    spec = ring.order.spec
    _, t, unit = _kernels.primitive(p.terms, spec)
    remainder, k = _kernels.reduce_integer(t, _divisors(divisors, spec), spec)
    num, den = unit.numerator, unit.denominator * k
    return MultiPoly(ring, {m: Fraction(c * num, den) for m, c in remainder.items()})


def s_polynomial(f, g):
    """S-polynomial: the leading terms of f and g cancelled against each other."""
    f.ring.check((g,))
    spec = f.ring.order.spec
    (lm_f, tf), (lm_g, tg) = _divisors((f, g), spec)
    scale = lcm(tf[lm_f], tg[lm_g])
    return MultiPoly(f.ring, {m: Fraction(c, scale)
                              for m, c in _s_terms((lm_f, tf), (lm_g, tg)).items()})


def _divisors(polys, spec):
    """(leading monomial, primitive integer term map) of each polynomial."""
    return [_kernels.primitive(p.terms, spec)[:2] for p in polys]


def _s_terms(f, g):
    """The S-polynomial of two integer divisors, scaled by the lcm of
    their leading coefficients so that it stays integral."""
    (lm_f, tf), (lm_g, tg) = f, g
    lc_f, lc_g = tf[lm_f], tg[lm_g]
    h = gcd(lc_f, lc_g)
    lcm_fg = _kernels.monomial_lcm(lm_f, lm_g)
    s = {}
    _kernels.terms_iadd_scaled(s, tf, lc_g // h, _kernels.monomial_div(lcm_fg, lm_f))
    _kernels.terms_iadd_scaled(s, tg, -(lc_f // h), _kernels.monomial_div(lcm_fg, lm_g))
    return s


def buchberger(generators):
    """Reduced Groebner basis of the ideal generated by `generators`.

    Classic Buchberger with normal pair selection (smallest lcm in the
    monomial order first) and Buchberger's two criteria, followed by
    auto-reduction to the unique reduced basis.  A pair (i, j) is
    skipped without reduction when its leading monomials are coprime,
    or by the chain criterion: some other element k has lm_k dividing
    lcm(lm_i, lm_j), and neither (i, k) nor (j, k) is still pending
    (Cox, Little and O'Shea, ch. 2 section 10).  The basis is held as
    primitive integer term maps with positive leading coefficients;
    each is a positive multiple of the monic element that division
    over Q would give, so only the result is made monic.
    """
    generators = [g for g in generators if not g.is_zero()]
    if not generators:
        raise ValueError("no nonzero generators")
    ring = generators[0].ring
    ring.check(generators)
    spec = ring.order.spec
    basis = _divisors(generators, spec)

    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}
    while pairs:
        best = None
        best_key = None
        for i, j in pairs:
            lcm_ij = _kernels.monomial_lcm(basis[i][0], basis[j][0])
            key = (_kernels.order_key(spec, lcm_ij), i, j)
            if best is None or key < best_key:
                best = (i, j)
                best_key = key
        pairs.discard(best)
        i, j = best
        mi, mj = basis[i][0], basis[j][0]
        lcm_ij = _kernels.monomial_lcm(mi, mj)
        if lcm_ij == _kernels.monomial_mul(mi, mj):
            continue  # coprime leading monomials: S-poly reduces to zero
        if any(k != i and k != j and _kernels.monomial_divides(lm_k, lcm_ij)
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k, (lm_k, _) in enumerate(basis)):
            continue  # chain criterion: S(i, j) follows from S(i, k) and S(j, k)
        r, _ = _kernels.reduce_integer(_s_terms(basis[i], basis[j]), basis, spec)
        if r:
            basis.append(_kernels.primitive(r, spec)[:2])
            k = len(basis) - 1
            pairs.update((i2, k) for i2 in range(k))
    return _reduced_basis(basis, ring)


def _reduced_basis(basis, ring):
    spec = ring.order.spec
    # Minimalize: drop any element whose leading monomial another divides.
    by_lm = sorted(basis, key=lambda g: _kernels.order_key(spec, g[0]))
    minimal = []
    for g in by_lm:
        if not any(_kernels.monomial_divides(h[0], g[0]) for h in minimal):
            minimal.append(g)
    # Tail-reduce each element against the others until stable.
    changed = True
    while changed:
        changed = False
        for idx, g in enumerate(minimal):
            others = minimal[:idx] + minimal[idx + 1:]
            remainder, _ = _kernels.reduce_integer(g[1], others, spec)
            lm, t, _ = _kernels.primitive(remainder, spec)
            if t != g[1]:
                minimal[idx] = (lm, t)
                changed = True
    minimal.sort(key=lambda g: _kernels.order_key(spec, g[0]))
    return GroebnerBasis([MultiPoly(ring, {m: Fraction(c, t[lm]) for m, c in t.items()})
                          for lm, t in minimal], ring)


def elimination_ideal(generators, eliminate):
    """Groebner basis of the ideal's intersection with k[kept variables].

    Moves the generators into the ring's variables under a block
    elimination order with `eliminate` leading, computes a basis there,
    and keeps the elements free of eliminated variables.  The result
    lies in that elimination ring, even when it is empty.
    """
    generators = list(generators)
    ring = generators[0].ring
    ring.check(generators)
    eliminate = list(eliminate)
    elim_idx = [ring._index[name] for name in eliminate]
    if len(elim_idx) >= ring.nvars:
        raise ValueError("cannot eliminate every variable")
    keep_idx = [i for i in range(ring.nvars) if i not in set(elim_idx)]
    elim_ring = ring.with_order(
        MonomialOrder.elimination(len(elim_idx), priority=elim_idx + keep_idx))
    gb = buchberger([MultiPoly(elim_ring, g.terms) for g in generators])
    eliminated = set(eliminate)
    return GroebnerBasis([g for g in gb if not (g.variables_used() & eliminated)],
                         elim_ring)
