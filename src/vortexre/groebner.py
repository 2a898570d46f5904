"""Buchberger's algorithm, polynomial reduction, and elimination ideals.

All arithmetic is exact over the rationals.  A polynomial's ring holds
its monomial order, and every function here works under that order:
polynomials passed to one call must share one ring.  ``buchberger``
returns the unique reduced Groebner basis for the ring's order, so
golden tests can compare bases verbatim.
"""

from __future__ import annotations

from fractions import Fraction

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
    spec = ring.order.spec
    divs = []
    for d in divisors:
        lm = _kernels.leading_monomial(d.terms, spec)
        divs.append((lm, d.terms[lm], d.terms))
    work = dict(p.terms)
    remainder = {}
    while work:
        m = _kernels.leading_monomial(work, spec)
        c = work[m]
        for lm, lc, terms in divs:
            shift = _kernels.monomial_div(m, lm)
            if shift is not None:
                _kernels.terms_iadd_scaled(work, terms, -(c / lc), shift)
                break
        else:
            remainder[m] = c
            del work[m]
    return MultiPoly(ring, remainder)


def s_polynomial(f, g):
    """S-polynomial: the leading terms of f and g cancelled against each other."""
    f.ring.check((g,))
    spec = f.ring.order.spec
    lm_f = _kernels.leading_monomial(f.terms, spec)
    lm_g = _kernels.leading_monomial(g.terms, spec)
    lcm = _kernels.monomial_lcm(lm_f, lm_g)
    s = {}
    _kernels.terms_iadd_scaled(
        s, f.terms, Fraction(1) / f.terms[lm_f], _kernels.monomial_div(lcm, lm_f)
    )
    _kernels.terms_iadd_scaled(
        s, g.terms, Fraction(-1) / g.terms[lm_g], _kernels.monomial_div(lcm, lm_g)
    )
    return MultiPoly(f.ring, s)


def buchberger(generators):
    """Reduced Groebner basis of the ideal generated by `generators`.

    Classic Buchberger with normal pair selection (smallest lcm in the
    monomial order first) and the coprime-leading-monomial criterion,
    followed by auto-reduction to the unique reduced basis.
    """
    generators = [g for g in generators if not g.is_zero()]
    if not generators:
        raise ValueError("no nonzero generators")
    ring = generators[0].ring
    ring.check(generators)
    spec = ring.order.spec
    basis = [g.monic() for g in generators]

    def lm(i):
        return _kernels.leading_monomial(basis[i].terms, spec)

    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}
    while pairs:
        best = None
        best_key = None
        for i, j in pairs:
            key = (_kernels.order_key(spec, _kernels.monomial_lcm(lm(i), lm(j))), i, j)
            if best is None or key < best_key:
                best = (i, j)
                best_key = key
        pairs.discard(best)
        i, j = best
        mi, mj = lm(i), lm(j)
        if _kernels.monomial_lcm(mi, mj) == _kernels.monomial_mul(mi, mj):
            continue  # coprime leading monomials: S-poly reduces to zero
        r = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if not r.is_zero():
            basis.append(r.monic())
            k = len(basis) - 1
            pairs.update((i2, k) for i2 in range(k))
    return _reduced_basis(basis, ring)


def _reduced_basis(basis, ring):
    spec = ring.order.spec
    # Minimalize: drop any element whose leading monomial another divides.
    by_lm = sorted(basis, key=lambda g: _kernels.order_key(spec, g.leading_monomial()))
    minimal = []
    for g in by_lm:
        glm = g.leading_monomial()
        if not any(_kernels.monomial_divides(h.leading_monomial(), glm) for h in minimal):
            minimal.append(g)
    # Tail-reduce each element against the others until stable.
    changed = True
    while changed:
        changed = False
        for idx, g in enumerate(minimal):
            others = minimal[:idx] + minimal[idx + 1:]
            r = normal_form(g, others).monic()
            if r != g:
                minimal[idx] = r
                changed = True
    minimal.sort(key=lambda g: _kernels.order_key(spec, g.leading_monomial()))
    return GroebnerBasis(minimal, ring)


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
