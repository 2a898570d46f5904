"""Buchberger's algorithm, polynomial reduction, and elimination ideals.

All arithmetic is exact over the rationals.  ``buchberger`` returns the
unique reduced Groebner basis for the ring's monomial order, so golden
tests can compare bases verbatim.
"""

from __future__ import annotations

from vortexre import _kernels
from vortexre.polynomials import MonomialOrder, MultiPoly, PolynomialRing
from vortexre.rationals import rational


class Ideal:
    """An ideal given by nonzero generators in a common ring."""

    __slots__ = ("ring", "generators")

    def __init__(self, generators):
        generators = tuple(generators)
        if not generators:
            raise ValueError("an ideal needs at least one generator")
        ring = generators[0].ring
        for g in generators:
            if g.ring.variables != ring.variables:
                raise ValueError("generators from different rings")
            if g.is_zero():
                raise ValueError("zero generator")
        self.ring = ring
        self.generators = generators

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def __repr__(self):
        return f"Ideal({[str(g) for g in self.generators]})"


class GroebnerBasis:
    """A Groebner basis with its order; ``reduced`` marks the canonical form."""

    __slots__ = ("ring", "polys", "order", "reduced")

    def __init__(self, polys, order, reduced=False):
        self.polys = tuple(polys)
        self.order = order
        self.reduced = reduced
        self.ring = self.polys[0].ring if self.polys else None

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __getitem__(self, i):
        return self.polys[i]

    def leading_monomials(self):
        return [g.leading_monomial() for g in self.polys]

    def normal_form(self, p):
        """Unique remainder of p modulo the basis, under the basis order."""
        return normal_form(p, self.polys, self.order)

    def contains(self, p):
        return self.normal_form(p).is_zero()

    def __repr__(self):
        return f"GroebnerBasis({len(self.polys)} polys, {self.order!r})"


def _with_order(polys, order):
    """Re-wrap polynomials in the same ring under a different order."""
    out = []
    for p in polys:
        if p.ring.order == order:
            out.append(p)
        else:
            out.append(MultiPoly(p.ring.with_order(order), p.terms))
    return out


def _divisor_data(divisors, spec):
    data = []
    for d in divisors:
        lm = _kernels.leading_monomial(d.terms, spec)
        data.append((lm, d.terms[lm], d.terms))
    return data


def reduce(p, divisors, order=None):
    """Divide p by the divisors: returns (quotients, remainder).

    The remainder has no term divisible by any divisor's leading
    monomial, and p == sum(q_i * d_i) + remainder exactly.  Divisors are
    tried in list order, so the result is deterministic.
    """
    order = order if order is not None else p.ring.order
    spec = order.spec
    divs = _divisor_data(_with_order(divisors, order), spec)
    ring = p.ring.with_order(order) if p.ring.order != order else p.ring
    work = dict(p.terms)
    remainder = {}
    quotients = [{} for _ in divs]
    while work:
        m = _kernels.leading_monomial(work, spec)
        c = work[m]
        for idx, (lm, lc, terms) in enumerate(divs):
            shift = _kernels.monomial_div(m, lm)
            if shift is not None:
                coeff = c / lc
                _kernels.terms_iadd_scaled(work, terms, -coeff, shift)
                q = quotients[idx]
                q[shift] = q.get(shift, rational(0)) + coeff
                break
        else:
            remainder[m] = c
            del work[m]
    qpolys = [MultiPoly(ring, {m: c for m, c in q.items() if c}) for q in quotients]
    return qpolys, MultiPoly(ring, remainder)


def normal_form(p, divisors, order=None):
    """Remainder of p modulo the divisors (no quotient bookkeeping)."""
    order = order if order is not None else p.ring.order
    spec = order.spec
    divs = _divisor_data(_with_order(divisors, order), spec)
    ring = p.ring.with_order(order) if p.ring.order != order else p.ring
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
    spec = f.ring.order.spec
    lm_f = _kernels.leading_monomial(f.terms, spec)
    lm_g = _kernels.leading_monomial(g.terms, spec)
    lcm = _kernels.monomial_lcm(lm_f, lm_g)
    s = {}
    _kernels.terms_iadd_scaled(
        s, f.terms, rational(1) / f.terms[lm_f], _kernels.monomial_div(lcm, lm_f)
    )
    _kernels.terms_iadd_scaled(
        s, g.terms, rational(-1) / g.terms[lm_g], _kernels.monomial_div(lcm, lm_g)
    )
    return MultiPoly(f.ring, s)


def buchberger(generators, order=None):
    """Reduced Groebner basis of the ideal generated by `generators`.

    Classic Buchberger with normal pair selection (smallest lcm in the
    monomial order first) and the coprime-leading-monomial criterion,
    followed by auto-reduction to the unique reduced basis.
    """
    if isinstance(generators, Ideal):
        generators = generators.generators
    generators = [g for g in generators if not g.is_zero()]
    if not generators:
        raise ValueError("no nonzero generators")
    order = order if order is not None else generators[0].ring.order
    spec = order.spec
    basis = [g.monic() for g in _with_order(generators, order)]

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
        r = normal_form(s_polynomial(basis[i], basis[j]), basis, order)
        if not r.is_zero():
            basis.append(r.monic())
            k = len(basis) - 1
            pairs.update((i2, k) for i2 in range(k))
    return _reduced_basis(basis, order)


def _reduced_basis(basis, order):
    spec = order.spec
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
            r = normal_form(g, others, order).monic()
            if r != g:
                minimal[idx] = r
                changed = True
    minimal.sort(key=lambda g: _kernels.order_key(spec, g.leading_monomial()))
    return GroebnerBasis(minimal, order, reduced=True)


def elimination_ideal(generators, eliminate):
    """Groebner basis of the ideal's intersection with k[kept variables].

    Computes a basis under a block elimination order with `eliminate`
    leading, then keeps the elements free of eliminated variables.
    """
    if isinstance(generators, Ideal):
        generators = generators.generators
    ring = generators[0].ring
    eliminate = list(eliminate)
    elim_idx = [ring._index[name] for name in eliminate]
    if len(elim_idx) >= ring.nvars:
        raise ValueError("cannot eliminate every variable")
    keep_idx = [i for i in range(ring.nvars) if i not in set(elim_idx)]
    order = MonomialOrder.elimination(len(elim_idx), priority=elim_idx + keep_idx)
    gb = buchberger(generators, order)
    eliminated = set(eliminate)
    kept = [g for g in gb if not (g.variables_used() & eliminated)]
    return GroebnerBasis(kept, order, reduced=True)


def is_groebner_basis(polys, order=None):
    """Buchberger's criterion: every S-polynomial reduces to zero."""
    polys = list(polys)
    order = order if order is not None else polys[0].ring.order
    polys = _with_order(polys, order)
    for j in range(len(polys)):
        for i in range(j):
            s = s_polynomial(polys[i], polys[j])
            if not normal_form(s, polys, order).is_zero():
                return False
    return True
