"""Buchberger's algorithm and elimination ideals.

All arithmetic is exact.  Polynomials come in with ``Fraction``
coefficients, but Buchberger runs on primitive integer term maps
(``_kernels.reduce_integer`` is the one reduction routine of Buchberger
and the trace form), and the basis it returns keeps them: each element
is a (leading monomial, primitive integer term map) pair, and the monic
``Fraction`` polynomials are built only when asked for.  A polynomial's
ring holds its monomial order, and every function here works under that
order: polynomials passed to one call must share one ring.
``buchberger`` returns the unique reduced Groebner basis for the ring's
order, so golden tests can compare bases verbatim.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd

from vortexre import _kernels
from vortexre.polynomials import MonomialOrder, MultiPoly


class GroebnerBasis:
    """The reduced Groebner basis of an ideal, in one ring.

    `elements` holds one (leading monomial, term map) pair per basis
    element, ascending in the ring's order; the term map is primitive
    over the integers with a positive leading coefficient.
    """

    def __init__(self, elements, ring):
        self.elements = tuple(elements)
        self.ring = ring

    @cached_property
    def polys(self):
        """The elements made monic, as ``Fraction`` polynomials."""
        return tuple(MultiPoly(self.ring, {m: Fraction(c, t[lm]) for m, c in t.items()})
                     for lm, t in self.elements)

    @property
    def order(self):
        return self.ring.order

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, i):
        return self.polys[i]

    def leading_monomials(self):
        return [lm for lm, _ in self.elements]

    def __repr__(self):
        return f"GroebnerBasis({len(self.elements)} polys, {self.order!r})"


def _divisors(polys, order):
    """(leading monomial, primitive integer term map) of each polynomial."""
    return [_kernels.primitive(p.terms, order)[:2] for p in polys]


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
    auto-reduction to the unique reduced basis: minimalization, then one
    tail-reduction pass.  A pair (i, j) is skipped without reduction when
    its leading monomials are coprime, or by the chain criterion: some
    other element k has lm_k dividing lcm(lm_i, lm_j), and neither (i, k)
    nor (j, k) is still pending (Cox, Little and O'Shea, ch. 2 section
    10).  The basis is held as primitive integer term maps with positive
    leading coefficients; each is a positive multiple of the monic
    element that division over Q would give.
    """
    generators = [g for g in generators if not g.is_zero()]
    if not generators:
        raise ValueError("no nonzero generators")
    ring = generators[0].ring
    ring.check(generators)
    order = ring.order
    basis = _divisors(generators, order)

    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}
    while pairs:
        i, j = min(pairs, key=lambda p: (_kernels.order_key(
            order, _kernels.monomial_lcm(basis[p[0]][0], basis[p[1]][0])), p))
        pairs.discard((i, j))
        mi, mj = basis[i][0], basis[j][0]
        lcm_ij = _kernels.monomial_lcm(mi, mj)
        if lcm_ij == _kernels.monomial_mul(mi, mj):
            continue  # coprime leading monomials: S-poly reduces to zero
        if any(k != i and k != j and _kernels.monomial_divides(lm_k, lcm_ij)
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k, (lm_k, _) in enumerate(basis)):
            continue  # chain criterion: S(i, j) follows from S(i, k) and S(j, k)
        r, _ = _kernels.reduce_integer(_s_terms(basis[i], basis[j]), basis, order)
        if r:
            basis.append(_kernels.primitive(r, order)[:2])
            k = len(basis) - 1
            pairs.update((i2, k) for i2 in range(k))
    return _reduced_basis(basis, ring)


def _reduced_basis(basis, ring):
    order = ring.order
    # Minimalize: drop any element whose leading monomial another divides.
    by_lm = sorted(basis, key=lambda g: _kernels.order_key(order, g[0]))
    minimal = []
    for g in by_lm:
        if not any(_kernels.monomial_divides(h[0], g[0]) for h in minimal):
            minimal.append(g)
    # Tail-reduce each element once by the others: the leading monomials stay
    # (and ascending), so every remainder stays reduced (CLO ch. 2 section 7).
    for idx, g in enumerate(minimal):
        remainder, _ = _kernels.reduce_integer(g[1], minimal[:idx] + minimal[idx + 1:], order)
        minimal[idx] = _kernels.primitive(remainder, order)[:2]
    return GroebnerBasis(minimal, ring)


def elimination_ideal(generators, eliminate):
    """Groebner basis of the ideal's intersection with k[kept variables].

    `eliminate` names a leading block of the ring's variables, in any
    order.  Moves the generators into the ring's variables under the
    block elimination order for it, computes a basis there, and keeps
    the elements free of eliminated variables.  The result lies in that
    elimination ring, even when it is empty.
    """
    generators, eliminate = list(generators), list(eliminate)
    if not generators:
        raise ValueError("no generators to eliminate from")
    ring = generators[0].ring
    ring.check(generators)
    for name in eliminate:
        if name not in ring._index:
            raise ValueError(f"cannot eliminate {name!r}: not a variable of {ring.variables}")
    if len(set(eliminate)) < len(eliminate):
        raise ValueError(f"a variable is named twice in {eliminate}")
    block = len(eliminate)
    if not 0 < block < ring.nvars:
        raise ValueError(f"cannot eliminate {block} of {ring.nvars} variables: "
                         "eliminate at least one and keep at least one")
    if set(eliminate) != set(ring.variables[:block]):
        raise ValueError(f"cannot eliminate {eliminate}: only the leading variables "
                         f"{ring.variables[:block]} of {ring.variables} can be eliminated")
    elim_ring = ring.with_order(MonomialOrder.elimination(block))
    gb = buchberger([MultiPoly(elim_ring, g.terms) for g in generators])
    # Under the elimination order an element is free of the eliminated
    # variables exactly when its leading monomial is.
    return GroebnerBasis([(lm, t) for lm, t in gb.elements if not any(lm[:block])],
                         elim_ring)
