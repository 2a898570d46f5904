"""Buchberger's algorithm and elimination ideals.

All arithmetic is exact.  Polynomials come in with ``Fraction``
coefficients, but Buchberger runs on primitive integer term maps
(``_kernels.reduce_integer`` is its one reduction routine; the trace form
reads its normal forms off the reduced basis and divides nothing), and
the basis it returns keeps them: each element is a (leading monomial,
primitive integer term map) pair over packed monomials, and the monic
``Fraction`` polynomials are built only when asked for.  A polynomial's
ring holds its monomial order, and every function here works under that
order: polynomials passed to one call must share one ring.
``buchberger`` returns the unique reduced Groebner basis for the ring's
order, so golden tests can compare bases verbatim.  ``elimination_ideal``
is the one call that moves generators into another order: the one that
eliminates the ring's first `block` variables.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import itemgetter

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

    def __repr__(self):
        return f"GroebnerBasis({len(self.elements)} polys, {self.order!r})"


def _divisors(polys):
    """(leading monomial, primitive integer term map) of each polynomial."""
    return [_kernels.primitive(p.terms)[:2] for p in polys]


def _s_terms(f, g, lcm_fg):
    """The S-polynomial of integer divisors f and g (lcm_fg = lcm(lm_f, lm_g)),
    scaled by the lcm of their leading coefficients so that it stays integral."""
    (lm_f, tf), (lm_g, tg) = f, g
    lc_f, lc_g = tf[lm_f], tg[lm_g]
    h = gcd(lc_f, lc_g)
    s = {}
    _kernels.terms_iadd_scaled(s, tf, lc_g // h, lcm_fg - lm_f)
    _kernels.terms_iadd_scaled(s, tg, -(lc_f // h), lcm_fg - lm_g)
    return s


def buchberger(generators):
    """Reduced Groebner basis of the ideal generated by `generators`.

    Classic Buchberger with normal pair selection (smallest lcm in the
    monomial order first, then the smallest pair) and Buchberger's two
    criteria, followed by auto-reduction to the unique reduced basis:
    minimalization, then one tail-reduction pass.  A pair (i, j) is
    skipped without reduction when its leading monomials are coprime, or
    by the chain criterion: some other element k has lm_k dividing
    lcm(lm_i, lm_j), and neither (i, k) nor (j, k) is still pending (Cox,
    Little and O'Shea, ch. 2 section 10).  The basis is held as primitive
    integer term maps with positive leading coefficients; each is a
    positive multiple of the monic element that division over Q would give.
    """
    generators = [g for g in generators if not g.is_zero()]
    if not generators:
        raise ValueError("no nonzero generators")
    ring = generators[0].ring
    ring.check(generators)
    packing = ring.packing
    fields, g = packing.fields, packing.field_guards
    basis = _divisors(generators)
    gaps = [g - fields(lm) for lm, _ in basis]   # lm_k | m iff fields(m) + gaps[k] keeps g
    pairs = {(i, j): packing.lcm(basis[i][0], basis[j][0])   # pending pair -> lcm of its lms
             for j in range(len(basis)) for i in range(j)}
    while pairs:
        (i, j), lcm_ij = min(pairs.items(), key=itemgetter(1, 0))
        del pairs[(i, j)]
        if lcm_ij == basis[i][0] + basis[j][0]:
            continue  # coprime leading monomials: S-poly reduces to zero
        f = fields(lcm_ij)
        if any(k != i and k != j and (f + gap) & g == g
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k, gap in enumerate(gaps)):
            continue  # chain criterion: S(i, j) follows from S(i, k) and S(j, k)
        r, _ = _kernels.reduce_integer(_s_terms(basis[i], basis[j], lcm_ij), basis, packing)
        if r:
            lm, t = _kernels.primitive(r)[:2]
            pairs.update(((i, len(basis)), packing.lcm(b, lm)) for i, (b, _) in enumerate(basis))
            basis.append((lm, t))
            gaps.append(g - fields(lm))
    return _reduced_basis(basis, ring)


def _reduced_basis(basis, ring):
    packing = ring.packing
    # Minimalize: drop any element whose leading monomial another divides.
    minimal = []
    for h in sorted(basis, key=lambda e: e[0]):
        if not any(packing.divides(m[0], h[0]) for m in minimal):
            minimal.append(h)
    # Tail-reduce each element once by the others: the leading monomials stay
    # (and ascending), so every remainder stays reduced (CLO ch. 2 section 7).
    for idx, h in enumerate(minimal):
        remainder, _ = _kernels.reduce_integer(h[1], minimal[:idx] + minimal[idx + 1:], packing)
        minimal[idx] = _kernels.primitive(remainder)[:2]
    return GroebnerBasis(minimal, ring)


def elimination_ideal(generators, block):
    """Groebner basis of the ideal's intersection with k[kept variables].

    Eliminates the ring's first `block` variables: moves the generators
    into the ring's variables under the block elimination order, computes
    a basis there, and keeps the elements free of eliminated variables.
    The result lies in that elimination ring, even when it is empty.  A
    block that eliminates no variable or every variable is a ValueError.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("no generators to eliminate from")
    ring = generators[0].ring
    ring.check(generators)
    elim_ring = ring.with_order(MonomialOrder.elimination(block))
    exponents, pack = ring.packing.exponents, elim_ring.packing.pack
    gb = buchberger([MultiPoly(elim_ring, {pack(exponents(m)): c for m, c in g.terms.items()})
                     for g in generators])
    # an element is free of the eliminated variables when its lm is below each of them
    below = min(elim_ring.packing.weights[:block])
    return GroebnerBasis([(lm, t) for lm, t in gb.elements if lm < below], elim_ring)
