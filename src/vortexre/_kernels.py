"""Polynomial kernels: packed monomials and term maps.

A monomial is one int, the weighted sum of its exponents, with weights
(``Packing``) chosen so that integer order is the ring's order: a product
is a sum, a leading monomial ``max(terms)``.  A term map is a dict from
monomial to nonzero coefficient: ``Fraction`` at the polynomial API,
``int`` inside the exact engine, which divides fraction-free.  A kernel
that multiplies monomials checks each product (``Packing.check``) before
it returns it or multiplies it again.

Kernels call each other through private helpers, with one exception:
``reduce_integer`` calls ``terms_iadd_scaled``.  Wrapping this module's
public names therefore sees the calls made from outside it plus the
reduction's own.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from math import gcd, lcm
from operator import index, mul

FIELD = 16                # bits per field, the top one a guard: one struct "H" word
LIMIT = 1 << (FIELD - 1)  # what each block's degree must stay below
_MASK = (1 << FIELD) - 1


class Packing:
    """The weights that pack the monomials of one ring into ints.

    An order compares blocks of variables in turn, each by its degree and
    then by the smaller exponent of its last variable: lex has one block
    per variable, degrevlex one, elim(b) two.  With B = FIELD, a block of n
    variables packs to deg*2^(nB) - L, L holding exponent i in field i, so
    w_i = 2^(nB) - 2^(iB), above the whole range of the blocks after it.
    A monomial fits when each block degree stays below LIMIT; the sum of
    two that fit carries between no fields, and fits exactly when m + bias
    clears every bit of ``guards``.  b | a exactly when fields(a) +
    field_guards - fields(b) keeps every guard.
    """

    __slots__ = ("variables", "weights", "guards", "bias", "field_guards", "check_all",
                 "_degrees", "_blocks", "_words", "_order")

    def __init__(self, variables, order):
        self.variables = tuple(variables)
        v, (kind, block) = len(self.variables), order
        starts = {"lex": list(range(v)), "degrevlex": [0], "elim": [0, block]}[kind]
        sizes = [stop - start for start, stop in zip(starts, starts[1:] + [v])]
        offsets = [sum((n + 1) * FIELD for n in sizes[j + 1:]) for j in range(len(sizes))]
        ones = [((1 << n * FIELD) - 1) // _MASK for n in sizes]   # 1 in each field
        self._blocks = list(zip(starts, sizes, offsets, ones))   # (first variable, size, ...)
        self.weights = [((1 << n * FIELD) - (1 << i * FIELD)) << off
                        for _, n, off, _ in self._blocks for i in range(n)]
        self.guards = sum(1 << (off + (n + 1) * FIELD - 1) for _, n, off, _ in self._blocks)
        self.bias = sum(((1 << n * FIELD) - 1) << off for _, n, off, _ in self._blocks)
        self._degrees = sum(_MASK << (off + n * FIELD) for _, n, off, _ in self._blocks)
        self.field_guards = sum(o << off for _, _, off, o in self._blocks) << (FIELD - 1)
        # the fields in little-endian words hold the blocks last first; _order reorders them
        self._words = struct.Struct("<" + "".join(f"{n}H2x" for _, n, _, _ in self._blocks[::-1]))
        words = [k for start, n, _, _ in self._blocks[::-1] for k in range(start, start + n)]
        self._order = None if kind == "degrevlex" else [words.index(k) for k in range(v)]
        bias, guards, one_block = self.bias, self.guards, len(sizes) == 1

        def check_all(monomials):
            """monomials, a collection of products, or ValueError as ``check``."""
            # in one block the largest monomial has the largest degree
            for m in [max(monomials)] if one_block and monomials else monomials:
                if (m + bias) & guards:
                    self.check(m)
            return monomials
        self.check_all = check_all

    def fields(self, m):
        """Each block's L in place: m + bias holds each degree whole."""
        return ((m + self.bias) & self._degrees) - m

    def pack(self, exponents):
        """The int of an exponent vector, or ValueError when it does not fit."""
        e = tuple(map(index, exponents))
        if len(e) != len(self.variables) or min(e, default=0) < 0:
            raise ValueError(f"{e} is not {len(self.variables)} exponents, none negative")
        for start, n, _, _ in self._blocks:
            names, degree = self.variables[start:start + n], sum(e[start:start + n])
            if degree >= LIMIT:
                raise ValueError(f"degree {degree} in {', '.join(names)} is not below {LIMIT}")
        return sum(map(mul, e, self.weights))

    def exponents(self, m):
        """The exponent tuple of a monomial (or of a product of two)."""
        e = self._words.unpack(self.fields(m).to_bytes(self._words.size, "little"))
        return e if self._order is None else tuple(map(e.__getitem__, self._order))

    def check(self, m):
        """m, or pack's ValueError when the product m does not fit."""
        if (m + self.bias) & self.guards:
            self.pack(self.exponents(m))
        return m

    def divides(self, a, b):
        """True when a | b."""
        g = self.field_guards
        return (self.fields(b) + g - self.fields(a)) & g == g

    def lcm(self, a, b):
        fa, fb, g = self.fields(a), self.fields(b), self.field_guards
        take = (((fb + g - fa) & g) >> (FIELD - 1)) * _MASK   # the fields where b's is larger
        f = (fb & take) | (fa & ~take)
        # each block degree is its field sum, read off f*ones at its last field
        return self.check(sum(((f >> off) * o >> (n - 1) * FIELD & _MASK) << (off + n * FIELD)
                              for _, n, off, o in self._blocks) - f)


# -- term-map arithmetic -----------------------------------------------------

def terms_add(t1, t2):
    acc = dict(t1)
    for m, c in t2.items():
        cur = acc.get(m)
        if cur is None:
            acc[m] = c
        else:
            cur = cur + c
            if cur:
                acc[m] = cur
            else:
                del acc[m]
    return acc


def terms_neg(t):
    return {m: -c for m, c in t.items()}


def terms_scale(t, coeff):
    if not coeff:
        return {}
    return {m: coeff * c for m, c in t.items()}


def terms_mul(t1, t2, packing):
    """The product of two term maps of the ring that `packing` packs."""
    if len(t1) > len(t2):
        t1, t2 = t2, t1
    acc = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            key = m1 + m2
            cur = acc.get(key)
            if cur is None:
                acc[key] = c1 * c2
            else:
                cur = cur + c1 * c2
                if cur:
                    acc[key] = cur
                else:
                    del acc[key]
    return packing.check_all(acc)


def terms_iadd_scaled(acc, src, coeff, shift):
    """acc += coeff * x^shift * src, in place; the caller checks the new monomials."""
    for m, c in src.items():
        key = m + shift
        cur = acc.get(key)
        if cur is None:
            acc[key] = coeff * c
        else:
            cur = cur + coeff * c
            if cur:
                acc[key] = cur
            else:
                del acc[key]


# -- fraction-free division --------------------------------------------------

def primitive(terms):
    """(lm, t, unit) for a nonzero term map of ints or Fractions.

    t is the primitive integer term map with terms == unit * t and a
    positive coefficient at the leading monomial lm; unit is rational.
    """
    lm = max(terms)
    values = terms.values()
    den = lcm(*(c.denominator for c in values))
    num = gcd(*(c.numerator for c in values))
    if terms[lm] < 0:
        num = -num
    t = {m: c.numerator * (den // c.denominator) // num for m, c in terms.items()}
    return lm, t, Fraction(num, den)


def reduce_integer(terms, divisors, packing):
    """Divide an integer term map by integer divisors without fractions.

    `divisors` lists (leading monomial, term map) pairs whose leading
    coefficients are positive; the first divisor whose leading monomial
    divides the work's leading monomial is used, as in division over Q.
    Returns (remainder, k) with k a positive integer and remainder equal
    to k times the remainder over Q.  Each step scales the work by
    lc/gcd(c, lc) and subtracts (c/gcd)*x^shift*divisor, so it never
    leaves the integers; a remainder term is scaled once at the end by
    the factors that came after it.  Every monomial of the work is
    checked when it leads.
    """
    fields, g = packing.fields, packing.field_guards
    guards, bias = packing.guards, packing.bias
    divs = [(g - fields(lm), lm, d[lm], d) for lm, d in divisors]
    work = dict(terms)
    k = 1
    kept = []   # (monomial, coefficient, k when it was kept)
    while work:
        m = max(work)
        if (m + bias) & guards:
            packing.check(m)
        c = work[m]
        f = fields(m)
        for gap, lm, lc, d in divs:
            if (f + gap) & g == g:
                h = gcd(c, lc)
                a, b = lc // h, c // h
                if a != 1:
                    k *= a
                    for t in work:
                        work[t] *= a
                terms_iadd_scaled(work, d, -b, m - lm)
                break
        else:
            kept.append((m, c, k))
            del work[m]
    return {m: c * (k // k_at) for m, c, k_at in kept}, k
