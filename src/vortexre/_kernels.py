"""Polynomial kernels: monomials, monomial orders and term maps.

A monomial is a tuple of non-negative integer exponents, one per ring
variable.  A term map is a plain dict from monomial to nonzero
coefficient: ``Fraction`` at the polynomial API, ``int`` inside the
exact engine, which divides integer term maps fraction-free.  An order
is a tuple ``(kind, block)``, in practice a ``polynomials.MonomialOrder``,
with ``kind`` in {"lex", "degrevlex", "elim"} and ``block`` the size of
the leading (eliminated) variable block for "elim", 0 otherwise.
Variables are compared in ring order, first variable most significant.

A monomial's order key never changes, so keys are computed once per
(order, monomial) and kept for the life of the process.  Kernels call each
other through private helpers, with one exception: ``reduce_integer``
calls ``terms_iadd_scaled``.  Wrapping this module's public names
therefore sees the calls made from outside it plus the reduction's own.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, ge, sub

# -- monomials ---------------------------------------------------------------

def monomial_mul(a, b):
    return tuple(map(add, a, b))


def monomial_divides(a, b):
    """True when a | b, i.e. every exponent of a is <= that of b."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def monomial_div(b, a):
    """b / a as a monomial, or None when a does not divide b."""
    out = []
    for y, x in zip(b, a):
        d = y - x
        if d < 0:
            return None
        out.append(d)
    return tuple(out)


def monomial_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


# -- monomial orders ---------------------------------------------------------

def _grevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def _fresh_key(order, e):
    kind, block = order
    if kind == "degrevlex":
        return _grevlex_key(e)
    if kind == "lex":
        return e
    if kind == "elim":
        return (_grevlex_key(e[:block]), _grevlex_key(e[block:]))
    raise ValueError(f"unknown order kind {kind!r}")


class _KeyTable(dict):
    """{monomial: order key} under one order, filled on first lookup."""

    __slots__ = ("order",)

    def __init__(self, order):
        super().__init__()
        self.order = order

    def __missing__(self, e):
        key = self[e] = _fresh_key(self.order, e)
        return key


_TABLES = {}   # order -> _KeyTable


def _keys(order):
    table = _TABLES.get(order)
    if table is None:
        table = _TABLES[order] = _KeyTable(order)
    return table


def order_key(order, e):
    """Sort key for a monomial; key comparison realizes the order."""
    return _keys(order)[e]


def leading_monomial(terms, order):
    """Order-maximal monomial of a term map, or None when empty."""
    if not terms:
        return None
    return max(terms, key=_keys(order).__getitem__)


def descending_monomials(terms, order):
    """Monomials of a term map, order-maximal first."""
    return sorted(terms, key=_keys(order).__getitem__, reverse=True)


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


def terms_mul(t1, t2):
    if len(t1) > len(t2):
        t1, t2 = t2, t1
    acc = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            key = tuple(map(add, m1, m2))
            cur = acc.get(key)
            if cur is None:
                acc[key] = c1 * c2
            else:
                cur = cur + c1 * c2
                if cur:
                    acc[key] = cur
                else:
                    del acc[key]
    return acc


def terms_iadd_scaled(acc, src, coeff, shift):
    """acc += coeff * x^shift * src, in place.  shift may be None."""
    for m, c in src.items():
        key = m if shift is None else tuple(map(add, m, shift))
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

def primitive(terms, order):
    """(lm, t, unit) for a nonzero term map of ints or Fractions.

    t is the primitive integer term map with terms == unit * t and a
    positive coefficient at the leading monomial lm; unit is rational.
    """
    keys = _keys(order)
    lm = max(terms, key=keys.__getitem__)
    values = terms.values()
    den = lcm(*(c.denominator for c in values))
    num = gcd(*(c.numerator for c in values))
    if terms[lm] < 0:
        num = -num
    t = {m: c.numerator * (den // c.denominator) // num for m, c in terms.items()}
    return lm, t, Fraction(num, den)


def reduce_integer(terms, divisors, order):
    """Divide an integer term map by integer divisors without fractions.

    `divisors` lists (leading monomial, term map) pairs whose leading
    coefficients are positive; the first divisor whose leading monomial
    divides the work's leading monomial is used, as in division over Q.
    Returns (remainder, k) with k a positive integer and remainder equal
    to k times the remainder over Q.  Each step scales the work by
    lc/gcd(c, lc) and subtracts (c/gcd)*x^shift*divisor, so it never
    leaves the integers; a remainder term is scaled once at the end by
    the factors that came after it.
    """
    keys = _keys(order).__getitem__
    divs = [(lm, d[lm], d) for lm, d in divisors]
    work = dict(terms)
    k = 1
    kept = []   # (monomial, coefficient, k when it was kept)
    while work:
        m = max(work, key=keys)
        c = work[m]
        for lm, lc, d in divs:
            if all(map(ge, m, lm)):
                shift = tuple(map(sub, m, lm))
                g = gcd(c, lc)
                a, b = lc // g, c // g
                if a != 1:
                    k *= a
                    for t in work:
                        work[t] *= a
                terms_iadd_scaled(work, d, -b, shift)
                break
        else:
            kept.append((m, c, k))
            del work[m]
    return {m: c * (k // k_at) for m, c, k_at in kept}, k
