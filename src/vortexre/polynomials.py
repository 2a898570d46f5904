"""Sparse multivariate polynomials over the rationals.

Polynomials are dicts mapping packed monomials (ints whose order is the
ring's) to nonzero ``Fraction`` coefficients, attached to a
``PolynomialRing`` that fixes the variable names, the monomial order and
its ``_kernels.Packing``.  The ring is the only holder of the order, and
``PolynomialRing.check`` is the rule that polynomials passed to one call
share one ring.  A ``MultiPoly`` is the value the API returns, prints and
reads back; all arithmetic runs on the term maps of ``vortexre._kernels``.
Exponent tuples appear only where a caller gives or reads exponents.

``MultiPoly.__str__`` writes one text form and ``PolynomialRing.parse``
reads back exactly that form: "0", or terms joined by " + " and " - "
with an optional "-" before the first, where a term is a magnitude
("3", "3/2"), or factors "x" and "x^e" joined by "*" with an optional
magnitude and "*" in front.  Any other text is a ``ValueError``.  Each
ring keeps one table from monomial to its factor text ("r2^3*r4"), so
the polynomials of one ring build each monomial's text once.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from vortexre import _kernels


class MonomialOrder(namedtuple("MonomialOrder", "kind block")):
    """A monomial order: lex, degrevlex, or a block elimination order.

    The elimination order compares the leading block of variables by
    degrevlex first and breaks ties by degrevlex on the remaining
    block, so the first `block` variables are eliminated.  The tuple
    itself is the order spec that ``vortexre._kernels.Packing`` reads.
    """

    __slots__ = ()

    def __new__(cls, kind, block=0):
        if kind not in ("lex", "degrevlex", "elim"):
            raise ValueError(f"unknown monomial order {kind!r}")
        if kind == "elim" and block < 1:
            raise ValueError("elimination block must be >= 1")
        if kind != "elim" and block != 0:
            raise ValueError(f"a {kind} order has no elimination block")
        return super().__new__(cls, kind, block)

    @classmethod
    def lex(cls):
        return cls("lex")

    @classmethod
    def degrevlex(cls):
        return cls("degrevlex")

    @classmethod
    def elimination(cls, block):
        """Order that eliminates the first `block` variables."""
        return cls("elim", block)

    def __repr__(self):
        if self.kind == "elim":
            return f"MonomialOrder.elimination({self.block})"
        return f"MonomialOrder.{self.kind}()"


class PolynomialRing:
    """Rational polynomial ring with named variables and a monomial order."""

    __slots__ = ("variables", "order", "packing", "_index", "_text")

    def __init__(self, variables, order=None):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        self.order = order if order is not None else MonomialOrder.degrevlex()
        if self.order.kind == "elim" and self.order.block >= len(self.variables):
            raise ValueError(f"elimination block {self.order.block} leaves none of the "
                             f"{len(self.variables)} variables")
        self.packing = _kernels.Packing(self.variables, self.order)
        self._index = {name: i for i, name in enumerate(self.variables)}
        self._text = {}  # monomial -> factor text, filled by MultiPoly.__str__

    @property
    def nvars(self):
        return len(self.variables)

    def with_order(self, order):
        """Same variables, different monomial order."""
        return PolynomialRing(self.variables, order)

    def check(self, polys):
        """Raise ValueError unless every polynomial lies in this ring."""
        for p in polys:
            if p.ring is not self and p.ring != self:
                raise ValueError(f"polynomials from different rings: {self!r} and {p.ring!r}")

    def monomial(self, exponents, coeff=1):
        m = self.packing.pack(exponents)
        c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
        return MultiPoly(self, {m: c} if c else {})

    def parse(self, text):
        """Read back the text form that ``MultiPoly.__str__`` writes.

        The form is "0", or terms joined by " + " and " - " with an
        optional "-" before the first.  A term is a magnitude ("3",
        "3/2"), or factors "x" and "x^e" joined by "*" with an optional
        magnitude and "*" in front.  Equal monomials add up.  Any other
        text, an unknown variable or a degree the ring cannot pack included,
        raises ValueError.
        """
        if text == "0":
            return MultiPoly(self, {})
        error = ValueError(f"not a polynomial in {self.variables}: {text!r}")
        words = ("- " + text[1:] if text.startswith("-") else "+ " + text).split(" ")
        if len(words) % 2 or set(words[::2]) - {"+", "-"}:
            raise error
        terms = {}
        for sign, term in zip(words[::2], words[1::2]):
            coeff, e = Fraction(1), [0] * self.nvars
            for k, factor in enumerate(term.split("*")):
                m = re.fullmatch(r"([1-9][0-9]*)(?:/([1-9][0-9]*))?"
                                 r"|([A-Za-z_]\w*)(?:\^([1-9][0-9]*))?", factor)
                if m is None or (m[1] and k) or (m[3] and m[3] not in self._index):
                    raise error
                if m[1]:
                    coeff = Fraction(int(m[1]), int(m[2] or 1))
                else:
                    e[self._index[m[3]]] += int(m[4] or 1)
            key = self.packing.pack(e)
            terms[key] = terms.get(key, 0) + (coeff if sign == "+" else -coeff)
        return MultiPoly(self, {m: c for m, c in terms.items() if c})

    def __eq__(self, other):
        if not isinstance(other, PolynomialRing):
            return NotImplemented
        return self.variables == other.variables and self.order == other.order

    def __hash__(self):
        return hash((self.variables, self.order))

    def __repr__(self):
        return f"PolynomialRing({list(self.variables)}, {self.order!r})"


class MultiPoly:
    """A polynomial in a ``PolynomialRing``.  Immutable by convention."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or len(self.terms) == 1 and 0 in self.terms

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    # -- text form -----------------------------------------------------

    def __str__(self):
        """Text form that ``PolynomialRing.parse`` reads back.

        Terms run in descending ring order, joined by " + " and " - ", with
        a leading "-" on a negative first term.  A monomial is its factors
        "x" or "x^e" joined by "*", after its coefficient's magnitude
        ("3", "3/2") unless that is 1; a constant term is its coefficient.
        Only each coefficient's numerator and denominator are read.
        """
        if not self.terms:
            return "0"
        names, text, exponents = self.ring.variables, self.ring._text, self.ring.packing.exponents
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            num, den = c.numerator, c.denominator
            factors = text.get(m)
            if factors is None:
                factors = text[m] = "*".join([name if e == 1 else f"{name}^{e}"
                                              for name, e in zip(names, exponents(m)) if e])
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            if not factors:
                body = mag
            elif den == 1 and num in (1, -1):
                body = factors
            else:
                body = mag + "*" + factors
            if not parts:
                parts.append(body if num > 0 else "-" + body)
            else:
                parts.append(("+ " if num > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"<MultiPoly {self}>"


def from_integer_terms(ring, terms):
    """The polynomial with ``Fraction`` coefficients of an integer term map."""
    return MultiPoly(ring, {m: Fraction(c) for m, c in terms.items()})
