"""Sparse multivariate polynomials over the rationals.

Polynomials are dicts mapping exponent tuples to nonzero ``Fraction``
coefficients, attached to a ``PolynomialRing`` that fixes the variable
names and the monomial order.  The ring is the only holder of the order:
arithmetic takes operands from one ring (the same object, or equal
variables and order) and raises ``ValueError`` otherwise.  The heavy
term-map operations live in ``vortexre._kernels``.

``MultiPoly.__str__`` writes one text form and ``PolynomialRing.parse``
reads back exactly that form: "0", or terms joined by " + " and " - "
with an optional "-" before the first, where a term is a magnitude
("3", "3/2"), or factors "x" and "x^e" joined by "*" with an optional
magnitude and "*" in front.  Any other text is a ``ValueError``.
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
    itself is the order spec that ``vortexre._kernels`` keys on.
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

    def key(self, monomial):
        return _kernels.order_key(self, monomial)

    def __repr__(self):
        if self.kind == "elim":
            return f"MonomialOrder.elimination({self.block})"
        return f"MonomialOrder.{self.kind}()"


class PolynomialRing:
    """Rational polynomial ring with named variables and a monomial order."""

    __slots__ = ("variables", "order", "_index")

    def __init__(self, variables, order=None):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        self.order = order if order is not None else MonomialOrder.degrevlex()
        if self.order.kind == "elim" and self.order.block >= len(self.variables):
            raise ValueError(f"elimination block {self.order.block} leaves none of the "
                             f"{len(self.variables)} variables")
        self._index = {name: i for i, name in enumerate(self.variables)}

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

    def zero(self):
        return MultiPoly(self, {})

    def one(self):
        return MultiPoly(self, {(0,) * self.nvars: Fraction(1)})

    def constant(self, c):
        c = c if isinstance(c, Fraction) else Fraction(c)
        if not c:
            return self.zero()
        return MultiPoly(self, {(0,) * self.nvars: c})

    def variable(self, name):
        e = [0] * self.nvars
        e[self._index[name]] = 1
        return MultiPoly(self, {tuple(e): Fraction(1)})

    def gens(self):
        return tuple(self.variable(name) for name in self.variables)

    def monomial(self, exponents, coeff=1):
        exponents = tuple(exponents)
        if len(exponents) != self.nvars:
            raise ValueError("exponent tuple has wrong length")
        c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
        if not c:
            return self.zero()
        return MultiPoly(self, {exponents: c})

    def parse(self, text):
        """Read back the text form that ``MultiPoly.__str__`` writes.

        The form is "0", or terms joined by " + " and " - " with an
        optional "-" before the first.  A term is a magnitude ("3",
        "3/2"), or factors "x" and "x^e" joined by "*" with an optional
        magnitude and "*" in front.  Equal monomials add up.  Any other
        text, an unknown variable included, raises ValueError.
        """
        if text == "0":
            return self.zero()
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
            key = tuple(e)
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

    # -- basic queries -------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        if not self.terms:
            return True
        zero = (0,) * self.ring.nvars
        return len(self.terms) == 1 and zero in self.terms

    def constant_value(self):
        """Coefficient of the constant monomial (exact)."""
        return self.terms.get((0,) * self.ring.nvars, Fraction(0))

    def coefficient(self, exponents):
        return self.terms.get(tuple(exponents), Fraction(0))

    def monomials(self):
        """Exponent tuples in descending ring order."""
        key = self.ring.order.key
        return sorted(self.terms, key=key, reverse=True)

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return _kernels.leading_monomial(self.terms, self.ring.order)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            self.ring.check((other,))
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly(self.ring, _kernels.terms_add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, _kernels.terms_neg(self.terms))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly(
            self.ring, _kernels.terms_add(self.terms, _kernels.terms_neg(other.terms))
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = other if isinstance(other, Fraction) else Fraction(other)
            return MultiPoly(self.ring, _kernels.terms_scale(self.terms, c))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly(self.ring, _kernels.terms_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = other if isinstance(other, Fraction) else Fraction(other)
            return self * (Fraction(1) / c)
        return NotImplemented

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring.variables == other.ring.variables and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    # -- calculus and evaluation ---------------------------------------

    def derivative(self, name):
        i = self.ring._index[name]
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                key = m[:i] + (e - 1,) + m[i + 1:]
                out[key] = out.get(key, Fraction(0)) + c * e
        return MultiPoly(self.ring, {m: c for m, c in out.items() if c})

    def evaluate(self, values):
        """Exact value given a Fraction (or int) for every used variable."""
        vals = {self.ring._index[k]: Fraction(v) for k, v in values.items()}
        acc = Fraction(0)
        for m, c in self.terms.items():
            term = c
            for i, e in enumerate(m):
                if e:
                    term = term * vals[i] ** e
            acc = acc + term
        return acc

    def evaluate_float(self, values):
        vals = {self.ring._index[k]: float(v) for k, v in values.items()}
        acc = 0.0
        for m, c in self.terms.items():
            term = float(c)
            for i, e in enumerate(m):
                if e:
                    term *= vals[i] ** e
            acc += term
        return acc

    # -- normalization -------------------------------------------------

    def monic(self):
        if not self.terms:
            return self
        return self * (Fraction(1) / self.leading_coefficient())

    def content(self):
        """Positive rational c with self/c integral, primitive; 0 for 0."""
        if not self.terms:
            return Fraction(0)
        return abs(_kernels.primitive(self.terms, self.ring.order)[2])

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
        names = self.ring.variables
        parts = []
        for m in self.monomials():
            c = self.terms[m]
            num, den = c.numerator, c.denominator
            factors = [name if e == 1 else f"{name}^{e}"
                       for name, e in zip(names, m) if e]
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            if not factors:
                body = mag
            elif den == 1 and num in (1, -1):
                body = "*".join(factors)
            else:
                body = mag + "*" + "*".join(factors)
            if not parts:
                parts.append(body if num > 0 else "-" + body)
            else:
                parts.append(("+ " if num > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"<MultiPoly {self}>"


def exact_divide(p, f):
    """p / f when f divides p exactly, else None."""
    if f.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    order = p.ring.order
    flm = _kernels.leading_monomial(f.terms, order)
    flc = f.terms[flm]
    work = dict(p.terms)
    quotient = {}
    while work:
        m = _kernels.leading_monomial(work, order)
        shift = _kernels.monomial_div(m, flm)
        if shift is None:
            return None
        c = work[m] / flc
        quotient[shift] = c
        _kernels.terms_iadd_scaled(work, f.terms, -c, shift)
    return MultiPoly(p.ring, quotient)

