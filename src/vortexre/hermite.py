"""Root counting for zero-dimensional polynomial systems.

The trace form on the quotient ring Q[x]/I is a symmetric rational
matrix whose rank is the number of distinct complex roots and whose
signature is the number of distinct real roots.  Everything here is
exact: the counts are certificates, not estimates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from vortexre import _kernels
from vortexre.groebner import buchberger, normal_form
from vortexre.rationals import rational


class InfiniteVarietyError(ValueError):
    """The ideal is not zero-dimensional; trace-form counting does not apply."""


@dataclass(frozen=True)
class QuotientBasis:
    """Monomials outside the leading-term staircase, ascending in the order."""

    ring: object
    order: object
    monomials: tuple

    def __len__(self):
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

    def __getitem__(self, i):
        return self.monomials[i]


@dataclass(frozen=True)
class RootCount:
    real_distinct: int
    complex_distinct: int


class HermiteMatrix:
    """Symmetric rational matrix of multiplication-map traces."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(tuple(row) for row in entries)
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueError("matrix must be square")

    @property
    def dimension(self):
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def is_symmetric(self):
        n = self.dimension
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(n)
            for j in range(i + 1, n)
        )

    def __repr__(self):
        return f"HermiteMatrix(dim={self.dimension})"


def quotient_basis(gb):
    """Monomial basis of the quotient ring, or raise when it is infinite.

    Zero-dimensionality is certified by the staircase: every variable
    must show a pure power among the leading monomials, which bounds the
    complement to a finite box.
    """
    lms = gb.leading_monomials()
    ring = gb.ring
    nvars = ring.nvars
    unit = (0,) * nvars
    if unit in lms:
        return QuotientBasis(ring, gb.order, ())
    bounds = []
    for i in range(nvars):
        pure = [
            m[i]
            for m in lms
            if m[i] > 0 and all(e == 0 for k, e in enumerate(m) if k != i)
        ]
        if not pure:
            raise InfiniteVarietyError(
                f"no pure power of {ring.variables[i]} among leading terms: "
                "infinite variety, root counting inapplicable"
            )
        bounds.append(min(pure))
    basis = [
        m
        for m in itertools.product(*(range(b) for b in bounds))
        if not any(_kernels.monomial_divides(lm, m) for lm in lms)
    ]
    basis.sort(key=gb.order.key)
    return QuotientBasis(ring, gb.order, tuple(basis))


class _TraceCalculator:
    """Memoized normal forms of monomials and multiplication-map traces."""

    def __init__(self, gb, basis):
        self.gb = gb
        self.basis = basis
        self.ring = basis.ring
        self._in_basis = set(basis.monomials)
        self._nf = {}
        self._trace = {}

    def monomial_nf(self, m):
        """Normal form of a monomial as {basis monomial: coefficient}."""
        if m in self._in_basis:
            return {m: rational(1)}
        cached = self._nf.get(m)
        if cached is None:
            r = normal_form(self.ring.monomial(m), self.gb.polys, self.gb.order)
            cached = self._nf[m] = r.terms
        return cached

    def trace_monomial(self, m):
        """Trace of the map g -> m*g on the quotient ring."""
        cached = self._trace.get(m)
        if cached is None:
            total = rational(0)
            for b in self.basis.monomials:
                nf = self.monomial_nf(_kernels.monomial_mul(m, b))
                c = nf.get(b)
                if c is not None:
                    total = total + c
            cached = self._trace[m] = total
        return cached

    def trace_poly(self, f):
        total = rational(0)
        for m, c in f.terms.items():
            total = total + c * self.trace_monomial(m)
        return total


def multiplication_trace(f, gb, basis):
    """Trace of multiplication by f on the quotient ring (exact)."""
    return _TraceCalculator(gb, basis).trace_poly(f)


def hermite_matrix(gb, basis):
    """H[i][j] = trace of multiplication by b_i * b_j; symmetric by construction."""
    calc = _TraceCalculator(gb, basis)
    n = len(basis)
    rows = [[rational(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            t = calc.trace_monomial(
                _kernels.monomial_mul(basis.monomials[i], basis.monomials[j])
            )
            rows[i][j] = t
            rows[j][i] = t
    return HermiteMatrix(rows)


# -- exact symmetric congruence reduction ------------------------------------

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


def signature_and_rank(H):
    """Diagonalize by exact congruence; signature and rank from the diagonal.

    Pivot strategy on a zero diagonal entry: swap in a later nonzero
    diagonal if one exists, otherwise add row+column j into i (turning
    the off-diagonal 2*B[i][j] onto the diagonal), then clear.
    """
    entries = H.entries if isinstance(H, HermiteMatrix) else H
    B = [[rational(c) for c in row] for row in entries]
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
    return RootCount(real_distinct=pos - neg, complex_distinct=pos + neg)


def count_real_roots(system, order=None):
    """Distinct real/complex root counts of a zero-dimensional system."""
    gb = buchberger(system, order)
    basis = quotient_basis(gb)
    if not len(basis):
        return RootCount(real_distinct=0, complex_distinct=0)
    return signature_and_rank(hermite_matrix(gb, basis))
