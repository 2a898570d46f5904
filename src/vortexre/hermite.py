"""Root counting for zero-dimensional polynomial systems.

The trace form on the quotient ring Q[x]/I is a symmetric rational
matrix whose rank is the number of distinct complex roots and whose
signature is the number of distinct real roots.  Everything here is
exact: the counts are certificates, not estimates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from vortexre import _kernels
from vortexre.groebner import buchberger, normal_form


class InfiniteVarietyError(ValueError):
    """The ideal is not zero-dimensional; trace-form counting does not apply."""


@dataclass(frozen=True)
class RootCount:
    real_distinct: int
    complex_distinct: int


def quotient_basis(gb):
    """Monomial basis of the quotient ring, or raise when it is infinite.

    The basis is the tuple of monomials outside the leading-term
    staircase, ascending in the ring's order.  Zero-dimensionality is
    certified by the staircase: every variable must show a pure power
    among the leading monomials, which bounds the complement to a finite
    box.
    """
    lms = gb.leading_monomials()
    ring = gb.ring
    nvars = ring.nvars
    unit = (0,) * nvars
    if unit in lms:
        return ()
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
    basis.sort(key=ring.order.key)
    return tuple(basis)


class _Traces:
    """Normal forms of monomials and multiplication-map traces.

    Only border monomials x_k*b (b in the basis, x_k*b outside it) are
    reduced by `normal_form`.  Any other monomial m = x_k*m' follows
    linearly: NF(m) = sum_b c_b NF(x_k*b), where NF(m') = sum_b c_b b.
    Traces are linear too: Tr(M_m) = sum_b NF(m)[b] Tr(M_b), with
    Tr(M_b) = sum_c NF(b*c)[c].
    """

    def __init__(self, gb, basis):
        self.gb = gb
        self._in_basis = set(basis)
        self._nf = {b: {b: Fraction(1)} for b in basis}
        self._traces = {}
        self._basis_traces = {
            b: sum((self.monomial_nf(_kernels.monomial_mul(b, c)).get(c, 0)
                    for c in basis), Fraction(0))
            for b in basis
        }

    def monomial_nf(self, m):
        """Normal form of a monomial as {basis monomial: coefficient}."""
        nf = self._nf.get(m)
        if nf is None:
            lower = [(k, m[:k] + (e - 1,) + m[k + 1:]) for k, e in enumerate(m) if e]
            if not lower or any(p in self._in_basis for _, p in lower):
                r = normal_form(self.gb.ring.monomial(m), self.gb.polys)
                nf = r.terms
            else:
                k, p = lower[0]
                nf = {}
                for b, c in self.monomial_nf(p).items():
                    xb = b[:k] + (b[k] + 1,) + b[k + 1:]
                    _kernels.terms_iadd_scaled(nf, self.monomial_nf(xb), c, None)
            self._nf[m] = nf
        return nf

    def trace_monomial(self, m):
        """Trace of the map g -> m*g on the quotient ring."""
        tr = self._traces.get(m)
        if tr is None:
            t = self._basis_traces
            tr = self._traces[m] = sum(
                (c * t[b] for b, c in self.monomial_nf(m).items()), Fraction(0))
        return tr


def hermite_matrix(gb, basis):
    """Rows of H[i][j] = trace of multiplication by b_i * b_j, as tuples;
    symmetric by construction."""
    traces = _Traces(gb, basis)
    return tuple(tuple(traces.trace_monomial(_kernels.monomial_mul(a, b))
                       for b in basis) for a in basis)


# -- fraction-free symmetric elimination -------------------------------------

def _congruence(A, i, j, t):
    """Send indices i < j to t[0]*i + t[1]*j and t[2]*i + t[3]*j.

    A is symmetric and held in its upper triangle from row i on.
    """
    a, b, c, d = t
    ii, ij, jj = A[i][i], A[i][j], A[j][j]
    for s in range(i + 1, len(A)):
        if s != j:
            lo, hi = min(j, s), max(j, s)
            x, y = A[i][s], A[lo][hi]
            A[i][s], A[lo][hi] = a * x + b * y, c * x + d * y
    A[i][i] = a * a * ii + 2 * a * b * ij + b * b * jj
    A[i][j] = a * c * ii + (a * d + b * c) * ij + b * d * jj
    A[j][j] = c * c * ii + 2 * c * d * ij + d * d * jj


def signature_and_rank(rows):
    """Diagonalize by exact congruence; signature and rank from the pivots.

    The symmetric matrix, given by its rows, is scaled by the positive lcm
    of its denominators, which keeps its inertia.  Bareiss elimination on the upper triangle then divides each
    update exactly by the previous pivot, so the k-th diagonal entry of
    the congruent diagonal form has the sign of d_k * d_(k-1).  On a zero
    diagonal entry, swap in a later nonzero diagonal if one exists,
    otherwise send (i, j) to (i+j, j-i), which puts 2*A[i][j] on the
    diagonal.
    """
    rows = [[Fraction(c) for c in row] for row in rows]
    scale = math.lcm(*(c.denominator for row in rows for c in row))
    A = [[c.numerator * (scale // c.denominator) for c in row] for row in rows]
    n = len(A)
    prev, signs = 1, []
    for k in range(n):
        if not A[k][k]:
            j = next((j for j in range(k + 1, n) if A[j][j]), None)
            if j is not None:
                _congruence(A, k, j, (0, 1, 1, 0))
        if not A[k][k]:
            j = next((j for j in range(k + 1, n) if A[k][j]), None)
            if j is None:
                continue
            _congruence(A, k, j, (1, 1, -1, 1))
        p, pivot_row = A[k][k], A[k]
        signs.append(1 if p * prev > 0 else -1)
        for i in range(k + 1, n):
            f, row = pivot_row[i], A[i]
            for j in range(i, n):
                row[j], r = divmod(p * row[j] - f * pivot_row[j], prev)
                if r:
                    raise ArithmeticError("inexact division in Bareiss elimination")
        prev = p
    return RootCount(real_distinct=sum(signs), complex_distinct=len(signs))


def count_real_roots(system):
    """Distinct real/complex root counts of a zero-dimensional system,
    computed under the order of the system's ring."""
    gb = buchberger(system)
    return signature_and_rank(hermite_matrix(gb, quotient_basis(gb)))
