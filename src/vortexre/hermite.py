"""Root counting for zero-dimensional polynomial systems.

The trace form on the quotient ring Q[x]/I is a symmetric rational
matrix whose rank is the number of distinct complex roots and whose
signature is the number of distinct real ones, both exact certificates.
Monomials are the ring's packed ints, so b_i*b_j is b_i + b_j.  Normal
forms are integer vectors over the quotient basis, read off the reduced
basis with no division; the matrix is returned with ``Fraction`` entries.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from vortexre.groebner import buchberger


class InfiniteVarietyError(ValueError):
    """The ideal is not zero-dimensional; trace-form counting does not apply."""


class RootCount(namedtuple("RootCount", "real_distinct complex_distinct")):
    """Distinct real and complex roots of a zero-dimensional ideal."""

    __slots__ = ()


def quotient_basis(gb):
    """Monomial basis of the quotient ring, or raise when it is infinite.

    The basis is the tuple of packed monomials outside the leading-term
    staircase, ascending in the ring's order.  Zero-dimensionality is
    certified by the staircase: every variable must show a pure power
    among the leading monomials, which bounds the complement to a finite
    box.  The basis is closed under division, so it is walked up from 1.
    """
    ring, packing = gb.ring, gb.ring.packing
    lms = [lm for lm, _ in gb.elements]
    if 0 in lms:
        return ()
    for i, name in enumerate(ring.variables):
        if not any(e[i] == sum(e) for e in map(packing.exponents, lms)):
            raise InfiniteVarietyError(f"no pure power of {name} among leading terms: "
                                       "infinite variety, root counting inapplicable")
    fields, g = packing.fields, packing.field_guards
    gaps = [g - fields(lm) for lm in lms]   # lm | m when fields(m) + gap keeps every guard
    basis, todo = {0}, [0]
    while todo:
        b = todo.pop()
        for m in packing.check_all([b + w for w in packing.weights]):
            f = fields(m)
            if m not in basis and not any((f + gap) & g == g for gap in gaps):
                basis.add(m)
                todo.append(m)
    return tuple(sorted(basis))


class _Traces:
    """Normal forms of monomials and multiplication-map traces.

    A normal form is ({basis index: integer}, positive denominator), with
    no zero coordinate stored.  The basis is reduced, so a leading
    monomial's normal form is minus its element's tail over the leading
    coefficient.  Any other monomial m outside the basis has a variable
    x_k with m/x_k outside it too: NF(m) = sum_b c_b NF(x_k*b) over
    NF(m/x_k) = sum_b c_b b, each x_k*b in the basis or below m.  So the
    x_k*b outside the basis are reduced first, in ascending order, and any
    other m walks down its chain of m/x_k and back up, however long.
    Traces are linear: Tr(M_m) = sum_c NF(m)[c] tau_c, tau_c = sum_b
    NF(c*b)[b] over one denominator.  The distinct products b_i*b_j are
    numbered in `grid`, each reduced once.
    """

    def __init__(self, gb, basis):
        packing = self._packing = gb.ring.packing
        index = self._index = {b: i for i, b in enumerate(basis)}
        self._shifted = [packing.check_all([b + w for b in basis]) for w in packing.weights]
        self._inside = [[index.get(m) for m in row] for row in self._shifted]
        self._nf = {b: ({i: 1}, 1) for b, i in index.items()}
        self._nf.update((lm, ({index[m]: -c for m, c in t.items() if m != lm}, t[lm]))
                        for lm, t in gb.elements)
        for m in sorted(set().union(*self._shifted) - index.keys()):
            self.monomial_nf(m)
        ids = {}   # product b_i*b_j -> its index among the distinct products
        self.grid = [[ids.setdefault(a + c, len(ids)) for c in basis] for a in basis]
        self.products = [self.monomial_nf(p) for p in packing.check_all(list(ids))]
        den = self._den = math.lcm(*(d for _, d in self.products))
        scaled = [(t, den // d) for t, d in self.products]
        self._tau = [sum(t.get(j, 0) * s for j, (t, s) in enumerate(map(scaled.__getitem__, row)))
                     for row in self.grid]

    def monomial_nf(self, m):
        """Normal form of a monomial as ({basis index: integer}, denominator)."""
        nf, index, chain = self._nf, self._index, []
        while m not in nf:   # down to a known normal form, by the first x_k
            for k, (e, w) in enumerate(zip(self._packing.exponents(m), self._packing.weights)):
                if e and m - w not in index:   # whose m/x_k is outside the basis
                    break
            else:
                raise AssertionError(f"{m} is minimal outside the basis but not leading")
            chain.append((m, k))
            m -= w
        for top, k in reversed(chain):   # and back up: NF(x_k*m) from NF(m)
            terms, den = nf[m]
            shifted, inside = self._shifted[k], self._inside[k]
            border = [(c, nf[shifted[i]]) for i, c in terms.items() if inside[i] is None]
            common = math.lcm(*(d for _, (_, d) in border))
            acc = [0] * len(inside)   # x_k*b in the basis only moves c_b to its index
            for i, c in terms.items():
                if inside[i] is not None:
                    acc[inside[i]] = c * common
            for c, (t, d) in border:
                c *= common // d
                for j, x in t.items():
                    acc[j] += c * x
            m = top
            nf[m] = ({j: x for j, x in enumerate(acc) if x}, den * common)
        return nf[m]

    def trace(self, nf):
        """Trace of multiplication by the normal form `nf`, as a Fraction."""
        return Fraction(sum(c * self._tau[j] for j, c in nf[0].items()), nf[1] * self._den)

    def trace_monomial(self, m):
        """Trace of the map g -> m*g on the quotient ring."""
        return self.trace(self.monomial_nf(m))


def hermite_matrix(gb, basis):
    """Rows of H[i][j] = trace of multiplication by b_i * b_j, as tuples;
    symmetric by construction."""
    traces = _Traces(gb, basis)
    entries = list(map(traces.trace, traces.products))
    return tuple(tuple(map(entries.__getitem__, row)) for row in traces.grid)


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
    """Signature and rank of a symmetric matrix, by exact congruence.

    The matrix is given by its rows of ints or Fractions.  Its indices
    split into the connected components of the nonzero off-diagonal
    pattern; permuting them into blocks is a congruence, so the
    signature and rank are the sums over the diagonal blocks.  Each
    block is scaled by the positive lcm of its denominators, which keeps
    its inertia, and diagonalized by `_bareiss`.
    """
    real = rank = 0
    for block in _components(rows):
        scale = math.lcm(*(rows[i][j].denominator for i in block for j in block))
        signs = _bareiss([[rows[i][j].numerator * (scale // rows[i][j].denominator)
                           for j in block] for i in block])
        real += sum(signs)
        rank += len(signs)
    return RootCount(real_distinct=real, complex_distinct=rank)


def _components(rows):
    """Sorted index lists of the connected components of the graph whose
    edges are the nonzero off-diagonal entries."""
    seen = [False] * len(rows)
    for start in range(len(rows)):
        if seen[start]:
            continue
        seen[start] = True
        block, todo = [], [start]
        while todo:
            i = todo.pop()
            block.append(i)
            for j, c in enumerate(rows[i]):
                if c and not seen[j]:
                    seen[j] = True
                    todo.append(j)
        yield sorted(block)


def _bareiss(A):
    """Signs of the diagonal of a form congruent to the symmetric integer
    matrix A, one per nonzero pivot; A is overwritten.

    Bareiss elimination on the upper triangle divides each update
    exactly by the previous pivot, so the k-th diagonal entry of the
    congruent diagonal form has the sign of d_k * d_(k-1).  On a zero
    diagonal entry, swap in a later nonzero diagonal if one exists,
    otherwise send (i, j) to (i+j, j-i), which puts 2*A[i][j] on the
    diagonal.
    """
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
    return signs


TraceForm = namedtuple("TraceForm", "groebner_basis quotient_basis matrix count")


def trace_form(system):
    """Every stage of `count_real_roots` under the order of the system's ring:
    the reduced basis, quotient basis, trace-form matrix and RootCount."""
    gb = buchberger(system)
    basis = quotient_basis(gb)
    matrix = hermite_matrix(gb, basis)
    return TraceForm(gb, basis, matrix, signature_and_rank(matrix))


def count_real_roots(system):
    """Distinct real/complex root counts of a zero-dimensional system."""
    return trace_form(system).count
