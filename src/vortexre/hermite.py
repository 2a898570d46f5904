"""Root counting for zero-dimensional polynomial systems.

The trace form on the quotient ring Q[x]/I is a symmetric rational
matrix whose rank is the number of distinct complex roots and whose
signature is the number of distinct real roots.  Everything here is
exact: the counts are certificates, not estimates.  Normal forms are
integer vectors over the quotient basis, read off the reduced basis with
no division; the matrix is returned with ``Fraction`` entries.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction

from vortexre import _kernels
from vortexre.groebner import buchberger


class InfiniteVarietyError(ValueError):
    """The ideal is not zero-dimensional; trace-form counting does not apply."""


class RootCount(namedtuple("RootCount", "real_distinct complex_distinct")):
    """Distinct real and complex roots of a zero-dimensional ideal."""

    __slots__ = ()


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

    A normal form is ({basis index: integer}, positive denominator), with
    no zero coordinate stored.  The basis is reduced, so a leading
    monomial's normal form is minus its element's tail over the leading
    coefficient.  Any other monomial m outside the basis has a variable
    x_k with m/x_k outside it too: NF(m) = sum_b c_b NF(x_k*b) over
    NF(m/x_k) = sum_b c_b b, each x_k*b in the basis or below m.  Traces
    are linear: Tr(M_m) = sum_c NF(m)[c] tau_c, tau_c = sum_b NF(c*b)[b]
    over one denominator.  The products b_i*b_j are keyed by integer codes
    that add as the monomials multiply, each distinct one reduced once.
    """

    def __init__(self, gb, basis):
        index = self._index = {b: i for i, b in enumerate(basis)}
        self._shifted = [[b[:k] + (b[k] + 1,) + b[k + 1:] for b in basis]
                         for k in range(gb.ring.nvars)]
        self._inside = [[index.get(m) for m in row] for row in self._shifted]
        self._nf = {b: ({i: 1}, 1) for b, i in index.items()}
        self._nf.update((lm, ({index[m]: -c for m, c in t.items() if m != lm}, t[lm]))
                        for lm, t in gb.elements)
        width = 2 * max(map(max, basis), default=0) + 1
        self.codes = codes = [sum(e * width ** k for k, e in enumerate(b)) for b in basis]
        pairs = {a + c: (i, j) for i, a in enumerate(codes) for j, c in enumerate(codes[i:], i)}
        self.products = {p: self.monomial_nf(_kernels.monomial_mul(basis[i], basis[j]))
                         for p, (i, j) in pairs.items()}
        den = self._den = math.lcm(*(d for _, d in self.products.values()))
        scaled = {p: (t, den // d) for p, (t, d) in self.products.items()}
        self._tau = [sum(scaled[a + c][0].get(j, 0) * scaled[a + c][1]
                         for j, c in enumerate(codes)) for a in codes]

    def monomial_nf(self, m):
        """Normal form of a monomial as ({basis index: integer}, denominator)."""
        nf = self._nf.get(m)
        if nf is None:
            for k, e in enumerate(m):
                if e:
                    p = m[:k] + (e - 1,) + m[k + 1:]
                    if p not in self._index:
                        break
            terms, den = self.monomial_nf(p)
            shifted, inside = self._shifted[k], self._inside[k]
            border = [(c, self.monomial_nf(shifted[i]))
                      for i, c in terms.items() if inside[i] is None]
            common = math.lcm(*(d for _, (_, d) in border))
            acc = [0] * len(inside)   # x_k*b in the basis only moves c_b to its index
            for i, c in terms.items():
                if inside[i] is not None:
                    acc[inside[i]] = c * common
            for c, (t, d) in border:
                c *= common // d
                for j, x in t.items():
                    acc[j] += c * x
            nf = self._nf[m] = ({j: x for j, x in enumerate(acc) if x}, den * common)
        return nf

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
    entries = {p: traces.trace(nf) for p, nf in traces.products.items()}
    return tuple(tuple(entries[a + c] for c in traces.codes) for a in traces.codes)


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


def count_real_roots(system):
    """Distinct real/complex root counts of a zero-dimensional system,
    computed under the order of the system's ring."""
    gb = buchberger(system)
    return signature_and_rank(hermite_matrix(gb, quotient_basis(gb)))
