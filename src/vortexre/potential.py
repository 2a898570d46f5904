"""The reduced interaction potential, its derivatives, and classification.

For weak vortices at angles theta on the unit circle with weights mu,

    V(theta) = -sum_{i<j} mu_i mu_j [cos(d_ij) + log(2 - 2 cos(d_ij))/2],
    d_ij = theta_i - theta_j.

Critical points of V are the zero-circulation limits of relative
equilibria; a critical point is linearly stable exactly when the
weight-scaled Hessian diag(1/mu) V_theta_theta has N-1 positive
eigenvalues alongside the forced rotational zero.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from vortexre.errors import CollisionError, NotACriticalPointError


@dataclass(frozen=True)
class CirculationWeights:
    """Nonzero weights (mu_1,...,mu_N) of the weak vortices."""

    mu: tuple

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(float(m) for m in self.mu))
        if len(self.mu) < 2:
            raise ValueError("need at least two weights")
        if any(m == 0.0 for m in self.mu):
            raise ValueError("weights must be nonzero")
        if not all(map(math.isfinite, self.mu)):
            raise ValueError("weights must be finite")
        size = sorted(map(abs, self.mu))
        if not math.isfinite(size[-2] * size[-1]):
            raise ValueError("products of weights must be finite")
        if size[0] * size[1] < sys.float_info.min:
            raise ValueError("products of weights must not underflow")

    def __len__(self):
        return len(self.mu)

    def __iter__(self):
        return iter(self.mu)

    def __getitem__(self, i):
        return self.mu[i]

    @property
    def array(self):
        return np.asarray(self.mu)

    def all_positive(self):
        return all(m > 0 for m in self.mu)


def _weights(mu):
    if isinstance(mu, CirculationWeights):
        return mu.array
    return CirculationWeights(tuple(mu)).array


def _scales(w):
    """(m, sigma): the largest |mu| and the product of the two largest.

    V, its gradient and its Hessian scale with the products mu_i mu_j, so
    their tolerances are relative to sigma; the weighted Hessian
    diag(1/mu) V'' scales with mu, so its tolerances are relative to m.
    """
    a, b = np.sort(np.abs(w))[-2:]
    return b, a * b


@functools.lru_cache(maxsize=None)
def _pairs(n):
    """The pairs i < j in row-major order, and their flat positions
    above (i, j) and below (j, i) the diagonal of an N x N matrix."""
    i, j = np.triu_indices(n, 1)
    pairs = (i, j, i * n + j, j * n + i)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def _row_sums(a):
    """a[0] + a[1] + ... + a[n-1] for a stack of n equal-shaped arrays,
    added in the order ndarray.sum(axis=-1) adds a row of n entries.

    That order is numpy's pairwise summation: left to right below 8
    entries; from 8 to 128, eight running sums over the entries k mod 8,
    combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then
    the entries past the last multiple of 8 left to right; above 128,
    the sums of two halves split at a multiple of 8.  numpy starts from
    0.0, which only turns a sum of -0.0s into 0.0.  Each addition runs
    elementwise across the stacked arrays, so a batch on their last axis
    costs one pass per entry.
    """
    n = len(a)
    if n < 8:
        total = a[0] + 0.0
        for k in range(1, n):
            total += a[k]
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _row_sums(a[:half]) + _row_sums(a[half:])
    r = a[:8].copy()
    for k in range(8, n - n % 8, 8):
        r += a[k:k + 8]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for k in range(n - n % 8, n):
        total += a[k]
    total += 0.0
    return total


def _pair_table(theta, single=False):
    """cos, sin and u = 2 - 2 cos of d = theta_i - theta_j on the pairs i < j.

    The layout is pair-major with the batch on the last axis: `theta` is
    (N, S), one row per vortex and one column per configuration, and the
    table is one (3, N(N-1)/2, S) array, so a reduction over the pairs of
    each configuration runs elementwise across the batch.  Two vortices
    coincide where cos d rounds to 1, |d| below about 1.05e-8, which makes
    u exactly 0: otherwise u, taken exactly from 2 cos d (Sterbenz), is at
    least 2**-52.  u is NaN on the columns in which two vortices coincide,
    so everything computed from those columns is NaN.  With `single`, such
    a column raises CollisionError naming its closest pair instead.
    """
    i, j, _, _ = _pairs(len(theta))
    table = np.empty((3, len(i)) + theta.shape[1:])
    cos, sin, u = table
    d = np.subtract(theta[i], theta[j], out=u)
    np.cos(d, out=cos)
    np.sin(d, out=sin)
    np.subtract(2.0, np.multiply(2.0, cos, out=u), out=u)
    collided = u.min(axis=0) == 0.0
    if single and collided[0]:
        k = int(u[:, 0].argmin())
        raise CollisionError(f"vortices {i[k] + 1} and {j[k] + 1} coincide")
    u[:, collided] = np.nan
    return table


def _matrices(n, above, below=None):
    """(N, N, S) matrices, pair-major: [i, j] holds `above` on the pairs
    i < j, [j, i] holds `below` (zeros when None), and the diagonal is
    zero; `above` and `below` are (N(N-1)/2, S) pair rows.

    `_row_sums` of the stack adds m[0] + ... + m[N-1] elementwise, so it
    sums each column over its N entries in the order ndarray.sum(axis=-1)
    sums a row of the full N x N difference tables: for symmetric
    matrices that is the row sum, and a gradient stacks its transpose.
    Gradients, Hessians and values keep those tables' last bits.
    """
    _, _, upper, lower = _pairs(n)
    m = np.zeros((n * n,) + above.shape[1:])
    m[upper] = above
    if below is not None:
        m[lower] = below
    return m.reshape((n, n) + above.shape[1:])


def _gradient(table, w):
    """Gradients of V, (N, S), from a pair table."""
    _, sin, u = table
    i, j, _, _ = _pairs(len(w))
    # w_i w_j sin(d) (-1 + 1/u), operation for operation, in place
    t = np.divide(1.0, u)
    t += -1.0
    t *= sin
    t *= (w[i] * w[j])[:, None]
    # Component i sums row i of the pair terms, so the stack holds their
    # transpose; sin(-d) = -sin(d) makes the term at (j, i) minus the one
    # at (i, j).
    g = _row_sums(_matrices(len(w), -t, t))
    return np.negative(g, out=g)


def _hessian(table, w):
    """Hessians of V, (N, N, S), from a pair table."""
    cos, sin, u = table
    i, j, _, _ = _pairs(len(w))
    gpp = -cos + (cos * u - 2.0 * sin**2) / u**2
    h = (w[i] * w[j])[:, None] * gpp
    n = len(w)
    H = _matrices(n, h, h)
    # H is symmetric, so its row sums are the sums of its columns
    H.reshape((n * n,) + h.shape[1:])[::n + 1] = -_row_sums(H)
    return H


def _tables(theta):
    """(single, pair table) of one angle vector or an (S, N) batch of them."""
    theta = np.asarray(theta, dtype=float)
    single = theta.ndim == 1
    return single, _pair_table(np.atleast_2d(theta).T, single)


def potential_value(theta, mu):
    """V(theta); finite away from collisions.

    Batches as `potential_gradient` does: one value per row of an (S, N)
    input, NaN on colliding rows.
    """
    w = _weights(mu)
    single, (cos, _, u) = _tables(theta)
    i, j, _, _ = _pairs(len(w))
    pair = _matrices(len(w), (w[i] * w[j])[:, None] * (cos + 0.5 * np.log(u)))
    # numpy sums the N x N entries of each matrix as one row
    v = -_row_sums(pair.reshape((len(w) ** 2,) + u.shape[1:]))
    return float(v[0]) if single else v


def potential_gradient(theta, mu):
    """Gradient of V; its components always sum to zero.

    `theta` is one angle vector or an (S, N) batch of them.  A batch
    gives one gradient per row, all NaN on rows where two vortices
    coincide.
    """
    w = _weights(mu)
    single, table = _tables(theta)
    g = np.ascontiguousarray(_gradient(table, w).T)
    return g[0] if single else g


def potential_hessian(theta, mu):
    """Symmetric Hessian of V; rows sum to zero (rotational null vector).

    Batches as `potential_gradient` does: (S, N, N) for an (S, N) input,
    all NaN on colliding rows.
    """
    w = _weights(mu)
    single, table = _tables(theta)
    H = np.ascontiguousarray(np.moveaxis(_hessian(table, w), -1, 0))
    return H[0] if single else H


@dataclass(frozen=True)
class StabilityReport:
    """Spectral data and verdict for one critical point."""

    hessian_eigs: tuple
    weighted_eigs: tuple
    zero_count: int
    verdict: str        # stable | unstable | degenerate
    extremal_type: str  # minimum | maximum | saddle | degenerate
    gradient_norm: float

    def to_dict(self):
        return {
            "hessian_eigenvalues": list(self.hessian_eigs),
            "weighted_eigenvalues": [[z.real, z.imag] for z in self.weighted_eigs],
            "zero_count": self.zero_count,
            "verdict": self.verdict,
            "extremal_type": self.extremal_type,
            "gradient_norm": self.gradient_norm,
        }


def classify(theta, mu, tol_grad=1e-10, tol_zero=1e-8):
    """Stability report for a critical point of V at the angles theta.

    Stable means the weighted Hessian has exactly the one rotational
    zero eigenvalue and N-1 real positive ones; more than one zero
    eigenvalue gives the verdict "degenerate".  The zeros beyond the
    rotational one are counted on the quotient by (1,...,1), so weights
    summing to zero, whose rotational zero is defective, count two.  The
    extremal type describes V restricted transverse to rotation, so
    "minimum" means a minimum modulo the rotational symmetry.  The
    tolerances are relative to the weight scale (see `_scales`), so mu and
    s*mu get the same report.
    """
    w = _weights(mu)
    table = _pair_table(np.asarray(theta, dtype=float)[:, None], single=True)
    report, = _classify(table, w, tol_grad, tol_zero)
    if report is None:
        gnorm = float(np.abs(_gradient(table, w)).max())
        raise NotACriticalPointError(
            f"gradient infinity-norm {gnorm:.3e} exceeds tolerance "
            f"{tol_grad * _scales(w)[1]:.1e}"
        )
    return report


def _classify(table, w, tol_grad, tol_zero):
    """`classify` for every configuration of a pair table at once: one
    report per column, None where the gradient infinity-norm is not below
    tol_grad times sigma (see `_scales`)."""
    m, sigma = _scales(w)
    gnorm = np.abs(_gradient(table, w)).max(axis=0)
    critical = np.flatnonzero(gnorm < tol_grad * sigma)
    reports = [None] * len(gnorm)
    if not len(critical):
        return reports
    H = np.moveaxis(_hessian(table[:, :, critical], w), -1, 0)
    hessian_eigs = np.linalg.eigvalsh(H)
    W = H / w[:, None]
    weighted = np.linalg.eigvals(W)
    order = np.lexsort((weighted.imag, weighted.real))
    weighted = np.take_along_axis(weighted, order, axis=1)
    size = np.abs(weighted)

    zero_tol = tol_zero * np.maximum(m, size.max(axis=1))[:, None]
    # W kills (1,...,1); count the rotational zero once and the rest on the
    # quotient by it, where a zero-sum weight vector's 2x2 Jordan block at
    # zero leaves a single, well-conditioned zero instead of a split pair
    quotient = np.linalg.eigvals(W[:, 1:, 1:] - W[:, 0:1, 1:])
    zero_count = 1 + (np.abs(quotient) < zero_tol).sum(axis=1)
    real_positive = (weighted.real > zero_tol) & (
        np.abs(weighted.imag) < tol_zero * np.maximum(m, size)
    )
    stable = (real_positive | (size < zero_tol)).all(axis=1)

    # H kills (1,...,1): the transverse spectrum is H's less the eigenvalue
    # nearest zero
    by_size = np.argsort(np.abs(hessian_eigs), axis=1)
    restricted = np.take_along_axis(hessian_eigs, by_size[:, 1:], axis=1)
    h_tol = tol_zero * np.maximum(sigma, np.abs(hessian_eigs).max(axis=1))[:, None]
    flat = (np.abs(restricted) < h_tol).any(axis=1)
    positive = (restricted > 0).all(axis=1)
    negative = (restricted < 0).all(axis=1)

    # each array goes to Python once
    for row, norm, eigs, weighted_row, zeros, is_stable, is_flat, is_min, is_max in zip(
            critical.tolist(), gnorm[critical].tolist(), hessian_eigs.tolist(),
            weighted.tolist(), zero_count.tolist(), stable.tolist(), flat.tolist(),
            positive.tolist(), negative.tolist()):
        if zeros != 1:
            verdict = "degenerate"
        else:
            verdict = "stable" if is_stable else "unstable"
        if is_flat:
            extremal = "degenerate"
        elif is_min:
            extremal = "minimum"
        elif is_max:
            extremal = "maximum"
        else:
            extremal = "saddle"
        reports[row] = StabilityReport(
            hessian_eigs=tuple(eigs),
            weighted_eigs=tuple(weighted_row),
            zero_count=zeros,
            verdict=verdict,
            extremal_type=extremal,
            gradient_norm=norm,
        )
    return reports
