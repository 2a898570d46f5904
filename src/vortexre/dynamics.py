"""The full point-vortex system at small positive coupling.

One strong vortex of circulation 1 plus N weak vortices of circulation
eps*mu_i.  Positions relative to the strong vortex satisfy a rotating-frame
fixed-point equation whose eps -> 0 limit is the critical-point equation of
the reduced potential on the circle; this module provides the residual, its
analytic Jacobian, gauge-fixed Newton polishing, continuation in eps, the
regular-polygon family, and a full-system spectral stability check that is
independent of the reduced-potential classification.

A continuation walk binds one set of Newton buffers, checks its whole
schedule for overflow and zero circulation, and makes one stability batch.
Each step's Newton solve starts from the quadratic extrapolation through
the last three solutions, a predictor-corrector walk (Allgower & Georg,
Introduction to Numerical Continuation Methods, ch. 2), and falls back to
a solve from the previous solution where that one fails or meets a nearly
singular matrix.  Each iterate writes its pair table, field, residual and
Jacobian into the buffers, the Jacobian into the top left of a square
bordered matrix that one solve takes, and the converged Jacobian is copied
out for the batch.  The batch takes each constraint rank's eigenvalues in
one call and every verdict's inputs (the cut, the largest |Re lambda|, the
all-real flag, the order) in whole-stack passes; _semisimple runs only for
a stable candidate with two eigenvalues within its cut.  An integration
binds every array a Dormand-Prince step touches once per run
(_dormand_prince), so no numpy call in a step allocates.  The buffered
code runs the helpers that vortex_field, re_residual and re_jacobian run
(_pairs, _field, _field_jacobian, _re_residual and _re_jacobian, each with
optional buffers), so there is one copy of each formula.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from vortexre.errors import (CIRCULATION_NOISE, NO_CENTER, CirculationError, CollisionError,
                             ConvergenceError, InputError, NonFiniteError, NotACriticalPointError)
from vortexre.potential import CirculationWeights, classify

_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])  # rotation by +90 degrees
_I2 = np.eye(2)
_MIN_SEP = 1e-12


def _perp(v):
    """Rotate planar vectors by +90 degrees: (x, y) -> (-y, x)."""
    return np.asarray(v, dtype=float) @ _J2.T


def _pair_buffers(q):
    """The arrays _pairs fills for the positions q, shape (n, 2): q as a
    column and as a row (views, which follow q when it is contiguous),
    diff, dist2, the squares of diff, their two components and dist2's
    diagonal, views made once."""
    n = len(q)
    diff, dist2, squares = np.empty((n, n, 2)), np.empty((n, n)), np.empty((n, n, 2))
    return (q.reshape(n, 1, 2), q.reshape(1, n, 2), diff, dist2, squares, squares[..., 0],
            squares[..., 1], dist2.reshape(-1)[::n + 1])


def _pairs(q, buffers=None):
    """Pair table of planar positions q, shape (n, 2).

    Returns diff[i, j] = q_i - q_j and dist2[i, j] = |q_i - q_j|^2 with
    the diagonal set to 1, so quotients by it stay finite.  Raises
    CollisionError naming the first pair closer than _MIN_SEP.  Given
    buffers from _pair_buffers(q), the table is written into them and q is
    read through their views, so it may change between calls.
    """
    column, row, diff, dist2, squares, x2, y2, diagonal = buffers or _pair_buffers(q)
    np.subtract(column, row, out=diff)
    np.multiply(diff, diff, out=squares)
    np.add(x2, y2, out=dist2)
    diagonal.fill(1.0)
    # a collision, or a NaN
    if not np.minimum.reduce(dist2, axis=None, initial=math.inf) > _MIN_SEP ** 2:
        close = np.argwhere(dist2 <= _MIN_SEP ** 2)
        if len(close):
            i, j = close[0]
            raise CollisionError(f"vortices {i} and {j} coincide")
    return diff, dist2


def _field_buffers(n):
    """The arrays _field fills for n positions: the velocities, shape (n, 2),
    and their columns, then scratch that buffers of other velocities may
    share: the weights g_j / dist2[i, j] and their view over a third axis,
    the weighted differences, and their row sums with its columns."""
    out, weights, total = np.empty((n, 2)), np.empty((n, n)), np.empty((n, 2))
    return (out, out[:, 0], out[:, 1], weights, weights[:, :, None], np.empty((n, n, 2)),
            total, total[:, 0], total[:, 1])


def _field(diff, dist2, g, buffers=None):
    """Velocities from a pair table and circulations g (see vortex_field),
    or g repeated in n rows, whose quotient by dist2 takes no broadcast,
    written into buffers from _field_buffers when they are given."""
    out, x, y, weights, weighted, products, total, total_x, total_y = (
        buffers or _field_buffers(len(g)))
    # The weights g_j / dist2[i, j] are g_i on the diagonal, not 0, but diff
    # is 0 there.
    np.divide(g, dist2, out=weights)
    np.add.reduce(np.multiply(weighted, diff, out=products), axis=1, out=total)
    # (x, y) -> (-y, x), a zero component +0 whatever its sign, as _perp gives it
    np.subtract(0.0, total_y, out=x)
    np.add(total_x, 0.0, out=y)
    return out


def _field_jacobian_buffers(n):
    """The arrays _field_jacobian fills for n positions: the blocks F, the
    view of their diagonal blocks made once, and scratch."""
    F = np.empty((n, n, 2, 2))
    return (F, np.einsum("iiab->iab", F), np.empty((n, n, 2, 2)), np.empty((n, n, 2, 1)),
            np.empty((n, n)), np.empty((n, 2, 2)), np.empty(n))


def _field_jacobian(diff, dist2, g, buffers=None):
    """Blocks F[i, j] = d v_i / d q_j of the field, shape (n, n, 2, 2).

    With K(d) = (I |d|^2 - 2 d d^T) / |d|^4, the derivative of d / |d|^2,
    F[i, j] = -Gamma_j J K(q_i - q_j) off the diagonal, and each diagonal
    block is minus the sum of the others in its row.  The blocks are
    written into buffers from _field_jacobian_buffers when they are given.
    """
    F, diagonal, K, twice, dist4, row_sums, minus_g = (
        buffers or _field_jacobian_buffers(len(g)))
    np.multiply(_I2, dist2[..., None, None], out=K)
    np.multiply(2.0, diff[..., :, None], out=twice)
    np.subtract(K, np.multiply(twice, diff[..., None, :], out=F), out=K)
    np.divide(K, np.square(dist2, out=dist4)[..., None, None], out=K)
    np.multiply(np.negative(g, out=minus_g)[:, None, None], np.matmul(_J2, K, out=F), out=F)
    diagonal.fill(0.0)
    np.negative(np.add.reduce(F, axis=1, out=row_sums), out=diagonal)
    return F


# -- the unreduced system ----------------------------------------------------

# A planar configuration is the pair of arrays q, shape (n, 2), of all
# vortex positions, and g, shape (n,), of their circulations.

def vortex_field(q, g):
    """Velocities q_i' = sum_{j != i} Gamma_j (q_i - q_j)^perp / |q_i - q_j|^2."""
    return _field(*_pairs(np.asarray(q, dtype=float)), np.asarray(g, dtype=float))


def hamiltonian(q, g):
    """Interaction energy -sum_{i<j} Gamma_i Gamma_j log|q_i - q_j|."""
    q, g = np.asarray(q, dtype=float), np.asarray(g, dtype=float)
    _, dist2 = _pairs(q)
    i, j = np.triu_indices(len(q), 1)
    return float(-(g[i] * g[j] * np.log(dist2[i, j])).sum() / 2.0)


# The Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6,
# 1980).  Stage s takes the first s stages with the weights _DP_A[s - 1], the
# step the six stages with _DP_B, and the error estimate all seven, the last
# being the field at the step's end, with _DP_E.  The field does not depend
# on time, so the stage nodes are not needed.
_DP_A = tuple(map(np.array, (
    [1/5],
    [3/40, 9/40],
    [44/45, -56/15, 32/9],
    [19372/6561, -25360/2187, 64448/6561, -212/729],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
)))
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])


def _rms(x):
    """RMS of the flat array x, the bits of np.linalg.norm(x) / x.size ** 0.5."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _dormand_prince(g, rtol, atol):
    """Every array a step of integrate_vortices for the circulations g
    touches, bound once: the stage input Y, shape (2n,), the stages K,
    shape (7, 2n), and the views and buffers of the pair table, the field
    and the step.  Returns Y, K, field(s), which writes the field at Y into
    K[s], and attempt(y, abs_y, abs_new, h), which from y, its field in K[0]
    and |y| in abs_y writes the step of size h into K, its end into Y and
    |Y| into abs_new, and returns the error norm."""
    n = len(g)
    K, Y = np.empty((7, 2 * n)), np.empty(2 * n)
    positions, g_rows, scratch = Y.reshape(n, 2), np.tile(g, (n, 1)), _field_buffers(n)[3:]
    pairs = _pair_buffers(positions)
    fields = [(row, row[:, 0], row[:, 1]) + scratch for row in K.reshape(7, n, 2)]
    # each stage's row number, the rows before it and their weights
    stages = [(s, K[:s].T, a) for s, a in enumerate(_DP_A, start=1)]
    steps, errors = K[:-1].T, K.T  # the rows the step and the error estimate take
    increment, scale, error = np.empty((3, 2 * n))

    def field(s):
        _field(*_pairs(positions, pairs), g_rows, fields[s])

    def attempt(y, abs_y, abs_new, h):
        for s, previous, a in stages:
            np.add(y, np.multiply(np.dot(previous, a, out=increment), h, out=increment), out=Y)
            field(s)
        np.add(y, np.multiply(h, np.dot(steps, _DP_B, out=increment), out=increment), out=Y)
        field(6)
        np.abs(Y, out=abs_new)
        np.add(atol, np.multiply(np.maximum(abs_y, abs_new, out=scale), rtol, out=scale),
               out=scale)
        return _rms(np.divide(np.multiply(np.dot(errors, _DP_E, out=error), h, out=error),
                              scale, out=error))

    return Y, K, field, attempt


# The most steps an integration accepts, _MAX_SCHEDULE's figure: from two
# vortices 1e-10 apart, or to t = 1e307, steps never reach t_final.
_MAX_STEPS = 100_000


def integrate_vortices(q, g, t_final, tol, every_step=True):
    """Integrate the full system forward from time 0 to t_final > 0.

    The integrator is the Dormand-Prince 5(4) pair with the standard step
    control (Hairer, Norsett & Wanner, Solving ODEs I, II.4): local
    extrapolation, an RMS error norm, safety factor 0.9 and step changes
    within 0.2 to 10, the operations and steps of scipy's RK45.  tol is the
    absolute tolerance and, raised to 100 machine epsilons, the relative one.
    Each stage and step is written into buffers bound once per run
    (_dormand_prince), and each accepted state is copied once; q is never
    written.  Returns the accepted times and the positions at each, shape
    (len(times), n, 2), or, when every_step is False, the last time and
    state alone, so the run's memory does not grow with its steps.  A run
    that has accepted _MAX_STEPS steps short of t_final raises
    ConvergenceError naming the time it reached.
    """
    g = np.asarray(g, dtype=float)
    n = len(g)
    if not n:  # the RMS error norm of no coordinates is 0/0
        raise ValueError("integration needs at least one vortex")
    y = np.asarray(q, dtype=float).ravel()
    if not np.isfinite(y).all():
        raise ValueError("integration needs a finite initial state")
    if not 0.0 < t_final < math.inf:  # NaN fails too
        raise ValueError(f"integration needs a positive finite end time, got {t_final}")
    if not tol >= 0.0:
        raise ValueError(f"integration needs a tolerance of at least 0, got {tol}")

    rtol, atol = max(tol, 100 * np.finfo(float).eps), tol
    Y, K, field, attempt = _dormand_prince(g, rtol, atol)
    Y[:] = y
    field(0)
    # the first step for an error estimate of order 4 (Hairer et al., II.4)
    f, scale = K[0], atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_final)
    np.add(y, h0 * f, out=Y)
    field(1)
    d2 = _rms((K[1] - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_final)
    abs_y, abs_new = np.abs(y), np.empty_like(y)
    t, steps, times, states = 0.0, 0, [0.0], [y]
    while t < t_final:
        if steps >= _MAX_STEPS:
            raise ConvergenceError(f"integration stopped at t = {t:g} of {t_final:g} "
                                   f"after {_MAX_STEPS} steps")
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise ConvergenceError("integration failed: Required step size "
                                       "is less than spacing between numbers.")
            t_new = min(t + h_abs, t_final)
            h_abs = h = t_new - t
            error = attempt(y, abs_y, abs_new, h)
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error ** -0.2)
            rejected = True
        t, y, abs_y, abs_new = t_new, Y.copy(), abs_new, abs_y
        K[0] = K[-1]
        steps += 1
        times.append(t)
        states.append(y)
        if not every_step:
            del times[0], states[0]
    return np.array(times), np.vstack(states).reshape(len(times), n, 2)


# -- frame relative to the strong vortex -------------------------------------

@dataclass(frozen=True, eq=False)
class HelioConfig:
    Z: np.ndarray  # (N, 2) read-only weak-vortex positions relative to the strong one
    epsilon: float
    mu: CirculationWeights

    def __post_init__(self):
        if not isinstance(self.mu, CirculationWeights):
            object.__setattr__(self, "mu", CirculationWeights(tuple(self.mu)))
        z = np.array(self.Z, dtype=float)
        if z.shape != (len(self.mu), 2):
            raise ValueError("need one (x, y) position per weight")
        if not np.isfinite(z).all():
            raise ValueError("positions must be finite")
        if not math.isfinite(self.epsilon):
            raise ValueError(f"coupling epsilon must be finite, not {self.epsilon}")
        z.flags.writeable = False
        object.__setattr__(self, "Z", z)
        # finite inputs whose products overflow: refused here, before a solve
        # meets them as a LinAlgError
        with np.errstate(over="ignore"):
            q, g = _full_system(z, self.epsilon, self.mu)
            if not np.isfinite(g).all():
                raise NonFiniteError("circulations eps*mu must be finite")
            dist2 = _pairs(q)[1]  # vortex 0 is the strong one
        if not np.isfinite(dist2).all():
            raise NonFiniteError("squared pair distances must be finite")

    @property
    def radii(self):
        return _radii(self.Z)

    @property
    def angles(self):
        return _angles(self.Z)

    @classmethod
    def from_angles(cls, theta, mu, epsilon):
        """Weak vortices on the unit circle at the angles theta."""
        theta = np.asarray(theta, dtype=float)
        return cls(np.stack([np.cos(theta), np.sin(theta)], axis=1), epsilon, mu)

    def strong_vortex_offset(self):
        """Strong-vortex position relative to the rotation center.

        The rotation center is the center of vorticity; placing it at the
        origin puts the strong vortex at -sum Gamma_i Z_i / Gamma_total.
        """
        return _strong_vortex_offset(self.Z, self.epsilon, self.mu)

    def to_planar(self):
        """Positions q and circulations g of all vortices, the strong one
        first, with the center of vorticity at the origin.  Raises
        NonFiniteError where the strong vortex's offset eps*mu*Z or a
        squared pair distance of q overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            q0 = self.strong_vortex_offset()
            q = np.vstack([q0, self.Z + q0])
            if not np.isfinite(_pairs(q)[1]).all():
                raise NonFiniteError("squared pair distances must be finite")
        _, g = _full_system(self.Z, self.epsilon, self.mu)
        return q, g

    def to_dict(self):
        return _configuration_dict(self.angles.tolist(), self.radii.tolist(), self.mu,
                                   self.epsilon, self.strong_vortex_offset().tolist())


# The geometry of configurations stacked over the leading axes of Z, shape
# (..., N, 2), one coupling per configuration: a whole trace is exported at once.

def _radii(Z):
    return np.hypot(Z[..., 0], Z[..., 1])


def _angles(Z):
    a = np.arctan2(Z[..., 1], Z[..., 0]) % (2.0 * math.pi)
    a[a > 2.0 * math.pi - 1e-12] = 0.0
    return a


def _strong_vortex_offset(Z, epsilon, mu):
    gamma = np.multiply.outer(epsilon, mu.array)
    total = np.expand_dims(_total_circulation(gamma), -1)
    return -(gamma[..., None] * Z).sum(axis=-2) / total


def _configuration_dict(angles, radii, mu, epsilon, z0):
    """The JSON record of one configuration, its angles, radii and z0 given as lists."""
    return {
        "angles": angles,
        "radii": radii,
        "mu": list(mu.mu),
        "epsilon": float(epsilon),
        "omega": 1.0,  # the frame's rotation rate
        "z0": z0,
    }


def _zero_circulation(gamma):
    """1 + sum(gamma) over the last axis of the weak circulations gamma, and where it is 0."""
    total = 1.0 + gamma.sum(axis=-1)
    return total, np.abs(total) <= CIRCULATION_NOISE * (1.0 + np.abs(gamma).sum(axis=-1))


def _total_circulation(gamma):
    """The total of _zero_circulation, which the center of vorticity and the reduced
    symplectic form divide by; one that is 0 up to rounding raises CirculationError."""
    total, zero = _zero_circulation(gamma)
    if zero.any():
        raise CirculationError(NO_CENTER)
    return total


def _full_system(Z, epsilon, mu):
    """Positions and circulations of all vortices, the strong one first at the origin."""
    q = np.vstack([np.zeros((1, 2)), Z])
    g = np.concatenate([[1.0], epsilon * mu.array])
    return q, g


def _re_residual(table, g, z, buffers=None):
    """re_residual from a pair table of the full system, flattened, shape
    (2N,), written into buffers when they are given: the residual, the
    field's _field_buffers(N + 1) and the rotated positions, shape (N, 2)."""
    out, field, perp = buffers or (np.empty(z.size), None, None)
    v = _field(*table, g, field)
    rows = out.reshape(z.shape)
    np.subtract(v[1:], v[0], out=rows)
    np.subtract(rows, np.matmul(z, _J2.T, out=perp), out=rows)  # _perp(z)
    return out


def _jacobian_buffers(N, out=None):
    """The arrays _re_jacobian fills for N weak vortices: out, the (2N, 2N)
    matrix it returns (a new one when not given, else any 2-D view, such as
    the top left of _newton's bordered matrix, since its 2x2 blocks are taken
    by splitting each axis), the views of those blocks and of their diagonal,
    the views of the field Jacobian's blocks it takes, and the buffers of
    that Jacobian.  Every view is made once."""
    field = _field_jacobian_buffers(N + 1)
    F = field[0]
    if out is None:
        out = np.empty((2 * N, 2 * N))
    blocks = out.reshape(N, 2, N, 2).transpose(0, 2, 1, 3)  # blocks[i, j] is block (i, j)
    return out, blocks, np.einsum("iiab->iab", blocks), F[1:, 1:], F[0, 1:], field


def _re_jacobian(table, g, buffers=None):
    """re_jacobian from a pair table of the full system, written into
    buffers from _jacobian_buffers when they are given."""
    out, blocks, diagonal, F_weak, F_strong, field = buffers or _jacobian_buffers(len(g) - 1)
    _field_jacobian(*table, g, field)
    np.subtract(F_weak, F_strong, out=blocks)
    np.subtract(diagonal, _J2, out=diagonal)
    return out


def re_residual(config):
    """Rotating-frame velocity of each weak vortex; zero at relative equilibria.

    Row i is v_i - v_0 - J z_i, with v the field of the full system
    (0, z_1..z_N), (1, eps*mu): the velocity of weak vortex i seen from
    the strong vortex, less the rotation of the frame at unit rate.
    """
    q, g = _full_system(config.Z, config.epsilon, config.mu)
    return _re_residual(_pairs(q), g, config.Z)


def re_jacobian(config):
    """Analytic Jacobian of re_residual with respect to the flattened Z.

    Block (i, j) is F[i, j] - F[0, j] - J delta_ij, with F the field
    Jacobian of the full system.
    """
    q, g = _full_system(config.Z, config.epsilon, config.mu)
    return _re_jacobian(_pairs(q), g)


# Above this infinity-norm of M^-1 applied to the probe, _newton calls the
# bordered matrix M singular and takes the least-squares step instead.
_SINGULAR = 1e6
# Above this one a wary _newton gives up.  Solves from an extrapolated guess
# read at most 5e3 on pool and polygon walks, but 3e5 to 2e6 on a step that
# lands on a polygon bifurcation, where going on leaves the polygon by up to
# 2e-11 and a solve from the step before stays within 1e-12.
_NEARLY_SINGULAR = _SINGULAR / 10
_MAX_ITER = 50  # the most Newton steps a solve takes


def _newton_buffers(N):
    """The arrays _newton fills for N weak vortices: the positions q and
    circulations g of the full system, whose row 0 and g[0], the strong
    vortex's, stay 0 and 1; the buffers of its pair table, residual (into
    the step's right side) and Jacobian (into the top left of the bordered
    matrix M); M, whose gauge row is set here and whose unfolding column
    each solve sets; and the two right sides of a step: the step's, and a
    probe with no structure, sqrt(k) mod 1 - 1/2, whose solution's size
    tells a singular M."""
    M = np.zeros((2 * N + 1, 2 * N + 1))
    M[-1, 1] = 1.0  # d(gauge)/dZ: the y-component of vortex 1
    sides = np.empty((2, 2 * N + 1))
    sides[1] = np.sqrt(np.arange(2.0, 2 * N + 3)) % 1.0 - 0.5
    q, g = np.zeros((N + 1, 2)), np.ones(N + 1)
    residual = sides[0, :-1], _field_buffers(N + 1), np.empty((N, 2))
    return q, g, _pair_buffers(q), residual, _jacobian_buffers(N, M[:-1, :-1]), M, sides


def _into_gauge(Z, out):
    """Z rotated about the strong vortex so that weak vortex 1 lies on the
    x-axis, on the side of it where it was, written into out."""
    x, y = Z[0]
    if y == 0.0:
        out[...] = Z
        return
    r = math.hypot(x, y)
    c, s = abs(x) / r, -math.copysign(1.0, x) * y / r
    np.matmul(Z, np.array([[c, s], [-s, c]]), out=out)
    out[0] = math.copysign(r, x), 0.0


def _newton(Z, epsilon, mu, buffers, tol, wary=False):
    """newton_solve on bare positions, written into buffers from
    _newton_buffers.  Each iterate writes its pair table, residual and
    Jacobian into them.  Returns the solution's Z, its residual and its
    Jacobian, views into the buffers that the next call overwrites.  A wary
    solve raises ConvergenceError at an iterate whose probe reads above
    _NEARLY_SINGULAR, before it takes any step there."""
    q, g, pairs, residual, jacobian_buffers, M, sides = buffers
    np.multiply(epsilon, mu.array, out=g[1:])  # the circulations of _full_system
    z, rhs, res = q[1:], sides[0], residual[0]
    _into_gauge(Z, z)
    # the unfolding column w_i = mu_i (z_i - c), c the center of vorticity,
    # or the strong vortex at a total circulation of 0, which has none
    total = 1.0 + g[1:].sum()
    center = g[1:] @ z / total if total else 0.0
    np.multiply(mu.array[:, None], z - center, out=M[:-1, -1].reshape(z.shape))
    for _ in range(_MAX_ITER + 1):
        table = _pairs(q, pairs)
        _re_residual(table, g, z, buffers=residual)
        jacobian = _re_jacobian(table, g, jacobian_buffers)
        gauge = z[0, 1]
        if max(np.abs(res).max(), abs(gauge)) < tol:
            return z, res, jacobian
        rhs[-1] = gauge
        np.negative(rhs, out=rhs)
        try:
            solved = np.linalg.solve(M, sides.T)
            probe = np.abs(solved[:, 1]).max()
        except np.linalg.LinAlgError:
            probe = math.inf
        if wary and not probe <= _NEARLY_SINGULAR:  # NaN too
            raise ConvergenceError(f"bordered Newton matrix nearly singular (probe {probe:.3g})")
        if not probe <= _SINGULAR:  # least squares, whose rank rule drops a second null direction
            step, *_ = np.linalg.lstsq(M[:, :-1], rhs, rcond=1e-10)
        else:  # drop the multiplier: sum_i Gamma_i <r_i, z_i - c> = 0 makes it O(|r|^2)
            step = solved[:-1, 0]
        if not np.isfinite(step).all():
            raise ConvergenceError("Newton step is not finite")
        z += step.reshape(-1, 2)
    _pairs(q, pairs)  # a last iterate on a collision reports the collision
    raise ConvergenceError(f"no convergence to {tol} within {_MAX_ITER} iterations")


def newton_solve(initial, tol=1e-12):
    """Polish a relative-equilibrium guess to residual infinity-norm < tol.

    The guess is first rotated about the strong vortex so that weak vortex 1
    lies on the x-axis, the rotational gauge, which an appended row keeps.
    The rotation makes the Jacobian singular, so it is bordered by that row
    and by the unfolding column w_i = mu_i (z_i - c), c the center of
    vorticity, and each step solves the square (2N+1)-row system.  Where
    that system is singular too, at a bifurcation, the step is the least-
    squares one of the Jacobian and the gauge row, at rcond 1e-10.
    """
    buffers = _newton_buffers(len(initial.mu))
    z, _, _ = _newton(initial.Z, initial.epsilon, initial.mu, buffers, tol)
    return HelioConfig(z, initial.epsilon, initial.mu)


# -- full-system linear stability --------------------------------------------

# Eigenvalues within this times the spectrum's scale, at least 1, of one
# another form a cluster, and a real part within it counts as 0.
_CLUSTER = 1e-6


@dataclass(frozen=True)
class FullStabilityReport:
    eigenvalues: tuple  # spectrum off the rotation/scaling subspace
    verdict: str  # "stable" | "unstable"
    max_real_part: float


def _symplectic_form(epsilon, mu):
    """Matrix of the symplectic form in strong-vortex-relative coordinates,
    one per coupling when epsilon is an array.

    The reduction of the weighted form sum Gamma_i dx_i ^ dy_i gives the
    block structure kron(S, -J) with S = diag(Gamma) - Gamma Gamma^T / Gamma_total.
    """
    gamma = np.multiply.outer(epsilon, mu.array)
    total = _total_circulation(gamma)
    S = np.zeros(gamma.shape + gamma.shape[-1:])
    diag = np.arange(len(mu))
    S[..., diag, diag] = gamma
    S -= gamma[..., :, None] * gamma[..., None, :] / np.expand_dims(total, (-1, -2))
    return np.kron(S, -_J2)


def _null_space(M):
    """Orthonormal null-space bases of the matrices stacked in M, shape (k, m, n).

    Returns (records, Q) for each rank r found: the indices of the matrices
    of rank r and their bases, one vector per column, shape (len(records),
    n, n - r).  The rank counts the singular values above eps * max(m, n) *
    max(s), the rank rule of scipy's null_space, which costs a slow import.
    """
    _, s, vh = np.linalg.svd(M, full_matrices=True)
    cut = np.finfo(float).eps * max(M.shape[1:]) * s.max(axis=-1, initial=0.0)
    rank = np.count_nonzero(s > cut[:, None], axis=-1)
    return [(np.flatnonzero(rank == r), vh[rank == r, r:].transpose(0, 2, 1))
            for r in np.unique(rank)]


def _semisimple(reduced, eigvals, cut):
    """Whether each cluster of k eigenvalues within cut of one another has k
    singular values of reduced - lam*I within cut."""
    checked = np.zeros(len(eigvals), dtype=bool)
    for i, lam in enumerate(eigvals):
        # reduced is real, so the cluster at conj(lam) is semisimple alike
        if checked[i] or lam.imag < -cut:
            continue
        cluster = np.abs(eigvals - lam) <= cut
        checked |= cluster
        k = int(cluster.sum())
        if k > 1:
            sv = np.linalg.svd(reduced - lam * np.eye(len(eigvals)), compute_uv=False)
            if np.count_nonzero(sv <= cut) < k:
                return False
    return True


def _stability(Z, epsilon, mu, jacobians):
    """full_system_stability of the configurations Z, shape (K, N, 2), at
    the couplings epsilon, shape (K,), given their Jacobians, shape (K, 2N,
    2N): one null-space SVD, reduction and eigvals call per constraint rank,
    whole-stack passes for the verdicts' inputs, and the cluster check only
    for a stable candidate with two eigenvalues within its cut."""
    B = _symplectic_form(epsilon, mu)
    rows = [v.reshape(len(Z), 1, -1) @ B for v in (_perp(Z), Z)]
    reports = [None] * len(Z)
    for records, Q in _null_space(np.concatenate(rows, axis=1)):
        reduced = Q.transpose(0, 2, 1) @ jacobians[records] @ Q
        eigvals = np.linalg.eigvals(reduced).astype(complex, copy=False)
        real = ~eigvals.imag.any(axis=-1)  # spectra that eigvals of A alone give as real
        eigvals.imag[real] = 0.0
        cut = _CLUSTER * np.fmax(1.0, np.abs(eigvals).max(axis=-1, initial=0.0))
        max_real = np.abs(eigvals.real).max(axis=-1, initial=0.0)
        stable = max_real <= cut
        close = np.abs(eigvals[:, :, None] - eigvals[:, None, :]) <= cut[:, None, None]
        for i in np.flatnonzero(stable & (close.sum(axis=(1, 2)) > eigvals.shape[1])):
            stable[i] = _semisimple(reduced[i], eigvals[i].real if real[i] else eigvals[i], cut[i])
        order = np.lexsort((eigvals.real, eigvals.imag), axis=-1)
        spectra = np.take_along_axis(eigvals, order, axis=-1).tolist()
        for k, spectrum, top, ok in zip(records.tolist(), spectra, max_real.tolist(), stable):
            reports[k] = FullStabilityReport(tuple(spectrum), "stable" if ok else "unstable", top)
    return reports


def full_system_stability(config):
    """Spectral stability of the rotating-frame linearization.

    The rotation and scaling directions span an invariant subspace carrying
    a forced nilpotent block; the spectrum is taken on its skew-orthogonal
    complement and the verdict is stable exactly when that spectrum is
    purely imaginary and semisimple.  Eigenvalues within _CLUSTER*scale of
    one another form a cluster; a cluster of k is semisimple when
    reduced - lam*I has k singular values within _CLUSTER*scale, and a lone
    eigenvalue always is.
    Zero total circulation raises CirculationError, an InputError.
    """
    if config.epsilon == 0.0:
        raise ValueError("full-system stability needs epsilon > 0")
    return _stability(config.Z[None], np.array([config.epsilon]), config.mu,
                      re_jacobian(config)[None])[0]


# -- known families and continuation -----------------------------------------

def _polygon_radius2(N, mu_scalar, epsilon):
    """R^2 = 1 + mu*eps*(N-1)/2 of the regular N-gon, and the message for
    when it is not positive."""
    R2 = 1.0 + mu_scalar * epsilon * (N - 1) / 2.0
    return R2, f"no polygon equilibrium: 1 + mu*eps*(N-1)/2 = {R2:g} is not positive"


def polygon_family(N, mu_scalar, epsilon):
    """Regular N-gon of equal weak vortices around the strong one.

    The radius solves R^2 = 1 + mu*eps*(N-1)/2 at unit rotation rate; the
    residual then vanishes identically, not just to leading order.  There
    is no such polygon when the right-hand side is not positive, and one
    whose R^2 overflows raises NonFiniteError.
    """
    if N < 2:
        raise InputError("polygon needs at least two weak vortices")
    weights = CirculationWeights((mu_scalar,) * N)
    R2, missing = _polygon_radius2(N, mu_scalar, epsilon)
    if not R2 > 0.0:
        raise InputError(missing)
    if R2 == math.inf:  # so do its squared pair distances
        raise NonFiniteError("squared pair distances must be finite")
    angles = 2.0 * math.pi * np.arange(N) / N
    z = math.sqrt(R2) * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return HelioConfig(z, epsilon, weights)


@dataclass(frozen=True, eq=False)
class ContinuationTrace:
    """A continuation walk as columns, one row per coupling reached: epsilon,
    shape (K,), the read-only positions Z, shape (K, N, 2), the residual
    infinity-norms, shape (K,), and the full-system verdicts, a tuple of K.
    failure names what ended the walk early, or is None."""
    mu: CirculationWeights
    epsilon: np.ndarray
    Z: np.ndarray
    residual: np.ndarray
    verdict: tuple
    failure: str | None = None

    def __len__(self):
        return len(self.epsilon)

    def to_dict(self):
        """The JSON payload, the angles, radii and z0 of all rows computed at once."""
        columns = (self.epsilon.tolist(), self.residual.tolist(), self.verdict,
                   _angles(self.Z).tolist(), _radii(self.Z).tolist(),
                   _strong_vortex_offset(self.Z, self.epsilon, self.mu).tolist())
        return {
            "mu": list(self.mu.mu),
            "failure": self.failure,
            "records": [
                {"epsilon": eps, "residual": residual, "verdict": verdict,
                 **_configuration_dict(angles, radii, self.mu, eps, z0)}
                for eps, residual, verdict, angles, radii, z0 in zip(*columns)
            ],
        }


# A walk that overflows somewhere on its schedule is refused before it starts.
_OVERFLOW = ("the walk overflows at eps={:.6g}: its circulations eps*mu, their total "
             "or squared pair distances are not finite")

# The longest walk a schedule may ask for.  At N = 12 each kept step costs
# about 5 KB (its positions and its Jacobian), so this cap is about 0.5 GB.
_MAX_SCHEDULE = 100_000


def _epsilon_schedule(eps_max, step):
    """The couplings step, 2*step, ... below eps_max, then eps_max itself.
    A schedule of more than about _MAX_SCHEDULE couplings raises InputError
    before any of it is built."""
    if not (eps_max >= 0.0 and step > 0.0):  # NaN fails too
        raise InputError("eps_max must be non-negative and step positive")
    estimate = (eps_max - 1e-12) / step
    if estimate > _MAX_SCHEDULE:
        count = math.ceil(estimate) if math.isfinite(estimate) else estimate
        raise InputError(f"continuing to eps={eps_max:g} in steps of {step:g} takes "
                         f"{count:.6g} steps, more than {_MAX_SCHEDULE}")
    if eps_max == 0.0:
        return []
    out = []
    k = 1
    while step * k < eps_max - 1e-12:
        out.append(step * k)
        k += 1
    out.append(eps_max)
    return out


def continue_family(theta_star, mu, eps_max, step=0.005, tol=1e-12):
    """Continue a nondegenerate critical point of V to positive coupling.

    Walks eps from `step` to `eps_max`, recording the full-system stability
    verdict; eps_max = 0 checks the start and returns an empty trace.  Each
    Newton solve starts from the quadratic through the last three
    solutions at their eps (the start at eps = 0 counting as one, so the
    first step starts from it and the second from a line).  Where that
    solve fails, or meets a nearly singular bordered matrix, as at a
    bifurcation, the step is solved again from the previous solution.  A
    failed solve ends the walk and returns the partial trace with a failure
    marker instead of raising, as does zero total circulation, before its
    solve.  A schedule on which the circulations eps*mu or their total
    overflow raises InputError before any solve.  One set of Newton
    buffers and one stability batch per walk: each solve's converged
    residual and Jacobian are kept for the batch.
    """
    weights = mu if isinstance(mu, CirculationWeights) else CirculationWeights(tuple(mu))
    if classify(theta_star, weights).extremal_type == "degenerate":
        raise NotACriticalPointError(
            "continuation requires a critical point that is nondegenerate "
            "modulo rotation (the Hessian transverse to rotation is singular)")
    start = HelioConfig.from_angles(theta_star, weights, 0.0)
    return _walk(start, _epsilon_schedule(eps_max, step), tol)


def continue_polygon(N, mu_scalar, eps_max, step=0.005, tol=1e-12):
    """`continue_family` from the regular N-gon of equal weights mu_scalar.

    The walk ends at the first scheduled eps where the polygon family
    ends, 1 + mu*eps*(N-1)/2 < 0: it runs no solve there, and its failure
    is `polygon_family`'s message.  Where that value is 0 the vortices
    meet at the strong one, and the solve reports the collision.  A walk
    whose polygon's squared pair distances overflow is refused too.
    """
    schedule = _epsilon_schedule(eps_max, step)
    R2 = [_polygon_radius2(N, mu_scalar, eps)[0] for eps in schedule]
    # R^2 is linear in eps, so the steps it allows are a prefix
    reached = [eps for eps, r2 in zip(schedule, R2) if r2 >= 0.0]
    start = polygon_family(N, mu_scalar, 0.0)
    # the walk keeps to the polygon, whose largest squared pair distance, its
    # longest chord's, overflows no later than its total circulation does
    chord2 = 4.0 * math.sin(math.pi * (N // 2) / N) ** 2
    over = [eps for eps, r2 in zip(reached, R2) if not chord2 * r2 < math.inf]
    if over:
        raise InputError(_OVERFLOW.format(over[0]))
    trace = _walk(start, reached, tol)
    if len(reached) < len(schedule) and trace.failure is None:
        eps = schedule[len(reached)]
        missing = _polygon_radius2(N, mu_scalar, eps)[1]
        trace = replace(trace, failure=f"eps={eps:.6g}: {missing}")
    return trace


def _extrapolate(passed, epsilon):
    """Z at epsilon on the Lagrange polynomial through the (eps, Z) pairs
    passed, whose eps need not be evenly spaced."""
    guess = np.zeros_like(passed[-1][1])
    for k, (eps_k, z_k) in enumerate(passed):
        weight = 1.0
        for j, (eps_j, _) in enumerate(passed):
            if j != k:
                weight *= (epsilon - eps_j) / (eps_k - eps_j)
        guess += weight * z_k
    return guess


def _corrected(passed, epsilon, mu, buffers, tol):
    """_newton at epsilon from the extrapolation through the solutions
    passed, or, where that fails or meets a nearly singular bordered matrix,
    from the last of them, so a walk fails and bifurcates where steps from
    the solution before would."""
    if len(passed) > 1:
        try:
            return _newton(_extrapolate(passed, epsilon), epsilon, mu, buffers, tol, wary=True)
        except (ConvergenceError, CollisionError):
            pass
    return _newton(passed[-1][1], epsilon, mu, buffers, tol)


def _walk(start, schedule, tol):
    """The continuation trace from the eps = 0 configuration `start`
    through the couplings of `schedule`.  Each step's Newton solve starts
    from the quadratic through the last three solutions, the start in the
    gauge counting as the one at eps = 0 (see _corrected).  Each solution,
    which its solve's pair table has checked, is kept as one copy that the
    predictor reads and Z is stacked from."""
    weights, mu = start.mu, start.mu.array
    buffers = _newton_buffers(len(mu))
    z0 = np.empty_like(start.Z)
    _into_gauge(start.Z, z0)  # so the first line does not turn
    passed = deque([(0.0, z0)], maxlen=3)
    solved, residuals, jacobians = [], [], []
    failure = None
    with np.errstate(over="ignore"):  # 1 + sum|gamma| bounds gamma and their total
        gamma = np.multiply.outer(schedule, mu)
        finite = np.isfinite(1.0 + np.abs(gamma).sum(axis=-1))
    if not finite.all():  # refused before any solve meets it
        raise InputError(_OVERFLOW.format(schedule[finite.argmin()]))
    zero = _zero_circulation(gamma)[1].tolist()
    for eps, no_center in zip(schedule, zero):
        try:
            if no_center:  # the stability batch divides by the total circulation
                raise CirculationError(NO_CENTER)
            z, res, jacobian = _corrected(passed, eps, weights, buffers, tol)
        except (CirculationError, ConvergenceError, CollisionError) as exc:
            failure = f"eps={eps:.6g}: {exc}"
            break
        solved.append(z.copy())
        passed.append((eps, solved[-1]))
        residuals.append(np.abs(res).max())
        jacobians.append(jacobian.copy())
    epsilon = np.array(schedule[:len(solved)], dtype=float)
    Z = np.array(solved).reshape(len(solved), len(mu), 2)
    Z.flags.writeable = False
    reports = _stability(Z, epsilon, weights, np.array(jacobians)) if solved else []
    return ContinuationTrace(weights, epsilon, Z, np.array(residuals, dtype=float),
                             tuple(report.verdict for report in reports), failure)


def corotating_drift(initial, final, t_final):
    """Drift of a relative equilibrium integrated from `initial` to `final`.

    The exact solution rotates rigidly about the center of vorticity at
    unit rate, so after rotating `final`, the planar positions at time
    t_final, back by t_final it should match `initial`; the returned
    number is the max position mismatch.
    """
    c, s = math.cos(-t_final), math.sin(-t_final)
    R = np.array([[c, -s], [s, c]])
    return float(np.abs(final @ R.T - initial).max())
