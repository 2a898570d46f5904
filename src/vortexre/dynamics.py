"""The full point-vortex system at small positive coupling.

One strong vortex of circulation 1 plus N weak vortices of circulation
eps*mu_i.  Positions relative to the strong vortex satisfy a rotating-frame
fixed-point equation whose eps -> 0 limit is the critical-point equation of
the reduced potential on the circle; this module provides the residual, its
analytic Jacobian, gauge-fixed Newton polishing, continuation in eps, the
regular-polygon family, and a full-system spectral stability check that is
independent of the reduced-potential classification.  Continuation takes
one table per iterate, one stability batch per walk: an iterate's pair table
gives its residual and Jacobian, and one stacked reduction checks every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from vortexre.errors import (CirculationError, CollisionError, ConvergenceError,
                             NotACriticalPointError)
from vortexre.potential import CirculationWeights, classify

_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])  # rotation by +90 degrees
_MIN_SEP = 1e-12


def _perp(v):
    """Rotate planar vectors by +90 degrees: (x, y) -> (-y, x)."""
    return np.asarray(v, dtype=float) @ _J2.T


def _pairs(q):
    """Pair table of planar positions q, shape (n, 2).

    Returns diff[i, j] = q_i - q_j and dist2[i, j] = |q_i - q_j|^2 with
    the diagonal set to 1, so quotients by it stay finite.  Raises
    CollisionError naming the first pair closer than _MIN_SEP.
    """
    diff = q[:, None, :] - q[None, :, :]
    dist2 = (diff ** 2).sum(axis=2)
    np.fill_diagonal(dist2, 1.0)
    close = dist2 <= _MIN_SEP ** 2
    if close.any():
        i, j = np.argwhere(close)[0]
        raise CollisionError(f"vortices {i} and {j} coincide")
    return diff, dist2


def _field(diff, dist2, g):
    """Velocities from a pair table and circulations g (see vortex_field)."""
    weights = g[None, :] / dist2
    np.fill_diagonal(weights, 0.0)
    return _perp((weights[:, :, None] * diff).sum(axis=1))


def _field_jacobian(diff, dist2, g):
    """Blocks F[i, j] = d v_i / d q_j of the field, shape (n, n, 2, 2).

    With K(d) = (I |d|^2 - 2 d d^T) / |d|^4, the derivative of d / |d|^2,
    F[i, j] = -Gamma_j J K(q_i - q_j) off the diagonal, and each diagonal
    block is minus the sum of the others in its row.
    """
    K = (np.eye(2) * dist2[..., None, None]
         - 2.0 * diff[..., :, None] * diff[..., None, :]) / (dist2 ** 2)[..., None, None]
    F = -g[None, :, None, None] * (_J2 @ K)
    diag = np.arange(len(g))
    F[diag, diag] = 0.0
    F[diag, diag] = -F.sum(axis=1)
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


def integrate_vortices(q, g, t_final, tol):
    """Integrate the full system with an adaptive embedded Runge-Kutta pair;
    tol is both the relative and the absolute tolerance."""
    from scipy.integrate import solve_ivp  # slow to import; only integration needs it

    g = np.asarray(g, dtype=float)
    n = len(g)

    def rhs(_, y):
        return vortex_field(y.reshape(n, 2), g).ravel()

    sol = solve_ivp(rhs, (0.0, t_final), np.asarray(q, dtype=float).ravel(),
                    rtol=tol, atol=tol, dense_output=False)
    if not sol.success:
        raise ConvergenceError(f"integration failed: {sol.message}")
    return sol.t, sol.y.T.reshape(len(sol.t), n, 2)


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
        z.flags.writeable = False
        object.__setattr__(self, "Z", z)
        _pairs(_full_system(z, self.epsilon, self.mu)[0])  # vortex 0 is the strong one

    @property
    def radii(self):
        return np.hypot(self.Z[:, 0], self.Z[:, 1])

    @property
    def angles(self):
        a = np.arctan2(self.Z[:, 1], self.Z[:, 0]) % (2.0 * math.pi)
        a[a > 2.0 * math.pi - 1e-12] = 0.0
        return a

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
        gamma = self.epsilon * self.mu.array
        return -(gamma[:, None] * self.Z).sum(axis=0) / _total_circulation(gamma)

    def to_planar(self):
        """Positions q and circulations g of all vortices, the strong one
        first, with the center of vorticity at the origin."""
        q0 = self.strong_vortex_offset()
        _, g = _full_system(self.Z, self.epsilon, self.mu)
        return np.vstack([q0, self.Z + q0]), g

    def to_dict(self):
        return {
            "angles": [float(a) for a in self.angles],
            "radii": [float(r) for r in self.radii],
            "mu": list(self.mu.mu),
            "epsilon": float(self.epsilon),
            "omega": 1.0,  # the frame's rotation rate
            "z0": [float(c) for c in self.strong_vortex_offset()],
        }


def _total_circulation(gamma):
    """1 + sum(gamma) over the last axis of the weak circulations gamma,
    which the center of vorticity and the reduced symplectic form divide by."""
    total = 1.0 + gamma.sum(axis=-1)
    if not total.all():
        raise CirculationError("total circulation 1 + eps*sum(mu) is 0: "
                               "there is no center of vorticity")
    return total


def _full_system(Z, epsilon, mu):
    """Positions and circulations of all vortices, the strong one first at the origin."""
    q = np.vstack([np.zeros((1, 2)), Z])
    g = np.concatenate([[1.0], epsilon * mu.array])
    return q, g


def _re_residual(table, g, z):
    v = _field(*table, g)
    return (v[1:] - v[0] - _perp(z)).ravel()


def _re_jacobian(table, g):
    F = _field_jacobian(*table, g)
    A = F[1:, 1:] - F[0, 1:]
    diag = np.arange(len(A))
    A[diag, diag] -= _J2
    return A.transpose(0, 2, 1, 3).reshape(2 * len(A), 2 * len(A))


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


def _newton(Z, epsilon, mu, tol, max_iter=50, history=None):
    """newton_solve on bare positions, one pair table per iterate.  Returns the
    solution's Z, its residual, and the (table, g) that _re_jacobian takes."""
    q, g = _full_system(Z, epsilon, mu)
    row = np.zeros((1, q.size - 2))
    row[0, 1] = 1.0  # d(gauge)/dZ: the y-component of vortex 1
    for _ in range(max_iter + 1):
        table = _pairs(q)
        z = q[1:]
        res = _re_residual(table, g, z)
        gauge = z[0, 1]
        norm = max(np.abs(res).max(), abs(gauge))
        if history is not None:
            history.append(norm)
        if norm < tol:
            return z, res, (table, g)
        aug = np.vstack([_re_jacobian(table, g), row])
        rhs = -np.concatenate([res, [gauge]])
        step, *_ = np.linalg.lstsq(aug, rhs, rcond=1e-10)
        if not np.all(np.isfinite(step)):
            raise ConvergenceError("Newton step is not finite")
        q = np.vstack([q[:1], z + step.reshape(-1, 2)])
    _pairs(q)  # a last iterate on a collision reports the collision
    raise ConvergenceError(f"no convergence to {tol} within {max_iter} iterations")


def newton_solve(initial, tol=1e-12, max_iter=50, history=None):
    """Polish a relative-equilibrium guess to residual infinity-norm < tol.

    The rotational gauge (weak vortex 1 on the positive x-axis) is enforced
    as an appended constraint row, and each step solves the augmented
    (2N+1)-row system in the least-squares sense because the rotational
    null direction makes the square Jacobian singular.
    """
    z, _, _ = _newton(initial.Z, initial.epsilon, initial.mu, tol, max_iter, history)
    return HelioConfig(z, initial.epsilon, initial.mu)


# -- full-system linear stability --------------------------------------------

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


def _stability(configs, jacobians, tol=1e-6):
    """full_system_stability of configurations sharing their weights, given
    their Jacobians: one null-space SVD, reduction and eigvals call per
    constraint rank, and the cluster check per configuration."""
    Z = np.stack([config.Z for config in configs])
    B = _symplectic_form(np.array([config.epsilon for config in configs]), configs[0].mu)
    rows = [v.reshape(len(Z), 1, -1) @ B for v in (_perp(Z), Z)]
    reports = [None] * len(Z)
    for records, Q in _null_space(np.concatenate(rows, axis=1)):
        reduced = Q.transpose(0, 2, 1) @ np.stack(jacobians)[records] @ Q
        for k, A, eigvals in zip(records, reduced, np.linalg.eigvals(reduced)):
            if not eigvals.imag.any():  # eigvals of A alone would be real
                eigvals = eigvals.real
            cut = tol * max(1.0, float(np.abs(eigvals).max(initial=0.0)))
            max_real = float(np.abs(eigvals.real).max(initial=0.0))
            stable = max_real <= cut and _semisimple(A, eigvals, cut)
            order = np.lexsort((eigvals.real, eigvals.imag))
            reports[k] = FullStabilityReport(
                eigenvalues=tuple(complex(v) for v in eigvals[order]),
                verdict="stable" if stable else "unstable", max_real_part=max_real)
    return reports


def full_system_stability(config, tol=1e-6):
    """Spectral stability of the rotating-frame linearization.

    The rotation and scaling directions span an invariant subspace carrying
    a forced nilpotent block; the spectrum is taken on its skew-orthogonal
    complement and the verdict is stable exactly when that spectrum is
    purely imaginary and semisimple.  Eigenvalues within tol*scale of one
    another form a cluster; a cluster of k is semisimple when reduced - lam*I
    has k singular values within tol*scale, and a lone eigenvalue always is.
    Zero total circulation raises CirculationError, a ValueError.
    """
    if config.epsilon == 0.0:
        raise ValueError("full-system stability needs epsilon > 0")
    return _stability([config], [re_jacobian(config)], tol)[0]


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
    is no such polygon when the right-hand side is not positive.
    """
    if N < 2:
        raise ValueError("polygon needs at least two weak vortices")
    R2, missing = _polygon_radius2(N, mu_scalar, epsilon)
    if not R2 > 0.0:
        raise ValueError(missing)
    angles = 2.0 * math.pi * np.arange(N) / N
    z = math.sqrt(R2) * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return HelioConfig(z, epsilon, (mu_scalar,) * N)


@dataclass(frozen=True)
class ContinuationRecord:
    epsilon: float
    config: HelioConfig
    residual: float
    verdict: str


@dataclass(frozen=True)
class ContinuationTrace:
    records: tuple
    mu: CirculationWeights
    failure: str | None = None

    @property
    def final(self):
        return self.records[-1]

    def max_radial_drift(self):
        """max over the trace of max_i |r_i - 1| / eps."""
        return max(np.abs(rec.config.radii - 1.0).max() / rec.epsilon
                   for rec in self.records)

    def csv_rows(self):
        n = len(self.mu)
        header = (["eps"] + [f"r{i+1}" for i in range(n)]
                  + [f"theta{i+1}" for i in range(n)] + ["residual", "verdict"])
        rows = [header]
        for rec in self.records:
            rows.append([f"{rec.epsilon:.10g}"]
                        + [f"{r:.12f}" for r in rec.config.radii]
                        + [f"{t:.12f}" for t in rec.config.angles]
                        + [f"{rec.residual:.3e}", rec.verdict])
        return rows

    def to_dict(self):
        return {
            "mu": list(self.mu.mu),
            "failure": self.failure,
            "records": [
                {"epsilon": rec.epsilon, "residual": rec.residual,
                 "verdict": rec.verdict, **rec.config.to_dict()}
                for rec in self.records
            ],
        }


def _epsilon_schedule(eps_max, step):
    if eps_max < 0.0 or step <= 0.0:
        raise ValueError("eps_max must be non-negative and step positive")
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

    Walks eps from `step` to `eps_max`, seeding each Newton solve with the
    previous solution and recording the full-system stability verdict;
    eps_max = 0 checks the start and returns an empty trace.  A failed
    solve ends the walk and returns the partial trace with a failure
    marker instead of raising, as does zero total circulation, before its
    solve.  One table per iterate, one stability batch per walk: each
    solve's converged residual and Jacobian are kept for it.
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
    meet at the strong one, and the solve reports the collision.
    """
    schedule = _epsilon_schedule(eps_max, step)
    # R^2 is linear in eps, so the steps it allows are a prefix
    reached = [eps for eps in schedule if _polygon_radius2(N, mu_scalar, eps)[0] >= 0.0]
    trace = _walk(polygon_family(N, mu_scalar, 0.0), reached, tol)
    if len(reached) < len(schedule) and trace.failure is None:
        eps = schedule[len(reached)]
        missing = _polygon_radius2(N, mu_scalar, eps)[1]
        trace = replace(trace, failure=f"eps={eps:.6g}: {missing}")
    return trace


def _walk(current, schedule, tol):
    """The continuation trace from the eps = 0 configuration `current`
    through the couplings of `schedule`."""
    weights, mu = current.mu, current.mu.array
    solved, residuals, jacobians = [], [], []
    failure = None
    for eps in schedule:
        try:
            _total_circulation(eps * mu)  # the stability batch divides by it
            z, res, evaluation = _newton(current.Z, eps, weights, tol)
        except (CirculationError, ConvergenceError, CollisionError) as exc:
            failure = f"eps={eps:.6g}: {exc}"
            break
        current = HelioConfig(z, eps, weights)
        solved.append(current)
        residuals.append(float(np.abs(res).max()))
        jacobians.append(_re_jacobian(*evaluation))
    reports = _stability(solved, jacobians) if solved else []
    records = tuple(ContinuationRecord(epsilon=config.epsilon, config=config,
                                       residual=residual, verdict=report.verdict)
                    for config, residual, report in zip(solved, residuals, reports))
    return ContinuationTrace(records=records, mu=weights, failure=failure)


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
