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

from dataclasses import dataclass, field

import numpy as np

from vortexre.errors import CollisionError, NotACriticalPointError

_COLLISION_CHORD = 1e-9  # minimum chord distance |2 sin(d/2)| between vortices


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

    @classmethod
    def parse(cls, text):
        """Parse a comma-separated weight vector like '2,-1,3' or '1/2,1,1'."""
        parts = [p.strip() for p in text.split(",") if p.strip()]
        values = []
        for p in parts:
            if "/" in p:
                num, den = p.split("/", 1)
                values.append(float(num) / float(den))
            else:
                values.append(float(p))
        return cls(tuple(values))

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

    def is_integral(self, tol=1e-12):
        return all(abs(m - round(m)) <= tol for m in self.mu)


@dataclass(frozen=True)
class AngularConfig:
    """Vortex angles on the circle, first entry gauge-fixed to zero."""

    theta: tuple

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(float(t) for t in self.theta))

    def __len__(self):
        return len(self.theta)

    def __iter__(self):
        return iter(self.theta)

    def __getitem__(self, i):
        return self.theta[i]

    @property
    def gauge_fixed(self):
        return self.theta[0] == 0.0

    @property
    def array(self):
        return np.asarray(self.theta)

    def normalized(self):
        """Rotate so theta_1 = 0 and reduce all angles into [0, 2*pi)."""
        t = (self.array - self.theta[0]) % (2.0 * np.pi)
        t[0] = 0.0
        return AngularConfig(tuple(t))


def _angles(config):
    if isinstance(config, AngularConfig):
        return config.array
    return np.asarray(config, dtype=float)


def _weights(mu):
    if isinstance(mu, CirculationWeights):
        return mu.array
    return CirculationWeights(tuple(mu)).array


def _diagonals(a):
    """Writable view of the diagonal of each matrix in a contiguous (S, N, N) stack."""
    n = a.shape[-1]
    return a.reshape(len(a), n * n)[:, ::n + 1]


def _difference_tables(config):
    """Pairwise-difference tables of one configuration or of a batch.

    Returns (single, cos, sin, u, collided): the tables have shape
    (S, N, N) for S configurations (S = 1 for a single one), and
    `collided` marks the rows in which two vortices coincide.  u is set
    to 1 on the diagonal and on colliding rows, so the callers' formulas
    stay finite.  A single colliding configuration raises CollisionError
    instead.
    """
    theta = _angles(config)
    single = theta.ndim == 1
    theta = np.atleast_2d(theta)
    d = theta[:, :, None] - theta[:, None, :]
    cos = np.cos(d)
    sin = np.sin(d)
    u = 2.0 - 2.0 * cos
    chord = np.sqrt(np.maximum(u, 0.0))
    _diagonals(chord)[...] = np.inf
    collided = chord.min(axis=(1, 2)) < _COLLISION_CHORD
    if single and collided[0]:
        i, j = divmod(int(chord[0].argmin()), chord.shape[1])
        raise CollisionError(f"vortices {i + 1} and {j + 1} coincide")
    _diagonals(u)[...] = 1.0
    u[collided] = 1.0
    return single, cos, sin, u, collided


def potential_value(config, mu):
    """V(theta); finite away from collisions.

    Batches as `potential_gradient` does: one value per row of an (S, N)
    input, NaN on colliding rows.
    """
    w = _weights(mu)
    single, cos, _, u, collided = _difference_tables(config)
    pair = np.outer(w, w) * (cos + 0.5 * np.log(u))
    v = -np.triu(pair, 1).sum(axis=(1, 2))
    v[collided] = np.nan
    return float(v[0]) if single else v


def potential_gradient(config, mu):
    """Gradient of V; its components always sum to zero.

    `config` is one configuration or an (S, N) batch of them.  A batch
    gives one gradient per row, all NaN on rows where two vortices
    coincide.
    """
    w = _weights(mu)
    single, _, sin, u, collided = _difference_tables(config)
    t = sin * (-1.0 + 1.0 / u)
    _diagonals(t)[...] = 0.0
    g = -(w[:, None] * w[None, :] * t).sum(axis=-1)
    g[collided] = np.nan
    return g[0] if single else g


def potential_hessian(config, mu):
    """Symmetric Hessian of V; rows sum to zero (rotational null vector).

    Batches as `potential_gradient` does: (S, N, N) for an (S, N) input,
    all NaN on colliding rows.
    """
    w = _weights(mu)
    single, cos, sin, u, collided = _difference_tables(config)
    gpp = -cos + (cos * u - 2.0 * sin**2) / u**2
    _diagonals(gpp)[...] = 0.0
    H = np.outer(w, w) * gpp
    _diagonals(H)[...] = -H.sum(axis=-1)
    H[collided] = np.nan
    return H[0] if single else H


def weighted_hessian(config, mu):
    """diag(1/mu) times the Hessian; the stability operator."""
    w = _weights(mu)
    return potential_hessian(config, mu) / w[:, None]


@dataclass(frozen=True)
class StabilityReport:
    """Spectral data and verdict for one critical point."""

    hessian_eigs: tuple
    weighted_eigs: tuple
    zero_count: int
    verdict: str        # stable | unstable | degenerate
    extremal_type: str  # minimum | maximum | saddle | degenerate
    gradient_norm: float = field(default=0.0)

    def to_dict(self):
        return {
            "hessian_eigenvalues": list(self.hessian_eigs),
            "weighted_eigenvalues": [[z.real, z.imag] for z in self.weighted_eigs],
            "zero_count": self.zero_count,
            "verdict": self.verdict,
            "extremal_type": self.extremal_type,
            "gradient_norm": self.gradient_norm,
        }


def _rotation_complement_basis(n):
    """Orthonormal basis of the subspace orthogonal to (1,...,1)."""
    basis = np.eye(n)[:, 1:] - np.ones((n, n - 1)) / n
    q, _ = np.linalg.qr(basis)
    return q


def classify(config, mu, tol_grad=1e-10, tol_zero=1e-8):
    """Stability report for a critical point of V.

    Stable means the weighted Hessian has exactly the one rotational
    zero eigenvalue and N-1 real positive ones; more than one zero
    eigenvalue gives the verdict "degenerate".  The zeros beyond the
    rotational one are counted on the quotient by (1,...,1), so weights
    summing to zero, whose rotational zero is defective, count two.  The
    extremal type describes V restricted transverse to rotation, so
    "minimum" means a minimum modulo the rotational symmetry.
    """
    theta = _angles(config)
    w = _weights(mu)
    grad = potential_gradient(theta, w)
    gnorm = float(np.abs(grad).max())
    if gnorm >= tol_grad:
        raise NotACriticalPointError(
            f"gradient infinity-norm {gnorm:.3e} exceeds tolerance {tol_grad:.1e}"
        )
    H = potential_hessian(theta, w)
    hessian_eigs = np.linalg.eigvalsh(H)
    W = H / w[:, None]
    weighted = np.linalg.eigvals(W)
    weighted = weighted[np.lexsort((weighted.imag, weighted.real))]

    scale = max(1.0, float(np.abs(weighted).max()))
    zero_tol = tol_zero * scale
    # W kills (1,...,1); count the rotational zero once and the rest on the
    # quotient by it, where a zero-sum weight vector's 2x2 Jordan block at
    # zero leaves a single, well-conditioned zero instead of a split pair
    quotient = np.linalg.eigvals(W[1:, 1:] - W[0:1, 1:])
    zero_count = 1 + int(np.sum(np.abs(quotient) < zero_tol))

    if zero_count != 1:
        verdict = "degenerate"
    else:
        nonzero = weighted[np.abs(weighted) >= zero_tol]
        real_positive = (nonzero.real > zero_tol) & (
            np.abs(nonzero.imag) < tol_zero * np.maximum(1.0, np.abs(nonzero))
        )
        verdict = "stable" if bool(real_positive.all()) else "unstable"

    Q = _rotation_complement_basis(len(theta))
    restricted = np.linalg.eigvalsh(Q.T @ H @ Q)
    h_tol = tol_zero * max(1.0, float(np.abs(hessian_eigs).max()))
    if np.any(np.abs(restricted) < h_tol):
        extremal = "degenerate"
    elif np.all(restricted > 0):
        extremal = "minimum"
    elif np.all(restricted < 0):
        extremal = "maximum"
    else:
        extremal = "saddle"

    return StabilityReport(
        hessian_eigs=tuple(float(x) for x in hessian_eigs),
        weighted_eigs=tuple(complex(z) for z in weighted),
        zero_count=zero_count,
        verdict=verdict,
        extremal_type=extremal,
        gradient_norm=gnorm,
    )
