"""Reference formulas for the benchmark's checks and its oracle.

Nothing here imports vortexre.  The formulas are written in their own
form (half-angle cotangents for the gradient, the full (1+N)-vortex
Biot-Savart field for the rotating-frame residual), so that a fault in
the program does not reappear in the check that is meant to catch it.

Reduced potential of N weak vortices at angles theta with weights mu:

    V = -sum_{i<j} mu_i mu_j [cos d_ij + log(2 - 2 cos d_ij) / 2],
    dV/dtheta_i = sum_{j != i} mu_i mu_j [sin d_ij - cot(d_ij / 2) / 2].
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def _pair_tables(theta):
    theta = np.asarray(theta, dtype=float)
    d = theta[..., :, None] - theta[..., None, :]
    s = np.sin(0.5 * d)
    n = theta.shape[-1]
    eye = np.eye(n, dtype=bool)
    s = np.where(eye, 1.0, s)
    return d, s, eye


def gradient(theta, mu):
    """dV/dtheta for one configuration (N,) or a batch (S, N)."""
    mu = np.asarray(mu, dtype=float)
    d, s, eye = _pair_tables(theta)
    cot = np.cos(0.5 * d) / s
    term = np.where(eye, 0.0, np.sin(d) - 0.5 * cot)
    return mu * (term * mu).sum(axis=-1)


def hessian(theta, mu):
    """Second derivatives of V; every row sums to zero."""
    mu = np.asarray(mu, dtype=float)
    d, s, eye = _pair_tables(theta)
    off = -np.outer(mu, mu) * (np.cos(d) + 0.25 / s ** 2)
    off = np.where(eye, 0.0, off)
    return off - np.eye(off.shape[-1]) * off.sum(axis=-1)[..., :, None]


def morse_index(theta, mu):
    """Negative eigenvalues of the Hessian transverse to rotation.

    The rotation direction (1,...,1) is in the kernel, so the block on
    theta_2..theta_N carries the whole transverse signature.
    """
    h = hessian(theta, mu)[1:, 1:]
    return int((np.linalg.eigvalsh(h) < 0).sum())


def reduced_verdict(theta, mu, tol=1e-8):
    """'stable' when diag(1/mu) Hessian has N-1 real positive eigenvalues
    next to the rotational zero, else 'unstable'."""
    mu = np.asarray(mu, dtype=float)
    ev = np.linalg.eigvals(hessian(theta, mu) / mu[:, None])
    ev = np.delete(ev, np.argmin(np.abs(ev)))
    scale = max(1.0, float(np.abs(ev).max()))
    ok = (ev.real > tol * scale) & (np.abs(ev.imag) <= tol * scale)
    return "stable" if bool(ok.all()) else "unstable"


def wrapped(x):
    """Angle differences mapped into [-pi, pi)."""
    return (np.asarray(x) + math.pi) % TWO_PI - math.pi


def min_pair_distance(points):
    """Smallest max-norm distance, mod 2*pi, between gauge-fixed points.

    With theta_1 = 0 fixed, two points are the same modulo rotation
    exactly when their angle vectors agree mod 2*pi.
    """
    p = np.asarray(points, dtype=float)
    if len(p) < 2:
        return math.inf
    dist = np.abs(wrapped(p[:, None, :] - p[None, :, :])).max(axis=-1)
    np.fill_diagonal(dist, math.inf)
    return float(dist.min())


# -- census of critical points -------------------------------------------------

def newton_batch(x, mu, iters=40, max_step=0.4):
    """Damped Newton on theta_2..theta_N (theta_1 = 0) for a batch of seeds."""
    mu = np.asarray(mu, dtype=float)
    alive = np.ones(len(x), dtype=bool)
    for _ in range(iters):
        full = np.concatenate([np.zeros((len(x), 1)), x], axis=1)
        with np.errstate(all="ignore"):
            g = gradient(full, mu)[:, 1:]
            h = hessian(full, mu)[:, 1:, 1:]
        ok = np.isfinite(g).all(axis=1) & np.isfinite(h).all(axis=(1, 2))
        alive &= ok
        g[~ok] = 0.0
        h[~ok] = np.eye(h.shape[-1])
        # a singular Hessian marks a seed that cannot be polished
        det_ok = np.abs(np.linalg.det(h)) > 1e-300
        alive &= det_ok
        h[~det_ok] = np.eye(h.shape[-1])
        step = -np.linalg.solve(h, g[..., None])[..., 0]
        big = np.abs(step).max(axis=1, keepdims=True)
        step = np.where(big > max_step, step * (max_step / np.maximum(big, 1e-300)), step)
        x = (x + np.where(alive[:, None], step, 0.0)) % TWO_PI
    return x, alive


def _collision_free(x, min_chord=1e-3):
    full = np.concatenate([np.zeros((len(x), 1)), x], axis=1)
    _, s, eye = _pair_tables(full)
    chord = np.where(eye, np.inf, np.abs(2.0 * s))
    return chord.min(axis=(1, 2)) > min_chord


def dedupe(points, tol=1e-6):
    """Merge gauge-fixed points closer than tol (mod 2*pi); sorted output."""
    kept = []
    for p in sorted(map(tuple, points)):
        p = np.asarray(p)
        if not any(np.abs(wrapped(p - q)).max() < tol for q in kept):
            kept.append(p)
    return [tuple(float(v) for v in q) for q in kept]


def census(mu, per_axis, chunk=20000, tol=1e-10):
    """All critical points of V (theta_1 = 0) reached from a grid of seeds.

    Seeds sit on a per_axis^(N-1) grid shifted off the symmetric lines.
    Returns gauge-fixed angle tuples, sorted and distinct.
    """
    mu = np.asarray(mu, dtype=float)
    dim = len(mu) - 1
    axis = (np.arange(per_axis) + 0.5 + 0.1234) / per_axis * TWO_PI
    mesh = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1)
    seeds = mesh.reshape(-1, dim)
    scale = float(np.abs(np.outer(mu, mu)).sum())
    found = []
    for start in range(0, len(seeds), chunk):
        x, alive = newton_batch(seeds[start:start + chunk], mu)
        alive &= _collision_free(x)
        x = x[alive]
        full = np.concatenate([np.zeros((len(x), 1)), x], axis=1)
        with np.errstate(all="ignore"):
            gnorm = np.abs(gradient(full, mu)).max(axis=1)
        x = x[gnorm < tol * scale]
        x[x > TWO_PI - 1e-9] = 0.0
        keys = np.unique(np.round(x, 7), axis=0)
        found.extend(keys)
        found = list(np.unique(np.round(np.asarray(found), 7), axis=0))
    # polish the rounded representatives back to full precision
    if not found:
        return []
    x, alive = newton_batch(np.asarray(found), mu, iters=8, max_step=1e-3)
    return [(0.0,) + p for p in dedupe(x[alive])]


def morse_sum(points, mu):
    return sum((-1) ** morse_index(p, mu) for p in points)


# -- the full (1+N)-vortex system -------------------------------------------------

def velocities(positions, circulations):
    """Planar velocities of point vortices, as complex numbers.

    Vortex k moves with conj(dz_k/dt) = sum_j Gamma_j / (i (z_k - z_j)),
    i.e. dz_k/dt = i sum_j Gamma_j (z_k - z_j) / |z_k - z_j|^2.
    """
    z = np.asarray(positions, dtype=complex)
    g = np.asarray(circulations, dtype=float)
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    w = g[None, :] / np.conj(diff)
    np.fill_diagonal(w, 0.0)
    return 1j * w.sum(axis=1)


def rotating_residual(record, mu):
    """Max velocity mismatch of a relative equilibrium in its rotating frame.

    The strong vortex (circulation 1) sits at the origin of the record's
    frame and weak vortex i at r_i exp(i theta_i) with circulation
    eps*mu_i.  A relative equilibrium rotating at omega about any centre
    moves every weak vortex relative to the strong one at i*omega*Z_i.
    """
    eps = float(record["epsilon"])
    omega = float(record["omega"])
    z = np.asarray(record["radii"]) * np.exp(1j * np.asarray(record["angles"]))
    pos = np.concatenate([[0.0], z])
    circ = np.concatenate([[1.0], eps * np.asarray(mu, dtype=float)])
    v = velocities(pos, circ)
    rel = v[1:] - v[0]
    return float(np.abs(rel - 1j * omega * z).max())


def hamiltonian(positions, circulations):
    z = np.asarray(positions, dtype=complex)
    g = np.asarray(circulations, dtype=float)
    total = 0.0
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            total -= g[i] * g[j] * math.log(abs(z[i] - z[j]))
    return total


def impulse(positions, circulations):
    z = np.asarray(positions, dtype=complex)
    return complex((np.asarray(circulations, dtype=float) * z).sum())


def polygon_radius(n, mu, eps):
    return math.sqrt(1.0 + mu * eps * (n - 1) / 2.0)


def half_angle(theta):
    """r = cot(theta/2) for theta_2..theta_N, the system's coordinates."""
    t = np.asarray(theta[1:], dtype=float)
    return np.cos(0.5 * t) / np.sin(0.5 * t)
