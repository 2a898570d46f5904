"""Full-plane vortex dynamics, relative equilibria, and continuation in epsilon."""

import hashlib
import json
import math
import re
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    reference_csv_rows,
    reference_full_system_stability,
    reference_integrate,
    reference_lstsq_newton,
    reference_null_space,
    reference_previous_guess_walk,
    reference_re_jacobian,
    reference_re_residual,
    reference_stability_reports,
    reference_trace_dict,
    reference_vortex_field,
    row_config,
    row_configs,
)
from vortexre import dynamics
from vortexre.cli import _continue_rows, main
from vortexre.dynamics import (
    ContinuationTrace,
    HelioConfig,
    continue_family,
    continue_polygon,
    corotating_drift,
    full_system_stability,
    hamiltonian,
    integrate_vortices,
    newton_solve,
    polygon_family,
    re_jacobian,
    re_residual,
    vortex_field,
)
from vortexre.errors import CollisionError, ConvergenceError, NonFiniteError
from vortexre.potential import CirculationWeights

POOLS = Path(__file__).resolve().parents[1] / "vortexbench" / "pools.json"


def mixed_mu():
    # (2, -1, 3) scaled to unit length so epsilon alone sets the
    # perturbation size; critical points ignore positive rescaling
    s = 1.0 / math.sqrt(14.0)
    return CirculationWeights((2.0 * s, -1.0 * s, 3.0 * s))


@pytest.fixture(scope="module")
def stable_saddle():
    """A continuable stable saddle of the (2,-1,3) weight vector."""
    from vortexre.search import find_all_critical_points

    found = find_all_critical_points((2, -1, 3), seeds=1024)
    for theta, report in zip(found.theta, found.reports):
        if (report.verdict, report.extremal_type) == ("stable", "saddle"):
            return theta
    raise AssertionError("expected a stable saddle for these weights")


def helio(theta, mu, eps, radii=None):
    r = radii if radii is not None else [1.0] * len(theta)
    Z = tuple((ri * math.cos(t), ri * math.sin(t)) for ri, t in zip(r, theta))
    return HelioConfig(Z, eps, CirculationWeights(tuple(mu)))


# -- direct pairwise induction ------------------------------------------------


def test_counter_rotating_pair_velocities():
    v = vortex_field(((1.0, 0.0), (-1.0, 0.0)), (1.0, 1.0))
    assert np.allclose(v, [[0.0, 0.5], [0.0, -0.5]], atol=1e-15)


def test_field_momentum_conservation_is_exact():
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        pos = rng.uniform(-2, 2, (n, 2))
        circ = rng.choice([-2.0, -1.0, 1.0, 3.0], n)
        v = vortex_field(pos, circ)
        # weighted velocity sum vanishes term by term
        assert np.abs((circ[:, None] * v).sum(axis=0)).max() < 1e-14


def test_field_accepts_planar_config():
    # a planar configuration is positions q and circulations g, as
    # sequences or arrays alike
    q, g = ((1.0, 0.0), (-1.0, 0.0)), (1.0, 1.0)
    assert np.array_equal(vortex_field(q, g), vortex_field(np.array(q), np.array(g)))


def test_hamiltonian_log_pair():
    assert hamiltonian(((0.0, 0.0), (2.0, 0.0)), (1.0, 1.0)) == pytest.approx(
        -math.log(2.0), abs=1e-14
    )


def test_planar_config_rejects_collisions():
    for evaluate in (vortex_field, hamiltonian):
        with pytest.raises(CollisionError):
            evaluate(((0.0, 0.0), (0.0, 0.0)), (1.0, 1.0))


def test_planar_config_rejects_vortices_closer_than_the_minimum_separation():
    g = (1.0, 1.0, 1.0)
    with pytest.raises(CollisionError, match="vortices 1 and 2"):
        vortex_field(((0.0, 0.0), (1.0, 0.5), (1.0, 0.5 + 1e-13)), g)
    # just outside the minimum separation is allowed
    assert np.isfinite(vortex_field(((0.0, 0.0), (1.0, 0.5), (1.0, 0.5 + 1e-11)), g)).all()


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _field_starts():
    """Random mixed-sign configurations of 2 to 13 vortices, polygon starts
    (exact zeros among their coordinates and velocities), and collinear
    ones (zero velocity components of either sign before the rotation)."""
    rng = np.random.default_rng(29)
    for n in range(2, 14):
        for _ in range(20):
            g = rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 3.0, n)
            yield rng.uniform(-2.0, 2.0, (n, 2)), g
    for n in range(2, 13):
        for mu in (1.3, -0.7, 1.0):
            for eps in (0.0, 0.01, 0.05):
                yield polygon_family(n, mu, eps).to_planar()
    for g in ((1.0, 1.0, 1.0), (-1.0, -1.0, -1.0), (1.0, -2.0, 3.0), (-1.0, 0.0, -2.0)):
        for q in (((0.0, 0.0), (1.0, 0.0), (3.0, 0.0)), ((0.0, 0.0), (0.0, 1.0), (0.0, 3.0)),
                  ((0.0, 0.0), (1.0, 1.0), (2.0, 2.0))):
            yield np.array(q), np.array(g)


def test_the_field_kernel_keeps_the_bits_of_the_reference_field():
    # one kernel per circulation vector, reused across positions, as a run
    # reuses it across stages; each position's field is written into every
    # row of the stage table, through that row's own views
    kernels = {}
    for q, g in _field_starts():
        want = reference_vortex_field(q, g)
        assert _same_bits(vortex_field(q, g), want)
        Y, K, field, _ = kernels.setdefault(tuple(g), dynamics._dormand_prince(g, 1e-10, 1e-10))
        Y[:] = q.ravel()
        K.fill(np.nan)
        for s in range(len(K)):
            field(s)
            assert _same_bits(K[s].reshape(q.shape), want)


def test_the_field_kernel_names_a_colliding_pair():
    Y, _, field, _ = dynamics._dormand_prince(np.ones(3), 1e-10, 1e-10)
    Y[:] = 0.0, 0.0, 1.0, 0.5, 1.0, 0.5 + 1e-13
    with pytest.raises(CollisionError, match="vortices 1 and 2"):
        field(0)


def test_integration_conserves_invariants():
    q = np.array(((1.0, 0.2), (-0.8, 0.1), (0.1, -1.1)))
    circ = np.array((1.0, 2.0, -0.5))
    h0 = hamiltonian(q, circ)
    p0 = (circ[:, None] * q).sum(axis=0)
    times, traj = integrate_vortices(q, circ, 2.0, 1e-10)
    assert times[-1] == pytest.approx(2.0)
    for snapshot in traj:
        assert abs(hamiltonian(snapshot, circ) - h0) < 1e-8
        p = (circ[:, None] * snapshot).sum(axis=0)
        assert np.abs(p - p0).max() < 1e-9


def assert_integrates_as_scipy(q, g, t_final, tol):
    times, states = integrate_vortices(q, g, t_final, tol)
    want_times, want_states = reference_integrate(q, g, t_final, tol)
    assert np.array_equal(times, want_times)
    assert np.array_equal(states, want_states)


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-10, 1e-12])
def test_integration_takes_the_steps_of_scipys_rk45(tol):
    rng = np.random.default_rng(17)
    for n in range(2, 9):
        q, g = polygon_family(n, 1.3, 0.05).to_planar()
        assert_integrates_as_scipy(q, g, 2.0 * math.pi, tol)
        assert_integrates_as_scipy(q + 1e-3 * rng.standard_normal(q.shape), g, 1.37, tol)
    # mixed signs
    q = np.array(((1.0, 0.2), (-0.8, 0.1), (0.1, -1.1)))
    g = np.array((1.0, 2.0, -0.5))
    assert_integrates_as_scipy(q, g, 2.0, tol)
    # one vortex: no field, so the error estimate is 0 and each step is ten
    # times the last
    q, g = np.array([[0.3, -1.2]]), np.array([1.7])
    times, states = integrate_vortices(q, g, 2.0, tol)
    steps = np.diff(times)
    assert steps[0] == 1e-6 and np.allclose(steps[1:-1] / steps[:-2], 10.0)
    assert (states == q).all()
    assert_integrates_as_scipy(q, g, 2.0, tol)


def test_integration_leaves_the_start_alone():
    # the run reads q through a view of it; cmd_simulate reuses q for the
    # starting energy and the frame drift
    q, g = polygon_family(5, 1.3, 0.05).to_planar()
    start = q.copy()
    _, states = integrate_vortices(q, g, 1.0, 1e-9)
    assert _same_bits(q, start)
    assert _same_bits(states[0], start)
    assert not np.shares_memory(states, q)


def test_integration_refuses_a_negative_tolerance_or_a_non_finite_start():
    q = np.array(((1.0, 0.2), (-0.8, 0.1), (0.1, -1.1)))
    g = np.array((1.0, 2.0, -0.5))
    with pytest.raises(ValueError, match="tolerance of at least 0"):
        integrate_vortices(q, g, 1.0, -1e-9)
    q[1, 0] = math.nan
    with pytest.raises(ValueError, match="finite initial state"):
        integrate_vortices(q, g, 1.0, 1e-9)


def test_integration_refuses_a_system_of_no_vortices():
    # the first step size came from the RMS of no coordinates, 0/0
    with pytest.raises(ValueError, match="at least one vortex"):
        integrate_vortices(np.zeros((0, 2)), np.zeros(0), 1.0, 1e-9)


@pytest.mark.parametrize("t_final", [math.inf, -math.inf, math.nan, 0.0, -0.9])
def test_integration_refuses_a_non_finite_end_time(t_final):
    # toward an infinite end the loop's "not there yet" test held at every
    # finite time, so the run never ended; and integration runs forward only
    q = np.array(((1.0, 0.2), (-0.8, 0.1), (0.1, -1.1)))
    g = np.array((1.0, 2.0, -0.5))
    with pytest.raises(ValueError, match="finite end time"):
        integrate_vortices(q, g, t_final, 1e-9)


def test_integration_ends_mid_step_on_the_span():
    q = np.array(((1.0, 0.2), (-0.8, 0.1), (0.1, -1.1)))
    g = np.array((1.0, 2.0, -0.5))
    # a longer run steps over t = 1.37, so the shorter one cuts a step there
    longer, _ = integrate_vortices(q, g, 3.0, 1e-9)
    assert 1.37 not in longer
    times, _ = integrate_vortices(q, g, 1.37, 1e-9)
    assert times[-1] == 1.37 and np.array_equal(times[:-1], longer[:len(times) - 1])
    assert_integrates_as_scipy(q, g, 1.37, 1e-9)


def test_integration_stops_at_the_step_cap(monkeypatch):
    # a run that has accepted _MAX_STEPS steps short of its end raises,
    # naming the time it reached; a run that ends on its last step does not
    assert dynamics._MAX_STEPS == dynamics._MAX_SCHEDULE == 100_000
    q, g = polygon_family(5, 1.2, 0.05).to_planar()
    t_final = 2.0 * math.pi
    times, states = integrate_vortices(q, g, t_final, 1e-10)
    steps = len(times) - 1
    monkeypatch.setattr(dynamics, "_MAX_STEPS", steps)
    again, again_states = integrate_vortices(q, g, t_final, 1e-10)
    assert np.array_equal(again, times) and np.array_equal(again_states, states)
    monkeypatch.setattr(dynamics, "_MAX_STEPS", steps - 1)
    message = f"integration stopped at t = {times[-2]:g} of {t_final:g} after {steps - 1} steps"
    with pytest.raises(ConvergenceError, match=re.escape(message)):
        integrate_vortices(q, g, t_final, 1e-10)


def test_simulate_without_a_trajectory_file_keeps_only_the_last_state(capsys):
    # two weak vortices 1e-3 apart turn about each other some 2e4 radians
    # per unit time, so a run takes thousands of steps; without --out the
    # summary reads the last state alone, and the run's tracemalloc peak
    # does not grow with its steps (it grew by about 400 bytes a step when
    # every state was kept)
    argv = ["simulate", "--mu=1,1", "--start-angles=0,0.001", "--eps", "0.01", "--periods"]
    q, g = HelioConfig.from_angles((0.0, 0.001), (1.0, 1.0), 0.01).to_planar()
    assert main([*argv, "0.0001"]) == 0  # lazy imports and caches filled
    steps, peaks = [], []
    for periods in (0.0005, 0.002):
        t_final = 2.0 * math.pi * periods
        times, states = integrate_vortices(q, g, t_final, 1e-10)
        last_time, last_state = integrate_vortices(q, g, t_final, 1e-10, every_step=False)
        assert _same_bits(last_time, times[-1:]) and _same_bits(last_state, states[-1:])
        steps.append(len(times) - 1)
        tracemalloc.start()
        try:
            assert main([*argv, str(periods)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert steps[0] > 300 and steps[1] > 3 * steps[0]
    assert peaks[1] <= peaks[0] + 2048, (steps, peaks)


@pytest.mark.parametrize("scale, t_final, tol, error", [
    (1e-6, 1e-11, 1e-13, CollisionError),
    (1.0, 3.0, 1e-9, ConvergenceError),
])
def test_a_collapsing_start_fails_as_scipys_rk45_does(scale, t_final, tol, error):
    # circulations 2, 2, -1 at zero angular impulse collapse self-similarly
    # at t = 2.29 * scale^2: at scale 1e-6 a stage brings two vortices within
    # the minimum separation, at scale 1 the step size runs out first
    third = math.sqrt(3.0) * np.array([math.cos(1.0), math.sin(1.0)])
    q = scale * np.array([(-1.0, 0.0), (1.0, 0.0), third])
    g = (2.0, 2.0, -1.0)
    with pytest.raises(error) as ours:
        integrate_vortices(q, g, t_final, tol)
    with pytest.raises(error) as scipys:
        reference_integrate(q, g, t_final, tol)
    assert str(ours.value) == str(scipys.value)


# -- relative-equilibrium residual and Jacobian -------------------------------


def test_zero_epsilon_is_equilibrium_on_unit_circle():
    cfg = helio((0.0, 1.1, 3.9, 4.4), (1, 2, 3, 4), 0.0)
    assert np.abs(re_residual(cfg)).max() < 1e-14


def test_zero_epsilon_radial_residual_vanishes_off_circle():
    # off the unit circle only the angular component survives
    cfg = helio((0.0, 2.0), (1, 1), 0.0, radii=[1.3, 0.7])
    res = re_residual(cfg).reshape(-1, 2)
    z = cfg.Z
    radial = (res * z).sum(axis=1) / np.linalg.norm(z, axis=1)
    assert np.abs(radial).max() < 1e-14


def test_polygon_residual_vanishes_identically():
    for N in (2, 3, 5):
        for eps in (0.0, 0.08):
            cfg = polygon_family(N, 2.0, eps)
            assert np.abs(re_residual(cfg)).max() < 1e-13


def test_polygon_radius_formula():
    cfg = polygon_family(4, 1.0, 0.1)
    assert np.allclose(cfg.radii, math.sqrt(1.15), atol=1e-15)
    assert polygon_family(3, 1.0, 0.0).radii == pytest.approx([1.0, 1.0, 1.0])


def test_polygon_rejects_degenerate_count():
    with pytest.raises(ValueError):
        polygon_family(1, 1.0, 0.1)


def test_polygon_without_an_equilibrium_names_the_condition():
    for mu in (-20.0, -100.0):
        with pytest.raises(ValueError, match="no polygon equilibrium"):
            polygon_family(3, mu, 0.05)


def random_helio(rng, n, eps):
    """Jittered polygon angles, radii in [0.8, 1.2] and mixed-sign weights.

    Neighbours stay at least 0.4 of a polygon side apart, so the Jacobian
    entries stay O(1) and absolute tolerances mean the same at every n.
    """
    theta = 2 * math.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
    mu = rng.choice([-3.0, -1.5, -1.0, 1.0, 2.0, 4.0], n)
    mu[:2] = (-1.0, 2.0)  # both signs at every n
    return helio(theta, mu, eps, radii=rng.uniform(0.8, 1.2, n))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
@pytest.mark.parametrize("eps", [0.0, 0.04])
def test_residual_and_jacobian_match_the_pairwise_formulas(n, eps):
    rng = np.random.default_rng(100 + n)
    for _ in range(4):
        cfg = random_helio(rng, n, eps)
        args = (cfg.Z, cfg.mu.array, cfg.epsilon)
        assert np.abs(re_residual(cfg) - reference_re_residual(*args)).max() < 1e-13
        assert np.abs(re_jacobian(cfg) - reference_re_jacobian(*args)).max() < 1e-12


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(62)
    for n in (2, 2, 5, 5, 12, 12):
        cfg = random_helio(rng, n, 0.04)
        A = re_jacobian(cfg)
        x0 = cfg.Z.ravel()
        h = 1e-7
        fd = np.zeros_like(A)
        for k in range(len(x0)):
            xp, xm = x0.copy(), x0.copy()
            xp[k] += h
            xm[k] -= h
            fp = re_residual(HelioConfig(xp.reshape(-1, 2), cfg.epsilon, cfg.mu))
            fm = re_residual(HelioConfig(xm.reshape(-1, 2), cfg.epsilon, cfg.mu))
            fd[:, k] = (fp - fm) / (2 * h)
        assert np.abs(A - fd).max() < 1e-6


def test_linearization_is_infinitesimally_symplectic():
    from vortexre.dynamics import _symplectic_form

    rng = np.random.default_rng(63)
    for _ in range(5):
        theta = np.sort(rng.uniform(0.2, 2 * math.pi - 0.2, 3))
        cfg = helio(theta, (2, -1, 3), 0.05, radii=rng.uniform(0.9, 1.1, 3))
        A = re_jacobian(cfg)
        B = _symplectic_form(cfg.epsilon, cfg.mu)
        assert np.abs(A.T @ B + B @ A).max() < 1e-12


def test_equilibrium_has_rotation_and_scaling_structure(stable_saddle):
    trace = continue_family(stable_saddle, mixed_mu(), 0.04, step=0.02)
    cfg = row_config(trace, -1)
    A = re_jacobian(cfg)
    z = cfg.Z.ravel()
    Jz = np.empty_like(z)
    Jz[0::2] = -z[1::2]
    Jz[1::2] = z[0::2]
    # rotating the whole configuration is neutral
    assert np.abs(A @ Jz).max() < 1e-9
    # scaling couples into rotation with weight -2 (the frame turns at unit rate)
    assert np.abs(A @ z + 2.0 * Jz).max() < 1e-9


def test_residual_rotation_equivariance():
    rng = np.random.default_rng(64)
    theta = (0.0, 1.0, 2.5)
    cfg = helio(theta, (2, -1, 3), 0.05, radii=[1.05, 0.97, 1.01])
    base = re_residual(cfg).reshape(-1, 2)
    for _ in range(10):
        a = rng.uniform(0, 2 * math.pi)
        rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        res_rot = re_residual(HelioConfig(cfg.Z @ rot.T, cfg.epsilon, cfg.mu)).reshape(-1, 2)
        assert np.abs(res_rot - base @ rot.T).max() < 1e-12


# -- Newton refinement --------------------------------------------------------


def _newton_norms(monkeypatch, guess):
    """newton_solve(guess) and the norm max(|residual|, |gauge|) of each of
    its iterates, read through _re_residual."""
    norms = []
    residual = dynamics._re_residual

    def recording(table, g, z, **kwargs):
        res = residual(table, g, z, **kwargs)
        norms.append(max(np.abs(res).max(), abs(z[0, 1])))
        return res

    monkeypatch.setattr(dynamics, "_re_residual", recording)
    out = newton_solve(guess)
    monkeypatch.setattr(dynamics, "_re_residual", residual)
    return out, norms


def test_newton_accepts_exact_solution_immediately(monkeypatch):
    cfg = polygon_family(4, 1.0, 0.06)
    out, history = _newton_norms(monkeypatch, cfg)
    assert len(history) <= 1
    assert np.abs(out.Z - cfg.Z).max() < 1e-12


def test_newton_restores_unit_circle_at_zero_epsilon():
    rng = np.random.default_rng(65)
    theta = (0.0, 1.2, 2.9)
    cfg = helio(theta, (1, 1, 1), 0.0, radii=1.0 + 0.05 * rng.uniform(-1, 1, 3))
    out = newton_solve(cfg)
    assert np.abs(out.radii - 1.0).max() < 1e-12
    assert np.abs(re_residual(out)).max() < 1e-12


def test_newton_converges_quadratically(monkeypatch):
    cfg = polygon_family(3, 1.0, 0.05)
    out, history = _newton_norms(monkeypatch, HelioConfig(cfg.Z + 0.01, cfg.epsilon, cfg.mu))
    assert np.abs(re_residual(out)).max() < 1e-12
    assert len(history) <= 7
    # successive residuals drop faster than a fixed linear rate
    drops = [b / a for a, b in zip(history, history[1:]) if a > 1e-14]
    assert drops and min(drops) < 1e-2


def test_newton_keeps_first_vortex_on_the_axis(stable_saddle):
    cfg = helio(stable_saddle, (2, -1, 3), 0.02)
    out = newton_solve(cfg)
    assert abs(out.Z[0][1]) < 1e-12
    assert np.abs(re_residual(out)).max() < 1e-12


def test_newton_starts_by_rotating_the_guess_into_the_gauge(monkeypatch):
    # the -4,-7,9 stable saddle turned by -0.5 is rotated back before the
    # first iterate, so it takes the steps of the unturned start
    theta = np.array((0.0, 1.9776959562222671, 5.480254754348461))
    mu = CirculationWeights((-4.0, -7.0, 9.0))
    histories = []
    for turn in (0.0, -0.5):
        out, history = _newton_norms(monkeypatch,
                                     HelioConfig.from_angles(theta + turn, mu, 1e-4))
        histories.append(history)
        assert out.Z[0, 0] > 0.0 and abs(out.Z[0, 1]) < 1e-12
    unturned, turned = histories
    assert len(turned) <= 5
    assert len(turned) == len(unturned)
    assert np.abs(np.subtract(turned, unturned)).max() < 1e-12


def test_newton_keeps_the_side_of_the_axis_weak_vortex_1_is_on():
    cfg = polygon_family(4, 1.0, 0.06)
    for turn in (2.5, -2.5, math.pi / 2):
        c, s = math.cos(turn), math.sin(turn)
        guess = HelioConfig(cfg.Z @ np.array([[c, s], [-s, c]]), cfg.epsilon, cfg.mu)
        out = newton_solve(guess)
        assert out.Z[0, 1] == 0.0
        assert out.Z[0, 0] == math.copysign(out.Z[0, 0], guess.Z[0, 0])
        assert np.abs(out.radii - cfg.radii).max() < 1e-12


def test_newton_displacement_scales_linearly_in_epsilon(stable_saddle):
    mu = mixed_mu()
    for eps in (0.005, 0.01):
        out = newton_solve(helio(stable_saddle, mu.mu, eps))
        drift = np.abs(out.radii - 1.0).max()
        assert 0.1 * eps < drift < 10 * eps


def test_newton_raises_when_it_cannot_converge(monkeypatch, stable_saddle):
    cfg = helio(stable_saddle, (2, -1, 3), 0.02)
    monkeypatch.setattr(dynamics, "_MAX_ITER", 5)
    with pytest.raises(ConvergenceError, match="within 5 iterations"):
        newton_solve(cfg, tol=1e-30)


_SOLVE = np.linalg.solve


def _steps_into_a_collision(monkeypatch, guess, harmless, target):
    """Make solve return `harmless` zero steps, then the step that puts weak
    vortex 2 at `target` (weak vortex 1's position, or the strong vortex's).
    The step is the first 2N entries of the solution's column 0."""
    calls = []

    def solve(a, b):
        solved = _SOLVE(a, b)
        calls.append(None)
        solved = np.zeros_like(solved)
        if len(calls) > harmless:
            solved[2:4, 0] = target - guess.Z[1]
        return solved

    monkeypatch.setattr(np.linalg, "solve", solve)


@pytest.mark.parametrize("harmless", [0, 3])
@pytest.mark.parametrize("onto, message", [
    ("weak", "vortices 1 and 2 coincide"), ("strong", "vortices 0 and 2 coincide")])
def test_newton_iterate_on_a_collision_raises_collision_error(
        monkeypatch, stable_saddle, harmless, onto, message):
    guess = helio(stable_saddle, (2, -1, 3), 0.02)
    target = guess.Z[0] if onto == "weak" else np.zeros(2)
    # a cap of `harmless` steps makes the colliding iterate the last one allowed
    for cap in (harmless, 50):
        monkeypatch.setattr(dynamics, "_MAX_ITER", cap)
        _steps_into_a_collision(monkeypatch, guess, harmless, target)
        with pytest.raises(CollisionError) as info:
            newton_solve(guess)
        assert type(info.value) is CollisionError
        assert str(info.value) == message
    _steps_into_a_collision(monkeypatch, guess, harmless, target)
    trace = continue_family(stable_saddle, (2, -1, 3), 0.02, step=0.005)
    assert len(trace) == 0 and trace.failure == f"eps=0.005: {message}"


# -- spectral stability of the full linearization -----------------------------


def test_stability_requires_interacting_weak_vortices():
    with pytest.raises(ValueError):
        full_system_stability(helio((0.0, 2.0), (1, 1), 0.0))


def test_stable_point_has_imaginary_spectrum():
    trace = continue_family((0.0, math.pi / 3), CirculationWeights((1.0, 1.0)), 0.05, step=0.01)
    report = full_system_stability(row_config(trace, -1))
    assert report.verdict == "stable"
    assert report.max_real_part < 1e-8
    assert all(abs(ev.real) < 1e-8 for ev in report.eigenvalues)


def test_unstable_point_has_real_expansion_rate():
    cfg = polygon_family(3, 1.0, 0.07)  # triangle sits at a potential maximum
    report = full_system_stability(cfg)
    assert report.verdict == "unstable"
    assert report.max_real_part > 0.1


def test_linear_verdict_matches_potential_classification():
    from vortexre.potential import classify
    from vortexre.search import find_all_critical_points, group_into_families

    found = find_all_critical_points((1, 1, 1), seeds=512)
    families = group_into_families(found)
    for fam in families:
        trace = continue_family(
            found.theta[fam[0]], CirculationWeights((1.0, 1.0, 1.0)), 0.02, step=0.01
        )
        report = full_system_stability(row_config(trace, -1))
        assert report.verdict == found.reports[fam[0]].verdict


@pytest.mark.parametrize("step", [5e-5, 1e-4, 2e-4, 5e-4])
def test_close_imaginary_pairs_stay_stable_until_the_krein_collision(step):
    # Two imaginary pairs of this stable saddle approach each other and
    # collide between eps = 5e-4 and 6e-4; before that they are distinct
    # and the spectrum is semisimple, whatever the continuation step.
    theta = (0.0, 1.9776959562222671, 5.480254754348461)
    trace = continue_family(theta, (-4, -7, 9), 10 * step, step=step)
    assert trace.failure is None and len(trace) == 10
    for eps, verdict in zip(trace.epsilon, trace.verdict):
        # every step size lands on eps <= 5e-4 or eps >= 6e-4
        expected = "stable" if eps <= 5e-4 + 1e-12 else "unstable"
        assert verdict == expected, eps


def stability_configs():
    """Polygons N = 2..12 at two weights and couplings, and jittered
    mixed-sign configurations at the same N."""
    rng = np.random.default_rng(90)
    configs = [polygon_family(n, mu, eps) for n in range(2, 13)
               for mu in (1.0, -0.5) for eps in (0.01, 0.05)]
    configs += [random_helio(rng, n, eps) for n in range(2, 13) for eps in (0.01, 0.04)]
    return configs


def stability_constraints(cfg):
    """The two rows whose null space full_system_stability works in."""
    B = dynamics._symplectic_form(cfg.epsilon, cfg.mu)
    return np.vstack([dynamics._perp(cfg.Z).ravel() @ B, cfg.Z.ravel() @ B])


def test_null_space_matches_scipy():
    rng = np.random.default_rng(91)
    low_rank = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 9))
    matrices = [stability_constraints(cfg) for cfg in stability_configs()]
    matrices += [np.zeros((2, 6)), np.vstack([matrices[-1]] * 2), low_rank,
                 low_rank.T, rng.normal(size=(3, 3))]
    # singular values either side of the cut eps * max(M, N) * max(s)
    eps = np.finfo(float).eps
    matrices += [np.diag([1.0, 1.5 * eps]), np.diag([1.0, 3.0 * eps]),
                 np.hstack([np.diag([1.0, 4.0 * eps]), np.zeros((2, 3))])]
    for M in matrices:
        [(records, Q)] = dynamics._null_space(M[None])
        assert list(records) == [0]
        assert_null_space(M, Q[0])
    # one stack holding ranks 0, 1 and 2
    M = np.stack([matrices[0], np.zeros_like(matrices[0]), matrices[0],
                  np.vstack([matrices[0][0]] * 2)])
    found = dynamics._null_space(M)
    assert [list(records) for records, _ in found] == [[1], [3], [0, 2]]
    for records, Q in found:
        for k, basis in zip(records, Q):
            assert_null_space(M[k], basis)


def assert_null_space(M, Q):
    assert Q.shape == reference_null_space(M).shape
    assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max(initial=0.0) < 1e-12
    assert np.abs(M @ Q).max(initial=0.0) < 1e-12


def test_full_system_stability_matches_the_scipy_reduction():
    verdicts = set()
    for cfg in stability_configs():
        ours = full_system_stability(cfg)
        verdict, spectrum = reference_full_system_stability(cfg)
        assert ours.verdict == verdict
        a, b = np.array(ours.eigenvalues), np.array(spectrum)
        assert len(a) == len(b) == 2 * len(cfg.mu) - 2
        gap = np.abs(a[:, None] - b[None, :])
        assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) < 1e-10
        verdicts.add(verdict)
    assert verdicts == {"stable", "unstable"}


def _report_bits(report):
    """A stability report's fields, the numbers by their bits."""
    assert all(type(v) is complex for v in report.eigenvalues)
    return (np.array(report.eigenvalues, dtype=complex).tobytes(), report.verdict,
            float.hex(report.max_real_part))


def _rotation(omega):
    return np.array([[0.0, -omega], [omega, 0.0]])


def test_the_cluster_rule_gives_each_reduced_matrix_of_a_stack_its_verdict(monkeypatch):
    # hand-built 4x4 reduced matrices, taken as they are (each record's null
    # space made the identity): a defective cluster reads unstable and a
    # semisimple one stable, each record of a mixed stack keeps its own
    # verdict, and only the stable candidates with a cluster reach
    # _semisimple
    C, I2, O = _rotation(1.3), np.eye(2), np.zeros((2, 2))
    cases = [
        ("2x2 Jordan block at 0", np.block([[np.diag([1.0], 1), O], [O, C]]), "unstable"),
        ("real 4x4 Jordan form at +-i omega", np.block([[C, I2], [O, C]]), "unstable"),
        ("doubled semisimple pair", np.block([[C, O], [O, C]]), "stable"),
        ("two distinct pairs", np.block([[C, O], [O, _rotation(0.4)]]), "stable"),
        ("a saddle and a pair", np.block([[np.diag([0.5, -0.5]), O], [O, C]]), "unstable"),
    ]
    clustered = {"2x2 Jordan block at 0", "real 4x4 Jordan form at +-i omega",
                 "doubled semisimple pair"}
    semisimple, checked = dynamics._semisimple, []

    def recording(A, eigvals, cut):
        checked.append(A.tobytes())
        return semisimple(A, eigvals, cut)

    monkeypatch.setattr(dynamics, "_semisimple", recording)
    monkeypatch.setattr(dynamics, "_null_space", lambda M: [
        (np.arange(len(M)), np.broadcast_to(np.eye(4), (len(M), 4, 4)))])
    config = polygon_family(2, 1.0, 0.01)
    for order in ([0], [1], [2], [3], [4], [0, 1, 2, 3, 4], [4, 2, 0, 3, 1, 2]):
        names, matrices, verdicts = zip(*(cases[k] for k in order))
        Z = np.repeat(config.Z[None], len(order), axis=0)
        epsilon = np.full(len(order), config.epsilon)
        args = Z, epsilon, config.mu, np.array(matrices)
        checked.clear()
        reports = dynamics._stability(*args)
        assert tuple(report.verdict for report in reports) == verdicts, names
        assert checked == [m.tobytes() for name, m in zip(names, matrices) if name in clustered]
        assert list(map(_report_bits, reports)) == list(
            map(_report_bits, reference_stability_reports(*args)))


@pytest.fixture(scope="module")
def pool_walks():
    """(eps = 0 start, trace) of a 30-step walk from every continue_n3 pool
    start and from the polygons 2..12 at two weights."""
    pools = json.loads(POOLS.read_text())
    starts = [HelioConfig.from_angles(e["angles"], e["mu"], 0.0) for e in pools["continue_n3"]]
    walks = [(start, continue_family(e["angles"], e["mu"], 0.024, step=0.0008))
             for start, e in zip(starts, pools["continue_n3"])]
    walks += [(polygon_family(n, mu, 0.0), continue_polygon(n, mu, 0.024, step=0.0008))
              for n in range(2, 13) for mu in (1.37, -0.7)]
    return walks


def test_every_walk_verdict_matches_the_single_config_reference(pool_walks):
    verdicts = set()
    for _, trace in pool_walks:
        assert trace.failure is None and len(trace) == 30
        for config, walked in zip(row_configs(trace), trace.verdict):
            verdict, _ = reference_full_system_stability(config)
            assert walked == verdict
            verdicts.add(verdict)
    assert verdicts == {"stable", "unstable"}


def test_each_walk_report_is_the_single_config_report(pool_walks):
    # record by record, the walk's stability batch (on the Jacobians a walk
    # keeps, re_jacobian of each record) against full_system_stability of
    # the record and the per-record loop the batch replaced: the eigenvalue
    # tuple bit for bit and in order, max_real_part and the verdict
    for _, trace in pool_walks:
        configs = row_configs(trace)
        jacobians = np.array([re_jacobian(config) for config in configs])
        batch = dynamics._stability(trace.Z, trace.epsilon, trace.mu, jacobians)
        loop = reference_stability_reports(trace.Z, trace.epsilon, trace.mu, jacobians)
        assert tuple(report.verdict for report in batch) == trace.verdict
        for report, looped, config in zip(batch, loop, configs):
            single = full_system_stability(config)
            assert _report_bits(report) == _report_bits(single) == _report_bits(looped)


def test_each_walk_step_is_a_fresh_newton_solve_from_its_predicted_guess(pool_walks):
    # the walk's buffers carry nothing from one solve to the next, and each
    # solve starts from the quadratic through the last three solutions at
    # their own eps, the eps = 0 start counting as the first
    for start, trace in pool_walks:
        assert start.Z[0, 1] == 0.0  # in the gauge already
        passed = [(0.0, start.Z)]
        for eps, z in zip(trace.epsilon.tolist(), trace.Z):
            guess = dynamics._extrapolate(passed[-3:], eps) if len(passed) > 1 else start.Z
            solved = newton_solve(HelioConfig(guess, eps, start.mu))
            assert solved.Z.tobytes() == z.tobytes()
            passed.append((eps, z))


def test_the_predictor_is_the_lagrange_polynomial_through_its_points():
    # exact on a quadratic in eps, with unequal spacing, to rounding
    rng = np.random.default_rng(3)
    a, b, c = rng.normal(size=(3, 4, 2))

    def Z(eps):
        return a + b * eps + c * eps ** 2

    points = [(eps, Z(eps)) for eps in (0.0, 0.0008, 0.0013)]
    for eps in (0.002, 0.0031):
        assert np.abs(dynamics._extrapolate(points, eps) - Z(eps)).max() < 1e-14
    # two points give their line
    line = dynamics._extrapolate([(1.0, a), (3.0, b)], 4.0)
    assert np.abs(line - (1.5 * b - 0.5 * a)).max() < 1e-15


def test_a_walk_record_is_the_checked_configuration_of_its_solution(pool_walks):
    # a row skips HelioConfig's collision check, which the solve's own pair
    # table has made: each is a configuration that check accepts, and the
    # columns are float arrays of one length, Z read-only
    for _, trace in pool_walks:
        assert trace.Z.dtype == trace.epsilon.dtype == trace.residual.dtype == float
        assert not trace.Z.flags.writeable
        assert trace.Z.shape == (len(trace), len(trace.mu), 2)
        assert len(trace.epsilon) == len(trace.residual) == len(trace.verdict) == len(trace)
        for z, config in zip(trace.Z, row_configs(trace)):
            assert config.Z.tobytes() == z.tobytes()
            assert config.mu is trace.mu


@pytest.mark.parametrize("error", [ConvergenceError, CollisionError])
def test_a_failed_predicted_solve_is_solved_again_from_the_step_before(
        monkeypatch, stable_saddle, error):
    # the third step's solve from its extrapolated guess fails; the walk
    # solves that step again from the second record and walks on
    calls = []
    newton = dynamics._newton

    def failing_once(Z, eps, *args, wary=False, **kwargs):
        calls.append((eps, wary, Z.copy()))
        if wary and len(calls) == 3:
            raise error("made to fail")
        return newton(Z, eps, *args, wary=wary, **kwargs)

    monkeypatch.setattr(dynamics, "_newton", failing_once)
    trace = continue_family(stable_saddle, mixed_mu(), 0.02, step=0.005)
    assert trace.failure is None and len(trace) == 4
    eps = trace.epsilon.tolist()
    assert [(e, wary) for e, wary, _ in calls] == [
        (eps[0], False), (eps[1], True), (eps[2], True), (eps[2], False), (eps[3], True)]
    first, second, third, _ = row_configs(trace)
    assert calls[3][2].tobytes() == second.Z.tobytes()
    again = newton_solve(HelioConfig(second.Z, eps[2], second.mu))
    assert third.Z.tobytes() == again.Z.tobytes()
    # the step after extrapolates through the solution found again
    points = [(eps[k], config.Z) for k, config in enumerate((first, second, third))]
    assert calls[4][2].tobytes() == dynamics._extrapolate(points, eps[3]).tobytes()


def test_a_wary_newton_gives_up_before_it_takes_a_least_squares_step(monkeypatch):
    # at the 11-gon's bifurcation mu*eps = 4/(N-1)^2 the bordered matrix is
    # singular: a plain solve takes the least-squares step there, a wary one
    # raises before taking any.  From the polygon of the step before, the
    # probe reads 52, 3.1e4 and 1.1e10 on the plain solve's three steps
    config = polygon_family(11, 2.0, 0.02)
    guess = polygon_family(11, 2.0, 0.0192).Z
    lstsq, sent = np.linalg.lstsq, []

    def counting(*args, **kwargs):
        sent.append(True)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    buffers = dynamics._newton_buffers(11)
    with pytest.raises(ConvergenceError, match="nearly singular"):
        dynamics._newton(guess, 0.02, config.mu, buffers, 1e-12, wary=True)
    assert sent == []
    z, _, _ = dynamics._newton(guess, 0.02, config.mu, buffers, 1e-12)
    assert sent and np.abs(dynamics._radii(z) - config.radii).max() < 1e-12


def _residuals_per_step(monkeypatch, walks):
    """Residual evaluations per record over the walks, and the traces."""
    calls = [0]
    residual = dynamics._re_residual

    def counting(*args, **kwargs):
        calls[0] += 1
        return residual(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_re_residual", counting)
    traces = [walk() for walk in walks]
    monkeypatch.setattr(dynamics, "_re_residual", residual)
    assert all(trace.failure is None for trace in traces)
    return calls[0] / sum(len(trace) for trace in traces)


def test_the_extrapolated_guess_saves_newton_iterates(monkeypatch):
    # per step, from the solution before: 4.07 on the pool and 3.48 on the
    # polygons; from the line through the last two: 3.11 and 2.69; from the
    # quadratic: 2.82 and 2.07
    entries = json.loads(POOLS.read_text())["continue_n3"]
    pool = [lambda e=e: continue_family(e["angles"], e["mu"], 0.024, step=0.0008)
            for e in entries]
    polygons = [lambda n=n, mu=mu: continue_polygon(n, mu, 0.024, step=0.0008)
                for n in range(2, 13) for mu in (1.37, -0.7, 2.0)]
    assert _residuals_per_step(monkeypatch, pool) < 3.0
    assert _residuals_per_step(monkeypatch, polygons) < 2.3
    # the start is turned into the gauge first, so the first line does not
    # turn: a start off the gauge takes the iterates of the one in it
    turned = [lambda e=e, turn=turn: continue_family(np.add(e["angles"], turn), e["mu"],
                                                     0.024, step=0.0008)
              for e in entries[:10] for turn in (0.0, 2.0)]
    assert (_residuals_per_step(monkeypatch, turned[::2])
            == _residuals_per_step(monkeypatch, turned[1::2]))


def test_a_walk_keeps_arrays_of_its_own(monkeypatch, stable_saddle):
    # the trace's Z and the kept Jacobians are copies: they share no memory
    # with each other or with the buffers the next solve overwrites, and Z
    # is read-only
    made, kept = [], []
    newton_buffers, stability = dynamics._newton_buffers, dynamics._stability

    def recording_buffers(N):
        made.append(newton_buffers(N))
        return made[-1]

    def recording_stability(Z, epsilon, mu, jacobians):
        kept.append((Z, jacobians))
        return stability(Z, epsilon, mu, jacobians)

    monkeypatch.setattr(dynamics, "_newton_buffers", recording_buffers)
    monkeypatch.setattr(dynamics, "_stability", recording_stability)
    trace = continue_family(stable_saddle, (2, -1, 3), 0.02, step=0.005)
    (buffers,), ((Z, jacobians),) = made, kept
    assert trace.failure is None and len(trace) == len(jacobians) == 4
    assert Z is trace.Z and not trace.Z.flags.writeable

    def arrays(item):
        if isinstance(item, np.ndarray):
            return [item]
        return [a for part in item for a in arrays(part)]

    buffers = arrays(buffers)
    assert not any(np.shares_memory(a, b) for a in (trace.Z, jacobians)
                   for b in buffers + [trace.epsilon, trace.residual])
    assert not np.shares_memory(trace.Z, jacobians)
    for config, jacobian in zip(row_configs(trace), jacobians):
        # the Jacobian kept is the one at the converged iterate
        assert jacobian.tobytes() == re_jacobian(config).tobytes()


def test_a_walk_binds_its_buffers_once(monkeypatch, stable_saddle):
    # the pair-table, field and Jacobian buffers are made a fixed number of
    # times a walk, whatever its length, not once per iterate: the pair
    # table's for the start's collision check and the Newton buffers, the
    # other two for the Newton buffers alone
    made = Counter()
    for name in ("_pair_buffers", "_field_buffers", "_jacobian_buffers"):
        def recording(*args, name=name, make=getattr(dynamics, name)):
            made[name] += 1
            return make(*args)

        monkeypatch.setattr(dynamics, name, recording)
    for steps in (6, 60):
        made.clear()
        trace = continue_family(stable_saddle, (2, -1, 3), steps * 0.0004, step=0.0004)
        assert trace.failure is None and len(trace) == steps
        assert made == {"_pair_buffers": 2, "_field_buffers": 1, "_jacobian_buffers": 1}


def test_the_trace_export_is_the_per_record_export(pool_walks):
    for _, trace in pool_walks:
        assert json.dumps(trace.to_dict()) == json.dumps(reference_trace_dict(trace))
        assert _continue_rows(trace.to_dict()) == reference_csv_rows(trace)
    empty = continue_polygon(3, 1.0, 0.0)
    assert empty.to_dict() == reference_trace_dict(empty) == {
        "mu": [1.0, 1.0, 1.0], "failure": None, "records": []}
    assert _continue_rows(empty.to_dict()) == reference_csv_rows(empty)


# -- continuation in epsilon --------------------------------------------------


def test_continuation_records_schedule_and_residuals(stable_saddle):
    trace = continue_family(stable_saddle, mixed_mu(), 0.05, step=0.005)
    assert trace.failure is None
    assert len(trace) == 10
    assert trace.epsilon[-1] == pytest.approx(0.05)
    eps = trace.epsilon.tolist()
    assert eps == sorted(eps)
    assert (trace.residual < 1e-10).all()
    assert trace.verdict == ("stable",) * 10


def test_a_schedule_over_the_cap_is_refused_before_it_is_built():
    # a step of 1e-300 once appended one float per step until the process
    # was killed; the count is arithmetic, so these cost nothing
    assert len(dynamics._epsilon_schedule(1.0, 1e-5)) == dynamics._MAX_SCHEDULE == 100_000
    for eps, step, count in ((1.0, 9.99e-6, "100101"), (0.01, 1e-300, "1e+298"),
                             (1.0, 5e-324, "inf")):
        message = re.escape(f"takes {count} steps, more than 100000")
        with pytest.raises(ValueError, match=message):
            dynamics._epsilon_schedule(eps, step)
        with pytest.raises(ValueError, match=message):
            continue_polygon(3, 1.0, eps, step)
    for eps, step in ((math.nan, 0.01), (0.1, math.nan), (-0.1, 0.01), (0.1, 0.0)):
        with pytest.raises(ValueError, match="non-negative and step positive"):
            dynamics._epsilon_schedule(eps, step)
    with pytest.raises(ValueError, match="non-negative and step positive"):
        continue_polygon(3, 1.0, math.nan)


def test_continuation_requires_a_critical_start():
    with pytest.raises(Exception):
        continue_family((0.0, 0.3, 0.7), mixed_mu(), 0.02, step=0.01)


def test_continuation_is_step_size_robust(stable_saddle):
    coarse = continue_family(stable_saddle, mixed_mu(), 0.04, step=0.01)
    fine = continue_family(stable_saddle, mixed_mu(), 0.04, step=0.005)
    assert np.abs(coarse.Z[-1] - fine.Z[-1]).max() < 1e-8
    # max over the trace of max_i |r_i - 1| / eps
    drift = [max(np.abs(config.radii - 1.0).max() / config.epsilon
                 for config in row_configs(trace)) for trace in (coarse, fine)]
    assert drift[0] == pytest.approx(drift[1], rel=1e-6)


def test_continuation_reports_failure_without_raising(stable_saddle):
    trace = continue_family(stable_saddle, mixed_mu(), 0.05, step=0.005, tol=1e-30)
    assert trace.failure is not None
    assert isinstance(trace, ContinuationTrace)


def test_trace_csv_layout(stable_saddle):
    trace = continue_family(stable_saddle, mixed_mu(), 0.01, step=0.005)
    rows = _continue_rows(trace.to_dict())
    assert rows[0] == [
        "eps",
        "r1",
        "r2",
        "r3",
        "theta1",
        "theta2",
        "theta3",
        "residual",
        "verdict",
    ]
    assert len(rows) == 1 + len(trace)
    assert float(rows[1][0]) == pytest.approx(0.005)


def test_strong_vortex_offset_scales_with_epsilon():
    mu = CirculationWeights((1.0, 1.0, 1.0))
    small = continue_family((0.0, math.pi / 4, 7 * math.pi / 4), mu, 0.01, step=0.005)
    large = continue_family((0.0, math.pi / 4, 7 * math.pi / 4), mu, 0.04, step=0.005)
    off_small = np.linalg.norm(row_config(small, -1).strong_vortex_offset())
    off_large = np.linalg.norm(row_config(large, -1).strong_vortex_offset())
    assert off_large > off_small
    assert off_large < 0.2  # stays a perturbation


def test_continued_equilibrium_corotates(stable_saddle):
    trace = continue_family(stable_saddle, mixed_mu(), 0.05, step=0.01)
    config = row_config(trace, -1)
    q, g = config.to_planar()
    _, states = integrate_vortices(q, g, math.pi, 1e-10)
    assert corotating_drift(q, states[-1], math.pi) < 1e-6


def test_helio_round_trips():
    cfg = helio((0.0, 1.0, 2.0), (2, -1, 3), 0.03, radii=[1.1, 0.9, 1.2])
    again = HelioConfig.from_angles(cfg.angles, cfg.mu, cfg.epsilon)
    assert np.allclose(again.Z * cfg.radii[:, None], cfg.Z)
    assert not cfg.Z.flags.writeable
    q, circ = cfg.to_planar()
    cov = (circ[:, None] * q).sum(axis=0) / circ.sum()
    assert np.abs(cov).max() < 1e-14
    d = cfg.to_dict()
    assert set(d) >= {"angles", "radii", "mu", "epsilon", "omega"}


def test_helio_validation():
    with pytest.raises(ValueError):
        HelioConfig(((1.0, 0.0),), 0.05, CirculationWeights((1.0, 1.0)))
    with pytest.raises(CollisionError):
        HelioConfig(
            ((1.0, 0.0), (1.0, 0.0)), 0.05, CirculationWeights((1.0, 1.0))
        )


@pytest.mark.parametrize("Z,eps,message", [
    (((math.nan, 0.0), (0.0, 1.0)), 0.01, "positions must be finite"),
    (((1.0, 0.0), (0.0, 1.0)), math.inf, "epsilon must be finite, not inf"),
    (((1.0, 0.0), (0.0, 1.0)), math.nan, "epsilon must be finite, not nan"),
])
def test_helio_refuses_what_is_not_finite(Z, eps, message):
    # a NaN position went on to an SVD that did not converge in Newton, an
    # infinite coupling read as a zero total circulation, and a NaN coupling
    # reached the stability analysis as a LinAlgError
    with pytest.raises(ValueError, match=message):
        HelioConfig(Z, eps, (1, 1))


@pytest.mark.parametrize("Z,eps,mu,message", [
    (((1.0, 0.0), (0.0, 1.0)), 1e300, (1e10, 1), "circulations eps\\*mu must be finite"),
    (((1e200, 0.0), (0.0, 1.0)), 0.01, (1, 1), "squared pair distances must be finite"),
    # each weak vortex is 1e154 from the strong one, but 2e154 from the other
    (((1e154, 0.0), (-1e154, 0.0)), 0.01, (1, 1), "squared pair distances must be finite"),
])
def test_helio_refuses_finite_inputs_whose_products_overflow(Z, eps, mu, message):
    # these constructed, and newton_solve then raised numpy's LinAlgError;
    # the overflow itself warns nothing, which tier-1 would turn into an error
    with pytest.raises(NonFiniteError, match=message):
        HelioConfig(Z, eps, mu)


def test_to_planar_refuses_a_strong_vortex_offset_that_overflows():
    # the 3-gon's radius is 1e150, so eps*mu*Z is 1e450 in the offset of
    # the strong vortex; the check runs under np.errstate, so nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config = polygon_family(3, 1, 1e300)
        with pytest.raises(NonFiniteError, match="squared pair distances must be finite"):
            config.to_planar()


def test_helio_rejects_a_weak_vortex_at_the_strong_one():
    # vortex 0 is the strong vortex, weak vortex k is vortex k
    with pytest.raises(CollisionError, match="vortices 0 and 2"):
        HelioConfig(((1.0, 0.0), (0.0, 0.0)), 0.05, CirculationWeights((1.0, 1.0)))


# -- frozen command-line output -----------------------------------------------

_N3_STARTS = (
    ("-3,8,-9", "0.0,0.7289956572902648,4.163205363055863"),
    ("-9,4,-1", "0.0,2.9786083796454177,2.3895954069277354"),
)

# sha256 of stdout and of the --out file, recorded before the planar
# configuration became a pair of arrays; every entry that runs a Newton
# solve (each continue, and simulate --polish) was recorded again when each
# Newton step became one square bordered solve, after
# test_the_bordered_newton_walks_where_the_least_squares_one_walked held.
# Every continue entry was recorded again when each step's solve began
# from the quadratic through the last three solutions, which moves the
# converged points in their last bits (in these walks and those of
# CONTINUE_DIGESTS, angles by at most 8.5e-12 and radii by 8.7e-13), after
# test_the_extrapolated_walk_lands_where_the_previous_guess_walk_landed held
DYNAMICS_DIGESTS = {
    ("continue", "--polygon", "4", "--mu", "1", "--eps", "0.024", "--step", "0.0008",
     "--format", "json"):
        ("ad004de1efa2f2e44b27d257dc8006c9ea3f1fc7f9d4381b574650aa094f1add", None),
    ("continue", "--polygon", "8", "--mu", "1.37", "--eps", "0.024", "--step", "0.0008",
     "--format", "json"):
        ("9cab091ee9ecdb7672505f2d6d84afd8b3dbe80b86c56f8113236ae4ccfea579", None),
    ("continue", "--polygon", "12", "--mu", "1.37", "--eps", "0.024", "--step", "0.0008",
     "--format", "json"):
        ("3303cd3a13bc695515015f22550c5d68fcc6392d86bb4702787ba96e0ccc0f9f", None),
    ("continue", "--mu=" + _N3_STARTS[0][0], "--start-angles=" + _N3_STARTS[0][1],
     "--eps", "0.024", "--step", "0.0004", "--format", "json"):
        ("08829402b76a11e79cdb392db962f401390ec2ab03b80f15ebdb48183873571f", None),
    ("continue", "--mu=" + _N3_STARTS[1][0], "--start-angles=" + _N3_STARTS[1][1],
     "--eps", "0.024", "--step", "0.0004", "--format", "json"):
        ("f7ca7ec38aa6454c3c085d8734714dfce60755ec5795b048fa1af8be87ded124", None),
    ("simulate", "--polygon", "3", "--mu", "1", "--eps", "0.05"):
        ("739baaa1e79a70759f47c33d3e0730d8c43aed2998eb6f14cdfd29167916f168",
         "43d50d4a1f2c7c8a2523d32d333750db21e74bbf9a9c6e42cfc00586a9f16127"),
    ("simulate", "--polygon", "5", "--mu", "1.2", "--eps", "0.05", "--periods", "3"):
        ("0d35e57386018f2f76dbcf20ad5ed4a775f9f3c55be1054edf0d014137fc2177",
         "1b329f20bc6447912ddf0ac438dd5635ef851b3e005a5a5ac6190797e5e83959"),
    # recorded before the angles and positions became plain arrays
    ("continue", "--mu=2,-1,3", "--select", "stable saddle", "--eps", "0.02",
     "--step", "0.005"):
        ("99526a82d0948e5bc88166f75c292948aacc19934a637c105c8d76d4381798bc", None),
    ("continue", "--mu=2,-1,3", "--point-index", "3", "--eps", "0.02", "--step", "0.005",
     "--format", "table"):
        ("02f52aa4e9092db97c145d1eb7873bbcd7b6203f5406e304fb4acaed8444f526", None),
    ("continue", "--mu=1,1,1", "--normalize", "--eps", "0.02", "--step", "0.005",
     "--format", "json"):
        ("2a6a810ead024f8254b7c3450efcb2a27323e7f0f82207536c50c730a446ac90", None),
    ("simulate", "--mu=2,-1,3", "--start-angles=0,1.9,4.1", "--eps", "0.01", "--polish"):
        ("004733ec2e12f6a055f8093637c641602559d49a216b181eaee94fceaa07fbfb", None),
    ("simulate", "--mu=2,-1,3", "--start-angles=0,1.9,4.1", "--eps", "0.01",
     "--radii=1,1.01,0.99"):
        ("86308d470db1d31e0ef68bdb25859580d0bffa1b2677304c2fc5467d52388647",
         "d6d16e83306ddf725881dcfbf83325dac2a20f326ab6809844981346f7f0b723"),
    # the benchmark's simulate shape and a mixed-sign start, recorded before
    # the integrator evaluated the field through one buffered kernel per run
    ("simulate", "--polygon", "6", "--mu", "1.3", "--eps", "0.05", "--periods", "3"):
        ("6751c17baff5d1b5f9028cb1464ce944499c35ddea43179f0035f33270cf67b6",
         "aa322cc3ff71b474d5173e5621768435a61acb6fb35200a06a66bc0634bc3993"),
    ("simulate", "--mu=1.5,-0.7,2,-1.2", "--start-angles=0,1.3,2.9,4.4", "--eps", "0.03",
     "--periods", "2"):
        ("d52238a1036c896fa124c8bcd2493f81471fd1548019685754d78b6164bd4002",
         "b6a40039986201d6c54054e6403a1a78a4e23daba872d282f01abddb5fd0838f"),
}


@pytest.mark.parametrize("argv", DYNAMICS_DIGESTS)
def test_dynamics_output_is_frozen(capsys, tmp_path, argv):
    want_out, want_file = DYNAMICS_DIGESTS[argv]
    target = tmp_path / "trajectory.csv"
    extra = ["--out", str(target)] if want_file else []
    assert main(list(argv) + extra) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == want_out
    if want_file:
        assert hashlib.sha256(target.read_bytes()).hexdigest() == want_file


_NO_POLYGON = "eps=0.035: no polygon equilibrium: 1 + mu*eps*(N-1)/2 = -0.05 is not positive"
_STOPPED = f"continuation stopped early: {_NO_POLYGON}\n"

_MORE_N3_STARTS = (
    ("-6,1,6", "0.0,2.4749717773203512,0.9997356620363427"),
    ("11,10,-4", "0.0,0.5332211806611394,0.27752875809408895"),
    ("9,-10,-1", "0.0,3.064690936068877,0.7549150063936538"),
    ("-4,9,8", "0.0,0.1379911028452664,6.1600045052851495"),
    ("-5,5,-2", "0.0,2.8237303101832367,2.070787946149662"),
    ("-10,1,10", "0.0,2.48557728530453,1.018597061443834"),
    ("10,-9,-2", "0.0,2.993552975982674,0.7866845214936735"),
    ("7,-2,12", "0.0,0.3260712503008662,0.8051612988088178"),
)

_MORE_WALKS = tuple(
    ("--mu=" + mu, "--start-angles=" + angles, "--eps", "0.024", "--step", "0.0004")
    for mu, angles in _MORE_N3_STARTS) + (
    ("--polygon", "6", "--mu", "-0.7", "--eps", "0.024", "--step", "0.0008"),
    ("--polygon", "2", "--mu", "1.37", "--eps", "0.024", "--step", "0.0008"),
    ("--polygon", "2", "--mu", "-60", "--eps", "0.05", "--step", "0.005"),
)

# (exit code, sha256 of stdout, stderr) of `continue WALK --format FORMAT`,
# recorded before each Newton iterate built a single pair table; the last
# walk has no polygon equilibrium past eps = 1/30 and stops early, and its
# json digest was recorded again when that stop began to name the cause.
# Every entry but the csv and table of the N = 2, mu = 1.37 walk was recorded
# again when each Newton step became one square bordered solve, and every
# entry when each step's solve began from the quadratic through the last
# three solutions, after
# test_the_extrapolated_walk_lands_where_the_previous_guess_walk_landed held
CONTINUE_DIGESTS = {
    (_MORE_WALKS[0], "json"):
        (0, "08e23ad0a4f8a1c789a0aa6a1d6f36e90ce14234d0d358944fc7911650738b7f", ""),
    (_MORE_WALKS[0], "csv"):
        (0, "c609a86a0abbbe13f167a99169a57f9244af74be5280cb8378c05eab321aef67", ""),
    (_MORE_WALKS[0], "table"):
        (0, "8b21b35bbf6dfa5e96b07eb6bfd32bc557645fca2163b7326208cb431630f29a", ""),
    (_MORE_WALKS[1], "json"):
        (0, "ee7df0902892d01ffd3d934c631b6c2aac0e006911f28f871092e75d9200a536", ""),
    (_MORE_WALKS[1], "csv"):
        (0, "fc0f165f56593a025b96776ea64ca4c468af669fc2b10aa7fa5b445e48043531", ""),
    (_MORE_WALKS[1], "table"):
        (0, "35875b9c9ebad938188106508ce6296802409257ec2d951ec8bed12ea0b20405", ""),
    (_MORE_WALKS[2], "json"):
        (0, "a0f2a7966d4243e0a14fcf73e20559340aed7f63ec9d2be11bd7373ddb0c0aac", ""),
    (_MORE_WALKS[2], "csv"):
        (0, "612676856d0a83f21760b98461a65b74b141039e01fe6a12491c60747fba34bc", ""),
    (_MORE_WALKS[2], "table"):
        (0, "68c37d921207fb0773fff8781f6077f1c3c719643ce9e46cc1c8a7b19e7bff1f", ""),
    (_MORE_WALKS[3], "json"):
        (0, "b62c6893104e5cbde5ee9af6eb2727306b85664a312357fafe7edb250501a817", ""),
    (_MORE_WALKS[3], "csv"):
        (0, "4e9fda1b1438d2bcb3f16086f6258816942f6f17561eedd07bdb54b7c31eb1a4", ""),
    (_MORE_WALKS[3], "table"):
        (0, "3ec8c5282583bba762476196f7aa345a47ed3870081cd011957cd1355427337a", ""),
    (_MORE_WALKS[4], "json"):
        (0, "2f95a0c20144e44cba5c648eef91ec1f76404fedb9f677dfaf4ee2f38760334c", ""),
    (_MORE_WALKS[4], "csv"):
        (0, "b4433c36e664d1f68d1dbddc821f116a6b870257afc105e03fc0f10965791f7c", ""),
    (_MORE_WALKS[4], "table"):
        (0, "5d1ba3bb4b4afd632877c05ad92c61fa86ac1326abca1b27ee27b77761ac700f", ""),
    (_MORE_WALKS[5], "json"):
        (0, "2ed9e45396dfb3ab76c964c74d41d3caa180d32c77b77abf25477f2a1e8afeed", ""),
    (_MORE_WALKS[5], "csv"):
        (0, "b27b8d7e3f1fb7c63e7270a507edc7dc080827de017f98c3b48daf009ae179f3", ""),
    (_MORE_WALKS[5], "table"):
        (0, "2fdee4ea617d8a2fde6139e88b6f94f453437973e85e9ded321563f45776a217", ""),
    (_MORE_WALKS[6], "json"):
        (0, "dc5ca642839fa920db65101b7babb11a0c3907f06a2be481452bca73528f8f95", ""),
    (_MORE_WALKS[6], "csv"):
        (0, "4ca43a338cf3706d1dba051922d6100f72e9653632f317692e201c487ffc3f11", ""),
    (_MORE_WALKS[6], "table"):
        (0, "8ce1cd9e0e8ba22a3f439376765f687ae98c2e6a1be8983afbbaf57894da6565", ""),
    (_MORE_WALKS[7], "json"):
        (0, "d956509c16f0c5d96a2ee7078ff05ca0af11365ef6a0e02c23c6a9ebe14986ff", ""),
    (_MORE_WALKS[7], "csv"):
        (0, "d838db19f7b814b3942ef86e179c2b683e7797d906574dba095cbb858bc6b0bc", ""),
    (_MORE_WALKS[7], "table"):
        (0, "6491aa29d041eb9c72f5d9b3a6aa06790f3b021434685dd4367a931e93c2c438", ""),
    (_MORE_WALKS[8], "json"):
        (0, "af990bbee327796770b92966a117d471703f5f179f7411f5ee9668fcb73cf7c0", ""),
    (_MORE_WALKS[8], "csv"):
        (0, "689877233815083e4d110bd085b6b69685f8dd58e5bfb0a33b609a891d6cc86d", ""),
    (_MORE_WALKS[8], "table"):
        (0, "77f7d84bc83fc6c6248327bc675242184df4d4c8672ce8c2a66b55dfd6b5cdd5", ""),
    (_MORE_WALKS[9], "json"):
        (0, "5b3d3a191b2db57b194b20206e4161bde5ece335ff9f205f603309370b2864cf", ""),
    (_MORE_WALKS[9], "csv"):
        (0, "7d936ee30292f42e5595147d991bd25ac2dcce435e1aefae484197aa80c72505", ""),
    (_MORE_WALKS[9], "table"):
        (0, "1d21f71533de9a5dfd1fb58716f3ff9015e33b38f7ca4727eedba68ade5c525b", ""),
    (_MORE_WALKS[10], "json"):
        (1, "ceda844409bf65873627b3c80e77ffaaab42f2e9a2f2201b68713a545049edb3", _STOPPED),
    (_MORE_WALKS[10], "csv"):
        (1, "4d5ac9ccc44619b0c3c6715d2cc50010e83c232d4d4477e5da1cb40ef072a455", _STOPPED),
    (_MORE_WALKS[10], "table"):
        (1, "498f2ebac5874279152067270b388036b911b63aa26a2e0dbd289085ac5a516c", _STOPPED),
}


@pytest.mark.parametrize("walk, fmt", CONTINUE_DIGESTS)
def test_continue_output_is_frozen(capsys, walk, fmt):
    want_code, want_out, want_err = CONTINUE_DIGESTS[walk, fmt]
    assert main(["continue", *walk, "--format", fmt]) == want_code
    captured = capsys.readouterr()
    assert captured.err == want_err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == want_out


def _equivalence_walks():
    """(name, walk) of the frozen N=3 walks and of polygons N = 2..12 at
    three weights, the last of which, mu = 2, crosses the bifurcation
    mu*eps = 4/(N-1)^2 of N = 11 at eps = 0.02."""
    walks = [((mu,), lambda mu=mu, angles=angles: continue_family(
                 [float(a) for a in angles.split(",")], [float(m) for m in mu.split(",")],
                 0.024, step=0.0004))
             for mu, angles in _N3_STARTS + _MORE_N3_STARTS]
    walks += [((n, mu), lambda n=n, mu=mu: continue_polygon(n, mu, 0.024, step=0.0008))
              for n in range(2, 13) for mu in (1.37, -0.7, 2.0)]
    return walks


def _angle_gap(a, b):
    return np.abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def _exact_hit_walks():
    """(name, walk) of the polygons N = 8..12 whose schedule lands on the
    bifurcation mu*eps = 4/(N-1)^2, at eps = 25 * 0.0008 = 0.02."""
    return [((n, 200.0 / (n - 1) ** 2),
             lambda n=n: continue_polygon(n, 200.0 / (n - 1) ** 2, 0.024, step=0.0008))
            for n in range(8, 13)]


def test_the_extrapolated_walk_lands_where_the_previous_guess_walk_landed(monkeypatch):
    # same eps, verdicts and failures; N = 3 radii within rounding of the
    # walk from the solution before (largest 8.7e-13), and every polygon
    # within rounding of its closed form (largest 6.3e-13, at the 8-gon's
    # bifurcation, where a guess solved without falling back lands 1e-11 off)
    walks = _equivalence_walks() + _exact_hit_walks()
    ours = [walk() for _, walk in walks]
    monkeypatch.setattr(dynamics, "_walk", reference_previous_guess_walk)
    for (name, walk), trace in zip(walks, ours):
        reference = walk()
        assert trace.failure == reference.failure, name
        assert trace.epsilon.tolist() == reference.epsilon.tolist(), name
        assert trace.verdict == reference.verdict, name
        for rec, ref in zip(row_configs(trace), row_configs(reference)):
            assert _angle_gap(rec.angles, ref.angles).max() < 1e-9, name
            if len(name) == 1:
                assert np.abs(rec.radii - ref.radii).max() < 1e-12, name
            else:
                n, mu = name
                radius = math.sqrt(1.0 + mu * rec.epsilon * (n - 1) / 2.0)
                assert np.abs(rec.radii - radius).max() < 1e-12, (name, rec.epsilon)


def test_the_bordered_newton_walks_where_the_least_squares_one_walked(monkeypatch):
    # the square bordered step from the extrapolated guess lands within
    # rounding of the least-squares step from the solution before, and only
    # the iterate at the bifurcation reaches lstsq: its wary solve gives up,
    # and the solve again from the step before takes the least-squares step
    lstsq, sent = np.linalg.lstsq, []
    current = [None]

    def counting(*args, **kwargs):
        sent.append(current[0])
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    ours = []
    for name, walk in _equivalence_walks():
        current[0] = name
        ours.append(walk())
    assert sent == [(11, 2.0)]
    monkeypatch.setattr(dynamics, "_walk", reference_previous_guess_walk)
    monkeypatch.setattr(dynamics, "_newton", reference_lstsq_newton)
    for (name, walk), trace in zip(_equivalence_walks(), ours):
        reference = walk()
        assert trace.failure == reference.failure, name
        assert trace.epsilon.tolist() == reference.epsilon.tolist(), name
        assert trace.verdict == reference.verdict, name
        for rec, ref in zip(row_configs(trace), row_configs(reference)):
            assert _angle_gap(rec.angles, ref.angles).max() < 1e-9, name
            assert np.abs(rec.radii - ref.radii).max() < 1e-12, name


@pytest.mark.parametrize("n", range(8, 13))
def test_a_polygon_walk_through_its_bifurcation_stays_on_the_polygon(n):
    # at mu*eps = 4/(N-1)^2 the Jacobian gains a second null direction; the
    # schedule lands on it at eps = 25 * 0.0008 = 0.02
    mu = 200.0 / (n - 1) ** 2
    trace = continue_polygon(n, mu, 0.024, step=0.0008)
    assert trace.failure is None and len(trace) == 30
    assert trace.epsilon[24] * mu == pytest.approx(4.0 / (n - 1) ** 2, rel=1e-15)
    for config in row_configs(trace):
        radius = math.sqrt(1.0 + mu * config.epsilon * (n - 1) / 2.0)
        assert np.abs(config.radii - radius).max() < 1e-9, config.epsilon


def test_a_polygon_walk_stops_where_the_family_ends(capsys, monkeypatch):
    # 1 + mu*eps*(N-1)/2 = 1 - 30*eps is first negative at eps = 0.035:
    # the walk runs no Newton solve there and names the cause
    solved = []
    newton = dynamics._newton

    def recording(z, eps, *args, **kwargs):
        solved.append(eps)
        return newton(z, eps, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_newton", recording)
    assert main(["continue", *_MORE_WALKS[10], "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == _STOPPED
    data = json.loads(captured.out)
    assert data["failure"] == _NO_POLYGON
    assert solved == [rec["epsilon"] for rec in data["records"]]
    assert solved == pytest.approx([0.005 * k for k in range(1, 7)])


def test_a_walk_stops_where_the_total_circulation_is_zero(capsys, monkeypatch):
    # 1 + eps*sum(mu) = 1 - 4*eps is 0 at eps = 0.25: the walk keeps the 24
    # records before it, runs no Newton solve there and warns of nothing
    solved = []
    newton = dynamics._newton

    def recording(z, eps, *args, **kwargs):
        solved.append(eps)
        return newton(z, eps, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_newton", recording)
    argv = ["continue", "--polygon", "8", "--mu", "-0.5", "--eps", "0.3", "--step", "0.01"]
    assert main([*argv, "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("continuation stopped early: eps=0.25: total circulation "
                            "1 + eps*sum(mu) is 0: there is no center of vorticity\n")
    rows = captured.out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [f"{0.01 * k:.10g}" for k in range(1, 25)]
    assert solved == pytest.approx([0.01 * k for k in range(1, 25)])


def test_newton_solves_at_zero_total_circulation():
    # Newton needs no center of vorticity: its unfolding column is then
    # centered at the strong vortex
    config = polygon_family(8, -0.5, 0.25)
    out = newton_solve(HelioConfig(config.Z * 1.01, config.epsilon, config.mu))
    assert np.abs(out.radii - config.radii).max() < 1e-12


def test_full_system_stability_refuses_zero_total_circulation():
    config = polygon_family(8, -0.5, 0.25)
    with pytest.raises(ValueError, match=r"total circulation 1 \+ eps\*sum\(mu\) is 0"):
        full_system_stability(config)


def test_a_total_circulation_of_zero_up_to_rounding_is_zero():
    # 1 + eps*sum(mu) computes to 1.1e-16 here, where it is 0
    config = polygon_family(5, -0.3, 0.6666666666666666)
    assert 1.0 + (config.epsilon * config.mu.array).sum() == 1.1102230246251565e-16
    with pytest.raises(ValueError, match=r"total circulation 1 \+ eps\*sum\(mu\) is 0"):
        full_system_stability(config)
    with pytest.raises(ValueError, match=r"total circulation 1 \+ eps\*sum\(mu\) is 0"):
        config.to_planar()
