"""Full-plane vortex dynamics, relative equilibria, and continuation in epsilon."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    reference_full_system_stability,
    reference_null_space,
    reference_re_jacobian,
    reference_re_residual,
)
from vortexre import dynamics
from vortexre.cli import main
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
from vortexre.errors import CollisionError, ConvergenceError
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
    cfg = trace.final.config
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


def test_newton_accepts_exact_solution_immediately():
    cfg = polygon_family(4, 1.0, 0.06)
    history = []
    out = newton_solve(cfg, history=history)
    assert len(history) <= 1
    assert np.abs(out.Z - cfg.Z).max() < 1e-12


def test_newton_restores_unit_circle_at_zero_epsilon():
    rng = np.random.default_rng(65)
    theta = (0.0, 1.2, 2.9)
    cfg = helio(theta, (1, 1, 1), 0.0, radii=1.0 + 0.05 * rng.uniform(-1, 1, 3))
    out = newton_solve(cfg)
    assert np.abs(out.radii - 1.0).max() < 1e-12
    assert np.abs(re_residual(out)).max() < 1e-12


def test_newton_converges_quadratically():
    cfg = polygon_family(3, 1.0, 0.05)
    history = []
    out = newton_solve(HelioConfig(cfg.Z + 0.01, cfg.epsilon, cfg.mu), history=history)
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


def test_newton_displacement_scales_linearly_in_epsilon(stable_saddle):
    mu = mixed_mu()
    for eps in (0.005, 0.01):
        out = newton_solve(helio(stable_saddle, mu.mu, eps))
        drift = np.abs(out.radii - 1.0).max()
        assert 0.1 * eps < drift < 10 * eps


def test_newton_raises_when_it_cannot_converge(stable_saddle):
    cfg = helio(stable_saddle, (2, -1, 3), 0.02)
    with pytest.raises(ConvergenceError):
        newton_solve(cfg, tol=1e-30, max_iter=5)


_LSTSQ = np.linalg.lstsq


def _steps_into_a_collision(monkeypatch, guess, harmless, target):
    """Make lstsq return `harmless` zero steps, then the step that puts weak
    vortex 2 at `target` (weak vortex 1's position, or the strong vortex's)."""
    calls = []

    def lstsq(a, b, rcond=None):
        step, *rest = _LSTSQ(a, b, rcond=rcond)
        calls.append(None)
        step = np.zeros_like(step)
        if len(calls) > harmless:
            step[2:4] = target - guess.Z[1]
        return (step, *rest)

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)


@pytest.mark.parametrize("harmless", [0, 3])
@pytest.mark.parametrize("onto, message", [
    ("weak", "vortices 1 and 2 coincide"), ("strong", "vortices 0 and 2 coincide")])
def test_newton_iterate_on_a_collision_raises_collision_error(
        monkeypatch, stable_saddle, harmless, onto, message):
    guess = helio(stable_saddle, (2, -1, 3), 0.02)
    target = guess.Z[0] if onto == "weak" else np.zeros(2)
    # max_iter=harmless makes the colliding iterate the last one allowed
    for max_iter in (harmless, 50):
        _steps_into_a_collision(monkeypatch, guess, harmless, target)
        with pytest.raises(CollisionError) as info:
            newton_solve(guess, max_iter=max_iter)
        assert type(info.value) is CollisionError
        assert str(info.value) == message
    _steps_into_a_collision(monkeypatch, guess, harmless, target)
    trace = continue_family(stable_saddle, (2, -1, 3), 0.02, step=0.005)
    assert trace.records == () and trace.failure == f"eps=0.005: {message}"


# -- spectral stability of the full linearization -----------------------------


def test_stability_requires_interacting_weak_vortices():
    with pytest.raises(ValueError):
        full_system_stability(helio((0.0, 2.0), (1, 1), 0.0))


def test_stable_point_has_imaginary_spectrum():
    trace = continue_family((0.0, math.pi / 3), CirculationWeights((1.0, 1.0)), 0.05, step=0.01)
    report = full_system_stability(trace.final.config)
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
        report = full_system_stability(trace.final.config)
        assert report.verdict == found.reports[fam[0]].verdict


@pytest.mark.parametrize("step", [5e-5, 1e-4, 2e-4, 5e-4])
def test_close_imaginary_pairs_stay_stable_until_the_krein_collision(step):
    # Two imaginary pairs of this stable saddle approach each other and
    # collide between eps = 5e-4 and 6e-4; before that they are distinct
    # and the spectrum is semisimple, whatever the continuation step.
    theta = (0.0, 1.9776959562222671, 5.480254754348461)
    trace = continue_family(theta, (-4, -7, 9), 10 * step, step=step)
    assert trace.failure is None and len(trace.records) == 10
    for record in trace.records:
        # every step size lands on eps <= 5e-4 or eps >= 6e-4
        expected = "stable" if record.epsilon <= 5e-4 + 1e-12 else "unstable"
        assert record.verdict == expected, record.epsilon


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


def test_every_walk_verdict_matches_the_single_config_reference():
    pools = json.loads(POOLS.read_text())
    walks = [continue_family(e["angles"], e["mu"], 0.024, step=0.0008)
             for e in pools["continue_n3"]]
    walks += [continue_polygon(n, mu, 0.024, step=0.0008)
              for n in range(2, 13) for mu in (1.37, -0.7)]
    verdicts = set()
    for trace in walks:
        assert trace.failure is None and len(trace.records) == 30
        for record in trace.records:
            verdict, _ = reference_full_system_stability(record.config)
            assert record.verdict == verdict
            verdicts.add(verdict)
    assert verdicts == {"stable", "unstable"}


# -- continuation in epsilon --------------------------------------------------


def test_continuation_records_schedule_and_residuals(stable_saddle):
    trace = continue_family(stable_saddle, mixed_mu(), 0.05, step=0.005)
    assert trace.failure is None
    assert len(trace.records) == 10
    assert trace.records[-1].epsilon == pytest.approx(0.05)
    eps = [r.epsilon for r in trace.records]
    assert eps == sorted(eps)
    for record in trace.records:
        assert record.residual < 1e-10
        assert record.verdict == "stable"


def test_continuation_requires_a_critical_start():
    with pytest.raises(Exception):
        continue_family((0.0, 0.3, 0.7), mixed_mu(), 0.02, step=0.01)


def test_continuation_is_step_size_robust(stable_saddle):
    coarse = continue_family(stable_saddle, mixed_mu(), 0.04, step=0.01)
    fine = continue_family(stable_saddle, mixed_mu(), 0.04, step=0.005)
    assert np.abs(coarse.final.config.Z - fine.final.config.Z).max() < 1e-8
    assert coarse.max_radial_drift() == pytest.approx(fine.max_radial_drift(), rel=1e-6)


def test_continuation_reports_failure_without_raising(stable_saddle):
    trace = continue_family(stable_saddle, mixed_mu(), 0.05, step=0.005, tol=1e-30)
    assert trace.failure is not None
    assert isinstance(trace, ContinuationTrace)


def test_trace_csv_layout(stable_saddle):
    trace = continue_family(stable_saddle, mixed_mu(), 0.01, step=0.005)
    rows = trace.csv_rows()
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
    assert len(rows) == 1 + len(trace.records)
    assert float(rows[1][0]) == pytest.approx(0.005)


def test_strong_vortex_offset_scales_with_epsilon():
    mu = CirculationWeights((1.0, 1.0, 1.0))
    small = continue_family((0.0, math.pi / 4, 7 * math.pi / 4), mu, 0.01, step=0.005)
    large = continue_family((0.0, math.pi / 4, 7 * math.pi / 4), mu, 0.04, step=0.005)
    off_small = np.linalg.norm(small.final.config.strong_vortex_offset())
    off_large = np.linalg.norm(large.final.config.strong_vortex_offset())
    assert off_large > off_small
    assert off_large < 0.2  # stays a perturbation


def test_continued_equilibrium_corotates(stable_saddle):
    trace = continue_family(stable_saddle, mixed_mu(), 0.05, step=0.01)
    config = trace.final.config
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
# configuration became a pair of arrays
DYNAMICS_DIGESTS = {
    ("continue", "--polygon", "4", "--mu", "1", "--eps", "0.024", "--step", "0.0008",
     "--format", "json"):
        ("0aa802d52e156ec11fc06ba5aa268e988d09dfc0cb1ea6db7c0e39d84192448b", None),
    ("continue", "--polygon", "8", "--mu", "1.37", "--eps", "0.024", "--step", "0.0008",
     "--format", "json"):
        ("419506cbc600c6781832ac0706e0524d9fc4ce533e74aa3b237f929a6d9e43b5", None),
    ("continue", "--polygon", "12", "--mu", "1.37", "--eps", "0.024", "--step", "0.0008",
     "--format", "json"):
        ("68c5c71acb5f3b127dd242f9caa73a8924fdffdb9e2980f89bc0a1d50a96562d", None),
    ("continue", "--mu=" + _N3_STARTS[0][0], "--start-angles=" + _N3_STARTS[0][1],
     "--eps", "0.024", "--step", "0.0004", "--format", "json"):
        ("b53c37ddea7bce4f5a0cd20a82071f508fb93c4ed17a2cbccf8ac68787fa66e8", None),
    ("continue", "--mu=" + _N3_STARTS[1][0], "--start-angles=" + _N3_STARTS[1][1],
     "--eps", "0.024", "--step", "0.0004", "--format", "json"):
        ("9193522d5d5412f61c16cf909d02cdb467c5ddc29f28f88944c5335396185172", None),
    ("simulate", "--polygon", "3", "--mu", "1", "--eps", "0.05"):
        ("739baaa1e79a70759f47c33d3e0730d8c43aed2998eb6f14cdfd29167916f168",
         "43d50d4a1f2c7c8a2523d32d333750db21e74bbf9a9c6e42cfc00586a9f16127"),
    ("simulate", "--polygon", "5", "--mu", "1.2", "--eps", "0.05", "--periods", "3"):
        ("0d35e57386018f2f76dbcf20ad5ed4a775f9f3c55be1054edf0d014137fc2177",
         "1b329f20bc6447912ddf0ac438dd5635ef851b3e005a5a5ac6190797e5e83959"),
    # recorded before the angles and positions became plain arrays
    ("continue", "--mu=2,-1,3", "--select", "stable saddle", "--eps", "0.02",
     "--step", "0.005"):
        ("69843a32e80801b8056ebea823b7ebee9e5ad09754e4c807ed8f6ae9c42fb4c6", None),
    ("continue", "--mu=2,-1,3", "--point-index", "3", "--eps", "0.02", "--step", "0.005",
     "--format", "table"):
        ("2fd3ca5105d59416704d2a04d9a2e1fdbdd2f54b4e66b844586cc2423b5c0916", None),
    ("continue", "--mu=1,1,1", "--normalize", "--eps", "0.02", "--step", "0.005",
     "--format", "json"):
        ("2f287ad2847e474886b0bc75dcfcdd2802d6dc5487d2b070cb02540cd6f7764e", None),
    ("simulate", "--mu=2,-1,3", "--start-angles=0,1.9,4.1", "--eps", "0.01", "--polish"):
        ("beedc1907818db98cd47e589cfd052489651f9db0b744b4ed66aa55183d36f87", None),
    ("simulate", "--mu=2,-1,3", "--start-angles=0,1.9,4.1", "--eps", "0.01",
     "--radii=1,1.01,0.99"):
        ("86308d470db1d31e0ef68bdb25859580d0bffa1b2677304c2fc5467d52388647",
         "d6d16e83306ddf725881dcfbf83325dac2a20f326ab6809844981346f7f0b723"),
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
# json digest was recorded again when that stop began to name the cause
CONTINUE_DIGESTS = {
    (_MORE_WALKS[0], "json"):
        (0, "e646f3ce9c4a91a82c43a9ee7633fab45cdbf75cd02c1bff9e843e7294f6c94a", ""),
    (_MORE_WALKS[0], "csv"):
        (0, "09c11d07216173eab16150465e992127ac57c0a24d25123a1264c423b44c5f20", ""),
    (_MORE_WALKS[0], "table"):
        (0, "2626122b461416b297a7b685948842959de556999afdeb79f7755f4dc67b022d", ""),
    (_MORE_WALKS[1], "json"):
        (0, "cd6e3b8ac76743b995ce5f92827596b27397c78a04cf6fde2a53cebf4052540d", ""),
    (_MORE_WALKS[1], "csv"):
        (0, "a502946a71e805de20c31bc5cc202be4eeed746e8e5f503ab46c87b891d7855b", ""),
    (_MORE_WALKS[1], "table"):
        (0, "0884a3f84211218a29c8e79c217962fcd6f142f1021d98552d3f8a95bfeccc22", ""),
    (_MORE_WALKS[2], "json"):
        (0, "dd8b5d195b8cf7ed6c58ecd3b1a0b7d712dce1ff3cd4569654acbf90fce24fdb", ""),
    (_MORE_WALKS[2], "csv"):
        (0, "1fbfc4ab2bb116f0e123e56eb40d597bae8868ef68960cecb5c2551f6ad42153", ""),
    (_MORE_WALKS[2], "table"):
        (0, "548f0c0aa4c5bb956dfd8cab1cf93ca3b858c64bd0d3c817f9fbe497f83776df", ""),
    (_MORE_WALKS[3], "json"):
        (0, "5e55849f866a983f42c91fef204a0d9cf211bac7181e06524ffdf9c959d1b225", ""),
    (_MORE_WALKS[3], "csv"):
        (0, "50afab1a27130c4a4436ba4bbcf8decd19e72f271184d999d5d2d52403c7806c", ""),
    (_MORE_WALKS[3], "table"):
        (0, "b7a5352082d470ae3f7ef25ec81e789b4bf717bba448f4420e3e7ab9505ca9e1", ""),
    (_MORE_WALKS[4], "json"):
        (0, "3166ba69d0f37529c9d4291f120703c78b5c39b03fe9725728632dcaf8737fb8", ""),
    (_MORE_WALKS[4], "csv"):
        (0, "d3229b9cf82c5b055293fc4e6ba1851b49494175a37ff076a6f50d81bd7eed79", ""),
    (_MORE_WALKS[4], "table"):
        (0, "f51e675e23af92d2323362fd67345acdeb04233710bd00c00c163403e2fb0681", ""),
    (_MORE_WALKS[5], "json"):
        (0, "bccd15db55127759f041426dd9544423be2a96aa7dd5a65bb5ad321fc1a19782", ""),
    (_MORE_WALKS[5], "csv"):
        (0, "f25bfb2cf8acba44c48df858d17ef4cbad34da6e2613281de6a1674ba80e62eb", ""),
    (_MORE_WALKS[5], "table"):
        (0, "a08a303550f5615f5ebfd8cacf25ba616bb96b9c27393e0d24c23fd711c04d11", ""),
    (_MORE_WALKS[6], "json"):
        (0, "13d5df7ae6ed4a62a9259459f67bca9c3c88dc138a04eae9dd39064162367b56", ""),
    (_MORE_WALKS[6], "csv"):
        (0, "a90cd0ccf3c3b81a82529cff1b5b47c1d29378023d1ea553e47cf717d48d7c6c", ""),
    (_MORE_WALKS[6], "table"):
        (0, "93f3ea72ba6fdd205f31083c989a07ee66cc716130ca91ee566c2b53dcc158fd", ""),
    (_MORE_WALKS[7], "json"):
        (0, "3c1dd3fdd3c95cffa20bc5b52cd6a50fd3c9f388fe97d2078e88017a14a57769", ""),
    (_MORE_WALKS[7], "csv"):
        (0, "eda26669f4616c5bb5bc0a12f7a6ff089163b4f8dcdb23701f925a1874db0a67", ""),
    (_MORE_WALKS[7], "table"):
        (0, "0fc2a2ad6714450a099641175ceaa25d5f6df4c531e6decb7b1a3ec2547aa786", ""),
    (_MORE_WALKS[8], "json"):
        (0, "8c3c864c8dcba59ef1a894d68c868e6fa72ef055f0bcfe72923fe6b58a5939f0", ""),
    (_MORE_WALKS[8], "csv"):
        (0, "83a67464b1c2130706506ef353273eac7c6837e99bd0503c1b4dfc15e2704a02", ""),
    (_MORE_WALKS[8], "table"):
        (0, "d808fe9eab797fe36ed5131b93d7e9e671d169654ddef68f010684e77c7b639b", ""),
    (_MORE_WALKS[9], "json"):
        (0, "fea7b957f98eb9489c2342c6a177f6f8d7be8d6bf635cffee1783eca6cf83338", ""),
    (_MORE_WALKS[9], "csv"):
        (0, "b4b260138c72d2b711db5d4dfc20011a3a84062fc116baf1a1abe6c784378e44", ""),
    (_MORE_WALKS[9], "table"):
        (0, "33c64cf0cf9e2624f952637d92cf92d311be694cf7db9acc10d51219b16c6bfa", ""),
    (_MORE_WALKS[10], "json"):
        (1, "e9014ad68e9a308f138bec6261515b280a39145f171460ed526dece0f57692f1", _STOPPED),
    (_MORE_WALKS[10], "csv"):
        (1, "cb54391bb75e72922444278ba2ef3b804bfd4cb55c89f30255a618f54ea6a79e", _STOPPED),
    (_MORE_WALKS[10], "table"):
        (1, "ea9ca525f9186ebceb3cd677d56e88db30b2041acbb8a7413e8904bf4bee0bd2", _STOPPED),
}


@pytest.mark.parametrize("walk, fmt", CONTINUE_DIGESTS)
def test_continue_output_is_frozen(capsys, walk, fmt):
    want_code, want_out, want_err = CONTINUE_DIGESTS[walk, fmt]
    assert main(["continue", *walk, "--format", fmt]) == want_code
    captured = capsys.readouterr()
    assert captured.err == want_err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == want_out


def test_a_polygon_walk_stops_where_the_family_ends(capsys, monkeypatch):
    # 1 + mu*eps*(N-1)/2 = 1 - 30*eps is first negative at eps = 0.035:
    # the walk runs no Newton solve there and names the cause
    solved = []
    newton = dynamics._newton

    def recording(z, eps, *args):
        solved.append(eps)
        return newton(z, eps, *args)

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

    def recording(z, eps, *args):
        solved.append(eps)
        return newton(z, eps, *args)

    monkeypatch.setattr(dynamics, "_newton", recording)
    argv = ["continue", "--polygon", "8", "--mu", "-0.5", "--eps", "0.3", "--step", "0.01"]
    assert main([*argv, "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("continuation stopped early: eps=0.25: total circulation "
                            "1 + eps*sum(mu) is 0: there is no center of vorticity\n")
    rows = captured.out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [f"{0.01 * k:.10g}" for k in range(1, 25)]
    assert solved == pytest.approx([0.01 * k for k in range(1, 25)])


def test_full_system_stability_refuses_zero_total_circulation():
    config = polygon_family(8, -0.5, 0.25)
    with pytest.raises(ValueError, match=r"total circulation 1 \+ eps\*sum\(mu\) is 0"):
        full_system_stability(config)
