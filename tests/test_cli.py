"""End-to-end command-line interface behaviour."""

import json
import math

import pytest

from helpers import ZERO_SUM_SADDLES
from vortexre.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- find ---------------------------------------------------------------------


def test_find_table_lists_catalog(capsys):
    code, out, _ = run(capsys, "find", "--mu", "1,1", "--seeds", "256")
    assert code == 0
    assert "3 critical points in 2 families" in out
    assert "stable" in out and "unstable" in out
    assert "theta (deg)" in out


def test_find_json_schema(capsys, tmp_path):
    target = tmp_path / "points.json"
    code, out, _ = run(
        capsys,
        "find",
        "--mu",
        "2,-1,3",
        "--seeds",
        "512",
        "--format",
        "json",
        "--out",
        str(target),
    )
    assert code == 0
    data = json.loads(target.read_text())
    assert data["count"] == 10
    assert data["family_count"] == 5
    assert len(data["points"]) == 10
    assert {p["verdict"] for p in data["points"]} == {"stable", "unstable"}


def test_find_csv_row_count(capsys):
    code, out, _ = run(capsys, "find", "--mu", "1,1", "--seeds", "256", "--format", "csv")
    assert code == 0
    rows = [line for line in out.strip().splitlines() if line]
    assert len(rows) == 4  # header + three points
    assert rows[0].startswith("index,family")


def test_find_accepts_more_weights_than_the_first_fifteen_primes(capsys):
    mu = ",".join(str(k) for k in range(1, 18))
    code, out, err = run(capsys, "find", "--mu", mu, "--seeds", "64")
    assert code == 0, err
    assert out.rstrip().endswith("families")


@pytest.mark.parametrize("seeds", ["0", "-5"])
def test_find_rejects_nonpositive_seed_count(capsys, seeds):
    code, out, err = run(capsys, "find", "--mu", "1,1,1", "--seeds", seeds)
    assert code == 2
    assert "--seeds" in err
    assert "critical points" not in out


def test_find_rejects_bad_weights(capsys):
    code, _, err = run(capsys, "find", "--mu", "1,0,1")
    assert code == 1 or code == 2
    assert "weights" in err


# -- certify ------------------------------------------------------------------


def test_certify_two_vortex_counts_and_matrix(capsys):
    code, out, _ = run(capsys, "certify", "--mu", "1,1", "--show-matrix")
    assert code == 0
    assert "real distinct roots: 3" in out
    assert "distinct roots over C: 3" in out
    assert "quotient dimension: 3" in out
    # multiplication traces of 1, r, r^2 over the roots {sqrt(3), 0, -sqrt(3)}
    assert "3 0 6" in out
    assert "0 6 0" in out
    assert "6 0 18" in out


def test_certify_show_basis_prints_leading_terms(capsys):
    code, out, _ = run(capsys, "certify", "--mu", "1,1,1", "--show-basis")
    assert code == 0
    assert "real distinct roots: 14" in out
    lt_lines = [l for l in out.splitlines() if l.startswith("leading terms:")]
    assert len(lt_lines) == 1
    listed = {t.strip() for t in lt_lines[0].split(":", 1)[1].split(",")}
    assert listed == {
        "r2^3*r3^3",
        "r2^4*r3^2",
        "r2^5*r3",
        "r2^6",
        "r3^7",
        "r2*r3^6",
        "r2^2*r3^5",
    }


def test_certify_requires_integer_weights(capsys):
    code, _, err = run(capsys, "certify", "--mu", "1/2,1,3")
    assert code == 2
    assert "integer weights" in err
    assert "1,2,6" in err  # suggests the equivalent integer rescaling


def test_certify_symmetry_case_generators_exactly(capsys):
    wanted = {
        "1": "mu1*mu2^2*mu3 - mu1*mu2*mu3^2",
        "2": "mu1^2*mu2*mu3 - mu1*mu2*mu3^2",
        "3": "mu1^2*mu2*mu3 - mu1*mu2^2*mu3",
    }
    for case, generator in wanted.items():
        code, out, _ = run(capsys, "certify", "--symmetry-case", case, "--mu", "1,1,1")
        assert code == 0
        tail = out.split("weight condition after eliminating r:")[1].strip()
        assert tail.splitlines()[0].strip() == generator


def test_certify_json_format(capsys):
    code, out, _ = run(capsys, "certify", "--mu", "1,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["real_distinct"] == 3
    assert data["complex_distinct"] == 3
    assert data["quotient_dimension"] == 3


# -- continue -----------------------------------------------------------------


def test_continue_polygon_radius_column(capsys):
    code, out, _ = run(
        capsys,
        "continue",
        "--polygon",
        "4",
        "--mu",
        "1",
        "--eps",
        "0.1",
        "--step",
        "0.02",
        "--format",
        "csv",
    )
    assert code == 0
    rows = out.strip().splitlines()
    last = rows[-1].split(",")
    assert float(last[0]) == pytest.approx(0.1)
    for r in last[1:5]:
        assert float(r) == pytest.approx(math.sqrt(1.15), abs=1e-12)


def test_continue_select_and_snapshots(capsys, tmp_path):
    target = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys,
        "continue",
        "--mu",
        "2,-1,3",
        "--normalize",
        "--select",
        "stable saddle",
        "--eps",
        "0.04",
        "--step",
        "0.01",
        "--seeds",
        "512",
        "--format",
        "csv",
        "--out",
        str(target),
        "--snapshots",
        "0,0.04",
    )
    assert code == 0
    rows = target.read_text().strip().splitlines()
    assert rows[0] == "eps,r1,r2,r3,theta1,theta2,theta3,residual,verdict"
    assert len(rows) == 5
    assert all(row.endswith("stable") for row in rows[1:])
    svg_zero = tmp_path / "trace_eps0.svg"
    svg_end = tmp_path / "trace_eps0.04.svg"
    assert svg_zero.exists() and svg_end.exists()
    assert svg_end.read_text().startswith("<svg")


def test_continue_rejects_off_schedule_snapshot(capsys):
    code, _, err = run(
        capsys,
        "continue",
        "--mu",
        "1,1",
        "--start-angles",
        f"0,{math.pi/3}",
        "--eps",
        "0.02",
        "--step",
        "0.01",
        "--snapshots",
        "0.015",
    )
    assert code == 2
    assert "schedule" in err


def test_continue_eps_zero_gives_header_only(capsys):
    code, out, _ = run(
        capsys,
        "continue",
        "--mu",
        "1,1",
        "--start-angles",
        f"0,{math.pi/3}",
        "--eps",
        "0",
        "--format",
        "csv",
    )
    assert code == 0
    assert out.strip() == "eps,r1,r2,theta1,theta2,residual,verdict"


def test_continue_validates_point_index(capsys):
    code, _, err = run(
        capsys,
        "continue",
        "--mu",
        "1,1",
        "--eps",
        "0.02",
        "--point-index",
        "99",
        "--seeds",
        "256",
    )
    assert code == 2
    assert "--point-index" in err


def test_continue_polygon_needs_scalar_mu(capsys):
    code, _, err = run(
        capsys, "continue", "--polygon", "3", "--mu", "1,1,1", "--eps", "0.05"
    )
    assert code == 2
    assert "scalar" in err


@pytest.mark.parametrize("mu, theta", ZERO_SUM_SADDLES)
def test_continue_from_a_zero_sum_critical_point(capsys, mu, theta):
    # weights summing to zero make the rotational zero defective; the start
    # is still nondegenerate modulo rotation, which is what Newton needs
    code, out, err = run(
        capsys, "continue", "--mu=" + ",".join(map(str, mu)),
        "--start-angles=" + ",".join(map(repr, theta)),
        "--eps", "0.01", "--step", "0.002", "--format", "json")
    assert code == 0, err
    data = json.loads(out)
    assert data["failure"] is None and len(data["records"]) == 5


# -- plot ---------------------------------------------------------------------


def test_plot_is_deterministic(capsys, tmp_path):
    points = tmp_path / "points.json"
    run(
        capsys,
        "find",
        "--mu",
        "1,1,1",
        "--seeds",
        "256",
        "--format",
        "json",
        "--out",
        str(points),
    )
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    assert run(capsys, "plot", str(points), "--index", "3", "--out", str(a))[0] == 0
    assert run(capsys, "plot", str(points), "--index", "3", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("<svg xmlns=")


def test_plot_missing_and_malformed_files(capsys, tmp_path):
    code, _, err = run(capsys, "plot", str(tmp_path / "missing.json"))
    assert code == 2
    assert "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    code, _, err = run(capsys, "plot", str(bad))
    assert code == 2
    bad.write_text('{"no_angles": true}')
    code, _, err = run(capsys, "plot", str(bad))
    assert code == 2
    assert "angles" in err


def test_plot_index_out_of_range(capsys, tmp_path):
    points = tmp_path / "points.json"
    run(
        capsys,
        "find",
        "--mu",
        "1,1",
        "--seeds",
        "256",
        "--format",
        "json",
        "--out",
        str(points),
    )
    code, _, err = run(capsys, "plot", str(points), "--index", "11")
    assert code == 2
    assert "--index" in err


# -- build-system -------------------------------------------------------------


def test_build_system_prints_equations_and_provenance(capsys):
    code, out, _ = run(capsys, "build-system", "--mu", "1,1,1")
    assert code == 0
    assert "variables: r2, r3" in out
    assert "equation 1:" in out and "equation 2:" in out
    assert ("removed from V_theta2: denominators (r2 - r3)^1, (r2^2 + 1)^1, "
            "(r3^2 + 1)^1; content 1/2") in out
    assert "collision factors" not in out


def test_build_system_symmetry_case(capsys):
    code, out, _ = run(capsys, "build-system", "--symmetry-case", "1")
    assert code == 0
    assert "mu2*mu3" in out
    assert "r^6" in out


# -- simulate -----------------------------------------------------------------


def test_simulate_polygon_reports_small_drifts(capsys, tmp_path):
    target = tmp_path / "trajectory.csv"
    code, out, _ = run(
        capsys,
        "simulate",
        "--mu",
        "1",
        "--polygon",
        "3",
        "--eps",
        "0.05",
        "--periods",
        "0.5",
        "--out",
        str(target),
    )
    assert code == 0
    for marker in (
        "relative-equilibrium residual:",
        "hamiltonian drift",
        "linear impulse drift:",
        "co-rotating frame drift:",
    ):
        assert marker in out
    drifts = [float(line.rsplit(" ", 1)[1]) for line in out.strip().splitlines()]
    assert max(drifts) < 1e-6
    rows = target.read_text().strip().splitlines()
    assert rows[0] == "t,x0,y0,x1,y1,x2,y2,x3,y3"
    assert len(rows) > 2


def test_simulate_polygon_needs_scalar_mu(capsys):
    code, _, err = run(
        capsys, "simulate", "--mu", "1,1,1", "--polygon", "3", "--eps", "0.05"
    )
    assert code == 2


# -- parser-level errors ------------------------------------------------------


def test_unknown_subcommand_exits_2(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2


def test_no_arguments_exits_2(capsys):
    assert run(capsys)[0] == 2


def test_bad_flag_value_exits_2(capsys):
    code, _, _ = run(capsys, "find", "--mu", "1,1", "--seeds", "many")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--mu", "1", "--eps", "0.05", "--polygon", "1"],
    ["continue", "--mu", "1", "--eps", "0.05", "--polygon", "1"],
    ["continue", "--polygon", "3", "--mu", "1", "--eps", "0.05", "--step", "0"],
    ["continue", "--polygon", "3", "--mu", "1", "--eps", "0.05", "--step", "-0.01"],
    ["continue", "--polygon", "3", "--mu", "1", "--eps", "-0.1"],
    ["simulate", "--polygon", "3", "--mu", "1", "--eps", "0.05", "--periods", "0"],
    ["simulate", "--polygon", "3", "--mu", "1", "--eps", "0.05", "--periods", "-1"],
    ["simulate", "--polygon", "3", "--mu", "1", "--eps", "0.05", "--rtol", "0"],
    ["simulate", "--polygon", "3", "--mu", "1", "--eps", "0.05", "--rtol=-1e-9"],
])
def test_out_of_range_dynamics_flags_exit_2(capsys, argv):
    # the offending flag comes last, as --flag value or --flag=value
    code, out, err = run(capsys, *argv)
    assert code == 2
    flag = argv[-1].split("=")[0] if "=" in argv[-1] else argv[-2]
    assert f"argument {flag}" in err and "must be" in err
    assert out == ""


@pytest.mark.parametrize("argv,message", [
    (["certify"], "need --mu or --symmetry-case"),
    (["certify", "--format", "json"], "need --mu or --symmetry-case"),
    (["find", "--mu", "1"], "need at least two weights"),
    (["find", "--mu", "1,0,1"], "weights must be nonzero"),
    (["find", "--mu", "1,1", "--tol-grad", "0"], "argument --tol-grad: must be above"),
    (["find", "--mu", "1,1", "--tol-zero-eig", "0"],
     "argument --tol-zero-eig: must be above"),
    (["continue", "--polygon", "3", "--mu", "1", "--eps", "0.01", "--tol-newton=-1e-9"],
     "argument --tol-newton: must be above"),
    # flags a subcommand never read are refused, not silently ignored
    (["certify", "--mu", "1,1", "--seeds", "5"], "unrecognized arguments: --seeds"),
    (["build-system", "--mu", "1,1", "--tol-grad", "7"], "unrecognized arguments"),
    (["find", "--mu", "1,1", "--tol-newton", "1e-9"], "unrecognized arguments"),
    (["simulate", "--polygon", "3", "--mu", "1", "--eps", "0.05", "--format", "json"],
     "unrecognized arguments"),
])
def test_usage_errors_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert out == ""


def test_find_warns_when_the_morse_sum_shows_missing_points(capsys):
    code, out, err = run(capsys, "find", "--mu", "1,1,1,1,1,1", "--seeds", "256")
    assert code == 0
    assert out.rstrip().endswith("159 critical points in 3 families")
    assert "Morse sum 5 over 159 points" in err and "(N-1)! = 120" in err
    assert "raise --seeds" in err


@pytest.mark.parametrize("mu", ["1,2,3,4", "2,-1,3"])
def test_find_is_quiet_on_a_complete_or_mixed_sign_catalogue(capsys, mu):
    code, out, err = run(capsys, "find", "--mu", mu)
    assert code == 0 and out
    assert err == ""
