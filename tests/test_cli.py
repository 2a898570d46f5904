"""End-to-end command-line interface behaviour."""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from helpers import ZERO_SUM_SADDLES
from vortexre import cli
from vortexre.cli import build_parser, main
from vortexre.groebner import GroebnerBasis
from vortexre.polynomials import MonomialOrder, PolynomialRing
from vortexre.search import symmetry_axes


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


def test_find_names_the_weights_of_an_empty_catalogue(capsys):
    # every seed starts within the seed gap of a collision, so none is polished
    mu = ",".join(["1"] * 20)
    code, out, _ = run(capsys, "find", "--mu", mu, "--seeds", "1")
    assert code == 0
    assert out.splitlines()[0] == f"critical points for mu = ({', '.join(['1.0'] * 20)})"
    assert out.rstrip().endswith("0 critical points in 0 families")
    code, out, _ = run(capsys, "find", "--mu", mu, "--seeds", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["index,family,symmetric,verdict,extremal_type,"
                                + ",".join(f"theta{i}" for i in range(1, 21))]


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


# per case: the free angle's multiples giving (theta1, theta2, theta3), and
# the vortex the case's docstring puts on the symmetry axis
_SYMMETRY_CASE_AXES = {"1": ((0, 1, -1), 1), "2": ((0, 1, 2), 2), "3": ((0, 2, 1), 3)}


@pytest.mark.parametrize("case", _SYMMETRY_CASE_AXES)
def test_symmetry_case_condition_equates_the_reflected_pair(capsys, case):
    multiples, axis = _SYMMETRY_CASE_AXES[case]
    assert symmetry_axes([0.7 * k for k in multiples]) == (axis - 1,)
    a, b = sorted({1, 2, 3} - {axis})
    ring = PolynomialRing(("r", "mu1", "mu2", "mu3"), MonomialOrder.elimination(1))
    want = ring.parse("mu1*mu2*mu3") * (ring.parse(f"mu{a}") - ring.parse(f"mu{b}"))
    code, out, err = run(capsys, "certify", "--symmetry-case", case)
    assert (code, err) == (0, "")
    assert out.split("weight condition after eliminating r:\n")[1] == f"  {want}\n"


def test_certify_symmetry_case_generators_exactly(capsys):
    wanted = {
        "1": "mu1*mu2^2*mu3 - mu1*mu2*mu3^2",
        "2": "mu1^2*mu2*mu3 - mu1*mu2*mu3^2",
        "3": "mu1^2*mu2*mu3 - mu1*mu2^2*mu3",
    }
    for case, generator in wanted.items():
        code, out, _ = run(capsys, "certify", "--symmetry-case", case)
        assert code == 0
        tail = out.split("weight condition after eliminating r:")[1].strip()
        assert tail.splitlines()[0].strip() == generator


def test_certify_reads_the_basis_as_integer_elements(capsys, monkeypatch):
    # the Fraction polynomials of a reduced basis are built only for
    # --show-basis: the counts, the leading terms and the weight condition
    # read the primitive integer elements
    def refuse(basis):
        raise AssertionError("GroebnerBasis.polys was read")

    monkeypatch.setattr(GroebnerBasis, "polys", property(refuse))
    for argv in (["--mu", "2,-1,3", "--format", "json"], ["--mu", "1,1,1"],
                 ["--symmetry-case", "2", "--format", "json"]):
        code, out, err = run(capsys, "certify", *argv)
        assert (code, err) == (0, "") and out
    with pytest.raises(AssertionError, match="polys was read"):
        run(capsys, "certify", "--mu", "2,-1,3", "--show-basis")


# sha256 of stdout, recorded before the monomial order moved into the ring;
# certify runs the elimination ideal, printed in its elimination ring
SYMMETRY_CASE_DIGESTS = {
    ("certify", "1", "json"): "bc165ba4a247c8da5d1d9de7b4adb883213f9d3b7579bb060d7f8db402f58f5f",
    ("certify", "1", "table"): "3662153f9d53a3506533e786ea204e12d4e2b407d4570691c33c77127a232a41",
    ("certify", "2", "json"): "0dd9d38930401577c3e4cc47a96eb597e7e28678aaeefc617545d78402fde571",
    ("certify", "2", "table"): "b1f7b339b236b613e81a5ed22d8dc7dd25e6bc4d72ee482fa1d77cbb276b202b",
    ("certify", "3", "json"): "146e98a99a194be71767a312b38e47b5905bd6c38402d9e5108c0f07257bc240",
    ("certify", "3", "table"): "5ec123de6bea2db138317a06a915151b4c0223e3a85be0dae5b3e532d8521b79",
    ("build-system", "1", "json"): "9eb80b4c924e5d7682cd373f5664fb18d5c88a9cebedb678434d2157ba4f2202",
    ("build-system", "1", "table"): "1eb409070866dcc9bf21780f84e841fe0952dd8fd9faeeb207518a58944a9b92",
    ("build-system", "2", "json"): "f429d1d08f842e42ea596c9cc5e8372854174968efcaad28f8b58c2252cdc9aa",
    ("build-system", "2", "table"): "adc1967c6e09a0071998907335e6def6af366e63797a411c5a7cc34090c6d7da",
    ("build-system", "3", "json"): "626c4cdb446bbd8559ebdc0ec305c1c264e0dc991e39d441cc7375d67ce40e7e",
    ("build-system", "3", "table"): "42685277d62000448cd32883e075a918997bc65bd3237dbc8000adee53e8af26",
}


@pytest.mark.parametrize("command,case,fmt", SYMMETRY_CASE_DIGESTS)
def test_symmetry_case_output_is_frozen(capsys, command, case, fmt):
    code, out, err = run(capsys, command, "--symmetry-case", case, "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SYMMETRY_CASE_DIGESTS[command, case, fmt]


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


def test_off_schedule_snapshot_writes_nothing(capsys, tmp_path):
    # eps = 0.0075 falls between the steps 0.005 and 0.01
    target = tmp_path / "trace.csv"
    code, out, err = run(
        capsys, "continue", "--polygon", "3", "--mu", "1", "--eps", "0.01",
        "--step", "0.005", "--out", str(target), "--snapshots", "0.0075")
    assert code == 2
    assert "snapshot eps=0.0075 is not on the continuation schedule" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_snapshot_past_a_stopped_walk_is_a_failure(capsys, tmp_path):
    # eps = 2 is on the schedule, but the walk stops at eps = 1, where two
    # vortices of the triangle of weights -1 meet
    target = tmp_path / "trace.csv"
    code, out, err = run(
        capsys, "continue", "--polygon", "3", "--mu", "-1", "--eps", "2",
        "--step", "0.25", "--out", str(target), "--snapshots", "0,0.5,2")
    assert code == 1
    assert "continuation stopped early: eps=1: vortices 0 and 1 coincide" in err
    assert "not on the continuation schedule" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "trace.csv", "trace_eps0.5.svg", "trace_eps0.svg"]
    assert len(target.read_text().splitlines()) == 4  # header, eps 0.25..0.75


@pytest.mark.parametrize("modes", [
    ["--polygon", "4", "--start-angles", "0,1,2,3"],
    ["--polygon", "4", "--select", "stable"],
    ["--polygon", "4", "--point-index", "0"],
    ["--start-angles", "0,1", "--select", "stable"],
    ["--start-angles", "0,1", "--point-index", "0"],
    ["--select", "stable", "--point-index", "0"],
])
def test_continue_takes_one_start_mode(capsys, modes):
    code, out, err = run(capsys, "continue", "--mu", "1", "--eps", "0.002",
                         "--step", "0.001", "--seeds", "5", *modes)
    assert code == 2
    assert f"argument {modes[2]}: not allowed with argument {modes[0]}" in err
    assert out == ""


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


def test_continue_json_builds_no_rows(capsys, monkeypatch):
    from vortexre.dynamics import ContinuationTrace

    calls = []
    monkeypatch.setattr(ContinuationTrace, "csv_rows",
                        lambda self, rows=ContinuationTrace.csv_rows: calls.append(1)
                        or rows(self))
    argv = ("continue", "--polygon", "3", "--mu", "1", "--eps", "0.01", "--format")
    assert run(capsys, *argv, "json")[0] == 0
    assert calls == []
    for fmt in ("csv", "table"):
        assert run(capsys, *argv, fmt)[0] == 0
    assert calls == [1, 1]


@pytest.mark.parametrize("eps", ["0", "0.01"])
def test_continue_checks_its_start_at_every_eps(capsys, eps):
    code, out, err = run(capsys, "continue", "--mu", "1,1,1", "--start-angles", "0,1,2",
                         "--eps", eps)
    assert code == 1
    assert out == ""
    assert "failure: gradient infinity-norm 5.145e-01 exceeds tolerance" in err


@pytest.mark.parametrize("eps", ["0", "0.01"])
def test_continue_from_a_colliding_start_writes_nothing(capsys, tmp_path, eps):
    target = tmp_path / "z.csv"
    code, out, err = run(capsys, "continue", "--mu", "1,1,1", "--start-angles", "0,0,2",
                         "--eps", eps, "--snapshots", "0", "--out", str(target))
    assert code == 1
    assert out == ""
    assert "failure: vortices 1 and 2 coincide" in err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("record,key", [
    ('{"angles": 5}', "angles"),
    ('{"angles": [0.0, "1.0"]}', "angles"),
    ('{"angles": [0.0, true]}', "angles"),
    ('{"angles": [0.0, Infinity]}', "angles"),
    ('{"angles": [0.0, 1.0], "radii": [1.0]}', "radii"),
    ('{"angles": [0.0, 1.0], "radii": [1.0, NaN]}', "radii"),
    ('{"angles": [0.0, 1.0], "mu": [1.0, 1.0, 1.0]}', "mu"),
    ('{"angles": [0.0, 1.0], "mu": 1.0}', "mu"),
    ('{"angles": [0.0, 1.0], "epsilon": "0.1"}', "epsilon"),
    ('{"angles": [0.0, 1.0], "epsilon": -Infinity}', "epsilon"),
    ('{"angles": [0.0, 1.0], "z0": [0.1]}', "z0"),
    ('{"angles": [0.0, 1.0], "z0": [0.1, null]}', "z0"),
])
def test_plot_rejects_a_malformed_record(capsys, tmp_path, record, key):
    bad = tmp_path / "bad.json"
    bad.write_text(record)
    code, out, err = run(capsys, "plot", str(bad), "--out", str(tmp_path / "bad.svg"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and f"'{key}'" in err
    assert not (tmp_path / "bad.svg").exists()


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


# sha256 of `build-system --mu` stdout, recorded while the builder still
# multiplied Fraction polynomials
BUILD_SYSTEM_DIGESTS = {
    ("1,1", "json"): "d7e637193637152f8add16f0f24617da40ca8d4f99ad0c049a6717668652cee8",
    ("1,1", "table"): "c103d4a61fe41ddcb8722cce6df8462a62efbbc146f32cf52799c09c8334af20",
    ("1,-1", "json"): "a08890e3e5c3cbe15f000560355b8b5b5701d24c190a1043d8387d1eb60eafa7",
    ("1,-1", "table"): "7de787beb648d40bd42c1d9d0538ec9c78791a8c88ad476c06c96f8bab52f27e",
    ("12,-10,-7,5", "json"): "8734de1fdb9d91191adbdbda9545ae209cbcd78ba01e529400fc3a4846d2525e",
    ("12,-10,-7,5", "table"): "2f0753b445a04942efd7eff4a46a0594cd6f14076bf77775a7a299bcbc54a2ab",
    ("1,2,3,4,5,6", "json"): "5da597733ceb94110133b5a4a6f223426d97089d45a6495d23bff3b11dfde402",
    ("1,2,3,4,5,6", "table"): "08e74354167f7e75e6474830a9207c24fe89c4d44e553b8f5cce0142402cb8c7",
}


@pytest.mark.parametrize("mu,fmt", BUILD_SYSTEM_DIGESTS)
def test_build_system_output_is_frozen(capsys, mu, fmt):
    code, out, err = run(capsys, "build-system", "--mu", mu, "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == BUILD_SYSTEM_DIGESTS[mu, fmt]


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


@pytest.mark.parametrize("modes", [
    ["--polygon", "3", "--start-angles", "0,1,2"],
    ["--start-angles", "0,1,2", "--polygon", "3"],
])
def test_simulate_takes_one_start_mode(capsys, modes):
    code, out, err = run(capsys, "simulate", "--mu", "1", "--eps", "0.05", *modes)
    assert code == 2
    assert f"argument {modes[2]}: not allowed with argument {modes[0]}" in err
    assert out == ""


def test_simulate_polygon_needs_scalar_mu(capsys):
    code, _, err = run(
        capsys, "simulate", "--mu", "1,1,1", "--polygon", "3", "--eps", "0.05"
    )
    assert code == 2


@pytest.mark.parametrize("mu", ["-100", "-20"])
def test_simulate_polygon_without_an_equilibrium_is_a_usage_error(capsys, mu):
    # 1 + mu*eps*(N-1)/2 is -4 and 0: no radius solves the polygon equation
    code, out, err = run(capsys, "simulate", "--polygon", "3", "--mu", mu, "--eps", "0.05")
    assert (code, out) == (2, "")
    assert "no polygon equilibrium" in err


@pytest.mark.parametrize("argv", [
    ["--polygon", "8", "--mu", "-0.5", "--eps", "0.25"],
    ["--mu=-0.5,-0.5", "--start-angles", "0,3", "--polish", "--eps", "1"],
])
def test_simulate_at_zero_total_circulation_is_a_usage_error(capsys, argv):
    # 1 + eps*sum(mu) is 0: the strong vortex has no center of vorticity to
    # rotate about, and the start is refused before any polish
    code, out, err = run(capsys, "simulate", *argv)
    assert (code, out) == (2, "")
    assert err == ("error: total circulation 1 + eps*sum(mu) is 0: "
                   "there is no center of vorticity\n")


_CONTINUE_POLYGON = ("continue", "--polygon", "3", "--mu", "1", "--eps", "0.01")
_CONTINUE_ANGLES = ("continue", "--mu", "1,1", "--start-angles", "0,1.0471975511965976",
                    "--eps", "0.01")
_SIMULATE_POLYGON = ("simulate", "--polygon", "3", "--mu", "1", "--eps", "0.01")
_SIMULATE_ANGLES = ("simulate", "--mu", "1,1,1", "--start-angles", "0,2,4", "--eps", "0.01")
_CERTIFY_CASE = ("certify", "--symmetry-case", "1")
_SEARCH_FLAGS = (("--seeds", "64"), ("--tol-grad", "1e-9"), ("--tol-zero-eig", "1e-7"))


@pytest.mark.parametrize("start,flag", [
    *[(_CONTINUE_POLYGON, f) for f in (("--normalize",),) + _SEARCH_FLAGS],
    *[(_CONTINUE_ANGLES, f) for f in _SEARCH_FLAGS],
    *[(_SIMULATE_POLYGON, f) for f in (("--radii", "1,1,1"), ("--polish",),
                                      ("--tol-newton", "1e-11"))],
    (_SIMULATE_ANGLES, ("--tol-newton", "1e-11")),
    *[(_CERTIFY_CASE, f) for f in (("--show-basis",), ("--show-matrix",))],
])
def test_a_start_mode_rejects_the_flags_it_does_not_read(capsys, start, flag):
    code, out, err = run(capsys, *start, *flag)
    assert (code, out) == (2, "")
    assert f"does not read {flag[0]}" in err


@pytest.mark.parametrize("argv", [
    ("continue", "--mu", "1,1", "--eps", "0.01", *sum(_SEARCH_FLAGS, ())),
    (*_CONTINUE_ANGLES, "--normalize", "--tol-newton", "1e-11"),
    (*_SIMULATE_ANGLES, "--polish", "--tol-newton", "1e-11", "--radii", "1,1,1"),
])
def test_a_start_mode_accepts_the_flags_it_reads(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out


# -- output files that cannot be written --------------------------------------

UNWRITABLE_OUT = {
    "find": ["find", "--mu", "2,-1,3", "--seeds", "16"],
    "certify": ["certify", "--mu", "1,1"],
    "build-system": ["build-system", "--mu", "1,2"],
    "simulate": ["simulate", "--mu", "1", "--polygon", "3", "--eps", "0.05",
                 "--periods", "0.05"],
    "continue": ["continue", "--mu", "1", "--polygon", "3", "--eps", "0.01",
                 "--step", "0.01", "--snapshots", "0,0.01"],
    "plot": ["plot", "CONFIG"],
}


def _unwritable_run(capsys, tmp_path, command, out):
    config = tmp_path / "in" / "config.json"
    config.parent.mkdir()
    config.write_text(json.dumps({"angles": [0.0, 2.0, 4.0]}))
    argv = [str(config) if a == "CONFIG" else a for a in UNWRITABLE_OUT[command]]
    return run(capsys, *argv, "--out", str(out))


@pytest.mark.parametrize("command", UNWRITABLE_OUT)
def test_out_in_a_missing_directory_is_a_usage_error(capsys, tmp_path, command):
    out = tmp_path / "missing" / "result.txt"
    code, _, err = _unwritable_run(capsys, tmp_path, command, out)
    assert code == 2
    assert err.splitlines() == [f"error: cannot write {out}: No such file or directory"]
    assert not out.parent.exists()


@pytest.mark.parametrize("command", UNWRITABLE_OUT)
def test_out_naming_a_directory_is_a_usage_error(capsys, tmp_path, command):
    out = tmp_path / "taken"
    out.mkdir()
    code, _, err = _unwritable_run(capsys, tmp_path, command, out)
    assert code == 2
    assert err.splitlines() == [f"error: cannot write {out}: Is a directory"]
    assert list(out.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in", "taken"]


def test_unwritable_snapshot_is_a_usage_error(capsys, tmp_path, monkeypatch):
    # without --out the trace goes to stdout and snapshots to trace_eps*.svg
    monkeypatch.chdir(tmp_path)
    (tmp_path / "trace_eps0.01.svg").mkdir()
    code, out, err = run(capsys, *UNWRITABLE_OUT["continue"])
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: cannot write trace_eps0.01.svg: Is a directory"]
    assert "Traceback" not in err
    # every path is checked before the walk: no trace, no trace_eps0.svg
    assert [p.name for p in tmp_path.iterdir()] == ["trace_eps0.01.svg"]
    assert list((tmp_path / "trace_eps0.01.svg").iterdir()) == []


def test_unwritable_out_stops_find_before_the_search(capsys, tmp_path, monkeypatch):
    from vortexre import search

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(search, "find_all_critical_points", no_search)
    out = tmp_path / "missing" / "points.txt"
    code, stdout, err = run(capsys, *UNWRITABLE_OUT["find"], "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.splitlines() == [f"error: cannot write {out}: No such file or directory"]


def test_a_writable_out_is_left_as_it_was_when_the_run_fails(capsys, tmp_path):
    # the check opens without truncating and removes only what it created
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    fresh = tmp_path / "fresh.csv"
    for out in (kept, fresh):
        code, _, _ = run(capsys, "continue", "--mu", "1,1,1", "--start-angles", "0,0,2",
                         "--eps", "0.01", "--step", "0.01", "--out", str(out))
        assert code == 1
    assert kept.read_text() == "old\n"
    assert not fresh.exists()


# -- parser-level errors ------------------------------------------------------


def test_unknown_subcommand_exits_2(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2


def test_no_arguments_exits_2(capsys):
    assert run(capsys)[0] == 2


def test_bad_flag_value_exits_2(capsys):
    code, _, _ = run(capsys, "find", "--mu", "1,1", "--seeds", "many")
    assert code == 2


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_calls_after_a_bad_flag_print_what_a_fresh_interpreter_prints(capsys):
    # every call shares one parser; a call that it refuses leaves nothing
    # behind for the calls after it
    for argv, code in ((["find", "--mu", "1,1", "--seeds", "many"], 2),
                       (["certify", "--mu=2,-1,3", "--format", "json"], 0),
                       (["find", "--mu=2,-1,3", "--seeds", "64"], 0)):
        fresh = subprocess.run(
            [sys.executable, "-m", "vortexre.cli", *argv], capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join(sys.path)})
        assert fresh.returncode == code
        assert run(capsys, *argv) == (code, fresh.stdout, fresh.stderr)


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
    # non-finite values: scipy refused nan, and eps = inf never finished
    ["simulate", "--polygon", "3", "--mu", "1", "--eps", "nan"],
    ["continue", "--polygon", "4", "--mu", "1", "--step", "0.0005", "--eps", "inf"],
    ["continue", "--polygon", "4", "--mu", "1", "--eps", "0.01", "--step", "inf"],
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
    # the exact subcommands write json or a table, never csv
    (["certify", "--mu", "1,1", "--format", "csv"], "invalid choice: 'csv'"),
    (["build-system", "--mu", "1,1", "--format", "csv"], "invalid choice: 'csv'"),
    # non-finite numbers, and weights whose products overflow
    (["find", "--mu=nan,1"], "weights must be finite"),
    (["find", "--mu=inf,1"], "weights must be finite"),
    (["find", "--mu=1e200,1e200,1"], "products of weights must be finite"),
    (["find", "--mu=1/0,1"], "zero denominator"),
    (["find", "--mu", "1,1", "--tol-grad", "inf"], "argument --tol-grad: must be finite"),
    (["continue", "--mu=nan,1,1", "--eps", "0.01"], "weights must be finite"),
    (["continue", "--mu=1,1,1", "--start-angles=0,nan,2", "--eps", "0.01"],
     "is not finite"),
    (["continue", "--polygon", "4", "--mu", "inf", "--eps", "0.01"], "is not finite"),
    (["simulate", "--polygon", "3", "--mu", "nan", "--eps", "0.05"], "is not finite"),
    # weights whose products underflow, and --polygon weights out of range
    (["find", "--mu=1e-170,1e-170,1e-170"], "products of weights must not underflow"),
    (["continue", "--polygon", "4", "--mu", "1e200", "--eps", "0.01"],
     "products of weights must be finite"),
    (["continue", "--polygon", "4", "--mu", "1e-170", "--eps", "0.01"],
     "products of weights must not underflow"),
    (["simulate", "--polygon", "3", "--mu", "1e-170", "--eps", "0.05"],
     "products of weights must not underflow"),
    # weights and a symmetry case name two different systems
    (["certify", "--symmetry-case", "1", "--mu", "1,1,1"],
     "argument --mu: not allowed with argument --symmetry-case"),
    (["certify", "--mu", "1,1,1", "--symmetry-case", "1"],
     "argument --symmetry-case: not allowed with argument --mu"),
    (["build-system", "--symmetry-case", "2", "--mu", "1,1,1"],
     "argument --mu: not allowed with argument --symmetry-case"),
    (["build-system", "--mu", "1,1,1", "--symmetry-case", "2"],
     "argument --symmetry-case: not allowed with argument --mu"),
    # the system builder's weight checks, as usage errors of both exact commands
    *[([command, "--mu", weights], message)
      for command in ("certify", "build-system")
      for weights, message in [
          ("1", "need at least two weights"),
          (",", "need at least two weights"),
          ("1,0,1", "weights must be nonzero"),
          ("1/2,0,3", "weights must be nonzero"),
          ("1/2,1,3", "integer weights; the counts depend only on the weight ratio, "
                      "so rescale, e.g. 1,2,6"),
          ("2/3,-1/6", "integer weights; the counts depend only on the weight ratio, "
                       "so rescale, e.g. 4,-1"),
      ]],
])
def test_usage_errors_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert out == ""


@pytest.mark.parametrize("weights", ["1e10000000,1", "1e-10000000,1", "1/1" + "0" * 400 + ",1"])
def test_weights_outside_the_float_range_are_refused_before_fraction_reads_them(
        capsys, monkeypatch, weights):
    # Fraction would expand 1e10000000 into ten million digits
    def refusing(text):
        raise AssertionError(f"Fraction({text!r})")

    monkeypatch.setattr(cli, "Fraction", refusing)
    for argv in (["certify", "--mu", weights], ["certify", f"--mu={weights}"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        item = weights.split(",")[0]
        assert err == (f"error: cannot parse weights {weights!r}: "
                       f"{item!r} is outside the float range\n")
    # find reads its weights as floats, but joining a list to its flag parses it too
    code, out, _ = run(capsys, "find", "--mu", weights)
    assert (code, out) == (2, "")


_FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
                        "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("argv", [
    ["certify", "--mu", "2,-1,3", "--show-basis", "--show-matrix"],
    ["build-system", "--mu", "1,2,3,4"],
    *([command, "--symmetry-case", case]
      for command in ("certify", "build-system") for case in "123"),
])
def test_the_exact_path_does_no_fraction_arithmetic(capsys, monkeypatch, argv, fmt):
    # integer term maps all the way: Fractions are only built, and printed
    def refusing(*_):
        raise AssertionError("Fraction arithmetic on the exact path")

    for name in _FRACTION_ARITHMETIC:
        monkeypatch.setattr(Fraction, name, refusing)
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out


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


# -- number lists that start with a minus sign --------------------------------


def test_find_takes_a_negative_list_as_a_separate_word(capsys):
    joined = run(capsys, "find", "--mu=-1,-3,10", "--seeds", "64")
    spaced = run(capsys, "find", "--mu", "-1,-3,10", "--seeds", "64")
    assert joined[0] == 0 and joined[1]
    assert spaced == joined


def test_certify_takes_a_negative_list_as_a_separate_word(capsys):
    code, out, err = run(capsys, "certify", "--mu", "-1,-3,10")
    assert code == 0, err
    assert "real distinct roots: 8" in out
    assert run(capsys, "certify", "--mu=-1,-3,10") == (code, out, err)


def test_continue_takes_negative_weights_and_angles_as_separate_words(capsys):
    # the -4,-7,9 stable saddle, rotated by -0.5
    argv = ["continue", "--mu", "-4,-7,9",
            "--start-angles", "-0.5,1.4776959562222671,4.980254754348461",
            "--eps", "1e-4", "--step", "1e-4"]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert len(out.strip().splitlines()) == 2
    joined = ["continue", "--mu=-4,-7,9",
              "--start-angles=-0.5,1.4776959562222671,4.980254754348461",
              "--eps", "1e-4", "--step", "1e-4"]
    assert run(capsys, *joined) == (code, out, err)


# -- what a fresh interpreter loads --------------------------------------------


def _heavy_modules_after(code):
    """Which of numpy and scipy a fresh interpreter holds after running code."""
    probe = code + (
        "\nimport sys\n"
        "print(' '.join(m for m in ('numpy', 'scipy') if m in sys.modules))")
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def _main_code(*argv):
    return f"from vortexre.cli import main\nassert main({list(argv)!r}) == 0"


def test_cli_import_loads_neither_numpy_nor_scipy():
    assert _heavy_modules_after("import vortexre.cli") == set()


def test_exact_subcommands_run_without_numpy(tmp_path):
    record = tmp_path / "record.json"
    record.write_text(json.dumps({"angles": [0.0, 2.0, 4.0], "mu": [1, 2, 3]}))
    out = str(tmp_path / "out")
    for argv in (["certify", "--mu=1,1,1", "--out", out],
                 ["build-system", "--mu=2,1,9", "--out", out],
                 ["plot", str(record), "--out", out]):
        assert "numpy" not in _heavy_modules_after(_main_code(*argv)), argv


def test_dynamics_and_find_run_without_scipy(tmp_path):
    assert _heavy_modules_after("import vortexre.dynamics") == {"numpy"}
    out = str(tmp_path / "points.json")
    code = _main_code("find", "--mu=2,-1,3", "--seeds", "64", "--out", out)
    assert _heavy_modules_after(code) == {"numpy"}
