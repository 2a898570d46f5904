"""End-to-end command-line interface behaviour."""

import argparse
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from helpers import ZERO_SUM_SADDLES, reference_symmetry_axes, reference_weights_parse, seeded
from vortexre import cli
from vortexre.cli import build_parser, main
from vortexre.dynamics import _epsilon_schedule, polygon_family
from vortexre.errors import (CirculationError, CollisionError, ConvergenceError, InputError,
                             NotACriticalPointError)
from vortexre.groebner import GroebnerBasis
from vortexre.halfangle import build_equal_weight_system, build_symmetry_case_system
from vortexre.potential import CirculationWeights
from vortexre.polynomials import MonomialOrder, PolynomialRing


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
    assert reference_symmetry_axes([0.7 * k for k in multiples]) == (axis - 1,)
    a, b = sorted({1, 2, 3} - {axis})
    ring = PolynomialRing(("r", "mu1", "mu2", "mu3"), MonomialOrder.elimination(1))
    want = ring.parse(f"mu1*mu2*mu3*mu{a} - mu1*mu2*mu3*mu{b}")
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


def _certify_table(data):
    """The lines of certify's table, written from its JSON fields."""
    if "symmetry_case" in data:
        return ([f"symmetry case {data['symmetry_case']}"]
                + [f"  equation {i}: {p}" for i, p in enumerate(data["system"], 1)]
                + ["weight condition after eliminating r:"]
                + [f"  {g}" for g in data["elimination_ideal"]])
    H = data["hermite_matrix"]
    return ([f"weights: ({', '.join(map(str, data['mu']))})",
             f"real distinct roots: {data['real_distinct']}",
             f"distinct roots over C: {data['complex_distinct']}",
             f"quotient dimension: {data['quotient_dimension']}",
             f"reduced groebner basis ({data['groebner_size']} elements):"]
            + [f"  {i}: {p}" for i, p in enumerate(data["groebner_basis"], 1)]
            + ["leading terms: " + ", ".join(data["leading_terms"]),
               f"trace-form matrix ({len(H)}x{len(H)}):"]
            + ["  " + " ".join(row) for row in H])


def _build_system_table(data, title):
    """The lines of build-system's table, written from its JSON fields."""
    lines = [title, "variables: " + ", ".join(data["variables"])]
    lines += [f"  equation {i}: {p} = 0" for i, p in enumerate(data["polynomials"], 1)]
    for rec in data["stripped_factors"]:
        bits = []
        if rec["denominator_factors"]:
            bits.append("denominators " + ", ".join(
                f"({f})^{k}" for f, k in rec["denominator_factors"]))
        if rec["collision_factors"]:
            bits.append("collision factors " + ", ".join(
                f"({f})^{k}" for f, k in rec["collision_factors"]))
        lines.append(f"  removed from {rec['component']}: "
                     + "; ".join(bits + [f"content {rec['content']}"]))
    return lines


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
    if fmt == "json":  # every value the table prints is its JSON field
        table = run(capsys, command, "--symmetry-case", case)[1].splitlines()
        data = json.loads(out)
        assert table == (_certify_table(data) if command == "certify"
                         else _build_system_table(data, f"symmetry case {case} system"))


# sha256 of `certify --mu=<mu>` stdout, json with --show-basis --show-matrix
# and table with --show-matrix, recorded while the trace form still divided
# each border monomial by the basis.  The vectors cover every staircase the
# N=3 pool meets (quotient dimension 24, 22 and 20) and one variable (3).
CERTIFY_DIGESTS = {
    ("1,1,1", "json"): "61505924f5b4372bee43ddf76bfbcf3e5b2504e3eb1f1b5c4a60b924356e438c",
    ("1,1,1", "table"): "502616f84a2795aa104235360de88d0f138b9f03f32677ee6420f29bf73347b7",
    ("2,1,9", "json"): "a8cf70e27753cfa89f4dbbfb35e300d957c7eff4d6b7403bc43c845579e5ce21",
    ("2,1,9", "table"): "3f3db807198b5e3ed80dec6673befb6c382acc8ee67ff77e27732bd124e411e5",
    ("2,-1,3", "json"): "f51e16a2e65c6e7d1c6e7d99247694ac968db9c639b82e9ad3cbfc4718fd85a9",
    ("2,-1,3", "table"): "9f501d97d280aa12d1cfbb2d80969be6c67021d390b9cf566a45049cebf3d4b8",
    ("-4,-7,9", "json"): "bfcd5029ff45584fa887d8ed6e00d1f19f038f2b7803aa610dccd86dfa41dc84",
    ("-4,-7,9", "table"): "7e2c4c9b3126dd6222f45f316054976bc970fc532c31915c4485be5fc960de19",
    ("-1,1,1", "json"): "429532153106ff5294f835c5bcf245b975dccb96c08461fdd246b6a64fa69107",
    ("-1,1,1", "table"): "4602dd118673f5ce11e828deef8d90bdb0c25e5f4bb33fb204085244283f3cd7",
    ("2,2,-1", "json"): "98352dceddfb69fb0830d0152a2b87a69809947fc5dc47c2d6a8a478d5794b3f",
    ("2,2,-1", "table"): "2fd54bedb09923204745f5f15a94dcb6abb7e6c21d6b5334e747b000c6cd2acb",
    ("-1,1,2", "json"): "0a21290043672a6d910fc4d11eb6e4d5c80a805fb49abc480e53d77fc54b24e8",
    ("-1,1,2", "table"): "910db10eac7c379e578a8b36f7f088312ad129c75cf4b3147542687e3baaf6cd",
    ("1,-2", "json"): "c337cdb39fb5a55b6405f85586229ac413c0fe32fce53b143e868ec7680fbc0e",
    ("1,-2", "table"): "b8340e51283ae39577c4d5c2354f94f08ce7edd9bee23118f50508ebb6ca825f",
}


@pytest.mark.parametrize("mu,fmt", CERTIFY_DIGESTS)
def test_certify_output_is_frozen(capsys, mu, fmt):
    extra = ["--show-basis", "--show-matrix"] if fmt == "json" else ["--show-matrix"]
    code, out, err = run(capsys, "certify", f"--mu={mu}", "--format", fmt, *extra)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CERTIFY_DIGESTS[mu, fmt]
    if fmt == "json":  # every value the table prints is its JSON field
        table = run(capsys, "certify", f"--mu={mu}", *extra)[1].splitlines()
        assert table == _certify_table(json.loads(out))


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


def test_continue_csv_and_table_print_the_json_records(capsys):
    # one payload: every CSV and table field is its JSON record's value at
    # the precision printed
    argv = ("continue", "--mu=-3,8,-9", "--start-angles=0.0,0.7289956572902648,"
            "4.163205363055863", "--eps", "0.012", "--step", "0.002", "--format")
    code, out, _ = run(capsys, *argv, "json")
    assert code == 0
    records = json.loads(out)["records"]
    assert len(records) == 6
    want = [[f"{rec['epsilon']:.10g}"] + [f"{r:.12f}" for r in rec["radii"]]
            + [f"{a:.12f}" for a in rec["angles"]] + [f"{rec['residual']:.3e}", rec["verdict"]]
            for rec in records]
    code, out, _ = run(capsys, *argv, "csv")
    assert code == 0
    assert [row.split(",") for row in out.splitlines()[1:]] == want
    code, out, _ = run(capsys, *argv, "table")
    assert code == 0
    assert [row.split() for row in out.splitlines()[1:]] == want


def test_every_snapshot_is_the_json_record_at_its_eps(capsys, tmp_path):
    from vortexre.plotting import render_configuration_svg

    target = tmp_path / "trace.json"
    code, _, _ = run(capsys, "continue", "--polygon", "5", "--mu", "1.37", "--eps", "0.02",
                     "--step", "0.004", "--format", "json", "--out", str(target),
                     "--snapshots", "0.004,0.012,0.02")
    assert code == 0
    records = json.loads(target.read_text())["records"]
    for eps in ("0.004", "0.012", "0.02"):
        [record] = [rec for rec in records if abs(rec["epsilon"] - float(eps)) < 1e-9]
        svg = (tmp_path / f"trace_eps{eps}.svg").read_text()
        assert svg == render_configuration_svg(record)


def test_snapshots_go_beside_an_out_path_in_a_dotted_directory(capsys, tmp_path,
                                                              monkeypatch):
    # the base is --out without its extension, not --out cut at the
    # directory's dot; an --out with an extension keeps its former name
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runs.v2").mkdir()
    for out in ("runs.v2/trace", "runs.v2/trace.csv"):
        code, _, _ = run(capsys, "continue", "--polygon", "3", "--mu", "1", "--eps", "0.01",
                         "--step", "0.005", "--snapshots", "0.01", "--out", out)
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == ["runs.v2"]
        assert sorted(p.name for p in (tmp_path / "runs.v2").iterdir()) == sorted(
            [out.split("/")[1], "trace_eps0.01.svg"])
        for path in (tmp_path / "runs.v2").iterdir():
            path.unlink()


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
    calls = []
    monkeypatch.setattr(cli, "_continue_rows",
                        lambda payload, rows=cli._continue_rows: calls.append(1)
                        or rows(payload))
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


def test_continue_from_a_start_the_potential_separates_is_a_failure(capsys):
    # angles 2e-8 apart are two vortices to the reduced potential, but no
    # critical point
    code, out, err = run(capsys, "continue", "--mu=1,1,1", "--eps", "0.01",
                         "--start-angles=0,1,1.00000002")
    assert code == 1
    assert out == ""
    assert "failure: gradient infinity-norm" in err and "exceeds tolerance" in err


@pytest.mark.parametrize("eps", ["0", "0.01"])
def test_continue_from_a_colliding_start_writes_nothing(capsys, tmp_path, eps):
    target = tmp_path / "z.csv"
    code, out, err = run(capsys, "continue", "--mu", "1,1,1", "--start-angles", "0,0,2",
                         "--eps", eps, "--snapshots", "0", "--out", str(target))
    assert code == 2
    assert out == ""
    assert "error: the start is a collision: vortices 1 and 2 coincide" in err
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


def test_plot_writes_beside_its_input_in_a_dotted_directory(capsys, tmp_path, monkeypatch):
    # the default output is the input without its extension, not the input
    # cut at the directory's dot, plus .svg
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runs.v2").mkdir()
    for config in ("runs.v2/walk", "runs.v2/walk.json"):
        (tmp_path / config).write_text(json.dumps({"angles": [0.0, 2.0, 4.0]}))
        assert run(capsys, "plot", config)[0] == 0
        assert [p.name for p in tmp_path.iterdir()] == ["runs.v2"]
        assert (tmp_path / "runs.v2" / "walk.svg").read_text().startswith("<svg")
        for path in (tmp_path / "runs.v2").iterdir():
            path.unlink()


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
    ('{"angles": [], "mu": []}', "angles"),
])
def test_plot_rejects_a_malformed_record(capsys, tmp_path, record, key):
    bad = tmp_path / "bad.json"
    bad.write_text(record)
    code, out, err = run(capsys, "plot", str(bad), "--out", str(tmp_path / "bad.svg"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and f"'{key}'" in err
    assert not (tmp_path / "bad.svg").exists()


@pytest.mark.parametrize("mu,eps", [
    ([-0.5, -0.5], 1),
    # 1 + eps*sum(mu) comes out about 1e-16 here, 0 up to rounding
    ([-0.3] * 5, 0.6666666666666666),
])
def test_plot_refuses_a_zero_total_circulation(capsys, tmp_path, mu, eps):
    # without z0 the strong vortex sits at the center of vorticity, which
    # divides by the total circulation
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"angles": [float(k) for k in range(len(mu))],
                               "mu": mu, "epsilon": eps}))
    code, out, err = run(capsys, "plot", str(bad), "--out", str(tmp_path / "bad.svg"))
    assert (code, out) == (2, "")
    assert err.startswith("error: total circulation 1 + eps*sum(mu) is 0")
    assert not (tmp_path / "bad.svg").exists()


@pytest.mark.parametrize("name,out", [
    ("in.svg", None),           # the default output, the input's stem + ".svg"
    ("in.json", "in.json"),     # --out names the input itself
    ("in.json", "./in.json"),   # another spelling of the same path
])
def test_plot_refuses_to_overwrite_its_input(capsys, tmp_path, monkeypatch, name, out):
    monkeypatch.chdir(tmp_path)
    record = b'{"angles": [0.0, 2.0, 4.0]}'
    (tmp_path / name).write_bytes(record)
    code, stdout, err = run(capsys, "plot", name, *(["--out", out] if out else []))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and "input" in err
    assert (tmp_path / name).read_bytes() == record
    assert [p.name for p in tmp_path.iterdir()] == [name]


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
    # recorded while each component still rebuilt every leave-one-out product
    ("1,2,-3,4,5,-6", "json"): "98e049390c9fcd21e4c0e9db819c5721b8699cab71f684e01af7e75daf4a0173",
    ("1,2,-3,4,5,-6", "table"): "fbef3b61a72ca125008464208b50da6c43033ffc28457966af76d8192c62a4ab",
}


@pytest.mark.parametrize("mu,fmt", BUILD_SYSTEM_DIGESTS)
def test_build_system_output_is_frozen(capsys, mu, fmt):
    code, out, err = run(capsys, "build-system", "--mu", mu, "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == BUILD_SYSTEM_DIGESTS[mu, fmt]
    if fmt == "json":  # every value the table prints is its JSON field
        table = run(capsys, "build-system", "--mu", mu)[1].splitlines()
        title = f"critical-point system for mu = ({mu.replace(',', ', ')})"
        assert table == _build_system_table(json.loads(out), title)


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


def test_simulate_names_the_rtol_floor(capsys):
    code, out, err = run(capsys, "simulate", "--polygon", "3", "--mu", "1", "--eps", "0.05",
                         "--periods", "0.01", "--rtol", "2.2e-14")
    assert (code, out) == (2, "")
    assert "argument --rtol: must be at least 2.220446049250313e-14, got 2.2e-14" in err
    code, _, _ = run(capsys, "simulate", "--polygon", "3", "--mu", "1", "--eps", "0.05",
                     "--periods", "0.01", "--rtol", "2.220446049250313e-14")
    assert code == 0


@pytest.mark.parametrize("rtol, shown", [("1", "1.0"), ("1e300", "1e+300")])
def test_simulate_names_the_rtol_ceiling(capsys, rtol, shown):
    # at 1e300 the error control accepted every step, and a polygon that
    # should stay put reported a co-rotating frame drift of 2.5
    code, out, err = run(capsys, "simulate", "--polygon", "3", "--mu", "1", "--eps", "0.05",
                         "--periods", "0.01", "--rtol", rtol)
    assert (code, out) == (2, "")
    assert f"argument --rtol: must be below 1, got {shown}" in err
    code, _, _ = run(capsys, "simulate", "--polygon", "3", "--mu", "1", "--eps", "0.05",
                     "--periods", "0.01", "--rtol", "0.999")
    assert code == 0


def test_simulate_stops_at_the_step_cap(capsys, monkeypatch):
    # two vortices 1e-10 apart orbit each other in steps too small to reach
    # t = 2*pi*0.01: without the cap the run never ended
    from vortexre import dynamics

    monkeypatch.setattr(dynamics, "_MAX_STEPS", 1000)
    code, out, err = run(capsys, "simulate", "--mu=1,1,1", "--eps", "0.01", "--periods",
                         "0.01", "--start-angles=0,1,1.0000000001")
    assert (code, out) == (1, "")
    assert re.fullmatch(r"failure: integration stopped at t = \S+ of 0\.0628319 "
                        r"after 1000 steps\n", err)


_OVERFLOW = ("error: the start overflows: its circulations eps*mu or "
             "squared pair distances are not finite\n")


@pytest.mark.parametrize("argv", [
    # eps*mu*Z overflowed in the strong vortex's offset: exit 1, numpy warnings
    ["--polygon", "3", "--mu", "1", "--eps", "1e300", "--periods", "0.1"],
    # a squared distance overflowed: exit 0, a hamiltonian drift of nan
    ["--mu", "1,1,1", "--start-angles", "0,1,2", "--radii", "1e200,1,1", "--eps", "0.05",
     "--periods", "0.1"],
    # eps*mu itself overflows
    ["--mu=1e200,1", "--start-angles", "0,1", "--eps", "1e200", "--periods", "0.1"],
])
def test_simulate_refuses_a_start_that_overflows(capsys, tmp_path, argv):
    target = tmp_path / "trajectory.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        code, out, err = run(capsys, "simulate", *argv, "--out", str(target))
    assert (code, out, err) == (2, "", _OVERFLOW)
    assert not target.exists()


def test_continue_refuses_a_walk_over_the_step_cap(capsys, tmp_path):
    # one step past the cap; a wrong cap would be a slow test, not a lost
    # process, as --step 1e-300 was
    target = tmp_path / "trace.csv"
    code, out, err = run(capsys, "continue", "--polygon", "3", "--mu", "1", "--eps", "1",
                         "--step", "9.99e-6", "--snapshots", "0.5", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == ("error: continuing to eps=1 in steps of 9.99e-06 takes 100101 steps, "
                   "more than 100000\n")
    assert list(tmp_path.iterdir()) == []


_NO_CENTER = "total circulation 1 + eps*sum(mu) is 0: there is no center of vorticity"


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("mu", [-0.1, -0.3, -0.7])
def test_a_total_circulation_of_zero_up_to_rounding_is_refused(capsys, n, mu):
    # 1 + eps*N*mu computes to 0 or to a rounding residue of 1e-16 or 2e-16
    eps = repr(-1.0 / (n * mu))
    code, out, err = run(capsys, "simulate", "--polygon", str(n), "--mu", repr(mu),
                         "--eps", eps, "--periods", "0.01")
    assert (code, out, err) == (2, "", f"error: {_NO_CENTER}\n")
    code, _, err = run(capsys, "continue", "--polygon", str(n), "--mu", repr(mu),
                       "--eps", eps, "--step", eps)
    assert (code, err) == (1, f"continuation stopped early: eps={float(eps):.6g}: {_NO_CENTER}\n")


@pytest.mark.parametrize("argv,message", [
    (["continue", "--mu=1,1,1", "--eps", "0.01", "--start-angles", "0,2"],
     "need one start angle per weight"),
    (["continue", "--mu=1,1,1", "--eps", "0.01", "--select", "stable maximum"],
     "no critical point matches selector 'stable maximum'"),
    (["simulate", "--mu=1,1,1", "--eps", "0.01"], "need --start-angles or --polygon"),
    (["simulate", "--mu=1,1,1", "--eps", "0.01", "--start-angles", "0,2"],
     "need one start angle per weight"),
    (["simulate", "--mu=1,1,1", "--eps", "0.01", "--start-angles", "0,2,4", "--radii", "1,1"],
     "need one radius per weight"),
])
def test_a_start_that_cannot_be_made_is_refused(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_plot_refuses_an_index_past_a_trace_and_an_empty_list(capsys, tmp_path):
    code, trace, _ = run(capsys, *_CONTINUE_POLYGON, "--format", "json")
    assert code == 0
    config = tmp_path / "trace.json"
    config.write_text(trace)  # its two configurations are under "records"
    assert run(capsys, "plot", str(config), "--index", "2") == (
        2, "", "error: --index out of range 0..1\n")
    config.write_text("[]")
    assert run(capsys, "plot", str(config)) == (2, "", "error: no configurations in input\n")


def test_normalized_weights_that_underflow_are_refused(capsys):
    # a refusal of the weights, like that of the weights as given, exits 2;
    # it exited 1 as a failure while the CLI mapped each refusal by hand
    code, out, err = run(capsys, "continue", "--mu=3e-154,3e-154,1e10", "--normalize",
                         "--eps", "0.01", "--start-angles", "0,2,4")
    assert (code, out, err) == (2, "", "error: products of weights must not underflow\n")


@pytest.mark.parametrize("mu,eps", [("1", "1e308"), ("1e150", "1e158")])
def test_simulate_refuses_a_polygon_whose_radius_overflows(capsys, mu, eps):
    # R^2 = 1 + mu*eps is inf; numpy warned while the positions were made
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(capsys, "simulate", "--polygon", "3", "--mu", mu, "--eps", eps)
    assert result == (2, "", _OVERFLOW)


@pytest.mark.parametrize("refuse,args", [
    (CirculationWeights, ((1.0,),)),
    (CirculationWeights, ((1.0, 0.0),)),
    (CirculationWeights, ((1.0, math.nan),)),
    (CirculationWeights, ((1e200, 1e200),)),
    (CirculationWeights, ((1e-170, 1e-170),)),
    (build_equal_weight_system, ((1,),)),
    (build_equal_weight_system, ((1, 0),)),
    (build_equal_weight_system, ((Fraction(1, 2), 1),)),
    (build_symmetry_case_system, (4,)),
    (polygon_family, (1, 1.0, 0.0)),
    (polygon_family, (3, -1.0, 2.0)),
    (_epsilon_schedule, (-1.0, 0.1)),
    (_epsilon_schedule, (1.0, 1e-9)),
])
def test_the_library_refuses_its_input_with_an_input_error(refuse, args):
    with pytest.raises(InputError):
        refuse(*args)


@pytest.mark.parametrize("error,code,label", [
    (InputError, 2, "error"),
    (CirculationError, 2, "error"),
    (CollisionError, 1, "failure"),
    (NotACriticalPointError, 1, "failure"),
    (ValueError, 1, "failure"),
    (ConvergenceError, 1, "failure"),
])
def test_the_exit_code_goes_by_the_type_of_the_error(capsys, monkeypatch, tmp_path,
                                                      error, code, label):
    def refuse(path, index):
        raise error("no answer")

    monkeypatch.setattr(cli, "_load_plot_record", refuse)
    assert run(capsys, "plot", str(tmp_path / "any.json")) == (code, "", f"{label}: no answer\n")


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
        # the start is not a critical point: the run fails after the check
        code, _, err = run(capsys, "continue", "--mu", "1,1,1", "--start-angles", "0,1,2",
                           "--eps", "0.01", "--step", "0.01", "--out", str(out))
        assert code == 1 and "failure: gradient infinity-norm" in err
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


def _child_env():
    """A fresh interpreter's environment: this one's import path, and its
    PYTHONDONTWRITEBYTECODE, so a run that writes no bytecode keeps its
    child interpreters from writing any either."""
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join(sys.path)}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


def test_calls_after_a_bad_flag_print_what_a_fresh_interpreter_prints(capsys):
    # every call shares one parser; a call that it refuses leaves nothing
    # behind for the calls after it
    for argv, code in ((["find", "--mu", "1,1", "--seeds", "many"], 2),
                       (["certify", "--mu=2,-1,3", "--format", "json"], 0),
                       (["find", "--mu=2,-1,3", "--seeds", "64"], 0)):
        fresh = subprocess.run(
            [sys.executable, "-m", "vortexre.cli", *argv], capture_output=True, text=True,
            env=_child_env())
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
    # 2*pi*periods overflowed to inf, and the integration never ended
    ["simulate", "--polygon", "3", "--mu", "1", "--eps", "0.05", "--periods", "1e308"],
    ["simulate", "--polygon", "3", "--mu", "1", "--eps", "0.05", "--rtol", "0"],
    ["simulate", "--polygon", "3", "--mu", "1", "--eps", "0.05", "--rtol=-1e-9"],
    # below 100 machine epsilons the integrator would raise rtol itself
    ["simulate", "--polygon", "3", "--mu", "1", "--eps", "0.05", "--rtol", "1e-15"],
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
    (["find", "--mu=nan,1"], "is not finite"),
    (["find", "--mu=inf,1"], "is not finite"),
    (["find", "--mu=1e200,1e200,1"], "products of weights must be finite"),
    (["find", "--mu=1/0,1"], "zero denominator"),
    (["find", "--mu", "1,1", "--tol-grad", "inf"], "argument --tol-grad: must be finite"),
    (["continue", "--mu=nan,1,1", "--eps", "0.01"], "is not finite"),
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
          (",", "empty entry in --mu list ','"),
          ("1,0,1", "weights must be nonzero"),
          ("1/2,0,3", "weights must be nonzero"),
          ("1/2,1,3", "integer weights; the counts depend only on the weight ratio, "
                      "so rescale, e.g. 1,2,6"),
          ("2/3,-1/6", "integer weights; the counts depend only on the weight ratio, "
                       "so rescale, e.g. 4,-1"),
      ]],
    # an empty entry in a number list is refused, not dropped
    (["certify", "--mu", "1,,1"], "empty entry in --mu list '1,,1'"),
    (["certify", "--mu", "1,1,"], "empty entry in --mu list '1,1,'"),
    (["build-system", "--mu=-1,,3"], "empty entry in --mu list '-1,,3'"),
    (["find", "--mu", "1,,1"], "empty entry in --mu list '1,,1'"),
    (["continue", "--polygon", "3", "--mu", "1,", "--eps", "0.01"],
     "empty entry in --mu list '1,'"),
    (["continue", "--mu", "1,1,1", "--start-angles", "0,,2.0,4.0", "--eps", "0.01"],
     "empty entry in --start-angles list '0,,2.0,4.0'"),
    (["simulate", "--mu", "1,1,1", "--start-angles", "0,2,4", "--eps", "0.01",
      "--radii", "1,,1,1"], "empty entry in --radii list '1,,1,1'"),
    # a negative list with an empty entry is joined to its flag, and refused
    (["certify", "--mu", "-1,,3"], "empty entry in --mu list '-1,,3'"),
    # the search tolerances are relative to the weight scale: at 1 or more
    # --tol-grad took non-critical points and --tol-zero-eig called every
    # point degenerate
    (["find", "--mu=1,2,3", "--tol-grad", "1"], "argument --tol-grad: must be below 1"),
    (["find", "--mu=1,2,3", "--tol-grad=1e3"], "argument --tol-grad: must be below 1"),
    (["find", "--mu=1,2,3", "--tol-zero-eig", "1"],
     "argument --tol-zero-eig: must be below 1"),
    (["continue", "--mu=1,2,3", "--select", "stable", "--eps", "0.01", "--tol-grad", "1"],
     "argument --tol-grad: must be below 1"),
    (["continue", "--mu=1,2,3", "--point-index", "0", "--eps", "0.01",
      "--tol-zero-eig", "2"], "argument --tol-zero-eig: must be below 1"),
    # a start whose vortices coincide is bad input, not a failed computation:
    # equal angles, angles a turn apart, and a weak vortex on the strong one
    (["continue", "--mu=1,1,1", "--eps", "0.01", "--start-angles=-1/3,1,1"],
     "the start is a collision: vortices 2 and 3 coincide"),
    (["continue", "--mu=1,1,1", "--eps", "0.01", "--start-angles=0,6.283185307179586,2"],
     "the start is a collision: vortices 1 and 2 coincide"),
    (["simulate", "--mu=1,1,1", "--eps", "0.01", "--periods", "0.01", "--start-angles=0,1,1"],
     "the start is a collision: vortices 2 and 3 coincide"),
    (["simulate", "--mu=1,1,1", "--eps", "0.01", "--periods", "0.01",
      "--start-angles=0,1,2", "--radii=0,1,1"],
     "the start is a collision: vortices 0 and 1 coincide"),
    # angles 1e-10 apart, which the reduced potential cannot separate
    (["continue", "--mu=1,1,1", "--eps", "0.01", "--start-angles=0,1,1.0000000001"],
     "the start is a collision: vortices 2 and 3 coincide"),
    # a selector with no words would match every point
    (["continue", "--mu=1,1,1", "--select", "", "--eps", "0.005"],
     "--select '' has no words"),
    (["continue", "--mu=1,1,1", "--select", "  ", "--eps", "0.005"],
     "--select '  ' has no words"),
])
def test_usage_errors_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert out == ""


@pytest.mark.parametrize("weights", ["1e10000000,1", "1e-10000000,1", "1/1" + "0" * 400 + ",1",
                                     "1e999999999999999999999,1"])
def test_weights_outside_the_float_range_are_refused_before_fraction_reads_them(
        capsys, monkeypatch, weights):
    # Fraction would expand 1e10000000 into ten million digits; an exponent
    # beyond Decimal's own range reached Fraction, which ran on past 20 s
    def refusing(text):
        raise AssertionError(f"Fraction({text!r})")

    monkeypatch.setattr(cli, "Fraction", refusing)
    item = weights.split(",")[0]
    for command in ("certify", "find"):
        for argv in ([command, "--mu", weights], [command, f"--mu={weights}"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.endswith(f"error: argument --mu: cannot parse --mu list {weights!r}: "
                                f"{item!r} is outside the float range\n")


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


# -- the one reader of number lists --------------------------------------------

_TESTS = os.path.dirname(os.path.abspath(__file__))
_LIST_TEXT = re.compile(r'"--(?:mu|start-angles|radii|snapshots)(?:=|", ")([^"{}]*)"')


def _list_texts_in_tests():
    """Every literal number list these tests give a list flag."""
    texts = set()
    for name in sorted(os.listdir(_TESTS)):
        if name.endswith(".py"):
            with open(os.path.join(_TESTS, name), encoding="utf-8") as fh:
                texts.update(_LIST_TEXT.findall(fh.read()))
    return sorted(texts)


def _pool_vectors(node):
    """Every list of numbers in a parsed JSON document."""
    if isinstance(node, list) and node and all(type(v) in (int, float) for v in node):
        yield node
    elif isinstance(node, (list, dict)):
        for child in node.values() if isinstance(node, dict) else node:
            yield from _pool_vectors(child)


def _benchmark_texts():
    """Every vector of the benchmark's pools, written as its jobs write it."""
    with open(os.path.join(_TESTS, os.pardir, "vortexbench", "pools.json"),
              encoding="utf-8") as fh:
        return [",".join(repr(v) for v in vector) for vector in _pool_vectors(json.load(fh))]


def _random_texts(count=4000):
    """Decimals of every form and magnitude, and ratios of integers below 2**53."""
    rng = random.Random(33)
    texts = []
    for _ in range(count):
        sign = rng.choice(["", "-", "+"])
        digits = str(rng.getrandbits(rng.randint(1, 80)))
        point = rng.randint(0, len(digits))
        exponent = rng.choice(["", f"e{rng.randint(-300, 300)}", f"E+{rng.randint(0, 290)}"])
        texts += [sign + digits[:point] + "." + digits[point:] + exponent,
                  repr(rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-300, 300)),
                  f"{sign}{rng.getrandbits(53)}/{rng.getrandbits(53) or 1}"]
    return texts


def test_the_reader_gives_every_float_the_bits_of_the_float_reading():
    # float(Fraction(s)) and float(s) are both correctly rounded, and so is
    # a/b for integers below 2**53, so the exact reader keeps every bit
    read = cli._numbers("--mu")
    tests, pools = _list_texts_in_tests(), _benchmark_texts()
    assert len(tests) > 30 and len(pools) > 500
    compared = 0
    for text in tests + pools + _random_texts():
        try:
            want = reference_weights_parse(text)
        except ValueError:
            want = None
        try:
            got = [float(x) for x in read(text)]
        except argparse.ArgumentTypeError:
            # refused only where the float reading fails or is not finite
            assert want is None or not all(map(math.isfinite, want)), text
            continue
        # but for the sign of zero: -0 is the Fraction 0, whose float is +0.0
        assert [x.hex() for x in got] == [(x + 0.0).hex() for x in want], text
        compared += 1
    assert compared > 12000


_LIST_ARGV = {
    "--mu": ["find", "--seeds", "64"],
    "--start-angles": ["simulate", "--mu=1,1,1", "--eps", "0.01", "--periods", "0.01"],
    "--radii": ["simulate", "--mu=1,1,1", "--start-angles=0,2,4", "--eps", "0.01",
                "--periods", "0.01"],
    "--snapshots": ["continue", "--polygon", "3", "--mu", "1", "--eps", "0.01"],
}


@pytest.mark.parametrize("text", ["-1e-400,2,4", "-1/3,1,1", "-1.5/2,1"])
@pytest.mark.parametrize("flag", sorted(_LIST_ARGV))
def test_a_negative_list_reads_the_same_as_a_word_and_after_equals(
        capsys, monkeypatch, tmp_path, flag, text):
    monkeypatch.chdir(tmp_path)  # where --snapshots would write its SVGs
    spaced = run(capsys, *_LIST_ARGV[flag], flag, text)
    assert run(capsys, *_LIST_ARGV[flag], f"{flag}={text}") == spaced
    # the flag's type read the list: it was not left to argparse as an option
    assert "expected one argument" not in spaced[2]


@pytest.mark.parametrize("item", ["1_000", "1 / 3", "\u0663", "1.5/2", "0x10", "1/-3"])
def test_number_syntax_beyond_decimals_and_integer_ratios_is_refused(capsys, item):
    # float() and Fraction() read some of these, depending on the Python version
    for flag in _LIST_ARGV:
        with pytest.raises(argparse.ArgumentTypeError, match="not a decimal or a ratio"):
            cli._numbers(flag)(f"{item},1,1")
    code, out, err = run(capsys, "find", f"--mu={item},1,1")
    assert (code, out) == (2, "")
    assert err.endswith(f"{item!r} is not a decimal or a ratio of integers\n")


def test_ratios_are_weights_and_angles_in_every_subcommand(capsys):
    code, out, err = run(capsys, "continue", "--polygon", "3", "--mu", "1/3", "--eps", "0.01")
    assert (code, err) == (0, "")
    assert out == run(capsys, "continue", "--polygon", "3", "--mu",
                      repr(1 / 3), "--eps", "0.01")[1]
    code, out, err = run(capsys, "simulate", "--mu=1,1,1", "--start-angles=0,21/10,41/10",
                         "--eps", "0.01", "--periods", "0.01")
    assert (code, err) == (0, "")
    assert out == run(capsys, "simulate", "--mu=1,1,1", "--start-angles=0,2.1,4.1",
                      "--eps", "0.01", "--periods", "0.01")[1]


# -- what a fresh interpreter loads --------------------------------------------


# the modules of the exact stack, which only certify and build-system run
_EXACT_LAYERS = ("vortexre.groebner", "vortexre.halfangle", "vortexre.hermite",
                 "vortexre.polynomials", "vortexre._kernels")


def _heavy_modules_after(code, names=("numpy", "scipy")):
    """Which of the modules `names` a fresh interpreter holds after running
    code, read from the last line it prints."""
    probe = code + (
        "\nimport sys\n"
        f"print(' '.join(m for m in {tuple(names)!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=_child_env())
    assert out.returncode == 0, out.stderr
    return set(out.stdout.splitlines()[-1].split())


def _main_code(*argv):
    return f"from vortexre.cli import main\nassert main({list(argv)!r}) == 0"


def test_cli_import_loads_neither_numpy_nor_scipy():
    names = ("numpy", "scipy") + _EXACT_LAYERS
    assert _heavy_modules_after("import vortexre.cli", names) == set()


def test_exact_subcommands_run_without_numpy(tmp_path):
    record = tmp_path / "record.json"
    record.write_text(json.dumps({"angles": [0.0, 2.0, 4.0], "mu": [1, 2, 3]}))
    out = str(tmp_path / "out")
    for argv in (["certify", "--mu=1,1,1", "--out", out],
                 ["build-system", "--mu=2,1,9", "--out", out],
                 ["plot", str(record), "--out", out]):
        assert "numpy" not in _heavy_modules_after(_main_code(*argv)), argv


def test_exact_subcommands_load_neither_dataclasses_nor_inspect(tmp_path):
    # the exact stack's records are named tuples and a slotted class, so
    # certify does not pay for importing dataclasses and, through it, inspect
    out = str(tmp_path / "out")
    for argv in (["certify", "--mu=2,-1,3", "--out", out],
                 ["build-system", "--mu=2,1,9", "--out", out],
                 ["certify", "--symmetry-case", "1", "--out", out]):
        assert _heavy_modules_after(_main_code(*argv), ("dataclasses", "inspect")) == set(), argv


def test_dynamics_and_find_run_without_scipy(tmp_path):
    """find, continue and simulate load numpy, and neither scipy nor the
    exact stack."""
    names = ("numpy", "scipy") + _EXACT_LAYERS
    assert _heavy_modules_after("import vortexre.dynamics", names) == {"numpy"}
    for argv in (["find", "--mu=2,-1,3", "--seeds", "64",
                  "--out", str(tmp_path / "points.json")],
                 ["continue", "--polygon", "5", "--mu", "1", "--eps", "0.01",
                  "--step", "0.005", "--out", str(tmp_path / "trace.csv")],
                 ["simulate", "--polygon", "5", "--mu", "1.2", "--eps", "0.05",
                  "--periods", "1", "--out", str(tmp_path / "trajectory.csv")]):
        assert _heavy_modules_after(_main_code(*argv), names) == {"numpy"}, argv


# -- the JSON writer -------------------------------------------------------------

# strings that json escapes: non-ASCII (one and two UTF-16 units), quotes,
# backslashes and control characters
_STRINGS = ["", "plain", "caf\u00e9", "\u03b8\u2081", "\U0001d70b", 'say "hi"', "back\\slash",
            "tab\there", "line\nbreak", "\x00\x1f\x7f", "/"]
# zeros of both signs, with 0.0 first so -0.0 meets a seen zero; the
# smallest subnormal, a large float, non-finite values and a numpy float
_FLOATS = [0.0, -0.0, 0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308,
           0.1, 1 / 3, -2.5, np.float64(0.1), np.float64(-0.0), np.float64(math.nan)]


def _random_json_value(rng, depth):
    kind = rng.randrange(8 if depth else 5)
    if kind == 0:
        return rng.choice(_STRINGS)
    if kind == 1:
        return rng.choice([0, -1, 7, 2 ** 70, True, False, None])
    if kind in (2, 3, 4):  # floats, often repeated within one value
        return rng.choice(_FLOATS + [rng.uniform(-10.0, 10.0)])
    items = [_random_json_value(rng, depth - 1) for _ in range(rng.randrange(4))]
    if kind == 5:
        return items
    if kind == 6:
        return tuple(items)
    return {rng.choice(_STRINGS) + str(k): item for k, item in enumerate(items)}


def test_json_writer_gives_the_bytes_of_json_dumps():
    rng = seeded(39)
    for _ in range(2000):
        value = _random_json_value(rng, 4)
        assert cli._json_text(value) == json.dumps(value, indent=2) + "\n", value
    # one memo serves the whole value: a zero after its opposite, a float
    # after a numpy float of the same value, and the repeats
    value = {"z": [0.0, -0.0, [-0.0, 0.0]], "f": [np.float64(0.25), 0.25, 0.25],
             "n": [math.nan, math.nan, -math.inf, math.inf]}
    assert cli._json_text(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [np.int64(3), {1, 2}, [0.5, np.int64(1)],
                                   {"a": {"b": frozenset()}}, object()])
def test_json_writer_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        cli._json_text(value)


# -- answers the library computes, and the overflows refused ---------------------

@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("mu", ["1.3", "-0.5", "1/3"])
def test_polygon_snapshots_keep_the_start_the_cli_built_from_its_angles(capsys, tmp_path,
                                                                        n, mu):
    from vortexre.dynamics import HelioConfig
    from vortexre.plotting import render_configuration_svg

    # the eps = 0 snapshot is polygon_family's; the CLI built it from the
    # angles 2*pi*k/N and N copies of the weight, which give the same bits
    target = tmp_path / "trace.json"
    code, _, _ = run(capsys, "continue", "--polygon", str(n), f"--mu={mu}", "--eps", "0.02",
                     "--step", "0.01", "--snapshots", "0,0.01,0.02", "--format", "json",
                     "--out", str(target))
    assert code == 0
    weight = float(Fraction(mu))
    angles = [2.0 * math.pi * k / n for k in range(n)]
    start = HelioConfig.from_angles(angles, CirculationWeights((weight,) * n), 0.0)
    assert (tmp_path / "trace_eps0.svg").read_text() == \
        render_configuration_svg(start.to_dict())
    records = json.loads(target.read_text())["records"]
    for eps, record in zip(("0.01", "0.02"), records):
        assert (tmp_path / f"trace_eps{eps}.svg").read_text() == \
            render_configuration_svg(record)


def test_normalize_takes_an_overflow_safe_norm_where_numpy_overflows(capsys):
    # numpy's norm of (1e300, 1) overflowed, so the weights scaled to 0
    argv = ["continue", "--mu=1e300,1", "--normalize", "--eps", "0.01",
            "--start-angles", "0,3.141592653589793", "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    trace = json.loads(out)
    assert trace["mu"] == [1.0, 1e-300]
    assert trace["failure"] is None and len(trace["records"]) == 2


def test_normalize_keeps_numpys_norm_where_it_is_finite(capsys):
    code, out, _ = run(capsys, "continue", "--mu=3,-4,12", "--normalize", "--eps", "0",
                       "--point-index", "0", "--format", "json")
    assert code == 0
    scale = 1.0 / float(np.linalg.norm(np.array([3.0, -4.0, 12.0])))
    assert json.loads(out)["mu"] == [3.0 * scale, -4.0 * scale, 12.0 * scale]


_WALK_OVERFLOW = ("error: the walk overflows at eps={}: its circulations eps*mu, their "
                  "total or squared pair distances are not finite\n")


@pytest.mark.parametrize("argv,eps", [
    # the total circulation 1 + 3e308 overflowed in the walk's check of its
    # schedule, and the solve at eps = 5e157 did not converge
    (["--polygon", "3", "--mu", "1e150", "--eps", "1e158", "--step", "5e157"], "1e+158"),
    # the 12-gon's squared diameter, 2.2e308, overflows; its total 1.2e308 does not
    (["--polygon", "12", "--mu", "1e150", "--eps", "1e157", "--step", "1e157"], "1e+157"),
    # the circulations of a walk from given angles: the first eps named
    (["--mu=1e150,1e150", "--start-angles", "0,3.141592653589793", "--eps", "3e158",
      "--step", "1e158"], "1e+158"),
])
def test_continue_refuses_a_schedule_that_overflows(capsys, tmp_path, argv, eps):
    target = tmp_path / "trace.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        result = run(capsys, "continue", *argv, "--snapshots", "0", "--out", str(target))
    assert result == (2, "", _WALK_OVERFLOW.format(eps))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("record", [
    # eps*mu is +-inf, and their total NaN: the SVG read "M nan nan"
    {"angles": [0, 2], "mu": [1e300, -1e300], "epsilon": 1e10},
    # eps*mu is inf, and the zero rule read the infinite total as 0
    {"angles": [0, 2], "mu": [1e200, 1e200], "epsilon": 1e200},
])
def test_plot_refuses_a_record_whose_circulations_overflow(capsys, tmp_path, record):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(record))
    code, out, err = run(capsys, "plot", str(bad), "--out", str(tmp_path / "bad.svg"))
    assert (code, out) == (2, "")
    assert err == ("error: the record overflows: its circulations eps*mu or their "
                   "total are not finite\n")
    assert not (tmp_path / "bad.svg").exists()
