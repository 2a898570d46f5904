"""Command-line interface.

Subcommands: find, certify, continue, plot, build-system, simulate.
Exit codes: 0 success, 1 computational failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from vortexre.dynamics import (
    ContinuationTrace,
    HelioConfig,
    continue_family,
    corotating_drift,
    full_system_stability,
    hamiltonian,
    integrate_vortices,
    newton_solve,
    polygon_family,
    re_residual,
)
from vortexre.errors import CollisionError, ConvergenceError, NotACriticalPointError
from vortexre.groebner import buchberger, elimination_ideal
from vortexre.halfangle import build_equal_weight_system, build_symmetry_case_system
from vortexre.hermite import (
    InfiniteVarietyError,
    hermite_matrix,
    quotient_basis,
    signature_and_rank,
)
from vortexre.plotting import render_configuration_svg
from vortexre.potential import AngularConfig, CirculationWeights
from vortexre.search import (
    export_critical_points,
    find_all_critical_points,
    group_into_families,
)


class UsageError(ValueError):
    """Bad arguments detected after parsing; maps to exit code 2."""


def _parse_fractions(text):
    try:
        return [Fraction(part.strip()) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse weights {text!r}: {exc}") from None


def _parse_floats(text):
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"cannot parse number list {text!r}: {exc}") from None


def _bounded(kind, low, strict=False):
    """argparse type: a `kind` value of at least `low`, or above it if strict."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'above' if strict else 'at least'} {low}, got {value}")
        return value
    return parse


_positive_int = _bounded(int, 1)
_polygon_count = _bounded(int, 2)
_positive_float = _bounded(float, 0.0, strict=True)
_nonnegative_float = _bounded(float, 0.0)


def _parse_weights(text):
    try:
        return CirculationWeights.parse(text)
    except ValueError as exc:
        raise UsageError(f"bad weights {text!r}: {exc}") from None


def _write_output(text, out):
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


# -- find --------------------------------------------------------------------

def _find_table(report):
    mu = report["points"][0]["mu"] if report["points"] else []
    lines = [f"critical points for mu = ({', '.join(str(m) for m in mu)})"]
    header = (f"{'#':>3} {'family':>6} {'sym':>4} {'verdict':<10} {'type':<10} "
              "theta (rad) | theta (deg)")
    lines.append(header)
    for idx, rec in enumerate(report["points"]):
        rad = " ".join(f"{a:9.6f}" for a in rec["angles"])
        deg = " ".join(f"{math.degrees(a):7.2f}" for a in rec["angles"])
        lines.append(
            f"{idx:>3} {rec['family']:>6} {'yes' if rec['symmetric'] else 'no':>4} "
            f"{rec['verdict']:<10} {rec['extremal_type']:<10} {rad} | {deg}")
    lines.append(f"{report['count']} critical points in "
                 f"{report['family_count']} families")
    return "\n".join(lines) + "\n"


def _find_csv(report):
    n = len(report["points"][0]["angles"]) if report["points"] else 0
    rows = [["index", "family", "symmetric", "verdict", "extremal_type"]
            + [f"theta{i+1}" for i in range(n)]]
    for idx, rec in enumerate(report["points"]):
        rows.append([idx, rec["family"], int(rec["symmetric"]), rec["verdict"],
                     rec["extremal_type"]] + [f"{a:.12f}" for a in rec["angles"]])
    return _csv_text(rows)


def _morse_sum(points, mu):
    """Sum of (-1)^index over the points, or None where no identity applies.

    With every weight of one sign, V -> +inf at each collision, so V is
    proper on each of the (N-1)! cyclic-ordering cells, and a complete
    catalogue of nondegenerate points has sum (N-1)!.  The index counts
    the negative Hessian eigenvalues beyond the rotational zero.
    """
    if not (mu.all_positive() or all(m < 0 for m in mu)):
        return None
    total = 0
    for p in points.points:
        if p.report.zero_count != 1:
            return None
        eigs = sorted(p.report.hessian_eigs, key=abs)[1:]
        total += (-1) ** sum(e < 0 for e in eigs)
    return total


def cmd_find(args):
    mu = _parse_weights(args.mu)
    points = find_all_critical_points(mu, seeds=args.seeds,
                                      tol_grad=args.tol_grad,
                                      tol_zero=args.tol_zero_eig)
    families = group_into_families(points)
    report = export_critical_points(points, families)
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    elif args.format == "csv":
        text = _find_csv(report)
    else:
        text = _find_table(report)
    _write_output(text, args.out)
    total, want = _morse_sum(points, mu), math.factorial(len(mu) - 1)
    if total is not None and total != want:
        print(f"warning: incomplete catalogue: Morse sum {total} over "
              f"{len(points)} points, but same-sign weights give (N-1)! = {want}; "
              "raise --seeds", file=sys.stderr)
    return 0


# -- certify -----------------------------------------------------------------

def _require_integer_weights(text):
    if not text:
        raise UsageError("need --mu or --symmetry-case")
    parts = _parse_fractions(text)
    if len(parts) < 2:
        raise UsageError("need at least two weights")
    if any(p == 0 for p in parts):
        raise UsageError("weights must be nonzero")
    if any(p.denominator != 1 for p in parts):
        lcm = 1
        for p in parts:
            lcm = lcm * p.denominator // math.gcd(lcm, p.denominator)
        scaled = ",".join(str(p.numerator * (lcm // p.denominator)) for p in parts)
        raise UsageError(
            "exact certification requires integer weights; the counts depend "
            f"only on the weight ratio, so rescale, e.g. --mu {scaled}")
    return [int(p) for p in parts]


def _symmetry_case_report(case):
    system = build_symmetry_case_system(case)
    polys = list(system)
    ring = system.ring
    eliminated = elimination_ideal(polys, [ring.variables[0]])
    return system, [p.primitive_part()[0] for p in eliminated]


def cmd_certify(args):
    if args.symmetry_case is not None:
        system, generators = _symmetry_case_report(args.symmetry_case)
        if args.format == "json":
            text = json.dumps({
                "symmetry_case": args.symmetry_case,
                "system": [str(p) for p in system],
                "elimination_ideal": [str(g) for g in generators],
            }, indent=2) + "\n"
        else:
            lines = [f"symmetry case {args.symmetry_case}"]
            lines += [f"  equation {i+1}: {p}" for i, p in enumerate(system)]
            lines.append("weight condition after eliminating r:")
            lines += [f"  {g}" for g in generators]
            text = "\n".join(lines) + "\n"
        _write_output(text, args.out)
        return 0
    mu = _require_integer_weights(args.mu)
    system = build_equal_weight_system(tuple(mu))
    gb = buchberger(list(system))
    basis = quotient_basis(gb)
    H = hermite_matrix(gb, basis)
    count = signature_and_rank(H)
    leading = [str(g.ring.monomial(g.leading_monomial(), 1)) for g in gb]
    if args.format == "json":
        payload = {
            "mu": mu,
            "real_distinct": count.real_distinct,
            "complex_distinct": count.complex_distinct,
            "quotient_dimension": len(basis),
            "groebner_size": len(gb),
            "leading_terms": leading,
        }
        if args.show_basis:
            payload["groebner_basis"] = [str(p) for p in gb]
        if args.show_matrix:
            payload["hermite_matrix"] = [
                [str(H[i, j]) for j in range(H.dimension)]
                for i in range(H.dimension)]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [
            f"weights: ({', '.join(str(m) for m in mu)})",
            f"real distinct roots: {count.real_distinct}",
            f"distinct roots over C: {count.complex_distinct}",
            f"quotient dimension: {len(basis)}",
        ]
        if args.show_basis:
            lines.append(f"reduced groebner basis ({len(gb)} elements):")
            lines += [f"  {i+1}: {p}" for i, p in enumerate(gb)]
            lines.append("leading terms: " + ", ".join(leading))
        if args.show_matrix:
            lines.append(f"trace-form matrix ({H.dimension}x{H.dimension}):")
            lines += ["  " + " ".join(str(H[i, j]) for j in range(H.dimension))
                      for i in range(H.dimension)]
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return 0


# -- continue ----------------------------------------------------------------

def _select_start(args, mu):
    if args.start_angles:
        angles = _parse_floats(args.start_angles)
        if len(angles) != len(mu):
            raise UsageError("need one start angle per weight")
        return AngularConfig(tuple(angles))
    points = find_all_critical_points(mu, seeds=args.seeds,
                                      tol_grad=args.tol_grad,
                                      tol_zero=args.tol_zero_eig)
    if not len(points):
        raise UsageError("no critical points found for these weights")
    if args.point_index is not None:
        if not 0 <= args.point_index < len(points):
            raise UsageError(f"--point-index out of range 0..{len(points)-1}")
        return points[args.point_index].config
    if args.select:
        wanted = args.select.split()
        for p in points:
            tags = {p.report.verdict, p.report.extremal_type}
            if all(w in tags for w in wanted):
                return p.config
        raise UsageError(f"no critical point matches selector {args.select!r}")
    return points[0].config


def _snapshot_records(trace, snapshots, start, mu):
    out = []
    for eps in snapshots:
        if eps == 0.0:
            cfg = HelioConfig.from_critical_point(start, mu, 0.0)
            out.append((0.0, cfg.to_dict()))
            continue
        hit = [rec for rec in trace.records if abs(rec.epsilon - eps) < 1e-9]
        if not hit:
            raise UsageError(
                f"snapshot eps={eps:g} is not on the continuation schedule")
        out.append((eps, hit[0].config.to_dict()))
    return out


def cmd_continue(args):
    if args.polygon is not None:
        scalars = _parse_floats(args.mu)
        if len(scalars) != 1:
            raise UsageError("--polygon takes a single scalar --mu")
        count = args.polygon
        mu = CirculationWeights((scalars[0],) * count)
        start = AngularConfig(tuple(2.0 * math.pi * k / count for k in range(count)))
        check_start = False
    else:
        mu = _parse_weights(args.mu)
        if args.normalize:
            scale = 1.0 / float(np.linalg.norm(mu.array))
            mu = CirculationWeights(tuple(m * scale for m in mu))
        start = _select_start(args, mu)
        check_start = True
    if args.eps_max == 0.0:
        trace = ContinuationTrace(records=(), mu=mu, failure=None, start=start)
    else:
        trace = continue_family(start, mu, eps_max=args.eps_max, step=args.step,
                                tol=args.tol_newton, check_start=check_start)
    rows = trace.csv_rows()
    if args.format == "json":
        text = json.dumps(trace.to_dict(), indent=2) + "\n"
    elif args.format == "table":
        widths = [max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))]
        text = "\n".join(
            "  ".join(str(cell).rjust(w) for cell, w in zip(row, widths))
            for row in rows) + "\n"
    else:
        text = _csv_text(rows)
    _write_output(text, args.out)
    if args.snapshots:
        snaps = _snapshot_records(trace, _parse_floats(args.snapshots), start, mu)
        base = args.out.rsplit(".", 1)[0] if args.out else "trace"
        for eps, record in snaps:
            path = f"{base}_eps{eps:g}.svg"
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(render_configuration_svg(record))
    if trace.failure:
        print(f"continuation stopped early: {trace.failure}", file=sys.stderr)
        return 1
    return 0


# -- plot --------------------------------------------------------------------

def _load_plot_record(path, index):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read configuration JSON: {exc}") from None
    if isinstance(data, dict) and "points" in data:
        data = data["points"]
    elif isinstance(data, dict) and "records" in data:
        data = data["records"]
    if isinstance(data, list):
        if not data:
            raise UsageError("no configurations in input")
        if not 0 <= index < len(data):
            raise UsageError(f"--index out of range 0..{len(data)-1}")
        data = data[index]
    if not isinstance(data, dict) or "angles" not in data:
        raise UsageError("configuration record must contain an 'angles' list")
    return data


def cmd_plot(args):
    record = _load_plot_record(args.config, args.index)
    svg = render_configuration_svg(record)
    out = args.out or (args.config.rsplit(".", 1)[0] + ".svg")
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    return 0


# -- build-system ------------------------------------------------------------

def _system_payload(system):
    return {
        "variables": [v for v in system.ring.variables],
        "polynomials": [str(p) for p in system],
        "stripped_factors": [
            {
                "component": rec.component,
                "denominator_factors": [list(f) for f in rec.denominator_factors],
                "collision_factors": [list(f) for f in rec.collision_factors],
                "content": str(rec.content),
            }
            for rec in system.stripped_factors
        ],
    }


def cmd_build_system(args):
    if args.symmetry_case is not None:
        system = build_symmetry_case_system(args.symmetry_case)
        title = f"symmetry case {args.symmetry_case} system"
    else:
        mu = _require_integer_weights(args.mu)
        system = build_equal_weight_system(tuple(mu))
        title = f"critical-point system for mu = ({', '.join(map(str, mu))})"
    if args.format == "json":
        text = json.dumps(_system_payload(system), indent=2) + "\n"
    else:
        lines = [title,
                 f"variables: {', '.join(system.ring.variables)}"]
        for i, p in enumerate(system):
            lines.append(f"  equation {i+1}: {p} = 0")
        for rec in system.stripped_factors:
            bits = []
            if rec.denominator_factors:
                bits.append("denominators " + ", ".join(
                    f"({f})^{k}" for f, k in rec.denominator_factors))
            if rec.collision_factors:
                bits.append("collision factors " + ", ".join(
                    f"({f})^{k}" for f, k in rec.collision_factors))
            bits.append(f"content {rec.content}")
            lines.append(f"  removed from {rec.component}: " + "; ".join(bits))
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return 0


# -- simulate ----------------------------------------------------------------

def cmd_simulate(args):
    if args.polygon is not None:
        scalars = _parse_floats(args.mu)
        if len(scalars) != 1:
            raise UsageError("--polygon takes a single scalar --mu")
        config = polygon_family(args.polygon, scalars[0], args.eps)
    else:
        mu = _parse_weights(args.mu)
        if not args.start_angles:
            raise UsageError("need --start-angles or --polygon")
        angles = _parse_floats(args.start_angles)
        if len(angles) != len(mu):
            raise UsageError("need one start angle per weight")
        radii = _parse_floats(args.radii) if args.radii else [1.0] * len(mu)
        if len(radii) != len(mu):
            raise UsageError("need one radius per weight")
        z = [(r * math.cos(a), r * math.sin(a)) for a, r in zip(angles, radii)]
        config = HelioConfig(Z=tuple(z), epsilon=args.eps, mu=mu)
        if args.polish:
            config = newton_solve(config, tol=args.tol_newton)
    residual = float(np.abs(re_residual(config)).max())
    planar = config.to_planar()
    t_final = 2.0 * math.pi * args.periods / config.omega
    times, states = integrate_vortices(planar, t_final, rtol=args.rtol,
                                       atol=args.rtol)
    h0 = hamiltonian(planar)
    h1 = hamiltonian(states[-1], planar.circulations)
    g = np.asarray(planar.circulations)
    imp0 = (g[:, None] * planar.array).sum(axis=0)
    imp1 = (g[:, None] * states[-1]).sum(axis=0)
    drift = corotating_drift(config, periods=args.periods, final=states[-1])
    lines = [
        f"relative-equilibrium residual: {residual:.3e}",
        f"hamiltonian drift over {args.periods:g} periods: {abs(h1-h0):.3e}",
        f"linear impulse drift: {np.abs(imp1-imp0).max():.3e}",
        f"co-rotating frame drift: {drift:.3e}",
    ]
    print("\n".join(lines))
    if args.out:
        rows = [["t"] + [f"{axis}{i}" for i in range(len(g)) for axis in ("x", "y")]]
        for t, state in zip(times, states):
            rows.append([f"{t:.9f}"] + [f"{c:.12f}" for c in state.ravel()])
        _write_output(_csv_text(rows), args.out)
    return 0


# -- parser ------------------------------------------------------------------

_FLAGS = {
    "--tol-grad": dict(type=_positive_float, default=1e-10,
                       help="gradient tolerance for critical points"),
    "--tol-newton": dict(type=_positive_float, default=1e-12,
                         help="residual tolerance for the full-system solver"),
    "--tol-zero-eig": dict(type=_positive_float, default=1e-8,
                           help="threshold for treating an eigenvalue as zero"),
    "--seeds": dict(type=_positive_int, default=4096,
                    help="number of lattice seeds for the search"),
    "--out": dict(default=None, help="output file path"),
    "--format": dict(choices=("json", "csv", "table"), default="table",
                     help="output format"),
}


def _flags(sub, *names):
    """Declare the shared flags that this subcommand reads."""
    for name in names:
        sub.add_argument(name, **_FLAGS[name])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vortexre",
        description="Relative equilibria of one strong and N weak point vortices")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("find", help="find all critical points numerically")
    p.add_argument("--mu", required=True, help="comma-separated weights")
    _flags(p, "--tol-grad", "--tol-zero-eig", "--seeds", "--out", "--format")
    p.set_defaults(func=cmd_find)

    p = subs.add_parser("certify",
                        help="exact real-root count for integer weights")
    p.add_argument("--mu", help="comma-separated integer weights")
    p.add_argument("--show-basis", action="store_true",
                   help="print the reduced basis and leading terms")
    p.add_argument("--show-matrix", action="store_true",
                   help="print the exact trace-form matrix")
    p.add_argument("--symmetry-case", type=int, choices=(1, 2, 3),
                   help="eliminate r from the chosen symmetric-configuration case")
    _flags(p, "--out", "--format")
    p.set_defaults(func=cmd_certify)

    p = subs.add_parser("continue",
                        help="continue a critical point to positive coupling")
    p.add_argument("--mu", required=True,
                   help="weights (or a single scalar with --polygon)")
    p.add_argument("--normalize", action="store_true",
                   help="rescale the weights to unit Euclidean norm")
    p.add_argument("--start-angles", help="explicit starting angles")
    p.add_argument("--point-index", type=int,
                   help="index into the deterministic find ordering")
    p.add_argument("--select",
                   help="pick the first point matching e.g. 'stable' or 'stable saddle'")
    p.add_argument("--polygon", type=_polygon_count,
                   help="regular polygon mode with this many equal vortices")
    p.add_argument("--eps", "--eps-max", dest="eps_max", type=_nonnegative_float,
                   required=True, help="target coupling strength")
    p.add_argument("--step", type=_positive_float, default=0.005,
                   help="continuation step")
    p.add_argument("--snapshots", help="comma-separated eps values to render as SVG")
    _flags(p, "--tol-grad", "--tol-newton", "--tol-zero-eig", "--seeds", "--out",
           "--format")
    p.set_defaults(func=cmd_continue)

    p = subs.add_parser("plot", help="render a configuration JSON as SVG")
    p.add_argument("config", help="configuration JSON file")
    p.add_argument("--index", type=int, default=0,
                   help="which record to plot when the file holds a list")
    _flags(p, "--out")
    p.set_defaults(func=cmd_plot)

    p = subs.add_parser("build-system",
                        help="print the exact polynomial system for given weights")
    p.add_argument("--mu", help="comma-separated integer weights")
    p.add_argument("--symmetry-case", type=int, choices=(1, 2, 3),
                   help="build the symmetric-configuration case system instead")
    _flags(p, "--out", "--format")
    p.set_defaults(func=cmd_build_system)

    p = subs.add_parser("simulate",
                        help="integrate the full system and report drifts")
    p.add_argument("--mu", required=True,
                   help="weights (or a single scalar with --polygon)")
    p.add_argument("--eps", type=float, required=True, help="coupling strength")
    p.add_argument("--start-angles", help="weak-vortex angles")
    p.add_argument("--radii", help="weak-vortex radii (default all 1)")
    p.add_argument("--polygon", type=_polygon_count, help="regular polygon mode")
    p.add_argument("--polish", action="store_true",
                   help="Newton-polish the start before integrating")
    p.add_argument("--periods", type=_positive_float, default=1.0)
    p.add_argument("--rtol", type=_positive_float, default=1e-10)
    _flags(p, "--tol-newton", "--out")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CollisionError, ConvergenceError, NotACriticalPointError,
            InfiniteVarietyError, ValueError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
