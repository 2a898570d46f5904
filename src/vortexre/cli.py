"""Command-line interface.

Subcommands: find, certify, continue, plot, build-system, simulate.
Exit codes: 0 success, 1 computational failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from vortexre.errors import (CirculationError, CollisionError, ConvergenceError,
                             NotACriticalPointError)
from vortexre.groebner import buchberger, elimination_ideal
from vortexre.halfangle import build_equal_weight_system, build_symmetry_case_system
from vortexre.hermite import (
    InfiniteVarietyError,
    hermite_matrix,
    quotient_basis,
    signature_and_rank,
)
from vortexre.plotting import render_configuration_svg
from vortexre.polynomials import MultiPoly

# The numeric handlers import numpy (through vortexre.potential, search and
# dynamics) and scipy when they run, so certify, build-system and plot start
# without either.


class UsageError(ValueError):
    """Bad arguments detected after parsing; maps to exit code 2."""


def _parse_fractions(text):
    """Comma-separated numbers as Fractions.  Each number written (a ratio has
    two) must have a float value that neither overflows nor, being nonzero,
    underflows to 0.  A Decimal checks that first: it keeps the exponent of
    1e10000000 as a number, where Fraction would expand it into its digits."""
    items = [part.strip() for part in text.split(",") if part.strip()]
    try:
        for item in items:
            for number in item.split("/", 1):
                try:
                    value = Decimal(number)
                except InvalidOperation:
                    continue  # not a decimal: Fraction refuses the item
                if value.is_finite() and (math.isinf(float(value)) or value and not float(value)):
                    raise ValueError(f"{item!r} is outside the float range")
        return [Fraction(item) for item in items]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse weights {text!r}: {exc}") from None


def _parse_floats(text):
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"cannot parse number list {text!r}: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise UsageError(f"a value in number list {text!r} is not finite")
    return values


def _bounded(kind, low, strict=False):
    """argparse type: a finite `kind` value of at least `low`, or above it
    if strict."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'above' if strict else 'at least'} {low}, got {value}")
        return value
    return parse


_positive_int = _bounded(int, 1)
_polygon_count = _bounded(int, 2)
_positive_float = _bounded(float, 0.0, strict=True)
_nonnegative_float = _bounded(float, 0.0)
_finite_float = _bounded(float, -math.inf, strict=True)


def _parse_weights(text):
    from vortexre.potential import CirculationWeights

    try:
        return CirculationWeights.parse(text)
    except ValueError as exc:
        raise UsageError(f"bad weights {text!r}: {exc}") from None


def _polygon_weights(args):
    """The --polygon count of copies of the one scalar --mu."""
    from vortexre.potential import CirculationWeights

    scalars = _parse_floats(args.mu)
    if len(scalars) != 1:
        raise UsageError("--polygon takes a single scalar --mu")
    try:
        return CirculationWeights((scalars[0],) * args.polygon)
    except ValueError as exc:
        raise UsageError(f"bad weights {args.mu!r}: {exc}") from None


def _write_file(path, text):
    """Write text to path; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _check_writable(*paths):
    """Raise the usage error that writing any of the paths would raise.

    Called before a subcommand does its work, so an output that cannot
    be written costs no computation and leaves no other file behind.
    A path that is None (standard output) is skipped; every path is
    left as it was.
    """
    for path in paths:
        if path is None:
            continue
        try:
            try:
                os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                os.close(os.open(path, os.O_WRONLY))
            else:
                os.unlink(path)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _write_output(text, out):
    if out:
        _write_file(out, text)
    else:
        sys.stdout.write(text)


def _csv_text(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


# -- find --------------------------------------------------------------------

def _find_table(report, mu):
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


def _find_csv(report, mu):
    rows = [["index", "family", "symmetric", "verdict", "extremal_type"]
            + [f"theta{i+1}" for i in range(len(mu))]]
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
    for report in points.reports:
        if report.zero_count != 1:
            return None
        eigs = sorted(report.hessian_eigs, key=abs)[1:]
        total += (-1) ** sum(e < 0 for e in eigs)
    return total


def cmd_find(args):
    from vortexre.search import (
        export_critical_points,
        find_all_critical_points,
        group_into_families,
    )

    mu = _parse_weights(args.mu)
    _check_writable(args.out)
    points = find_all_critical_points(mu, seeds=args.seeds,
                                      tol_grad=args.tol_grad,
                                      tol_zero=args.tol_zero_eig)
    families = group_into_families(points)
    report = export_critical_points(points, families)
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    elif args.format == "csv":
        text = _find_csv(report, points.mu.mu)
    else:
        text = _find_table(report, points.mu.mu)
    _write_output(text, args.out)
    total, want = _morse_sum(points, mu), math.factorial(len(mu) - 1)
    if total is not None and total != want:
        print(f"warning: incomplete catalogue: Morse sum {total} over "
              f"{len(points)} points, but same-sign weights give (N-1)! = {want}; "
              "raise --seeds", file=sys.stderr)
    return 0


# -- certify -----------------------------------------------------------------

def _weight_system(text):
    """The --mu weights and their system; the builder's refusal of the
    weights is a usage error."""
    if not text:
        raise UsageError("need --mu or --symmetry-case")
    mu = _parse_fractions(text)
    try:
        system = build_equal_weight_system(mu)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return [int(m) for m in mu], system


def _symmetry_case_report(case):
    """The case's system, and its elimination ideal as primitive polynomials."""
    system = build_symmetry_case_system(case)
    eliminated = elimination_ideal(list(system), [system.ring.variables[0]])
    return system, [MultiPoly(eliminated.ring, {m: Fraction(c) for m, c in t.items()})
                    for _, t in eliminated.elements]


def cmd_certify(args):
    _check_writable(args.out)
    if args.symmetry_case is not None:
        _start_mode(args, "--symmetry-case", ("--show-basis", "--show-matrix"))
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
    mu, system = _weight_system(args.mu)
    gb = buchberger(list(system))
    basis = quotient_basis(gb)
    H = hermite_matrix(gb, basis)
    count = signature_and_rank(H)
    leading = [str(gb.ring.monomial(lm)) for lm in gb.leading_monomials()]
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
            payload["hermite_matrix"] = [[str(c) for c in row] for row in H]
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
            lines.append(f"trace-form matrix ({len(H)}x{len(H)}):")
            lines += ["  " + " ".join(map(str, row)) for row in H]
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return 0


# -- continue ----------------------------------------------------------------

def _select_start(args, mu):
    from vortexre.search import find_all_critical_points

    if args.start_angles:
        _start_mode(args, "--start-angles", _SEARCH_FLAGS)
        angles = _parse_floats(args.start_angles)
        if len(angles) != len(mu):
            raise UsageError("need one start angle per weight")
        return angles
    _start_mode(args, "find", ())
    points = find_all_critical_points(mu, seeds=args.seeds,
                                      tol_grad=args.tol_grad,
                                      tol_zero=args.tol_zero_eig)
    if not len(points):
        raise UsageError("no critical points found for these weights")
    if args.point_index is not None:
        if not 0 <= args.point_index < len(points):
            raise UsageError(f"--point-index out of range 0..{len(points)-1}")
        return points.theta[args.point_index]
    if args.select:
        wanted = args.select.split()
        for theta, report in zip(points.theta, points.reports):
            if all(w in {report.verdict, report.extremal_type} for w in wanted):
                return theta
        raise UsageError(f"no critical point matches selector {args.select!r}")
    return points.theta[0]


def _snapshot_schedule(args, base):
    """[(SVG path, schedule eps)] for each --snapshots value.

    The schedule is eps = 0 (the start) and the steps of the walk.  The
    path is base_eps<eps as given>.svg, and base_eps0.svg for the start.
    """
    from vortexre.dynamics import _epsilon_schedule

    schedule = [0.0] + _epsilon_schedule(args.eps_max, args.step)
    out = []
    for eps in _parse_floats(args.snapshots):
        hit = [s for s in schedule if abs(s - eps) < 1e-9]
        if not hit:
            raise UsageError(
                f"snapshot eps={eps:g} is not on the continuation schedule")
        out.append((f"{base}_eps{eps if hit[0] else 0.0:g}.svg", hit[0]))
    return out


def _snapshot_records(trace, snapshots, start, mu):
    """(SVG path, configuration dict) for each snapshot the walk reached."""
    from vortexre.dynamics import HelioConfig

    reached = {rec.epsilon: rec.config for rec in trace.records}
    out = []
    for path, on_schedule in snapshots:
        if on_schedule == 0.0:
            out.append((path, HelioConfig.from_angles(start, mu, 0.0).to_dict()))
        elif on_schedule in reached:
            out.append((path, reached[on_schedule].to_dict()))
    return out


def cmd_continue(args):
    import numpy as np

    from vortexre.dynamics import continue_family, continue_polygon
    from vortexre.potential import CirculationWeights

    base = args.out.rsplit(".", 1)[0] if args.out else "trace"
    snapshots = _snapshot_schedule(args, base) if args.snapshots else []
    _check_writable(args.out, *(path for path, _ in snapshots))
    if args.polygon is not None:
        _start_mode(args, "--polygon", ("--normalize",) + _SEARCH_FLAGS)
        mu = _polygon_weights(args)
        start = [2.0 * math.pi * k / args.polygon for k in range(args.polygon)]
        trace = continue_polygon(args.polygon, mu[0], eps_max=args.eps_max,
                                 step=args.step, tol=args.tol_newton)
    else:
        mu = _parse_weights(args.mu)
        if args.normalize:
            scale = 1.0 / float(np.linalg.norm(mu.array))
            mu = CirculationWeights(tuple(m * scale for m in mu))
        start = _select_start(args, mu)
        trace = continue_family(start, mu, eps_max=args.eps_max, step=args.step,
                                tol=args.tol_newton)
    if args.format == "json":
        text = json.dumps(trace.to_dict(), indent=2) + "\n"
    elif args.format == "table":
        rows = trace.csv_rows()
        widths = [max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))]
        text = "\n".join(
            "  ".join(str(cell).rjust(w) for cell, w in zip(row, widths))
            for row in rows) + "\n"
    else:
        text = _csv_text(trace.csv_rows())
    _write_output(text, args.out)
    for path, record in _snapshot_records(trace, snapshots, start, mu):
        _write_file(path, render_configuration_svg(record))
    if trace.failure:
        print(f"continuation stopped early: {trace.failure}", file=sys.stderr)
        return 1
    return 0


# -- plot --------------------------------------------------------------------

def _finite_numbers(value):
    """True when value is a JSON list of finite numbers."""
    return isinstance(value, list) and all(
        type(v) in (int, float) and math.isfinite(v) for v in value)


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
    if not isinstance(data, dict) or not _finite_numbers(data.get("angles")):
        raise UsageError("configuration record must contain an 'angles' list "
                         "of finite numbers")
    n = len(data["angles"])
    for key, size in (("radii", n), ("mu", n), ("z0", 2)):
        if key in data and not (_finite_numbers(data[key]) and len(data[key]) == size):
            raise UsageError(f"'{key}' must list {size} finite numbers")
    if "epsilon" in data and not _finite_numbers([data["epsilon"]]):
        raise UsageError("'epsilon' must be a finite number")
    return data


def cmd_plot(args):
    record = _load_plot_record(args.config, args.index)
    svg = render_configuration_svg(record)
    _write_file(args.out or (args.config.rsplit(".", 1)[0] + ".svg"), svg)
    return 0


# -- build-system ------------------------------------------------------------

def _factor_text(factors):
    """(polynomial, power) pairs as [text, power] lists, sorted by text."""
    return sorted([str(f), k] for f, k in factors)


def _system_payload(system):
    return {
        "variables": [v for v in system.ring.variables],
        "polynomials": [str(p) for p in system],
        "stripped_factors": [
            {
                "component": rec.component,
                "denominator_factors": _factor_text(rec.denominator_factors),
                "collision_factors": _factor_text(rec.collision_factors),
                "content": str(rec.content),
            }
            for rec in system.stripped_factors
        ],
    }


def cmd_build_system(args):
    _check_writable(args.out)
    if args.symmetry_case is not None:
        system = build_symmetry_case_system(args.symmetry_case)
        title = f"symmetry case {args.symmetry_case} system"
    else:
        mu, system = _weight_system(args.mu)
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
                    f"({f})^{k}" for f, k in _factor_text(rec.denominator_factors)))
            if rec.collision_factors:
                bits.append("collision factors " + ", ".join(
                    f"({f})^{k}" for f, k in _factor_text(rec.collision_factors)))
            bits.append(f"content {rec.content}")
            lines.append(f"  removed from {rec.component}: " + "; ".join(bits))
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return 0


# -- simulate ----------------------------------------------------------------

def cmd_simulate(args):
    import numpy as np

    from vortexre.dynamics import (
        HelioConfig,
        corotating_drift,
        hamiltonian,
        integrate_vortices,
        newton_solve,
        polygon_family,
        re_residual,
    )

    _check_writable(args.out)
    if args.polygon is not None:
        _start_mode(args, "--polygon", ("--radii", "--polish", "--tol-newton"))
        try:
            config = polygon_family(args.polygon, _polygon_weights(args)[0], args.eps)
        except ValueError as exc:  # no polygon at these weights and coupling
            raise UsageError(str(exc)) from None
    else:
        mu = _parse_weights(args.mu)
        if not args.start_angles:
            raise UsageError("need --start-angles or --polygon")
        _start_mode(args, "--start-angles without --polish",
                    () if args.polish else ("--tol-newton",))
        angles = _parse_floats(args.start_angles)
        if len(angles) != len(mu):
            raise UsageError("need one start angle per weight")
        radii = _parse_floats(args.radii) if args.radii else [1.0] * len(mu)
        if len(radii) != len(mu):
            raise UsageError("need one radius per weight")
        z = [(r * math.cos(a), r * math.sin(a)) for a, r in zip(angles, radii)]
        config = HelioConfig(Z=tuple(z), epsilon=args.eps, mu=mu)
    try:
        q, g = config.to_planar()
    except CirculationError as exc:
        raise UsageError(str(exc)) from None
    if args.polish:  # --polygon refuses --polish
        config = newton_solve(config, tol=args.tol_newton)
        q, g = config.to_planar()
    residual = float(np.abs(re_residual(config)).max())
    t_final = 2.0 * math.pi * args.periods
    times, states = integrate_vortices(q, g, t_final, args.rtol)
    h0 = hamiltonian(q, g)
    h1 = hamiltonian(states[-1], g)
    imp0 = (g[:, None] * q).sum(axis=0)
    imp1 = (g[:, None] * states[-1]).sum(axis=0)
    drift = corotating_drift(q, states[-1], t_final)
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
                       help="gradient tolerance for critical points, relative "
                            "to the product of the two largest |mu|"),
    "--tol-newton": dict(type=_positive_float, default=1e-12,
                         help="residual tolerance for the full-system solver"),
    "--tol-zero-eig": dict(type=_positive_float, default=1e-8,
                           help="relative threshold for treating an eigenvalue "
                                "as zero"),
    "--seeds": dict(type=_positive_int, default=4096,
                    help="number of lattice seeds for the search"),
    "--out": dict(default=None, help="output file path"),
}


# which vortex each --symmetry-case puts on the axis of reflection
_SYMMETRY_AXES = ("case 1 puts vortex 1 on the symmetry axis, "
                  "case 2 vortex 2, case 3 vortex 3")

# the flags that continue reads only to find its start
_SEARCH_FLAGS = ("--seeds", "--tol-grad", "--tol-zero-eig")


def _flags(sub, *names, unset=()):
    """Declare the shared flags that this subcommand reads; those in
    `unset` default to None, for `_start_mode` to tell whether they were
    given."""
    for name in names:
        sub.add_argument(name, **(dict(_FLAGS[name], default=None) if name in unset
                                  else _FLAGS[name]))


def _start_mode(args, mode, unread):
    """Refuse the flags in `unread`, which mode `mode` (a start mode, or
    certify's --symmetry-case) does not read: the first one given is a
    usage error.  Then each shared flag declared without a default (see
    `_flags`) that was not given takes its default."""
    for flag in unread:
        if getattr(args, flag[2:].replace("-", "_")) not in (None, False):
            raise UsageError(f"{mode} does not read {flag}")
    for flag, spec in _FLAGS.items():
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest, spec["default"]) is None:
            setattr(args, dest, spec["default"])


def _format_flag(sub, *choices):
    """Declare --format with the formats this subcommand writes."""
    sub.add_argument("--format", choices=choices, default="table",
                     help="output format")


@functools.cache
def build_parser():
    """The argument parser, built on first use and then kept: not at
    import, so handlers replaced after import are the ones dispatched."""
    parser = argparse.ArgumentParser(
        prog="vortexre",
        description="Relative equilibria of one strong and N weak point vortices")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("find", help="find all critical points numerically")
    p.add_argument("--mu", required=True, help="comma-separated weights")
    _flags(p, "--tol-grad", "--tol-zero-eig", "--seeds", "--out")
    _format_flag(p, "json", "csv", "table")
    p.set_defaults(func=cmd_find)

    p = subs.add_parser("certify",
                        help="exact real-root count for integer weights")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--mu", help="comma-separated integer weights")
    source.add_argument("--symmetry-case", type=int, choices=(1, 2, 3),
                        help="eliminate r from a reflection-symmetric case; "
                             + _SYMMETRY_AXES)
    p.add_argument("--show-basis", action="store_true",
                   help="print the reduced basis and leading terms")
    p.add_argument("--show-matrix", action="store_true",
                   help="print the exact trace-form matrix")
    _flags(p, "--out")
    _format_flag(p, "json", "table")
    p.set_defaults(func=cmd_certify)

    p = subs.add_parser("continue",
                        help="continue a critical point to positive coupling")
    p.add_argument("--mu", required=True,
                   help="weights (or a single scalar with --polygon)")
    p.add_argument("--normalize", action="store_true",
                   help="rescale the weights to unit Euclidean norm")
    start = p.add_mutually_exclusive_group()
    start.add_argument("--start-angles", help="explicit starting angles")
    start.add_argument("--point-index", type=int,
                       help="index into the deterministic find ordering")
    start.add_argument("--select",
                       help="pick the first point matching e.g. 'stable' or 'stable saddle'")
    start.add_argument("--polygon", type=_polygon_count,
                       help="regular polygon mode with this many equal vortices")
    p.add_argument("--eps", "--eps-max", dest="eps_max", type=_nonnegative_float,
                   required=True, help="target coupling strength")
    p.add_argument("--step", type=_positive_float, default=0.005,
                   help="continuation step")
    p.add_argument("--snapshots", help="comma-separated eps values to render as SVG")
    _flags(p, "--tol-grad", "--tol-newton", "--tol-zero-eig", "--seeds", "--out",
           unset=_SEARCH_FLAGS)
    _format_flag(p, "json", "csv", "table")
    p.set_defaults(func=cmd_continue)

    p = subs.add_parser("plot", help="render a configuration JSON as SVG")
    p.add_argument("config", help="configuration JSON file")
    p.add_argument("--index", type=int, default=0,
                   help="which record to plot when the file holds a list")
    _flags(p, "--out")
    p.set_defaults(func=cmd_plot)

    p = subs.add_parser("build-system",
                        help="print the exact polynomial system for given weights")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--mu", help="comma-separated integer weights")
    source.add_argument("--symmetry-case", type=int, choices=(1, 2, 3),
                        help="build a reflection-symmetric case system instead; "
                             + _SYMMETRY_AXES)
    _flags(p, "--out")
    _format_flag(p, "json", "table")
    p.set_defaults(func=cmd_build_system)

    p = subs.add_parser("simulate",
                        help="integrate the full system and report drifts")
    p.add_argument("--mu", required=True,
                   help="weights (or a single scalar with --polygon)")
    p.add_argument("--eps", type=_finite_float, required=True, help="coupling strength")
    start = p.add_mutually_exclusive_group()
    start.add_argument("--start-angles", help="weak-vortex angles")
    start.add_argument("--polygon", type=_polygon_count, help="regular polygon mode")
    p.add_argument("--radii", help="weak-vortex radii (default all 1)")
    p.add_argument("--polish", action="store_true",
                   help="Newton-polish the start before integrating")
    p.add_argument("--periods", type=_positive_float, default=1.0)
    p.add_argument("--rtol", type=_positive_float, default=1e-10)
    _flags(p, "--tol-newton", "--out", unset=("--tol-newton",))
    p.set_defaults(func=cmd_simulate)
    return parser


# flags whose value is a comma-separated number list
_LIST_FLAGS = ("--mu", "--start-angles", "--radii", "--snapshots")


def _is_number_list(text):
    try:
        return bool(_parse_fractions(text))
    except UsageError:
        return False


def _join_number_lists(argv):
    """Write `--mu -1,-3,10` as `--mu=-1,-3,10`.

    argparse reads a separate word that starts with a minus sign, such as
    `-1,-3,10`, as an option rather than as the value of the flag before it.
    """
    out = []
    for token in argv:
        if out and out[-1] in _LIST_FLAGS and _is_number_list(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(
            _join_number_lists(sys.argv[1:] if argv is None else argv))
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
