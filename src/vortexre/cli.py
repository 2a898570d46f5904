"""Command-line interface.

Subcommands: find, certify, continue, plot, build-system, simulate.  find's
Morse check is search.CriticalPointSet.morse_check, and certify's stages
run in hermite.trace_form.

Exit codes go by the type of what ends a run: 0 is success; 2 is a usage
error, that is an argument the parser refuses or an errors.InputError, which
the CLI's own checks and the library raise alike for a problem that, as
given, has no answer; 1 is a failure, any other ValueError or a
ConvergenceError, such as a Newton solve that does not converge.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _ascii_string

from vortexre.errors import CollisionError, ConvergenceError, InputError, NonFiniteError

# Each handler imports the layers it runs when it runs: numpy through
# vortexre.potential, search and dynamics, and the exact stack (groebner,
# halfangle, hermite, polynomials).  Importing this module loads neither,
# so every subcommand starts with only what the parser needs.  numpy is the
# only runtime dependency: simulate's integrator is the library's own
# Dormand-Prince loop.


# one entry of a number list: a decimal, or a ratio of two integers, in
# ASCII digits.  What float() and Fraction() accept besides (underscores,
# spaces around '/', other scripts' digits) varies with the Python version.
_NUMBER = re.compile(r"[-+]?(?:[0-9]+/[0-9]+|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?)")
_NON_FINITE = re.compile(r"[-+]?(?:inf|infinity|nan)", re.IGNORECASE)


def _exact_number(item):
    """One entry of a number list as a Fraction; a ValueError says why it is
    refused.  Each number written (a ratio has two) must have a float value
    that neither overflows nor, being nonzero, underflows to 0.  A Decimal
    checks that first: it keeps the exponent of 1e10000000 as a number,
    where Fraction would expand it into its digits, and refuses an exponent
    beyond its own range."""
    if _NON_FINITE.fullmatch(item):
        raise ValueError(f"{item!r} is not finite")
    if not _NUMBER.fullmatch(item):
        raise ValueError(f"{item!r} is not a decimal or a ratio of integers")
    try:
        numbers = [Decimal(number) for number in item.split("/")]
    except InvalidOperation:
        numbers = None
    if numbers is None or any(math.isinf(float(d)) or d and not float(d) for d in numbers):
        raise ValueError(f"{item!r} is outside the float range")
    if len(numbers) == 1:
        return Fraction(numbers[0])
    if not numbers[1]:
        raise ValueError(f"zero denominator in {item!r}")
    return Fraction(int(numbers[0]), int(numbers[1]))


def _numbers(flag):
    """argparse type: the comma-separated number list given to flag, as
    exact Fractions.  An empty entry (1,,1 or 1,1,) is refused: dropping it
    would run another problem."""
    def read(text):
        items = [part.strip() for part in text.split(",")]
        if not all(items):
            raise argparse.ArgumentTypeError(f"empty entry in {flag} list {text!r}")
        try:
            return [_exact_number(item) for item in items]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"cannot parse {flag} list {text!r}: {exc}") from None
    return read


def _bounded(kind, low, strict=False, below=None):
    """argparse type: a finite `kind` value of at least `low`, or above it
    if strict, and below `below` when that is given."""
    def read(text):
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
        if below is not None and not value < below:
            raise argparse.ArgumentTypeError(f"must be below {below}, got {value}")
        return value
    return read


_positive_int = _bounded(int, 1)
_polygon_count = _bounded(int, 2)
_positive_float = _bounded(float, 0.0, strict=True)
_nonnegative_float = _bounded(float, 0.0)
# a tolerance relative to the weight scale: 1 or more accepts points that
# are not critical, or calls every eigenvalue zero
_relative_tol = _bounded(float, 0.0, strict=True, below=1)
_finite_float = _bounded(float, -math.inf, strict=True)
# the integrator's relative tolerance is at least 100 machine epsilons; at
# 1 or more its error control accepts any step
_rtol = _bounded(float, 100 * sys.float_info.epsilon, below=1)
# simulate integrates to 2*pi*periods, which must be finite
_periods = _bounded(float, 0.0, strict=True, below=sys.float_info.max / (2.0 * math.pi))


def _polygon_weight(args):
    """The one scalar --mu that --polygon reads."""
    if len(args.mu) != 1:
        raise InputError("--polygon takes a single scalar --mu")
    return float(args.mu[0])


def _write_file(path, text):
    """Write text to path; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from None


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
            raise InputError(f"cannot write {path}: {exc.strerror}") from None


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


def _json_text(value):
    """json.dumps(value, indent=2) + "\n", byte for byte, for a value made
    of dicts with str keys, lists, tuples, str, int, float, bool and None;
    anything else raises TypeError, as json.dumps does.

    json.dumps with an indent runs its pure-Python encoder; this writer
    returns each container as one joined string.  Strings go through
    json's own ASCII encoder, and floats through float.__repr__, with
    NaN, Infinity and -Infinity as json writes them.  A catalogue repeats
    its floats (the weights in every record, a pair of equal eigenvalues),
    so each call keeps a memo of the text of every nonzero finite float:
    zeros bypass it because -0.0 == 0.0, and non-finite values because
    NaN equals nothing.
    """
    memo = {}

    def number(x):
        if x != x:
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        out = float.__repr__(x)
        if x:
            memo[x] = out
        return out

    def text(x, pad):
        # pad is the newline and indent that x's closing bracket sits at.
        # json tries str, None, bool, int and float before the containers,
        # but no list, tuple or dict can also be one of those types.
        if isinstance(x, (list, tuple)):
            if not x:
                return "[]"
            inner = pad + "  "
            return "[" + inner + ("," + inner).join(
                [(memo.get(v) or number(v)) if type(v) is float else text(v, inner)
                 for v in x]) + pad + "]"
        if isinstance(x, dict):
            if not x:
                return "{}"
            inner = pad + "  "
            return "{" + inner + ("," + inner).join(
                [_ascii_string(k) + ": " + ((memo.get(v) or number(v)) if type(v) is float
                                            else text(v, inner))
                 for k, v in x.items()]) + pad + "}"
        if isinstance(x, str):
            return _ascii_string(x)
        if x is None:
            return "null"
        if x is True:
            return "true"
        if x is False:
            return "false"
        if isinstance(x, int):
            return int.__repr__(x)
        if isinstance(x, float):
            return memo.get(x) or number(x)
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")

    return text(value, "\n") + "\n"


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


def cmd_find(args):
    from vortexre.potential import CirculationWeights
    from vortexre.search import (export_critical_points, find_all_critical_points,
                                 group_into_families)

    mu = CirculationWeights(tuple(args.mu))
    _check_writable(args.out)
    points = find_all_critical_points(mu, seeds=args.seeds,
                                      tol_grad=args.tol_grad,
                                      tol_zero=args.tol_zero_eig)
    families = group_into_families(points)
    report = export_critical_points(points, families)
    if args.format == "json":
        text = _json_text(report)
    elif args.format == "csv":
        text = _find_csv(report, points.mu.mu)
    else:
        text = _find_table(report, points.mu.mu)
    _write_output(text, args.out)
    failed = points.morse_check()
    if failed:
        print(f"warning: incomplete catalogue: Morse sum {failed[0]} over "
              f"{len(points)} points, but same-sign weights give (N-1)! = {failed[1]}; "
              "raise --seeds", file=sys.stderr)
    return 0


# -- certify -----------------------------------------------------------------

def _weight_system(mu):
    """The --mu weights as integers, and their system."""
    from vortexre.halfangle import build_equal_weight_system

    if mu is None:
        raise InputError("need --mu or --symmetry-case")
    return [int(m) for m in mu], build_equal_weight_system(mu)


def _certify_payload(args):
    """certify's answer: the dict that --format json writes."""
    from vortexre.groebner import elimination_ideal
    from vortexre.halfangle import build_symmetry_case_system
    from vortexre.hermite import trace_form
    from vortexre.polynomials import from_integer_terms

    if args.symmetry_case is not None:
        _start_mode(args, "--symmetry-case", ("--show-basis", "--show-matrix"))
        system = build_symmetry_case_system(args.symmetry_case)
        ideal = elimination_ideal(system.polys, 1)  # eliminate r
        return {
            "symmetry_case": args.symmetry_case,
            "system": [str(p) for p in system.polys],
            "elimination_ideal": [str(from_integer_terms(ideal.ring, t))
                                  for _, t in ideal.elements],
        }
    mu, system = _weight_system(args.mu)
    gb, basis, H, count = trace_form(system.polys)
    payload = {
        "mu": mu,
        "real_distinct": count.real_distinct,
        "complex_distinct": count.complex_distinct,
        "quotient_dimension": len(basis),
        "groebner_size": len(gb),
        "leading_terms": [str(from_integer_terms(gb.ring, {lm: 1})) for lm, _ in gb.elements],
    }
    if args.show_basis:
        payload["groebner_basis"] = [str(p) for p in gb.polys]
    if args.show_matrix:
        payload["hermite_matrix"] = [[str(c) for c in row] for row in H]
    return payload


def _certify_table(payload):
    if "symmetry_case" in payload:
        lines = [f"symmetry case {payload['symmetry_case']}"]
        lines += [f"  equation {i}: {p}" for i, p in enumerate(payload["system"], 1)]
        lines.append("weight condition after eliminating r:")
        lines += [f"  {g}" for g in payload["elimination_ideal"]]
        return "\n".join(lines) + "\n"
    lines = [
        f"weights: ({', '.join(map(str, payload['mu']))})",
        f"real distinct roots: {payload['real_distinct']}",
        f"distinct roots over C: {payload['complex_distinct']}",
        f"quotient dimension: {payload['quotient_dimension']}",
    ]
    if "groebner_basis" in payload:
        lines.append(f"reduced groebner basis ({payload['groebner_size']} elements):")
        lines += [f"  {i}: {p}" for i, p in enumerate(payload["groebner_basis"], 1)]
        lines.append("leading terms: " + ", ".join(payload["leading_terms"]))
    if "hermite_matrix" in payload:
        H = payload["hermite_matrix"]
        lines.append(f"trace-form matrix ({len(H)}x{len(H)}):")
        lines += ["  " + " ".join(row) for row in H]
    return "\n".join(lines) + "\n"


def cmd_certify(args):
    _check_writable(args.out)
    payload = _certify_payload(args)
    _write_output(_json_text(payload) if args.format == "json" else _certify_table(payload),
                  args.out)
    return 0


# -- continue ----------------------------------------------------------------

_OVERFLOW = ("the start overflows: its circulations eps*mu or squared pair "
             "distances are not finite")


def _start_config(make, *args, **kwargs):
    """make(*args, **kwargs) of a start, refusing a start in which two
    vortices, the strong one included, coincide, or that overflows."""
    try:
        return make(*args, **kwargs)
    except CollisionError as exc:
        raise InputError(f"the start is a collision: {exc}") from None
    except NonFiniteError:
        raise InputError(_OVERFLOW) from None


def _select_start(args, mu):
    from vortexre.search import find_all_critical_points

    if args.start_angles:
        _start_mode(args, "--start-angles", _SEARCH_FLAGS)
        if len(args.start_angles) != len(mu):
            raise InputError("need one start angle per weight")
        return [float(a) for a in args.start_angles]
    if args.select is not None and not args.select.split():
        raise InputError(f"--select {args.select!r} has no words; every point would match")
    _start_mode(args, "find", ())
    points = find_all_critical_points(mu, seeds=args.seeds,
                                      tol_grad=args.tol_grad,
                                      tol_zero=args.tol_zero_eig)
    if not len(points):
        raise InputError("no critical points found for these weights")
    if args.point_index is not None:
        if not 0 <= args.point_index < len(points):
            raise InputError(f"--point-index out of range 0..{len(points)-1}")
        return points.theta[args.point_index]
    if args.select:
        wanted = args.select.split()
        for theta, report in zip(points.theta, points.reports):
            if all(w in {report.verdict, report.extremal_type} for w in wanted):
                return theta
        raise InputError(f"no critical point matches selector {args.select!r}")
    return points.theta[0]


def _snapshot_schedule(args, base, walk):
    """[(SVG path, schedule position)] for each --snapshots value.

    The schedule is eps = 0 (the start) and the couplings of the walk.  The
    path is base_eps<eps as given>.svg, and base_eps0.svg for the start.
    """
    schedule = [0.0] + walk
    out = []
    for eps in map(float, args.snapshots):
        hit = next((k for k, s in enumerate(schedule) if abs(s - eps) < 1e-9), None)
        if hit is None:
            raise InputError(
                f"snapshot eps={eps:g} is not on the continuation schedule")
        out.append((f"{base}_eps{eps if hit else 0.0:g}.svg", hit))
    return out


def _continue_rows(payload):
    """The CSV and table rows of a trace's JSON payload: a header, then eps,
    the radii, the angles, the residual and the verdict of each record."""
    n = len(payload["mu"])
    rows = [["eps"] + [f"r{i+1}" for i in range(n)]
            + [f"theta{i+1}" for i in range(n)] + ["residual", "verdict"]]
    for rec in payload["records"]:
        rows.append([f"{rec['epsilon']:.10g}"] + [f"{r:.12f}" for r in rec["radii"]]
                    + [f"{a:.12f}" for a in rec["angles"]]
                    + [f"{rec['residual']:.3e}", rec["verdict"]])
    return rows


def cmd_continue(args):
    import numpy as np

    from vortexre.dynamics import (HelioConfig, _epsilon_schedule, continue_family,
                                   continue_polygon, polygon_family)
    from vortexre.plotting import render_configuration_svg
    from vortexre.potential import CirculationWeights

    walk = _epsilon_schedule(args.eps_max, args.step)  # refuses a walk too long to keep
    base = os.path.splitext(args.out)[0] if args.out else "trace"
    snapshots = _snapshot_schedule(args, base, walk) if args.snapshots else []
    _check_writable(args.out, *(path for path, _ in snapshots))
    if args.polygon is not None:
        _start_mode(args, "--polygon", ("--normalize",) + _SEARCH_FLAGS)
        mu = _polygon_weight(args)
        start = functools.partial(polygon_family, args.polygon, mu, 0.0)
        trace = continue_polygon(args.polygon, mu, eps_max=args.eps_max,
                                 step=args.step, tol=args.tol_newton)
    else:
        mu = CirculationWeights(tuple(args.mu))
        if args.normalize:
            with np.errstate(over="ignore"):  # numpy's norm, unless its squares overflow
                norm = float(np.linalg.norm(mu.array))
            scale = 1.0 / (norm if 0.0 < norm < math.inf else math.hypot(*mu))
            mu = CirculationWeights(tuple(m * scale for m in mu))
        theta = _select_start(args, mu)
        start = functools.partial(HelioConfig.from_angles, theta, mu, 0.0)
        # a walk reports its own collisions as its failure, so one raised is the start's
        trace = _start_config(continue_family, theta, mu, eps_max=args.eps_max,
                              step=args.step, tol=args.tol_newton)
    payload = trace.to_dict()
    if args.format == "json":
        text = _json_text(payload)
    elif args.format == "table":
        rows = _continue_rows(payload)
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        text = "\n".join(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows) + "\n"
    else:
        text = _csv_text(_continue_rows(payload))
    _write_output(text, args.out)
    records = payload["records"]
    for path, hit in snapshots:  # a walk's records are its schedule's first
        if hit <= len(records):
            record = records[hit - 1] if hit else start().to_dict()
            _write_file(path, render_configuration_svg(record))
    if trace.failure:
        print(f"continuation stopped early: {trace.failure}", file=sys.stderr)
        return 1
    return 0


# -- plot --------------------------------------------------------------------

def _finite_numbers(value):
    """True when value is a nonempty JSON list of finite numbers."""
    return isinstance(value, list) and value != [] and all(
        type(v) in (int, float) and math.isfinite(v) for v in value)


def _load_plot_record(path, index):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read configuration JSON: {exc}") from None
    if isinstance(data, dict) and "points" in data:
        data = data["points"]
    elif isinstance(data, dict) and "records" in data:
        data = data["records"]
    if isinstance(data, list):
        if not data:
            raise InputError("no configurations in input")
        if not 0 <= index < len(data):
            raise InputError(f"--index out of range 0..{len(data)-1}")
        data = data[index]
    if not isinstance(data, dict) or not _finite_numbers(data.get("angles")):
        raise InputError("configuration record must contain a nonempty 'angles' list "
                         "of finite numbers")
    n = len(data["angles"])
    for key, size in (("radii", n), ("mu", n), ("z0", 2)):
        if key in data and not (_finite_numbers(data[key]) and len(data[key]) == size):
            raise InputError(f"'{key}' must list {size} finite numbers")
    if "epsilon" in data and not _finite_numbers([data["epsilon"]]):
        raise InputError("'epsilon' must be a finite number")
    return data


def cmd_plot(args):
    from vortexre.plotting import render_configuration_svg

    record = _load_plot_record(args.config, args.index)
    svg = render_configuration_svg(record)
    out = args.out or os.path.splitext(args.config)[0] + ".svg"
    if os.path.realpath(out) == os.path.realpath(args.config):
        raise InputError(f"output {out} is the input configuration; choose another --out")
    _write_file(out, svg)
    return 0


# -- build-system ------------------------------------------------------------

def _factor_text(factors):
    """(polynomial, power) pairs as [text, power] lists, sorted by text."""
    return sorted([str(f), k] for f, k in factors)


def _system_payload(system):
    """build-system's answer: the dict that --format json writes."""
    return {
        "variables": list(system.ring.variables),
        "polynomials": [str(p) for p in system.polys],
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


def _system_table(title, payload):
    lines = [title, f"variables: {', '.join(payload['variables'])}"]
    lines += [f"  equation {i}: {p} = 0" for i, p in enumerate(payload["polynomials"], 1)]
    for rec in payload["stripped_factors"]:
        bits = [f"{label} " + ", ".join(f"({f})^{k}" for f, k in rec[key])
                for key, label in (("denominator_factors", "denominators"),
                                   ("collision_factors", "collision factors"))
                if rec[key]]
        bits.append(f"content {rec['content']}")
        lines.append(f"  removed from {rec['component']}: " + "; ".join(bits))
    return "\n".join(lines) + "\n"


def cmd_build_system(args):
    from vortexre.halfangle import build_symmetry_case_system

    _check_writable(args.out)
    if args.symmetry_case is not None:
        system = build_symmetry_case_system(args.symmetry_case)
        title = f"symmetry case {args.symmetry_case} system"
    else:
        mu, system = _weight_system(args.mu)
        title = f"critical-point system for mu = ({', '.join(map(str, mu))})"
    payload = _system_payload(system)
    _write_output(_json_text(payload) if args.format == "json" else _system_table(title, payload),
                  args.out)
    return 0


# -- simulate ----------------------------------------------------------------

def cmd_simulate(args):
    import numpy as np

    from vortexre.dynamics import (HelioConfig, corotating_drift, hamiltonian,
                                   integrate_vortices, newton_solve, polygon_family,
                                   re_residual)
    from vortexre.potential import CirculationWeights

    _check_writable(args.out)
    if args.polygon is not None:
        _start_mode(args, "--polygon", ("--radii", "--polish", "--tol-newton"))
        config = _start_config(polygon_family, args.polygon, _polygon_weight(args), args.eps)
    else:
        mu = CirculationWeights(tuple(args.mu))
        if not args.start_angles:
            raise InputError("need --start-angles or --polygon")
        _start_mode(args, "--start-angles without --polish",
                    () if args.polish else ("--tol-newton",))
        if len(args.start_angles) != len(mu):
            raise InputError("need one start angle per weight")
        radii = args.radii or [1] * len(mu)
        if len(radii) != len(mu):
            raise InputError("need one radius per weight")
        z = [(r * math.cos(a), r * math.sin(a))
             for a, r in zip(map(float, args.start_angles), map(float, radii))]
        config = _start_config(HelioConfig, tuple(z), args.eps, mu)
    q, g = _start_config(config.to_planar)
    if args.polish:  # --polygon refuses --polish
        config = newton_solve(config, tol=args.tol_newton)
        q, g = config.to_planar()
    residual = float(np.abs(re_residual(config)).max())
    t_final = 2.0 * math.pi * args.periods
    # the summary reads the last state alone; the trajectory file every one
    times, states = integrate_vortices(q, g, t_final, args.rtol, every_step=bool(args.out))
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
        header = ",".join(["t"] + [f"{axis}{i}" for i in range(len(g)) for axis in ("x", "y")])
        row = "%.9f" + ",%.12f" * (2 * len(g)) + "\n"
        values = np.column_stack([times, states.reshape(len(times), -1)]).tolist()
        _write_output(header + "\n" + "".join(row % tuple(v) for v in values), args.out)
    return 0


# -- parser ------------------------------------------------------------------

_FLAGS = {
    "--tol-grad": dict(type=_relative_tol, default=1e-10,
                       help="gradient tolerance for critical points, relative "
                            "to the product of the two largest |mu|; large "
                            "values list points that are not critical "
                            "(find --mu=1,2,3 lists 14 points at 0.3, where "
                            "certify counts 10)"),
    "--tol-newton": dict(type=_positive_float, default=1e-12,
                         help="residual tolerance for the full-system solver"),
    "--tol-zero-eig": dict(type=_relative_tol, default=1e-8,
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
            raise InputError(f"{mode} does not read {flag}")
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
    p.add_argument("--mu", type=_numbers("--mu"), required=True,
                   help="comma-separated weights")
    _flags(p, "--tol-grad", "--tol-zero-eig", "--seeds", "--out")
    _format_flag(p, "json", "csv", "table")
    p.set_defaults(func=cmd_find)

    p = subs.add_parser("certify",
                        help="exact real-root count for integer weights")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--mu", type=_numbers("--mu"),
                        help="comma-separated integer weights")
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
    p.add_argument("--mu", type=_numbers("--mu"), required=True,
                   help="weights (or a single scalar with --polygon)")
    p.add_argument("--normalize", action="store_true",
                   help="rescale the weights to unit Euclidean norm")
    start = p.add_mutually_exclusive_group()
    start.add_argument("--start-angles", type=_numbers("--start-angles"),
                       help="explicit starting angles")
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
    p.add_argument("--snapshots", type=_numbers("--snapshots"),
                   help="comma-separated eps values to render as SVG")
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
    source.add_argument("--mu", type=_numbers("--mu"),
                        help="comma-separated integer weights")
    source.add_argument("--symmetry-case", type=int, choices=(1, 2, 3),
                        help="build a reflection-symmetric case system instead; "
                             + _SYMMETRY_AXES)
    _flags(p, "--out")
    _format_flag(p, "json", "table")
    p.set_defaults(func=cmd_build_system)

    p = subs.add_parser("simulate",
                        help="integrate the full system and report drifts")
    p.add_argument("--mu", type=_numbers("--mu"), required=True,
                   help="weights (or a single scalar with --polygon)")
    p.add_argument("--eps", type=_finite_float, required=True, help="coupling strength")
    start = p.add_mutually_exclusive_group()
    start.add_argument("--start-angles", type=_numbers("--start-angles"),
                       help="weak-vortex angles")
    start.add_argument("--polygon", type=_polygon_count, help="regular polygon mode")
    p.add_argument("--radii", type=_numbers("--radii"),
                   help="weak-vortex radii (default all 1)")
    p.add_argument("--polish", action="store_true",
                   help="Newton-polish the start before integrating")
    p.add_argument("--periods", type=_periods, default=1.0)
    p.add_argument("--rtol", type=_rtol, default=1e-10,
                   help="relative and absolute tolerance of the integrator, "
                        "at least 100 machine epsilons and below 1")
    _flags(p, "--tol-newton", "--out", unset=("--tol-newton",))
    p.set_defaults(func=cmd_simulate)
    return parser


# flags whose value is a comma-separated number list
_LIST_FLAGS = ("--mu", "--start-angles", "--radii", "--snapshots")

# a word that starts as a negative number does, which no option name does
_NEGATIVE = re.compile(r"-\.?[0-9]")


def _join_number_lists(argv):
    """Write `--mu -1,-3,10` as `--mu=-1,-3,10`.

    argparse reads a separate word that starts with a minus sign, such as
    `-1,-3,10`, as an option rather than as the value of the flag before it.
    Every such word after a list flag is joined to it, so the flag's type
    reads the list in both spellings and gives the same answer.
    """
    out = []
    for token in argv:
        if out and out[-1] in _LIST_FLAGS and _NEGATIVE.match(token):
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
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # every other library error (a collision after the start, not a critical
    # point, an ideal that is not zero-dimensional) is a ValueError
    except (ConvergenceError, ValueError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
