"""Deterministic SVG diagrams of vortex configurations.

Hand-rolled SVG so the output is byte-stable for identical input: fixed
canvas, fixed decimal formatting, no library-dependent float printing.
"""

from __future__ import annotations

import math

from vortexre.errors import CIRCULATION_NOISE, NO_CENTER, CirculationError, InputError

CANVAS = 420
CENTER = CANVAS / 2.0
UNIT_RADIUS = 150.0
DOT_RADIUS = 6.0

# dot colors by vortex index (1-based): blue, orange, green, then spares
PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def _fmt(x):
    return f"{x:.3f}"


def _to_canvas(x, y):
    # math y up, svg y down
    return CENTER + UNIT_RADIUS * x, CENTER - UNIT_RADIUS * y


def _positions(record):
    angles = [float(a) for a in record["angles"]]
    radii = [float(r) for r in record.get("radii", [1.0] * len(angles))]
    if len(radii) != len(angles):
        raise ValueError("radii and angles must have equal length")
    return [(r * math.cos(a), r * math.sin(a)) for a, r in zip(angles, radii)]


def _strong_offset(record, positions):
    if "z0" in record:
        x0, y0 = record["z0"]
        return float(x0), float(y0)
    eps = float(record.get("epsilon", 0.0))
    mu = [float(m) for m in record.get("mu", [1.0] * len(positions))]
    gamma = [eps * m for m in mu]
    total, bound = 1.0 + sum(gamma), 1.0 + sum(map(abs, gamma))
    if not math.isfinite(bound):  # it bounds each |eps*mu| and |total|
        raise InputError("the record overflows: its circulations eps*mu or their total "
                         "are not finite")
    # the zero rule of vortexre.dynamics._zero_circulation, without numpy
    if abs(total) <= CIRCULATION_NOISE * bound:
        raise CirculationError(NO_CENTER)
    x0 = -sum(g * p[0] for g, p in zip(gamma, positions)) / total
    y0 = -sum(g * p[1] for g, p in zip(gamma, positions)) / total
    return x0, y0


def render_configuration_svg(record):
    """SVG text for one configuration record.

    The record needs "angles"; "radii", "mu", "epsilon", "z0" are
    optional.  The rotation center sits at the canvas center, the weak
    vortices are colored dots, and the strong vortex is a black diamond
    offset from the center by its reconstructed position.
    """
    positions = _positions(record)
    x0, y0 = _strong_offset(record, positions)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" '
        f'height="{CANVAS}" viewBox="0 0 {CANVAS} {CANVAS}">',
        f'<rect width="{CANVAS}" height="{CANVAS}" fill="white"/>',
        f'<circle cx="{_fmt(CENTER)}" cy="{_fmt(CENTER)}" r="{_fmt(UNIT_RADIUS)}" '
        'fill="none" stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4 4"/>',
        # crosshair at the rotation center
        f'<path d="M {_fmt(CENTER - 8)} {_fmt(CENTER)} H {_fmt(CENTER + 8)} '
        f'M {_fmt(CENTER)} {_fmt(CENTER - 8)} V {_fmt(CENTER + 8)}" '
        'stroke="#999999" stroke-width="1"/>',
    ]
    sx, sy = _to_canvas(x0, y0)
    d = 7.0
    lines.append(
        f'<path d="M {_fmt(sx)} {_fmt(sy - d)} L {_fmt(sx + d)} {_fmt(sy)} '
        f'L {_fmt(sx)} {_fmt(sy + d)} L {_fmt(sx - d)} {_fmt(sy)} Z" '
        'fill="black"/>')
    for idx, (x, y) in enumerate(positions):
        cx, cy = _to_canvas(x, y)
        color = PALETTE[idx % len(PALETTE)]
        lines.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(DOT_RADIUS)}" '
            f'fill="{color}"/>')
        lines.append(
            f'<text x="{_fmt(cx + 9)}" y="{_fmt(cy - 9)}" '
            f'font-family="sans-serif" font-size="12" fill="{color}">'
            f'{idx + 1}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
