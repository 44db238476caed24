"""Deterministic SVG rendering of configurations.

Fixed canvas: the world square [-1.2R, 1.2R]^2 maps to 1000x1000 user units.
Layers (drawn back to front regardless of the order requested): difference
disks outlined, pupils filled, the objective as a thick circle, witness
points as x-marks.  Output bytes depend only on the input configuration.
"""

from __future__ import annotations

import math

from .coverage import build_analysis
from .geom import PupilConfig, build_acs

CANVAS = 1000.0
MARGIN = 1.2

LAYERS = ("acs", "pupils", "objective", "diagram")


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def render_svg(cfg: PupilConfig, layers=LAYERS) -> str:
    """Render the requested layers to an SVG 1.1 document string."""
    bad = [l for l in layers if l not in LAYERS]
    if bad:
        raise ValueError(f"unknown layers: {bad}")
    wanted = [l for l in LAYERS if l in layers]
    radius = cfg.objective_radius
    span = 2.0 * MARGIN * radius

    def px(x: float) -> float:
        return (x + MARGIN * radius) / span * CANVAS

    def py(y: float) -> float:
        return (MARGIN * radius - y) / span * CANVAS

    def scale(r: float) -> float:
        return r / span * CANVAS

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{CANVAS:g}" height="{CANVAS:g}" '
        f'viewBox="0 0 {CANVAS:g} {CANVAS:g}">',
        f'<rect width="{CANVAS:g}" height="{CANVAS:g}" fill="#ffffff"/>',
    ]
    acs = build_acs(cfg) if "acs" in wanted or "diagram" in wanted else None
    if "acs" in wanted:
        for (x, y), r in zip(acs.centers.tolist(), acs.radii.tolist()):
            parts.append(
                f'<circle class="acs" cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" '
                f'r="{_fmt(scale(r))}" fill="#9ecae1" fill-opacity="0.25" '
                f'stroke="#3182bd" stroke-width="1.5"/>'
            )
    if "pupils" in wanted:
        for p in cfg.pupils:
            parts.append(
                f'<circle class="pupil" cx="{_fmt(px(p.center.x))}" cy="{_fmt(py(p.center.y))}" '
                f'r="{_fmt(scale(p.radius))}" fill="#756bb1" fill-opacity="0.7" stroke="none"/>'
            )
            # Radius-zero pupils stay visible as dots.
            parts.append(
                f'<circle class="pupil-center" cx="{_fmt(px(p.center.x))}" '
                f'cy="{_fmt(py(p.center.y))}" r="2.000000" fill="#54278f"/>'
            )
    if "objective" in wanted:
        parts.append(
            f'<circle class="objective" cx="{_fmt(px(0.0))}" cy="{_fmt(py(0.0))}" '
            f'r="{_fmt(scale(radius))}" fill="none" stroke="#000000" stroke-width="4"/>'
        )
    if "diagram" in wanted:
        seen = sorted(build_analysis(cfg, acs=acs).unique_points().tolist(),
                      key=lambda q: (math.atan2(q[1], q[0]), math.hypot(q[0], q[1])))
        arm = 6.0
        for sx, sy in seen:
            cx, cy = px(sx), py(sy)
            parts.append(
                f'<path class="vertex-mark" d="M {_fmt(cx - arm)} {_fmt(cy - arm)} '
                f'L {_fmt(cx + arm)} {_fmt(cy + arm)} M {_fmt(cx - arm)} {_fmt(cy + arm)} '
                f'L {_fmt(cx + arm)} {_fmt(cy - arm)}" stroke="#d62728" stroke-width="2" '
                f'fill="none"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
