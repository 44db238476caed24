"""Coverage decision and enlargement quantities.

The additive distance restricted to one Apollonius cell attains its maximum
over (cell intersected with objective) only at cell vertices inside the
objective, at crossings of the cell boundary with the objective rim, or at
the rim point diametrically opposite the disk center when the cell owns it.
Checking that finite witness set therefore decides coverage exactly, and its
maximal additive distance is the minimal uniform disk enlargement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .apollonius import VertexSet, vertex_sets
from .geom import TOL, Acs, Point, PupilConfig, build_acs, delta, delta_min


class NoCoverage(ValueError):
    """Raised when a configuration covers no objective of positive radius."""


@dataclass(frozen=True)
class CoverageReport:
    """Decision outcome with witnesses, enlargement quantities and the
    maximal covered objective radius."""

    covered: bool
    witness: Point | None
    alpha_star: float
    per_disk_alpha: dict[tuple[int, int], float | None]
    r_star: float


@dataclass(frozen=True)
class _WitnessData:
    acs: Acs
    vsets: list[VertexSet]
    # per deduplicated disk: witness points incl. the diametral rim fallback
    points: list[list[Point]]
    # per deduplicated disk: max additive distance over its witnesses (None
    # when the disk's cell contributes no witness, i.e. misses the objective)
    disk_alpha: list[float | None]
    worst_point: Point | None
    worst_value: float


def _diametral_fallback(acs: Acs, k: int, radius: float, tol: float) -> Point | None:
    """Rim point farthest from disk k's center, when disk k attains the
    global minimum there.  For an origin-centered disk the additive distance
    is constant on the rim, so any owned rim point serves; (radius, 0) is
    owned exactly when the disk owns the whole rim without crossings, which
    is the only case where the fallback is needed."""
    d = acs.disks[k]
    cn = d.center.norm()
    if cn <= tol:
        pt = Point(radius, 0.0)
    else:
        pt = Point(-radius * d.center.x / cn, -radius * d.center.y / cn)
    dmin, _ = delta_min(acs, pt)
    if delta(d, pt) <= dmin + tol:
        return pt
    return None


def _witness_data(cfg: PupilConfig, *, samples: int = 720, tol: float = TOL) -> _WitnessData:
    acs = build_acs(cfg)
    radius = cfg.objective_radius
    vsets = vertex_sets(acs, radius, samples=samples, tol=tol)

    points: list[list[Point]] = []
    disk_alpha: list[float | None] = []
    worst_pt: Point | None = None
    worst_val = -math.inf
    for k, vs in enumerate(vsets):
        pts = [p for p, _ in vs.points]
        fb = _diametral_fallback(acs, k, radius, tol)
        if fb is not None and not any(
            abs(fb.x - p.x) <= 1e-8 and abs(fb.y - p.y) <= 1e-8 for p in pts
        ):
            pts.append(fb)
        points.append(pts)
        if pts:
            vals = [delta(acs.disks[k], p) for p in pts]
            best = max(vals)
            disk_alpha.append(best)
            if best > worst_val:
                worst_val = best
                worst_pt = pts[vals.index(best)]
        else:
            disk_alpha.append(None)
    return _WitnessData(acs, vsets, points, disk_alpha, worst_pt, worst_val)


def decide(cfg: PupilConfig, *, samples: int = 720, tol: float = TOL) -> tuple[bool, Point | None]:
    """Is the objective covered by the union of the difference disks?

    Returns (covered, witness); the witness is an uncovered point when the
    answer is negative.  A pupil of radius at least half the objective's
    makes its own difference disk cover the objective, which short-circuits
    the computation."""
    if any(2.0 * p.radius >= cfg.objective_radius for p in cfg.pupils):
        return True, None
    data = _witness_data(cfg, samples=samples, tol=tol)
    if data.worst_value <= tol:
        return True, None
    return False, data.worst_point


def coverage_oracle(cfg: PupilConfig, resolution: int) -> tuple[bool, Point | None]:
    """Independent sampling check: test every grid point of an axis-aligned
    resolution x resolution grid that lies at least one grid band inside the
    objective for membership in the disk union.

    One-sided: a negative answer exhibits a genuinely uncovered interior
    point; a positive answer certifies coverage only up to grid resolution.
    """
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    radius = cfg.objective_radius
    acs = build_acs(cfg)
    axis = np.linspace(-radius, radius, resolution)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    keep = np.hypot(pts[:, 0], pts[:, 1]) <= radius - 2.0 * radius / resolution
    pts = pts[keep]

    uncovered = np.ones(len(pts), dtype=bool)
    order = np.argsort(-acs.radii_array())
    centers = acs.centers_array()
    radii = acs.radii_array()
    for k in order:
        if not uncovered.any():
            break
        idx = np.flatnonzero(uncovered)
        sub = pts[idx]
        inside = np.hypot(sub[:, 0] - centers[k, 0], sub[:, 1] - centers[k, 1]) <= radii[k]
        uncovered[idx[inside]] = False
    if uncovered.any():
        first = int(np.flatnonzero(uncovered)[0])
        return False, Point(float(pts[first, 0]), float(pts[first, 1]))
    return True, None


def alpha_star(cfg: PupilConfig, *, samples: int = 720, tol: float = TOL) -> float:
    """Minimal uniform amount by which every difference-disk radius must grow
    for the objective to be covered (negative values mean slack).  Enlarging
    all disks uniformly leaves the proximity diagram unchanged, so the value
    is the maximal additive distance over the witness set."""
    data = _witness_data(cfg, samples=samples, tol=tol)
    return data.worst_value


def per_disk_alpha(cfg: PupilConfig, *, samples: int = 720,
                   tol: float = TOL) -> dict[tuple[int, int], float | None]:
    """Per-pair minimal enlargement of each difference disk so that it keeps
    covering its own witnesses (signed; negative means the disk could shrink).

    Values are computed per deduplicated disk and fanned back out to every
    absorbed (i, j) label; disks whose cells contribute no witness (they miss
    the objective) map to None ("unconstrained") for all their labels."""
    return _per_pair(_witness_data(cfg, samples=samples, tol=tol))


@lru_cache(maxsize=8)
def _pair_keys(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    return tuple(tuple((i, j) for j in range(n)) for i in range(n))


def _per_pair(data: _WitnessData) -> dict[tuple[int, int], float | None]:
    """Fan each deduplicated disk's value out to every (i, j) label it
    absorbed.  Reports of the same pupil count share the key tuples."""
    keys = _pair_keys(data.acs.n)
    return {keys[i][j]: data.disk_alpha[k]
            for k, disk in enumerate(data.acs.disks) for i, j in disk.labels()}


def _circle_intersections(c1: Point, r1: float, c2: Point, r2: float) -> list[Point]:
    d = c1.distance_to(c2)
    if d <= 1e-15:
        return []
    if d > r1 + r2 or d < abs(r1 - r2):
        return []
    a = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    h2 = r1 * r1 - a * a
    if h2 < 0:
        if h2 < -1e-12 * max(1.0, r1 * r1):
            return []
        h2 = 0.0
    h = math.sqrt(h2)
    mx = c1.x + a * (c2.x - c1.x) / d
    my = c1.y + a * (c2.y - c1.y) / d
    ox = h * (c2.y - c1.y) / d
    oy = h * (c2.x - c1.x) / d
    if h <= 1e-15:
        return [Point(mx, my)]
    return [Point(mx + ox, my - oy), Point(mx - ox, my + oy)]


def _exposed(centers: np.ndarray, radii: np.ndarray, pt: Point, tol: float) -> bool:
    """Whether points arbitrarily close to ``pt``, a boundary point covered
    to within ``tol``, escape every disk through it: the inward normals of
    those disks leave a gap of directions of at least pi.  Two circles always
    do; three or more tangent-level disks (a cocircular lattice vertex) can
    close around the point."""
    d = np.hypot(centers[:, 0] - pt.x, centers[:, 1] - pt.y)
    through = np.flatnonzero((np.abs(d - radii) <= tol) & (radii > tol))
    if through.size < 3:
        return True
    angles = sorted(math.atan2(centers[k, 1] - pt.y, centers[k, 0] - pt.x) for k in through)
    gaps = [b - a for a, b in zip(angles, angles[1:])] + [angles[0] + 2.0 * math.pi - angles[-1]]
    return max(gaps) >= math.pi - 1e-9


def max_objective(cfg: PupilConfig, *, tol: float = TOL) -> float:
    """Largest objective radius the fixed configuration covers.

    If the origin-centered disk is contained in its own cell the answer is
    its radius (2 * max pupil radius): the minimum of another disk's additive
    distance over that circle has the closed form |center norm - radius| -
    other radius, so containment is an exact test.  Otherwise the answer is
    the smallest norm among pairwise circle intersection points that no disk
    strictly covers and that the disks through them leave exposed (the
    corners of the union boundary)."""
    acs = build_acs(cfg)
    centers = acs.centers_array()
    radii = acs.radii_array()
    k0 = acs.origin_index()
    r0 = float(radii[k0])

    contained = True
    for k in range(acs.size):
        if k == k0:
            continue
        reach = abs(math.hypot(centers[k, 0], centers[k, 1]) - r0) - radii[k]
        if reach < -tol:
            contained = False
            break
    if contained:
        if r0 <= tol:
            raise NoCoverage("the difference disks have empty interior at the origin")
        return r0

    best = math.inf
    for a in range(acs.size):
        for b in range(a + 1, acs.size):
            if radii[a] <= tol and radii[b] <= tol:
                continue
            for pt in _circle_intersections(acs.disks[a].center, float(radii[a]),
                                            acs.disks[b].center, float(radii[b])):
                if pt.norm() >= best:
                    continue
                dmin, _ = delta_min(acs, pt)
                if dmin >= -tol and _exposed(centers, radii, pt, tol):
                    best = pt.norm()
    if not math.isfinite(best):
        # No exposed corner: the union boundary near the origin is the origin
        # disk's own circle, so its radius is the answer.
        best = r0
    if best <= tol:
        raise NoCoverage("no objective of positive radius is covered")
    return best


def analyze(cfg: PupilConfig, *, samples: int = 720, tol: float = TOL) -> CoverageReport:
    """Full coverage report: decision, witness, enlargement quantities and
    the maximal covered objective radius (0.0 when nothing is covered)."""
    data = _witness_data(cfg, samples=samples, tol=tol)
    covered = data.worst_value <= tol
    try:
        r_star = max_objective(cfg, tol=tol)
    except NoCoverage:
        r_star = 0.0
    return CoverageReport(
        covered=covered,
        witness=None if covered else data.worst_point,
        alpha_star=data.worst_value,
        per_disk_alpha=_per_pair(data),
        r_star=r_star,
    )
