"""Coverage decision and enlargement quantities.

The additive distance restricted to one Apollonius cell attains its maximum
over (cell intersected with objective) only at cell vertices inside the
objective, at crossings of the cell boundary with the objective rim, or at
the rim point diametrically opposite the disk center when the cell owns it.
Checking that finite witness set therefore decides coverage exactly, and its
maximal additive distance is the minimal uniform disk enlargement.  No step
samples: the vertices are polished roots of closed-form equations, and the
rim crossings are the polished unit roots of one quartic per disk pair (see
``apollonius``).

``build_analysis`` makes one ``Analysis`` per configuration from one ACS and
one witness table (``apollonius._witness_table``: points, owning disks and
kind codes), plus the diametral fallbacks, each disk's largest additive
distance and the worst witness.  ``per_disk_alpha`` and ``analyze`` are
views of it, as are the optimizer's relocation rows and the SVG witness
marks.  ``decide`` and ``alpha_star`` need only the worst witness, the
first row of largest additive distance.  They read it off the same row
assembly on a smaller table: the cell pass ``apollonius._peak_cells``
bounds the 1-Lipschitz minimum over grid cells, keeps the cells that can
hold the maximum and the disks that can own a witness there, and the
witness table of those disks, restricted to the kept cells, holds the full
table's rows of largest value bit for bit (``_worst_witness``).  So their
answers equal ``build_analysis``'s, and their cost follows the region near
the maximum rather than the number of disk triples.  The per-pair enlargements
(``per_disk_alpha``, ``CoverageReport.per_disk_alpha``) are a read-only
mapping, ``PairValues``, from every (i, j) to its disk's value; it holds the
ACS's pair-to-disk index ``Acs.pair_disk`` and ``Analysis.disk_alpha``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .apollonius import (BOUNDARY_CROSSING, INTERIOR_VERTEX, _first_copies, _owner_pairs,
                         _peak_cells, _witness_table)
from .geom import TOL, Acs, Point, PupilConfig, build_acs, delta_min


class NoCoverage(ValueError):
    """Raised when a configuration covers no objective of positive radius."""


@dataclass(frozen=True)
class CoverageReport:
    """Decision outcome with witnesses, enlargement quantities and the
    maximal covered objective radius."""

    covered: bool
    witness: Point | None
    alpha_star: float
    per_disk_alpha: Mapping[tuple[int, int], float | None]
    r_star: float


class PairValues(Mapping):
    """Read-only mapping from every pupil pair (i, j) to the value of the
    ACS disk that holds it: ``disk[i, j]`` indexes ``values``, and a NaN
    value reads as None.  It compares equal to the dict of its items."""

    __slots__ = ("_disk", "_values")

    def __init__(self, disk: np.ndarray, values: np.ndarray):
        self._disk = disk
        self._values = values

    def __getitem__(self, key) -> float | None:
        try:
            i, j = map(operator.index, key)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        n = self._disk.shape[0]
        if not (0 <= i < n and 0 <= j < n):
            raise KeyError(key)
        v = float(self._values[self._disk[i, j]])
        return None if math.isnan(v) else v

    def __iter__(self) -> Iterator[tuple[int, int]]:
        n = self._disk.shape[0]
        return ((i, j) for i in range(n) for j in range(n))

    def __len__(self) -> int:
        return self._disk.size

    def __repr__(self) -> str:
        return repr(dict(self.items()))


#: Kind code of a diametral fallback witness, after the two of the witness
#: table (``apollonius.INTERIOR_VERTEX`` and ``BOUNDARY_CROSSING``).
DIAMETRAL = 2


@dataclass(frozen=True, eq=False)
class Analysis:
    """The witness analysis of one configuration, built once by
    ``build_analysis``; every coverage quantity is a view of it.

    Witnesses are grouped by owning ACS disk in disk order.  Within a disk
    they follow the witness table (angle, then norm), and the disk's
    diametral rim fallback, when it has one, comes last.  A point owned by
    several disks appears once per owner."""

    cfg: PupilConfig
    acs: Acs
    xy: np.ndarray          # (k, 2) witness points
    owner: np.ndarray       # (k,) owning ACS disk, nondecreasing
    kind: np.ndarray        # (k,) INTERIOR_VERTEX, BOUNDARY_CROSSING or DIAMETRAL
    # per ACS disk: max additive distance over its witnesses, NaN when its
    # cell contributes no witness (it misses the objective)
    disk_alpha: np.ndarray
    worst_value: float      # max additive distance over all witnesses
    worst_point: Point | None

    @property
    def covered(self) -> bool:
        return self.worst_value <= TOL

    def decision(self) -> tuple[bool, Point | None]:
        """``decide``'s answer: (covered, uncovered witness or None)."""
        if _covers_trivially(self.cfg) or self.covered:
            return True, None
        return False, self.worst_point

    def per_pair(self) -> PairValues:
        """Each disk's value seen through every (i, j) label it absorbed,
        as a read-only mapping over ``disk_alpha``."""
        return PairValues(self.acs.pair_disk, self.disk_alpha)

    def unique_points(self) -> np.ndarray:
        """The distinct witness-table points as an (u, 2) array: in
        witness order, a point within 1e-9 in both coordinates of an earlier
        kept point is dropped."""
        pts = self.xy[self.kind != DIAMETRAL]
        into = _first_copies(pts, np.zeros(len(pts), dtype=np.intp), 1e-9)
        return pts[into == np.arange(len(pts))]


def _covers_trivially(cfg: PupilConfig) -> bool:
    """A pupil of radius at least half the objective's makes its own
    difference disk cover the objective."""
    return any(2.0 * p.radius >= cfg.objective_radius for p in cfg.pupils)


def _diametral_fallbacks(acs: Acs, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Every disk's rim point farthest from its center, and whether the disk
    attains the global minimum there.  For an origin-centered disk the
    additive distance is constant on the rim, so any owned rim point serves;
    (radius, 0) is owned exactly when the disk owns the whole rim without
    crossings, which is the only case where the fallback is needed."""
    centers, radii = acs.centers, acs.radii
    norms = np.hypot(centers[:, 0], centers[:, 1])
    at_origin = norms <= TOL
    pts = -radius * centers / np.where(at_origin, 1.0, norms)[:, None]
    pts[at_origin] = (radius, 0.0)
    pt, dk = _owner_pairs(pts[:, 0], pts[:, 1], centers[:, 0], centers[:, 1], radii, TOL)
    owned = np.zeros(acs.size, dtype=bool)
    owned[pt[pt == dk]] = True
    return pts, owned


def _rows(acs: Acs, radius: float, xy: np.ndarray, owner: np.ndarray, kind: np.ndarray):
    """The witness rows of an analysis from a witness table: the table's
    rows and each disk's diametral fallback unless one of its rows lies
    within 1e-8 of it, grouped by owner, and the additive distance of every
    row's point to its owner."""
    fb, owned = _diametral_fallbacks(acs, radius)
    owned[owner[(np.abs(xy - fb[owner]) <= 1e-8).all(axis=1)]] = False
    extra = np.flatnonzero(owned)
    order = np.argsort(np.concatenate([owner, extra]), kind="stable")
    xy = np.concatenate([xy, fb[extra]])[order]
    owner = np.concatenate([owner, extra])[order]
    kind = np.concatenate([kind, np.full(extra.size, DIAMETRAL)])[order]
    centers, radii = acs.centers, acs.radii
    values = np.hypot(xy[:, 0] - centers[owner, 0], xy[:, 1] - centers[owner, 1]) - radii[owner]
    return xy, owner, kind, values


def _worst(xy: np.ndarray, values: np.ndarray) -> tuple[float, Point | None]:
    """The largest value and the point of its first row, or (-inf, None)
    when there are no rows."""
    if values.size == 0:
        return -math.inf, None
    w = int(np.argmax(values))
    return float(values[w]), Point(float(xy[w, 0]), float(xy[w, 1]))


def build_analysis(cfg: PupilConfig, *, acs: Acs | None = None) -> Analysis:
    """The witness analysis of ``cfg``: the witness table of its ACS
    (``acs`` when the caller has built it), each disk's diametral fallback
    unless one of its witnesses lies within 1e-8 of it, and the additive
    distance of every witness to its owner."""
    acs = build_acs(cfg) if acs is None else acs
    radius = cfg.objective_radius
    xy, owner, kind, values = _rows(acs, radius, *_witness_table(acs, radius))
    disk_alpha = np.full(acs.size, np.nan)
    np.fmax.at(disk_alpha, owner, values)
    return Analysis(cfg, acs, xy, owner, kind, disk_alpha, *_worst(xy, values))


def _worst_witness(cfg: PupilConfig) -> tuple[float, Point | None]:
    """``build_analysis(cfg)``'s ``worst_value`` and ``worst_point``, from
    the rows that the cell pass ``apollonius._peak_cells`` keeps: the same
    assembly on the witness table of the disks that can reach the maximum,
    restricted to the kept cells, where its rows are the full table's."""
    acs = build_acs(cfg)
    radius = cfg.objective_radius
    disks, in_kept = _peak_cells(acs.centers, acs.radii, radius)
    xy, _, _, values = _rows(acs, radius, *_witness_table(acs, radius, disks))
    keep = in_kept(xy)
    return _worst(xy[keep], values[keep])


def decide(cfg: PupilConfig) -> tuple[bool, Point | None]:
    """Is the objective covered by the union of the difference disks?

    Returns (covered, witness).  When the answer is negative the witness is
    the uncovered point of largest additive distance, ``build_analysis``'s
    worst point, found by the cell pass of ``_worst_witness``.  A pupil of
    radius at least half the objective's makes its own difference disk
    cover the objective, which short-circuits the computation."""
    if _covers_trivially(cfg):
        return True, None
    value, point = _worst_witness(cfg)
    return (True, None) if value <= TOL else (False, point)


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
    order = np.argsort(-acs.radii)
    centers = acs.centers
    radii = acs.radii
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


def alpha_star(cfg: PupilConfig) -> float:
    """Minimal uniform amount by which every difference-disk radius must grow
    for the objective to be covered (negative values mean slack).  Enlarging
    all disks uniformly leaves the proximity diagram unchanged, so the value
    is the maximal additive distance over the witness set, read off the cell
    pass of ``_worst_witness``: ``build_analysis``'s ``worst_value``."""
    return _worst_witness(cfg)[0]


def per_disk_alpha(cfg: PupilConfig) -> PairValues:
    """Per-pair minimal enlargement of each difference disk so that it keeps
    covering its own witnesses (signed; negative means the disk could shrink).

    Values are computed per deduplicated disk and read through every
    absorbed (i, j) label of a read-only mapping with all n^2 pairs as keys;
    disks whose cells contribute no witness (they miss the objective) map to
    None ("unconstrained") for all their labels."""
    return build_analysis(cfg).per_pair()


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


def _exposed(centers: np.ndarray, radii: np.ndarray, pt: Point) -> bool:
    """Whether points arbitrarily close to ``pt``, a boundary point covered
    to within ``TOL``, escape every disk through it: the inward normals of
    those disks leave a gap of directions of at least pi.  Two circles always
    do; three or more tangent-level disks (a cocircular lattice vertex) can
    close around the point."""
    d = np.hypot(centers[:, 0] - pt.x, centers[:, 1] - pt.y)
    through = np.flatnonzero((np.abs(d - radii) <= TOL) & (radii > TOL))
    if through.size < 3:
        return True
    angles = sorted(math.atan2(centers[k, 1] - pt.y, centers[k, 0] - pt.x) for k in through)
    gaps = [b - a for a, b in zip(angles, angles[1:])] + [angles[0] + 2.0 * math.pi - angles[-1]]
    return max(gaps) >= math.pi - 1e-9


def max_objective(cfg: PupilConfig, *, acs: Acs | None = None) -> float:
    """Largest objective radius the fixed configuration covers.

    If the origin-centered disk is contained in its own cell the answer is
    its radius (2 * max pupil radius): the minimum of another disk's additive
    distance over that circle has the closed form |center norm - radius| -
    other radius, so containment is an exact test.  Otherwise the answer is
    the smallest norm among pairwise circle intersection points that no disk
    strictly covers and that the disks through them leave exposed (the
    corners of the union boundary).  ``acs`` is the configuration's ACS
    when the caller has built it."""
    acs = build_acs(cfg) if acs is None else acs
    centers = acs.centers
    radii = acs.radii
    k0 = int(acs.pair_disk[0, 0])
    r0 = float(radii[k0])

    contained = True
    for k in range(acs.size):
        if k == k0:
            continue
        reach = abs(math.hypot(centers[k, 0], centers[k, 1]) - r0) - radii[k]
        if reach < -TOL:
            contained = False
            break
    if contained:
        if r0 <= TOL:
            raise NoCoverage("the difference disks have empty interior at the origin")
        return r0

    points = [Point(x, y) for x, y in centers.tolist()]
    best = math.inf
    for a in range(acs.size):
        for b in range(a + 1, acs.size):
            if radii[a] <= TOL and radii[b] <= TOL:
                continue
            for pt in _circle_intersections(points[a], float(radii[a]),
                                            points[b], float(radii[b])):
                if pt.norm() >= best:
                    continue
                dmin, _ = delta_min(acs, pt)
                if dmin >= -TOL and _exposed(centers, radii, pt):
                    best = pt.norm()
    if not math.isfinite(best):
        # No exposed corner: the union boundary near the origin is the origin
        # disk's own circle, so its radius is the answer.
        best = r0
    if best <= TOL:
        raise NoCoverage("no objective of positive radius is covered")
    return best


def analyze(cfg: PupilConfig) -> CoverageReport:
    """Full coverage report: decision, witness, enlargement quantities and
    the maximal covered objective radius (0.0 when nothing is covered)."""
    an = build_analysis(cfg)
    try:
        r_star = max_objective(cfg, acs=an.acs)
    except NoCoverage:
        r_star = 0.0
    return CoverageReport(
        covered=an.covered,
        witness=None if an.covered else an.worst_point,
        alpha_star=an.worst_value,
        per_disk_alpha=an.per_pair(),
        r_star=r_star,
    )
