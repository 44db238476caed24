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
one witness table (``apollonius._witness_table``: points, owning disks, kind
codes and values, the diametral fallbacks included), with each disk's
largest additive distance and the worst witness.  ``per_disk_alpha`` and
``analyze`` are views of it, as are the optimizer's relocation rows and the
SVG witness marks.  ``decide`` and ``alpha_star`` need only the worst
witness: the largest additive distance, and the first row within 1e-12 of
it, so that rows tying up to their last bits do not swap the point.  They
read it off a smaller witness table: the cell pass
``apollonius._peak_cells`` bounds the 1-Lipschitz minimum over grid cells,
keeps the cells that can hold the maximum and the disks that can own a
witness there, and the witness table of those disks, restricted to the kept
cells, holds bit for bit the full table's rows within the cell pass's band
(1e-7, far wider than 1e-12) of the largest value (``_worst_witness``).  So
their answers equal ``build_analysis``'s, and their cost follows the region
near the maximum rather than the number of disk triples.  ``decide`` stops
earlier on covered designs: the cell bounds F(q) + h of one level hold the
minimal additive distance over the whole objective, and once they lie below
-(TOL + 2e-9 + 1e-7) no witness row can exceed TOL, so it answers covered
without any witness table (Shubert, SIAM J. Numer. Anal. 1972).  The prime
designs are decided so, on their first grid.  ``max_objective`` intersects
the circles of all disk pairs in numpy chunks and tests the corners below
the best norm so far in ascending norm, by blocks of additive distances.
The per-pair enlargements (``per_disk_alpha``,
``CoverageReport.per_disk_alpha``) are a read-only mapping, ``PairValues``,
from every (i, j) to its disk's value; it holds the ACS's pair-to-disk index
``Acs.pair_disk`` and ``Analysis.disk_alpha``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .apollonius import _OWNER_CELLS, DIAMETRAL, _distances, _peak_cells, _witness_table
from .geom import TOL, Acs, Point, PupilConfig, _first_copies, build_acs


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


#: Rows whose values are within this of the largest value tie for the
#: worst witness; the first of them in table order is taken.
_WORST_TIE = 1e-12


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
    worst_point: Point | None  # first witness within 1e-12 of worst_value

    @property
    def covered(self) -> bool:
        """``decide``'s verdict: a pupil of radius at least half the
        objective's, or no witness beyond TOL."""
        return _covers_trivially(self.cfg) or self.worst_value <= TOL

    def decision(self) -> tuple[bool, Point | None]:
        """``decide``'s answer: (covered, uncovered witness or None)."""
        return (True, None) if self.covered else (False, self.worst_point)

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
    return bool((2.0 * cfg.xyr[:, 2] >= cfg.objective_radius).any())


def _worst(xy: np.ndarray, values: np.ndarray) -> tuple[float, Point | None]:
    """The largest value and the point of the first row whose value is within
    ``_WORST_TIE`` of it, or (-inf, None) when there are no rows.  Rows that
    tie at the maximum up to their last bits, such as the mirror witnesses w
    and -w of the centrally symmetric difference disks, then give the same
    point whichever of them rounds higher."""
    if values.size == 0:
        return -math.inf, None
    top = values.max()
    w = int(np.argmax(values >= top - _WORST_TIE))
    return float(top), Point(float(xy[w, 0]), float(xy[w, 1]))


def build_analysis(cfg: PupilConfig, *, acs: Acs | None = None) -> Analysis:
    """The witness analysis of ``cfg``, read off the witness table of its
    ACS (``acs`` when the caller has built it)."""
    acs = build_acs(cfg) if acs is None else acs
    xy, owner, kind, values = _witness_table(acs, cfg.objective_radius)
    disk_alpha = np.full(acs.size, np.nan)
    np.fmax.at(disk_alpha, owner, values)
    return Analysis(cfg, acs, xy, owner, kind, disk_alpha, *_worst(xy, values))


def _worst_witness(cfg: PupilConfig,
                   stop_if_covered: bool = False) -> tuple[float, Point | None] | None:
    """``build_analysis(cfg)``'s ``worst_value`` and ``worst_point``, from
    the rows that the cell pass ``apollonius._peak_cells`` keeps: the
    witness table of the disks that can reach the maximum, restricted to the
    kept cells, where its rows are the full table's.  With
    ``stop_if_covered``, None when the cell pass's bounds prove every row
    negative, before any witness table is built."""
    acs = build_acs(cfg)
    radius = cfg.objective_radius
    peak = _peak_cells(acs.centers, acs.radii, radius, stop_if_covered)
    if peak is None:
        return None
    disks, in_kept = peak
    xy, _, _, values = _witness_table(acs, radius, disks)
    keep = in_kept(xy)
    return _worst(xy[keep], values[keep])


def decide(cfg: PupilConfig) -> tuple[bool, Point | None]:
    """Is the objective covered by the union of the difference disks?

    Returns (covered, witness).  When the answer is negative the witness is
    the uncovered point of largest additive distance, ``build_analysis``'s
    worst point, found by the cell pass of ``_worst_witness``.  A covered
    answer often needs no witness at all: once a level of the cell pass
    bounds the minimal additive distance below -(TOL + 2e-9 + 1e-7) over
    the whole objective, no witness row can exceed TOL.  A pupil of radius
    at least half the objective's makes its own difference disk cover the
    objective, which short-circuits the computation."""
    if _covers_trivially(cfg):
        return True, None
    worst = _worst_witness(cfg, stop_if_covered=True)
    if worst is None or worst[0] <= TOL:
        return True, None
    return False, worst[1]


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


def _corners(centers: np.ndarray, radii: np.ndarray):
    """The intersection points of the circles of every disk pair a < b, one
    of them with a radius above ``TOL``, for chunks of the rows a of at most
    ``_OWNER_CELLS`` pairs: (x, y) per chunk.  Coincident centers, nested
    and apart circles do not meet; a squared half-chord down to -1e-12
    max(1, r_a^2) counts as zero, and a half-chord up to 1e-15 gives the one
    point of tangency."""
    m = radii.size
    rows = max(1, _OWNER_CELLS // max(1, m))
    for s in range(0, m, rows):
        a, b = np.nonzero(np.arange(s, min(s + rows, m))[:, None] < np.arange(m))
        a += s
        ra, rb = radii[a], radii[b]
        dx, dy = centers[b, 0] - centers[a, 0], centers[b, 1] - centers[a, 1]
        d = np.hypot(dx, dy)
        meet = ((ra > TOL) | (rb > TOL)) & (d > 1e-15) & (d <= ra + rb) & (d >= np.abs(ra - rb))
        a, ra, rb, dx, dy, d = a[meet], ra[meet], rb[meet], dx[meet], dy[meet], d[meet]
        along = (ra * ra - rb * rb + d * d) / (2.0 * d)
        h2 = ra * ra - along * along
        meet = h2 >= -1e-12 * np.maximum(1.0, ra * ra)
        h = np.sqrt(np.maximum(h2[meet], 0.0))
        a, along, dx, dy, d = a[meet], along[meet], dx[meet], dy[meet], d[meet]
        mx = centers[a, 0] + along * dx / d
        my = centers[a, 1] + along * dy / d
        two = h > 1e-15
        h[~two] = 0.0
        ox, oy = h * dy / d, h * dx / d
        yield (np.concatenate([mx + ox, (mx - ox)[two]]),
               np.concatenate([my - oy, (my + oy)[two]]))


def _first_corner(centers: np.ndarray, radii: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """The norm of the first of the points (x, y) that no disk strictly
    covers (within ``TOL``) and that ``_exposed`` finds exposed, or inf."""
    for s, d in _distances(x, y, centers[:, 0], centers[:, 1], radii):
        for i in np.flatnonzero(d.min(axis=1) >= -TOL).tolist():
            pt = Point(float(x[s + i]), float(y[s + i]))
            if _exposed(centers, radii, pt):
                return pt.norm()
    return math.inf


def max_objective(cfg: PupilConfig, *, acs: Acs | None = None) -> float:
    """Largest objective radius the fixed configuration covers.

    If the origin-centered disk is contained in its own cell the answer is
    its radius (2 * max pupil radius): the minimum of another disk's additive
    distance over that circle has the closed form |center norm - radius| -
    other radius, so containment is an exact test.  Otherwise the answer is
    the smallest norm among pairwise circle intersection points that no disk
    strictly covers and that the disks through them leave exposed (the
    corners of the union boundary).  The corners of each chunk of pairs
    below the best norm so far are tested in ascending norm, by blocks of
    additive distances, and ``_exposed`` runs only on those no disk covers,
    until one is exposed.  ``acs`` is the configuration's ACS when the
    caller has built it."""
    acs = build_acs(cfg) if acs is None else acs
    centers, radii = acs.centers, acs.radii
    k0 = int(acs.pair_disk[0, 0])
    r0 = float(radii[k0])

    reach = np.abs(np.hypot(centers[:, 0], centers[:, 1]) - r0) - radii
    reach[k0] = math.inf
    if not (reach < -TOL).any():
        if r0 <= TOL:
            raise NoCoverage("the difference disks have empty interior at the origin")
        return r0

    best = math.inf
    for x, y in _corners(centers, radii):
        norm = np.hypot(x, y)
        below = np.flatnonzero(norm < best)
        below = below[np.argsort(norm[below], kind="stable")]
        best = min(best, _first_corner(centers, radii, x[below], y[below]))
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
