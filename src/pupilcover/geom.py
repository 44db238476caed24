"""Planar primitives: points, disks, additive distance, and assembly of the
pairwise difference-disk system (the autocorrelation support, ACS): one
``Acs`` of arrays, the merged disks' centers and radii and the n x n index
from each pupil pair to its disk, which every other module reads.

Merging the n^2 labels and dropping repeated witness rows share one copy
rule, ``_first_copies``, which finds the close pairs from two sorts."""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass

import numpy as np

#: Absolute tolerance (length units) for boundary classification.
TOL = 1e-9

#: Disk centers closer than this are treated as identical when merging.
MERGE_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class Point:
    """A point in the plane.  Coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True, slots=True)
class Disk:
    """A closed disk with nonnegative radius."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.radius) or self.radius < 0:
            raise ValueError(f"invalid disk radius {self.radius}")


def _check_pupil_radius(radius: float) -> None:
    """Raise ValueError unless a pupil radius is finite and nonnegative."""
    if not math.isfinite(radius) or radius < 0:
        raise ValueError(f"invalid pupil radius {radius}")


@dataclass(frozen=True, slots=True)
class Pupil:
    """A pupil: one of the small design disks.  Radius zero is legal."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        _check_pupil_radius(self.radius)


class PupilConfig:
    """An ordered pupil set plus the radius of the objective disk.

    The pupils are held as one read-only (n, 3) float array ``xyr``: center
    x, center y and radius per pupil.  ``pupils``, ``centers`` and ``radii``
    build their objects from it on demand.  Two configurations are equal,
    and hash alike, when their pupils and objective radii are equal as
    floats, as tuples of ``Pupil`` would be (0.0 equals -0.0).

    The objective is always centered at the origin; configurations with a
    shifted objective are rejected at construction/parse time rather than
    translated silently.
    """

    __slots__ = ("xyr", "objective_radius")
    xyr: np.ndarray
    objective_radius: float

    def __init__(self, pupils, objective_radius: float):
        self._set(np.fromiter(((p.center.x, p.center.y, p.radius) for p in pupils), dtype=(float, 3)),
                  objective_radius)

    @classmethod
    def _of(cls, xyr: np.ndarray, objective_radius: float) -> "PupilConfig":
        """A configuration holding ``xyr``, a new (n, 3) array of valid
        pupils, without building their objects."""
        cfg = object.__new__(cls)
        cfg._set(xyr, objective_radius)
        return cfg

    def _set(self, xyr: np.ndarray, objective_radius: float) -> None:
        """Check the pupils ``xyr`` and the objective radius, and hold them,
        the array read-only."""
        object.__setattr__(self, "objective_radius", float(objective_radius))
        if xyr.shape[0] < 1:
            raise ValueError("a configuration needs at least one pupil")
        if not math.isfinite(self.objective_radius) or self.objective_radius <= 0:
            raise ValueError(f"objective radius must be positive, got {objective_radius}")
        with np.errstate(over="ignore"):
            spans = (*np.ptp(xyr[:, :2], axis=0), 2.0 * xyr[:, 2].max())
        if not np.isfinite(spans).all():
            raise ValueError("pupil centers or radii too large: the difference disks overflow")
        xyr.flags.writeable = False
        object.__setattr__(self, "xyr", xyr)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.objective_radius == other.objective_radius
                and self.xyr.shape == other.xyr.shape and bool((self.xyr == other.xyr).all()))

    def __hash__(self) -> int:
        return hash((tuple(self.xyr.ravel().tolist()), self.objective_radius))

    def __repr__(self) -> str:
        return f"PupilConfig(pupils={self.pupils!r}, objective_radius={self.objective_radius!r})"

    @property
    def pupils(self) -> tuple[Pupil, ...]:
        return tuple(Pupil(Point(x, y), r) for x, y, r in self.xyr.tolist())

    @property
    def n(self) -> int:
        return self.xyr.shape[0]

    @property
    def radii(self) -> tuple[float, ...]:
        return tuple(self.xyr[:, 2].tolist())

    @property
    def centers(self) -> tuple[Point, ...]:
        return tuple(Point(x, y) for x, y in self.xyr[:, :2].tolist())

    def with_radii(self, radii) -> "PupilConfig":
        radii = [float(r) for r in radii]
        if len(radii) != self.n:
            raise ValueError("radius count does not match pupil count")
        for r in radii:
            _check_pupil_radius(r)
        xyr = self.xyr.copy()
        xyr[:, 2] = radii
        return PupilConfig._of(xyr, self.objective_radius)

    def with_centers(self, centers) -> "PupilConfig":
        xy = [(c.x, c.y) for c in centers]
        if len(xy) != self.n:
            raise ValueError("center count does not match pupil count")
        xyr = self.xyr.copy()
        xyr[:, :2] = xy
        return PupilConfig._of(xyr, self.objective_radius)

    def enlarged(self, amount: float) -> "PupilConfig":
        """Return a copy with every pupil radius increased by ``amount``."""
        return self.with_radii(r + amount for r in self.radii)


@dataclass(frozen=True, eq=False)
class Acs:
    """The deduplicated union of all n^2 pairwise difference disks.

    Disk k has center ``centers[k]`` and radius ``radii[k]``, and
    ``pair_disk[i, j]`` is the disk that absorbed the label (i, j).  A
    disk's representative is its largest-radius label, ties to the smallest
    (i, j), and disks are ordered by representative.  Every diagonal label
    has the exact center (0, 0), so ``pair_disk[0, 0]`` is the origin disk."""

    centers: np.ndarray    # (m, 2) float
    radii: np.ndarray      # (m,) float
    pair_disk: np.ndarray  # (n, n) int32

    @property
    def size(self) -> int:
        return self.radii.size

    @property
    def n(self) -> int:
        return self.pair_disk.shape[0]


def delta_min(acs: Acs, x: Point) -> tuple[float, int]:
    """Smallest additive distance over all ACS disks and the index of a
    minimizer; ties go to the lowest disk index."""
    c = acs.centers
    vals = np.hypot(c[:, 0] - x.x, c[:, 1] - x.y) - acs.radii
    k = int(np.argmin(vals))
    return float(vals[k]), k


def _first_copies(xy: np.ndarray, owner: np.ndarray, gap: float) -> np.ndarray:
    """For each row of the points ``xy`` (k, 2), the row it is a copy of, or
    itself: in row order, a row within ``gap`` in both coordinates of an
    earlier kept row of the same owner is a copy of the first such row."""
    # Two rows within gap in x share an x cell of width 4 gap in one of two
    # grids offset by 2 gap.  In the (owner, cell, y) order the rows of one
    # owner and cell within gap in y are runs, so in each grid the pairs are
    # found lag by lag until a lag has none.  Sorting by x alone would make
    # every pair of a vertical line a candidate.
    pairs = [np.empty((2, 0), dtype=np.intp)]
    with np.errstate(over="ignore"):  # cells and y steps beyond 1e296 are inf
        for shift in (0.0, 0.5):
            cell = np.floor(xy[:, 0] / (4.0 * gap) + shift)
            order = np.lexsort((xy[:, 1], cell, owner))
            so, sc, sy = owner[order], cell[order], xy[order, 1]
            for lag in range(1, order.size):
                close = np.flatnonzero((so[lag:] == so[:-lag]) & (sc[lag:] == sc[:-lag])
                                       & (sy[lag:] - sy[:-lag] <= gap))
                if close.size == 0:
                    break
                pairs.append(np.sort([order[close], order[close + lag]], axis=0))
    a, b = np.concatenate(pairs, axis=1)
    close = np.abs(xy[a, 0] - xy[b, 0]) <= gap
    into = np.arange(owner.size)
    for j, i in sorted(zip(b[close].tolist(), a[close].tolist())):
        if into[j] == j and into[i] == i:
            into[j] = i
    return into


def _group_roots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """For each point, the index of its group root: taken in order, a point
    joins the first root within MERGE_TOL in both coordinates, or becomes a
    root when there is none."""
    # Exact copies join their first occurrence; the distinct points then
    # merge by ``_first_copies``, in order of first occurrence.
    by_xy = np.lexsort((y, x))
    new = np.ones(x.size, dtype=bool)
    new[1:] = (x[by_xy[1:]] != x[by_xy[:-1]]) | (y[by_xy[1:]] != y[by_xy[:-1]])
    first = np.empty(x.size, dtype=np.intp)
    first[by_xy] = by_xy[new][np.cumsum(new) - 1]  # lexsort is stable
    at = np.flatnonzero(first == np.arange(x.size))
    pts = np.column_stack([x[at], y[at]])
    first[at] = at[_first_copies(pts, np.zeros(at.size, dtype=np.intp), MERGE_TOL)]
    return first[first]


def build_acs(cfg: PupilConfig) -> Acs:
    """Build all n^2 difference disks and merge exactly-concentric contained
    ones (in particular the n diagonal disks collapse to a single
    origin-centered disk of radius 2*max radius).  The union is preserved
    exactly and every pair label maps to the disk that absorbed it.

    The labels (i, j) are taken in row-major order.  Each joins the group
    of the first group root (a label that started a group) whose center is
    within MERGE_TOL of its own in both coordinates, or starts a group."""
    n = cfg.n
    xy, r = cfg.xyr[:, :2], cfg.xyr[:, 2]
    cx = (xy[:, None, 0] - xy[None, :, 0]).ravel()
    cy = (xy[:, None, 1] - xy[None, :, 1]).ravel()
    rad = (r[:, None] + r[None, :]).ravel()
    root = _group_roots(cx, cy)
    # lexsort is stable: within a group, the largest radius, then the
    # smallest label, comes first.
    by_group = np.lexsort((-rad, root))
    starts = np.ones(by_group.size, dtype=bool)
    starts[1:] = root[by_group[1:]] != root[by_group[:-1]]
    is_rep = np.zeros(n * n, dtype=bool)
    is_rep[by_group[starts]] = True
    rep = np.flatnonzero(is_rep)
    disk_of_root = np.empty(n * n, dtype=np.int32)
    disk_of_root[root[rep]] = np.arange(rep.size)
    return Acs(np.column_stack([cx[rep], cy[rep]]), rad[rep], disk_of_root[root].reshape(n, n))
