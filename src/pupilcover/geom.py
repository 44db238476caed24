"""Planar primitives: points, disks, additive distance, and assembly of the
pairwise difference-disk system (the autocorrelation support, ACS)."""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True, slots=True)
class Pupil:
    """A pupil: one of the small design disks.  Radius zero is legal."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.radius) or self.radius < 0:
            raise ValueError(f"invalid pupil radius {self.radius}")


@dataclass(frozen=True)
class PupilConfig:
    """An ordered pupil set plus the radius of the objective disk.

    The objective is always centered at the origin; configurations with a
    shifted objective are rejected at construction/parse time rather than
    translated silently.
    """

    pupils: tuple[Pupil, ...]
    objective_radius: float

    def __init__(self, pupils, objective_radius: float):
        object.__setattr__(self, "pupils", tuple(pupils))
        object.__setattr__(self, "objective_radius", float(objective_radius))
        if len(self.pupils) < 1:
            raise ValueError("a configuration needs at least one pupil")
        if not math.isfinite(self.objective_radius) or self.objective_radius <= 0:
            raise ValueError(f"objective radius must be positive, got {objective_radius}")

    @property
    def n(self) -> int:
        return len(self.pupils)

    @property
    def radii(self) -> tuple[float, ...]:
        return tuple(p.radius for p in self.pupils)

    @property
    def centers(self) -> tuple[Point, ...]:
        return tuple(p.center for p in self.pupils)

    def with_radii(self, radii) -> "PupilConfig":
        radii = tuple(float(r) for r in radii)
        if len(radii) != self.n:
            raise ValueError("radius count does not match pupil count")
        return PupilConfig(
            [Pupil(p.center, r) for p, r in zip(self.pupils, radii)],
            self.objective_radius,
        )

    def with_centers(self, centers) -> "PupilConfig":
        centers = tuple(centers)
        if len(centers) != self.n:
            raise ValueError("center count does not match pupil count")
        return PupilConfig(
            [Pupil(c, p.radius) for p, c in zip(self.pupils, centers)],
            self.objective_radius,
        )

    def enlarged(self, amount: float) -> "PupilConfig":
        """Return a copy with every pupil radius increased by ``amount``."""
        return self.with_radii(r + amount for r in self.radii)


@dataclass(frozen=True)
class AcsDisk:
    """One deduplicated difference disk P_i (-) P_j.

    ``i``/``j`` label the representative pupil pair; ``merged_from`` lists
    the pairs whose (concentric, no larger) disks were absorbed into this one.
    """

    i: int
    j: int
    center: Point
    radius: float
    merged_from: tuple[tuple[int, int], ...] = ()

    @property
    def label(self) -> tuple[int, int]:
        return (self.i, self.j)

    def labels(self) -> tuple[tuple[int, int], ...]:
        return (self.label,) + self.merged_from


@dataclass(frozen=True)
class Acs:
    """The deduplicated union of all n^2 pairwise difference disks."""

    disks: tuple[AcsDisk, ...]
    n: int

    def __post_init__(self) -> None:
        centers = np.array([[d.center.x, d.center.y] for d in self.disks], dtype=float)
        radii = np.array([d.radius for d in self.disks], dtype=float)
        object.__setattr__(self, "_centers", centers)
        object.__setattr__(self, "_radii", radii)

    @property
    def size(self) -> int:
        return len(self.disks)

    def centers_array(self) -> np.ndarray:
        return self._centers

    def radii_array(self) -> np.ndarray:
        return self._radii

    def origin_index(self) -> int:
        """Index of the origin-centered disk (the merged diagonal); always exists."""
        norms = np.hypot(self._centers[:, 0], self._centers[:, 1])
        k = int(np.argmin(norms))
        return k


def delta(d, x: Point) -> float:
    """Additive distance from ``x`` to a disk: Euclidean distance to the
    center minus the radius.  Negative inside, zero on the boundary."""
    return math.hypot(x.x - d.center.x, x.y - d.center.y) - d.radius


def delta_min(acs: Acs, x: Point) -> tuple[float, int]:
    """Smallest additive distance over all ACS disks and the index of a
    minimizer; ties go to the lowest disk index."""
    c = acs.centers_array()
    vals = np.hypot(c[:, 0] - x.x, c[:, 1] - x.y) - acs.radii_array()
    k = int(np.argmin(vals))
    return float(vals[k]), k


def minkowski_diff(p: Pupil, q: Pupil) -> Disk:
    """Difference disk of two pupils: centered at the center difference,
    radius equal to the radius sum."""
    return Disk(p.center - q.center, p.radius + q.radius)


def build_acs(cfg: PupilConfig) -> Acs:
    """Build all n^2 difference disks and merge exactly-concentric contained
    ones (in particular the n diagonal disks collapse to a single
    origin-centered disk of radius 2*max radius).  The union is preserved
    exactly and the absorbed pair labels are recorded."""
    n = cfg.n
    entries = []  # (i, j, cx, cy, radius)
    for i, p in enumerate(cfg.pupils):
        for j, q in enumerate(cfg.pupils):
            entries.append((i, j, p.center.x - q.center.x, p.center.y - q.center.y,
                            p.radius + q.radius))

    # Spatial hash at a scale much coarser than MERGE_TOL; neighbors checked
    # so near-identical centers cannot straddle a bin edge.
    bin_size = 1e-9
    groups: list[list[tuple[int, int, float, float, float]]] = []
    bins: dict[tuple[int, int], list[int]] = {}
    for e in entries:
        _, _, cx, cy, _ = e
        bx, by = math.floor(cx / bin_size), math.floor(cy / bin_size)
        target = None
        for nb in ((bx + dx, by + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)):
            for gi in bins.get(nb, ()):
                g0 = groups[gi][0]
                if abs(g0[2] - cx) <= MERGE_TOL and abs(g0[3] - cy) <= MERGE_TOL:
                    target = gi
                    break
            if target is not None:
                break
        if target is None:
            groups.append([e])
            bins.setdefault((bx, by), []).append(len(groups) - 1)
        else:
            groups[target].append(e)

    disks = []
    for members in groups:
        rep = max(members, key=lambda e: (e[4], (-e[0], -e[1])))
        merged = tuple(sorted((e[0], e[1]) for e in members if (e[0], e[1]) != (rep[0], rep[1])))
        disks.append(AcsDisk(rep[0], rep[1], Point(rep[2], rep[3]), rep[4], merged))
    disks.sort(key=lambda d: d.label)
    return Acs(tuple(disks), n)
