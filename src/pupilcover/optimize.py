"""Optimizers over pupil configurations.

Two families: fixed centers (iterate per-disk enlargements, then re-solve a
linear or quadratic program over the pupil radii until the summed radii stop
shrinking) and fixed radii (relocate centers by least squares toward the
current witness points).  A grid exhaustive search provides an approximation
baseline with an additive error bound of (pupil count) * (grid step).

Each pass of either family builds one witness analysis of the current
configuration (``coverage.build_analysis``) and reads everything it needs
from it as arrays, together with the trace's coverage flag: the radius
program's rows ``a @ rho >= b``, one per pupil pair (i, j) in row-major
order, taken from ``Analysis.disk_alpha`` through the ACS's pair-to-disk
index ``Acs.pair_disk``, or the relocation rows up to the least-squares
matrix, selected from the same index.  So the fixed-center loops build one
witness table per pass, and their final configuration's flag comes from
``decide``, which builds one only when neither a pupil of radius R/2 nor
the cell pass proves coverage.  ``move_pupils`` with k passes builds k + 1,
one per configuration it visits.
"""

from __future__ import annotations

import math
import numbers
import reprlib
import sys
from dataclasses import dataclass

import numpy as np

from .coverage import DIAMETRAL, Analysis, build_analysis, decide
from .geom import Point, Pupil, PupilConfig
from .solver import LinearProgram, QuadraticProgram, solve_lp, solve_qp


class IterationLimit(Exception):
    """The radius loop hit its iteration budget before converging."""

    def __init__(self, message: str, trace: "OptimizerTrace | None" = None):
        super().__init__(message)
        self.trace = trace


class SearchSpaceTooLarge(Exception):
    """The radius grid has too many points to enumerate."""


#: Largest accepted ``min_radius`` and ``max_radius``.  The radius programs
#: add two radii per row and the traces report pi r^2: both stay finite far
#: beyond it.
_RADIUS_LIMIT = 1e150


@dataclass(frozen=True)
class OptimizerConfig:
    epsilon: float = 1e-7           # radius-sum improvement below this stops the loop
    theta: float = 0.05             # exhaustive-search grid step
    max_iterations: int = 100
    min_radius: float = 0.0
    max_radius: float | None = None
    forbid_overlap: bool = False
    relocation_iterations: int = 25

    def __post_init__(self) -> None:
        for name in ("epsilon", "theta", "min_radius", "max_radius"):
            v = getattr(self, name)
            if name == "max_radius" and v is None:
                continue
            # False for NaN, infinities and integers too large for a float.
            finite = isinstance(v, numbers.Real) and abs(v) <= sys.float_info.max
            if isinstance(v, bool) or not finite:
                raise ValueError(f"{name} must be a finite real number, got {reprlib.repr(v)}")
            if name.endswith("_radius") and not v <= _RADIUS_LIMIT:
                raise ValueError(f"{name} must be at most {_RADIUS_LIMIT:g}, got {v:.6g}")
        for name, least in (("max_iterations", 1), ("relocation_iterations", 0)):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or isinstance(v, bool) or v < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {reprlib.repr(v)}")
        if not isinstance(self.forbid_overlap, bool):
            shown = reprlib.repr(self.forbid_overlap)
            raise ValueError(f"forbid_overlap must be a bool, got {shown}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.theta > 0:
            raise ValueError("theta must be positive")
        if not self.min_radius >= 0:
            raise ValueError("min_radius must be nonnegative")
        if self.max_radius is not None and not self.max_radius >= self.min_radius:
            raise ValueError("max_radius below min_radius")


@dataclass
class TraceEntry:
    sum_of_radii: float
    total_area: float
    covered: bool


@dataclass
class OptimizerTrace:
    iterations: list[TraceEntry]
    final_config: PupilConfig
    warning: str | None = None


def _entry(cfg: PupilConfig, covered: bool) -> TraceEntry:
    radii = cfg.radii
    return TraceEntry(
        sum_of_radii=float(sum(radii)),
        total_area=float(math.pi * sum(r * r for r in radii)),
        covered=covered,
    )


def _radius_constraints(an: Analysis, opts: OptimizerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``a @ rho >= b`` of the radius program over the new radii: every
    pair (i, j) whose disk has witnesses, in row-major order, needs
    rho_i + rho_j >= r_i + r_j + its disk's enlargement; plus the optional
    no-overlap rows -rho_i - rho_j >= -|c_i - c_j| for i < j."""
    cfg = an.cfg
    n = cfg.n
    alpha = an.disk_alpha[an.acs.pair_disk].ravel()
    pair = np.flatnonzero(~np.isnan(alpha))
    i, j = np.divmod(pair, n)
    radii = cfg.xyr[:, 2]
    b = radii[i] + radii[j] + alpha[pair]
    sign = np.ones(pair.size)
    if opts.forbid_overlap:
        oi, oj = np.triu_indices(n, 1)
        centers = cfg.centers
        gaps = [centers[p].distance_to(centers[q]) for p, q in zip(oi.tolist(), oj.tolist())]
        i, j = np.concatenate([i, oi]), np.concatenate([j, oj])
        b = np.concatenate([b, -np.array(gaps, dtype=float)])
        sign = np.concatenate([sign, np.full(oi.size, -1.0)])
    a = np.zeros((b.size, n))
    r = np.arange(b.size)
    a[r, i] += sign
    a[r, j] += sign
    return a, b


def _fixed_center_loop(cfg: PupilConfig, opts: OptimizerConfig, objective: str) -> OptimizerTrace:
    n = cfg.n
    # The programs are solved in units of s, the largest power of two at most
    # max(R, min_radius), the scale of the new radii: the solvers' tolerances
    # are absolute, and a power of two scales every right side exactly.  The
    # upper bound sets no scale; a huge one that never binds would shrink
    # the radii below the tolerances' unit term.
    s = math.ldexp(1.0, math.frexp(max(cfg.objective_radius, opts.min_radius))[1] - 1)
    lb = np.full(n, opts.min_radius / s)
    ub = None if opts.max_radius is None else np.full(n, opts.max_radius / s)
    entries: list[TraceEntry] = []
    current = cfg
    converged = False
    for iteration in range(1, opts.max_iterations + 1):
        an = build_analysis(current)
        entries.append(_entry(current, an.covered))

        a, b = _radius_constraints(an, opts)
        b /= s
        if objective == "sum":
            rho = solve_lp(LinearProgram(np.ones(n), a, b, lb, ub))
        else:
            rho = solve_qp(QuadraticProgram(2.0 * math.pi * np.eye(n), np.zeros(n), a, b, lb, ub))
        # Both sums are taken as ``_entry`` reports them, left to right.
        rho = np.maximum(rho * s, 0.0)
        err = sum(current.radii) - sum(rho.tolist())
        if iteration >= 2 and err < 0.0 and an.covered:
            # The pass would raise the sum of a covering configuration.
            return OptimizerTrace(entries, current)
        current = current.with_radii(rho)
        # The stop test is suppressed on the very first pass so that a
        # non-covering start is first inflated to feasibility.
        if iteration >= 2 and err < opts.epsilon:
            converged = True
            break
    entries.append(_entry(current, decide(current)[0]))
    trace = OptimizerTrace(entries, current)
    if not converged:
        raise IterationLimit(
            f"no convergence within {opts.max_iterations} iterations", trace
        )
    return trace


def minimize_sum_radii(cfg: PupilConfig, opts: OptimizerConfig | None = None) -> OptimizerTrace:
    """Shrink the summed pupil radii, centers fixed, while keeping the
    objective covered.  Each pass recomputes the per-disk enlargements on the
    current radii and re-solves the linear program over the new radii; the
    loop stops once the improvement drops below epsilon (never on the first
    pass), or keeps the current configuration when a later pass would raise
    the sum of a covering one.  The final configuration always covers."""
    return _fixed_center_loop(cfg, opts or OptimizerConfig(), "sum")


def minimize_area(cfg: PupilConfig, opts: OptimizerConfig | None = None) -> OptimizerTrace:
    """Same loop as minimize_sum_radii with the quadratic total-area
    objective pi * sum(rho^2)."""
    return _fixed_center_loop(cfg, opts or OptimizerConfig(), "area")


def relocation_targets(cfg: PupilConfig) -> list[tuple[int, int, Point]]:
    """Rows of the relocation least-squares problem: one (i, j, witness)
    triple per off-diagonal pair label owning the witness.  Labels of merged
    equal-radius disks share the representative's witnesses; strictly smaller
    merged labels have empty cells and contribute nothing."""
    i, j, targets = _relocation_rows(build_analysis(cfg))
    return [(a, b, Point(x, y)) for a, b, (x, y) in zip(i.tolist(), j.tolist(), targets.tolist())]


def _relocation_rows(an: Analysis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``relocation_targets`` of the analysed configuration as arrays: the
    labels i and j and the (rows, 2) witness targets, ordered by disk, then
    label (i, j) in row-major order, then witness."""
    pair_disk = an.acs.pair_disk.ravel()
    radii = an.cfg.xyr[:, 2]
    i, j = np.divmod(np.arange(pair_disk.size), an.cfg.n)
    # The difference of a center with itself carries no gradient.
    keep = (i != j) & (radii[i] + radii[j] >= an.acs.radii[pair_disk] - 1e-12)
    label = np.flatnonzero(keep)[np.argsort(pair_disk[keep], kind="stable")]
    disk, i, j = pair_disk[label], i[label], j[label]
    wit = np.flatnonzero(an.kind != DIAMETRAL)
    owner = an.owner[wit]
    # Each label takes all witnesses of its disk: row r is witness step[r]
    # of the disk of label[r].
    count = np.bincount(owner, minlength=an.acs.size)[disk]
    label = np.repeat(np.arange(disk.size), count)
    step = np.arange(label.size) - np.repeat(np.cumsum(count) - count, count)
    return i[label], j[label], an.xy[wit[np.searchsorted(owner, disk)[label] + step]]


def _solve_relocation(cfg: PupilConfig, rows) -> list[Point]:
    """New centers from the rows (i, j, targets) of ``_relocation_rows``,
    with the centroid pinned: the last center is (sum - others)."""
    i, j, t = rows
    a = np.zeros((i.size, cfg.n))
    r = np.arange(i.size)
    a[r, i] += 1.0
    a[r, j] -= 1.0
    total = cfg.xyr[:, :2].sum(axis=0)
    reduced = a[:, :-1] - a[:, -1:]
    rhs = t - np.outer(a[:, -1], total)
    sol, *_ = np.linalg.lstsq(reduced, rhs, rcond=None)
    new = np.vstack([sol, total - sol.sum(axis=0)])
    return [Point(float(x), float(y)) for x, y in new]


def move_pupils(cfg: PupilConfig, opts: OptimizerConfig | None = None) -> OptimizerTrace:
    """Relocate the pupils, radii fixed, toward positions whose difference
    disks recapture the current witness points: each pass minimizes the
    summed squared distances between center differences and witnesses (a
    convex least squares whose row targets are the witnesses) with the
    centroid pinned, as the objective depends only on center differences.

    Coverage is not guaranteed; the trace records it per pass.  When no pass
    produces an informative row the configuration is returned unchanged with
    a warning."""
    opts = opts or OptimizerConfig()
    current = cfg
    an = build_analysis(current)
    entries = [_entry(current, covered=an.decision()[0])]
    warning = None
    for _ in range(opts.relocation_iterations):
        rows = _relocation_rows(an)
        if rows[0].size == 0:
            warning = "no off-diagonal witness rows; centers left unchanged"
            break
        current = current.with_centers(_solve_relocation(current, rows))
        an = build_analysis(current)
        entries.append(_entry(current, covered=an.decision()[0]))
    return OptimizerTrace(entries, current, warning)


def _compositions(total: int, parts: int, cap: int):
    """Vectors of ``parts`` integers in [0, cap] summing to ``total``, in
    lexicographic order."""
    if parts == 1:
        if 0 <= total <= cap:
            yield (total,)
        return
    for head in range(0, min(cap, total) + 1):
        for rest in _compositions(total - head, parts - 1, cap):
            yield (head,) + rest


def exhaustive_search(centers: list[Point], radius: float,
                      opts: OptimizerConfig | None = None) -> PupilConfig:
    """Smallest-sum covering configuration with radii restricted to integer
    multiples of theta, centers fixed.  Vectors are enumerated in
    nondecreasing-sum order (lexicographic within a sum level, so ties break
    to the lexicographically smallest vector); the first covering one is the
    grid optimum, and the continuous optimum is at least its sum minus
    n * theta."""
    opts = opts or OptimizerConfig()
    n = len(centers)
    if n < 1:
        raise ValueError("need at least one center")
    theta = opts.theta
    # One pupil of radius cap * theta >= radius / 2 covers by itself.  The
    # guard takes log10 of the (cap + 1)^n grid points, so it cannot overflow.
    cap = max(1, math.ceil(min(radius / (2.0 * theta) - 1e-9, sys.float_info.max)))
    digits = n * math.log10(cap + 1)
    if digits > 8.0:
        whole = math.floor(digits)
        raise SearchSpaceTooLarge(
            f"{10.0 ** (digits - whole):.3g}e{whole} grid points exceed the 1e8 enumeration guard"
        )
    for total in range(0, n * cap + 1):
        for multiples in _compositions(total, n, cap):
            cfg = PupilConfig(
                [Pupil(c, m * theta) for c, m in zip(centers, multiples)], radius
            )
            if decide(cfg)[0]:
                return cfg
    raise RuntimeError("grid search exhausted without a cover")  # unreachable: cap covers alone
