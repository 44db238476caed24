"""Independent references for the tests.

- The closed-form bisector of two disks: the hyperbola branch (a line for
  equal radii) of points at equal additive distance to both, with the
  additive distance ``delta`` to one disk, the difference disk
  ``minkowski_diff`` of two pupils, and the relocation objective
  ``relocation_objective``.  The package needs none of them: it solves the
  equal-distance points of triples and the rim crossings of pairs from their
  squared equations (``pupilcover.apollonius``), and evaluates distances to
  the difference disks as arrays.  The tests use them to check the engine's
  witnesses and relocation against the geometry they stand for.
- The scalar equal-distance solve of three disks, one triple at a time: a
  closed form in plain floats and a Newton polish with Cramer's rule.  It
  shares only ``TOL`` and the polish's stopping constants with the batched
  triple stage of ``pupilcover.apollonius``, the package's one solver, so
  the tests use it as their reference for that stage and for
  ``tri_disk_vertices``, its one-triple view.
- The scalar corner loop of ``max_objective``: every pair of circles
  intersected in plain floats, and each intersection point below the best
  norm so far tested with ``delta_min`` and ``_exposed``.
- Two-sided bounds on alpha*, the largest minimal additive distance over
  the objective, by Piyavskii-Shubert branch and bound over square cells.
- A two-phase tableau simplex with Bland's rule for LPs, with one slack and
  one artificial column per row and its own certificate from the basis.  It
  shares only the row stacking with ``pupilcover.solver.solve_lp``, the dual
  simplex from the bound vertex, so the tests use it as that solver's
  reference.
- A primal active-set QP solver: a feasible start from a phase-1 LP of the
  tableau ``solve_lp`` inside a box of 1e4 times the largest right side, then
  one working-set change per step.  It shares only the row stacking and the
  KKT certificate with ``pupilcover.solver.solve_qp``, the dual active-set
  method, so the tests use it as that solver's reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pupilcover.apollonius import _FINAL_RESIDUAL, _NEWTON_STEPS, DegenerateTriple
from pupilcover.coverage import NoCoverage, _exposed
from pupilcover.geom import TOL, Acs, Disk, Point, Pupil, PupilConfig, build_acs, delta_min
from pupilcover.solver import (Infeasible, LinearProgram, NumericalError, QuadraticProgram,
                               _certify, _with_bounds)


def delta(d: Disk, x: Point) -> float:
    """Additive distance from ``x`` to a disk: Euclidean distance to the
    center minus the radius.  Negative inside, zero on the boundary."""
    return math.hypot(x.x - d.center.x, x.y - d.center.y) - d.radius


def minkowski_diff(p: Pupil, q: Pupil) -> Disk:
    """Difference disk of two pupils: centered at the center difference,
    radius equal to the radius sum."""
    return Disk(p.center - q.center, p.radius + q.radius)


def relocation_objective(cfg: PupilConfig, rows: list[tuple[int, int, Point]]) -> float:
    """Sum of squared residuals |(c_i - c_j) - witness|^2 for given rows."""
    centers = cfg.centers
    total = 0.0
    for i, j, p in rows:
        dx = centers[i].x - centers[j].x - p.x
        dy = centers[i].y - centers[j].y - p.y
        total += dx * dx + dy * dy
    return total


class ConcentricDisks(ValueError):
    """Raised when a bisector of two concentric disks is requested."""


class EmptyBisector(ValueError):
    """Raised when one disk additively dominates the other, so no point is
    equidistant to both (center distance <= radius difference)."""


@dataclass(frozen=True)
class Bisector:
    """One branch of the equal-additive-distance locus of two disks.

    In the canonical frame the disk centers sit at (-c, 0) and (+c, 0) with
    c = half the center distance.  For distinct radii the locus is the
    hyperbola branch x^2/a^2 - y^2/(c^2 - a^2) = 1 with semi-axis
    a = |radius difference| / 2, bent around the smaller disk; for equal
    radii it degenerates to the perpendicular bisector line (a = 0).
    """

    semi_axis: float            # a
    focal_half_distance: float  # c
    eccentricity: float | None  # c / a, None for the line case
    mid: Point                  # frame origin (midpoint of the centers)
    axis: tuple[float, float]   # unit vector from the first center toward the second
    branch_sign: int            # -1: branch on the first disk's side, +1: on the second's

    @property
    def is_line(self) -> bool:
        return self.semi_axis == 0.0

    def point(self, t: float) -> Point:
        """Point on the branch at parameter ``t``; t = 0 is the apex (the
        point of minimal additive distance on the bisector) and the map is
        continuous and injective in t."""
        ux, uy = self.axis
        vx, vy = -uy, ux
        if self.is_line:
            return Point(self.mid.x + t * vx, self.mid.y + t * vy)
        a = self.semi_axis
        b = math.sqrt(self.focal_half_distance**2 - a**2)
        cx = self.branch_sign * a * math.cosh(t)
        cy = b * math.sinh(t)
        return Point(self.mid.x + cx * ux + cy * vx, self.mid.y + cx * uy + cy * vy)

    def abscissa(self, t: float) -> float:
        """Canonical-frame x coordinate of ``point(t)``."""
        if self.is_line:
            return 0.0
        return self.branch_sign * self.semi_axis * math.cosh(t)


def bisector(d1: Disk, d2: Disk) -> Bisector:
    """Bisector of two disks (a hyperbola branch, or a line for equal radii).
    Raises ConcentricDisks for centers within ``TOL`` and EmptyBisector when
    one disk additively dominates the other."""
    ax, ay, ra = d1.center.x, d1.center.y, d1.radius
    bx, by, rb = d2.center.x, d2.center.y, d2.radius
    dx, dy = bx - ax, by - ay
    dist = math.hypot(dx, dy)
    if dist <= TOL:
        raise ConcentricDisks("the disks are concentric")
    semi = abs(rb - ra) / 2.0
    half = dist / 2.0
    if semi >= half:
        raise EmptyBisector("the disks have no equidistant point")
    mid = Point((ax + bx) / 2.0, (ay + by) / 2.0)
    axis = (dx / dist, dy / dist)
    if ra == rb:
        return Bisector(0.0, half, None, mid, axis, -1)
    sign = -1 if ra < rb else 1
    return Bisector(semi, half, half / semi, mid, axis, sign)


def _polish_vertex(x: float, y: float, r: float, cs, rs) -> tuple[float, float, float] | None:
    """Newton-refine an equal-distance candidate to residual <= 1e-12 on
    |x - c_k| - rho_k - r = 0 for all three disks.  Returns None when the
    iteration cannot converge (spurious root of the squared system)."""
    for _ in range(_NEWTON_STEPS):
        ds = [math.hypot(x - c[0], y - c[1]) for c in cs]
        if min(ds) <= 1e-12:
            return None
        f = [ds[k] - rs[k] - r for k in range(3)]
        res = max(abs(v) for v in f)
        if res <= 1e-13:
            break
        # Rows of the Jacobian: (unit vector from center, -1).
        j = [((x - cs[k][0]) / ds[k], (y - cs[k][1]) / ds[k], -1.0) for k in range(3)]
        det = (
            j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1])
            - j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0])
            + j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0])
        )
        if abs(det) <= 1e-14:
            return None
        # Cramer solve of J * step = f.
        def rep(col: int) -> float:
            m = [list(j[0]), list(j[1]), list(j[2])]
            for row in range(3):
                m[row][col] = f[row]
            return (
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            )

        sx, sy, sr = rep(0) / det, rep(1) / det, rep(2) / det
        x, y, r = x - sx, y - sy, r - sr
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(r)):
            return None
    ds = [math.hypot(x - c[0], y - c[1]) for c in cs]
    if max(abs(ds[k] - rs[k] - r) for k in range(3)) > _FINAL_RESIDUAL:
        return None
    return x, y, r


def tri_disk_vertices(d1: Disk, d2: Disk, d3: Disk) -> list[tuple[Point, float]]:
    """All points at equal additive distance r to three disks, with that
    common value (r may be negative when the point lies inside the disks).

    Subtracting the squared distance equations pairwise leaves two linear
    equations in (x, y, r); the solution line is parametrized and substituted
    into one quadratic, and each real root is Newton-polished.  Returns 0, 1
    or 2 solutions; raises DegenerateTriple when no isolated solution exists.
    """
    cs = [(d.center.x, d.center.y) for d in (d1, d2, d3)]
    rs = [d.radius for d in (d1, d2, d3)]
    for a, b in ((0, 1), (0, 2), (1, 2)):
        if math.hypot(cs[a][0] - cs[b][0], cs[a][1] - cs[b][1]) <= TOL:
            raise DegenerateTriple("two of the disks are concentric")

    g = [cs[k][0] ** 2 + cs[k][1] ** 2 - rs[k] ** 2 for k in range(3)]
    a1 = (2.0 * (cs[1][0] - cs[0][0]), 2.0 * (cs[1][1] - cs[0][1]), 2.0 * (rs[1] - rs[0]))
    a2 = (2.0 * (cs[2][0] - cs[0][0]), 2.0 * (cs[2][1] - cs[0][1]), 2.0 * (rs[2] - rs[0]))
    b1, b2 = g[1] - g[0], g[2] - g[0]

    # Null direction of the 2x3 system via the cross product of its rows.
    nx = a1[1] * a2[2] - a1[2] * a2[1]
    ny = a1[2] * a2[0] - a1[0] * a2[2]
    nz = a1[0] * a2[1] - a1[1] * a2[0]
    norm1 = math.sqrt(a1[0] ** 2 + a1[1] ** 2 + a1[2] ** 2)
    norm2 = math.sqrt(a2[0] ** 2 + a2[1] ** 2 + a2[2] ** 2)
    if math.sqrt(nx * nx + ny * ny + nz * nz) <= 1e-10 * norm1 * norm2:
        raise DegenerateTriple("rank-deficient equal-distance system")

    # Particular solution: pin the unknown matching the largest null component
    # (its 2x2 minor is the best conditioned).
    ax, ay, az = abs(nx), abs(ny), abs(nz)
    if az >= ax and az >= ay:
        p0 = ((b1 * a2[1] - b2 * a1[1]) / nz, (a1[0] * b2 - a2[0] * b1) / nz, 0.0)
    elif ay >= ax:
        det = -ny
        p0 = ((b1 * a2[2] - b2 * a1[2]) / det, 0.0, (a1[0] * b2 - a2[0] * b1) / det)
    else:
        p0 = (0.0, (b1 * a2[2] - b2 * a1[2]) / nx, (a1[1] * b2 - a2[1] * b1) / nx)

    # Substitute the line p0 + lam*n into |p - c1|^2 = (rho1 + r)^2.
    dx, dy = p0[0] - cs[0][0], p0[1] - cs[0][1]
    rr = rs[0] + p0[2]
    qa = nx * nx + ny * ny - nz * nz
    qb = 2.0 * (dx * nx + dy * ny - rr * nz)
    qc = dx * dx + dy * dy - rr * rr

    lams: list[float] = []
    scale = abs(qb) + abs(qc) + 1.0
    if abs(qa) <= 1e-14 * scale:
        if abs(qb) > 1e-14 * scale:
            lams.append(-qc / qb)
    else:
        disc = qb * qb - 4.0 * qa * qc
        if disc >= -1e-12 * scale * scale:
            sq = math.sqrt(max(disc, 0.0))
            lams.extend(((-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)))

    out: list[tuple[Point, float]] = []
    for lam in lams:
        seed = (p0[0] + lam * nx, p0[1] + lam * ny, p0[2] + lam * nz)
        polished = _polish_vertex(*seed, cs, rs)
        if polished is None:
            continue
        x, y, r = polished
        if any(abs(x - ox) <= 1e-9 and abs(y - oy) <= 1e-9 and abs(r - orr) <= 1e-9
               for (ox, oy), orr in [((p.x, p.y), pr) for p, pr in out]):
            continue
        out.append((Point(x, y), r))
    out.sort(key=lambda pr: (pr[1], pr[0].x, pr[0].y))
    return out


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


def alpha_star_bounds(cfg: PupilConfig, width: float) -> tuple[float, float]:
    """An interval [lb, ub] of width at most ``width`` that holds alpha*, the
    largest value over the objective |x| <= R of F(x) = min_k delta_k(x),
    by Piyavskii-Shubert branch and bound (Piyavskii 1972; Shubert, SIAM J.
    Numer. Anal. 1972) over square cells, starting from [-R, R]^2.

    The lower bound is the largest F at a cell center pulled onto the
    objective.  Over a cell meeting the objective, delta_k is at most the
    distance from c_k to the cell's farthest corner, and at most |c_k| + R,
    minus rho_k; F is at most the smallest of these.  A cell whose bound is
    within ``width`` of the lower bound so far is settled, the others split
    into four.  The cap |c_k| + R is exact on the rim arcs where an
    origin-centered disk is the minimum, which have constant F."""
    acs = build_acs(cfg)
    radius = cfg.objective_radius
    cx, cy, rho = acs.centers[:, 0], acs.centers[:, 1], acs.radii
    cap = np.hypot(cx, cy) + radius - rho
    qx, qy, half = np.zeros(1), np.zeros(1), radius
    lb = ub = -math.inf
    while qx.size:
        norm = np.hypot(qx, qy)
        pull = np.minimum(1.0, radius / np.maximum(norm, 1e-300))
        px, py = qx * pull, qy * pull
        low = np.empty(qx.size)
        bound = np.empty(qx.size)
        for s in range(0, qx.size, 512):
            c = slice(s, s + 512)
            low[c] = (np.hypot(px[c, None] - cx, py[c, None] - cy) - rho).min(axis=1)
            far = np.hypot(np.abs(qx[c, None] - cx) + half, np.abs(qy[c, None] - cy) + half) - rho
            bound[c] = np.minimum(far, cap).min(axis=1)
        lb = max(lb, float(low.max()))
        gap = np.hypot(np.maximum(np.abs(qx) - half, 0.0), np.maximum(np.abs(qy) - half, 0.0))
        bound[gap > radius] = -math.inf
        settle = bound <= lb + width
        ub = max(ub, float(bound[settle].max(initial=-math.inf)))
        split = ~settle
        half /= 2.0
        qx = (qx[split, None] + half * np.array([-1.0, 1.0, -1.0, 1.0])).ravel()
        qy = (qy[split, None] + half * np.array([-1.0, -1.0, 1.0, 1.0])).ravel()
    return lb, max(lb, ub)


_PIVOT_TOL = 1e-11
_COST_TOL = 1e-9


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: list[int], allowed: int) -> None:
    """Bland's rule iterations on the last (cost) row; columns >= ``allowed``
    never enter.  A failed ratio test would mean an unbounded program, which
    ``LinearProgram`` rules out."""
    m = tableau.shape[0] - 1
    for _ in range(20000):
        improving = np.flatnonzero(tableau[-1, :allowed] < -_COST_TOL)
        if improving.size == 0:
            return
        entering = int(improving[0])
        rows = np.flatnonzero(tableau[:m, entering] > _PIVOT_TOL)
        ratios = tableau[rows, -1] / tableau[rows, entering]
        best_ratio = math.inf
        leaving = -1
        for r, ratio in zip(rows.tolist(), ratios.tolist()):
            tie = 1e-12 * (1.0 + abs(best_ratio) if math.isfinite(best_ratio) else 1.0)
            if ratio < best_ratio - tie or (
                abs(ratio - best_ratio) <= tie and (leaving < 0 or basis[r] < basis[leaving])
            ):
                best_ratio = ratio
                leaving = r
        if leaving < 0:
            raise NumericalError("no ratio limit for an improving direction")
        _pivot(tableau, basis, leaving, entering)
    raise NumericalError("simplex iteration limit exceeded")


def _simplex_standard(cost: np.ndarray, eq: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """min cost @ z  s.t.  eq @ z = rhs, z >= 0 (rhs is made nonnegative by
    row sign flips).  Two phases with artificial variables."""
    m, nv = eq.shape
    eq = eq.copy()
    rhs = rhs.copy()
    flip = rhs < 0
    eq[flip] *= -1.0
    rhs[flip] *= -1.0

    total = nv + m
    tableau = np.zeros((m + 1, total + 1))
    tableau[:m, :nv] = eq
    tableau[:m, nv:total] = np.eye(m)
    tableau[:m, -1] = rhs
    basis = list(range(nv, total))
    # Phase-1 reduced costs for min(sum of artificials).
    tableau[-1, :] = 0.0
    tableau[-1, :nv] = -eq.sum(axis=0)
    tableau[-1, -1] = -rhs.sum()
    _run_simplex(tableau, basis, allowed=nv)
    if -tableau[-1, -1] > 1e-9 * max(1.0, float(np.abs(rhs).max(initial=0.0))):
        raise Infeasible("phase-1 optimum is positive")

    # Drive leftover artificials out of the basis, each on its first real
    # column with a usable pivot.  ``solve_lp`` gives every row its own slack
    # column, so a row without one is a numerical failure, not a redundancy.
    for r in np.flatnonzero(np.array(basis) >= nv).tolist():
        piv = np.flatnonzero(np.abs(tableau[r, :nv]) > _PIVOT_TOL)
        if piv.size == 0:
            raise NumericalError("no real column can replace a zero artificial")
        _pivot(tableau, basis, r, int(piv[0]))

    # Phase 2 on the real objective.  The basic columns are unit columns, so
    # a row's update leaves the costs of the other basic columns unchanged.
    tableau[-1, :] = 0.0
    tableau[-1, :nv] = cost
    for r in np.flatnonzero(tableau[-1, basis]).tolist():
        tableau[-1] -= tableau[-1, basis[r]] * tableau[r]
    _run_simplex(tableau, basis, allowed=nv)

    z = np.zeros(tableau.shape[1] - 1)
    z[basis] = tableau[:m, -1]
    return z[:nv], basis


def solve_lp(lp: LinearProgram) -> np.ndarray:
    """Optimal vertex of the linear program by a two-phase tableau simplex
    with Bland's rule, over the variables shifted to y = x - lower_bounds and
    one slack and one artificial column per row.  The result is certified
    from its basis: primal feasibility, nonnegative reduced costs,
    complementary slackness and a closed duality gap."""
    n = lp.objective.shape[0]
    # All rows in 'rows @ y >= rhs' form over the shifted variable y = x - lb.
    lb, ub = lp.lower_bounds, lp.upper_bounds
    rows, rhs = _with_bounds(lp.a, lp.b - lp.a @ lb, None, None if ub is None else ub - lb)
    m = rows.shape[0]
    # Standard form: rows @ y - s = rhs with y, s >= 0.
    eq = np.hstack([rows, -np.eye(m)])
    cost = np.concatenate([lp.objective, np.zeros(m)])
    z, basis = _simplex_standard(cost, eq, rhs)
    y = z[:n]
    x = y + lp.lower_bounds

    _certify_lp(lp, x, cost, eq, rhs, z, basis)
    return x


def _certify_lp(lp, x, cost, eq, rhs, z, basis) -> None:
    scale = 1.0 + float(np.abs(x).max(initial=0.0)) + float(np.abs(lp.objective).max(initial=0.0))
    if np.any(lp.a @ x < lp.b - 1e-9 * scale):
        raise NumericalError("primal constraint violated beyond tolerance")
    if np.any(x < lp.lower_bounds - 1e-9 * scale):
        raise NumericalError("lower bound violated beyond tolerance")
    if lp.upper_bounds is not None and np.any(x > lp.upper_bounds + 1e-9 * scale):
        raise NumericalError("upper bound violated beyond tolerance")
    m, total = eq.shape
    if m == 0:
        return
    cols = eq[:, basis]
    try:
        duals = np.linalg.solve(cols.T, cost[basis])
    except np.linalg.LinAlgError:
        duals, *_ = np.linalg.lstsq(cols.T, cost[basis], rcond=None)
    reduced = cost[:total] - eq.T @ duals
    if reduced.min(initial=0.0) < -1e-7 * scale:
        raise NumericalError("negative reduced cost at claimed optimum")
    # Complementary slackness: every positive variable has zero reduced cost.
    if np.abs(reduced[np.flatnonzero(z[:total] > 1e-9)]).max(initial=0.0) > 1e-7 * scale:
        raise NumericalError("complementary slackness violated")
    gap = abs(float(cost[:total] @ z[:total]) - float(duals @ rhs))
    if gap > 1e-7 * scale * max(1.0, float(np.abs(rhs).max(initial=0.0))):
        raise NumericalError("duality gap not closed")


def _qp_feasible_start(rows: np.ndarray, rhs: np.ndarray, n: int) -> np.ndarray:
    # Synthetic box keeps phase 1 bounded; sized from the data so the tableau
    # stays well scaled, and generous enough to never bind at the optimum.
    box = 1e4 * max(1.0, float(np.abs(rhs).max(initial=0.0)))
    return solve_lp(LinearProgram(np.zeros(n), rows, rhs, np.full(n, -box), np.full(n, box)))


def solve_qp(qp: QuadraticProgram) -> np.ndarray:
    """Minimizer of a convex QP by a primal active-set method from the
    phase-1 start; the unconstrained case solves the normal equations
    directly.  The returned point satisfies the KKT conditions to 1e-8."""
    n = qp.c.shape[0]
    rows, rhs = _with_bounds(qp.a, qp.b, qp.lower_bounds, qp.upper_bounds)
    m = rows.shape[0]
    if m == 0:
        try:
            x = np.linalg.solve(qp.Q, -qp.c)
        except np.linalg.LinAlgError:
            x, *_ = np.linalg.lstsq(qp.Q, -qp.c, rcond=None)
        _certify(qp.c, rows, rhs, x, np.zeros(0), [], qp.Q @ x)
        return x

    x = _qp_feasible_start(rows, rhs, n)
    # The rows active at the start, kept linearly independent.
    working: list[int] = []
    for k in np.flatnonzero(np.abs(rows @ x - rhs) <= 1e-9).tolist():
        if np.linalg.matrix_rank(rows[working + [k]], tol=1e-10) == len(working) + 1:
            working.append(k)

    lam = np.zeros(len(working))
    for _ in range(100 * (m + 2)):
        g = qp.Q @ x + qp.c
        k = len(working)
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = qp.Q
        if k:
            aw = rows[working]
            kkt[:n, n:] = aw.T
            kkt[n:, :n] = aw
        rhs_vec = np.concatenate([-g, np.zeros(k)])
        try:
            sol = np.linalg.solve(kkt, rhs_vec)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(kkt, rhs_vec, rcond=None)
        d = sol[:n]
        # Stationarity is Q(x+d) + c - A_W^T lam = 0; the symmetric KKT block
        # [[Q, A_W^T], [A_W, 0]] therefore returns the negated multipliers.
        lam = -sol[n:]
        if np.abs(d).max(initial=0.0) <= 1e-11:
            if k == 0 or lam.min(initial=0.0) >= -1e-9:
                _certify(qp.c, rows, rhs, x, lam, working, qp.Q @ x)
                return x
            drop = int(np.argmin(lam))
            working.pop(drop)
            continue
        ad = rows @ d
        ad[working] = 0.0
        ahead = np.flatnonzero(ad < -1e-12)
        limits = (rows[ahead] @ x - rhs[ahead]) / -ad[ahead]
        step = 1.0
        blocking = -1
        for r, limit_r in zip(ahead.tolist(), limits.tolist()):
            if limit_r < step - 1e-14:
                step = max(limit_r, 0.0)
                blocking = r
        x = x + step * d
        if blocking >= 0 and step < 1.0:
            working.append(blocking)
    raise NumericalError("active-set iteration limit exceeded")
