"""Additively weighted proximity structure over the ACS disks.

Only what the covering algorithms need is built: the witness table, as
arrays of points, owning disks, kind codes and values (``_witness_table``).
Its rows are the paper's finite witness set, all three kinds: the points
inside the objective at equal additive distance to three disks, the points
of the rim at equal distance to two, each where its disks attain the
minimum, and the rim point diametrically opposite a disk's center where the
disk attains it.  One copy rule (``geom._first_copies``) drops the rows
within 1e-8 of an earlier row of their owner, and each row carries its
additive distance to its owner, which ``coverage`` reads.  No bisector is
built: a triple's points come in closed form from its squared equations,
and a pair's rim crossings are the unit roots of one quartic.

The table is built in batched numpy stages.  A cell mask first keeps only
the disks that can attain the minimum over the objective (``_live_disks``):
disks strictly inside another are dropped, and a grid of cells over the
objective keeps a disk only if, at some cell center, it is within twice the
cell half-diagonal (plus the ownership slack) of the minimum there.
Additive distance is 1-Lipschitz, so the mask changes no witness.  The
triple stage enumerates the triples of masked disks whose three pairs have a
bisector, as index columns in lexicographic order, with no Python loop per
disk: the pair mask is cut into blocks of rows, and one ``np.argwhere`` of a
block's boolean cube gives its triples (``_triples``).  It runs each chunk
of them through a pipeline: closed-form seeds from the equal-distance line
and quadratic (``_line_roots``), of which ``_seeds`` keeps, by one gather of
each root's three disks, only the roots of the squared system tangent to
all three disks the right way (rho_k + r = +|x - c_k|, not -|x - c_k|;
Emiris & Karavelas, "The predicates of the Apollonius diagram", CGTA 2006),
whose temporaries are freed before a Newton polish that gathers the disks
of its still-moving candidates by index at every step and stops beyond the
objective at a residual relative to the root's norm (``_polish``), then a
running global-minimum test over the masked disks.  Every stage is
elementwise per triple or per candidate and keeps the candidate order, so
neither the chunk size nor the block size changes a bit of the table.  The
rim stage is exact: a coarse angle grid drops, by the same Lipschitz bound,
the pairs whose disks never both come near the minimum at one sample, and
every other pair's crossings are the unit roots of one quartic (a quadratic
for equal radii), solved in closed form for all pairs at once and
Newton-polished.  The triple chunks and the point-by-disk tests
(containment, mask, ownership) each hold a bounded number of floats, and so
does a block of the triple enumeration unless it is a single row.  The one
m x m array left is ``pair_ok`` over the m masked disks, and the rim stage
holds arrays over its pairs, so memory grows as m^2 and the work as m^3 in
the masked disk count.

The worst witness alone, a row of largest additive distance, needs only the
disks near the maximum.  The cell pass ``_peak_cells`` starts from the mask's
grid over the masked disks and the minimum F that the mask took at every
cell center, drops the cells whose Lipschitz bound F(center) + half-diagonal
falls short of the best center inside the objective by more than the
ownership and polish tolerances plus a band, and splits the rest into four,
evaluating F at the new centers, three times.  The disks within twice the
last half-diagonal (plus slack and band) of the minimum at a kept center are
the ones ``_witness_table`` then runs on: in the kept cells its rows are
those of the full table, so the rows of largest value are too, and the work
follows the kept disks.  The largest bound of a level holds F over the whole
objective, so once it lies below minus those tolerances the pass can stop
and report coverage, with no witness table at all.  ``vertex_sets`` is a
per-disk view of the table.  The triple stage is the package's one
equal-distance solver: ``tri_disk_vertices`` is its view of a single triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .geom import TOL, Acs, Disk, Point, _first_copies, delta_min

WitnessKind = Literal["interior_vertex", "boundary_crossing"]

#: Kind codes of the witness table, and the ``WitnessKind`` of the first
#: two; ``vertex_sets`` leaves out the diametral fallbacks.
INTERIOR_VERTEX, BOUNDARY_CROSSING, DIAMETRAL = 0, 1, 2
_KIND_NAMES: tuple[WitnessKind, ...] = ("interior_vertex", "boundary_crossing")

# Chunk sizes of the batched witness construction, in triples and in
# point-by-disk (or disk-by-disk) cells.  The cells hold one float each, so
# a cell chunk's arrays stay under 32 KB; ``_triples`` sizes its row blocks
# from the same count.  A triple chunk's arrays hold a few floats per
# candidate (at most two per triple); at 512 triples the traced peak of a
# whole analysis is about 350 KB on an n = 9 design (430 KB at 256 before
# the seeds and the polish were split), and each numpy call of the seeds and
# of a Newton step serves twice the triples it did at 256.
_TRIPLE_CHUNK = 512
_OWNER_CELLS = 4096

# Stopping rules of the Newton polish of the vertices.
_NEWTON_STEPS = 40
_FINAL_RESIDUAL = 1e-9

# Slack of the disk masks: the ownership tolerance and the polish residual,
# twice each.
_SLACK = 4.0 * TOL + 2.0 * _FINAL_RESIDUAL

# Cell pass of the worst witness (``_peak_cells``): four-way splits after the
# first grid, the quadrant offsets of a split, and the band by which a cell's
# bound may fall short of the best center's value and the cell still stay.
_PEAK_LEVELS = 3
_SPLIT = np.array([[0, 1, 0, 1], [0, 0, 1, 1]])
_PEAK_BAND = 1e-7

# Rim crossings: samples of the pair pre-prune, the band about the unit
# circle of candidate roots, Newton steps, and the residual kept (times
# max(1, radius)).
_RIM_SAMPLES = 256
_ON_CIRCLE = 1e-4
_RIM_NEWTON = 3
_RIM_RESIDUAL = 1e-12
_CUBE_UNITS = np.exp(2j * np.pi / 3.0 * np.arange(3))
_SIGNS = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])[:, :, None]


class DegenerateTriple(ValueError):
    """Raised when three disks admit no isolated equal-distance point
    (e.g. equal radii with collinear centers)."""


def _check_radius(radius: float) -> None:
    """Raise ValueError unless the objective radius is finite and positive."""
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius}")


def is_global_vertex(acs: Acs, x: Point, r: float) -> bool:
    """True when no disk of the ACS is strictly closer to ``x`` than the
    claimed common distance ``r`` (tolerance-inclusive)."""
    return delta_min(acs, x)[0] >= r - TOL


def _grid(m: int, radius: float):
    """The cell grid of ``_live_disks`` for m disks: G x G cells, G = max(16,
    ceil(2 sqrt(m))), over the square [-reach, reach]^2, reach = radius +
    TOL.  Returns reach, G, the cell step, and the integer coordinates of
    the cells whose centers lie within reach plus the cell half-diagonal of
    the origin."""
    reach = radius + TOL
    cells = max(16, math.ceil(2.0 * math.sqrt(m)))
    step = 2.0 * reach / cells
    ix, iy = np.meshgrid(np.arange(cells), np.arange(cells), indexing="ij")
    qx, qy = _cell_centers(ix, iy, reach, step)
    cell = np.hypot(qx, qy) <= reach + step / math.sqrt(2.0)
    return reach, cells, step, ix[cell], iy[cell]


def _cell_centers(ix: np.ndarray, iy: np.ndarray, reach: float, step: float):
    """Centers of the cells (ix, iy) of a grid of step ``step`` whose first
    cell has its corner at (-reach, -reach)."""
    return -reach + step * (ix + 0.5), -reach + step * (iy + 0.5)


def _near_disks(px: np.ndarray, py: np.ndarray, cx: np.ndarray, cy: np.ndarray,
                rho: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the disks within ``tol`` of the smallest additive distance at
    one or more of the points, and that smallest distance at each point."""
    near = np.zeros(cx.size, dtype=bool)
    low = np.empty(px.size)
    for s, d in _distances(px, py, cx, cy, rho):
        m = d.min(axis=1, keepdims=True)
        near |= (d <= m + tol).any(axis=0)
        low[s:s + m.size] = m[:, 0]
    return near, low


def _live_disks(centers: np.ndarray, radii: np.ndarray,
                radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the disks that can attain the minimal additive distance
    (within ``TOL``) somewhere within radius + TOL of the origin, ascending,
    and the minimal additive distance over them at the centers of the cells
    of ``_grid``, in the grid's order.

    The slack below covers the ownership tolerance and the polish residual,
    so that no witness, owner or value changes.  Disks strictly inside
    another (by the slack) are dropped first; they are never the minimum.
    The rest pass a cell mask over the cells of ``_grid``: a disk stays if
    at some cell center it is within 2h + slack of the minimum, h the cell
    half-diagonal.  Additive distances are 1-Lipschitz, so a disk within the
    slack of the minimum anywhere in a cell passes at the cell's center.
    The minimum over the candidates at a center is that over the kept disks,
    since the disk attaining it is kept."""
    m = radii.size
    cx, cy = centers[:, 0], centers[:, 1]
    # Disk i lies inside disk j when |c_i - c_j| - rho_j < -rho_i.
    inside = np.zeros(m, dtype=bool)
    for s, d in _distances(cx, cy, cx, cy, radii):
        inside[s:s + len(d)] = (d < -radii[s:s + len(d), None] - _SLACK).any(axis=1)
    cand = np.flatnonzero(~inside)

    reach, _, step, ix, iy = _grid(m, radius)
    qx, qy = _cell_centers(ix, iy, reach, step)
    near, low = _near_disks(qx, qy, cx[cand], cy[cand], radii[cand],
                            2.0 * (step / math.sqrt(2.0)) + _SLACK)
    return cand[near], low


def _peak_cells(centers: np.ndarray, radii: np.ndarray, radius: float,
                stop_if_covered: bool = False):
    """The cell pass of the worst witness: the disks that can own a witness
    of largest additive distance, and a test for the points of the cells
    that can hold one; or, with ``stop_if_covered``, None as soon as the
    cells prove every witness value negative.

    F(x) = min_k delta_k(x) is 1-Lipschitz, so over a cell with center q and
    half-diagonal h it stays below F(q) + h.  Starting from the cells of
    ``_grid`` over the disks of ``_live_disks``, each pass evaluates F at
    the cell centers (the first pass reads the mask's minima there), takes
    the largest value L at a center within the objective, drops the cells
    with F(q) + h below L - (TOL + 2 ``_FINAL_RESIDUAL`` + ``_PEAK_BAND``)
    and those that miss the disk of radius + TOL, where every witness lies,
    and splits every kept cell into four, for ``_PEAK_LEVELS`` splits.  A
    witness row's value is within TOL of F at its point, and the polish
    moves it by far less than the band, so every row of largest value lies,
    with all points within the band of it, in a kept cell of the last
    grid.  The disks kept are those within 2h + slack + 2 band of the minimum
    at some kept center: in and near a kept cell they hold the minimizing
    disk and every disk within the ownership slack of it, so the witness
    table built on them has there the rows of the table built on all disks,
    bit for bit.

    The largest bound max(F(q) + h) over the cells within reach at a level
    bounds F over the disk of radius + TOL.  A dropped cell fell short of
    the best center of its level by the margin.  The best center of all
    levels so far lies at a corner of one cell of each later level, whose
    bound is at least its value, so that cell is kept and the largest bound
    at that level is at least the value of every earlier best center.  Every
    witness row's value is at most F at its point plus TOL, so a level whose
    bound lies below -margin proves coverage, and ``stop_if_covered`` then
    returns None without further levels.

    Returns the kept disks' indices, ascending, and a function that maps
    points (k, 2) to the mask of those in a kept cell (by an integer cell
    lookup, with 1e-12 of play at the cell edges)."""
    live, f = _live_disks(centers, radii, radius)
    cx, cy, rho = centers[live, 0], centers[live, 1], radii[live]
    reach, cells, step, ix, iy = _grid(radii.size, radius)
    cells <<= _PEAK_LEVELS
    margin = TOL + 2.0 * _FINAL_RESIDUAL + _PEAK_BAND
    for level in range(_PEAK_LEVELS + 1):
        if level:
            ix = (2 * ix[:, None] + _SPLIT[0]).ravel()
            iy = (2 * iy[:, None] + _SPLIT[1]).ravel()
            step /= 2.0
        qx, qy = _cell_centers(ix, iy, reach, step)
        if level:
            f = np.concatenate([d.min(axis=1) for _, d in _distances(qx, qy, cx, cy, rho)])
        norm, half = np.hypot(qx, qy), step / math.sqrt(2.0)
        within = norm <= reach + half
        if stop_if_covered and f[within].max(initial=-math.inf) + half < -margin:
            return None
        top = f[norm <= radius].max(initial=-math.inf)
        keep = (f + half >= top - margin) & within
        ix, iy, qx, qy = ix[keep], iy[keep], qx[keep], qy[keep]
    near = _near_disks(qx, qy, cx, cy, rho, 2.0 * half + _SLACK + 2.0 * _PEAK_BAND)[0]

    def in_kept(xy: np.ndarray) -> np.ndarray:
        # Made here, after the witness table, so as not to add to its peak.
        kept = np.zeros((cells, cells), dtype=bool)
        kept[ix, iy] = True
        hit = np.zeros(len(xy), dtype=bool)
        for ex in (-1e-12, 1e-12):
            i = np.clip(((xy[:, 0] + ex + reach) / step).astype(np.intp), 0, cells - 1)
            for ey in (-1e-12, 1e-12):
                hit |= kept[i, np.clip(((xy[:, 1] + ey + reach) / step).astype(np.intp), 0, cells - 1)]
        return hit

    return live[near], in_kept


def _triples(ok: np.ndarray):
    """Index columns (i, j, k), i < j < k, of every triple whose three pairs
    are ``ok``, in lexicographic order, as (3, triples) arrays of
    _TRIPLE_CHUNK columns (the last may be shorter).

    With upper = triu(ok, 1), (i, j, k) is a triple where upper[i, j],
    upper[i, k] and upper[j, k] all hold.  A block of rows s <= i < e is one
    boolean cube over (i, j, k) with j, k > s, and one ``np.argwhere`` of it
    gives its triples in C order, which is the lexicographic order.  A cube
    yields at most one triple per cell, three integers each, so a block
    takes as many rows as keep it within ``_OWNER_CELLS`` // 3 cells: its
    index columns then hold at most ``_OWNER_CELLS`` integers.  A block
    holds at least one row, whose cube is (m - s - 1)^2 cells."""
    upper = np.triu(ok, 1)
    m = upper.shape[0]
    cells = _OWNER_CELLS // 3
    parts: list[np.ndarray] = []
    held = s = 0
    while s < m - 2:
        e = min(m - 2, s + max(1, cells // (m - s - 1) ** 2))
        u = upper[s:e, s + 1:]
        found = np.argwhere(u[:, :, None] & u[:, None, :] & upper[None, s + 1:, s + 1:]).T
        found[0] += s
        found[1:] += s + 1
        s = e
        parts.append(found)
        held += found.shape[1]
        if held < _TRIPLE_CHUNK:
            continue
        block = np.concatenate(parts, axis=1)
        end = held - held % _TRIPLE_CHUNK
        parts, held = [block[:, end:].copy()], held - end
        for c in range(0, end, _TRIPLE_CHUNK):
            yield block[:, c:c + _TRIPLE_CHUNK]
    if held:
        yield np.concatenate(parts, axis=1)


def _null_lines(c):
    """The solution lines p0 + lam n of the two linear equations that the
    pairwise differences of the squared equal-distance equations leave, for
    the triples of disks ``c`` (3, 3, triples): x, y and radius rows by triple
    member.  Returns p0 and n, (3, triples) rows x, y, r, and the mask of
    triples whose system has full rank."""
    g = c[0] ** 2 + c[1] ** 2 - c[2] ** 2
    a = 2.0 * (c[:, 1:] - c[:, :1])
    b1, b2 = g[1:] - g[0]
    a1, a2 = a[:, 0], a[:, 1]
    # Null direction: the cross product of the two rows.
    n = a1[[1, 2, 0]] * a2[[2, 0, 1]] - a1[[2, 0, 1]] * a2[[1, 2, 0]]
    sq, nn = a ** 2, n * n
    norm = np.sqrt(sq[0] + sq[1] + sq[2])
    regular = np.sqrt(nn[0] + nn[1] + nn[2]) > 1e-10 * norm[0] * norm[1]

    # Particular solution, pinning the unknown of the largest null component.
    an = np.abs(n)
    pin_z = (an[2] >= an[0]) & (an[2] >= an[1])
    pin_y = ~pin_z & (an[1] >= an[0])
    den = np.where(regular, np.where(pin_z, n[2], np.where(pin_y, -n[1], n[0])), 1.0)
    # (b1 a2 - b2 a1) / den for y and r, (a1 b2 - a2 b1) / den for x and y.
    w = (b1 * a2[1:] - b2 * a1[1:]) / den
    v = (a1[:2] * b2 - a2[:2] * b1) / den
    p0 = np.stack([np.where(pin_z, w[0], np.where(pin_y, w[1], 0.0)),
                   np.where(pin_z, v[0], np.where(pin_y, 0.0, w[1])),
                   np.where(pin_z, 0.0, np.where(pin_y, v[0], v[1]))])
    return p0, n, regular


def _line_roots(idx, disks):
    """The real roots of the line of ``_null_lines`` in one squared
    equation, for the triples ``idx`` (3, triples) of ``disks``: their slots,
    2 * triple for the single root or the smaller-lam root and 2 * triple + 1
    for the larger-lam root, in increasing order, and their (x, y, r), a (3,
    roots) array."""
    c0 = disks[:, idx[0]]
    p0, n, regular = _null_lines(disks[:, idx])

    # Substitute the line p0 + lam*n into |p - c1|^2 = (rho1 + r)^2, with
    # e = (p0x - cx1, p0y - cy1, rho1 + p0z).
    e = p0 + c0 * np.array([[-1.0], [-1.0], [1.0]])
    nn, en, ee = n * n, e * n, e * e
    qa = nn[0] + nn[1] - nn[2]
    qb = 2.0 * (en[0] + en[1] - en[2])
    qc = ee[0] + ee[1] - ee[2]
    scale = np.abs(qb) + np.abs(qc) + 1.0
    linear = np.abs(qa) <= 1e-14 * scale
    disc = qb * qb - 4.0 * qa * qc
    one = np.flatnonzero(regular & linear & (np.abs(qb) > 1e-14 * scale))
    two = np.flatnonzero(regular & ~linear & (disc >= -1e-12 * scale * scale))

    lam = np.zeros((qa.size, 2))
    has = np.zeros((qa.size, 2), dtype=bool)
    sq = np.sqrt(np.maximum(disc[two], 0.0))
    lam[one, 0] = -qc[one] / qb[one]
    lam[two, 0] = (-qb[two] - sq) / (2.0 * qa[two])
    lam[two, 1] = (-qb[two] + sq) / (2.0 * qa[two])
    has[one, 0] = has[two, 0] = has[two, 1] = True
    slot = np.flatnonzero(has)
    tri, lam = slot // 2, lam.ravel()[slot]
    return slot, p0[:, tri] + lam * n[:, tri]


def _seeds(idx, disks):
    """Closed-form equal-distance candidates of the triples ``idx`` (3,
    triples) of ``disks`` (3, m: x, y and radius rows): the roots of
    ``_line_roots`` of the right sign.  Returns the candidates' slots, in
    increasing order, and their (x, y, r) seeds, a (3, candidates) array.

    A root of the squared system |x - c_k|^2 = (rho_k + r)^2 has rho_k + r =
    +-|x - c_k| at each disk k of its triple.  Where the sign is negative the
    point is tangent to disk k the wrong way and is no equal-distance point,
    so a root with rho_k + r < -|x - c_k| / 2 - TOL at some k is dropped.
    Every equal-distance point is a root with the positive sign at all
    three disks, so it stays a candidate of its own triple.  The test is one
    gather of the three disks of every root, after the temporaries of
    ``_line_roots`` are freed, and one ``all`` over the three."""
    slot, xyr = _line_roots(idx, disks)
    d = disks[:, idx[:, slot // 2]]
    real = (d[2] + xyr[2] >= -0.5 * np.hypot(xyr[0] - d[0], xyr[1] - d[1]) - TOL).all(axis=0)
    return slot[real], xyr[:, real]


def _newton_step(p, k, disks, reach):
    """One step of ``_polish`` on the candidates ``p`` (3, candidates) with
    disk indices ``k``.  A candidate has converged when its residual is at
    most 1e-13 max(1, |x| / reach).  Returns the stepped candidates, the
    mask of those that had converged off the centers, and the mask of those
    that keep moving: not converged, on no center, with a regular Jacobian
    and a finite step."""
    # The masks are rows of one array of eight rows, the size of one float
    # per candidate: numpy keeps a few freed blocks of each size under 1 KB
    # for reuse, and masks of their own would hold one for every count.
    masks = np.empty((8, p.shape[1]), dtype=bool)
    hit, conv, done, go, ok, finite = masks[0], masks[1], masks[2], masks[3], masks[4], masks[5:]
    d = disks[:2, k]
    np.subtract(p[:2, None], d, out=d)
    ds = np.hypot(d[0], d[1])
    np.less_equal(ds.min(axis=0), 1e-12, out=hit)
    u = np.divide(d, ds, out=d)
    f = np.subtract(ds, disks[2, k], out=ds)
    f -= p[2]
    lim = np.hypot(p[0], p[1])
    lim /= reach
    np.maximum(lim, 1.0, out=lim)
    lim *= 1e-13
    np.less_equal(np.abs(f).max(axis=0), lim, out=conv)
    # In place below the first rows: du = u[:, 1:] - u[:, 0], g = f[1:] - f[0].
    u[:, 1:] -= u[:, :1]
    f[1:] -= f[0]
    du, g = u[:, 1:], f[1:]
    det = du[0, 0] * du[1, 1] - du[1, 0] * du[0, 1]
    # The step (sx, sy, ux0 sx + uy0 sy - f0), by Cramer's rule.
    step = np.empty_like(p)
    np.subtract(g[0] * du[1, 1], du[1, 0] * g[1], out=step[0])
    np.subtract(du[0, 0] * g[1], g[0] * du[0, 1], out=step[1])
    step[:2] /= det
    t = u[:, 0] * step[:2]
    np.subtract(t[0] + t[1], f[0], out=step[2])
    p = np.subtract(p, step, out=step)
    np.logical_not(hit, out=done)
    done &= conv
    # Keep moving: a regular Jacobian, a finite step, on no center and not
    # converged.
    np.greater(np.abs(det), 1e-14, out=go)
    go &= np.all(np.isfinite(p, out=finite), axis=0, out=ok)
    go &= np.logical_not(np.logical_or(hit, conv, out=ok), out=ok)
    return p, done, go


def _polish(xyr, k, disks, reach):
    """Newton on |x - c_k| - rho_k - r = 0 for the candidates (x, y, r), the
    columns of ``xyr``, each with the three disks of its column of ``k``
    (indices into ``disks``, rows x, y and radius).  A step gathers the disks
    of the moving candidates only and solves the 3x3 Jacobian system in
    closed form, reduced to 2x2 by subtracting the first row.  A candidate
    that meets a center, a singular Jacobian or a non-finite step (a spurious
    root of the squared system) is dropped.  Within ``reach`` of the origin
    a candidate stops at residual 1e-13; beyond it the residual is relative
    to |x| / reach, since such a root is no witness and an absolute 1e-13
    lies below the rounding of a root thousands of radii out.  Writes the
    polished values into ``xyr`` and returns the mask of candidates that
    converged."""
    keep = np.zeros(xyr.shape[1], dtype=bool)
    live = np.arange(xyr.shape[1])
    p = xyr
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_STEPS):
            p, done, go = _newton_step(p, k, disks, reach)
            keep[live[done]] = True
            p, k, live = p[:, go], k[:, go], live[go]
            if live.size == 0:
                return keep
            xyr[:, live] = p
    d = p[:2, None] - disks[:2, k]
    res = np.abs(np.hypot(d[0], d[1]) - disks[2, k] - p[2]).max(axis=0)
    keep[live[res <= _FINAL_RESIDUAL]] = True
    return keep


def _solve_triples(idx, disks, reach):
    """The equal-distance points of each triple of one chunk ``idx`` (3,
    triples) of ``disks`` (3, m: x, y and radius rows), seeded by ``_seeds``
    and polished by ``_polish`` with the stopping rule of ``reach``.
    Returns their (x, y, r), a (3, solutions) array in triple order,
    duplicates within a triple removed."""
    slot, xyr = _seeds(idx, disks)
    keep = _polish(xyr, idx[:, slot // 2], disks, reach)

    # A larger-lam root that polishes onto the smaller-lam root of its own
    # triple is the same solution.  Either root may have been dropped by the
    # seeds, so the two are paired by slot (slots increase, so position 0
    # never pairs with position -1).
    second = np.flatnonzero(slot % 2)
    second = second[slot[second - 1] == slot[second] - 1]
    first = second - 1
    keep[second] &= ~(keep[first] & (np.abs(xyr[:, second] - xyr[:, first]).max(axis=0) <= 1e-9))
    return xyr[:, keep]


def tri_disk_vertices(d1: Disk, d2: Disk, d3: Disk) -> list[tuple[Point, float]]:
    """All points at equal additive distance r to three disks, with that
    common value (r may be negative when the point lies inside the disks),
    sorted by (r, x, y): the one-triple view of ``_solve_triples``, 0, 1 or 2
    solutions.  Raises DegenerateTriple when two disks are concentric or the
    equal-distance system is rank deficient (no isolated solution)."""
    disks = np.array([[d.center.x, d.center.y, d.radius] for d in (d1, d2, d3)]).T
    gap = disks[:2, [0, 0, 1]] - disks[:2, [1, 2, 2]]
    if (np.hypot(gap[0], gap[1]) <= TOL).any():
        raise DegenerateTriple("two of the disks are concentric")
    idx = np.arange(3)[:, None]
    if not _null_lines(disks[:, idx])[2][0]:
        raise DegenerateTriple("rank-deficient equal-distance system")
    x, y, r = _solve_triples(idx, disks, math.inf).tolist()
    return [(Point(px, py), pr) for pr, px, py in sorted(zip(r, x, y))]


def _interior_vertices(cx: np.ndarray, cy: np.ndarray, rho: np.ndarray, ok: np.ndarray,
                       radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Equal-distance vertices of every ``ok`` triple that lie within
    radius + TOL of the origin and where no disk is closer than their common
    distance (tolerance-inclusive), in triple order."""
    m = cx.size
    disks = np.stack([cx, cy, rho])
    found = [np.empty((2, 0))]
    for idx in _triples(ok):
        sol = _solve_triples(idx, disks, radius + TOL)
        x, y, r = sol
        keep = np.flatnonzero(np.hypot(x, y) <= radius + TOL)
        # Running global-minimum test, one disk at a time, until the
        # candidates left times the disks left fit one block of cells.
        for d in range(m):
            if keep.size * (m - d) <= _OWNER_CELLS:
                if keep.size:
                    near = np.hypot(x[keep, None] - cx[d:], y[keep, None] - cy[d:]) - rho[d:]
                    keep = keep[(near >= (r[keep] - TOL)[:, None]).all(axis=1)]
                break
            keep = keep[np.hypot(x[keep] - cx[d], y[keep] - cy[d]) - rho[d] >= r[keep] - TOL]
        found.append(sol[:2, keep])
    vx, vy = np.concatenate(found, axis=1)
    return vx, vy


def _quartic_roots(b, c, d, e) -> np.ndarray:
    """The four roots of the monic complex quartics z^4 + b z^3 + c z^2 + d z
    + e (arrays), by Ferrari's method: shape (4, quartics).  The resolvent
    cubic is solved by Cardano's formula and its root of largest modulus
    taken, which is nonzero unless the depressed quartic is y^4 = 0."""
    s = b / 4.0
    p = c - 6.0 * s * s
    q = d - 2.0 * c * s + 8.0 * s ** 3
    r = e - d * s + c * s * s - 3.0 * s ** 4
    # Resolvent m^3 + p m^2 + (p^2/4 - r) m - q^2/8 = 0, depressed by m = t - p/3.
    cp, cq = -p * p / 12.0 - r, -p ** 3 / 108.0 + p * r / 3.0 - q * q / 8.0
    h = np.sqrt(cq * cq / 4.0 + cp ** 3 / 27.0)
    u = np.where(np.abs(h - cq / 2.0) >= np.abs(h + cq / 2.0), h - cq / 2.0, -h - cq / 2.0)
    u = u ** (1.0 / 3.0) * _CUBE_UNITS[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.where(u == 0.0, 0.0, u - cp / (3.0 * u)) - p / 3.0
        m = np.take_along_axis(m, np.abs(m).argmax(axis=0)[None], axis=0)[0]
        w = np.sqrt(2.0 * m)
        g = np.where(w == 0.0, 0.0, 2.0 * q / w)
        return (_SIGNS[0] * w + _SIGNS[1] * np.sqrt(-(2.0 * p + 2.0 * m + _SIGNS[0] * g))) / 2.0 - s


def _rim_crossings(cx: np.ndarray, cy: np.ndarray, rho: np.ndarray, ia: np.ndarray,
               ib: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Angles where the additive distances of disks ia[p] and ib[p] are
    equal on the rim |x| = radius, for every pair p: (pair index, angle), in
    pair order.

    With z = e^{i theta}, centers c_k as complex numbers over ``radius`` and
    P_k(z) = -conj(c_k) z^2 + (1 + |c_k|^2) z - c_k (z |z - c_k|^2 on the
    unit circle), |z - c_a| - |z - c_b| = d = (rho_a - rho_b) / radius
    squared twice is the quartic (P_a - P_b)^2 - 2 d^2 z (P_a + P_b)
    + d^4 z^2 = 0.  For equal radii it is (P_a - P_b)^2, whose unit roots
    solve 2 |e| cos(theta - arg e) = |c_b|^2 - |c_a|^2, e = c_b - c_a.  Roots
    near the circle and nearer this branch (difference 0) than the other
    (-2 d) are Newton-polished on the unsquared difference and kept when it
    ends within ``_RIM_RESIDUAL``.  A double root (a tangent bisector) gives
    its crossing twice; the witness table keeps the first copy."""
    ca = (cx[ia] + 1j * cy[ia]) / radius
    cb = (cx[ib] + 1j * cy[ib]) / radius
    gap = rho[ia] - rho[ib]
    d2 = (gap / radius) ** 2
    na, nb = ca.real ** 2 + ca.imag ** 2, cb.real ** 2 + cb.imag ** 2
    e, u1 = cb - ca, na - nb
    v0, v1 = -(ca + cb), 2.0 + na + nb
    lead = e.conj() ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        z = _quartic_roots((2.0 * u1 * e.conj() - 2.0 * d2 * v0.conj()) / lead,
                           (u1 * u1 + 2.0 * np.abs(e) ** 2 - 2.0 * d2 * v1 + d2 * d2) / lead,
                           (2.0 * u1 * e - 2.0 * d2 * v0) / lead, e * e / lead)
    theta = np.angle(z)
    keep = np.abs(np.abs(z) - 1.0) <= _ON_CIRCLE
    line = d2 == 0.0
    cos_arc = -u1[line] / (2.0 * np.abs(e[line]))
    arc = np.arccos(np.clip(cos_arc, -1.0, 1.0))
    theta[:2, line] = np.angle(e[line]) + np.array([[1.0], [-1.0]]) * arc
    keep[:2, line] = np.abs(cos_arc) <= 1.0 + _ON_CIRCLE
    keep[2:, line] = False

    pair, slot = np.nonzero(keep.T)
    theta = theta.T[pair, slot]
    a, b, gap = ia[pair], ib[pair], gap[pair]
    best, res = theta, np.full(theta.size, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(_RIM_NEWTON + 1):
            c, s = np.cos(theta), np.sin(theta)
            xa, ya = radius * c - cx[a], radius * s - cy[a]
            xb, yb = radius * c - cx[b], radius * s - cy[b]
            da, db = np.hypot(xa, ya), np.hypot(xb, yb)
            f = da - db - gap
            if step == 0:
                right = np.abs(f) <= np.abs(f + 2.0 * gap)
            better = np.abs(f) < res
            best, res = np.where(better, theta, best), np.where(better, np.abs(f), res)
            if step < _RIM_NEWTON:
                theta = theta - f / (radius * ((ya * c - xa * s) / da - (yb * c - xb * s) / db))
    ok = np.flatnonzero(right & (res <= _RIM_RESIDUAL * max(1.0, radius)))
    return pair[ok], best[ok]


def _distances(px: np.ndarray, py: np.ndarray, cx: np.ndarray, cy: np.ndarray,
               rho: np.ndarray):
    """The additive distances of the disks at the points, as (first point,
    points x disks block) in blocks of at most ``_OWNER_CELLS`` cells."""
    rows = max(1, _OWNER_CELLS // max(1, cx.size))
    for s in range(0, px.size, rows):
        yield s, np.hypot(px[s:s + rows, None] - cx[None, :], py[s:s + rows, None] - cy[None, :]) \
            - rho[None, :]


def _owner_pairs(px: np.ndarray, py: np.ndarray, cx: np.ndarray, cy: np.ndarray,
                 rho: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(point, disk) index pairs, in row-major order, where the disk's
    additive distance is within ``tol`` of the smallest one at the point."""
    pts, dks = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for s, d in _distances(px, py, cx, cy, rho):
        p, k = np.nonzero(d <= d.min(axis=1, keepdims=True) + tol)
        pts.append(p + s)
        dks.append(k)
    return np.concatenate(pts), np.concatenate(dks)


def _rim_witnesses(cx: np.ndarray, cy: np.ndarray, rho: np.ndarray, ia: np.ndarray,
                   ib: np.ndarray, radius: float):
    """Rim crossings of the pair bisectors (ia[p], ib[p]) at which both disks
    of the pair attain the minimal additive distance over all given disks.
    Returns one row per (crossing, owner), in the order of ``_rim_crossings``
    and then of the owners: the rows' x, y and owning disk."""
    if ia.size == 0:
        return np.empty(0), np.empty(0), np.empty(0, dtype=np.intp)
    # Additive distances are 1-Lipschitz, so two disks that both attain the
    # minimum at a rim point come within twice the half arc step (plus 2 TOL)
    # of the sampled minimum at the nearest sample; other pairs keep none.
    step = 2.0 * math.pi / _RIM_SAMPLES
    grid = step * np.arange(_RIM_SAMPLES)
    gp, gd = _owner_pairs(radius * np.cos(grid), radius * np.sin(grid), cx, cy, rho,
                          radius * step + 2.0 * TOL)
    near = np.zeros((cx.size, _RIM_SAMPLES), dtype=bool)
    near[gd, gp] = True
    reach = near.any(axis=1)
    use = np.flatnonzero(reach[ia] & reach[ib])
    bits = np.packbits(near, axis=1).view(np.uint64)
    use = use[(bits[ia[use]] & bits[ib[use]]).any(axis=1)]
    ia, ib = ia[use], ib[use]
    pair, theta = _rim_crossings(cx, cy, rho, ia, ib, radius)
    px, py = radius * np.cos(theta), radius * np.sin(theta)
    pt, dk = _owner_pairs(px, py, cx, cy, rho, TOL)
    # The two disks of a pair are distinct, so a crossing they both own
    # counts two of its owner pairs among them.
    both = np.bincount(pt[(dk == ia[pair[pt]]) | (dk == ib[pair[pt]])], minlength=px.size) == 2
    pt, dk = pt[both[pt]], dk[both[pt]]
    return px[pt], py[pt], dk


def _diametral_fallbacks(cx: np.ndarray, cy: np.ndarray, rho: np.ndarray, radius: float):
    """The diametral fallback rows: every disk's rim point farthest from its
    center, where the disk attains the minimal additive distance over the
    given disks there.  For an origin-centered disk the additive distance is
    constant on the rim, so any owned rim point serves; (radius, 0) is owned
    exactly when the disk owns the whole rim without crossings, which is the
    only case where the fallback is needed.  Returns the rows' x, y and
    owning disk, ascending."""
    norms = np.hypot(cx, cy)
    at_origin = norms <= TOL
    scale = np.where(at_origin, 1.0, norms)
    px = np.where(at_origin, radius, -radius * cx / scale)
    py = np.where(at_origin, 0.0, -radius * cy / scale)
    pt, dk = _owner_pairs(px, py, cx, cy, rho, TOL)
    own = pt[pt == dk]
    return px[own], py[own], own


@dataclass(frozen=True)
class VertexSet:
    """Witness points owned by one ACS disk: equal-distance vertices inside
    the objective plus crossings of its cell boundary with the objective rim."""

    disk: int
    points: tuple[tuple[Point, WitnessKind], ...]


def _witness_table(acs: Acs, radius: float, disks: np.ndarray | None = None):
    """The witness set of every ACS disk as one table: points ``xy`` (k, 2),
    owning disk ``owner`` (k,), kind code ``kind`` (k,) and ``value`` (k,),
    the additive distance of the point to its owner; one row per (witness,
    owner), ordered by owner, then angle, then norm, with the owner's
    diametral fallback last.  It is built on the disks ``_live_disks``
    keeps, or on ``disks`` (ascending ACS indices) when given, as the cell
    pass of ``_peak_cells`` gives them.

    The rows are the equal-distance vertices of disk triples that are global
    minima inside the objective, in triple order, then the rim crossings of
    all pair bisectors, in pair order, each with every disk attaining the
    minimum there, then the diametral fallbacks (``_diametral_fallbacks``).
    A vertex within ``TOL`` of the rim is a rim crossing.  A copy of an
    earlier row within 1e-8 (``_first_copies``) is dropped, and the row it
    copies becomes a rim crossing if the copy is one; so a fallback stays
    only where no other row of its disk lies within 1e-8 of it."""
    centers = acs.centers
    radii = acs.radii
    live = _live_disks(centers, radii, radius)[0] if disks is None else disks
    cx, cy, rho = centers[live, 0], centers[live, 1], radii[live]

    # A common equal-distance point needs every pairwise bisector to be
    # nonempty, so additively dominated pairs prune their triples.
    dist = np.hypot(cx[:, None] - cx[None, :], cy[:, None] - cy[None, :])
    pair_ok = (dist > np.abs(rho[:, None] - rho[None, :])) & (dist > TOL)
    del dist

    vx, vy = _interior_vertices(cx, cy, rho, pair_ok, radius)
    vpt, vdk = _owner_pairs(vx, vy, cx, cy, rho, TOL)
    on_rim = np.abs(np.hypot(vx, vy) - radius) <= TOL
    ia, ib = np.nonzero(np.triu(pair_ok, 1))
    rx, ry, rdk = _rim_witnesses(cx, cy, rho, ia, ib, radius)
    fx, fy, fdk = _diametral_fallbacks(cx, cy, rho, radius)

    xy = np.column_stack([np.concatenate([vx[vpt], rx, fx]), np.concatenate([vy[vpt], ry, fy])])
    owner = np.concatenate([vdk, rdk, fdk])
    kind = np.repeat([INTERIOR_VERTEX, BOUNDARY_CROSSING, DIAMETRAL], [vpt.size, rdk.size, fdk.size])
    kind[:vpt.size][on_rim[vpt]] = BOUNDARY_CROSSING
    into = _first_copies(xy, owner, 1e-8)
    kind[into[kind == BOUNDARY_CROSSING]] = BOUNDARY_CROSSING
    keep = into == np.arange(into.size)
    xy, owner, kind = xy[keep], owner[keep], kind[keep]
    order = np.lexsort((np.hypot(xy[:, 0], xy[:, 1]), np.arctan2(xy[:, 1], xy[:, 0]),
                        kind == DIAMETRAL, owner))
    xy, owner, kind = xy[order], owner[order], kind[order]
    value = np.hypot(xy[:, 0] - cx[owner], xy[:, 1] - cy[owner]) - rho[owner]
    return xy, live[owner], kind, value


def vertex_sets(acs: Acs, radius: float) -> list[VertexSet]:
    """Witness sets for every ACS disk: its vertex and rim-crossing rows of
    ``_witness_table`` as (Point, kind name) pairs, in table order (angle,
    then norm)."""
    _check_radius(radius)
    xy, owner, kind, _ = _witness_table(acs, radius)
    table = kind != DIAMETRAL
    points = [(Point(x, y), _KIND_NAMES[k]) for (x, y), k in zip(xy[table].tolist(), kind[table].tolist())]
    ends = np.searchsorted(owner[table], np.arange(acs.size + 1)).tolist()
    return [VertexSet(k, tuple(points[ends[k]:ends[k + 1]])) for k in range(acs.size)]
