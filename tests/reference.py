"""The scalar equal-distance solve of three disks, one triple at a time: a
closed form in plain floats and a Newton polish with Cramer's rule.  It
shares only ``TOL`` and the polish's stopping constants with the batched
triple stage of ``pupilcover.apollonius``, the package's one solver, so the
tests use it as their independent reference for that stage and for
``tri_disk_vertices``, its one-triple view.
"""

from __future__ import annotations

import math

from pupilcover.apollonius import _FINAL_RESIDUAL, _NEWTON_STEPS, DegenerateTriple
from pupilcover.geom import TOL, Disk, Point


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
