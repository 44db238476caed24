import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import pupilcover.apollonius
import pupilcover.coverage
from pupilcover import (
    TOL,
    DegenerateTriple,
    Disk,
    Point,
    Pupil,
    PupilConfig,
    VertexSet,
    alpha_star,
    build_acs,
    decide,
    delta_min,
    is_global_vertex,
    per_disk_alpha,
    prime_design,
    tri_disk_vertices,
    vertex_sets,
)
from pupilcover.apollonius import (BOUNDARY_CROSSING, DIAMETRAL, INTERIOR_VERTEX, _diametral_fallbacks,
                                   _live_disks, _rim_witnesses, _seeds, _solve_triples, _witness_table)
from pupilcover.coverage import build_analysis
from pupilcover.geom import _first_copies
from tests import reference
from tests.conftest import acs_disks, acs_of_disks, g4_lattice, near_collinear_start
from tests.reference import ConcentricDisks, EmptyBisector, bisector, delta
from tests.test_coverage import _G4_LATTICES


def _random_disk_pair(rng, distinct_radii=True):
    while True:
        c1 = Point(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        c2 = Point(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        r1 = float(rng.uniform(0, 0.5))
        r2 = float(rng.uniform(0, 0.5))
        d = c1.distance_to(c2)
        if d < 0.2:
            continue
        if abs(r1 - r2) >= 0.9 * d:
            continue
        if distinct_radii and abs(r1 - r2) < 1e-3:
            continue
        return Disk(c1, r1), Disk(c2, r2)


def test_bisector_equal_radii_is_line():
    d1, d2 = Disk(Point(-1, 0), 0.4), Disk(Point(1, 0), 0.4)
    b = bisector(d1, d2)
    assert b.is_line
    for t in (-2.0, -0.5, 0.0, 1.0, 3.0):
        pt = b.point(t)
        assert pt.x == pytest.approx(0.0, abs=1e-12)  # the line x = 0
        assert abs(delta(d1, pt) - delta(d2, pt)) <= 1e-9
    # line parameter is the signed distance from the midpoint
    assert b.point(1.5).distance_to(Point(0, 0)) == pytest.approx(1.5)
    assert b.point(-1.5).distance_to(Point(0, 0)) == pytest.approx(1.5)


def test_bisector_hyperbola_parameters():
    b = bisector(Disk(Point(-1, 0), 0.0), Disk(Point(1, 0), 1.0))
    assert b.semi_axis == pytest.approx(0.5)
    assert b.focal_half_distance == pytest.approx(1.0)
    assert b.eccentricity == pytest.approx(2.0)
    # branch opens toward the smaller (zero-radius) disk
    apex = b.point(0.0)
    assert apex.x == pytest.approx(-0.5)
    assert apex.y == pytest.approx(0.0, abs=1e-12)


def test_bisector_concentric_raises():
    with pytest.raises(ConcentricDisks):
        bisector(Disk(Point(0, 0), 0.2), Disk(Point(0, 0), 0.5))


def test_bisector_dominated_pair_raises():
    with pytest.raises(EmptyBisector):
        bisector(Disk(Point(0, 0), 1.0), Disk(Point(0.2, 0), 0.1))


def test_bisector_defining_property(rng):
    for _ in range(30):
        d1, d2 = _random_disk_pair(rng, distinct_radii=False)
        b = bisector(d1, d2)
        for t in np.linspace(-3, 3, 41):
            pt = b.point(float(t))
            assert abs(delta(d1, pt) - delta(d2, pt)) <= 1e-9


def test_bisector_point_injective_and_continuous(rng):
    d1, d2 = _random_disk_pair(rng)
    b = bisector(d1, d2)
    ts = np.linspace(-2, 2, 101)
    pts = [b.point(float(t)) for t in ts]
    for p, q in zip(pts, pts[1:]):
        assert p.distance_to(q) > 0
        assert p.distance_to(q) < 0.5  # small parameter steps move points a little


def test_unimodal_distance_profile(rng):
    """Along any bisector the distance to either disk falls to one minimum
    then rises again (checked at the apex-centered parametrization)."""
    for _ in range(30):
        d1, d2 = _random_disk_pair(rng, distinct_radii=False)
        b = bisector(d1, d2)
        ts = np.linspace(-3, 3, 200)
        vals = [delta(d1, b.point(float(t))) for t in ts]
        k = int(np.argmin(vals))
        for i in range(k):
            assert vals[i + 1] <= vals[i] + 1e-9
        for i in range(k, len(vals) - 1):
            assert vals[i + 1] >= vals[i] - 1e-9


def test_focal_distance_linear_law(rng):
    """Distance from a branch point to the first focus is |e*x + a| in the
    canonical frame."""
    for _ in range(30):
        d1, d2 = _random_disk_pair(rng, distinct_radii=True)
        b = bisector(d1, d2)
        e = b.eccentricity
        for t in np.linspace(-3, 3, 50):
            pt = b.point(float(t))
            x = b.abscissa(float(t))
            measured = pt.distance_to(d1.center)
            assert measured == pytest.approx(abs(e * x + b.semi_axis), abs=1e-6)


def test_cell_edge_arc_stays_in_spanning_disk(rng):
    """Any arc of a cell edge lies in the smallest disk about the cell's
    center that contains the arc endpoints (consequence of unimodality)."""
    for _ in range(20):
        d1, d2 = _random_disk_pair(rng, distinct_radii=False)
        b = bisector(d1, d2)
        t1, t2 = sorted(rng.uniform(-2.5, 2.5, size=2))
        p = b.point(float(t1))
        q = b.point(float(t2))
        span = max(p.distance_to(d1.center), q.distance_to(d1.center))
        for t in np.linspace(t1, t2, 30):
            assert b.point(float(t)).distance_to(d1.center) <= span + 1e-9


def test_tri_disk_equilateral_centroid():
    # circumradius of an equilateral triangle with side 2*sqrt(3) is 2
    side = 2.0 * math.sqrt(3.0)
    pts = [
        Point(0.0, 2.0),
        Point(-side / 2.0, -1.0),
        Point(side / 2.0, -1.0),
    ]
    disks = [Disk(p, 1.0) for p in pts]
    sols = tri_disk_vertices(*disks)
    assert len(sols) == 1
    v, r = sols[0]
    assert v.x == pytest.approx(0.0, abs=1e-9)
    assert v.y == pytest.approx(0.0, abs=1e-9)
    assert r == pytest.approx(1.0, abs=1e-9)


def test_tri_disk_collinear_equal_radii_degenerate():
    disks = [Disk(Point(x, 0.0), 0.5) for x in (-1.0, 0.0, 1.0)]
    with pytest.raises(DegenerateTriple):
        tri_disk_vertices(*disks)


def test_tri_disk_residual_property(rng):
    count = 0
    while count < 25:
        disks = [
            Disk(
                Point(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))),
                float(rng.uniform(0, 0.4)),
            )
            for _ in range(3)
        ]
        try:
            sols = tri_disk_vertices(*disks)
        except DegenerateTriple:
            continue
        count += 1
        for pt, r in sols:
            for d in disks:
                assert abs((pt.distance_to(d.center) - d.radius) - r) <= 1e-9


def test_tri_disk_collinear_distinct_radii_still_solves():
    # collinear centers with distinct radii can keep an isolated, mirrored
    # off-axis solution pair (the linear system pins x and r, the quadratic
    # frees y)
    disks = [
        Disk(Point(-0.1951573433245739, 0.0), 0.42211552),
        Disk(Point(1.1930328243256465, 0.0), 0.19620233),
        Disk(Point(1.4225585797777662, 0.0), 0.24651151),
    ]
    sols = tri_disk_vertices(*disks)
    assert len(sols) == 2
    ys = sorted(pt.y for pt, _ in sols)
    assert ys[0] == pytest.approx(-ys[1], abs=1e-9)
    for pt, r in sols:
        for d in disks:
            assert abs((pt.distance_to(d.center) - d.radius) - r) <= 1e-9


def _view_reference_triples():
    """Seeded triples for the view-against-reference test: random (centers in
    [-1, 1]^2, radii in [0, 0.4]), near-collinear (the third center off the
    line by 0, 1e-12, 1e-9 or 1e-6, equal and distinct radii) and triples of
    integer lattice points with equal radii."""
    rng = np.random.default_rng(4242)
    out = [[Disk(Point(float(x), float(y)), float(r)) for x, y, r in
            zip(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), rng.uniform(0, 0.4, 3))]
           for _ in range(1500)]
    for offset in (0.0, 1e-12, 1e-9, 1e-6):
        for equal in (True, False):
            for _ in range(40):
                xs = rng.uniform(-1, 1, 3)
                rs = np.full(3, 0.3) if equal else rng.uniform(0, 0.4, 3)
                out.append([Disk(Point(float(xs[k]), offset if k == 2 else 0.0), float(rs[k]))
                            for k in range(3)])
    lattice = [Point(float(i), float(j)) for i in range(4) for j in range(4)]
    out += [[Disk(p, 0.5) for p in trio] for trio in combinations(lattice, 3)]
    return out


def test_tri_disk_view_matches_scalar_reference():
    """``tri_disk_vertices`` (the one-triple view of the batched solve) and
    the scalar solve of ``tests.reference`` agree: the same triples are
    degenerate, and where every solution of both lies within |x| <= 10 they
    give the same number of solutions and each (x, y, r) within 1e-9.

    Beyond that they may differ, and do.  On 25,000 random triples of each
    of the seeds 4242 and 7, no degenerate outcome differed, and 21 and 14
    triples differed in count or by more than 1e-9.  In each of them only
    solutions at |x| >= 88 differed: far from the disks a root is poorly
    conditioned (one moved by 2e-7 at |x| = 563), and two roots that nearly
    coincide end less than 1e-9 apart in one polish and more in the other,
    so one solver keeps a duplicate the other drops.  The tolerance stays at
    1e-9; such triples are checked only for the equal-distance residual of
    the view's solutions.  The witness table is built by the batched solve
    itself, so the difference never reaches it."""
    near = 0
    for disks in _view_reference_triples():
        try:
            got = tri_disk_vertices(*disks)
        except DegenerateTriple:
            got = None
        try:
            want = reference.tri_disk_vertices(*disks)
        except DegenerateTriple:
            want = None
        assert (got is None) == (want is None), disks
        if got is None:
            continue
        for pt, r in got:
            assert all(abs(delta(d, pt) - r) <= 1e-9 for d in disks), (disks, got)
        if any(pt.norm() > 10.0 for pt, _ in got + want):
            continue
        near += 1
        assert len(got) == len(want), (disks, got, want)
        for (p, r), (q, s) in zip(got, want):
            assert max(abs(p.x - q.x), abs(p.y - q.y), abs(r - s)) <= 1e-9, (disks, got, want)
    assert near >= 1000


#: A triple whose squared equal-distance system has two real roots, the
#: first (smaller lam) tangent to a disk the wrong way: its only
#: equal-distance point is its second root.
_SECOND_ROOT_ONLY = [Disk(Point(0.8354170261579053, 0.15056153420922924), 0.37869201617550124),
                     Disk(Point(-0.11147055354447, 0.023768239959849113), 0.36612147627812663),
                     Disk(Point(0.5205681722325304, 0.3143205316937616), 0.28809386520242153)]


def test_triple_with_only_its_second_root_real():
    """The seeds drop the wrong-way first root, and the second root is kept:
    it is not compared with the first root of another triple, nor with
    itself, when the twin dedupe pairs the roots of a triple by slot."""
    disks = np.array([[d.center.x, d.center.y, d.radius] for d in _SECOND_ROOT_ONLY]).T
    idx = np.arange(3)[:, None]
    slot, _ = _seeds(idx, disks)
    assert slot.tolist() == [1]
    assert tri_disk_vertices(*_SECOND_ROOT_ONLY) == [
        (Point(0.3782243651083358, -0.08454377930734157), 0.13540878888252586)]
    # The same triple after a regular one, and twice in one chunk.
    lead = [Disk(Point(0.0, 0.0), 0.1), Disk(Point(1.0, 0.0), 0.2), Disk(Point(0.3, 0.8), 0.15)]
    both = np.array([[d.center.x, d.center.y, d.radius] for d in lead + _SECOND_ROOT_ONLY]).T
    idx = np.array([[0, 3, 3], [1, 4, 4], [2, 5, 5]])
    x, y, r = _solve_triples(idx, both, math.inf)
    alone = _solve_triples(idx[:, :1], both, math.inf)
    assert x.size == alone.shape[1] + 2
    assert (x[-2:] == 0.3782243651083358).all() and (y[-2:] == -0.08454377930734157).all()
    assert (r[-2:] == 0.13540878888252586).all()


def test_seeds_keep_only_roots_of_the_right_sign():
    """No candidate leaving ``_seeds`` has rho_k + r < -|x - c_k| / 2 - TOL
    at a disk of its triple, and on random triples roughly half of the
    squared system's roots, those of the wrong sign, are dropped: the seeds
    left nearly all have (rho_k + r) / |x - c_k| near +1."""
    rng = np.random.default_rng(99)
    m = 40
    disks = np.stack([rng.uniform(-1, 1, m), rng.uniform(-1, 1, m), rng.uniform(0, 0.3, m)])
    idx = np.array(list(combinations(range(m), 3))).T
    slot, xyr = _seeds(idx, disks)
    assert slot.size > 0 and (np.diff(slot) > 0).all()
    ratio = []
    for k in idx[:, slot // 2]:
        gap = np.hypot(xyr[0] - disks[0, k], xyr[1] - disks[1, k])
        assert (disks[2, k] + xyr[2] >= -0.5 * gap - TOL).all()
        ratio.append((disks[2, k] + xyr[2]) / gap)
    assert np.mean(np.abs(np.array(ratio) - 1.0) <= 1e-6) >= 0.999
    assert slot.size < 1.25 * np.unique(slot // 2).size


def test_is_global_vertex():
    cfg = PupilConfig([Pupil(Point(0, 0), 0.3), Pupil(Point(1, 0), 0.2)], 1.0)
    acs = build_acs(cfg)
    pt = Point(0.0, 2.0)
    val, _ = delta_min(acs, pt)
    assert is_global_vertex(acs, pt, val)
    assert is_global_vertex(acs, pt, val - 0.1)   # claimed distance below the minimum
    assert not is_global_vertex(acs, pt, val + 0.1)


def _rim_pair(acs, a, b, radius):
    """The rim crossings of the pair (a, b) at which both disks attain the
    minimal additive distance over the disks of ``acs``: the witness table's
    rim stage, ``_rim_witnesses``, on that one pair, as points sorted by
    angle: its rows owned by disk a, one per crossing."""
    c = acs.centers
    px, py, owner = _rim_witnesses(c[:, 0], c[:, 1], acs.radii, np.array([a]), np.array([b]), radius)
    px, py = px[owner == a], py[owner == a]
    return sorted((Point(x, y) for x, y in zip(px.tolist(), py.tolist())),
                  key=lambda p: math.atan2(p.y, p.x))


def test_boundary_crossings_symmetric_pair():
    acs = acs_of_disks([Disk(Point(-1, 0), 1.0), Disk(Point(1, 0), 1.0)])
    pts = _rim_pair(acs, 0, 1, 2.0)
    ys = sorted(round(p.y, 9) for p in pts)
    assert len(pts) == 2
    assert ys == [-2.0, 2.0]
    assert all(abs(p.x) <= 1e-9 for p in pts)


def test_boundary_crossings_no_intersection():
    acs = acs_of_disks([Disk(Point(-0.1, 0), 0.2), Disk(Point(0.1, 0), 0.2)])
    # bisector is the y-axis, which meets |x| = R; move the pair far away instead
    acs = acs_of_disks([Disk(Point(5.0, 0), 0.2), Disk(Point(6.0, 0), 0.2)])
    pts = _rim_pair(acs, 0, 1, 1.0)
    assert pts == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a, b", [(1, 1), (2, 2), (1, 3), (3, 1)])
def test_boundary_crossings_concentric_raises(a, b):
    """The same disk twice, or two centers within TOL, has no bisector: the
    reference raises ConcentricDisks, and the witness table, whose pair
    filter drops such pairs before the rim and triple stages, is built on
    these disks with no numpy warning."""
    acs = acs_of_disks([Disk(Point(-0.5, 0.2), 0.3), Disk(Point(0.1, 0.4), 0.2),
                        Disk(Point(0.3, -0.2), 0.2), Disk(Point(0.1, 0.4 + 0.5 * TOL), 0.25)])
    disks = acs_disks(acs)
    with pytest.raises(ConcentricDisks):
        bisector(disks[a], disks[b])
    _witness_table(acs, 1.0)


def test_boundary_crossings_residuals(rng):
    for _ in range(10):
        d1, d2 = _random_disk_pair(rng, distinct_radii=False)
        acs = acs_of_disks([d1, d2])
        radius = float(rng.uniform(0.5, 2.0))
        for pt in _rim_pair(acs, 0, 1, radius):
            assert abs(pt.norm() - radius) <= 1e-9
            assert abs(delta(d1, pt) - delta(d2, pt)) <= 1e-9


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_non_finite_or_non_positive_radius_raises(radius):
    acs = acs_of_disks([Disk(Point(-1, 0), 1.0), Disk(Point(1, 0), 1.0), Disk(Point(0, 1), 0.5)])
    with pytest.raises(ValueError, match="finite and positive"):
        vertex_sets(acs, radius)


def _turned(x, y, phi):
    return Point(x * math.cos(phi) - y * math.sin(phi), x * math.sin(phi) + y * math.cos(phi))


# Half a step of the former 720-sample rim grid: crossings at this angle
# +- 0.002 rad both fall strictly between two grid samples.
_HALF_STEP = math.pi / 720


def _close_crossing_pairs():
    """Two bisectors that cross the rim twice, 0.004 rad apart, at +-0.002 rad
    about _HALF_STEP.  The hyperbola branch of the disks at 0.8 (radius 0.05)
    and 0.2 (radius 0.25) on the x axis has its apex at 0.6 and vertex
    curvature radius 0.8; the line is x = 0.6.  Both are turned by
    _HALF_STEP."""
    y = 0.6 * math.sin(0.002)
    hyperbola = ([Disk(_turned(0.8, 0.0, _HALF_STEP), 0.05), Disk(_turned(0.2, 0.0, _HALF_STEP), 0.25)],
                 0.6 + 0.5 * y * y * (1.0 / 0.8 + 1.0 / 0.6))
    line = ([Disk(_turned(0.3, 0.0, _HALF_STEP), 0.1), Disk(_turned(0.9, 0.0, _HALF_STEP), 0.1)],
            0.6 / math.cos(0.002))
    return [hyperbola, line]


@pytest.mark.parametrize("disks, radius", _close_crossing_pairs(), ids=["hyperbola", "line"])
def test_boundary_crossings_closer_than_a_grid_step(disks, radius):
    acs = acs_of_disks(disks)
    assert _scan_crossings(acs, 0, 1, radius) == []  # the former grid scan misses both
    pts = _rim_pair(acs, 0, 1, radius)
    assert len(pts) == 2
    angles = [math.atan2(p.y, p.x) - _HALF_STEP for p in pts]
    assert angles == pytest.approx([-0.002, 0.002], abs=2e-5)
    for pt in pts:
        assert abs(pt.norm() - radius) <= 1e-12
        assert abs(delta(disks[0], pt) - delta(disks[1], pt)) <= 1e-12


@pytest.mark.parametrize("disks, radius, touch", [
    # the line x = 1 of two equal disks
    ([Disk(Point(0.7, 0.0), 0.1), Disk(Point(1.3, 0.0), 0.1)], 1.0, 0.0),
    # the hyperbola branch with apex (0.6, 0), flatter than the rim, turned by 0.3
    ([Disk(_turned(0.8, 0.0, 0.3), 0.05), Disk(_turned(0.2, 0.0, 0.3), 0.25)], 0.6, 0.3),
], ids=["line", "hyperbola"])
def test_boundary_crossings_tangent_bisector(disks, radius, touch):
    """The bisector touches the rim: the rim stage finds the double root
    twice, and the witness table keeps one rim row per owner at the touch
    point."""
    xy, owner, kind, _ = _witness_table(acs_of_disks(disks), radius)
    rim = kind == BOUNDARY_CROSSING
    assert owner[rim].tolist() == [0, 1]
    for x, y in xy[rim].tolist():
        pt = Point(x, y)
        assert pt.distance_to(_turned(radius, 0.0, touch)) <= 1e-8
        assert abs(pt.norm() - radius) <= 1e-12
        assert abs(delta(disks[0], pt) - delta(disks[1], pt)) <= 1e-12


def test_boundary_crossings_equal_radii_line(rng):
    """An equal-radius pair's bisector is the perpendicular bisector line of
    the centers; it meets the rim at arg(n) +- arccos(s / R), with n the
    unit vector between the centers and s the line's offset along n."""
    checked = 0
    while checked < 20:
        d1, d2 = _random_disk_pair(rng, distinct_radii=False)
        d2 = Disk(d2.center, d1.radius)
        radius = float(rng.uniform(0.3, 2.0))
        nx, ny = d2.center.x - d1.center.x, d2.center.y - d1.center.y
        norm = math.hypot(nx, ny)
        offset = ((d1.center.x + d2.center.x) * nx + (d1.center.y + d2.center.y) * ny) / (2.0 * norm)
        pts = _rim_pair(acs_of_disks([d1, d2]), 0, 1, radius)
        if abs(offset) >= radius:
            assert pts == []
            continue
        checked += 1
        base, arc = math.atan2(ny, nx), math.acos(offset / radius)
        want = sorted((Point(radius * math.cos(t), radius * math.sin(t)) for t in (base - arc, base + arc)),
                      key=lambda p: math.atan2(p.y, p.x))
        assert len(pts) == 2
        for p, q in zip(pts, want):
            assert p.distance_to(q) <= 1e-12


def test_vertex_sets_single_disk_empty():
    acs = build_acs(PupilConfig([Pupil(Point(2, 2), 0.3)], 1.0))
    vsets = vertex_sets(acs, 1.0)
    assert len(vsets) == 1
    assert vsets[0].points == ()


def test_vertex_sets_two_pupil_invariants():
    cfg = PupilConfig([Pupil(Point(0, 0), 0.3), Pupil(Point(1, 0), 0.2)], 1.0)
    acs = build_acs(cfg)
    vsets = vertex_sets(acs, 1.0)
    disks = acs_disks(acs)
    total = 0
    for vs in vsets:
        for pt, kind in vs.points:
            total += 1
            dmin, _ = delta_min(acs, pt)
            assert delta(disks[vs.disk], pt) <= dmin + 1e-9
            if kind == "boundary_crossing":
                assert abs(pt.norm() - 1.0) <= 1e-9
            else:
                assert pt.norm() <= 1.0 + 1e-9
                owners = [
                    k for k in range(acs.size)
                    if delta(disks[k], pt) <= dmin + 1e-9
                ]
                assert len(owners) >= 3
    assert total > 0


def test_vertex_sets_symmetric_triple_shares_centroid():
    side = 2.0 * math.sqrt(3.0)
    # three point pupils whose pairwise differences recreate the equilateral
    # triple is fiddly; instead feed the raw disks through the Acs wrapper
    acs = acs_of_disks(
        [
            Disk(Point(0.0, 2.0), 1.0),
            Disk(Point(-side / 2.0, -1.0), 1.0),
            Disk(Point(side / 2.0, -1.0), 1.0),
        ]
    )
    vsets = vertex_sets(acs, 10.0)
    for vs in vsets:
        assert any(
            pt.norm() <= 1e-6 and kind == "interior_vertex" for pt, kind in vs.points
        )


def test_vertex_reproduced_by_grid_scan(rng):
    """Every reported equal-distance vertex shows up in a dense local scan of
    the nearest-disk field as a point where three disks nearly tie."""
    cfg = PupilConfig(
        [
            Pupil(Point(0.0, 0.0), 0.2),
            Pupil(Point(0.5, 0.0), 0.1),
            Pupil(Point(-0.2, 0.4), 0.15),
        ],
        1.5,
    )
    acs = build_acs(cfg)
    vsets = vertex_sets(acs, 1.5)
    vertices = {
        (round(pt.x, 7), round(pt.y, 7))
        for vs in vsets
        for pt, kind in vs.points
        if kind == "interior_vertex"
    }
    assert vertices, "expected at least one interior vertex for this layout"
    centers = acs.centers
    radii = acs.radii
    for vx, vy in vertices:
        h = 0.004
        xs = np.linspace(vx - 0.04, vx + 0.04, 21)
        ys = np.linspace(vy - 0.04, vy + 0.04, 21)
        ok = False
        for gx in xs:
            for gy in ys:
                d = np.hypot(centers[:, 0] - gx, centers[:, 1] - gy) - radii
                lo = np.sort(d)
                if lo[2] - lo[0] <= 2.5 * h:
                    ok = True
                    break
            if ok:
                break
        assert ok, f"no three-way near-tie found near ({vx}, {vy})"


def _scan_crossings(acs, a, b, radius, *, samples=720, tol=TOL):
    """The former rim search, kept as a reference: sign changes of the
    difference of the two additive distances on a uniform angle grid, each
    bracket bisected until |f| <= 1e-15 or its width is 1e-14 (grid points
    with |f| <= 1e-15 are kept as they are), then the points where both disks
    attain the global minimum.  Two crossings closer than one grid step can
    be missed."""
    c = acs.centers
    rho = acs.radii

    def diff(t):
        x, y = radius * np.cos(t), radius * np.sin(t)
        return (np.hypot(x - c[a, 0], y - c[a, 1]) - rho[a]) \
            - (np.hypot(x - c[b, 0], y - c[b, 1]) - rho[b])

    step = 2.0 * math.pi / samples
    thetas = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    row = diff(thetas)
    roots = [float(t) for t in thetas[np.abs(row) <= 1e-15]]
    for k in np.flatnonzero((np.abs(row) > 1e-15) & (row * np.roll(row, -1) < 0.0)):
        lo, hi, flo = float(thetas[k]), float(thetas[k]) + step, float(row[k])
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = float(diff(mid))
            if abs(fm) <= 1e-15 or hi - lo <= 1e-14:
                lo = hi = mid
                break
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    out = []
    for t in roots:
        pt = Point(radius * math.cos(t), radius * math.sin(t))
        dmin, _ = delta_min(acs, pt)
        if delta(acs_disks(acs)[a], pt) <= dmin + tol and delta(acs_disks(acs)[b], pt) <= dmin + tol:
            out.append(pt)
    return out


def _reference_vertex_sets(acs, radius, *, tol=TOL):
    """Witness sets built one triple and one pair at a time from scalar
    pieces: the scalar solve of ``tests.reference`` and ``is_global_vertex``
    for the vertices, the grid scan ``_scan_crossings`` for the rim, owners
    by ``delta_min``."""
    disks = acs_disks(acs)

    def pair_ok(a, b):
        dist = disks[a].center.distance_to(disks[b].center)
        return dist > abs(disks[a].radius - disks[b].radius) and dist > tol

    found = []
    for a, b, c in combinations(range(acs.size), 3):
        if not (pair_ok(a, b) and pair_ok(a, c) and pair_ok(b, c)):
            continue
        try:
            sols = reference.tri_disk_vertices(disks[a], disks[b], disks[c])
        except DegenerateTriple:
            continue
        for pt, r in sols:
            if pt.norm() <= radius + tol and is_global_vertex(acs, pt, r):
                on_rim = abs(pt.norm() - radius) <= tol
                found.append((pt, "boundary_crossing" if on_rim else "interior_vertex"))
    for a, b in combinations(range(acs.size), 2):
        if pair_ok(a, b):
            found += [(pt, "boundary_crossing") for pt in _scan_crossings(acs, a, b, radius, tol=tol)]

    per_disk = [[] for _ in disks]
    for pt, kind in found:
        dmin, _ = delta_min(acs, pt)
        for k, disk in enumerate(disks):
            if delta(disk, pt) > dmin + tol:
                continue
            bucket = per_disk[k]
            same = [i for i, (q, _) in enumerate(bucket)
                    if abs(q.x - pt.x) <= 1e-8 and abs(q.y - pt.y) <= 1e-8]
            if not same:
                bucket.append((pt, kind))
            elif kind == "boundary_crossing":
                bucket[same[0]] = (bucket[same[0]][0], kind)
    return [VertexSet(k, tuple(sorted(b, key=lambda pk: (math.atan2(pk[0].y, pk[0].x),
                                                         pk[0].norm()))))
            for k, b in enumerate(per_disk)]


def _table_of(acs, radius, vsets):
    """The witness table (xy, owner, kind, value) holding the points of
    ``vsets`` and, last within its disk, each disk's diametral fallback
    unless one of the disk's points lies within 1e-8 of it."""
    codes = {"interior_vertex": INTERIOR_VERTEX, "boundary_crossing": BOUNDARY_CROSSING}
    c, rho = acs.centers, acs.radii
    fx, fy, fdk = _diametral_fallbacks(c[:, 0], c[:, 1], rho, radius)
    fallback = {k: (x, y) for x, y, k in zip(fx.tolist(), fy.tolist(), fdk.tolist())}
    rows = []
    for vs in vsets:
        rows += [(p.x, p.y, vs.disk, codes[kind]) for p, kind in vs.points]
        fb = fallback.get(vs.disk)
        if fb is not None and not any(abs(p.x - fb[0]) <= 1e-8 and abs(p.y - fb[1]) <= 1e-8
                                      for p, _ in vs.points):
            rows.append((*fb, vs.disk, DIAMETRAL))
    table = np.array(rows, dtype=float).reshape(-1, 4)
    owner = table[:, 2].astype(np.intp)
    value = np.hypot(table[:, 0] - c[owner, 0], table[:, 1] - c[owner, 1]) - rho[owner]
    return table[:, :2], owner, table[:, 3].astype(np.intp), value


def _equivalence_configs():
    rng = np.random.default_rng(31337)
    cfgs = []
    for n in (3, 4, 5, 6, 7):
        for _ in range(2):
            pupils = [Pupil(Point(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))),
                            float(rng.uniform(0.0, 0.3))) for _ in range(n)]
            cfgs.append(PupilConfig(pupils, 1.0))
    # at exactly the covering radius: merged concentric disks, equal radii on
    # lines, cocircular vertices shared by three or four cells
    cfgs.append(g4_lattice("square", math.sqrt(2.0) / 4.0, 2.5))
    cfgs.append(g4_lattice("triangular", 1.0 / (2.0 * math.sqrt(3.0)), 2.3))
    return cfgs


def _assert_contains(got, want):
    """Every witness of ``want`` is in ``got`` within 1e-9, with its kind."""
    assert [g.disk for g in got] == [w.disk for w in want]
    for g, w in zip(got, want):
        for q, qk in w.points:
            assert any(abs(p.x - q.x) <= 1e-9 and abs(p.y - q.y) <= 1e-9 and pk == qk
                       for p, pk in g.points), (g.disk, q, qk, g.points)


@pytest.mark.parametrize("cfg", _equivalence_configs(), ids=lambda c: f"n{c.n}")
def test_batched_vertex_sets_match_scalar_reference(cfg, monkeypatch):
    acs = build_acs(cfg)
    radius = cfg.objective_radius
    reference = _reference_vertex_sets(acs, radius)
    _assert_contains(vertex_sets(acs, radius), reference)

    # decide and alpha_star answer from the cell pass and the table of its
    # disks; build_analysis reads the table of all live disks.  Both go
    # through coverage's _witness_table, so both see the reference table.
    an = build_analysis(cfg)
    got = (an.decision(), an.worst_value, per_disk_alpha(cfg))
    assert (decide(cfg), alpha_star(cfg)) == got[:2]
    monkeypatch.setattr(pupilcover.coverage, "_witness_table",
                        lambda acs, radius, disks=None: _table_of(acs, radius, reference))
    an = build_analysis(cfg)
    want = (an.decision(), an.worst_value, per_disk_alpha(cfg))
    assert (decide(cfg), alpha_star(cfg)) == want[:2]
    assert got[0][0] == want[0][0]
    assert got[1] == pytest.approx(want[1], abs=1e-12)
    assert got[2].keys() == want[2].keys()
    for key, value in got[2].items():
        assert (value is None) == (want[2][key] is None), key
        if value is not None:
            assert value == pytest.approx(want[2][key], abs=1e-12)


def test_batched_vertex_sets_collinear_distinct_radii():
    acs = acs_of_disks([
        Disk(Point(-0.1951573433245739, 0.0), 0.42211552),
        Disk(Point(1.1930328243256465, 0.0), 0.19620233),
        Disk(Point(1.4225585797777662, 0.0), 0.24651151),
    ])
    got = vertex_sets(acs, 3.0)
    _assert_contains(got, _reference_vertex_sets(acs, 3.0))
    assert any(kind == "interior_vertex" for vs in got for _, kind in vs.points)


def test_vertex_sets_fewer_than_three_disks():
    acs = acs_of_disks([Disk(Point(-1, 0), 1.0), Disk(Point(1, 0), 1.0)])
    got = vertex_sets(acs, 2.0)
    assert all(kind == "boundary_crossing" for vs in got for _, kind in vs.points)
    _assert_contains(got, _reference_vertex_sets(acs, 2.0))
    far = acs_of_disks([Disk(Point(5.0, 0), 0.2), Disk(Point(6.0, 0), 0.2)])
    assert all(vs.points == () for vs in vertex_sets(far, 1.0))


@pytest.mark.parametrize("disks", [
    [Disk(Point(2.0, 2.0), r) for r in (0.1, 0.2, 0.3)],                        # concentric
    [Disk(Point(0, 0), 1.0), Disk(Point(0.1, 0), 0.5), Disk(Point(0, 0.1), 0.3)],  # nested
])
def test_vertex_sets_no_surviving_pair_is_all_empty(disks):
    vsets = vertex_sets(acs_of_disks(disks), 1.0)
    assert [vs.disk for vs in vsets] == [0, 1, 2]
    assert all(vs.points == () for vs in vsets)


def test_lattice_hole_vertex_once_per_owner():
    """On the g = 4 square lattice at its covering radius, four disks tie at
    the hole (0.5, 0.5), so every three of them give the same vertex; the
    table holds it once for each of the four owners and for no other disk,
    and no owner keeps two rows within 1e-8."""
    cfg = g4_lattice("square", math.sqrt(2.0) / 4.0, 2.5)
    acs = build_acs(cfg)
    centers = acs.centers
    tie = [k for k, c in enumerate(centers.tolist()) if c in ([0, 0], [1, 0], [0, 1], [1, 1])]
    assert len(tie) == 4
    copies = [pt for a, b, c in combinations(tie, 3)
              for pt, _ in reference.tri_disk_vertices(*(acs_disks(acs)[k] for k in (a, b, c)))
              if abs(pt.x - 0.5) <= 1e-8 and abs(pt.y - 0.5) <= 1e-8]
    assert len(copies) == 4

    xy, owner, kind, _ = _witness_table(acs, cfg.objective_radius)
    hole = np.flatnonzero((np.abs(xy[:, 0] - 0.5) <= 1e-8) & (np.abs(xy[:, 1] - 0.5) <= 1e-8))
    assert owner[hole].tolist() == tie
    assert (kind[hole] == INTERIOR_VERTEX).all()
    same = owner[:, None] == owner[None, :]
    close = (np.abs(xy[:, None] - xy[None, :]) <= 1e-8).all(axis=2)
    assert not (np.triu(same & close, 1)).any()
    vsets = vertex_sets(acs, cfg.objective_radius)
    for k in range(acs.size):
        got = [p for p, _ in vsets[k].points if abs(p.x - 0.5) <= 1e-8 and abs(p.y - 0.5) <= 1e-8]
        assert len(got) == (k in tie)


@pytest.mark.parametrize("inset", [0.0, 5e-9])
def test_rim_vertex_once_per_owner_as_crossing(inset):
    """Three equal disks about a point v at distance 1 - ``inset`` from the
    origin: v is their equal-distance vertex, and the three pair bisectors
    cross the rim (radius 1) within 1e-8 of it.  Each disk reports v once,
    as a boundary crossing: at inset 0 the vertex lies on the rim within
    tol; at inset 5e-9 it is an interior vertex whose kind the later rim
    crossings upgrade, and the vertex's own position is kept."""
    v = (1.0 - inset, 0.0)
    acs = acs_of_disks([Disk(Point(v[0] + 0.5 * math.cos(t), v[1] + 0.5 * math.sin(t)), 0.1)
                         for t in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)])
    xy, owner, kind, _ = _witness_table(acs, 1.0)
    at_v = np.flatnonzero((np.abs(xy[:, 0] - v[0]) <= 1e-8) & (np.abs(xy[:, 1] - v[1]) <= 1e-8))
    assert owner[at_v].tolist() == [0, 1, 2]
    assert (kind[at_v] == BOUNDARY_CROSSING).all()
    assert np.abs(np.hypot(xy[at_v, 0], xy[at_v, 1]) - v[0]).max() <= 1e-12
    for vs in vertex_sets(acs, 1.0):
        got = [(p, k) for p, k in vs.points if abs(p.x - v[0]) <= 1e-8 and abs(p.y - v[1]) <= 1e-8]
        assert len(got) == 1 and got[0][1] == "boundary_crossing"


def test_first_copies_compares_with_kept_rows_only():
    """A row is a copy only of an earlier row that is itself kept, and only
    within its owner: in a chain 0.8e-8 apart the third row is kept, because
    the row it is close to is a copy of the first."""
    xy = np.array([[0.0, 0.0], [0.8e-8, 0.0], [1.6e-8, 0.0], [0.0, 0.0], [0.8e-8, 0.5e-8]])
    owner = np.array([0, 0, 0, 1, 0])
    assert _first_copies(xy, owner, 1e-8).tolist() == [0, 0, 2, 3, 0]


def test_first_copies_matches_the_rule_on_clusters_and_lines():
    """Clusters on a lattice of fractions of the gap, some on one vertical
    line, so that close rows straddle the cell edges of both grids: every
    row is a copy of the first earlier kept row of its owner within the gap
    in both coordinates."""
    rng = np.random.default_rng(8)
    for t in range(400):
        gap = (1e-12, 1e-8, 0.5)[t % 3]
        k = int(rng.integers(1, 30))
        xy = rng.uniform(-3.0, 3.0, 2) + rng.integers(-8, 9, (k, 2)) * gap / rng.choice([1.0, 3.0, 4.0])
        if t % 4 == 0:
            xy[:, 0] = xy[0, 0]
        owner = rng.integers(0, 2, k)
        into = list(range(k))
        for j in range(k):
            into[j] = next((i for i in range(j) if into[i] == i and owner[i] == owner[j]
                            and np.abs(xy[i] - xy[j]).max() <= gap), j)
        assert _first_copies(xy, owner, gap).tolist() == into


def _far_and_contained(centers, radii, radius):
    """The disk prune that the cell mask replaced: drop the disks whose
    smallest additive distance over the objective exceeds another disk's
    largest one, and the disks strictly inside another."""
    slack = 4.0 * TOL + 2e-9
    norms = np.hypot(centers[:, 0], centers[:, 1])
    far = norms - radii - radius > (norms - radii + radius).min() + slack
    dist = np.hypot(centers[:, None, 0] - centers[None, :, 0],
                    centers[:, None, 1] - centers[None, :, 1])
    inside = (dist < radii[None, :] - radii[:, None] - slack).any(axis=1)
    return np.flatnonzero(~(far | inside))


def _mask_configs():
    """(label, config): seeded random n = 3-9 designs with small and large
    radii, the six g = 4 lattices and the ten acceptance-10 starts."""
    rng = np.random.default_rng(20261018)
    cases = []
    for n in range(3, 10):
        for top in (0.15, 0.4):
            pupils = [Pupil(Point(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))),
                            float(rng.uniform(0.0, top))) for _ in range(n)]
            cases.append((f"random n{n} r<={top}", PupilConfig(pupils, 1.0)))
    for kind, cover, radius in (("square", math.sqrt(2.0) / 2.0, 2.5),
                                ("triangular", 1.0 / math.sqrt(3.0), 2.3)):
        for factor in (0.9, 1.0, 1.1):
            cases.append((f"{kind} {factor}", g4_lattice(kind, 0.5 * cover * factor, radius)))
    cases.extend((f"start {seed}", near_collinear_start(seed)) for seed in range(10))
    return cases


@pytest.mark.parametrize("cfg", [pytest.param(c, id=label) for label, c in _mask_configs()])
def test_cell_mask_changes_no_witness(cfg, monkeypatch):
    """The witness table with the cell mask of ``_live_disks`` is
    bit-identical to the table with the far and containment prune."""
    acs = build_acs(cfg)
    got = _witness_table(acs, cfg.objective_radius)
    monkeypatch.setattr(pupilcover.apollonius, "_live_disks",
                        lambda *args: (_far_and_contained(*args), None))
    want = _witness_table(acs, cfg.objective_radius)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


def test_cell_mask_keeps_few_disks_on_prime_design():
    """Work pin: of the 289 difference disks of the p = 2 prime design (the
    far and containment prune keeps 197), at most 100 pass the cell mask."""
    cfg = prime_design(4.0, 1.0 / math.sqrt(2.0)).config
    acs = build_acs(cfg)
    assert acs.size == 289
    live, _ = _live_disks(acs.centers, acs.radii, cfg.objective_radius)
    assert live.size <= 100


def _decide_random_designs():
    """One round of designs like the decide-random benchmark's: n = 5 to 9
    pupils, centers uniform in [-1, 1]^2, radii uniform in [0, 0.15], R = 1."""
    rng = np.random.default_rng(11)
    return [PupilConfig([Pupil(Point(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0))),
                               float(rng.uniform(0.0, 0.15))) for _ in range(n)], 1.0)
            for n in (5, 7, 9, 7, 6, 7, 8, 7)]


def _chunk_designs():
    """(label, config): the decide-random round, the six g = 4 lattices, the
    ten acceptance-10 starts and the p = 2 prime design."""
    cases = [(f"random {k} n={cfg.n}", cfg) for k, cfg in enumerate(_decide_random_designs())]
    cases += [(f"{kind} rho={rho:.4f}", g4_lattice(kind, rho, radius))
              for kind, rho, radius in _G4_LATTICES]
    cases += [(f"start {seed}", near_collinear_start(seed)) for seed in range(10)]
    cases.append(("p = 2", prime_design(4.0, 1.0 / math.sqrt(2.0)).config))
    return cases


_CHUNK_DESIGNS = _chunk_designs()

#: The designs each chunk size runs on.  Sizes 1 and 7 make thousands of
#: chunks on the larger designs (about 90 s for size 1 on all of them), so
#: they run on the smaller ones.
_CHUNK_SUBSETS = {
    1: {"random 0 n=5"} | {f"start {seed}" for seed in range(10)},
    7: {"random 0 n=5", "random 4 n=6", "square rho=0.3182"} | {f"start {seed}" for seed in range(10)},
    256: {label for label, _ in _CHUNK_DESIGNS},
    1000: {label for label, _ in _CHUNK_DESIGNS},
}


def _table_bits(cfg):
    return [(a.dtype.str, a.shape, a.tobytes())
            for a in _witness_table(build_acs(cfg), cfg.objective_radius)]


@pytest.fixture(scope="module")
def default_chunk_tables():
    return {label: _table_bits(cfg) for label, cfg in _CHUNK_DESIGNS}


@pytest.mark.parametrize("chunk", sorted(_CHUNK_SUBSETS))
def test_witness_table_does_not_depend_on_chunk_size(chunk, default_chunk_tables, monkeypatch):
    """Every stage of the triple solve (seeds, polish, second-root check,
    global-minimum test) is elementwise per triple or per candidate and keeps
    the candidate order, so the witness table at any triple chunk size is
    bit-identical, dtypes included, to the one at the default size."""
    assert pupilcover.apollonius._TRIPLE_CHUNK not in _CHUNK_SUBSETS
    assert _CHUNK_SUBSETS[chunk] <= default_chunk_tables.keys()
    monkeypatch.setattr(pupilcover.apollonius, "_TRIPLE_CHUNK", chunk)
    for label, cfg in _CHUNK_DESIGNS:
        if label in _CHUNK_SUBSETS[chunk]:
            assert _table_bits(cfg) == default_chunk_tables[label], label


@pytest.mark.parametrize("cells", [1, 1 << 20])
def test_witness_table_does_not_depend_on_block_size(cells, default_chunk_tables, monkeypatch):
    """``_OWNER_CELLS`` sizes the row blocks of the triple enumeration as
    well as the point-by-disk blocks: at 1 every block is one row (and one
    point), at 2^20 one block holds all rows.  Neither changes a bit of the
    witness table, dtypes included, on the smaller designs."""
    monkeypatch.setattr(pupilcover.apollonius, "_OWNER_CELLS", cells)
    for label, cfg in _CHUNK_DESIGNS:
        if label in _CHUNK_SUBSETS[7]:
            assert _table_bits(cfg) == default_chunk_tables[label], label


def _brute_triples(ok: np.ndarray) -> np.ndarray:
    """The triples i < j < k whose three pairs are ``ok``, by brute force, as
    (3, triples) columns in lexicographic order."""
    found = [t for t in combinations(range(ok.shape[0]), 3)
             if ok[t[0], t[1]] and ok[t[0], t[2]] and ok[t[1], t[2]]]
    return np.array(found, dtype=np.intp).reshape(-1, 3).T


def _random_pair_masks():
    """Symmetric boolean masks of m = 0 to 40 disks at densities 0 to 1."""
    rng = np.random.default_rng(25)
    for m in (0, 1, 2, 3, 4, 7, 12, 20, 31, 40):
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            ok = np.triu(rng.random((m, m)) < density, 1)
            yield f"m={m} density={density}", ok | ok.T


def _p2_pair_ok():
    """``pair_ok`` of the witness table over the p = 2 design's live disks."""
    cfg = prime_design(4.0, 1.0 / math.sqrt(2.0)).config
    acs = build_acs(cfg)
    live, _ = _live_disks(acs.centers, acs.radii, cfg.objective_radius)
    cx, cy, rho = acs.centers[live, 0], acs.centers[live, 1], acs.radii[live]
    dist = np.hypot(cx[:, None] - cx[None, :], cy[:, None] - cy[None, :])
    return (dist > np.abs(rho[:, None] - rho[None, :])) & (dist > TOL)


@pytest.mark.parametrize("masks", [
    pytest.param(_random_pair_masks, id="random"),
    pytest.param(lambda: [(f"all true m={m}", np.ones((m, m), dtype=bool)) for m in (3, 17, 40)],
                 id="all true"),
    pytest.param(lambda: [(f"all false m={m}", np.zeros((m, m), dtype=bool)) for m in (3, 17, 40)],
                 id="all false"),
    pytest.param(lambda: [("p = 2", _p2_pair_ok())], id="p = 2"),
])
def test_triples_match_brute_force(masks):
    """``_triples`` yields exactly the brute-force triples, in lexicographic
    order, as intp columns cut into chunks of ``_TRIPLE_CHUNK`` with only
    the last shorter, and nothing at all for fewer than three disks."""
    chunk = pupilcover.apollonius._TRIPLE_CHUNK
    for label, ok in masks():
        got = list(pupilcover.apollonius._triples(ok))
        want = _brute_triples(ok)
        assert all(c.dtype == np.intp and c.shape[0] == 3 for c in got), label
        assert all(c.shape[1] == chunk for c in got[:-1]), label
        assert all(0 < c.shape[1] <= chunk for c in got), label
        if ok.shape[0] < 3:
            assert got == [], label
        both = np.concatenate(got, axis=1) if got else np.empty((3, 0), dtype=np.intp)
        assert np.array_equal(both, want), label


def _peak_kib(call, cfg) -> float:
    """Traced peak of one ``call(cfg)`` above what was allocated before it,
    in KiB, after one untraced warm-up call."""
    call(cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call(cfg)
        return (tracemalloc.get_traced_memory()[1] - base) / 1024.0
    finally:
        tracemalloc.stop()


_RANDOM_N9 = _decide_random_designs()[2]
_SQUARE_LATTICE = g4_lattice("square", 0.9 * math.sqrt(2.0) / 4.0, 2.5)


@pytest.mark.parametrize("cfg, measured", [
    pytest.param(_RANDOM_N9, 351, id="random n=9"),
    pytest.param(_SQUARE_LATTICE, 318, id="square lattice"),
])
def test_build_analysis_peak_memory(cfg, measured):
    """Memory guard: the benchmark's binding bound is its peak RSS, which
    the triple stage's chunk temporaries drive.  The traced peak of
    ``build_analysis`` (``measured`` KiB, numpy 2.4, when the triple chunk
    went to 512) stays under 1.5 times that: a chunk size or a held
    temporary that raises it by half fails here, as the earlier code at
    1024-triple chunks would."""
    if cfg.n == 9:
        assert not decide(cfg)[0]
    assert _peak_kib(pupilcover.coverage.build_analysis, cfg) <= 1.5 * measured


@pytest.mark.parametrize("cfg, measured", [
    pytest.param(_RANDOM_N9, 193, id="random n=9"),
    pytest.param(_SQUARE_LATTICE, 310, id="square lattice"),
])
def test_decide_peak_memory(cfg, measured):
    """The same guard for ``decide``, whose cell pass builds the witness
    table on the disks near the maximum: 9 of 45 live disks on the random
    design, and 25 of 37 on the lattice, whose holes all tie.  The traced
    peak (``measured`` KiB, numpy 2.4) stays under 1.5 times that."""
    assert _peak_kib(pupilcover.coverage.decide, cfg) <= 1.5 * measured
