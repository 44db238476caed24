import math
import warnings

import numpy as np
import pytest

from pupilcover import (
    MERGE_TOL,
    Disk,
    Point,
    Pupil,
    PupilConfig,
    build_acs,
    delta_min,
    prime_design,
)
from tests.conftest import acs_disks, g4_lattice, random_config
from tests.reference import delta, minkowski_diff


def test_delta_center_boundary_outside():
    d = Disk(Point(0, 0), 1.0)
    assert delta(d, Point(0, 0)) == -1.0
    assert delta(d, Point(1, 0)) == 0.0
    assert delta(d, Point(3, 4)) == 4.0  # 3-4-5 triangle minus radius


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point(0.0, float("inf"))


def test_disk_rejects_negative_radius():
    with pytest.raises(ValueError):
        Disk(Point(0, 0), -0.1)


def test_delta_min_single_disk():
    acs = build_acs(PupilConfig([Pupil(Point(0, 0), 0.5)], 1.0))
    val, idx = delta_min(acs, Point(3, 4))
    assert val == pytest.approx(4.0)
    assert idx == 0


def test_delta_min_tie_breaks_to_lowest_index():
    cfg = PupilConfig([Pupil(Point(0, 0), 0.5), Pupil(Point(4, 0), 0.5)], 1.0)
    acs = build_acs(cfg)
    # disks: (0,0) at origin r=1, (0,1) at (-4,0) r=1, (1,0) at (4,0) r=1
    val, idx = delta_min(acs, Point(0, 0))
    assert val == pytest.approx(-1.0)
    assert idx == 0
    # midpoint between the origin disk and the (4,0) disk
    val, idx = delta_min(acs, Point(2, 0))
    assert val == pytest.approx(1.0)
    assert idx == 0


def test_minkowski_diff_cases():
    p = Pupil(Point(3, 1), 0.5)
    assert minkowski_diff(p, p) == Disk(Point(0, 0), 1.0)
    a = Pupil(Point(1, 0), 0.5)
    b = Pupil(Point(0, 1), 0.25)
    assert minkowski_diff(a, b) == Disk(Point(1, -1), 0.75)
    pa = Pupil(Point(0.25, 0.5), 0.0)
    pb = Pupil(Point(-0.5, 0.25), 0.0)
    d = minkowski_diff(pa, pb)
    assert d.radius == 0.0
    assert d.center == Point(0.75, 0.25)


def test_build_acs_single_pupil():
    acs = build_acs(PupilConfig([Pupil(Point(5, 5), 0.3)], 1.0))
    assert acs.size == 1 and acs.n == 1
    assert acs.centers.tolist() == [[0.0, 0.0]]
    assert acs.radii[0] == pytest.approx(0.6)
    assert acs.pair_disk.tolist() == [[0]]


def test_build_acs_two_pupils_merges_diagonal():
    cfg = PupilConfig([Pupil(Point(0, 0), 0.3), Pupil(Point(1, 0), 0.2)], 1.0)
    acs = build_acs(cfg)
    assert acs.size == 3
    # disks in representative order (0, 0), (0, 1), (1, 0); (1, 1) merged
    # into the origin disk of (0, 0)
    assert acs.pair_disk.dtype == np.int32
    assert acs.pair_disk.tolist() == [[0, 1], [2, 0]]
    assert acs.centers.tolist() == [[0.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]
    assert acs.radii[0] == pytest.approx(0.6)
    assert acs.radii[1] == pytest.approx(0.5)
    assert acs.radii[2] == pytest.approx(0.5)


def test_acs_central_symmetry(rng):
    for _ in range(5):
        cfg = random_config(rng, int(rng.integers(1, 6)))
        acs = build_acs(cfg)
        entries = sorted(
            (round(x, 9), round(y, 9), round(r, 9))
            for (x, y), r in zip(acs.centers.tolist(), acs.radii.tolist())
        )
        mirrored = sorted(
            (round(-x, 9), round(-y, 9), round(r, 9))
            for (x, y), r in zip(acs.centers.tolist(), acs.radii.tolist())
        )
        assert entries == mirrored


def test_acs_merge_invariants(rng):
    for _ in range(5):
        cfg = random_config(rng, int(rng.integers(2, 6)))
        acs = build_acs(cfg)
        assert acs.pair_disk.shape == (cfg.n, cfg.n) and acs.n == cfg.n
        # every disk absorbed at least one label
        assert sorted(set(acs.pair_disk.ravel().tolist())) == list(range(acs.size))
        reps = []
        for k in range(acs.size):
            labels = [(int(i), int(j)) for i, j in np.argwhere(acs.pair_disk == k)]
            for i, j in labels:
                qi, qj = cfg.pupils[i], cfg.pupils[j]
                assert abs((qi.center.x - qj.center.x) - acs.centers[k, 0]) <= 1e-12
                assert abs((qi.center.y - qj.center.y) - acs.centers[k, 1]) <= 1e-12
                assert qi.radius + qj.radius <= acs.radii[k] + 1e-12
            # representative label reproduces its own center and radius
            i, j = max(labels, key=lambda lab: (cfg.radii[lab[0]] + cfg.radii[lab[1]],
                                                -lab[0], -lab[1]))
            pi, pj = cfg.pupils[i], cfg.pupils[j]
            assert acs.centers[k, 0] == pytest.approx(pi.center.x - pj.center.x, abs=1e-12)
            assert acs.radii[k] == pytest.approx(pi.radius + pj.radius, abs=1e-12)
            reps.append((i, j))
        assert reps == sorted(reps)
        # exactly one origin-centered disk survives, at twice the max radius,
        # and it holds every diagonal label
        at_origin = np.flatnonzero(np.hypot(acs.centers[:, 0], acs.centers[:, 1]) <= 1e-12)
        assert at_origin.tolist() == [acs.pair_disk[0, 0]]
        assert (np.diag(acs.pair_disk) == acs.pair_disk[0, 0]).all()
        assert acs.radii[acs.pair_disk[0, 0]] == pytest.approx(2.0 * max(cfg.radii), abs=1e-12)


def _brute_force_acs(cfg):
    """The merge rule spelled out: the n^2 labels in row-major order, each
    joining the group of the first root within MERGE_TOL in both
    coordinates, else starting one; a group's representative is its largest
    radius, ties to the smallest label, and disks follow their
    representatives.  Returns centers, radii and the pair-to-disk index."""
    entries = [(i, j, p.center.x - q.center.x, p.center.y - q.center.y, p.radius + q.radius)
               for i, p in enumerate(cfg.pupils) for j, q in enumerate(cfg.pupils)]
    groups = []
    for e in entries:
        for g in groups:
            if abs(g[0][2] - e[2]) <= MERGE_TOL and abs(g[0][3] - e[3]) <= MERGE_TOL:
                g.append(e)
                break
        else:
            groups.append([e])
    reps = [max(g, key=lambda e: (e[4], -e[0], -e[1])) for g in groups]
    order = sorted(range(len(groups)), key=lambda g: reps[g][:2])
    pair_disk = [[0] * cfg.n for _ in range(cfg.n)]
    for k, g in enumerate(order):
        for e in groups[g]:
            pair_disk[e[0]][e[1]] = k
    return ([[reps[g][2], reps[g][3]] for g in order], [reps[g][4] for g in order], pair_disk)


_DUPLICATES = [
    # identical pupils, one pupil repeated with another radius, centers
    # that agree only to rounding (0.1 + 0.2 against 0.3), and a chain
    # 0.7e-12 apart: label (0, 2) at -1.4e-12 is beyond MERGE_TOL of the
    # origin and starts a group, and label (1, 2) at -0.7e-12, within
    # MERGE_TOL of both roots, joins the origin's, the earlier one
    PupilConfig([Pupil(Point(0.1, 0.2), 0.2), Pupil(Point(0.1, 0.2), 0.2),
                 Pupil(Point(-0.3, 0.1), 0.15)], 1.0),
    PupilConfig([Pupil(Point(0.1, 0.2), 0.2), Pupil(Point(0.1, 0.2), 0.1),
                 Pupil(Point(-0.3, 0.1), 0.15), Pupil(Point(0.1, 0.2), 0.2)], 1.0),
    PupilConfig([Pupil(Point(0.1 + 0.2, 0.0), 0.1), Pupil(Point(0.3, 0.0), 0.2),
                 Pupil(Point(0.0, 0.0), 0.1), Pupil(Point(0.6, 0.0), 0.05)], 1.0),
    PupilConfig([Pupil(Point(0.0, 0.0), 0.1), Pupil(Point(0.7e-12, 0.0), 0.2),
                 Pupil(Point(1.4e-12, 0.0), 0.3)], 1.0),
]


@pytest.mark.parametrize("cfg", [
    *_DUPLICATES,
    *(g4_lattice(kind, factor * rho, radius)
      for kind, rho, radius in (("square", math.sqrt(2.0) / 4.0, 2.5),
                                ("triangular", 1.0 / (2.0 * math.sqrt(3.0)), 2.3))
      for factor in (0.9, 1.0, 1.1)),
    prime_design(4.0, 1.0 / math.sqrt(2.0)).config,
], ids=[*(f"duplicates{k}" for k in range(len(_DUPLICATES))),
        *(f"g4 {kind} {factor}" for kind in ("square", "triangular") for factor in (0.9, 1.0, 1.1)),
        "prime p=2"])
def test_build_acs_matches_brute_force_grouping(cfg):
    centers, radii, pair_disk = _brute_force_acs(cfg)
    acs = build_acs(cfg)
    assert acs.centers.tolist() == centers
    assert acs.radii.tolist() == radii
    assert acs.pair_disk.tolist() == pair_disk


@pytest.mark.parametrize("pupils", [
    [Pupil(Point(-1e308, 0.0), 0.1), Pupil(Point(1e308, 0.0), 0.1)],
    [Pupil(Point(0.0, -1e308), 0.1), Pupil(Point(0.0, 1e308), 0.1)],
    [Pupil(Point(0.0, 0.0), 1e308), Pupil(Point(1.0, 0.0), 0.1)],
], ids=["x spread", "y spread", "radius"])
def test_config_rejects_overflowing_difference_disks(pupils):
    with pytest.raises(ValueError, match="overflow"):
        PupilConfig(pupils, 1.0)


def test_build_acs_far_apart_pupils():
    """Centers 1e300 apart, or so far apart that the steps between their
    differences overflow, still merge exactly and without a warning."""
    for cfg in (PupilConfig([Pupil(Point(0.0, 0.0), 0.1), Pupil(Point(1e300, -1e300), 0.2),
                             Pupil(Point(0.0, 0.0), 0.3)], 1.0),
                PupilConfig([Pupil(Point(0.0, 6e307), 0.1), Pupil(Point(0.0, -6e307), 0.1),
                             Pupil(Point(1e307, 0.0), 0.1)], 1.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acs = build_acs(cfg)
        assert acs.centers.tolist() == _brute_force_acs(cfg)[0]
        assert acs.pair_disk.tolist() == _brute_force_acs(cfg)[2]


def test_dedup_preserves_union(rng):
    cfg = random_config(rng, 4)
    acs = build_acs(cfg)
    full = [minkowski_diff(p, q) for p in cfg.pupils for q in cfg.pupils]
    pts = rng.uniform(-2.0, 2.0, size=(1000, 2))
    for x, y in pts:
        pt = Point(float(x), float(y))
        in_dedup = delta_min(acs, pt)[0] <= 0.0
        in_full = min(delta(d, pt) for d in full) <= 0.0
        assert in_dedup == in_full


def test_delta_is_1_lipschitz(rng):
    cfg = random_config(rng, 3)
    acs = build_acs(cfg)
    for _ in range(200):
        a = Point(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        b = Point(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        for d in acs_disks(acs):
            assert abs(delta(d, a) - delta(d, b)) <= a.distance_to(b) + 1e-12


def test_delta_matches_minkowski_formula(rng):
    for _ in range(50):
        p = Pupil(Point(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))), float(rng.uniform(0, 0.5)))
        q = Pupil(Point(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))), float(rng.uniform(0, 0.5)))
        x = Point(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        d = minkowski_diff(p, q)
        expected = math.hypot(
            x.x - (p.center.x - q.center.x), x.y - (p.center.y - q.center.y)
        ) - (p.radius + q.radius)
        assert delta(d, x) == pytest.approx(expected, abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        PupilConfig([], 1.0)
    with pytest.raises(ValueError):
        PupilConfig([Pupil(Point(0, 0), 0.1)], 0.0)
    cfg = PupilConfig([Pupil(Point(0, 0), 0.1)], 1.0)
    assert cfg.with_radii([0.2]).radii == (0.2,)
    assert cfg.enlarged(0.05).radii == (pytest.approx(0.15),)


def _pupils(rows):
    return [Pupil(Point(float(x), float(y)), float(r)) for x, y, r in rows]


def test_config_equality_and_hash_follow_the_pupil_tuples():
    """Equality and hashing are those of the (pupils, objective radius)
    tuples that configurations held as ``Pupil`` objects: 0.0 equals -0.0,
    and equal configurations hash alike."""
    rows = [(0.0, 0.5, 0.1), (-0.3, 0.0, 0.2), (0.25, -0.75, 0.0)]
    a = PupilConfig(_pupils(rows), 1.0)
    signed = PupilConfig(_pupils([(-0.0, 0.5, 0.1), (-0.3, -0.0, 0.2), (0.25, -0.75, -0.0)]), 1.0)
    others = [signed, PupilConfig(_pupils(rows), 2.0), PupilConfig(_pupils(rows[:2]), 1.0),
              PupilConfig(_pupils(rows[::-1]), 1.0), a.with_radii([0.1, 0.2, 1e-300])]
    for b in [a] + others:
        assert (a == b) == ((a.pupils, a.objective_radius) == (b.pupils, b.objective_radius))
        if a == b:
            assert hash(a) == hash(b)
    assert a == signed and hash(a) == hash(signed)
    assert sum(a == b for b in others) == 1
    assert a != rows and a != None  # noqa: E711
    assert len({a, signed, PupilConfig(a.pupils, 1.0)}) == 1


def test_config_is_one_read_only_array():
    cfg = PupilConfig(_pupils([(0.0, 0.5, 0.1), (-0.3, 0.0, 0.2)]), 1.0)
    assert cfg.xyr.shape == (2, 3) and cfg.xyr.dtype == np.float64
    assert cfg.xyr.tolist() == [[0.0, 0.5, 0.1], [-0.3, 0.0, 0.2]]
    for made in (cfg, cfg.with_radii([0.3, 0.4]), cfg.with_centers(cfg.centers), cfg.enlarged(0.1)):
        with pytest.raises(ValueError, match="read-only"):
            made.xyr[0, 2] = 0.5
    for name in ("xyr", "objective_radius", "pupils"):
        with pytest.raises(AttributeError):
            setattr(cfg, name, None)
    assert cfg.xyr[0, 2] == 0.1 and cfg.objective_radius == 1.0


def test_config_errors_keep_their_messages():
    cfg = PupilConfig(_pupils([(0.0, 0.5, 0.1), (-0.3, 0.0, 0.2)]), 1.0)
    with pytest.raises(ValueError, match=r"^non-finite point \(nan, 0.0\)$"):
        PupilConfig([Pupil(Point(float("nan"), 0.0), 0.1)], 1.0)
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=rf"^invalid pupil radius {bad}$"):
            PupilConfig([Pupil(Point(0.0, 0.0), bad)], 1.0)
        with pytest.raises(ValueError, match=rf"^invalid pupil radius {bad}$"):
            cfg.with_radii([0.1, bad])
    too_large = "^pupil centers or radii too large: the difference disks overflow$"
    with pytest.raises(ValueError, match=too_large):
        cfg.with_radii([1e308, 0.1])
    with pytest.raises(ValueError, match=too_large):
        cfg.with_centers([Point(-1e308, 0.0), Point(1e308, 0.0)])
    with pytest.raises(ValueError, match="^radius count does not match pupil count$"):
        cfg.with_radii([0.1])
    with pytest.raises(ValueError, match="^center count does not match pupil count$"):
        cfg.with_centers([Point(0.0, 0.0)])
    with pytest.raises(ValueError, match="^objective radius must be positive, got -1$"):
        PupilConfig(cfg.pupils, -1)


def test_config_round_trips(rng):
    cfg = random_config(rng, 7)
    assert PupilConfig(cfg.pupils, cfg.objective_radius) == cfg
    assert cfg.with_radii(cfg.radii) == cfg
    assert cfg.with_centers(cfg.centers) == cfg
    radii = tuple(rng.uniform(0.0, 0.3, 7).tolist())
    centers = tuple(Point(float(x), float(y)) for x, y in rng.uniform(-1.0, 1.0, (7, 2)))
    moved = cfg.with_radii(radii).with_centers(centers)
    assert moved.radii == radii and moved.centers == centers
    assert moved.pupils == tuple(Pupil(c, r) for c, r in zip(centers, radii))
    assert all(type(r) is float for r in moved.radii)
    assert moved.with_radii(cfg.radii).with_centers(cfg.centers) == cfg
    assert eval(repr(cfg), {"PupilConfig": PupilConfig, "Pupil": Pupil, "Point": Point}) == cfg


def test_config_keeps_fewer_bytes_than_pupil_objects():
    """A 9-pupil configuration keeps less than half the bytes that its
    pupils took as a tuple of ``Pupil`` and ``Point`` objects with their
    floats, measured under tracemalloc over 50 configurations."""
    import tracemalloc
    rows = np.random.default_rng(5).uniform(0.0, 0.1, (50, 9, 3))
    PupilConfig(_pupils(rows[0]), 1.0)
    tracemalloc.start()
    try:
        held = [tuple(_pupils(r)) for r in rows]
        objects = tracemalloc.get_traced_memory()[0]
        del held
        tracemalloc.clear_traces()
        held = [PupilConfig(_pupils(r), 1.0) for r in rows]
        arrays = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert arrays < 0.5 * objects, (arrays, objects)
