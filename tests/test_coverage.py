import ast
import math
from collections.abc import Mapping

import numpy as np
import pytest

from pupilcover import (
    NoCoverage,
    Point,
    Pupil,
    PupilConfig,
    alpha_star,
    analyze,
    build_acs,
    coverage_oracle,
    decide,
    delta_min,
    max_objective,
    per_disk_alpha,
    prime_design,
    vertex_sets,
)
from pupilcover.apollonius import BOUNDARY_CROSSING
from pupilcover.coverage import DIAMETRAL, _covers_trivially, build_analysis
from pupilcover.geom import TOL
from tests.conftest import acs_disks, count_calls, g4_lattice, near_collinear_start, random_config
from tests.reference import alpha_star_bounds
from tests.reference import max_objective as reference_max_objective


def two_pupil_example() -> PupilConfig:
    return PupilConfig([Pupil(Point(0, 0), 0.3), Pupil(Point(1, 0), 0.2)], 1.0)


def test_decide_single_pupil_exact_cover():
    cfg = PupilConfig([Pupil(Point(0, 0), 0.5)], 1.0)
    assert decide(cfg) == (True, None)


def test_decide_single_pupil_uncovered():
    cfg = PupilConfig([Pupil(Point(0, 0), 0.3)], 1.0)
    covered, witness = decide(cfg)
    assert not covered
    assert witness is not None
    assert witness.norm() == pytest.approx(1.0, abs=1e-9)


def test_decide_two_pupils_uncovered_with_valid_witness():
    cfg = two_pupil_example()
    covered, witness = decide(cfg)
    assert not covered
    acs = build_acs(cfg)
    val, _ = delta_min(acs, witness)
    # the worst gap for this layout is 0.4 (attained on whole rim arcs)
    assert val == pytest.approx(0.4, abs=1e-9)
    ok, sample = coverage_oracle(cfg, 256)
    assert not ok
    smin, _ = delta_min(acs, sample)
    assert smin > 0


def test_decide_early_exit_on_big_pupil():
    cfg = PupilConfig([Pupil(Point(7, -3), 0.6)], 1.0)  # 2*rho > R anywhere
    assert decide(cfg) == (True, None)


def test_covered_flag_takes_the_trivial_cover():
    """A pupil of radius R/2 covers the objective on its own, so every
    verdict says covered, although at R near 3.8e9 the rim witnesses round
    to an additive distance beyond the absolute TOL."""
    R = 3795267259.6578326
    cfg = PupilConfig([Pupil(Point(-149994945.70572662, -1905619719.2136812), 846760740.2410753),
                       Pupil(Point(3414282291.498467, -3256135166.3869324), R / 2.0)], R)
    an = build_analysis(cfg)
    assert an.worst_value > TOL
    assert an.covered and an.decision() == (True, None) == decide(cfg)
    report = analyze(cfg)
    assert report.covered and report.witness is None


def test_coverage_oracle_single_pupil():
    assert coverage_oracle(PupilConfig([Pupil(Point(0, 0), 0.5)], 1.0), 256)[0]
    ok, sample = coverage_oracle(PupilConfig([Pupil(Point(0, 0), 0.3)], 1.0), 256)
    assert not ok
    assert sample.norm() > 0.6


def test_coverage_oracle_rejects_small_resolution():
    with pytest.raises(ValueError):
        coverage_oracle(two_pupil_example(), 8)


def test_decide_agrees_with_oracle(rng):
    """Provable-disagreement count must be zero: an uncovered oracle sample
    refutes a positive decision, and a negative decision must carry a witness
    that direct evaluation confirms uncovered."""
    for _ in range(60):
        cfg = random_config(rng, int(rng.integers(1, 6)))
        covered, witness = decide(cfg)
        oracle_ok, sample = coverage_oracle(cfg, 512)
        acs = build_acs(cfg)
        if covered:
            assert oracle_ok, f"decide said covered, oracle found {sample}"
        else:
            val, _ = delta_min(acs, witness)
            assert val > 0, "witness is not actually uncovered"


def test_alpha_star_single_pupil_closed_form():
    assert alpha_star(PupilConfig([Pupil(Point(0, 0), 0.3)], 1.0)) == pytest.approx(0.4, abs=1e-12)
    assert alpha_star(PupilConfig([Pupil(Point(0, 0), 0.5)], 1.0)) == pytest.approx(0.0, abs=1e-9)


def test_alpha_star_sharpness_two_pupils():
    cfg = two_pupil_example()
    a = alpha_star(cfg)
    assert a == pytest.approx(0.4, abs=1e-9)
    assert decide(cfg.enlarged(a / 2.0 + 1e-9))[0]
    assert not decide(cfg.enlarged((a - 1e-6) / 2.0))[0]


def test_alpha_star_matches_enlargement_bisection_oracle():
    """Bracket the minimal uniform enlargement with the sampling oracle; the
    grid's rim margin limits the bracket to ~R/100 accuracy."""
    cfg = two_pupil_example()
    lo, hi = 0.0, 2.0
    for _ in range(18):
        mid = 0.5 * (lo + hi)
        if coverage_oracle(cfg.enlarged(mid / 2.0), 700)[0]:
            hi = mid
        else:
            lo = mid
    assert alpha_star(cfg) == pytest.approx(0.5 * (lo + hi), abs=0.02)


def test_per_disk_alpha_single_pupil():
    alphas = per_disk_alpha(PupilConfig([Pupil(Point(0, 0), 0.3)], 1.0))
    assert alphas == {(0, 0): pytest.approx(0.4)}


def test_single_pupil_has_one_diametral_row():
    """One pupil off the origin: its one difference disk is origin-centered
    (radius 0.6), owns the whole rim and has no cell boundary, so its only
    witness is the diametral fallback (R, 0), at additive distance 0.4."""
    cfg = PupilConfig([Pupil(Point(0.2, 0.1), 0.3)], 1.0)
    an = build_analysis(cfg)
    assert an.xy.tolist() == [[1.0, 0.0]]
    assert an.owner.tolist() == [0]
    assert an.kind.tolist() == [DIAMETRAL]
    assert an.worst_value == pytest.approx(0.4, abs=1e-12)
    assert alpha_star(cfg) == an.worst_value


def _origin_rows(dy):
    """Pupils (0, 0) and (-1, -dy), radius 0.1, R = 1: the difference disks
    are the origin disk O (radius 0.2) and (+-1, +-dy) (radius 0.2).  O owns
    its fallback (1, 0); at dy = 1 the bisector of O and (1, 1), the line
    x + y = 1, crosses the rim there.  Returns the analysis, O's index and
    O's rows."""
    an = build_analysis(PupilConfig([Pupil(Point(0.0, 0.0), 0.1), Pupil(Point(-1.0, -dy), 0.1)], 1.0))
    o = int(an.acs.pair_disk[0, 0])
    rows = np.flatnonzero(an.owner == o)
    return an, o, rows


def test_fallback_within_1e8_of_a_row_of_its_disk_is_dropped():
    an, o, rows = _origin_rows(1.0)
    at = rows[(np.abs(an.xy[rows] - [1.0, 0.0]) <= 1e-8).all(axis=1)]
    assert at.size == 1
    assert an.kind[at[0]] == BOUNDARY_CROSSING
    assert (an.kind[rows] != DIAMETRAL).all()


def test_fallback_comes_last_within_its_disk():
    """At dy = 1.2 no bisector meets (1, 0), so O keeps its fallback there,
    after its four rim crossings, though its angle (0) lies between theirs."""
    an, o, rows = _origin_rows(1.2)
    assert an.kind[rows].tolist() == [BOUNDARY_CROSSING] * 4 + [DIAMETRAL]
    assert an.xy[rows[-1]].tolist() == [1.0, 0.0]
    angles = np.arctan2(an.xy[rows, 1], an.xy[rows, 0])
    assert np.all(np.diff(angles[:-1]) >= 0.0)
    assert angles[0] < 0.0 < angles[-2]
    assert (an.owner[an.kind == DIAMETRAL] == o).all()


@pytest.mark.parametrize("dy", [1.0, 1.2])
def test_vertex_sets_hold_no_fallback(dy):
    """``vertex_sets`` lists the analysis's rows other than the diametral
    fallback (present at dy = 1.2), disk by disk, in order."""
    an, _, _ = _origin_rows(dy)
    assert np.count_nonzero(an.kind == DIAMETRAL) == (dy == 1.2)
    got = [(vs.disk, p.x, p.y) for vs in vertex_sets(an.acs, 1.0) for p, _ in vs.points]
    table = an.kind != DIAMETRAL
    assert got == [(k, x, y) for k, (x, y) in zip(an.owner[table].tolist(), an.xy[table].tolist())]


def test_per_disk_alpha_covered_config_nonpositive(rng):
    found = 0
    while found < 5:
        cfg = random_config(rng, int(rng.integers(1, 5)))
        if not decide(cfg)[0]:
            continue
        found += 1
        alphas = per_disk_alpha(cfg)
        for v in alphas.values():
            assert v is None or v <= 1e-9


def test_alpha_sign_matches_decision(rng):
    for _ in range(10):
        cfg = random_config(rng, int(rng.integers(1, 6)))
        assert (alpha_star(cfg) <= 1e-9) == decide(cfg)[0]


def test_per_disk_alpha_max_is_alpha_star(rng):
    for _ in range(10):
        cfg = random_config(rng, int(rng.integers(1, 6)))
        alphas = per_disk_alpha(cfg)
        best = max(v for v in alphas.values() if v is not None)
        assert best == pytest.approx(alpha_star(cfg), abs=1e-12)


def test_per_disk_alpha_fans_out_to_merged_labels():
    cfg = two_pupil_example()
    alphas = per_disk_alpha(cfg)
    assert set(alphas) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    # the merged diagonal label carries the representative's value
    assert alphas[(1, 1)] == alphas[(0, 0)]


def test_independent_enlargement_covers(rng):
    """Growing every difference disk by its own signed enlargement (clamped
    at zero) yields a covering configuration."""
    for _ in range(5):
        cfg = random_config(rng, int(rng.integers(2, 5)))
        alphas = per_disk_alpha(cfg)
        # realize the per-disk growth through pupil radii via the largest need
        worst = max((v for v in alphas.values() if v is not None), default=0.0)
        grown = cfg.enlarged(max(worst, 0.0) / 2.0 + 1e-9)
        assert decide(grown)[0]


def test_independent_disk_level_enlargement_covers(rng):
    """Disk-level version: enlarge each deduplicated difference disk by its
    own clamped enlargement and verify by dense sampling that the enlarged
    union covers the objective."""
    for _ in range(5):
        cfg = random_config(rng, int(rng.integers(2, 5)))
        acs = build_acs(cfg)
        alphas = per_disk_alpha(cfg)
        grown = []
        for k, d in enumerate(acs_disks(acs)):
            a = alphas[tuple(np.argwhere(acs.pair_disk == k)[0].tolist())]
            bump = max(a, 0.0) if a is not None else 0.0
            grown.append((d.center, d.radius + bump + 1e-9))
        radius = cfg.objective_radius
        thetas = np.linspace(0.0, 2.0 * math.pi, 400, endpoint=False)
        for rr in np.linspace(0.0, radius, 60):
            xs = rr * np.cos(thetas)
            ys = rr * np.sin(thetas)
            best = np.full(xs.shape, np.inf)
            for center, rad in grown:
                best = np.minimum(best, np.hypot(xs - center.x, ys - center.y) - rad)
            assert float(best.max()) <= 1e-9


def test_max_objective_single_pupil_exact():
    assert max_objective(PupilConfig([Pupil(Point(0, 0), 0.4)], 1.0)) == 0.8
    assert max_objective(PupilConfig([Pupil(Point(3, -2), 0.4)], 1.0)) == 0.8


def test_max_objective_two_pupil_example():
    cfg = two_pupil_example()
    r_star = max_objective(cfg)
    assert r_star == pytest.approx(0.6, abs=1e-9)
    shrunk = PupilConfig(cfg.pupils, r_star - 1e-6)
    assert decide(shrunk)[0]
    grown = PupilConfig(cfg.pupils, r_star + 1e-4)
    assert not decide(grown)[0]


def test_max_objective_zero_radius_pupils_raise():
    cfg = PupilConfig([Pupil(Point(0, 0), 0.0), Pupil(Point(0.5, 0.1), 0.0)], 1.0)
    with pytest.raises(NoCoverage):
        max_objective(cfg)


def test_max_objective_monotone(rng):
    for _ in range(5):
        cfg = random_config(rng, int(rng.integers(2, 5)))
        if max(cfg.radii) == 0.0:
            continue
        r_star = max_objective(cfg)
        assert decide(PupilConfig(cfg.pupils, r_star * (1 - 1e-4)))[0]
        assert not decide(PupilConfig(cfg.pupils, r_star + 1e-4))[0]


def test_analyze_report_consistent():
    cfg = two_pupil_example()
    report = analyze(cfg)
    assert not report.covered
    assert report.alpha_star == pytest.approx(0.4, abs=1e-9)
    assert report.r_star == pytest.approx(0.6, abs=1e-9)
    assert report.witness is not None
    assert max(v for v in report.per_disk_alpha.values() if v is not None) == pytest.approx(
        report.alpha_star
    )


@pytest.mark.parametrize("kind, rho, radius, expected", [
    ("square", math.sqrt(2.0) / 4.0, 2.5, 3.5355339059327378),
    ("triangular", 1.0 / (2.0 * math.sqrt(3.0)), 2.3, 2.886751345948129),
])
def test_max_objective_tangent_lattice_corners_are_covered(kind, rho, radius, expected):
    """At exactly the covering radius four (square) or three (triangular)
    disks meet at each lattice hole; those tie-level points are covered, not
    exposed corners, so r_star matches a design grown by 1e-6."""
    cfg = g4_lattice(kind, rho, radius)
    assert decide(cfg)[0]
    r_star = analyze(cfg).r_star
    assert r_star == pytest.approx(expected, abs=1e-9)
    grown = max_objective(cfg.with_radii([rho + 1e-6] * cfg.n))
    assert grown == pytest.approx(r_star, abs=1e-4)
    assert decide(PupilConfig(cfg.pupils, r_star * (1 - 1e-4)))[0]
    assert not decide(PupilConfig(cfg.pupils, r_star + 1e-3))[0]


def test_analyze_builds_acs_and_witnesses_once(monkeypatch):
    acs_calls = count_calls(monkeypatch, "geom", "build_acs")
    table_calls = count_calls(monkeypatch, "apollonius", "_witness_table")
    report = analyze(g4_lattice("square", 0.9 * math.sqrt(2.0) / 4.0, 2.5))
    assert not report.covered and report.r_star > 0.0
    assert len(acs_calls) == 1
    assert len(table_calls) == 1


#: The g = 4 lattices below, at and above the covering radius.
_G4_LATTICES = [
    (kind, factor * rho, radius)
    for kind, rho, radius in (("square", math.sqrt(2.0) / 4.0, 2.5),
                              ("triangular", 1.0 / (2.0 * math.sqrt(3.0)), 2.3))
    for factor in (0.9, 1.0, 1.1)
]


@pytest.mark.parametrize("kind, rho, radius", _G4_LATTICES)
def test_views_of_one_analysis_agree_on_lattices(kind, rho, radius):
    """On the g = 4 lattices below, at and above the covering radius,
    ``analyze`` reports what ``decide``, ``alpha_star`` and
    ``per_disk_alpha`` return on their own, and the largest per-disk value
    is alpha*."""
    cfg = g4_lattice(kind, rho, radius)
    report = analyze(cfg)
    a = alpha_star(cfg)
    alphas = per_disk_alpha(cfg)
    assert report.alpha_star == a
    assert report.per_disk_alpha == alphas
    assert max(v for v in alphas.values() if v is not None) == pytest.approx(a, abs=1e-12)
    covered, witness = decide(cfg)
    assert report.covered == (a <= 1e-9) == covered
    assert report.witness == witness


def _agreement_designs():
    """The designs of the agreement test: 27 seeded random designs, n = 1 to
    9 pupils with centers in [-0.5, 0.5]^2 and radii in [c/2, c] for c =
    0.15, 0.3 or 0.45 (6 covered, 21 not), the six g = 4 lattices, the ten
    acceptance-10 starts and the p = 2 prime design."""
    rng = np.random.default_rng(4711)
    cases = []
    for k in range(27):
        n, cap = 1 + k % 9, (0.15, 0.3, 0.45)[k // 9]
        pupils = [Pupil(Point(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5))),
                        float(rng.uniform(cap / 2.0, cap))) for _ in range(n)]
        cases.append(pytest.param(PupilConfig(pupils, 1.0), True, id=f"random {k} n={n}"))
    cases += [pytest.param(g4_lattice(kind, rho, radius), False, id=f"{kind} rho={rho:.4f}")
              for kind, rho, radius in _G4_LATTICES]
    cases += [pytest.param(near_collinear_start(seed), False, id=f"start {seed}")
              for seed in range(10)]
    cases.append(pytest.param(prime_design(4.0, 1.0 / math.sqrt(2.0)).config, False, id="p = 2"))
    return cases


def _assert_views_match(cfg, an):
    assert decide(cfg) == an.decision()
    assert alpha_star(cfg) == an.worst_value


@pytest.mark.parametrize("cfg, grow", _agreement_designs())
def test_decide_and_alpha_star_match_the_analysis(cfg, grow):
    """``decide`` and ``alpha_star`` read the worst witness off the cell
    pass, not off ``build_analysis``; their answers are ``build_analysis``'s
    bit for bit, the witness ``Point`` compared with ``==``.  An uncovered
    random design is also grown to exactly alpha*/2 and to alpha*/2 +- 1e-9,
    where the verdict turns on the last bits of alpha*."""
    an = build_analysis(cfg)
    _assert_views_match(cfg, an)
    if grow and an.worst_value > 0.0:
        for e in (0.0, 1e-9, -1e-9):
            grown = cfg.enlarged(an.worst_value / 2.0 + e)
            _assert_views_match(grown, build_analysis(grown))


def _dict_fan_out(an):
    """Reference for the per-pair view: a dict of each disk's value for
    every label it absorbed, None for NaN."""
    alpha = an.disk_alpha.tolist()
    return {(i, j): None if math.isnan(alpha[k]) else alpha[k]
            for (i, j), k in np.ndenumerate(an.acs.pair_disk)}


@pytest.mark.parametrize("kind, rho, radius", _G4_LATTICES)
def test_per_pair_view_matches_dict_fan_out(kind, rho, radius):
    """On the g = 4 lattices, which have merged labels and disks that miss
    the objective (None), the per-pair view holds the items of the dict
    fan-out, has n^2 keys, a dict repr and no keys outside the range, and
    cannot be written."""
    cfg = g4_lattice(kind, rho, radius)
    an = build_analysis(cfg)
    old = _dict_fan_out(an)
    assert an.acs.size < cfg.n ** 2 and None in old.values()
    view = an.per_pair()
    assert isinstance(view, Mapping)
    assert view == old and old == view
    assert len(view) == len(old) == cfg.n ** 2
    assert sorted(view.items()) == sorted(old.items())
    assert all(type(v) is float for v in view.values() if v is not None)
    assert ast.literal_eval(repr(view)) == old
    assert analyze(cfg).per_disk_alpha == per_disk_alpha(cfg) == old
    for key in ((cfg.n, 0), (0, cfg.n), (-1, 0), (0,), (0, 0, 0), (0.5, 0), 0, "ab"):
        with pytest.raises(KeyError):
            view[key]
        assert key not in view
    with pytest.raises(TypeError):
        view[(0, 0)] = 0.0


def _worst_witness_designs():
    """Eight seeded random designs, n = 5 to 9 pupils with centers in
    [-1, 1]^2 and radii at most 0.15 (uncovered), and the six g = 4
    lattices."""
    rng = np.random.default_rng(2718)
    cases = []
    for k, n in enumerate((5, 6, 7, 8, 9, 7, 8, 9)):
        pupils = [Pupil(Point(float(x), float(y)), float(r))
                  for x, y, r in zip(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
                                     rng.uniform(0, 0.15, n))]
        cases.append(pytest.param(PupilConfig(pupils, 1.0), id=f"random n={n} #{k}"))
    cases += [pytest.param(g4_lattice(kind, rho, radius), id=f"{kind} rho={rho:.4f}")
              for kind, rho, radius in _G4_LATTICES]
    return cases


@pytest.mark.parametrize("cfg", _worst_witness_designs())
def test_worst_witness_is_first_row_within_tie_of_maximum(cfg):
    """The worst value is the largest row value, and the worst point is the
    first row, in table order, whose value is within 1e-12 of it, so rows
    that tie up to their last bits (the mirror witnesses w and -w) cannot
    swap the witness.  ``decide`` reads the same point off the cell pass."""
    an = build_analysis(cfg)
    centers, radii = an.acs.centers, an.acs.radii
    values = np.hypot(an.xy[:, 0] - centers[an.owner, 0],
                      an.xy[:, 1] - centers[an.owner, 1]) - radii[an.owner]
    assert an.worst_value == values.max()
    first = int(np.flatnonzero(values >= values.max() - 1e-12)[0])
    assert an.worst_point == Point(float(an.xy[first, 0]), float(an.xy[first, 1]))
    assert decide(cfg) == an.decision()
    assert alpha_star(cfg) == an.worst_value


def _covered_designs():
    """Covered designs whose cell pass proves coverage: the two g = 4
    lattices at 1.1x the covering radius (alpha* = -0.071 and -0.058), the
    p = 2 prime design (alpha* = -0.707), and the uncovered seeded random
    designs of the agreement test grown past alpha*/2 by 0.05 (pupil
    radii), so that alpha* = -0.1, unless a pupil then covers alone."""
    cases = [pytest.param(g4_lattice(kind, rho, radius), id=f"{kind} rho={rho:.4f}")
             for kind, rho, radius in _G4_LATTICES[2::3]]
    cases.append(pytest.param(prime_design(4.0, 1.0 / math.sqrt(2.0)).config, id="p = 2"))
    for param in _agreement_designs()[:27]:
        cfg = param.values[0]
        worst = build_analysis(cfg).worst_value
        grown = cfg.enlarged(worst / 2.0 + 0.05)
        if worst > 0.0 and not _covers_trivially(grown):
            cases.append(pytest.param(grown, id=f"{param.id} grown"))
    return cases


@pytest.mark.parametrize("cfg", _covered_designs())
def test_decide_proves_coverage_without_a_witness_table(cfg, monkeypatch):
    """Once a level of the cell pass bounds F(q) + h below -(TOL + 2e-9 +
    1e-7) over every cell within reach, ``decide`` answers covered without
    building any witness table, and the answer is ``build_analysis``'s.
    Near alpha* = 0 (the designs grown to alpha*/2 and +-1e-9, the 1.0x
    lattices) no level proves it, and
    ``test_decide_and_alpha_star_match_the_analysis`` checks the answer."""
    assert not _covers_trivially(cfg)
    want = build_analysis(cfg).decision()
    table_calls = count_calls(monkeypatch, "apollonius", "_witness_table")
    assert decide(cfg) == want == (True, None)
    assert table_calls == []


def _bounded_designs():
    """Designs of the two-sided check: eight seeded random designs (n = 1 to
    8 pupils, centers in [-0.5, 0.5]^2, radii up to 0.15, 0.3 or 0.45), the
    six g = 4 lattices and the p = 2 prime design."""
    rng = np.random.default_rng(1972)
    cases = []
    for k in range(8):
        n, cap = 1 + k, (0.15, 0.3, 0.45)[k % 3]
        pupils = [Pupil(Point(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5))),
                        float(rng.uniform(cap / 2.0, cap))) for _ in range(n)]
        cases.append(pytest.param(PupilConfig(pupils, 1.0), id=f"random {k} n={n}"))
    cases += [pytest.param(g4_lattice(kind, rho, radius), id=f"{kind} rho={rho:.4f}")
              for kind, rho, radius in _G4_LATTICES]
    cases.append(pytest.param(prime_design(4.0, 1.0 / math.sqrt(2.0)).config, id="p = 2"))
    return cases


@pytest.mark.parametrize("cfg", _bounded_designs())
def test_alpha_star_lies_in_lipschitz_interval(cfg):
    """An independent Piyavskii-Shubert refinement of the 1-Lipschitz
    minimum F over the objective brackets alpha* in [lb, ub] of width at
    most 1e-6; the witness analysis's worst value lies within 1e-9 of it,
    so the witness set misses no higher point (ub) and claims none that F
    does not reach (lb)."""
    lb, ub = alpha_star_bounds(cfg, 1e-6)
    assert ub - lb <= 1e-6
    assert lb - 1e-9 <= build_analysis(cfg).worst_value <= ub + 1e-9


def _corner_designs():
    """Designs of the ``max_objective`` reference check: 16 seeded random
    designs of 1 to 6 pupils (radii up to R/2, some with zero-radius pupils
    that cover nothing), the two tangent lattices of
    ``test_max_objective_tangent_lattice_corners_are_covered``, the designs
    of acceptance 08 and the p = 2 prime design."""
    rng = np.random.default_rng(31)
    cases = []
    for k in range(16):
        cfg = random_config(rng, 1 + k % 6)
        if k % 5 == 0:
            cfg = cfg.with_radii([0.0] * cfg.n)
        elif k % 5 == 1:
            cfg = cfg.with_radii([0.0] + list(cfg.radii[1:]))
        cases.append(pytest.param(cfg, id=f"random {k} n={cfg.n}"))
    cases += [pytest.param(g4_lattice("square", math.sqrt(2.0) / 4.0, 2.5), id="square tie"),
              pytest.param(g4_lattice("triangular", 1.0 / (2.0 * math.sqrt(3.0)), 2.3),
                           id="triangular tie"),
              pytest.param(PupilConfig([Pupil(Point(0.3, -0.2), 0.37)], 1.0), id="acceptance 08 single")]
    rng = np.random.default_rng(808)
    for idx in range(20):
        cfg = random_config(rng, int(rng.integers(2, 5)))
        if max(cfg.radii) < 0.05:
            cfg = cfg.with_radii([max(r, 0.05) for r in cfg.radii])
        cases.append(pytest.param(cfg, id=f"acceptance 08 #{idx}"))
    cases.append(pytest.param(prime_design(4.0, 1.0 / math.sqrt(2.0)).config, id="p = 2"))
    return cases


def _r_star(fn, cfg):
    try:
        return fn(cfg)
    except NoCoverage:
        return None


@pytest.mark.parametrize("cfg", _corner_designs())
def test_max_objective_matches_scalar_corner_loop(cfg):
    """The batched corner search returns the scalar pair loop's r_star
    within 1e-12, and raises ``NoCoverage`` exactly where it does."""
    got, want = _r_star(max_objective, cfg), _r_star(reference_max_objective, cfg)
    assert (got is None) == (want is None)
    if want is not None:
        assert got == pytest.approx(want, rel=0.0, abs=1e-12)


def test_corner_designs_include_no_coverage_and_corners():
    """The reference check above sees both ``NoCoverage`` and corner
    answers other than the origin disk's radius."""
    cfgs = [p.values[0] for p in _corner_designs()[:16]]
    outcomes = [_r_star(reference_max_objective, cfg) for cfg in cfgs]
    assert None in outcomes
    assert any(r is not None and r != 2.0 * max(cfg.radii) for r, cfg in zip(outcomes, cfgs))
