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
)
from pupilcover.coverage import build_analysis
from tests.conftest import acs_disks, count_calls, g4_lattice, near_collinear_start, random_config


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
