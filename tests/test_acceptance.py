"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints a single PASS line with the measured numbers (pytest shows the FAIL
through the assertion otherwise).  Run with `pytest tests/test_acceptance.py -v -s`
to see the lines as they complete.
"""

import math
import time

import numpy as np
import pytest

from pupilcover import (
    LinearProgram,
    OptimizerConfig,
    Point,
    Pupil,
    PupilConfig,
    QuadraticProgram,
    alpha_star,
    bisector,
    bisector_point,
    build_acs,
    coverage_oracle,
    decide,
    delta,
    delta_min,
    difference_cover_sequence,
    exhaustive_search,
    max_objective,
    minimize_area,
    minimize_sum_radii,
    move_pupils,
    prime_design,
    solve_lp,
    solve_qp,
    three_pupil_optimal,
    verify_difference_cover,
)
from pupilcover.geom import Disk
from tests.conftest import acs_disks, acs_of_disks, near_collinear_start, random_config
from tests.test_solver import _enumerate_vertices, _projected_gradient


def _report(num: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail})")


def test_01_decision_agreement_with_sampling_oracle():
    """decide matches the 512-grid oracle on 200 random configurations, zero
    provable disagreements, under 60 s."""
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    disagreements = []
    for idx in range(200):
        cfg = random_config(rng, int(rng.integers(1, 6)))
        covered, witness = decide(cfg)
        oracle_ok, sample = coverage_oracle(cfg, 512)
        if covered and not oracle_ok:
            # the oracle sample proves an uncovered interior point
            disagreements.append((idx, "decide-true-oracle-false", sample))
        if not covered:
            val, _ = delta_min(build_acs(cfg), witness)
            if val <= 0.0:
                disagreements.append((idx, "invalid-witness", witness))
    elapsed = time.perf_counter() - started
    assert not disagreements, disagreements
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(1, "decision correctness", f"200 configs, 0 disagreements, {elapsed:.1f}s")


def test_02_alpha_star_tightness():
    """On 50 random non-covering configurations, growing every pupil by
    alpha*/2 + 1e-9 covers, and by alpha*/2 - 1e-5 leaves the recorded
    witness uncovered (checked by direct evaluation, which the coarse grid
    cannot resolve at this depth)."""
    rng = np.random.default_rng(202)
    checked = 0
    while checked < 50:
        cfg = random_config(rng, int(rng.integers(1, 6)))
        covered, witness = decide(cfg)
        if covered:
            continue
        a = alpha_star(cfg)
        if a <= 1e-3:
            continue
        checked += 1

        grown = cfg.enlarged(a / 2.0 + 1e-9)
        assert decide(grown)[0], f"config {checked}: +1e-9 enlargement must cover"
        assert coverage_oracle(grown, 512)[0]

        shrunk = cfg.enlarged(a / 2.0 - 1e-5)
        assert not decide(shrunk)[0], f"config {checked}: -1e-5 enlargement must not cover"
        val, _ = delta_min(build_acs(shrunk), witness)
        assert val > 0.0, "witness must stay uncovered under the short enlargement"
    _report(2, "alpha* tightness", "50 non-covering configs, both directions sharp")


def test_03_radius_loop_contract():
    """The radius-sum loop terminates within 100 passes, the sum never
    increases from the second trace entry on, and the final configuration
    covers, on 50 random configurations."""
    rng = np.random.default_rng(303)
    started = time.perf_counter()
    max_passes = 0
    for _ in range(50):
        cfg = random_config(rng, int(rng.integers(1, 6)))
        trace = minimize_sum_radii(cfg)  # raises IterationLimit past 100
        max_passes = max(max_passes, len(trace.iterations) - 1)
        sums = [e.sum_of_radii for e in trace.iterations]
        for a, b in zip(sums[1:], sums[2:]):
            assert b <= a + 1e-9
        assert trace.iterations[-1].covered
    elapsed = time.perf_counter() - started
    _report(3, "radius loop contract", f"50 configs, max {max_passes} passes, {elapsed:.1f}s")


def test_04_heuristic_vs_exhaustive_gap():
    """With three fixed centers and a 0.05 grid the loop's final sum is never
    below the grid optimum minus 3 * theta; both results cover; under 5 min."""
    rng = np.random.default_rng(404)
    theta = 0.05
    started = time.perf_counter()
    for idx in range(10):
        centers = [
            Point(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)))
            for _ in range(3)
        ]
        grid_best = exhaustive_search(centers, 1.0, OptimizerConfig(theta=theta))
        start = PupilConfig([Pupil(c, 0.25) for c in centers], 1.0)
        trace = minimize_sum_radii(start)
        heur_sum = sum(trace.final_config.radii)
        grid_sum = sum(grid_best.radii)
        assert heur_sum >= grid_sum - 3 * theta - 1e-9, (idx, heur_sum, grid_sum)
        assert decide(grid_best)[0] and decide(trace.final_config)[0]
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _report(4, "heuristic vs exhaustive", f"10 configs, theta={theta}, {elapsed:.1f}s")


def test_05_three_pupil_optimum():
    """The half-radius-plus-two-points design covers with radius sum exactly
    R/2, and 50 random three-pupil configurations with sum 0.49 R never do."""
    cfg = three_pupil_optimal(1.0)
    assert sum(cfg.radii) == 0.5
    assert decide(cfg)[0]
    rng = np.random.default_rng(505)
    for _ in range(50):
        weights = rng.dirichlet([1.0, 1.0, 1.0])
        pupils = [
            Pupil(
                Point(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))),
                float(0.49 * w),
            )
            for w in weights
        ]
        assert not decide(PupilConfig(pupils, 1.0))[0]
    _report(5, "three-pupil optimum", "exact cover at R/2; 50/50 sub-half configs fail")


def test_06_difference_cover_brute_force():
    """The 4p-term sequences are verified difference covers for
    p in {2, 3, 5, 7, 11, 13}, with the exact p=2 values, in under 1 s."""
    started = time.perf_counter()
    for p in (2, 3, 5, 7, 11, 13):
        assert verify_difference_cover(difference_cover_sequence(p))
    assert list(difference_cover_sequence(2).values) == [0, 3, 5, 6, 2, 5, 7, 8]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(6, "difference covers", f"p in 2..13 verified, {elapsed:.2f}s")


def test_07_prime_design_canonical_scale():
    """At the canonical scale (R = p^2, pupil radius 1/sqrt(2)) the design
    emits exactly 16 p^2 = ceil(8 sqrt(2) R / rho) pupils and passes the
    512-grid oracle, for p in {2, 3}, in under 2 min; the exact ``decide``
    also calls p = 2 covered.  The exact ``decide`` on p = 3 (1,225
    difference disks, 313 after the cell mask of ``apollonius._live_disks``,
    293 after the cell pass of ``apollonius._peak_cells``) calls it covered
    too, but takes 10-25 s, so it runs as its own CI step, next to
    ``build_analysis``, and not in this suite."""
    rho = 1.0 / math.sqrt(2.0)
    started = time.perf_counter()
    for p in (2, 3):
        pd = prime_design(float(p * p), rho)
        assert pd.p == p
        assert pd.count == 16 * p * p
        bound = math.ceil(8.0 * math.sqrt(2.0) * (p * p) / rho - 1e-9)
        assert pd.count == bound
        ok, sample = coverage_oracle(pd.config, 512)
        assert ok, f"p={p}: uncovered sample {sample}"
        if p == 2:
            covered, witness = decide(pd.config)
            assert covered, f"p=2: exact decide found uncovered witness {witness}"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(7, "prime design canonical", f"p=2: 64, p=3: 144 pupils, oracle ok, p=2 decide covered, {elapsed:.1f}s")


def test_08_max_objective_vs_bisection():
    """max_objective matches a bisection-on-R oracle built from decide to
    1e-4 relative on 20 random configurations; the single-pupil case is
    exact."""
    cfg1 = PupilConfig([Pupil(Point(0.3, -0.2), 0.37)], 1.0)
    assert max_objective(cfg1) == 2 * 0.37

    rng = np.random.default_rng(808)
    started = time.perf_counter()
    for idx in range(20):
        cfg = random_config(rng, int(rng.integers(2, 5)))
        if max(cfg.radii) < 0.05:
            cfg = cfg.with_radii([max(r, 0.05) for r in cfg.radii])
        r_star = max_objective(cfg)
        acs = build_acs(cfg)
        lo = 2.0 * max(cfg.radii)
        hi = max(d.center.norm() + d.radius for d in acs_disks(acs)) + 0.05
        assert decide(PupilConfig(cfg.pupils, lo))[0]
        assert not decide(PupilConfig(cfg.pupils, hi))[0]
        for _ in range(24):
            mid = 0.5 * (lo + hi)
            if decide(PupilConfig(cfg.pupils, mid))[0]:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert abs(r_star - oracle) <= 1e-4 * oracle + 1e-9, (idx, r_star, oracle)
    elapsed = time.perf_counter() - started
    _report(8, "max objective", f"20 configs within 1e-4 relative, {elapsed:.1f}s")


def test_09_bisector_profile_numerics():
    """Along 100 random bisectors sampled at 200 points, the distance profile
    is unimodal and the focal distance obeys the linear law |e*x + a| to
    1e-6."""
    rng = np.random.default_rng(909)
    pairs = 0
    while pairs < 100:
        c1 = Point(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        c2 = Point(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        r1, r2 = float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.5))
        d = c1.distance_to(c2)
        if d < 0.2 or abs(r1 - r2) >= 0.9 * d or abs(r1 - r2) < 1e-3:
            continue
        pairs += 1
        disks = [Disk(c1, r1), Disk(c2, r2)]
        acs = acs_of_disks(disks)
        b = bisector(acs, 0, 1)
        ts = np.linspace(-3.0, 3.0, 200)
        vals = []
        for t in ts:
            pt = bisector_point(b, float(t))
            vals.append(delta(disks[0], pt))
            measured = pt.distance_to(c1)
            predicted = abs(b.eccentricity * b.abscissa(float(t)) + b.semi_axis)
            assert abs(measured - predicted) <= 1e-6
        k = int(np.argmin(vals))
        for i in range(k):
            assert vals[i + 1] <= vals[i] + 1e-9
        for i in range(k, len(vals) - 1):
            assert vals[i + 1] >= vals[i] - 1e-9
    _report(9, "bisector numerics", "100 pairs x 200 samples, unimodal + linear law at 1e-6")


def test_10_relocation_pipeline_ordering():
    """On the fixed 10-seed suite of near-collinear starts, relocating before
    the area loop beats the area loop alone at least 8 times out of 10, and
    both pipelines end covered."""
    wins = 0
    results = []
    for seed in range(10):
        cfg = near_collinear_start(seed)
        opts = OptimizerConfig(epsilon=1e-6, relocation_iterations=15)
        plain = minimize_area(cfg, opts)
        moved = move_pupils(cfg, opts).final_config
        piped = minimize_area(moved, opts)
        assert plain.iterations[-1].covered and piped.iterations[-1].covered
        a_piped = piped.iterations[-1].total_area
        a_plain = plain.iterations[-1].total_area
        results.append((seed, a_piped, a_plain))
        if a_piped <= a_plain:
            wins += 1
    assert wins >= 8, results
    _report(10, "relocation pipeline", f"{wins}/10 seeds improved by relocating first")


def test_11_solver_cross_checks():
    """Random pair-sum LPs agree with exhaustive vertex enumeration to 1e-7;
    random box QPs agree with a projected-gradient reference to 1e-5."""
    rng = np.random.default_rng(1111)
    for _ in range(40):
        n = 3
        radii = rng.uniform(0.0, 1.0, n)
        rows = []
        for i in range(n):
            for j in range(i, n):
                e = np.zeros(n)
                e[i] += 1.0
                e[j] += 1.0
                rows.append((e, float(radii[i] + radii[j]) + float(rng.uniform(-0.3, 0.5))))
        lp = LinearProgram(np.ones(n), np.array([a for a, _ in rows]), [b for _, b in rows], np.zeros(n))
        x = solve_lp(lp)
        assert float(np.ones(n) @ x) == pytest.approx(_enumerate_vertices(lp), abs=1e-7)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        Q = np.diag(rng.uniform(0.5, 4.0, n))
        c = rng.uniform(-2.0, 2.0, n)
        lb = rng.uniform(-1.0, 0.0, n)
        ub = lb + rng.uniform(0.2, 2.0, n)
        x = solve_qp(QuadraticProgram(Q, c, lower_bounds=lb, upper_bounds=ub))
        assert x == pytest.approx(_projected_gradient(Q, c, lb, ub), abs=1e-5)
    _report(11, "solver cross-checks", "40 LPs at 1e-7, 25 QPs at 1e-5")
