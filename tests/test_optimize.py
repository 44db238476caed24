import math

import numpy as np
import pytest

from pupilcover import (
    Infeasible,
    LinearProgram,
    OptimizerConfig,
    Point,
    Pupil,
    PupilConfig,
    QuadraticProgram,
    SearchSpaceTooLarge,
    decide,
    exhaustive_search,
    minimize_area,
    minimize_sum_radii,
    move_pupils,
    per_disk_alpha,
    prime_design,
    relocation_targets,
    solve_lp,
    solve_qp,
)
from pupilcover.coverage import DIAMETRAL, build_analysis
from pupilcover.geom import TOL
from pupilcover.optimize import _entry, _relocation_rows, _solve_relocation
from tests.conftest import count_calls, g4_lattice, near_collinear_start, random_config
from tests.reference import relocation_objective


def _row_arrays(rows):
    """``relocation_targets`` rows as the (i, j, targets) arrays that
    ``_solve_relocation`` takes."""
    i, j, pts = zip(*rows)
    return np.array(i), np.array(j), np.array([(p.x, p.y) for p in pts])


def test_minsum_single_pupil_reaches_half_radius():
    cfg = PupilConfig([Pupil(Point(0, 0), 0.1)], 1.0)
    trace = minimize_sum_radii(cfg)
    assert trace.final_config.radii[0] == pytest.approx(0.5, abs=1e-9)
    assert trace.iterations[-1].covered


def test_minsum_three_pupil_optimum_is_stable():
    cfg = PupilConfig(
        [
            Pupil(Point(0, 0), 0.5),
            Pupil(Point(0.6, 0.1), 0.0),
            Pupil(Point(-0.3, 0.4), 0.0),
        ],
        1.0,
    )
    trace = minimize_sum_radii(cfg)
    assert sum(trace.final_config.radii) == pytest.approx(0.5, abs=1e-9)
    assert trace.iterations[-1].covered


def test_minsum_random_configs_contract(rng):
    for _ in range(8):
        cfg = random_config(rng, int(rng.integers(1, 6)))
        trace = minimize_sum_radii(cfg)
        sums = [e.sum_of_radii for e in trace.iterations]
        for a, b in zip(sums[1:], sums[2:]):
            assert b <= a + 1e-9
        assert trace.iterations[-1].covered
        assert decide(trace.final_config)[0]


def test_minsum_infeasible_with_tiny_max_radius():
    cfg = PupilConfig([Pupil(Point(0, 0), 0.1), Pupil(Point(0.8, 0.0), 0.1)], 1.0)
    with pytest.raises(Infeasible):
        minimize_sum_radii(cfg, OptimizerConfig(max_radius=0.01))


def test_minsum_forbid_overlap_rows_hold(rng):
    # three far-apart pupils leave room for a non-overlapping cover
    cfg = PupilConfig(
        [
            Pupil(Point(0.0, 0.0), 0.3),
            Pupil(Point(1.4, 0.0), 0.1),
            Pupil(Point(0.0, 1.4), 0.1),
        ],
        1.0,
    )
    trace = minimize_sum_radii(cfg, OptimizerConfig(forbid_overlap=True))
    final = trace.final_config
    for i in range(final.n):
        for j in range(i + 1, final.n):
            gap = final.pupils[i].center.distance_to(final.pupils[j].center)
            assert final.radii[i] + final.radii[j] <= gap + 1e-9
    assert decide(final)[0]


def test_minarea_single_pupil():
    trace = minimize_area(PupilConfig([Pupil(Point(0, 0), 0.1)], 1.0))
    assert trace.final_config.radii[0] == pytest.approx(0.5, abs=1e-8)
    assert trace.iterations[-1].total_area == pytest.approx(math.pi / 4.0, abs=1e-7)


def test_minarea_symmetric_pair_stays_symmetric():
    cfg = PupilConfig([Pupil(Point(-0.4, 0), 0.15), Pupil(Point(0.4, 0), 0.15)], 1.0)
    trace = minimize_area(cfg)
    r1, r2 = trace.final_config.radii
    assert abs(r1 - r2) <= 1e-6
    assert trace.iterations[-1].covered


def test_minarea_area_non_increasing(rng):
    cfg = random_config(rng, 4)
    trace = minimize_area(cfg)
    areas = [e.total_area for e in trace.iterations]
    for a, b in zip(areas[1:], areas[2:]):
        assert b <= a + 1e-9
    assert trace.iterations[-1].covered


def test_move_single_pupil_unchanged():
    cfg = PupilConfig([Pupil(Point(0.3, 0.2), 0.4)], 1.0)
    trace = move_pupils(cfg)
    assert trace.final_config.centers == cfg.centers
    assert trace.warning is not None


def test_move_zero_residual_rows_fix_centers():
    cfg = PupilConfig(
        [Pupil(Point(0.0, 0.0), 0.2), Pupil(Point(0.5, 0.2), 0.2), Pupil(Point(-0.4, 0.3), 0.2)],
        1.0,
    )
    # synthetic rows whose targets equal the current center differences
    rows = [
        (i, j, Point(cfg.centers[i].x - cfg.centers[j].x, cfg.centers[i].y - cfg.centers[j].y))
        for i in range(3)
        for j in range(3)
        if i != j
    ]
    moved = _solve_relocation(cfg, _row_arrays(rows))
    for old, new in zip(cfg.centers, moved):
        assert old.distance_to(new) <= 1e-9


def _labels_walk_rows(an):
    """The relocation rows as the per-disk label walk built them: each disk
    in order, its representative label (largest radius, ties to the smallest
    (i, j)) and then its other labels in (i, j) order, keeping i != j with
    r_i + r_j >= the disk radius - 1e-12; each kept label takes every
    witness-table row of its disk, in table order."""
    n, r = an.cfg.n, an.cfg.radii
    rows = []
    for k in range(an.acs.size):
        labels = [(i, j) for i in range(n) for j in range(n) if an.acs.pair_disk[i, j] == k]
        rep = max(labels, key=lambda lab: (r[lab[0]] + r[lab[1]], -lab[0], -lab[1]))
        witnesses = an.xy[(an.owner == k) & (an.kind != DIAMETRAL)].tolist()
        for i, j in [rep] + [lab for lab in labels if lab != rep]:
            if i != j and r[i] + r[j] >= an.acs.radii[k] - 1e-12:
                rows += [(i, j, x, y) for x, y in witnesses]
    return rows


@pytest.mark.parametrize("cfg", [
    *(g4_lattice(kind, factor * rho, radius)
      for kind, rho, radius in (("square", math.sqrt(2.0) / 4.0, 2.5),
                                ("triangular", 1.0 / (2.0 * math.sqrt(3.0)), 2.3))
      for factor in (0.9, 1.0, 1.1)),
    *(near_collinear_start(seed) for seed in range(10)),
    # equal pupils at x = 1, 0, 2: the disk at x = 1 holds (0, 1) and (2, 0),
    # whose row-major and column-major orders differ
    PupilConfig([Pupil(Point(1.0, 0.0), 0.3), Pupil(Point(0.0, 0.0), 0.3),
                 Pupil(Point(2.0, 0.0), 0.3)], 1.0),
])
def test_relocation_rows_match_label_walk(cfg):
    """The selection from the pair-to-disk index gives the rows, and their
    order, of the walk over each disk's labels."""
    an = build_analysis(cfg)
    i, j, targets = _relocation_rows(an)
    got = [(a, b, x, y) for a, b, (x, y) in zip(i.tolist(), j.tolist(), targets.tolist())]
    assert got and got == _labels_walk_rows(an)


def test_move_decreases_leastsquares_objective():
    rng = np.random.default_rng(11)
    pupils = [
        Pupil(Point(float(t), float(0.05 * t * t)), 0.18)
        for t in np.linspace(-0.7, 0.7, 5)
    ]
    cfg = PupilConfig(pupils, 1.0)
    current = cfg
    for _ in range(4):
        rows = relocation_targets(current)
        assert rows
        before = relocation_objective(current, rows)
        moved = current.with_centers(_solve_relocation(current, _row_arrays(rows)))
        after = relocation_objective(moved, rows)
        assert after <= before + 1e-9
        current = moved


def test_move_gauges_preserve_their_pins():
    """The relocation keeps the centroid of the centers fixed."""
    cfg = PupilConfig(
        [Pupil(Point(-0.5, 0.0), 0.2), Pupil(Point(0.0, 0.1), 0.2), Pupil(Point(0.5, 0.0), 0.2)],
        1.0,
    )
    tr_centroid = move_pupils(cfg, OptimizerConfig(relocation_iterations=3))
    old = np.array([[c.x, c.y] for c in cfg.centers]).sum(axis=0)
    new = np.array([[c.x, c.y] for c in tr_centroid.final_config.centers]).sum(axis=0)
    assert np.allclose(old, new, atol=1e-8)


def test_move_trace_reports_coverage_per_iteration():
    cfg = PupilConfig(
        [Pupil(Point(float(x), 0.0), 0.16) for x in np.linspace(-0.6, 0.6, 5)], 1.0
    )
    trace = move_pupils(cfg, OptimizerConfig(relocation_iterations=5))
    assert len(trace.iterations) >= 2
    assert all(isinstance(e.covered, bool) for e in trace.iterations)


def test_exhaustive_single_pupil_grid_hits():
    cfg = exhaustive_search([Point(0, 0)], 1.0, OptimizerConfig(theta=0.1))
    assert cfg.radii == (pytest.approx(0.5),)
    cfg = exhaustive_search([Point(0, 0)], 1.0, OptimizerConfig(theta=0.15))
    assert cfg.radii == (pytest.approx(0.6),)  # first multiple of 0.15 at or past 0.5
    # a step of at least R/2: its first multiple covers by itself
    for theta in (0.6, 1e9, 1e300):
        cfg = exhaustive_search([Point(0, 0), Point(1, 0)], 1.0, OptimizerConfig(theta=theta))
        assert cfg.radii == (0.0, theta)


def test_exhaustive_three_pupils_near_lower_bound(rng):
    centers = [
        Point(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5))) for _ in range(3)
    ]
    theta = 0.25
    best = exhaustive_search(centers, 1.0, OptimizerConfig(theta=theta))
    assert decide(best)[0]
    assert sum(best.radii) <= 0.5 + 3 * theta + 1e-9


def test_exhaustive_guard():
    """Grids past 1e8 points are refused, also where (R / 2 theta + 1)^n or
    R / 2 theta itself overflows a float."""
    for n, theta in ((12, 1e-3), (2, 1e-200), (2, 5e-324)):
        centers = [Point(float(k), 0.0) for k in range(n)]
        with pytest.raises(SearchSpaceTooLarge, match=r"\de\d+ grid points"):
            exhaustive_search(centers, 1.0, OptimizerConfig(theta=theta))


def test_exhaustive_lexicographic_tie_break():
    # both (0.5, 0) and (0, 0.5) cover at sum 0.5; the lexicographically
    # smallest vector wins
    best = exhaustive_search([Point(0, 0), Point(1, 0)], 1.0, OptimizerConfig(theta=0.25))
    assert best.radii == (0.0, pytest.approx(0.5))


def test_iteration_limit_carries_partial_trace():
    from pupilcover import IterationLimit

    cfg = PupilConfig(
        [
            Pupil(Point(-0.4, 0.1), 0.25),
            Pupil(Point(0.3, -0.2), 0.25),
            Pupil(Point(0.1, 0.45), 0.25),
        ],
        1.0,
    )
    with pytest.raises(IterationLimit) as err:
        minimize_sum_radii(cfg, OptimizerConfig(max_iterations=3))
    assert err.value.trace is not None
    assert len(err.value.trace.iterations) == 4  # initial entry plus three passes


def test_minsum_beats_exhaustive_minus_grid_slack(rng):
    centers = [
        Point(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5))) for _ in range(3)
    ]
    theta = 0.1
    grid_best = exhaustive_search(centers, 1.0, OptimizerConfig(theta=theta))
    start = PupilConfig([Pupil(c, 0.25) for c in centers], 1.0)
    heur = minimize_sum_radii(start)
    assert sum(heur.final_config.radii) >= sum(grid_best.radii) - 3 * theta - 1e-9
    assert decide(heur.final_config)[0] and decide(grid_best)[0]


@pytest.mark.parametrize("loop", [minimize_sum_radii, minimize_area])
def test_radius_loop_sum_never_rises_after_first_pass(loop):
    """On the ten near-collinear starts of acceptance criterion 10 the sum of
    radii is non-increasing from the second trace entry on: a pass that
    would raise the sum of a covering configuration is not taken."""
    opts = OptimizerConfig(epsilon=1e-6)
    for seed in range(10):
        trace = loop(near_collinear_start(seed), opts)
        sums = [e.sum_of_radii for e in trace.iterations]
        assert all(b <= a for a, b in zip(sums[1:], sums[2:])), (seed, sums)
        assert trace.iterations[-1].covered


def test_minarea_on_the_p2_design_stops_on_a_tied_sum():
    """On the p = 2 prime design the second area pass returns the radii of
    the first to about 4e-15, and their sums, taken left to right as the
    trace reports them, are equal.  The loop reads that as convergence, not
    as a rise: it ends with the final ``decide`` entry, three in all.  A
    rise test that took numpy's pairwise sum of the new radii read the tie
    as a rise of 3e-14 and stopped after two entries."""
    trace = minimize_area(prime_design(4.0, 1.0 / math.sqrt(2.0)).config)
    sums = [e.sum_of_radii for e in trace.iterations]
    assert len(sums) == 3 and sums[1] == sums[2], sums
    assert all(e.covered for e in trace.iterations)
    assert sum(trace.final_config.radii) == sums[-1]


def test_move_builds_one_analysis_per_configuration(monkeypatch):
    """k passes analyse the start and the k moved configurations once each:
    k + 1 witness builds, where a decide plus a relocation_targets per
    configuration would take 2k + 1."""
    calls = count_calls(monkeypatch, "apollonius", "_witness_table")
    for k in (1, 3):
        calls.clear()
        trace = move_pupils(near_collinear_start(0), OptimizerConfig(relocation_iterations=k))
        assert trace.warning is None and len(trace.iterations) == k + 1
        assert len(calls) == k + 1


@pytest.mark.parametrize("loop", [minimize_sum_radii, minimize_area])
def test_radius_loop_builds_one_analysis_per_pass(monkeypatch, loop):
    """k passes build k + 1 witness tables: one per pass for its rows and
    coverage flag, and one for the final configuration's flag."""
    # No radius reaches R / 2, where decide would answer without a table.
    square = PupilConfig([Pupil(Point(x, y), 0.1)
                          for x, y in [(0.3, 0.0), (-0.3, 0.0), (0.0, 0.3), (0.0, -0.3)]], 1.0)
    skewed = PupilConfig([Pupil(Point(x, y), 0.1) for x, y in
                          [(0.4, 0.1), (-0.3, 0.2), (0.1, 0.45), (0.0, -0.4), (-0.2, -0.2)]], 1.0)
    calls = count_calls(monkeypatch, "apollonius", "_witness_table")
    for cfg in (square, skewed):
        calls.clear()
        trace = loop(cfg, OptimizerConfig(epsilon=1e-6))
        assert len(trace.iterations) >= 3 and max(trace.final_config.radii) < 0.5
        assert len(calls) == len(trace.iterations)


def _radius_loop_by_public_views(cfg, opts, objective):
    """The radius loop spelled out with ``per_disk_alpha``: its values fanned
    out to one row per (i, j) in sorted order, pairs with None skipped,
    followed by the no-overlap rows."""
    n = cfg.n
    entries = []
    current = cfg
    pending = _entry(current, False)
    for iteration in range(1, opts.max_iterations + 1):
        alphas = per_disk_alpha(current)
        worst = max((a for a in alphas.values() if a is not None), default=-math.inf)
        pending.covered = worst <= TOL
        entries.append(pending)
        rows, rhs = [], []
        radii = current.radii
        for (i, j), a in sorted(alphas.items()):
            if a is not None:
                e = np.zeros(n)
                e[i] += 1.0
                e[j] += 1.0
                rows.append(e)
                rhs.append(radii[i] + radii[j] + a)
        if opts.forbid_overlap:
            centers = current.centers
            for i in range(n):
                for j in range(i + 1, n):
                    e = np.zeros(n)
                    e[i] = e[j] = -1.0
                    rows.append(e)
                    rhs.append(-centers[i].distance_to(centers[j]))
        a = np.array(rows).reshape(-1, n)
        lb = np.full(n, opts.min_radius)
        if objective == "sum":
            rho = solve_lp(LinearProgram(np.ones(n), a, rhs, lb))
        else:
            rho = solve_qp(QuadraticProgram(2.0 * math.pi * np.eye(n), np.zeros(n), a, rhs, lb))
        rho = np.maximum(rho, 0.0)
        err = sum(current.radii) - sum(rho.tolist())
        if iteration >= 2 and err < 0.0 and pending.covered:
            return entries, current
        current = current.with_radii(rho)
        pending = _entry(current, False)
        if iteration >= 2 and err < opts.epsilon:
            break
    pending.covered = decide(current)[0]
    entries.append(pending)
    return entries, current


def _outcome(run):
    """(entries, final configuration), or the type and message of the
    solver exception."""
    try:
        out = run()
    except Infeasible as exc:
        return type(exc).__name__, str(exc)
    return out if isinstance(out, tuple) else (out.iterations, out.final_config)


#: Three far-apart pupils: the no-overlap rows leave a feasible program.
_FAR_APART = PupilConfig([Pupil(Point(0.0, 0.0), 0.3), Pupil(Point(1.4, 0.0), 0.1),
                          Pupil(Point(0.0, 1.4), 0.1)], 1.0)


@pytest.mark.parametrize("forbid_overlap", [False, True])
@pytest.mark.parametrize("start", [*range(10), "far-apart"])
def test_radius_loop_matches_public_views(start, forbid_overlap):
    """Both radius loops agree exactly with the loop spelled out from the
    public per-pair view.  With no-overlap rows the near-collinear starts
    are infeasible, and the exception must agree too."""
    cfg = _FAR_APART if start == "far-apart" else near_collinear_start(start)
    opts = OptimizerConfig(forbid_overlap=forbid_overlap)
    for loop, objective in ((minimize_sum_radii, "sum"), (minimize_area, "area")):
        ours = _outcome(lambda: loop(cfg, opts))
        assert ours == _outcome(lambda: _radius_loop_by_public_views(cfg, opts, objective))
        assert (ours[0] == "Infeasible") == (forbid_overlap and start != "far-apart")


def _move_by_public_views(cfg, opts):
    """The relocation loop spelled out with ``decide`` and
    ``relocation_targets``, which build a configuration's witnesses twice."""
    current = cfg
    entries = [_entry(current, decide(current)[0])]
    for _ in range(opts.relocation_iterations):
        rows = relocation_targets(current)
        if not rows:
            break
        current = current.with_centers(_solve_relocation(current, _row_arrays(rows)))
        entries.append(_entry(current, decide(current)[0]))
    return entries, current


@pytest.mark.parametrize("seed", range(10))
def test_move_matches_public_views(seed):
    cfg = near_collinear_start(seed)
    opts = OptimizerConfig(relocation_iterations=6)
    trace = move_pupils(cfg, opts)
    entries, final = _move_by_public_views(cfg, opts)
    assert trace.iterations == entries
    assert trace.final_config == final
