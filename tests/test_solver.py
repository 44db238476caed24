import itertools
import math

import numpy as np
import pytest

from pupilcover import (
    Infeasible,
    LinearProgram,
    QuadraticProgram,
    solve_lp,
    solve_qp,
)
from tests import reference


def test_lp_single_binding_constraint():
    x = solve_lp(LinearProgram([1.0], [[1.0]], [3.0], [0.0]))
    assert x[0] == pytest.approx(3.0, abs=1e-9)


def test_lp_degenerate_optimum_objective_value():
    lp = LinearProgram([1.0, 1.0], [[1.0, 1.0]], [2.0], [0.0, 0.0])
    x = solve_lp(lp)
    assert float(np.dot([1.0, 1.0], x)) == pytest.approx(2.0, abs=1e-9)


def test_lp_infeasible():
    lp = LinearProgram([1.0], [[1.0]], [1.0], [0.0], [0.0])
    with pytest.raises(Infeasible):
        solve_lp(lp)


def test_lp_rejects_a_negative_cost_without_an_upper_bound():
    """Such a program may be unbounded; with a finite upper bound it is not."""
    with pytest.raises(ValueError):
        LinearProgram([-1.0], [[1.0]], [0.0], [0.0])
    with pytest.raises(ValueError):
        LinearProgram([1.0, -1.0], [[1.0, 1.0]], [0.0], [0.0, 0.0], [1.0, math.inf])
    x = solve_lp(LinearProgram([-1.0], [[1.0]], [0.0], [0.0], [3.0]))
    assert x.tolist() == [3.0]


def test_lp_respects_bounds():
    lp = LinearProgram(
        [1.0, -1.0],
        [[1.0, 1.0]],
        [1.0],
        [0.25, 0.0],
        [2.0, 0.75],
    )
    x = solve_lp(lp)
    assert x[0] >= 0.25 - 1e-9 and x[1] <= 0.75 + 1e-9
    assert float(np.array([1.0, 1.0]) @ x) >= 1.0 - 1e-9


@pytest.mark.parametrize("cost", [1.0, 0.0])
def test_lp_vertex_on_a_pair_of_opposite_rows(cost):
    """x >= 2, -x >= -2 and 2x >= 1 meet only at x = 2."""
    x = solve_lp(LinearProgram([cost], [[1.0], [-1.0], [2.0]], [2.0, -2.0, 1.0], [0.0]))
    assert x.tolist() == [2.0]


def _enumerate_vertices(lp: LinearProgram) -> float:
    """Exhaustive basic-solution oracle: best objective over all feasible
    intersections of n active constraints (rows plus bound rows)."""
    n = lp.objective.shape[0]
    rows = list(zip(lp.a, lp.b))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append((e.copy(), float(lp.lower_bounds[i])))
        if lp.upper_bounds is not None and math.isfinite(lp.upper_bounds[i]):
            rows.append((e.copy(), float(lp.upper_bounds[i])))
    best = math.inf
    for subset in itertools.combinations(range(len(rows)), n):
        a = np.array([rows[k][0] for k in subset])
        b = np.array([rows[k][1] for k in subset])
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, b)
        feasible = all(float(r @ x) >= bb - 1e-9 for r, bb in zip(lp.a, lp.b))
        feasible &= bool(np.all(x >= lp.lower_bounds - 1e-9))
        if lp.upper_bounds is not None:
            feasible &= bool(np.all(x <= lp.upper_bounds + 1e-9))
        if feasible:
            best = min(best, float(lp.objective @ x))
    return best


def test_lp_matches_vertex_enumeration(rng):
    """Random pair-sum structured instances against the exhaustive oracle."""
    for _ in range(40):
        n = 3
        radii = rng.uniform(0.0, 1.0, n)
        rows = []
        for i in range(n):
            for j in range(i, n):
                alpha = float(rng.uniform(-0.3, 0.5))
                e = np.zeros(n)
                e[i] += 1.0
                e[j] += 1.0
                rows.append((e, float(radii[i] + radii[j]) + alpha))
        lp = LinearProgram(np.ones(n), np.array([a for a, _ in rows]), [b for _, b in rows], np.zeros(n))
        x = solve_lp(lp)
        assert float(np.ones(n) @ x) == pytest.approx(_enumerate_vertices(lp), abs=1e-7)


def _radius_program(rng, n, max_radius):
    """The shape of the sum-of-radii program: rho_i + rho_j >= b over i <= j
    with some rows duplicated, a lower bound of 0 or 0.05, and rho <=
    max_radius when given (large enough to be feasible, binding or not)."""
    i, j = np.triu_indices(n)
    a = np.zeros((i.size, n))
    np.add.at(a, (np.arange(i.size), i), 1.0)
    np.add.at(a, (np.arange(j.size), j), 1.0)
    b = rng.uniform(-0.2, 1.0, i.size)
    copies = rng.integers(0, i.size, int(rng.integers(0, i.size + 1)))
    a, b = np.vstack([a, a[copies]]), np.concatenate([b, b[copies]])
    lb = np.full(n, float(rng.choice([0.0, 0.05])))
    ub = None if max_radius is None else np.full(n, max_radius)
    return LinearProgram(np.ones(n), a, b, lb, ub)


@pytest.mark.parametrize("max_radius", [None, 0.6, 10.0])
def test_lp_matches_the_reference_tableau(max_radius):
    """The dual simplex and the two-phase tableau of tests/reference.py
    reach one optimal value on seeded radius programs with up to 8 radii,
    within 1e-9 (1 + |value|).  Degenerate programs may end at different
    optimal vertices.  An upper bound of 1e20, at which the tableau's
    absolute tolerances fail, changes no value."""
    rng = np.random.default_rng(2222)
    for _ in range(40):
        lp = _radius_program(rng, int(rng.integers(1, 9)), max_radius)
        value = float(lp.objective @ solve_lp(lp))
        ref = float(lp.objective @ reference.solve_lp(lp))
        assert abs(value - ref) <= 1e-9 * (1.0 + abs(ref)), (value, ref)
        if max_radius is None:
            huge = LinearProgram(lp.objective, lp.a, lp.b, lp.lower_bounds, np.full(lp.a.shape[1], 1e20))
            assert float(lp.objective @ solve_lp(huge)) == value


def test_qp_active_constraint():
    x = solve_qp(QuadraticProgram([[2.0]], [0.0], [[1.0]], [3.0]))
    assert x[0] == pytest.approx(3.0, abs=1e-8)


def test_qp_unconstrained_stationary_point():
    x = solve_qp(QuadraticProgram(2.0 * np.eye(2), [-2.0, -4.0]))
    assert x == pytest.approx([1.0, 2.0], abs=1e-10)


def test_qp_symmetric_split():
    x = solve_qp(QuadraticProgram(2.0 * np.eye(2), [0.0, 0.0], [[1.0, 1.0]], [2.0]))
    assert x == pytest.approx([1.0, 1.0], abs=1e-8)


def test_qp_rejects_asymmetric_or_indefinite():
    with pytest.raises(ValueError):
        QuadraticProgram(np.array([[1.0, 2.0], [0.0, 1.0]]), [0.0, 0.0])
    with pytest.raises(ValueError):
        QuadraticProgram(np.array([[1.0, 0.0], [0.0, -1.0]]), [0.0, 0.0])
    with pytest.raises(ValueError):
        QuadraticProgram(np.array([[1.0, 1.0], [1.0, 1.0]]), [0.0, 0.0])


def test_qp_infeasible():
    qp = QuadraticProgram(
        [[2.0]], [0.0], [[1.0]], [1.0], lower_bounds=[0.0], upper_bounds=[0.5]
    )
    with pytest.raises(Infeasible):
        solve_qp(qp)


def _pair_rows(rng, n, upper, no_overlap):
    """The radius program's shape: rho_i + rho_j >= b over i <= j, optional
    no-overlap rows -rho_i - rho_j >= -gap and upper bounds, rho >= 0.  All
    rows hold at a random point, so the program is feasible."""
    inside = rng.uniform(0.1, 0.6, n)
    i, j = np.triu_indices(n)
    a = np.zeros((i.size, n))
    np.add.at(a, (np.arange(i.size), i), 1.0)
    np.add.at(a, (np.arange(j.size), j), 1.0)
    b = a @ inside - rng.uniform(0.0, 0.3, i.size)
    if no_overlap:
        oi, oj = np.triu_indices(n, 1)
        o = np.zeros((oi.size, n))
        o[np.arange(oi.size), oi] = o[np.arange(oi.size), oj] = -1.0
        gap = inside[oi] + inside[oj] + rng.uniform(0.0, 0.5, oi.size)
        a, b = np.vstack([a, o]), np.concatenate([b, -gap])
    ub = inside + rng.uniform(0.0, 0.2, n) if upper else None
    return QuadraticProgram(2.0 * math.pi * np.eye(n), np.zeros(n), a, b, np.zeros(n), ub)


def _spd(rng, n):
    g = rng.normal(size=(n, n))
    return g @ g.T + 0.5 * np.eye(n)


def _general_rows(rng, n):
    """Random real rows, all holding at a random point."""
    m = int(rng.integers(1, 4 * n))
    a = rng.normal(size=(m, n))
    b = a @ rng.normal(size=n) - rng.uniform(0.0, 1.0, m)
    return QuadraticProgram(_spd(rng, n), rng.normal(size=n), a, b)


def _box_only(rng, n):
    lb = rng.uniform(-1.0, 0.0, n)
    return QuadraticProgram(np.diag(rng.uniform(0.5, 4.0, n)), rng.uniform(-2.0, 2.0, n),
                            lower_bounds=lb, upper_bounds=lb + rng.uniform(0.2, 2.0, n))


def _degenerate_rows(rng, n):
    """Duplicate and parallel copies of random rows, and rows through a
    point where all rows hold.  When that point is the unconstrained minimum,
    the rows through it are active at the optimum with zero multiplier."""
    q, c = _spd(rng, n), rng.normal(size=n)
    m = int(rng.integers(1, 2 * n))
    a = rng.normal(size=(m, n))
    inside = rng.normal(size=n) if rng.uniform() < 0.5 else np.linalg.solve(q, -c)
    b = a @ inside - rng.uniform(0.0, 1.0, m)
    through = rng.normal(size=(2, n))
    a = np.vstack([a, a[:1], 2.5 * a[-1:], through])
    b = np.concatenate([b, b[:1], 2.5 * b[-1:], through @ inside])
    order = rng.permutation(b.size)
    return QuadraticProgram(q, c, a[order], b[order])


def _infeasible_rows(rng, n):
    """A row and its shifted opposite, or pair sums beyond the upper bound,
    hidden among feasible rows."""
    if rng.uniform() < 0.5:
        qp = _pair_rows(rng, n, upper=False, no_overlap=False)
        return QuadraticProgram(qp.Q, qp.c, qp.a, qp.b + 1.0, qp.lower_bounds,
                                np.full(n, 0.25))
    qp = _general_rows(rng, n)
    row = rng.normal(size=n)
    bound = float(rng.normal())
    a = np.vstack([qp.a, row, -row])
    b = np.concatenate([qp.b, [bound, -bound + rng.uniform(0.1, 1.0)]])
    return QuadraticProgram(qp.Q, qp.c, a, b)


def _qp_cases():
    rng = np.random.default_rng(1717)
    cases = []
    for k in range(24):
        n = int(rng.integers(2, 7))
        cases.append(("pair sums", _pair_rows(rng, n, upper=k % 2 == 1, no_overlap=k % 4 >= 2)))
    for _ in range(24):
        cases.append(("general rows", _general_rows(rng, int(rng.integers(1, 6)))))
    for _ in range(16):
        cases.append(("boxes", _box_only(rng, int(rng.integers(1, 6)))))
    for _ in range(24):
        cases.append(("degenerate rows", _degenerate_rows(rng, int(rng.integers(2, 6)))))
    for _ in range(16):
        cases.append(("infeasible", _infeasible_rows(rng, int(rng.integers(2, 6)))))
    return cases


def _qp_outcome(solve, qp):
    try:
        return solve(qp)
    except Infeasible:
        return "Infeasible"


def test_qp_matches_the_primal_reference():
    """The dual active-set solver and the primal active-set reference with
    its phase-1 start agree on 104 seeded strictly convex QPs, within
    1e-9 (1 + |x|), and both raise Infeasible on the same inputs."""
    cases = _qp_cases()
    assert len(cases) >= 100
    for kind, qp in cases:
        ours = _qp_outcome(solve_qp, qp)
        ref = _qp_outcome(reference.solve_qp, qp)
        # Only Infeasible gives a string.
        assert isinstance(ours, str) == isinstance(ref, str) == (kind == "infeasible"), kind
        if kind == "infeasible":
            continue
        assert np.abs(ours - ref).max() <= 1e-9 * (1.0 + np.abs(ours).max()), (kind, ours, ref)


def _projected_gradient(Q, c, lb, ub, iters=30000):
    x = np.clip(np.zeros_like(c), lb, ub)
    step = 0.9 / float(np.max(np.diag(Q)))
    for _ in range(iters):
        x = np.clip(x - step * (Q @ x + c), lb, ub)
    return x


def test_qp_matches_projected_gradient_on_boxes(rng):
    for _ in range(25):
        n = int(rng.integers(2, 5))
        diag = rng.uniform(0.5, 4.0, n)
        Q = np.diag(diag)
        c = rng.uniform(-2.0, 2.0, n)
        lb = rng.uniform(-1.0, 0.0, n)
        ub = lb + rng.uniform(0.2, 2.0, n)
        x = solve_qp(QuadraticProgram(Q, c, lower_bounds=lb, upper_bounds=ub))
        ref = _projected_gradient(Q, c, lb, ub)
        assert x == pytest.approx(ref, abs=1e-5)


def test_qp_pair_sum_structure(rng):
    """Area-style objective under pair-sum covering rows stays feasible and
    beats no feasible reference point."""
    for _ in range(10):
        n = 3
        rows = []
        for i in range(n):
            for j in range(i, n):
                e = np.zeros(n)
                e[i] += 1.0
                e[j] += 1.0
                rows.append((e, float(rng.uniform(0.1, 1.0))))
        qp = QuadraticProgram(2.0 * math.pi * np.eye(n), np.zeros(n), np.array([a for a, _ in rows]),
                              [b for _, b in rows], np.zeros(n))
        x = solve_qp(qp)
        for a, b in rows:
            assert float(a @ x) >= b - 1e-8
        # compare against a dense grid of feasible points
        grid = rng.uniform(0.0, 1.2, size=(4000, n))
        feas = grid[np.all(grid @ np.array([a for a, _ in rows]).T >= np.array([b for _, b in rows]) - 1e-12, axis=1)]
        if len(feas):
            assert math.pi * float((x**2).sum()) <= math.pi * float((feas**2).sum(axis=1).min()) + 1e-6


@pytest.mark.parametrize("kwargs", [
    {"a": [[1.0, 1.0, 1.0]], "b": [1.0]},           # row length is not n
    {"a": [1.0, 1.0], "b": [1.0]},                  # a is not a matrix
    {"a": [[1.0, 1.0]], "b": [1.0, 2.0]},           # b does not match the rows
    {"a": [[1.0, 1.0]], "b": 1.0},
    {"a": [[1.0, 1.0]], "b": None},                 # rows need both sides
    {"a": None, "b": [1.0]},
    {"lower_bounds": [0.0]},
    {"lower_bounds": [[0.0, 0.0]]},
    {"upper_bounds": [1.0, 1.0, 1.0]},
])
def test_lp_and_qp_reject_mismatched_shapes(kwargs):
    lp_args = {"objective": [1.0, 1.0], "a": [[1.0, 1.0]], "b": [1.0],
               "lower_bounds": [0.0, 0.0], **kwargs}
    with pytest.raises(ValueError):
        LinearProgram(**lp_args)
    with pytest.raises(ValueError):
        QuadraticProgram(np.eye(2), [0.0, 0.0], **kwargs)


def test_lp_without_rows():
    x = solve_lp(LinearProgram([1.0, 2.0], np.zeros((0, 2)), np.zeros(0), [0.5, -1.0]))
    assert x == pytest.approx([0.5, -1.0], abs=1e-12)
