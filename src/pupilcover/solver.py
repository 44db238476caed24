"""Small dense linear and strictly convex quadratic program solvers.

Problems have tens of variables and up to a few thousand rows (the radius
program of the p = 2 prime design has 2,192), and both solvers are dense and
self-contained: a two-phase tableau simplex with Bland's rule for
determinism, and the dual active-set method of Goldfarb and Idnani for QPs
with a positive definite Q.  The QP method starts at the unconstrained
minimum and adds violated rows one at a time, so it needs no phase 1 and no
feasible start.  Constraint rows are one (rows, n) matrix ``a`` and one
(rows,) vector ``b`` meaning ``a @ x >= b``; the solvers stack them with the
finite bound rows and never handle a row on its own.  Each solve is
certified post hoc from scratch (feasibility, dual signs and complementary
slackness for the LP; the KKT residuals for the QP), each check one matrix
product over all rows.

Bland's entering column, the ratio test and the QP's most violated row and
first falling multiplier are array scans over the rows or columns that
qualify, taken in index order with the sequential tie rules; only the
tableau update walks its rows (see ``_pivot``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class Infeasible(Exception):
    """The constraint system admits no solution."""


class Unbounded(Exception):
    """The objective decreases without bound over the feasible set."""


class NumericalError(Exception):
    """The solver finished but its optimality certificate failed."""


def _vector(v, n: int, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {v.shape}")
    return v


def _matrix(a, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"a must have shape (rows, {n}), got {a.shape}")
    return a, _vector(b, a.shape[0], "b")


@dataclass
class LinearProgram:
    """minimize objective @ x  subject to  a @ x >= b row by row,
    lower_bounds <= x (<= upper_bounds when given)."""

    objective: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lower_bounds: np.ndarray
    upper_bounds: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.objective = np.asarray(self.objective, dtype=float)
        n = self.objective.shape[0]
        self.a, self.b = _matrix(self.a, self.b, n)
        self.lower_bounds = _vector(self.lower_bounds, n, "lower_bounds")
        if not np.all(np.isfinite(self.lower_bounds)):
            raise ValueError("lower_bounds must be finite")
        if self.upper_bounds is not None:
            self.upper_bounds = _vector(self.upper_bounds, n, "upper_bounds")


@dataclass
class QuadraticProgram:
    """minimize 0.5 * x @ Q @ x + c @ x under the same constraint shape as
    LinearProgram, with no rows when ``a`` is None.  Q must be symmetric
    positive definite."""

    Q: np.ndarray
    c: np.ndarray
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    lower_bounds: np.ndarray | None = None
    upper_bounds: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.Q = np.asarray(self.Q, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.shape[0]
        if self.Q.shape != (n, n):
            raise ValueError("Q dimension mismatch")
        scale = max(1.0, float(np.abs(self.Q).max()))
        if np.abs(self.Q - self.Q.T).max() > 1e-9 * scale:
            raise ValueError("Q must be symmetric")
        if float(np.linalg.eigvalsh(self.Q).min()) <= 1e-10 * scale:
            raise ValueError("Q must be positive definite")
        if self.a is None and self.b is None:
            self.a, self.b = np.zeros((0, n)), np.zeros(0)
        self.a, self.b = _matrix(self.a, self.b, n)
        if self.lower_bounds is not None:
            self.lower_bounds = _vector(self.lower_bounds, n, "lower_bounds")
        if self.upper_bounds is not None:
            self.upper_bounds = _vector(self.upper_bounds, n, "upper_bounds")


_PIVOT_TOL = 1e-11
_COST_TOL = 1e-9


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    # The update stays an in-place loop over the rows with a nonzero entry.
    # On the 2,193 x 4,449 tableau of the p = 2 radius program, gathering
    # those rows and scattering them back took about 3x as long per pivot,
    # and one np.outer update about 19x (first 100 pivots, 2 cores).
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: list[int], allowed: int) -> None:
    """Bland's rule iterations on the last (cost) row; columns >= ``allowed``
    never enter.  Raises Unbounded when a ratio test fails."""
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
            raise Unbounded("no ratio limit for an improving direction")
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


def _with_bounds(a: np.ndarray, b: np.ndarray, lower: np.ndarray | None,
                 upper: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """``a @ x >= b`` stacked with x_i >= lower_i for every finite lower
    bound, then -x_i >= -upper_i for every finite upper bound."""
    n = a.shape[1]
    rows, rhs = [a], [b]
    for sign, bound in ((1.0, lower), (-1.0, upper)):
        if bound is not None:
            idx = np.flatnonzero(np.isfinite(bound))
            unit = np.zeros((idx.size, n))
            unit[np.arange(idx.size), idx] = sign
            rows.append(unit)
            rhs.append(sign * bound[idx])
    return np.vstack(rows), np.concatenate(rhs)


def solve_lp(lp: LinearProgram) -> np.ndarray:
    """Optimal vertex of the linear program, deterministic via Bland's rule.
    The result is certified from scratch: primal feasibility, nonnegative row
    duals, complementary slackness and a closed duality gap."""
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


def solve_qp(qp: QuadraticProgram) -> np.ndarray:
    """Minimizer of a strictly convex QP by the dual active-set method of
    Goldfarb and Idnani (Math. Prog. 27, 1983).  It starts at the
    unconstrained minimum -Q^-1 c with no working rows, so it needs no
    feasible start, and adds the most violated row one at a time (the lowest
    index on ties).  Each step solves the KKT system of the working rows for
    the primal direction and the multiplier change, then either drops the
    working row whose multiplier reaches zero first or adds the new row.  A
    row that no direction can satisfy while no multiplier can drop proves the
    rows infeasible.  The returned point satisfies the KKT conditions to
    1e-8."""
    n = qp.c.shape[0]
    rows, rhs = _with_bounds(qp.a, qp.b, qp.lower_bounds, qp.upper_bounds)
    m = rows.shape[0]
    q_max = float(np.abs(qp.Q).max())
    x = np.linalg.solve(qp.Q, -qp.c)
    working: list[int] = []
    lam = np.zeros(0)
    add = -1
    for _ in range(100 * (m + 2)):
        if add < 0:
            slack = rows @ x - rhs
            # Per row, so that a huge bound row hides no real violation.
            tol = 1e-12 * (1.0 + np.abs(rhs) + float(np.abs(x).max(initial=0.0)))
            short = np.flatnonzero(slack < -tol)
            if short.size == 0:
                _certify_qp(qp, rows, rhs, x, lam, working)
                return x
            add = int(short[np.argmin(slack[short])])
            lam_add = 0.0
        normal = rows[add]
        k = len(working)
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = qp.Q
        kkt[:n, n:] = rows[working].T
        kkt[n:, :n] = rows[working]
        sol = np.linalg.solve(kkt, np.concatenate([normal, np.zeros(k)]))
        # Q z + A_W^T r = normal with A_W z = 0: per unit step along z the new
        # row's multiplier rises by 1 and the working multipliers fall by r.
        z, r = sol[:n], sol[n:]
        # z is null when the new row lies in the span of the working rows.
        null = float(np.abs(z).max()) <= 1e-11 * float(np.abs(normal).max()) / q_max
        falling = np.flatnonzero(r > 1e-12 * float(np.abs(r).max(initial=0.0)))
        if null and falling.size == 0:
            raise Infeasible(f"row {add} cannot be satisfied together with the working rows")
        t_add = math.inf if null else max(float(rhs[add] - normal @ x) / float(normal @ z), 0.0)
        t_drop, drop = math.inf, -1
        if falling.size:
            ratios = lam[falling] / r[falling]
            drop = int(falling[np.argmin(ratios)])
            t_drop = max(float(ratios.min()), 0.0)
        step = min(t_add, t_drop)
        if not null:
            x = x + step * z
        lam = lam - step * r
        lam_add += step
        if t_add <= t_drop:
            working.append(add)
            lam = np.append(lam, lam_add)
            add = -1
        else:
            working.pop(drop)
            lam = np.delete(lam, drop)
    raise NumericalError("active-set iteration limit exceeded")


def _certify_qp(qp, rows, rhs, x, lam, working) -> None:
    scale = 1.0 + float(np.abs(x).max(initial=0.0)) + float(np.abs(qp.c).max(initial=0.0))
    active = rows[working]
    stationarity = qp.Q @ x + qp.c - active.T @ lam
    if np.abs(stationarity).max(initial=0.0) > 1e-8 * scale:
        raise NumericalError("KKT stationarity residual too large")
    if np.any(rows @ x - rhs < -1e-8 * scale):
        raise NumericalError("QP primal feasibility violated")
    if np.any(lam < -1e-8 * scale):
        raise NumericalError("negative multiplier at claimed optimum")
    if np.any(np.abs(lam * (active @ x - rhs[working])) > 1e-8 * scale):
        raise NumericalError("complementary slackness violated")
