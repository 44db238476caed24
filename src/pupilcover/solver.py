"""Small dense linear and strictly convex quadratic program solvers.

Problems have tens of variables and up to a few thousand rows (the radius
program of the p = 2 prime design has 2,192), and both solvers are dense,
self-contained dual methods that need no phase 1 and no feasible start:
the dual simplex from the bound vertex with Bland's rule for LPs whose
negative costs have finite upper bounds, and the dual active-set method of
Goldfarb and Idnani for QPs with a positive definite Q.  Both keep a
working set of rows that hold with equality, start where the multipliers
are already nonnegative (the bound vertex, the unconstrained minimum) and
add violated rows one at a time.  Constraint rows are one (rows, n) matrix
``a`` and one (rows,) vector ``b`` meaning ``a @ x >= b``; the solvers stack
them with the finite bound rows and never handle a row on its own.  Each
solve is certified post hoc from scratch by one KKT check, each condition
one matrix product over all rows.

The violated row, the ratio test and the blocking multiplier are array
scans over the rows that qualify, with the tie rules of the sequential scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class Infeasible(Exception):
    """The constraint system admits no solution."""


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
    lower_bounds <= x (<= upper_bounds when given).  A negative objective
    entry needs a finite upper bound, so no program is unbounded."""

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
        upper = np.inf if self.upper_bounds is None else self.upper_bounds
        if np.any((self.objective < 0.0) & ~np.isfinite(upper)):
            raise ValueError("a negative objective entry needs a finite upper bound")


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


def _short_rows(rows: np.ndarray, rhs: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slack of every row at x, and the rows short of their right side.
    The tolerance is per row, so that a huge bound row hides no real
    violation."""
    slack = rows @ x - rhs
    tol = 1e-12 * (1.0 + np.abs(rhs) + float(np.abs(x).max(initial=0.0)))
    return slack, np.flatnonzero(slack < -tol)


def solve_lp(lp: LinearProgram) -> np.ndarray:
    """Optimal vertex of the linear program by the dual simplex method
    (Lemke 1954) over the stacked rows, with Bland's rule (1977) for
    determinism.  The working set starts as the n bound rows: the lower bound
    where the cost is nonnegative, the upper bound where it is negative.  That
    vertex is dual feasible, so no phase 1 is needed.  Each step solves the
    working rows for x, adds the violated row of lowest index and drops the
    working row whose multiplier reaches zero first, the lowest row index on
    ties.  A row that no working row can make room for proves the rows
    infeasible.  The returned vertex satisfies the KKT conditions to 1e-8."""
    c = lp.objective
    n = c.shape[0]
    rows, rhs = _with_bounds(lp.a, lp.b, lp.lower_bounds, lp.upper_bounds)
    m = rows.shape[0]
    first = lp.a.shape[0]
    working = np.arange(first, first + n)
    if lp.upper_bounds is not None:
        negative = np.flatnonzero(c < 0.0)
        upper = np.flatnonzero(np.isfinite(lp.upper_bounds))
        working[negative] = first + n + np.searchsorted(upper, negative)
    for _ in range(100 * (m + 2)):
        basis = rows[working]
        x = np.linalg.solve(basis, rhs[working])
        short = _short_rows(rows, rhs, x)[1]
        if short.size == 0:
            lam = np.linalg.solve(basis.T, c)
            _certify(c, rows, rhs, x, lam, working)
            return x
        add = int(short[0])
        # c = B^T lam and rows[add] = B^T u: per unit of the new row's
        # multiplier, the working multipliers fall by u.
        lam, u = np.linalg.solve(basis.T, np.column_stack([c, rows[add]])).T
        falling = np.flatnonzero(u > 1e-12 * float(np.abs(u).max()))
        if falling.size == 0:
            raise Infeasible(f"row {add} cannot be satisfied together with the working rows")
        ratios = np.maximum(lam[falling], 0.0) / u[falling]
        low = float(ratios.min())
        ties = falling[ratios <= low + 1e-12 * (1.0 + low)]
        working[ties[np.argmin(working[ties])]] = add
    raise NumericalError("dual simplex iteration limit exceeded")


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
            slack, short = _short_rows(rows, rhs, x)
            if short.size == 0:
                _certify(qp.c, rows, rhs, x, lam, working, qp.Q @ x)
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


def _certify(c, rows, rhs, x, lam, working, qx=0.0) -> None:
    """The KKT conditions at x with multipliers lam on the working rows:
    stationarity qx + c = A_W^T lam (qx = Q x for a QP, 0 for an LP), primal
    feasibility, nonnegative multipliers and complementary slackness.  For
    an LP these also close the duality gap c x - lam b_W."""
    scale = 1.0 + float(np.abs(x).max(initial=0.0)) + float(np.abs(c).max(initial=0.0))
    active = rows[working]
    stationarity = qx + c - active.T @ lam
    if np.abs(stationarity).max(initial=0.0) > 1e-8 * scale:
        raise NumericalError("KKT stationarity residual too large")
    if np.any(rows @ x - rhs < -1e-8 * scale):
        raise NumericalError("primal feasibility violated")
    if np.any(lam < -1e-8 * scale):
        raise NumericalError("negative multiplier at claimed optimum")
    if np.any(np.abs(lam * (active @ x - rhs[working])) > 1e-8 * scale):
        raise NumericalError("complementary slackness violated")
