"""Small convex solvers.

Two work horses live here: linear minimization over the capped cone
{d >= 0, ||D d||_2 <= 1} (used per facet by the bias estimation) and a dense
phase-1 simplex deciding LP feasibility. Problem sizes are tiny (tens of
variables at most), so robustness beats asymptotics throughout.

The cone program is solved exactly. With c = D^T x, Moreau's decomposition
(1962) gives min {<x, y> : y in K = cone(D), ||y|| <= 1} = -||P_K(-x)||, and
P_K(-x) = D d* for the non-negative least-squares solution
d* = argmin_{d >= 0} d^T G d + 2 c^T d, G = D^T D. Lawson and Hanson's
active-set method (Solving Least Squares Problems, 1974) finds d* in finitely
many steps. Its dual infeasibility is returned with the value, so a caller
can turn the value into a bound that holds whatever the rounding did.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotConverged

TOL_SOLVER = 1e-9
# a free generator enters the active set only if it lowers the objective by
# more than rounding noise; a column in the span of the active set has a
# zero gradient entry up to rounding and must not enter (singular block)
_TOL_ENTER = 1e-14


@dataclass(frozen=True)
class CappedConeProblem:
    """Minimize <c, d> subject to d >= 0 and ||D d||_2 <= 1.

    Columns of D are facet vertices on the unit sphere; c collects the inner
    products of those vertices with a fixed frame element.
    """

    D: np.ndarray
    c: np.ndarray
    tol: float = TOL_SOLVER

    def __post_init__(self):
        d = np.asarray(self.D, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if d.ndim != 2 or c.ndim != 1 or d.shape[1] != c.shape[0]:
            raise DimensionMismatch("D must be (n, k) with objective of length k")
        if not (np.isfinite(d).all() and np.isfinite(c).all()):
            raise DimensionMismatch("problem data must be finite")
        norms = np.linalg.norm(d, axis=0)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ValueError("columns of D must lie on the unit sphere")
        object.__setattr__(self, "D", d)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class SolveResult:
    value: float
    argmin: np.ndarray
    kkt_residual: float
    iterations: int


def min_linear_capped_cone(problem: CappedConeProblem) -> SolveResult:
    """Solve the capped-cone program exactly (see the module docstring).

    Lawson-Hanson NNLS on the Gram form yields d*; the result is
    `value` = -sqrt(d*^T G d*), `argmin` = d* scaled onto the cap (0 at the
    apex), `iterations` = active-set steps, and `kkt_residual` =
    max(0, -min(c + G d*)), the dual infeasibility: c + G d* = D^T lam with
    lam = x + D d*. Needing more than 3k steps (the inner loop is bounded by
    k, so only cycling can reach that), or a residual above `problem.tol`,
    raises NotConverged.
    """
    D, c = problem.D, problem.c
    k = c.shape[0]
    gram = D.T @ D
    d = np.zeros(k)
    passive = np.zeros(k, dtype=bool)  # generators free to move; d > 0 there
    steps = 0
    descent = -c  # -(c + G d): positive entries lower the objective
    while steps <= 3 * k:
        free = np.nonzero(~passive & (descent > _TOL_ENTER))[0]
        if free.size == 0:
            break
        j = free[np.argmax(descent[free])]
        passive[j] = True
        s = _passive_solve(gram, c, passive)
        steps += 1
        if s[j] <= 0.0:
            # in exact arithmetic an entering generator gets a positive
            # weight (the key step of Lawson and Hanson's proof); where
            # rounding denies it, its descent was noise and d is optimal
            # to that accuracy
            passive[j] = False
            break
        while (s[passive] <= 0.0).any():
            # walk from d towards s until the first blocking weight hits zero
            blocking = np.nonzero(passive & (s <= 0.0))[0]
            ratio = d[blocking] / (d[blocking] - s[blocking])
            d = d + float(np.min(ratio)) * (s - d)
            passive[blocking[np.argmin(ratio)]] = False
            passive &= d > 0.0
            d[~passive] = 0.0
            s = _passive_solve(gram, c, passive)
            steps += 1
        d = s
        descent = -(c + gram @ d)

    residual = max(0.0, float(np.max(descent)))
    if steps > 3 * k or residual > problem.tol:
        raise NotConverged(steps, residual)
    norm = float(np.sqrt(max(float(d @ gram @ d), 0.0)))
    if norm == 0.0:
        return SolveResult(0.0, np.zeros(k), residual, steps)
    return SolveResult(-norm, d / norm, residual, steps)


def _passive_solve(gram: np.ndarray, c: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Unconstrained minimizer over the passive generators, zero elsewhere."""
    s = np.zeros(c.shape[0])
    s[passive] = np.linalg.solve(gram[np.ix_(passive, passive)], -c[passive])
    return s


def lp_feasible(A_eq=None, b_eq=None, A_ineq=None, b_ineq=None,
                nonneg_vars: bool = True, tol: float = TOL_SOLVER) -> bool:
    """Decide whether {x : A_eq x = b_eq, A_ineq x >= b_ineq, x >= 0 if
    nonneg_vars} is non-empty, by phase-1 simplex with Bland's rule.

    Free variables are split into positive and negative parts. Feasible means
    the artificial objective reaches zero within `tol`.
    """
    eq_a, eq_b = _as_system(A_eq, b_eq)
    ge_a, ge_b = _as_system(A_ineq, b_ineq)
    if eq_a is None and ge_a is None:
        return True
    n_x = eq_a.shape[1] if eq_a is not None else ge_a.shape[1]
    if ge_a is not None and ge_a.shape[1] != n_x:
        raise DimensionMismatch("equality and inequality systems disagree on the variable count")

    blocks = []
    rhs = []
    n_ge = 0 if ge_a is None else ge_a.shape[0]
    if eq_a is not None:
        blocks.append(np.hstack([eq_a, np.zeros((eq_a.shape[0], n_ge))]))
        rhs.append(eq_b)
    if ge_a is not None:
        blocks.append(np.hstack([ge_a, -np.eye(n_ge)]))
        rhs.append(ge_b)
    a = np.vstack(blocks)
    b = np.concatenate(rhs)
    if not nonneg_vars:
        a = np.hstack([a[:, :n_x], -a[:, :n_x], a[:, n_x:]])

    neg = b < 0
    a[neg] *= -1.0
    b = np.abs(b)

    n_rows, n_cols = a.shape
    tableau = np.hstack([a, np.eye(n_rows), b[:, None]])
    basis = list(range(n_cols, n_cols + n_rows))
    # phase-1 reduced costs for the artificial basis
    cost = np.concatenate([-tableau[:, :n_cols].sum(axis=0),
                           np.zeros(n_rows), [-float(b.sum())]])

    eps = 1e-11
    for _ in range(50_000):
        entering = -1
        for j in range(n_cols):  # Bland: smallest improving index
            if cost[j] < -eps:
                entering = j
                break
        if entering < 0:
            break
        col = tableau[:, entering]
        leaving = -1
        best_ratio = np.inf
        for i in range(n_rows):
            if col[i] > eps:
                ratio = tableau[i, -1] / col[i]
                if ratio < best_ratio - 1e-12 or (
                        abs(ratio - best_ratio) <= 1e-12
                        and (leaving < 0 or basis[i] < basis[leaving])):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise ArithmeticError("phase-1 simplex became unbounded")
        pivot = tableau[leaving, entering]
        tableau[leaving] /= pivot
        for i in range(n_rows):
            if i != leaving and tableau[i, entering] != 0.0:
                tableau[i] -= tableau[i, entering] * tableau[leaving]
        cost = cost - cost[entering] * tableau[leaving]
        basis[leaving] = entering
    else:
        raise ArithmeticError("phase-1 simplex did not terminate")
    return bool(-cost[-1] <= tol)


def _as_system(a, b):
    if a is None and b is None:
        return None, None
    if a is None or b is None:
        raise DimensionMismatch("matrix and right-hand side must be given together")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    b = b.reshape(-1)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch("system row counts disagree")
    return a, b
