"""Small convex solvers.

Two work horses live here: linear minimization over the capped cone
{d >= 0, ||D d||_2 <= 1} (the bias estimation's per-facet programs, solved in
batches) and a dense phase-1 simplex deciding whether {x >= 0 : A x = b}
is non-empty. Problem sizes are tiny (tens of variables at most), so
robustness beats asymptotics.

The cone program is solved exactly. With c = D^T x, Moreau's decomposition
(1962) gives min {<x, y> : y in K = cone(D), ||y|| <= 1} = -||P_K(-x)||, and
P_K(-x) = D d* for the non-negative least-squares solution
d* = argmin_{d >= 0} d^T G d + 2 c^T d, G = D^T D. Lawson and Hanson's
active-set method (Solving Least Squares Problems, 1974) finds d* in finitely
many steps. Its dual infeasibility is returned with the value, so a caller
can turn the value into a bound that holds whatever the rounding did. The
batch runs on Gram matrices (Bro and De Jong, J. Chemometrics 11, 1997) and
steps many programs at once (Van Benthem and Keenan, ibid. 18, 2004).
"""

from __future__ import annotations

import numpy as np

from .errors import NotConverged

TOL_SOLVER = 1e-9
# a free generator enters the active set only if it lowers the objective by
# more than rounding noise; a column in the span of the active set has a
# zero gradient entry up to rounding and must not enter (singular block)
_TOL_ENTER = 1e-14
# phase-1 simplex: entries and reduced costs up to _TOL_PIVOT in magnitude
# count as zero, and ratios within _TOL_RATIO of the smallest are ties
_TOL_PIVOT = 1e-9
_TOL_RATIO = 1e-12
_MAX_PIVOTS = 50_000


def min_linear_capped_cones(G: np.ndarray, c: np.ndarray, tol: float = TOL_SOLVER):
    """Solve P capped-cone programs in Gram form by Lawson-Hanson in lockstep.

    G is (P, k, k), each program's D^T D, and c is (P, k). The first round
    settles every program with c >= -_TOL_ENTER at the apex in one mask.
    Each round makes one active-set step for every program still running:
    one stacked solve, with the non-passive rows and columns of G set to the
    identity. Per program, the first largest descent enters, an entering
    generator that gets no positive weight ends it, and the walk towards the
    passive solution drops the first smallest blocking ratio.

    Returns, per program, (values, argmins, residuals, steps, failed):
    -sqrt(d*^T G d*); d* scaled onto the cap (0 at the apex); the dual
    infeasibility max(0, -min(c + G d*)), as c + G d* = D^T lam with
    lam = x + D d*; the active-set steps; and whether it needed more than
    3k steps (the inner walk is bounded by k, so only cycling can) or left
    a residual not within `tol`.
    """
    P, k = c.shape
    d, s = np.zeros((2, P, k))
    passive = np.zeros((P, k), dtype=bool)  # generators free to move; d > 0 there
    descent = -c  # -(c + G d): positive entries lower the objective
    steps = np.zeros(P, dtype=int)
    live = np.arange(P)
    while live.size:
        walking = (passive[live] & (s[live] <= 0.0)).any(axis=1)
        top, walk = live[~walking], live[walking]
        # top of the outer loop: d moves to the last passive solution
        moved = top[steps[top] > 0]
        d[moved] = s[moved]
        descent[moved] = -(c[moved] + (G[moved] @ s[moved][:, :, None])[:, :, 0])
        free = ~passive[top] & (descent[top] > _TOL_ENTER)
        go = free.any(axis=1) & (steps[top] <= 3 * k)
        top, free = top[go], free[go]
        enter = np.argmax(np.where(free, descent[top], -np.inf), axis=1)
        passive[top, enter] = True
        # walk from d towards s until the first blocking weight hits zero
        dw, sw, pw = d[walk], s[walk], passive[walk]
        blocking = pw & (sw <= 0.0)
        ratio = np.where(blocking, dw / np.where(blocking, dw - sw, 1.0), np.inf)
        dw = dw + ratio.min(axis=1)[:, None] * (sw - dw)
        pw[np.arange(walk.size), ratio.argmin(axis=1)] = False
        pw &= dw > 0.0
        d[walk] = np.where(pw, dw, 0.0)
        passive[walk] = pw
        rows = np.concatenate([top, walk])
        if not rows.size:
            break
        s[rows] = _passive_solves(G[rows], c[rows], passive[rows])
        steps[rows] += 1
        # in exact arithmetic an entering generator gets a positive weight
        # (the key step of Lawson and Hanson's proof); where rounding denies
        # it, its descent was noise and d is optimal to that accuracy: the
        # program stops with d and its descent as they were
        live = np.concatenate([top[s[top, enter] > 0.0], walk])

    residuals = np.maximum(0.0, descent.max(axis=1))
    norms = np.sqrt(np.maximum((d[:, None, :] @ G @ d[:, :, None])[:, 0, 0], 0.0))
    values = np.where(norms > 0.0, -norms, 0.0)
    argmins = np.divide(d, norms[:, None], out=np.zeros_like(d), where=norms[:, None] > 0.0)
    failed = (steps > 3 * k) | ~(residuals <= tol)
    return values, argmins, residuals, steps, failed


def _passive_solves(G: np.ndarray, c: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Unconstrained minimizers over each program's passive generators, zero
    elsewhere, by one stacked solve with the non-passive rows and columns
    set to the identity. Where a passive block is singular to working
    precision (linearly dependent generators, as a preimage set's
    constraints can be), the stack takes least-squares solutions instead.
    G must be a copy: it is overwritten."""
    np.copyto(G, np.eye(G.shape[-1]), where=~(passive[:, :, None] & passive[:, None, :]))
    rhs = np.where(passive, -c, 0.0)[:, :, None]
    try:
        s = np.linalg.solve(G, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        s = (np.linalg.pinv(G, hermitian=True) @ rhs)[:, :, 0]
    return np.where(passive, s, 0.0)


def lp_feasible(A, b) -> bool:
    """Decide whether {x >= 0 : A x = b} is non-empty, by phase-1 simplex.

    A is (rows, columns) and b (rows,); a caller poses an inequality
    G x >= h as G x - s = h with slack columns -I and s >= 0. Feasible
    means the artificial objective reaches zero within TOL_SOLVER. The
    smallest improving column enters (Bland); the largest pivot among the
    rows tied at the smallest ratio leaves. Entries and reduced costs up to
    `_TOL_PIVOT` count as zero: a pivot at that level would scale the
    tableau by its inverse and bury the objective in rounding. Raises
    NotConverged if `_MAX_PIVOTS` pivots reach no optimum.
    """
    a = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    a[b < 0] *= -1.0
    b = np.abs(b)

    n_rows, n_cols = a.shape
    tableau = np.hstack([a, np.eye(n_rows), b[:, None]])
    # phase-1 reduced costs for the artificial basis
    cost = np.concatenate([-tableau[:, :n_cols].sum(axis=0),
                           np.zeros(n_rows), [-float(b.sum())]])

    for _ in range(_MAX_PIVOTS):
        # Bland: the smallest improving index with a pivot row enters. A
        # phase-1 objective is bounded below by 0, so an improving column
        # with no pivot row only shows rounding in its reduced cost: it is
        # taken as non-improving.
        for entering in np.flatnonzero(cost[:n_cols] < -_TOL_PIVOT):
            col = tableau[:, entering]
            rows = np.flatnonzero(col > _TOL_PIVOT)
            if rows.size:
                break
        else:
            break
        ratios = tableau[rows, -1] / col[rows]
        ties = rows[ratios <= ratios.min() + _TOL_RATIO]
        leaving = ties[np.argmax(col[ties])]
        tableau[leaving] /= tableau[leaving, entering]
        factors = tableau[:, entering].copy()
        factors[leaving] = 0.0
        tableau -= factors[:, None] * tableau[leaving]
        cost -= cost[entering] * tableau[leaving]
    else:
        raise NotConverged(_MAX_PIVOTS, float(-cost[-1]))
    return bool(-cost[-1] <= TOL_SOLVER)

