"""Polytope bias estimation: verified upper bias vectors for ReLU layers.

Per frame element, three nested quantities are computed over its adjacent
facets: alpha_X, the smallest correlation with any vertex of those facets;
alpha_S, the smallest analysis coefficient over the facet cones intersected
with the unit sphere (a capped-cone program per facet); and alpha_B, the
smallest over the cones intersected with the unit ball, which collapses to
0 where alpha_X >= 0 and to alpha_S otherwise. A layer whose bias stays
entrywise below the scaled alpha_B is injective on the ball of the given
radius.

The estimate and A0 read the domain's facets grouped by size
(`polytope.facet_groups`): on the ball, the polytope's table, built once;
the estimate passes over the groups twice: for alpha_X, then to prune and
solve.
Each solver runs only where a proven bound cannot decide its result, and
every reported number keeps the bits a full solve gives. A cone program
runs only if its lower bound from the lemma sum(d) <= 1 / |offset| does
not exceed alpha_X, an upper bound on alpha_B, by TOL_PRUNE / offset^2
(proof and margin in `_estimate`). A0 is the smallest facet operator
eigenvalue from `frames.smallest_lower_bound`, whose LDL^T screen gives
`eigvalsh` only the operators that could hold it (proof and margin in the
`frames` module docstring).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (FrameMismatch, NotConverged, NotNonnegOmnidirectional,
                     NotOmnidirectional, OrphanVertex, SolverFailed)
from .frames import UnitFrame, operator_bounds, smallest_lower_bound
from .polytope import (Polytope, PositiveFacetReport, facet_groups, is_omnidirectional,
                       nonzero_2d)
from .solvers import TOL_SOLVER, min_linear_capped_cones

DOMAIN_BALL = "ball"
DOMAIN_BALL_POSITIVE = "ball+"

UNCONSTRAINED = np.inf  # sentinel for entries the estimate leaves arbitrary
# a cone program runs unless its lower bound exceeds alpha_X by this over
# offset^2: far above the rounding of either side (see `_estimate`)
TOL_PRUNE = 1e-6


@dataclass(frozen=True)
class BiasEstimate:
    """Upper bias vectors for one frame, one domain and one ball radius.

    `alpha_S` carries NaN where the cone programs were not needed; on the
    non-negative domain, entries of elements on no selected facet are
    `UNCONSTRAINED` (+inf) and flagged in `unconstrained_mask`. `alpha_scaled`
    is `radius * alpha_B`: a point in the radius-r ball activates element i
    at threshold r * alpha_B_i exactly when its rescaling into the unit ball
    does at alpha_B_i. `tol` is the solver tolerance the cone programs ran
    with.
    """

    domain: str
    radius: float
    alpha_X: np.ndarray
    alpha_S: np.ndarray
    alpha_B: np.ndarray
    alpha_scaled: np.ndarray
    unconstrained_mask: np.ndarray
    frame_fingerprint: str
    tol: float


@dataclass(frozen=True)
class StabilityReport:
    """Two-sided energy bounds for a certified layer.

    A0 is a certified lower bound (the smallest facet sub-frame eigenvalue;
    every active set contains some facet vertex set). B0 is the largest
    eigenvalue of the full frame operator. `image_radius` = r * sqrt(B0)
    bounds the forward image of the radius-r ball whenever the bias is
    non-negative. For any bias b, r * sqrt(B0) + ||max(-b, 0)|| bounds it,
    since 0 <= max(Wx - b, 0) <= max(Wx, 0) + max(-b, 0) entrywise.
    `radius` is the r the bounds were computed for.
    """

    A0: float
    B0: float
    image_radius: float
    radius: float


def alpha_X(poly: Polytope) -> np.ndarray:
    """Smallest correlation of each element with the vertices of its facets."""
    out, _, _ = _facet_group_min(poly.frame, poly.facets_by_size)
    orphans = np.nonzero(np.isinf(out))[0]
    if orphans.size:
        raise OrphanVertex(int(orphans[0]))
    return out


def _facet_group_min(frame: UnitFrame, groups):
    """alpha_X over the grouped facets only, +inf on elements of none of
    them; each element's first facet, its smallest grouped facet index; and
    per group the (F_k, k) array whose entry (f, p) is the smallest
    correlation of the facet's vertex p with its vertices."""
    gram = frame.elements @ frame.elements.T
    out = np.full(frame.m, np.inf)
    first = np.full(frame.m, np.iinfo(int).max)
    mins = []
    for facets, verts in groups:
        mins.append(gram[verts[:, :, None], verts[:, None, :]].min(axis=2))
        np.minimum.at(out, verts.ravel(), mins[-1].ravel())  # 1-d: numpy's fast path
        np.minimum.at(first, verts.ravel(), np.repeat(facets, verts.shape[1]))
    return out, first, mins


def pbe_ball(frame: UnitFrame, poly: Polytope, radius: float = 1.0,
             tol: float = TOL_SOLVER) -> BiasEstimate:
    """Upper bias on the ball of the given radius for an omnidirectional frame."""
    _check_frame(frame, poly)
    if not is_omnidirectional(poly):
        raise NotOmnidirectional(
            "bias estimation on the ball needs an omnidirectional frame; try --domain ball+")
    return _estimate(frame, poly, range(poly.num_facets), DOMAIN_BALL, radius, tol)


def pbe_positive(frame: UnitFrame, poly: Polytope, report: PositiveFacetReport,
                 radius: float = 1.0, tol: float = TOL_SOLVER) -> BiasEstimate:
    """Upper bias on the non-negative part of the ball.

    Only facets meeting the non-negative orthant take part; elements on none
    of them get an arbitrary (unconstrained) bias entry.
    """
    _check_frame(frame, poly)
    if not report.nonneg_omnidirectional:
        raise NotNonnegOmnidirectional(
            "the selected facet cones do not cover the non-negative orthant")
    return _estimate(frame, poly, report.facet_indices, DOMAIN_BALL_POSITIVE, radius, tol)


def _check_frame(frame: UnitFrame, poly: Polytope) -> None:
    """Raise FrameMismatch unless `poly` is the polytope of `frame`."""
    if frame is not poly.frame and frame.fingerprint() != poly.frame.fingerprint():
        raise FrameMismatch("polytope was built for a different frame")


def _estimate(frame, poly, facet_indices, domain, radius, tol) -> BiasEstimate:
    """Shared body of `pbe_ball` and `pbe_positive`.

    Each facet's cone-program value is lowered by eps / |offset|, where eps
    is the solver's dual infeasibility, so alpha_S is a lower bound whatever
    the rounding: with g = c + G d* >= -eps, every y = D d in the capped cone
    has <x_i, y> = g.d - <D d*, y> >= -eps * sum(d) - ||D d*||. Every vertex
    lies on the facet plane <normal, .> = offset, so
    sum(d) = <normal, y> / offset <= ||y|| / |offset| <= 1 / |offset|.

    A program runs only where it can set alpha_B. With g_Fi the smallest
    correlation of x_i with F's vertices, the same lemma bounds the
    program's result below: <x_i, y> = sum_l d_l <x_i, x_l> >= min(0, g_Fi)
    sum(d), and the solver's residual is at most tol unless the program
    fails, so value - residual / |offset| >=
    L_Fi = (min(0, g_Fi) - tol) / |offset|. And alpha_B[i] <=
    alpha_X[i]: on the facet of the vertex x_l that sets alpha_X[i], the
    solver's first step puts d on x_l alone (the largest descent, -g_Fi,
    enters), giving value g_Fi = alpha_X[i], and each later step lowers
    it. So the program (F, i) is skipped when L_Fi > alpha_X[i] +
    TOL_PRUNE / offset^2: its result could not have been the minimum, and
    alpha_S and alpha_B keep their bits. The facet that sets alpha_X[i] is
    never skipped, as its L_Fi <= g_Fi = alpha_X[i]. Rounding moves the
    two sides apart by about (TOL_PLANE + n eps + k^2 eps / |offset|) /
    offset^2 at most: vertices lie on the plane only up to `hull.TOL_PLANE`
    = 1e-9, c differs from the Gram entries by about n eps, and the passive
    solves leave residuals of order k^2 eps / |offset|. As L_Fi <= 0 and
    alpha_X >= -1, nothing is skipped where offset^2 < TOL_PRUNE; above
    that, TOL_PRUNE = 1e-6, a thousand times TOL_PLANE, covers the sum. A
    skipped program is not solved, so it cannot raise SolverFailed; each
    element's first program in scan order always runs, so a scan in which
    every program fails names the same first pair.
    """
    _check_radius(radius)
    if not 0.0 <= tol < np.inf:
        raise ValueError("tol must be finite and at least 0")
    groups = facet_groups(poly, facet_indices)
    a_x, first, mins = _facet_group_min(frame, groups)
    unconstrained = np.isinf(a_x)
    if domain == DOMAIN_BALL and unconstrained.any():
        raise OrphanVertex(int(np.nonzero(unconstrained)[0][0]))
    need = a_x < 0.0  # elements whose facets need cone programs
    a_b = np.where(need | unconstrained, UNCONSTRAINED, 0.0)  # need: minimum below

    pts = frame.elements
    failures = []
    for (facets, verts), mins_k in zip(groups, mins):
        # one program per (facet, element on it that needs one): row r of the
        # group, element i, and g, its smallest correlation with the vertices
        r, p = nonzero_2d(need[verts])
        i, g = verts[r, p], mins_k[r, p]
        offsets = np.abs(poly.offsets[facets[r]])
        skip = ((np.minimum(g, 0.0) - tol) / offsets
                > a_x[i] + TOL_PRUNE / offsets ** 2) & (facets[r] != first[i])
        run = np.flatnonzero(~skip)
        r, i, offsets = r[run], i[run], offsets[run]
        # G and c are the products D^T D and D^T x_i of the facet's vertex columns
        vx = pts[verts]
        values, _, residuals, steps, failed = min_linear_capped_cones(
            (vx @ vx.swapaxes(1, 2))[r], (vx[r] @ pts[i][:, :, None])[:, :, 0], tol)
        np.minimum.at(a_b, i, values - residuals / offsets)
        failures += zip(i[failed].tolist(), facets[r[failed]].tolist(),
                        steps[failed].tolist(), residuals[failed].tolist())
    if failures:
        # the pair a scan by element, then by facet, would meet first
        i, facet, steps, residual = min(failures)
        raise SolverFailed(i, facet) from NotConverged(steps, residual)
    a_s = np.where(need, a_b, np.nan)

    return BiasEstimate(
        domain=domain,
        radius=float(radius),
        alpha_X=a_x,
        alpha_S=a_s,
        alpha_B=a_b,
        alpha_scaled=float(radius) * a_b,
        unconstrained_mask=unconstrained,
        frame_fingerprint=frame.fingerprint(),
        tol=float(tol),
    )


def stability(frame: UnitFrame, poly: Polytope, radius: float = 1.0) -> StabilityReport:
    """Energy bounds for layers certified on the ball (omnidirectional frames)."""
    _check_frame(frame, poly)
    if not is_omnidirectional(poly):
        raise NotOmnidirectional("stability bounds need an omnidirectional frame")
    return _stability(frame, poly, range(poly.num_facets), radius)


def stability_positive(frame: UnitFrame, poly: Polytope, report: PositiveFacetReport,
                       radius: float = 1.0) -> StabilityReport:
    """Energy bounds on the non-negative domain, restricted to the selected facets."""
    _check_frame(frame, poly)
    if not report.nonneg_omnidirectional:
        raise NotNonnegOmnidirectional(
            "the selected facet cones do not cover the non-negative orthant")
    return _stability(frame, poly, report.facet_indices, radius)


def _check_radius(radius) -> None:
    if not 0.0 < radius < np.inf:
        raise ValueError("radius must be finite and positive")


def _stability(frame, poly, facet_indices, radius) -> StabilityReport:
    _check_radius(radius)
    # the operators in facet order, so that NotAFrame names the first failing one
    facet_indices = np.asarray(facet_indices)
    ops = np.empty((len(facet_indices), frame.n, frame.n))
    for facets, verts in facet_groups(poly, facet_indices):
        sub = frame.elements[verts]
        ops[np.searchsorted(facet_indices, facets)] = sub.swapaxes(1, 2) @ sub
        del sub  # the last group's vertices are not kept through the screen
    lower = smallest_lower_bound(ops)
    _, upper = operator_bounds(frame.elements.T @ frame.elements)
    return StabilityReport(A0=lower, B0=float(upper),
                           image_radius=float(radius) * float(np.sqrt(upper)),
                           radius=float(radius))
