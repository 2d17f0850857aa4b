"""Polytope bias estimation: verified upper bias vectors for ReLU layers.

Per frame element, three nested quantities are computed over its adjacent
facets: alpha_X, the smallest correlation with any vertex of those facets;
alpha_S, the smallest analysis coefficient over the facet cones intersected
with the unit sphere (a capped-cone program per facet); and alpha_B, the
smallest over the cones intersected with the unit ball, which collapses to
0 where alpha_X >= 0 and to alpha_S otherwise. A layer whose bias stays
entrywise below the scaled alpha_B is injective on the ball of the given
radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (NotConverged, NotNonnegOmnidirectional, NotOmnidirectional,
                     OrphanVertex, SolverFailed)
from .frames import UnitFrame, operator_bounds
from .polytope import (Polytope, PositiveFacetReport, facet_groups, is_omnidirectional,
                       nonzero_2d)
from .solvers import TOL_SOLVER, min_linear_capped_cones

DOMAIN_BALL = "ball"
DOMAIN_BALL_POSITIVE = "ball+"

UNCONSTRAINED = np.inf  # sentinel for entries the estimate leaves arbitrary


@dataclass(frozen=True)
class BiasEstimate:
    """Upper bias vectors for one frame, one domain and one ball radius.

    `alpha_S` carries NaN where the cone programs were not needed; on the
    non-negative domain, entries of elements on no selected facet are
    `UNCONSTRAINED` (+inf) and flagged in `unconstrained_mask`. `alpha_scaled`
    is `radius * alpha_B`: a point in the radius-r ball activates element i
    at threshold r * alpha_B_i exactly when its rescaling into the unit ball
    does at alpha_B_i.
    """

    domain: str
    radius: float
    alpha_X: np.ndarray
    alpha_S: np.ndarray
    alpha_B: np.ndarray
    alpha_scaled: np.ndarray
    unconstrained_mask: np.ndarray
    frame_fingerprint: str


@dataclass(frozen=True)
class StabilityReport:
    """Two-sided energy bounds for a certified layer.

    A0 is a certified lower bound (the smallest facet sub-frame eigenvalue;
    every active set contains some facet vertex set). B0 is the largest
    eigenvalue of the full frame operator. `image_radius` = r * sqrt(B0)
    bounds the forward image of the radius-r ball whenever the bias is
    non-negative. For any bias b, r * sqrt(B0) + ||max(-b, 0)|| bounds it,
    since 0 <= max(Wx - b, 0) <= max(Wx, 0) + max(-b, 0) entrywise.
    """

    A0: float
    B0: float
    image_radius: float


def alpha_X(poly: Polytope) -> np.ndarray:
    """Smallest correlation of each element with the vertices of its facets."""
    out = _facet_block_min(poly.frame, facet_groups(poly, range(poly.num_facets)))
    orphans = np.nonzero(np.isinf(out))[0]
    if orphans.size:
        raise OrphanVertex(int(orphans[0]))
    return out


def _facet_block_min(frame: UnitFrame, groups) -> np.ndarray:
    """alpha_X over the grouped facets only; +inf on elements of none of them."""
    gram = frame.elements @ frame.elements.T
    out = np.full(frame.m, np.inf)
    for _, verts in groups:
        np.minimum.at(out, verts, gram[verts[:, :, None], verts[:, None, :]].min(axis=2))
    return out


def pbe_ball(frame: UnitFrame, poly: Polytope, radius: float = 1.0,
             tol: float = TOL_SOLVER) -> BiasEstimate:
    """Upper bias on the ball of the given radius for an omnidirectional frame."""
    if not is_omnidirectional(poly):
        raise NotOmnidirectional("bias estimation on the ball needs an omnidirectional frame")
    return _estimate(frame, poly, range(poly.num_facets), DOMAIN_BALL, radius, tol)


def pbe_positive(frame: UnitFrame, poly: Polytope, report: PositiveFacetReport,
                 radius: float = 1.0, tol: float = TOL_SOLVER) -> BiasEstimate:
    """Upper bias on the non-negative part of the ball.

    Only facets meeting the non-negative orthant take part; elements on none
    of them get an arbitrary (unconstrained) bias entry.
    """
    if not report.nonneg_omnidirectional:
        raise NotNonnegOmnidirectional(
            "the selected facet cones do not cover the non-negative orthant")
    return _estimate(frame, poly, report.facet_indices, DOMAIN_BALL_POSITIVE, radius, tol)


def _estimate(frame, poly, facet_indices, domain, radius, tol) -> BiasEstimate:
    """Shared body of `pbe_ball` and `pbe_positive`.

    Each facet's cone-program value is lowered by eps / |offset|, where eps
    is the solver's dual infeasibility, so alpha_S is a lower bound whatever
    the rounding: with g = c + G d* >= -eps, every y = D d in the capped cone
    has <x_i, y> = g.d - <D d*, y> >= -eps * sum(d) - ||D d*||. Every vertex
    lies on the facet plane <normal, .> = offset, so
    sum(d) = <normal, y> / offset <= ||y|| / |offset| <= 1 / |offset|.
    """
    if not 0.0 < radius < np.inf:
        raise ValueError("radius must be finite and positive")
    facet_indices = np.asarray(facet_indices, dtype=int)
    groups = list(facet_groups(poly, facet_indices))
    a_x = _facet_block_min(frame, groups)
    unconstrained = np.isinf(a_x)
    if domain == DOMAIN_BALL and unconstrained.any():
        raise OrphanVertex(int(np.nonzero(unconstrained)[0][0]))
    need = a_x < 0.0  # elements whose facets need cone programs
    a_b = np.where(need | unconstrained, UNCONSTRAINED, 0.0)  # need: minimum below

    pts = frame.elements
    failures = []
    for rows, verts in groups:
        # one program per (facet, element on it that needs one); G and c
        # are the products D^T D and D^T x_i of the facet's vertex columns
        r, i = nonzero_2d(poly.incidence[facet_indices[rows]] & need)
        vx = pts[verts]
        values, _, residuals, steps, failed = min_linear_capped_cones(
            (vx @ vx.swapaxes(1, 2))[r], (vx[r] @ pts[i][:, :, None])[:, :, 0], tol)
        offsets = np.abs(poly.offsets[facet_indices[rows[r]]])
        np.minimum.at(a_b, i, values - residuals / offsets)
        failures += zip(i[failed].tolist(), rows[r[failed]].tolist(),
                        steps[failed].tolist(), residuals[failed].tolist())
    if failures:
        # the pair a scan by element, then by facet, would meet first
        i, pos, steps, residual = min(failures)
        raise SolverFailed(i, int(facet_indices[pos])) from NotConverged(steps, residual)
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
    )


def stability(frame: UnitFrame, poly: Polytope, radius: float = 1.0) -> StabilityReport:
    """Energy bounds for layers certified on the ball (omnidirectional frames)."""
    if not is_omnidirectional(poly):
        raise NotOmnidirectional("stability bounds need an omnidirectional frame")
    return _stability(frame, poly, range(poly.num_facets), radius)


def stability_positive(frame: UnitFrame, poly: Polytope, report: PositiveFacetReport,
                       radius: float = 1.0) -> StabilityReport:
    """Energy bounds on the non-negative domain, restricted to the selected facets."""
    if not report.nonneg_omnidirectional:
        raise NotNonnegOmnidirectional(
            "the selected facet cones do not cover the non-negative orthant")
    return _stability(frame, poly, report.facet_indices, radius)


def _stability(frame, poly, facet_indices, radius) -> StabilityReport:
    ops = np.empty((len(facet_indices), frame.n, frame.n))
    for rows, verts in facet_groups(poly, facet_indices):
        sub = frame.elements[verts]
        ops[rows] = sub.swapaxes(1, 2) @ sub
    lower, _ = operator_bounds(ops)
    _, upper = operator_bounds(frame.elements.T @ frame.elements)
    return StabilityReport(A0=float(lower.min()), B0=float(upper),
                           image_radius=float(radius) * float(np.sqrt(upper)))
