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
from .frames import UnitFrame, frame_bounds
from .polytope import Polytope, PositiveFacetReport, is_omnidirectional
from .solvers import TOL_SOLVER, CappedConeProblem, min_linear_capped_cone

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
    out = _facet_block_min(poly, range(poly.num_facets))
    orphans = np.nonzero(np.isinf(out))[0]
    if orphans.size:
        raise OrphanVertex(int(orphans[0]))
    return out


def _facet_block_min(poly: Polytope, facet_indices) -> np.ndarray:
    """alpha_X over the given facets only; +inf on elements of none of them."""
    gram = poly.frame.elements @ poly.frame.elements.T
    out = np.full(poly.frame.m, np.inf)
    for j in facet_indices:
        idx = list(poly.vertices[j])
        out[idx] = np.minimum(out[idx], gram[np.ix_(idx, idx)].min(axis=1))
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
    if radius <= 0:
        raise ValueError("radius must be positive")
    m = frame.m
    pts = frame.elements

    facet_indices = np.asarray(facet_indices, dtype=int)
    a_x = _facet_block_min(poly, facet_indices)
    a_s = np.full(m, np.nan)
    a_b = np.full(m, UNCONSTRAINED)
    unconstrained = np.isinf(a_x)
    if domain == DOMAIN_BALL and unconstrained.any():
        raise OrphanVertex(int(np.nonzero(unconstrained)[0][0]))

    for i in range(m):
        if unconstrained[i]:
            continue
        if a_x[i] >= 0.0:
            a_b[i] = 0.0
            continue
        best = np.inf
        for j in facet_indices[poly.incidence[facet_indices, i]].tolist():
            verts = pts[list(poly.vertices[j])]
            problem = CappedConeProblem(D=verts.T, c=verts @ pts[i], tol=tol)
            try:
                result = min_linear_capped_cone(problem)
            except NotConverged as exc:
                raise SolverFailed(i, j) from exc
            best = min(best, result.value - result.kkt_residual / abs(poly.offsets[j]))
        a_s[i] = best
        a_b[i] = best

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
    lower = min(frame_bounds(frame, poly.vertices[j]).lower
                for j in facet_indices)
    upper = frame_bounds(frame).upper
    return StabilityReport(A0=float(lower), B0=float(upper),
                           image_radius=float(radius) * float(np.sqrt(upper)))
