"""Injectivity certificates and exact reconstruction for redundant ReLU layers.

The pipeline: normalize the weight rows onto the unit sphere, enumerate the
facets of their convex hull, estimate a verified upper bias per element over
the adjacent facet cones, compare a given bias against it, and invert
certified layers exactly through per-facet canonical duals.
"""

__version__ = "0.1.0"

from . import errors
from .errors import RelucertError
from .frames import (FrameBounds, UnitFrame, analysis, dual_synthesis, frame_bounds,
                     is_frame, normalize, synthesis)
from .hull import quickhull
from .polytope import (Polytope, PositiveFacetReport, build_polytope, covering_facet,
                       is_omnidirectional, positive_facets)
from .solvers import (CappedConeProblem, SolveResult, lp_feasible,
                      min_linear_capped_cone)
from .pbe import (DOMAIN_BALL, DOMAIN_BALL_POSITIVE, UNCONSTRAINED, BiasEstimate,
                  StabilityReport, alpha_X, pbe_ball, pbe_positive, stability,
                  stability_positive)
from .layer import (ActivePattern, Certificate, FacetDualBank, ReLULayer,
                    active_from_output, active_set, build_dual_bank, certify,
                    facet_reconstruction, forward, reconstruct,
                    reconstruct_batch, spanning_failures)
from .fixtures import (icosahedron, mercedes_benz, random_sphere, standard_basis,
                       tetrahedron)
from .reports import Report, build_report

__all__ = [
    "__version__", "errors", "RelucertError",
    "UnitFrame", "FrameBounds", "normalize", "analysis", "synthesis",
    "frame_bounds", "is_frame", "dual_synthesis",
    "quickhull",
    "Polytope", "PositiveFacetReport", "build_polytope",
    "is_omnidirectional", "covering_facet", "positive_facets",
    "CappedConeProblem", "SolveResult", "min_linear_capped_cone", "lp_feasible",
    "DOMAIN_BALL", "DOMAIN_BALL_POSITIVE", "UNCONSTRAINED",
    "BiasEstimate", "StabilityReport", "alpha_X", "pbe_ball", "pbe_positive",
    "stability", "stability_positive",
    "ReLULayer", "ActivePattern", "Certificate", "FacetDualBank",
    "forward", "active_set", "active_from_output", "certify",
    "build_dual_bank", "facet_reconstruction", "reconstruct", "reconstruct_batch",
    "spanning_failures",
    "mercedes_benz", "tetrahedron", "icosahedron", "standard_basis",
    "random_sphere",
    "Report", "build_report",
]
