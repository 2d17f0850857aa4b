"""Injectivity certificates and exact reconstruction for redundant ReLU layers.

The pipeline: normalize the weight rows onto the unit sphere, enumerate the
facets of their convex hull, estimate a verified upper bias per element over
the adjacent facet cones, compare a given bias against it, and invert
certified layers exactly through the canonical duals of spanning sub-frames.
`__all__` holds the steps of that pipeline, the types they return, the
frame generators and `spanning_failures`, a sampled check that active sets
span; README's "Public API" lists the same names.
"""

__version__ = "0.1.0"

from . import errors
from .errors import RelucertError
from .frames import UnitFrame, normalize
from .hull import quickhull
from .polytope import (Polytope, PositiveFacetReport, build_polytope, is_omnidirectional,
                       positive_facets)
from .solvers import min_linear_capped_cones
from .pbe import (DOMAIN_BALL, DOMAIN_BALL_POSITIVE, UNCONSTRAINED, BiasEstimate,
                  StabilityReport, alpha_X, pbe_ball, pbe_positive, stability,
                  stability_positive)
from .layer import (Certificate, ReLULayer, certify, forward, reconstruct, reconstruct_batch,
                    spanning_failures)
from .fixtures import (icosahedron, mercedes_benz, random_sphere, standard_basis,
                       tetrahedron)
from .reports import Report, build_report

__all__ = [
    "__version__", "errors", "RelucertError",
    "UnitFrame", "normalize",
    "quickhull",
    "Polytope", "PositiveFacetReport", "build_polytope",
    "is_omnidirectional", "positive_facets",
    "min_linear_capped_cones",
    "DOMAIN_BALL", "DOMAIN_BALL_POSITIVE", "UNCONSTRAINED",
    "BiasEstimate", "StabilityReport", "alpha_X", "pbe_ball", "pbe_positive",
    "stability", "stability_positive",
    "ReLULayer", "Certificate",
    "forward", "certify",
    "reconstruct", "reconstruct_batch",
    "spanning_failures",
    "mercedes_benz", "tetrahedron", "icosahedron", "standard_basis",
    "random_sphere",
    "Report", "build_report",
]
