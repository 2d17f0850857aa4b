"""Exception types shared across the package."""


class RelucertError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(RelucertError):
    """Input file could not be parsed (bad CSV, wrong shape, non-finite values)."""


class DimensionMismatch(RelucertError):
    """Vector or matrix arguments have incompatible shapes."""


class ZeroRow(RelucertError):
    """A weight row has (numerically) zero norm and cannot be normalized."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"weight row {index} has zero norm (dead neuron)")


class NotAFrame(RelucertError):
    """A vector collection is rank deficient and does not span the space."""


class DegenerateHull(RelucertError):
    """The point set has no usable facet structure."""


class AtOrigin(RelucertError):
    """The query point is numerically zero; every facet cone contains it."""


class OrphanVertex(RelucertError):
    """A frame element lies on no facet of the polytope."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"frame element {index} lies on no facet")


class NotOmnidirectional(RelucertError):
    """The origin is not strictly inside the convex hull of the frame."""


class NotNonnegOmnidirectional(RelucertError):
    """The facet cones meeting the non-negative orthant fail to cover it."""


class NotConverged(RelucertError):
    """A solver ran out of steps or missed the requested accuracy."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(f"solver did not converge after {iterations} iterations "
                         f"(residual {residual:.3e})")


class SolverFailed(RelucertError):
    """A per-facet cone program failed while estimating a bias entry."""

    def __init__(self, index: int, facet: int):
        self.index = index
        self.facet = facet
        super().__init__(f"cone program failed for element {index} on facet {facet}")


class FrameMismatch(RelucertError):
    """A certificate or estimate was computed for a different layer."""


class ReconstructionFailed(RelucertError):
    """No facet left-inverse reproduces the given output vector."""


class UnknownName(RelucertError):
    """Unknown generator name."""
