"""ReLU layer on a ball: forward map, certificates and exact reconstruction.

The layer clips the analysis coefficients at a per-element bias. If the bias
stays below a verified upper bias, the layer is injective on its ball, and
any output can be inverted exactly through the canonical dual of one facet
sub-frame: per facet, the dual columns assemble a left-inverse valid on the
whole cone of that facet.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FrameMismatch, NotAFrame, ReconstructionFailed
from .frames import UnitFrame, as_matrix, as_vector, dual_synthesis, is_frame
from .pbe import DOMAIN_BALL, BiasEstimate
from .polytope import TOL_INTERIOR, Polytope, _readonly

TOL_ACTIVE = 1e-12
TOL_MARGIN = 1e-12
VERIFY_TOL = 1e-8


@dataclass(frozen=True)
class ReLULayer:
    """Unit-norm weight rows, a bias vector, and the declared input ball."""

    frame: UnitFrame
    bias: np.ndarray
    radius: float = 1.0
    domain: str = DOMAIN_BALL

    def __post_init__(self):
        b = as_vector(self.bias, self.frame.m, "bias")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class ActivePattern:
    """Indices whose analysis coefficient clears the bias threshold."""

    indices: tuple[int, ...]


@dataclass(frozen=True)
class Certificate:
    """Outcome of comparing a layer bias against a verified upper bias.

    `injective` is a sufficient verdict: False means "not certified", never
    "provably non-injective". Margins are alpha_scaled - bias; entries the
    estimate leaves unconstrained are +inf.
    """

    injective: bool
    margins: np.ndarray
    failing_indices: tuple[int, ...]
    estimate_ref: dict


@dataclass(frozen=True)
class FacetDualBank:
    """Canonical dual synthesis matrix of each facet of `poly`, in facet
    order, for one layer bias."""

    poly: Polytope
    duals: tuple[np.ndarray, ...]
    bias: np.ndarray
    frame_fingerprint: str


def forward(layer: ReLULayer, x) -> np.ndarray:
    """Clipped analysis coefficients max(0, <x, x_i> - bias_i).

    `x` is one input vector or an (N, n) matrix of input rows; a matrix
    gives the (N, m) matrix of outputs. Inputs outside the declared ball
    only draw a warning (once per call); the map itself is defined
    everywhere.
    """
    batch = np.ndim(x) == 2
    if batch:
        xs = _matrix(x, layer.frame.n, "inputs")
    else:
        xs = as_vector(x, layer.frame.n, "input")[None, :]
    if np.any(np.linalg.norm(xs, axis=1) > layer.radius + 1e-9):
        warnings.warn("input lies outside the declared ball", stacklevel=2)
    out = np.maximum(xs @ layer.frame.elements.T - layer.bias, 0.0)
    return out if batch else out[0]


def active_set(layer: ReLULayer, x, tol: float = TOL_ACTIVE) -> ActivePattern:
    """Indices with <x, x_i> >= bias_i, inclusive of boundary equalities."""
    v = as_vector(x, layer.frame.n, "input")
    coeff = layer.frame.elements @ v
    idx = np.nonzero(coeff >= layer.bias - tol)[0]
    return ActivePattern(tuple(int(i) for i in idx))


def active_from_output(z) -> ActivePattern:
    """Strictly positive output entries. A subset of the input's active set:
    coefficients that sit exactly at the bias produce a zero output."""
    zv = np.asarray(z, dtype=float)
    return ActivePattern(tuple(int(i) for i in np.nonzero(zv > 0.0)[0]))


def certify(layer: ReLULayer, estimate: BiasEstimate,
            tol: float = TOL_MARGIN) -> Certificate:
    """Compare the layer bias entrywise against the scaled upper bias.

    The estimate must have been computed for the same frame, domain and
    radius (checked by fingerprint). Unconstrained entries never fail.
    """
    if estimate.frame_fingerprint != layer.frame.fingerprint():
        raise FrameMismatch("estimate was computed for a different frame")
    if estimate.domain != layer.domain:
        raise FrameMismatch(
            f"estimate domain {estimate.domain!r} does not match layer domain {layer.domain!r}")
    if abs(estimate.radius - layer.radius) > 1e-12:
        raise FrameMismatch("estimate radius does not match the layer radius")
    margins = estimate.alpha_scaled - layer.bias
    relevant = ~estimate.unconstrained_mask
    failing = np.nonzero(relevant & (margins < -tol))[0]
    return Certificate(
        injective=bool(failing.size == 0),
        margins=margins,
        failing_indices=tuple(int(i) for i in failing),
        estimate_ref={
            "domain": estimate.domain,
            "radius": estimate.radius,
            "fingerprint": estimate.frame_fingerprint,
        },
    )


def build_dual_bank(frame: UnitFrame, poly: Polytope, bias) -> FacetDualBank:
    """Canonical dual synthesis matrix of every facet sub-frame.

    Facets of an omnidirectional polytope always qualify; a rank-deficient
    facet sub-frame (facet through the origin) raises NotAFrame.
    """
    b = as_vector(bias, frame.m, "bias")
    duals = []
    for j, verts in enumerate(poly.vertices):
        try:
            duals.append(_readonly(dual_synthesis(frame, verts)))
        except NotAFrame as exc:
            raise NotAFrame(f"facet {j} vertex set does not span the space") from exc
    return FacetDualBank(
        poly=poly,
        duals=tuple(duals),
        bias=_readonly(b),
        frame_fingerprint=frame.fingerprint(),
    )


def facet_reconstruction(bank: FacetDualBank, z, facet_index: int) -> np.ndarray:
    """Candidate input from one facet's left-inverse: un-shift the outputs on
    the facet vertex set and push them through the canonical dual."""
    zv = np.asarray(z, dtype=float)
    idx = list(bank.poly.vertices[facet_index])
    return bank.duals[facet_index] @ (zv[idx] + bank.bias[idx])


def reconstruct(bank: FacetDualBank, layer: ReLULayer, z,
                verify_tol: float = VERIFY_TOL) -> np.ndarray:
    """Invert the layer at an output z of a certified layer: a batch of one
    (see `reconstruct_batch`). If no facet candidate survives verification,
    the output is not in the certified image and ReconstructionFailed is
    raised.
    """
    _check_bank(bank, layer)
    zv = as_vector(z, layer.frame.m, "output")
    xs, failed = _reconstruct_rows(bank, layer, zv[None, :], verify_tol)
    if failed[0]:
        raise ReconstructionFailed("no facet left-inverse reproduces the given output")
    return xs[0]


def reconstruct_batch(bank: FacetDualBank, layer: ReLULayer, Z,
                      verify_tol: float = VERIFY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Invert the layer at every row of an (N, m) output matrix Z.

    Returns (X, failed): X is (N, n), and `failed` is the (N,) boolean mask
    of rows that no facet left-inverse reproduces within `verify_tol`, i.e.
    outputs outside the certified image; their rows of X are NaN.

    Each row is inverted by the first candidate of `_reconstruct_ordered`
    that verifies, found in bulk:

    - The first candidate is the largest facet whose vertex set lies inside
      the row's strictly positive output pattern, ties to the smallest
      index. One product of the patterns with the incidence matrix finds it
      for every row.
    - Rows that chose the same facet share one product with its canonical
      dual, and one forward product verifies every row.
    - A row without such a facet (boundary equalities zero some active
      coefficients), or whose first candidate fails verification, tries the
      candidates one at a time in `_reconstruct_ordered`.
    """
    _check_bank(bank, layer)
    zs = _matrix(Z, layer.frame.m, "outputs")
    return _reconstruct_rows(bank, layer, zs, verify_tol)


def _check_bank(bank: FacetDualBank, layer: ReLULayer) -> None:
    if layer.domain != DOMAIN_BALL:
        raise ValueError("reconstruction is defined for layers on the ball domain")
    if bank.frame_fingerprint != layer.frame.fingerprint():
        raise FrameMismatch("dual bank was built for a different frame")
    if not np.array_equal(bank.bias, layer.bias):
        raise FrameMismatch("dual bank was built for a different bias")


def _matrix(values, width: int, what: str) -> np.ndarray:
    a = as_matrix(values, what)
    if a.shape[1] != width:
        raise DimensionMismatch(f"{what} have {a.shape[1]} columns, expected {width}")
    return a


def _reconstruct_rows(bank: FacetDualBank, layer: ReLULayer, zs: np.ndarray,
                      verify_tol: float) -> tuple[np.ndarray, np.ndarray]:
    num_facets = bank.poly.num_facets
    incidence = bank.poly.incidence.astype(float)  # float: the product runs in BLAS
    sizes = incidence.sum(axis=1)
    inside = (zs > 0.0).astype(float) @ incidence.T == sizes
    rank = np.where(inside, sizes * (num_facets + 1) + (num_facets - np.arange(num_facets)), -1.0)
    first = np.argmax(rank, axis=1)

    xs = np.full((zs.shape[0], layer.frame.n), np.nan)
    rows = np.flatnonzero(inside.any(axis=1))
    rows = rows[np.argsort(first[rows], kind="stable")]
    facets, starts = np.unique(first[rows], return_index=True)
    for j, group in zip(facets, np.split(rows, starts[1:])):
        idx = list(bank.poly.vertices[j])
        xs[group] = (zs[group[:, None], idx] + bank.bias[idx]) @ bank.duals[j].T

    check = np.maximum(xs @ layer.frame.elements.T - layer.bias, 0.0)
    verified = np.max(np.abs(check - zs), axis=1) <= verify_tol
    failed = np.zeros(zs.shape[0], dtype=bool)
    for i in np.flatnonzero(~verified):
        candidate = _reconstruct_ordered(bank, layer, zs[i], verify_tol)
        failed[i] = candidate is None
        xs[i] = np.nan if candidate is None else candidate
    return xs, failed


def _reconstruct_ordered(bank: FacetDualBank, layer: ReLULayer, zv: np.ndarray,
                         verify_tol: float) -> np.ndarray | None:
    """Try every facet's left-inverse in turn and return the first candidate
    that maps forward onto zv within `verify_tol`, or None.

    Facets whose vertex set lies inside the strictly positive output
    pattern come first, largest first; then the others, by decreasing
    overlap with the pattern, since their remaining vertices all carry
    zero outputs. Ties go to the smallest index.
    """
    positive = zv > 0.0
    overlap = (bank.poly.incidence & positive).sum(axis=1)
    sizes = bank.poly.incidence.sum(axis=1)
    outside = overlap < sizes  # facets not fully in the strict-positive pattern
    order = np.lexsort((np.arange(len(sizes)), -overlap, outside))
    for j in order:
        candidate = facet_reconstruction(bank, zv, int(j))
        check = np.maximum(layer.frame.elements @ candidate - layer.bias, 0.0)
        if float(np.max(np.abs(check - zv))) <= verify_tol:
            return candidate
    return None


def spanning_failures(layer: ReLULayer, poly: Polytope, samples: np.ndarray,
                        tol: float = TOL_ACTIVE) -> list[int]:
    """Sample indices where the active set fails to span the space.

    Fast path, fully vectorized: if a sample's active set contains the vertex
    set of the facet its ray exits the polytope by, and that facet misses the
    origin (offset above TOL_INTERIOR), it spans: such a facet's vertices
    span the space. Every other sample gets the exact rank check.
    """
    xs = np.asarray(samples, dtype=float)
    coeff = xs @ layer.frame.elements.T  # (num_samples, m)
    active = coeff >= layer.bias - tol

    norms = np.linalg.norm(xs, axis=1)
    nonzero = norms > 1e-12
    covered = np.zeros(xs.shape[0], dtype=bool)
    if nonzero.any():
        units = xs[nonzero] / norms[nonzero, None]
        dots = units @ poly.normals.T  # (num_nonzero, num_facets)
        ratios = np.where(dots > 1e-9, poly.offsets[None, :] / np.where(dots > 1e-9, dots, 1.0), np.inf)
        exit_facet = np.argmin(ratios, axis=1)
        missing = poly.incidence[exit_facet] & ~active[nonzero]
        covered[nonzero] = ~missing.any(axis=1) & (poly.offsets[exit_facet] > TOL_INTERIOR)

    failures = []
    for s in np.nonzero(~covered)[0]:
        act = np.nonzero(active[s])[0]
        if act.size < layer.frame.n or not is_frame(layer.frame, act):
            failures.append(int(s))
    return failures
