"""ReLU layer on a ball: forward map, certificates and exact reconstruction.

The layer clips the analysis coefficients at a per-element bias. If the bias
stays below a verified upper bias, the layer is injective on its ball, and
any output can be inverted exactly through the canonical dual of one facet
sub-frame: for an input x in the cone of facet V,
x = S_V^{-1} sum_{i in V} (z_i + b_i) x_i, with S_V the sub-frame operator.
Reconstruction first applies the same formula to the whole strictly positive
output pattern in place of V. Where the pattern spans, that solve is the
only candidate: every preimage satisfies the same full-rank system, so the
output settles if the solve verifies and has no preimage if it does not.
Facets are tried only where the pattern does not span. A pattern and a
facet are both masks of the elements, and one masked solve serves both:
every pattern solve, every candidate of a reconstruction round and every
spanning test is one stacked computation over such sub-frame operators.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FrameMismatch, ReconstructionFailed
from .frames import UnitFrame, as_matrix, as_vector, spanning
from .pbe import DOMAIN_BALL, BiasEstimate, _check_frame
from .polytope import Polytope

TOL_ACTIVE = 1e-12
TOL_MARGIN = 1e-12
VERIFY_TOL = 1e-8
# a reconstruction round tries at most this many candidates, or one per row:
# the cap bounds the round's (candidates, m) check array; lower caps made
# blocks with failing rows slower, higher ones mainly raised peak memory
ROUND_CANDIDATES = 4096


@dataclass(frozen=True)
class ReLULayer:
    """Unit-norm weight rows, a bias vector, and the declared input ball."""

    frame: UnitFrame
    bias: np.ndarray
    radius: float = 1.0
    domain: str = DOMAIN_BALL

    def __post_init__(self):
        b = as_vector(self.bias, self.frame.m, "bias")
        if not 0.0 < self.radius < np.inf:
            raise ValueError("radius must be finite and positive")
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "bias", b)


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
    if np.any(np.linalg.norm(xs, axis=1) > layer.radius * (1 + 1e-9)):
        warnings.warn("input lies outside the declared ball", stacklevel=2)
    out = xs @ layer.frame.elements.T
    out -= layer.bias
    np.maximum(out, 0.0, out=out)
    return out if batch else out[0]


def certify(layer: ReLULayer, estimate: BiasEstimate) -> Certificate:
    """Compare the layer bias entrywise against the scaled upper bias: an
    entry fails where its margin is below -TOL_MARGIN times the radius, so
    the verdict depends on bias / radius only, as alpha_scaled does.

    The estimate must have been computed for the same frame (checked by
    fingerprint), domain and radius (within 1e-12 times the radius).
    Unconstrained entries never fail.
    """
    if estimate.frame_fingerprint != layer.frame.fingerprint():
        raise FrameMismatch("estimate was computed for a different frame")
    if estimate.domain != layer.domain:
        raise FrameMismatch(
            f"estimate domain {estimate.domain!r} does not match layer domain {layer.domain!r}")
    if abs(estimate.radius - layer.radius) > 1e-12 * layer.radius:
        raise FrameMismatch("estimate radius does not match the layer radius")
    margins = estimate.alpha_scaled - layer.bias
    relevant = ~estimate.unconstrained_mask
    failing = np.nonzero(relevant & (margins < -TOL_MARGIN * layer.radius))[0]
    return Certificate(
        injective=bool(failing.size == 0),
        margins=margins,
        failing_indices=tuple(int(i) for i in failing),
        estimate_ref=_estimate_ref(estimate),
    )


def _estimate_ref(estimate: BiasEstimate) -> dict:
    """The scope of an estimate that a certificate records."""
    return {"domain": estimate.domain, "radius": estimate.radius,
            "fingerprint": estimate.frame_fingerprint}


def reconstruct(poly: Polytope, layer: ReLULayer, z) -> np.ndarray:
    """Invert the layer at an output z of a certified layer: a batch of one
    (see `reconstruct_batch`). If the output has no verified preimage (its
    spanning pattern's solve, or else a facet candidate), it is not in the
    certified image and ReconstructionFailed is raised.
    """
    _check_layer(poly, layer)
    zv = as_vector(z, layer.frame.m, "output")
    xs, failed = _reconstruct_rows(poly, layer, zv[None, :])
    if failed[0]:
        raise ReconstructionFailed("no facet left-inverse reproduces the given output")
    return xs[0]


def reconstruct_batch(poly: Polytope, layer: ReLULayer, Z) -> tuple[np.ndarray, np.ndarray]:
    """Invert the layer at every row of an (N, m) output matrix Z, with the
    facets of `poly`, the polytope of the layer's frame.

    Returns (X, failed): X is (N, n), and `failed` is the (N,) boolean mask
    of rows with no verified preimage, i.e. outputs outside the certified
    image; their rows of X are NaN.

    Every row is first solved from its strictly positive output pattern P:
    each i in P gives <x, x_i> = z_i + b_i, so where P spans the space, x
    is the one solution of (sum_P x_i x_i^T) x = sum_P (z_i + b_i) x_i,
    the canonical dual of the whole active sub-frame. The block takes one
    product of the pattern masks with the elements' outer products, one
    `spanning` test, one stacked solve and one forward product, which
    verifies each solution. Then:

    - a row whose pattern spans is settled if its solution verifies (maps
      forward to z within VERIFY_TOL) and fails at once if it does not:
      every preimage in R^n solves the same full-rank system, so a
      verified solution is the preimage, and without one there is none;
    - a row whose pattern does not span (boundary equalities zero some
      active coefficients, or the output is zero) goes to the ranked facet
      rounds, which decide it as if the pattern stage did not exist.

    The rounds rank every facet for each of their rows, from one product
    of its strictly positive output pattern with the incidence matrix.
    Facets whose vertex set lies inside the pattern come first, largest
    first; the others follow by decreasing overlap with the pattern, since
    their remaining vertices all carry zero outputs. Ties go to the
    smallest index. In the first round every row takes its best facet; in
    each later round every unsettled row takes its next k untried facets
    in rank order, k = 2, 4, 8, ... (at most ROUND_CANDIDATES candidates in
    a round, or one per row). Each (row, facet) pair is solved as a pattern
    is, with the facet's vertex set as its mask: one product gives the
    operators of a round's distinct facets and one `spanning` test checks
    them, then one stacked solve and one forward product solve and verify
    every pair. A row is settled by its first candidate in rank order that
    verifies, and fails once it has tried every facet. A facet whose vertex
    set does not span the space has no left-inverse: it is a candidate that
    verifies no row.
    """
    _check_layer(poly, layer)
    zs = _matrix(Z, layer.frame.m, "outputs")
    return _reconstruct_rows(poly, layer, zs)


def _check_layer(poly: Polytope, layer: ReLULayer) -> None:
    if layer.domain != DOMAIN_BALL:
        raise ValueError("reconstruction is defined for layers on the ball domain")
    _check_frame(layer.frame, poly)


def _matrix(values, width: int, what: str) -> np.ndarray:
    a = as_matrix(values, what)
    if a.shape[1] != width:
        raise DimensionMismatch(f"{what} have {a.shape[1]} columns, expected {width}")
    return a


def _reconstruct_rows(poly: Polytope, layer: ReLULayer,
                      zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X, failed) for the outputs zs: the pattern stage, then the ranked
    facet rounds of `_ranked_rounds` for the rows whose pattern does not
    span (see `reconstruct_batch`)."""
    # every row from its strictly positive pattern P; where P spans, every
    # preimage solves the same full-rank system, so the row settles if its
    # solve verifies and has no preimage if it does not
    positive = zs > 0.0
    gram = _frame_operators(layer.frame.elements, positive)
    spans = spanning(gram)
    xs, verified = _solve_masks(layer, zs, positive, gram, spans)
    xs[~verified] = np.nan
    failed = spans & ~verified
    rest = np.flatnonzero(~spans)
    if rest.size:
        xs[rest], failed[rest] = _ranked_rounds(poly, layer, zs[rest])
    return xs, failed


def _ranked_rounds(poly: Polytope, layer: ReLULayer,
                   zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X, failed) for the outputs zs from the ranked facet rounds alone.
    `_reconstruct_rows` hands it only the rows whose strictly positive
    pattern does not span."""
    incidence = poly.incidence.astype(float)  # float: the product runs in BLAS
    # score[i, j]: row i's overlap with facet j, raised above every overlap
    # if facet j lies inside the pattern; ties rank the smaller index first
    score = (zs > 0.0).astype(float) @ incidence.T
    np.add(score, zs.shape[1] + 1.0, out=score, where=score == incidence.sum(axis=1))

    xs = np.full((zs.shape[0], layer.frame.n), np.nan)
    rows = np.arange(zs.shape[0])  # unsettled rows
    picks = np.argmax(score, axis=1)[:, None]  # picks[k]: the facets rows[k] tries
    ranked, tried = None, 1
    while True:
        candidates, verified = _try_facets(poly, layer, zs[rows], picks)
        settled = verified.any(axis=1)
        first = np.argmax(verified, axis=1)  # the first verifying candidate in rank order
        xs[rows[settled]] = candidates[settled, first[settled]]
        rows = rows[~settled]
        if not rows.size or tried >= poly.num_facets:
            break
        # the next ranked facets, twice as many as last round; a stable sort
        # of the negated scores keeps argmax's tie order
        if ranked is None:
            ranked = np.argsort(-score[rows], axis=1, kind="stable")
        else:
            ranked = ranked[~settled]
        width = min(2 * picks.shape[1], max(1, ROUND_CANDIDATES // rows.size))
        picks = ranked[:, tried:tried + width]
        tried += width
    failed = np.zeros(zs.shape[0], dtype=bool)
    failed[rows] = True  # every facet tried
    return xs, failed


def _try_facets(poly: Polytope, layer: ReLULayer, zs: np.ndarray,
                picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidate inputs (R, k, n) for the outputs zs (R, m) from the facets
    picks (R, k), and whether each reproduces its output within
    VERIFY_TOL: each (row, facet) pair is the masked solve of the pattern
    stage, with the facet's vertex set as the mask. The operators of the
    distinct facets are built and tested by `spanning` once; a facet that
    fails the rank rule verifies no row."""
    facets, at = np.unique(picks, return_inverse=True)
    at = at.reshape(picks.shape)  # its shape differs across numpy versions
    gram = _frame_operators(layer.frame.elements, poly.incidence[facets])
    spans = spanning(gram)
    xs, verified = _solve_masks(layer, zs[:, None], poly.incidence[picks],
                                gram[at], spans[at])
    return xs, verified


def _solve_masks(layer: ReLULayer, zs: np.ndarray, masks: np.ndarray, gram: np.ndarray,
                 spans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonical dual of each sub-frame V that the boolean masks (..., m)
    pick, applied to its outputs zs (broadcast against the masks):
    x = S_V^-1 sum_{i in V} (z_i + b_i) x_i, with S_V in gram (..., n, n)
    (overwritten) and `spans` its `spanning` mask. Returns (X, verified): a
    row is verified where its sub-frame spans and max(0, <x, x_i> - b_i)
    reproduces z within VERIFY_TOL. A sub-frame that does not span is solved
    as the identity."""
    elements, bias = layer.frame.elements, layer.bias
    gram[~spans] = np.eye(layer.frame.n)
    rhs = ((zs + bias) * masks) @ elements
    xs = np.linalg.solve(gram, rhs[..., None])[..., 0]
    coeff = xs @ elements.T - bias
    verified = np.max(np.abs(np.maximum(coeff, 0.0) - zs), axis=-1) <= VERIFY_TOL
    return xs, verified & spans


def _frame_operators(elements: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Frame operators (N, n, n) of the sub-frames that the boolean masks
    (N, m) pick from the elements (m, n): one product of the masks with the
    elements' outer products."""
    m, n = elements.shape
    outer = (elements[:, :, None] * elements[:, None, :]).reshape(m, n * n)
    return (masks.astype(float) @ outer).reshape(-1, n, n)


def spanning_failures(layer: ReLULayer, samples: np.ndarray) -> list[int]:
    """Sample indices where the active set (the elements whose coefficient
    is at least bias - TOL_ACTIVE) fails to span the space: where the frame
    operator of the active elements fails the rank rule of `spanning`. The
    samples are an (N, n) matrix of finite inputs, as `forward` takes."""
    xs = _matrix(samples, layer.frame.n, "samples")
    elements = layer.frame.elements
    active = xs @ elements.T >= layer.bias - TOL_ACTIVE  # (num_samples, m)
    spans = spanning(_frame_operators(elements, active))
    return np.flatnonzero(~spans).tolist()
