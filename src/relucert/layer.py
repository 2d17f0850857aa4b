"""ReLU layer on a ball: forward map, certificates and exact reconstruction.

The layer clips the analysis coefficients at a per-element bias. If the bias
stays below a verified upper bias, the layer is injective on its ball, and
any output of an input inside it can be inverted exactly through the
canonical dual of its active sub-frame: x = S_P^{-1} sum_{i in P}
(z_i + b_i) x_i, with P the strictly positive output pattern and S_P its
sub-frame operator. Reconstruction reads no polytope. An output settles iff
its preimage set is one point: where P spans, iff that solve verifies;
where it does not, iff the least-norm preimage, from a least-distance
program, verifies and its active constraints pin it down. Each stage is one
stacked computation over the rows of a block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FrameMismatch, ReconstructionFailed
from .frames import TOL_RANK, UnitFrame, as_matrix, as_vector, spanning
from .pbe import DOMAIN_BALL, BiasEstimate
from .solvers import TOL_SOLVER, min_linear_capped_cones

TOL_ACTIVE = 1e-12
TOL_MARGIN = 1e-12
VERIFY_TOL = 1e-8
# the preimage stage takes rows in groups of at most this many entries of
# their (rows, m, m) Gram matrices (16 MB): it bounds the stage's memory
PREIMAGE_ENTRIES = 1 << 21


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


def reconstruct(layer: ReLULayer, z) -> np.ndarray:
    """Invert the layer at one output z: a batch of one (see
    `reconstruct_batch`). ReconstructionFailed if the output has no unique
    verified preimage.
    """
    _check_layer(layer)
    zv = as_vector(z, layer.frame.m, "output")
    xs, failed = _reconstruct_rows(layer, zv[None, :])
    if failed[0]:
        raise ReconstructionFailed("output has no unique verified preimage")
    return xs[0]


def reconstruct_batch(layer: ReLULayer, Z) -> tuple[np.ndarray, np.ndarray]:
    """Invert the layer at every row of an (N, m) output matrix Z.

    Returns (X, failed): X is (N, n), and `failed` is the (N,) boolean mask
    of rows with no unique verified preimage; their rows of X are NaN.

    A row z settles iff its preimage set, for P its strictly positive
    pattern and S_P = sum_P x_i x_i^T,
    Q = {x : <x, x_i> = z_i + b_i for i in P, <x, x_j> <= b_j otherwise},
    is one point, found and checked in floats:

    - Where P spans, Q holds at most the solution of S_P x =
      sum_P (z_i + b_i) x_i, the canonical dual of the active sub-frame, and
      the row settles iff it verifies (maps forward to z within
      VERIFY_TOL). The block takes one product of the pattern masks with
      the elements' outer products, one `spanning` test, one stacked solve
      and one forward product.
    - Where P does not span (boundary equalities zero some active
      coefficients, or the output is zero), `_preimage_points` takes the
      least-norm point x* of Q. The row settles iff x* verifies and the
      constraints active at x* (j not in P, <x*, x_j> >= b_j - VERIFY_TOL),
      projected onto null(S_P), positively span it: Q's tangent cone at x*
      is {0}, so x* is the only point of the convex set Q; otherwise Q
      holds a segment from x*. At co-rank 1 that reads: the interval Q of
      the null line has both ends at x*.

    On a certified layer every input x with |x| < r settles: Q is convex,
    holds x, and each of its points has the output z, so another point x'
    would put points of the segment from x to x' near x, inside the ball,
    at the output z, against the certified injectivity on the ball. So
    Q = {x}, x* = x, and the active constraints at x positively span the
    null space (Farkas). VERIFY_TOL absorbs the rounding; the tests check
    that such rows settle within 1e-12 of their inputs.
    """
    _check_layer(layer)
    zs = _matrix(Z, layer.frame.m, "outputs")
    return _reconstruct_rows(layer, zs)


def _check_layer(layer: ReLULayer) -> None:
    if layer.domain != DOMAIN_BALL:
        raise ValueError("reconstruction is defined for layers on the ball domain")


def _matrix(values, width: int, what: str) -> np.ndarray:
    a = as_matrix(values, what)
    if a.shape[1] != width:
        raise DimensionMismatch(f"{what} have {a.shape[1]} columns, expected {width}")
    return a


def _reconstruct_rows(layer: ReLULayer, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X, failed) for the outputs zs: the pattern solve, then
    `_preimage_points` for the rows whose pattern does not span, in groups
    of at most PREIMAGE_ENTRIES // m^2 rows (see `reconstruct_batch`)."""
    elements, bias = layer.frame.elements, layer.bias
    positive = zs > 0.0
    gram = _frame_operators(elements, positive)
    spans = spanning(gram)
    gram[~spans] = np.eye(layer.frame.n)  # rows that do not span: solved, then replaced
    xs = np.linalg.solve(gram, (((zs + bias) * positive) @ elements)[:, :, None])[:, :, 0]
    failed = ~(_verified(layer, xs, zs) & spans)
    xs[failed] = np.nan
    rest = np.flatnonzero(~spans)
    step = max(1, PREIMAGE_ENTRIES // layer.frame.m ** 2)
    for start in range(0, rest.size, step):
        rows = rest[start:start + step]
        xs[rows], failed[rows] = _preimage_points(layer, zs[rows])
    return xs, failed


def _verified(layer: ReLULayer, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Whether max(0, <x, x_i> - b_i) reproduces z within VERIFY_TOL, per
    row of xs (N, n) and zs (N, m); False on a row with NaN."""
    coeff = xs @ layer.frame.elements.T - layer.bias
    return np.max(np.abs(np.maximum(coeff, 0.0) - zs), axis=1) <= VERIFY_TOL


def _preimage_points(layer: ReLULayer, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X, failed) for outputs zs (R, m) whose strictly positive pattern P
    does not span: X holds the least-norm point x* of each preimage set Q,
    and a row fails unless Q = {x*} (see `reconstruct_batch`).

    With S_P^+ the pseudo-inverse (relative cut-off TOL_RANK), x0 is the
    least-norm solution of the equalities and N = I - S_P^+ S_P projects
    onto null(S_P); every x = x0 + y with y in null(S_P) solves them. The
    inequalities read <g_j, y> <= h_j with g_j = N x_j, h_j = b_j - <x0, x_j>.
    The least-norm y is a least-distance program, solved as the NNLS
    min_{u >= 0} |E u - e| with E's columns -(g_j, h_j) and e the last unit
    vector of R^(n+1) (Lawson and Hanson, Solving Least Squares Problems,
    1974, ch. 23): with p = E u*, y* = -p[:n] / (p[n] - 1), and p[n] = 1
    means that Q is empty (x* is then NaN or fails to verify).

    With A the active constraints at x*, the g_j (j in A) positively span
    null(S_P) iff P and A together span R^n (`spanning`) and -s, s the sum
    of those g_j, lies in their cone: then sum_A (1 + d_j) g_j = 0 for the
    cone's weights d. The cone projection of -s leaves w = -s - P_K(-s), and
    membership means |w| <= TOL_SOLVER sum_A |g_j|; else w is a direction
    along which Q leaves x*. Both NNLS are the batched Lawson-Hanson of
    `solvers`. Neither needs to converge for the verdict to hold: x* is
    verified, and a small w is itself the weights' witness.
    """
    elements, bias, n = layer.frame.elements, layer.bias, layer.frame.n
    positive = zs > 0.0
    ops = _frame_operators(elements, positive)
    inverse = np.linalg.pinv(ops, rcond=TOL_RANK, hermitian=True)
    x0 = (inverse @ (((zs + bias) * positive) @ elements)[:, :, None])[:, :, 0]
    normals = elements @ (np.eye(n) - inverse @ ops)  # row j: N x_j (N is symmetric)
    normals[positive] = 0.0  # the equalities: N x_i = 0 up to rounding
    slack = np.where(positive, 0.0, bias - x0 @ elements.T)
    last = np.broadcast_to(np.eye(n + 1)[n], (len(zs), n + 1))
    p = _cone_projections(-np.concatenate([normals, slack[:, :, None]], axis=2), last)
    with np.errstate(divide="ignore", invalid="ignore"):  # NaN where Q is empty
        xs = x0 - p[:, :n] / (p[:, n:] - 1.0)
        coeff = xs @ elements.T - bias
        verified = _verified(layer, xs, zs)
    active = ~positive & (coeff >= -VERIFY_TOL)
    unique = verified & spanning(_frame_operators(elements, positive | active))
    rows = np.flatnonzero(unique)
    generators = normals[rows] * active[rows, :, None]
    target = -generators.sum(axis=1)
    w = target - _cone_projections(generators, target)
    scale = np.linalg.norm(generators, axis=2).sum(axis=1)
    unique[rows] = np.linalg.norm(w, axis=1) <= TOL_SOLVER * scale
    xs[~unique] = np.nan
    return xs, ~unique


def _cone_projections(generators: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The projection of each target (R, d) onto the cone of its generator
    rows (R, k, d), zero rows allowed, by `solvers.min_linear_capped_cones`:
    the capped-cone program of x = -t has the value -|P_K(t)| and its
    argmin along P_K(t) (Moreau's decomposition)."""
    gram = generators @ generators.swapaxes(1, 2)
    values, argmins, _, _, _ = min_linear_capped_cones(
        gram, -(generators @ targets[:, :, None])[:, :, 0])
    return -values[:, None] * (argmins[:, None, :] @ generators)[:, 0, :]


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
