"""Unit-norm frames, and the one rank rule for their sub-frame operators.

A frame here is a collection of m >= n row vectors spanning R^n. The layer
weight matrix stacks them as rows; with V the rows of a sub-collection,
V^T V is its frame operator, whose extreme eigenvalues are its optimal
frame bounds. The rank rule: the sub-collection spans R^n when the smallest
eigenvalue of its operator, as LAPACK's `eigvalsh` computes it, is at least
TOL_RANK times the largest. `operator_bounds` computes the extreme
eigenvalues and raises NotAFrame where the rule fails; `spanning` returns
the rule's mask only, and decides most operators without an eigensolver.

`spanning`'s Gershgorin filter. For a symmetric G, every eigenvalue lies
in some disc [G_ii - r_i, G_ii + r_i], r_i = sum_{j != i} |G_ij|
(S. Gershgorin, Izv. Akad. Nauk SSSR 1931), so all of them lie in [L, U],
L = min_i (G_ii - r_i), U = max_i (G_ii + r_i). The filter accepts G when
L >= TOL_GERSHGORIN * U = 1e-6 U, and the rule then accepts G too:

- Exactly, lambda_min >= L >= 1e-6 U >= 1e-6 lambda_max > 0.
- L and U are computed with an error of O(n eps U) against the bounds of
  the symmetric matrix that `eigvalsh` reads (sums of n magnitudes, and a
  G symmetric up to the rounding of its own products), and U <= n
  lambda_max for a positive semi-definite G. So an accepted G has
  lambda_min >= (1e-6 - d) lambda_max, with d = O(n^2 eps), about 1e-14
  for n <= 6.
- `eigvalsh` is backward stable: its values are the exact eigenvalues of
  G + E with ||E|| = O(n eps lambda_max), so by Weyl's inequality each is
  within d lambda_max of the exact one. The computed smallest is at least
  (1e-6 - 2d) lambda_max and the computed largest at most (1 + d)
  lambda_max: their ratio is about 1e-6, a thousand times TOL_RANK.

An operator the filter does not accept (L <= 0 for every rank-deficient
one, and the zero operator, for which U = 0) goes to `eigvalsh`, and its
eigenvalues decide it as before. So the mask is the rule's on every
operator, whichever path decides it. The filter needs no eigensolver:
on reconstruction's pattern operators it decides nearly every row.

`smallest_lower_bound`'s screen. Of a stack of positive semi-definite
operators S_f only the smallest `eigvalsh` value, A0, is wanted. Write u
for the unit roundoff, s for the largest trace in the stack (s >= ||S_f||)
and e = c n u s for the rounding terms below, c a small constant.

- The k-th pivot of the LDL^T factorization (no pivoting) of S is
  1 / (S_k^-1)_kk, S_k its leading k x k block, so it is at least
  lambda_min(S_k) >= lambda_min(S) by Cauchy's interlacing theorem. A
  computed factorization is the exact one of S + E with ||E|| <= e
  wherever its pivots stayed positive (Higham, Accuracy and Stability of
  Numerical Algorithms, 2002, Thm 10.3; the bound uses trace(S) <= s).
  So the smallest computed pivot t over the stack has some f with
  lambda_min(S_f) <= t + e; and where a factorization breaks down (a
  pivot <= 0 first), its operator has lambda_min <= e.
- Take t' = max(t, TOL_RANK s) + TOL_SCREEN s: then t' >= A0 + e, as
  TOL_SCREEN s = 1e-10 s is far above any e for n in the hundreds. An
  operator whose factorization of S_f - t' I gives positive pivots only
  has lambda_min(S_f) > t' - e, and `eigvalsh`, backward stable, returns
  at least t' - 2e for it. The operator with the smallest exact
  eigenvalue gets at most A0 + e from `eigvalsh` (Weyl), below that, so
  it is never dropped, and no dropped operator holds the smallest
  computed value: `eigvalsh` on the rest, the same LAPACK routine on the
  same matrices, returns A0 with its bits.
- A dropped operator has a computed smallest eigenvalue above
  TOL_RANK s + TOL_SCREEN s - 2e and a computed largest below s + e, so
  it passes the rank rule: every failing operator stays, and NotAFrame
  names the first of them, with the same eigenvalues in its message.

The screen runs two factorizations, each n steps of whole-stack numpy
calls in the (n, n, F) layout, where each step reads contiguous rows of F
entries; it only pays for stacks of more than SCREEN_MIN operators.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotAFrame, ZeroRow

TOL_UNIT = 1e-12
TOL_ZERO_ROW = 1e-12
TOL_RANK = 1e-9
# the ratio at which Gershgorin's bounds accept an operator: a thousand times
# TOL_RANK, a gap no rounding crosses (see the module docstring)
TOL_GERSHGORIN = 1e-6
# the screen's shift above the smallest pivot, per unit of the largest
# operator trace: far above every rounding term (see the module docstring)
TOL_SCREEN = 1e-10
# stacks up to this size go to eigvalsh whole: below it the screen's fixed
# cost of about 2n numpy calls (50-130 us) is more than their eigensolves
SCREEN_MIN = 48


def as_matrix(values, what: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d float array."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatch(f"{what} must be 2-dimensional and non-empty")
    if not np.isfinite(a).all():
        raise DimensionMismatch(f"{what} contains non-finite entries")
    return a


def as_vector(values, length: int | None, what: str = "vector") -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.ndim != 1:
        raise DimensionMismatch(f"{what} must be 1-dimensional")
    if length is not None and a.shape[0] != length:
        raise DimensionMismatch(f"{what} has length {a.shape[0]}, expected {length}")
    if not np.isfinite(a).all():
        raise DimensionMismatch(f"{what} contains non-finite entries")
    return a


@dataclass(frozen=True)
class UnitFrame:
    """m unit-norm vectors in R^n stacked as rows, with m >= n."""

    elements: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.elements, "frame elements")
        m, n = a.shape
        if m < n:
            raise DimensionMismatch(f"need at least n={n} elements, got {m}")
        norms = np.linalg.norm(a, axis=1)
        if np.max(np.abs(norms - 1.0)) > TOL_UNIT:
            raise ValueError("frame rows must have unit norm (call normalize first)")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "elements", a)

    @property
    def m(self) -> int:
        return self.elements.shape[0]

    @property
    def n(self) -> int:
        return self.elements.shape[1]

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.m}x{self.n}:".encode())
        h.update(np.ascontiguousarray(self.elements).tobytes())
        return h.hexdigest()


def normalize(weights, bias=None) -> tuple[UnitFrame, np.ndarray | None, np.ndarray]:
    """Rescale weight rows to the unit sphere, dividing the bias alike.

    Dividing row i and bias entry i by the row norm leaves every activation
    comparison <x, w_i> >= b_i unchanged, so the active set of any input is
    preserved exactly. Returns (frame, rescaled_bias, row_norms).
    """
    w = as_matrix(weights, "weights")
    norms = np.linalg.norm(w, axis=1)
    dead = np.where(norms < TOL_ZERO_ROW)[0]
    if dead.size:
        raise ZeroRow(int(dead[0]))
    frame = UnitFrame(w / norms[:, None])
    rescaled = None
    if bias is not None:
        b = as_vector(bias, w.shape[0], "bias")
        rescaled = b / norms
    return frame, rescaled, norms


def _rank_rule(lower, upper, ratio: float):
    """The rank rule on lower and upper bounds of the extreme eigenvalues:
    lower >= ratio * upper, with upper taken as at least the smallest normal
    double, so that the zero operator fails."""
    return lower >= ratio * np.maximum(upper, np.finfo(float).tiny)


def spanning(ops: np.ndarray) -> np.ndarray:
    """The rank rule's mask for a frame operator (n, n) or a stack (..., n, n)
    (a 0-d array for one operator): whether each one's vectors span R^n.
    Gershgorin's bounds decide every operator they can (see the module
    docstring); `eigvalsh` decides the rest."""
    ops = np.asarray(ops, dtype=float)
    n = ops.shape[-1]
    flat = ops.reshape(-1, n, n)
    diag = flat.diagonal(axis1=1, axis2=2)
    radius = np.abs(flat).sum(axis=2)
    radius -= np.abs(diag)
    spans = _rank_rule((diag - radius).min(axis=1), (diag + radius).max(axis=1),
                       TOL_GERSHGORIN)
    rest = np.flatnonzero(~spans)
    if rest.size:
        eig = np.linalg.eigvalsh(flat[rest])
        spans[rest] = _rank_rule(eig[:, 0], eig[:, -1], TOL_RANK)
    return spans.reshape(ops.shape[:-2])


def operator_bounds(ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extreme eigenvalues of a frame operator (n, n) or a stack (F, n, n),
    by LAPACK's `eigvalsh` for every operator. Raises NotAFrame for the
    first that fails the rank rule.
    """
    eig = np.linalg.eigvalsh(ops)
    lower, upper = eig[..., 0], eig[..., -1]
    bad = np.flatnonzero(~_rank_rule(lower, upper, TOL_RANK))
    if bad.size:
        low, high = lower.flat[bad[0]], upper.flat[bad[0]]
        raise NotAFrame(f"sub-collection is rank deficient (eigenvalue range [{low:.3e}, {high:.3e}])")
    return lower, upper


def smallest_lower_bound(ops: np.ndarray) -> float:
    """The smallest of `operator_bounds(ops)`'s lower bounds for a stack
    (F, n, n) of positive semi-definite operators, bit for bit, raising the
    same NotAFrame. An LDL^T screen drops the operators that cannot hold it
    (see the module docstring); `eigvalsh` runs on the rest."""
    ops = np.asarray(ops, dtype=float)
    if len(ops) > SCREEN_MIN:
        a = ops.transpose(1, 2, 0).copy()
        scale = a.trace().max()
        t = np.fmin.reduce(_ldl_pivots(a.copy()), axis=None)
        diag = np.arange(a.shape[0])
        a[diag, diag] -= np.fmax(t, TOL_RANK * scale) + TOL_SCREEN * scale
        ops = ops[~(_ldl_pivots(a) > 0.0).all(axis=0)]
    lower, _ = operator_bounds(ops)
    return float(lower.min())


def _ldl_pivots(a: np.ndarray) -> np.ndarray:
    """The pivots (n, F) of the LDL^T factorizations, without pivoting, of an
    (n, n, F) stack of symmetric matrices, read from their lower triangles;
    `a` is overwritten, and its diagonal ends up holding the pivots. After a
    pivot <= 0 an operator's later pivots are meaningless (NaN where one is
    0)."""
    n = a.shape[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(n - 1):
            col = a[j + 1:, j]
            a[j + 1:, j + 1:] -= (col / a[j, j])[:, None] * col
    diag = np.arange(n)
    return a[diag, diag]
