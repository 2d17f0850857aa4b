"""Unit-norm frames, and the one rank rule for their sub-frame operators.

A frame here is a collection of m >= n row vectors spanning R^n. The layer
weight matrix stacks them as rows; with V the rows of a sub-collection,
V^T V is its frame operator, whose extreme eigenvalues are its optimal
frame bounds. The rank rule: the sub-collection spans R^n when the smallest
eigenvalue of its operator, as LAPACK's `eigvalsh` computes it, is at least
TOL_RANK times the largest. `operator_bounds` computes the extreme
eigenvalues and raises NotAFrame where the rule fails; `spanning` returns
the rule's mask only, and decides most operators without an eigensolver.

The LDL^T screen. `spanning` and `smallest_lower_bound` both use it, and
only to decide which operators need no `eigvalsh`. Write u for the unit
roundoff, s for a bound on the traces of the positive semi-definite
operators S_f at hand (so s >= ||S_f||) and e = c n u s for the rounding
terms below, c a small constant.

- The k-th pivot of the LDL^T factorization (no pivoting) of S is
  1 / (S_k^-1)_kk, S_k its leading k x k block, so it is at least
  lambda_min(S_k) >= lambda_min(S) by Cauchy's interlacing theorem. A
  computed factorization is the exact one of S + E with ||E|| <= e
  wherever its pivots stayed positive (Higham, Accuracy and Stability of
  Numerical Algorithms, 2002, Thm 10.3; the bound uses trace(S) <= s).
  So the smallest computed pivot t over a stack has some f with
  lambda_min(S_f) <= t + e; and where a factorization breaks down (a
  pivot <= 0 first), its operator has lambda_min <= e.
- Shift by t' >= TOL_RANK s + TOL_SCREEN s. An operator whose
  factorization of S_f - t' I gives positive pivots only has
  lambda_min(S_f) > t' - e, and `eigvalsh`, backward stable, returns at
  least t' - 2e for it and at most s + e for its largest eigenvalue. As
  TOL_SCREEN s = 1e-10 s is far above any e for n in the hundreds, the
  operator passes the rank rule.

`spanning` shifts each operator by t' = (TOL_RANK + TOL_SCREEN) s_f, s_f
its own trace floored at the smallest normal double. An operator with
positive pivots spans, by the last bullet with s = s_f. Every other one
(each rank-deficient operator, and the zero operator, whose shifted
pivots are negative) goes to `eigvalsh`, and its eigenvalues decide it as
before. So the mask is the rule's on every operator, whichever path
decides it; on reconstruction's pattern operators the screen decides
nearly every row.

`smallest_lower_bound` wants only the smallest `eigvalsh` value A0 of a
stack, with s its largest trace. It shifts every operator by
t' = max(t, TOL_RANK s) + TOL_SCREEN s, so t' >= A0 + e. The operator
with the smallest exact eigenvalue gets at most A0 + e from `eigvalsh`
(Weyl), below the t' - 2e of every operator with positive shifted
pivots, so it is never dropped, and no dropped operator holds the
smallest computed value: `eigvalsh` on the rest, the same LAPACK routine
on the same matrices, returns A0 with its bits. A dropped operator passes
the rank rule, so every failing operator stays, and NotAFrame names the
first of them, with the same eigenvalues in its message.

The screen runs n steps of whole-stack numpy calls per factorization in
the (n, n, F) layout, where each step reads contiguous rows of F entries.
`smallest_lower_bound` runs two factorizations, and only for stacks of
more than SCREEN_MIN operators.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotAFrame, ZeroRow

TOL_UNIT = 1e-12
TOL_ZERO_ROW = 1e-12
TOL_RANK = 1e-9
# the screen's shift above the rank rule, per unit of operator trace: far
# above every rounding term (see the module docstring)
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


def _rank_rule(lower, upper):
    """The rank rule on the extreme eigenvalues: lower >= TOL_RANK * upper,
    with upper taken as at least the smallest normal double, so that the
    zero operator fails."""
    return lower >= TOL_RANK * np.maximum(upper, np.finfo(float).tiny)


def spanning(ops: np.ndarray) -> np.ndarray:
    """The rank rule's mask for a frame operator (n, n) or a stack (..., n, n)
    (a 0-d array for one operator): whether each one's vectors span R^n.
    The LDL^T screen, shifted by each operator's own trace, decides every
    operator it can (see the module docstring); `eigvalsh` decides the
    rest."""
    ops = np.asarray(ops, dtype=float)
    n = ops.shape[-1]
    flat = ops.reshape(-1, n, n)
    a = flat.transpose(1, 2, 0).copy()
    trace = np.maximum(a.trace(), np.finfo(float).tiny)
    spans = _shifted_positive(a, (TOL_RANK + TOL_SCREEN) * trace)
    rest = np.flatnonzero(~spans)
    if rest.size:
        eig = np.linalg.eigvalsh(flat[rest])
        spans[rest] = _rank_rule(eig[:, 0], eig[:, -1])
    return spans.reshape(ops.shape[:-2])


def operator_bounds(ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extreme eigenvalues of a frame operator (n, n) or a stack (F, n, n),
    by LAPACK's `eigvalsh` for every operator. Raises NotAFrame for the
    first that fails the rank rule.
    """
    eig = np.linalg.eigvalsh(ops)
    lower, upper = eig[..., 0], eig[..., -1]
    bad = np.flatnonzero(~_rank_rule(lower, upper))
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
        ops = ops[~_shifted_positive(a, np.fmax(t, TOL_RANK * scale) + TOL_SCREEN * scale)]
    lower, _ = operator_bounds(ops)
    return float(lower.min())


def _shifted_positive(a: np.ndarray, shift) -> np.ndarray:
    """Whether the LDL^T factorization of each S_f - shift_f I gives positive
    pivots only, for an (n, n, F) stack `a` of the S_f (overwritten) and a
    shift that is one number or one per operator (F,)."""
    diag = np.arange(a.shape[0])
    a[diag, diag] -= shift
    return (_ldl_pivots(a) > 0.0).all(axis=0)


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
