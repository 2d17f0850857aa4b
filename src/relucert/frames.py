"""Unit-norm frames and their analysis, synthesis and canonical dual operators.

A frame here is a collection of m >= n row vectors spanning R^n. The layer
weight matrix is the analysis operator of the frame made of its rows; its
transpose is the synthesis operator, and their product is the frame operator
whose extreme eigenvalues are the optimal frame bounds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotAFrame, ZeroRow

TOL_UNIT = 1e-12
TOL_ZERO_ROW = 1e-12
TOL_RANK = 1e-9


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


def check_indices(subset, m: int) -> tuple[int, ...]:
    """Validate an index subset: distinct, in range, returned sorted."""
    idx = tuple(sorted(int(i) for i in subset))
    if not idx:
        raise ValueError("index subset is empty")
    if idx[0] < 0 or idx[-1] >= m:
        raise ValueError(f"index out of range for m={m}")
    if len(set(idx)) != len(idx):
        raise ValueError("index subset has repeated entries")
    return idx


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


@dataclass(frozen=True)
class FrameBounds:
    """Optimal two-sided energy bounds: extreme eigenvalues of the frame operator."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 < self.lower <= self.upper):
            raise ValueError("frame bounds must satisfy 0 < lower <= upper")


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


def analysis(frame: UnitFrame, x) -> np.ndarray:
    """Inner products of x with every frame element (the weight-matrix multiply)."""
    v = as_vector(x, frame.n, "input")
    return frame.elements @ v


def synthesis(frame: UnitFrame, coeffs) -> np.ndarray:
    """Linear combination of the frame elements; the adjoint of `analysis`."""
    c = as_vector(coeffs, frame.m, "coefficients")
    return frame.elements.T @ c


def subframe_operator(frame: UnitFrame, subset=None) -> np.ndarray:
    """Frame operator sum of outer products over `subset` (all rows when None)."""
    if subset is None:
        sub = frame.elements
    else:
        idx = check_indices(subset, frame.m)
        sub = frame.elements[list(idx)]
    return sub.T @ sub


def frame_bounds(frame: UnitFrame, subset=None, tol_rank: float = TOL_RANK) -> FrameBounds:
    """Optimal frame bounds of a sub-collection: the extreme eigenvalues of
    its frame operator (LAPACK's symmetric eigensolver).

    Raises NotAFrame when the smallest eigenvalue is zero relative to the
    largest, i.e. the sub-collection does not span R^n.
    """
    eig = np.linalg.eigvalsh(subframe_operator(frame, subset))
    lower, upper = float(eig[0]), float(eig[-1])
    if lower < tol_rank * max(upper, np.finfo(float).tiny):
        raise NotAFrame(f"sub-collection is rank deficient (eigenvalue range [{lower:.3e}, {upper:.3e}])")
    return FrameBounds(lower, upper)


def is_frame(frame: UnitFrame, subset=None, tol_rank: float = TOL_RANK) -> bool:
    """True iff the sub-collection spans R^n: iff `frame_bounds` accepts it."""
    try:
        frame_bounds(frame, subset, tol_rank)
    except NotAFrame:
        return False
    return True


def dual_synthesis(frame: UnitFrame, subset=None, tol_rank: float = TOL_RANK) -> np.ndarray:
    """Canonical dual synthesis matrix of a spanning sub-collection.

    Column k is the inverse sub-frame operator applied to the k-th selected
    element, so that for every x:  sum_k <x, x_{i_k}> * column_k == x.
    The operator must pass Cholesky with every squared pivot above `tol_rank`
    times its largest diagonal entry; otherwise NotAFrame is raised.
    """
    idx = check_indices(subset, frame.m) if subset is not None else tuple(range(frame.m))
    sub = frame.elements[list(idx)]
    op = sub.T @ sub
    floor = tol_rank * max(float(np.max(np.diag(op))), np.finfo(float).tiny)
    try:
        lower = np.linalg.cholesky(op)
    except np.linalg.LinAlgError:
        raise NotAFrame("sub-frame operator is not positive definite") from None
    if float(np.min(np.diag(lower))) ** 2 <= floor:
        raise NotAFrame("sub-frame operator is not positive definite")
    return np.linalg.solve(op, sub.T)
