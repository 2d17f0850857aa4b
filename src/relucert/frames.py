"""Unit-norm frames, and the one rank rule for their sub-frame operators.

A frame here is a collection of m >= n row vectors spanning R^n. The layer
weight matrix stacks them as rows; with V the rows of a sub-collection,
V^T V is its frame operator, whose extreme eigenvalues are its optimal
frame bounds. `spanning` decides from them whether the sub-collection spans
R^n, and `operator_bounds` raises NotAFrame where it does not.
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


def spanning(ops: np.ndarray, tol_rank: float = TOL_RANK):
    """Extreme eigenvalues (lower, upper) of a frame operator (n, n) or a
    stack (..., n, n), by LAPACK's symmetric eigensolver, and the mask of
    the operators whose vectors span R^n: those whose smallest eigenvalue is
    at least `tol_rank` times their largest. Returns (spans, lower, upper).
    """
    eig = np.linalg.eigvalsh(ops)
    lower, upper = eig[..., 0], eig[..., -1]
    return lower >= tol_rank * np.maximum(upper, np.finfo(float).tiny), lower, upper


def operator_bounds(ops: np.ndarray, tol_rank: float = TOL_RANK) -> tuple[np.ndarray, np.ndarray]:
    """Extreme eigenvalues of a frame operator (n, n) or a stack (F, n, n).
    Raises NotAFrame for the first that fails `spanning`'s rank rule.
    """
    spans, lower, upper = spanning(ops, tol_rank)
    bad = np.flatnonzero(~spans)
    if bad.size:
        low, high = lower.flat[bad[0]], upper.flat[bad[0]]
        raise NotAFrame(f"sub-collection is rank deficient (eigenvalue range [{low:.3e}, {high:.3e}])")
    return lower, upper
