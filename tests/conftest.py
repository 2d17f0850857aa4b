import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import relucert as rc
from relucert.frames import spanning
from relucert.layer import TOL_ACTIVE


@dataclass(frozen=True)
class LayerSetup:
    frame: rc.UnitFrame
    poly: rc.Polytope
    estimate: rc.BiasEstimate
    layer: rc.ReLULayer


def build_setup(weights: np.ndarray, radius: float = 1.0) -> LayerSetup:
    frame, _, _ = rc.normalize(weights)
    poly = rc.build_polytope(frame)
    estimate = rc.pbe_ball(frame, poly, radius)
    layer = rc.ReLULayer(frame, estimate.alpha_scaled, radius)
    return LayerSetup(frame, poly, estimate, layer)


@pytest.fixture(scope="session")
def mb() -> LayerSetup:
    return build_setup(rc.mercedes_benz())


@pytest.fixture(scope="session")
def tet() -> LayerSetup:
    return build_setup(rc.tetrahedron())


@pytest.fixture(scope="session")
def ico() -> LayerSetup:
    return build_setup(rc.icosahedron())


def random_omnidirectional(n: int, m: int, seed: int) -> np.ndarray:
    """Seeded random unit rows, re-drawn deterministically until the hull
    strictly contains the origin."""
    for attempt in range(64):
        pts = rc.random_sphere(n, m, seed + 100_000 * attempt)
        frame, _, _ = rc.normalize(pts)
        if rc.is_omnidirectional(rc.build_polytope(frame)):
            return pts
    raise AssertionError(f"no omnidirectional draw for n={n}, m={m}, seed={seed}")


def capped_cone(cols, c):
    """min <c, d> over d >= 0, ||cols d|| <= 1, by `min_linear_capped_cones`
    on a batch of one: (value, argmin, residual, steps). It must not fail."""
    values, argmins, residuals, steps, failed = rc.min_linear_capped_cones(
        (cols.T @ cols)[None], np.asarray(c, dtype=float)[None])
    assert not failed[0]
    return values[0], argmins[0], residuals[0], steps[0]


def closed_active_set(layer, x, tol: float = TOL_ACTIVE) -> tuple[int, ...]:
    """Indices with <x, x_i> >= bias_i - tol: the active set, boundary
    equalities included."""
    coeff = layer.frame.elements @ np.asarray(x, dtype=float)
    return tuple(np.flatnonzero(coeff >= layer.bias - tol).tolist())


def spans(frame, idx) -> bool:
    """Whether the rows idx span the space, by the rank rule of `spanning`."""
    sub = frame.elements[list(idx)]
    return bool(spanning(sub.T @ sub))


def assert_same_text(got: str, want: str, what: str = "text") -> None:
    """Assert got == want; on a mismatch, report the first differing line and
    its index only (pytest's diff of two multi-megabyte strings takes
    minutes)."""
    if got == want:
        return
    a, b = got.split("\n"), want.split("\n")
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    first = [repr(lines[i]) if i < len(lines) else "no line" for lines in (a, b)]
    raise AssertionError(f"{what}: line {i} differs: got {first[0]}, want {first[1]} "
                         f"({len(a)} and {len(b)} lines)")
