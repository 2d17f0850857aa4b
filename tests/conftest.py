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


# frames the pruned bias estimate and the A0 screen are checked on: fuzz
# frames of three kinds at n = 3..6 (two omnidirectional draws each), the
# 3- and 4-cube, the 24-cell, a ternary matrix and the icosahedron
BOUND_FRAMES = ([f"{kind}-{n}-{seed}" for kind in ("random", "coplanar", "cross-polytope")
                 for n in range(3, 7) for seed in (0, 2)]
                + ["cube3", "cube4", "cell24", "ternary", "icosahedron"])


def bound_frame(name: str) -> tuple[rc.UnitFrame, rc.Polytope]:
    """The normalized frame and polytope of a BOUND_FRAMES entry."""
    import oracles

    named = {"cube3": lambda: oracles.cube(3), "cube4": lambda: oracles.cube(4),
             "cell24": oracles.cell24, "ternary": lambda: oracles.ternary(4, 30, 0),
             "icosahedron": rc.icosahedron}
    if name in named:
        weights = named[name]()
    else:
        kind, n, seed = name.rsplit("-", 2)
        weights = oracles.fuzz_frame(kind, int(n), np.random.default_rng([int(seed), int(n), 29]))
    frame, _, _ = rc.normalize(weights)
    return frame, rc.build_polytope(frame)


def facet_operators(frame, poly, facet_indices) -> np.ndarray:
    """The frame operators V^T V of the facets, one stacked product each."""
    subs = [frame.elements[poly.incidence[j]][None] for j in facet_indices]
    return np.concatenate([sub.swapaxes(1, 2) @ sub for sub in subs])
