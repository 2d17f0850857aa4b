"""Named frame generators used by the CLI and the test fixtures."""

from __future__ import annotations

import numpy as np

from .errors import UnknownName


def mercedes_benz() -> np.ndarray:
    """Three unit vectors at mutual angle 120 degrees in the plane."""
    s = np.sqrt(3.0) / 2.0
    return np.array([
        [0.0, 1.0],
        [-s, -0.5],
        [s, -0.5],
    ])


def tetrahedron() -> np.ndarray:
    """Vertices of a regular tetrahedron on the unit sphere of R^3."""
    return np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ]) / np.sqrt(3.0)


def icosahedron() -> np.ndarray:
    """The twelve icosahedron vertices on the unit sphere of R^3."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    rows = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            rows.append([0.0, s1, s2 * phi])
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            rows.append([s1, s2 * phi, 0.0])
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            rows.append([s1 * phi, 0.0, s2])
    return np.array(rows) / np.sqrt(1.0 + phi * phi)


def standard_basis(n: int) -> np.ndarray:
    return np.eye(int(n))


def random_sphere(n: int, m: int, seed: int) -> np.ndarray:
    """m rows drawn i.i.d. standard normal and normalized: uniform directions."""
    rng = np.random.default_rng(int(seed))
    rows = rng.standard_normal((int(m), int(n)))
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def generate(name: str, n: int | None = None, m: int | None = None,
             seed: int | None = None) -> np.ndarray:
    """Dispatch by generator name; raises UnknownName for anything else."""
    if name == "mercedes":
        return mercedes_benz()
    if name == "tetrahedron":
        return tetrahedron()
    if name == "icosahedron":
        return icosahedron()
    if name == "basis":
        if n is None:
            raise ValueError("basis needs --n")
        if n < 1:
            raise ValueError(f"basis needs --n >= 1, got {n}")
        return standard_basis(n)
    if name == "random-sphere":
        if n is None or m is None or seed is None:
            raise ValueError("random-sphere needs --n, --m and --seed")
        if n < 1 or m < 1:
            raise ValueError(f"random-sphere needs --n >= 1 and --m >= 1, got {n} and {m}")
        return random_sphere(n, m, seed)
    raise UnknownName(f"unknown generator {name!r}")
