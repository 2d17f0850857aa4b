"""Incremental quickhull facet enumeration in arbitrary fixed dimension.

Produces simplicial facets with unit outward normals for full-dimensional
point sets. Point sets whose affine span is a single hyperplane are reported
as flat (the caller decides what to do with them); lower-dimensional spans
raise DegenerateHull. Dimensions up to ~6 and a few hundred points are the
intended regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateHull

TOL_HULL = 1e-9


@dataclass
class _Facet:
    vertices: tuple[int, ...]
    normal: np.ndarray
    offset: float
    neighbors: dict = field(default_factory=dict)  # ridge frozenset -> _Facet
    outside: list = field(default_factory=list)
    alive: bool = True


def _ridges(vertices: tuple[int, ...]):
    full = frozenset(vertices)
    return [full.difference((v,)) for v in vertices]


def _affine_basis(points: np.ndarray, tol: float):
    """Greedy farthest-point seed: indices of affinely independent points
    plus an orthonormal basis of their span of differences."""
    m, n = points.shape
    base = int(np.lexsort(points.T[::-1])[0])
    chosen = [base]
    q = np.zeros((0, n))
    for _ in range(n):
        rel = points - points[base]
        resid = rel - (rel @ q.T) @ q
        dist = np.linalg.norm(resid, axis=1)
        far = int(np.argmax(dist))
        if dist[far] <= tol:
            break
        chosen.append(far)
        q = np.vstack([q, resid[far] / dist[far]])
    return chosen, q


def _null_direction(q: np.ndarray) -> np.ndarray:
    """Unit vector orthogonal to the rows of the orthonormal (n-1) x n matrix q."""
    n = q.shape[1]
    residuals = np.eye(n) - q.T @ q  # column j: residual of the j-th basis vector
    norms = np.linalg.norm(residuals, axis=0)
    j = int(np.argmax(norms))
    return residuals[:, j] / norms[j]


def make_plane(pts: np.ndarray, verts: tuple[int, ...], interior: np.ndarray):
    """Unit normal and offset of the hyperplane through the n points
    `pts[verts]`, the normal pointing away from `interior`.

    The normal is the last right-singular vector of the (n-1) x n matrix of
    differences. By Cauchy-Binet the product of its singular values is the
    norm of the cofactor normal, the simplex's scaled (n-1)-volume, so a
    simplex with that product at most 1e-14 is degenerate.
    """
    sub = pts[list(verts)]
    _, sing, vt = np.linalg.svd(sub[1:] - sub[0])
    if float(np.prod(sing)) <= 1e-14:
        raise DegenerateHull("facet simplex is degenerate")
    normal = vt[-1]
    side = float(normal @ interior - normal @ sub[0])
    if abs(side) <= 1e-13:
        raise DegenerateHull("hull is too flat to orient facets")
    if side > 0:
        normal = -normal
    return normal, float(np.mean(sub @ normal))


def quickhull(points: np.ndarray, tol: float = TOL_HULL):
    """Enumerate the hull facets of `points` (one point per row).

    Returns (facets, flat) where exactly one is non-trivial:
    - full-dimensional: facets is a list of (vertex index tuple, unit outward
      normal, offset) triples and flat is None;
    - hyperplane span: facets is [] and flat is the (unit normal, offset)
      hyperplane carrying every point.
    """
    pts = np.asarray(points, dtype=float)
    m, n = pts.shape
    if n == 1:
        return _hull_1d(pts)
    chosen, q = _affine_basis(pts, tol)
    if len(chosen) == n:
        normal = _null_direction(q)
        return [], (normal, float(np.mean(pts @ normal)))
    if len(chosen) < n:
        raise DegenerateHull(
            f"points affinely span dimension {len(chosen) - 1} < {n - 1}")

    interior = pts[chosen].mean(axis=0)

    facets: list[_Facet] = []
    for leave in range(n + 1):
        verts = tuple(sorted(v for t, v in enumerate(chosen) if t != leave))
        normal, offset = make_plane(pts, verts, interior)
        facets.append(_Facet(verts, normal, offset))
    ridge_owner: dict = {}
    for f in facets:
        for r in _ridges(f.vertices):
            other = ridge_owner.get(r)
            if other is None:
                ridge_owner[r] = f
            else:
                f.neighbors[r] = other
                other.neighbors[r] = f

    chosen_set = set(chosen)
    rest = [i for i in range(m) if i not in chosen_set]
    if rest:
        normals = np.array([f.normal for f in facets])
        offsets = np.array([f.offset for f in facets])
        dists = pts[rest] @ normals.T - offsets
        best = np.argmax(dists, axis=1)
        for row, idx in enumerate(rest):
            if dists[row, best[row]] > tol:
                facets[best[row]].outside.append(idx)

    all_facets = list(facets)
    stack = [f for f in facets if f.outside]
    guard = 0
    while stack:
        guard += 1
        if guard > 100 * m + 1000:
            raise DegenerateHull("hull construction did not terminate")
        f = stack.pop()
        if not f.alive or not f.outside:
            continue
        out = np.array(f.outside)
        apex = int(out[np.argmax(pts[out] @ f.normal)])
        apex_pt = pts[apex]

        visible_ids = {id(f)}
        visible = [f]
        tested = {id(f)}
        queue = [f]
        while queue:
            g = queue.pop()
            for nb in g.neighbors.values():
                if id(nb) in tested or not nb.alive:
                    continue
                tested.add(id(nb))
                if nb.normal @ apex_pt - nb.offset > tol:
                    visible_ids.add(id(nb))
                    visible.append(nb)
                    queue.append(nb)

        horizon = []
        for g in visible:
            for ridge, nb in g.neighbors.items():
                if nb.alive and id(nb) not in visible_ids:
                    horizon.append((ridge, nb))

        new_facets = []
        submap: dict = {}
        for ridge, nb in horizon:
            verts = tuple(sorted(ridge | {apex}))
            normal, offset = make_plane(pts, verts, interior)
            nf = _Facet(verts, normal, offset)
            nf.neighbors[ridge] = nb
            nb.neighbors[ridge] = nf
            new_facets.append(nf)
            for r in _ridges(verts):
                if r != ridge:
                    submap.setdefault(r, []).append(nf)
        for r, pair in submap.items():
            if len(pair) != 2:
                raise DegenerateHull("inconsistent horizon (nearly degenerate input)")
            pair[0].neighbors[r] = pair[1]
            pair[1].neighbors[r] = pair[0]

        pool = []
        for g in visible:
            pool.extend(g.outside)
            g.outside = []
            g.alive = False
        pool = [idx for idx in pool if idx != apex]
        if pool:
            normals = np.array([nf.normal for nf in new_facets])
            offsets = np.array([nf.offset for nf in new_facets])
            dists = pts[pool] @ normals.T - offsets
            best = np.argmax(dists, axis=1)
            for row, idx in enumerate(pool):
                if dists[row, best[row]] > tol:
                    new_facets[best[row]].outside.append(idx)
        all_facets.extend(new_facets)
        stack.extend(nf for nf in new_facets if nf.outside)

    result = [(f.vertices, f.normal, f.offset) for f in all_facets if f.alive]
    result.sort(key=lambda item: item[0])
    return result, None


def _hull_1d(pts: np.ndarray):
    vals = pts[:, 0]
    if vals.size == 1 or np.ptp(vals) <= 1e-12:
        return [], (np.array([1.0]), float(vals[0]))
    imin = int(np.argmin(vals))
    imax = int(np.argmax(vals))
    return [
        ((imin,), np.array([-1.0]), float(-vals[imin])),
        ((imax,), np.array([1.0]), float(vals[imax])),
    ], None
