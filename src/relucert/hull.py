"""Incremental quickhull facet enumeration in arbitrary fixed dimension.

Produces simplicial facets with unit outward normals for full-dimensional
point sets. Point sets whose affine span is a single hyperplane are reported
as flat (the caller decides what to do with them); lower-dimensional spans
raise DegenerateHull. Dimensions up to ~6 and a few hundred points are the
intended regime.

The hull under construction is a set of arrays indexed by facet id: `verts`
(F, n) sorted vertex indices, `normals` (F, n) and `offsets` (F,) of the
outward planes, an `alive` mask, and `nbr` (F, n), where `nbr[f, k]` is the
facet across the ridge opposite `verts[f, k]` (the neighbour-opposite-vertex
layout of Boissonnat et al., "Triangulations in CGAL", 2002). Each point's
outside set membership is `owner` (m,): the facet it lies above, or -1.
`ridge_pairs` is the one routine that matches ridges between simplices.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import DegenerateHull

TOL_HULL = 1e-9


@cache
def _opposite(n: int) -> np.ndarray:
    """(n, n-1) slot index: row k lists every slot of an n-tuple but k."""
    idx = np.array([[j for j in range(n) if j != k] for k in range(n)],
                   dtype=np.intp).reshape(n, n - 1)
    idx.flags.writeable = False
    return idx


def ridge_pairs(verts: np.ndarray):
    """Pair the ridges of the simplices `verts` (F, n), sorted vertex indices.

    The ridge in slot s = f*n + k is simplex f without its vertex k. Returns
    flat slot arrays (s, t) such that the ridges in slots s[i] and t[i] are
    equal, found by one lexicographic sort of the F*n ridges. Raises
    DegenerateHull unless every ridge lies on exactly two simplices.
    """
    count, n = verts.shape
    ridges = verts[:, _opposite(n)].reshape(count * n, n - 1)
    order = np.lexsort(ridges.T[::-1]) if n > 1 else np.arange(count)
    ridges = ridges[order]
    same = np.all(ridges[1:] == ridges[:-1], axis=1)
    if len(order) % 2 or not same[0::2].all() or same[1::2].any():
        raise DegenerateHull("hull is not closed: a ridge does not have exactly two facets")
    return order[0::2], order[1::2]


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


def make_planes(pts: np.ndarray, verts: np.ndarray, interior: np.ndarray):
    """Unit normals (K, n) and offsets (K,) of the hyperplanes through the
    simplices `pts[verts[i]]`, each normal pointing away from `interior`.

    A normal is the last right-singular vector of the simplex's (n-1) x n
    matrix of differences; all K come from one stacked SVD. By Cauchy-Binet
    the product of the singular values is the norm of the cofactor normal,
    the simplex's scaled (n-1)-volume, so a simplex with that product at
    most 1e-14 is degenerate and raises DegenerateHull, as does a plane
    within 1e-13 of `interior`.
    """
    sub = pts[verts]
    _, sing, vt = np.linalg.svd(sub[:, 1:] - sub[:, :1])
    if np.any(np.prod(sing, axis=1) <= 1e-14):
        raise DegenerateHull("facet simplex is degenerate")
    normals = vt[:, -1]
    side = normals @ interior - np.einsum("kj,kj->k", normals, sub[:, 0])
    if np.any(np.abs(side) <= 1e-13):
        raise DegenerateHull("hull is too flat to orient facets")
    normals[side > 0] *= -1.0
    return normals, np.mean(np.einsum("kvj,kj->kv", sub, normals), axis=1)


def quickhull(points: np.ndarray, tol: float = TOL_HULL):
    """Enumerate the hull facets of `points` (one point per row).

    Returns (verts, normals, offsets, flat): one row per simplicial facet,
    `verts` (F, n) its sorted vertex indices, `normals` (F, n) its unit
    outward normal and `offsets` (F,) its offset, rows in order of their
    vertex tuples. When the points span a single hyperplane, F = 0 and
    `flat` is that (unit normal, offset) hyperplane; otherwise flat is None.
    """
    pts = np.asarray(points, dtype=float)
    m, n = pts.shape
    if n == 1:
        return _hull_1d(pts)
    chosen, q = _affine_basis(pts, tol)
    if len(chosen) == n:
        normal = _null_direction(q)
        return _flat(normal, float(np.mean(pts @ normal)))
    if len(chosen) < n:
        raise DegenerateHull(
            f"points affinely span dimension {len(chosen) - 1} < {n - 1}")

    interior = pts[chosen].mean(axis=0)
    opposite = _opposite(n)
    verts = np.sort(np.array(chosen)[_opposite(n + 1)], axis=1)
    normals, offsets = make_planes(pts, verts, interior)
    nbr = np.empty((n + 1, n), dtype=np.intp)
    s, t = ridge_pairs(verts)
    nbr.flat[s] = t // n
    nbr.flat[t] = s // n
    alive = np.ones(n + 1, dtype=bool)
    count = n + 1

    dists = pts @ normals.T - offsets
    dists[chosen] = -np.inf
    best = np.argmax(dists, axis=1)
    owner = np.where(dists[np.arange(m), best] > tol, best, -1)
    stack = np.flatnonzero(np.bincount(owner[owner >= 0], minlength=n + 1)).tolist()

    guard = 0
    while stack:
        guard += 1
        if guard > 100 * m + 1000:
            raise DegenerateHull("hull construction did not terminate")
        f = stack.pop()
        out = np.flatnonzero(owner == f) if alive[f] else ()
        if len(out) == 0:
            continue
        apex = int(out[np.argmax(pts[out] @ normals[f])])

        # visible: the facets the apex is above, connected to f through one another
        cand = np.flatnonzero(alive[:count]
                              & (normals[:count] @ pts[apex] - offsets[:count] > tol))
        comp = np.zeros(count + 1, dtype=bool)  # comp[-1] stays False for owner -1
        comp[f] = True
        links = nbr[cand]
        while True:
            grow = cand[~comp[cand] & comp[links].any(axis=1)]
            if grow.size == 0:
                break
            comp[grow] = True
        visible = np.flatnonzero(comp)
        # f first, as a search from f would list it, so its horizon ridges lead
        visible = np.concatenate([[f], visible[visible != f]])
        across = nbr[visible]
        row, slot = np.nonzero(~comp[across])
        outer = across[row, slot]
        ridge = verts[visible[row, None], opposite[slot]]

        # one new facet per horizon ridge, through the ridge and the apex
        k = len(row)
        new_verts = np.sort(np.column_stack([ridge, np.full(k, apex)]), axis=1)
        new_normals, new_offsets = make_planes(pts, new_verts, interior)
        if count + k > len(offsets):
            verts, nbr, normals, offsets, alive = (
                np.concatenate([a, np.zeros((count + k,) + a.shape[1:], a.dtype)])
                for a in (verts, nbr, normals, offsets, alive))
        new = np.arange(count, count + k)
        verts[new], normals[new], offsets[new], alive[new] = (
            new_verts, new_normals, new_offsets, True)
        alive[visible] = False
        nbr[new, (ridge < apex).sum(axis=1)] = outer
        nbr[outer, np.argmax(nbr[outer] == visible[row, None], axis=1)] = new
        # facets through the apex meet along the horizon's own ridges
        s, t = ridge_pairs(ridge)
        h, j = np.divmod(s, n - 1)
        g, i = np.divmod(t, n - 1)
        nbr[new[h], j + (ridge[h, j] > apex)] = new[g]
        nbr[new[g], i + (ridge[g, i] > apex)] = new[h]

        owner[apex] = -1
        orphans = np.flatnonzero(comp[owner])
        if orphans.size:
            dists = pts[orphans] @ new_normals.T - new_offsets
            best = np.argmax(dists, axis=1)
            above = dists[np.arange(orphans.size), best] > tol
            owner[orphans] = np.where(above, new[best], -1)
            stack.extend(new[np.bincount(best[above], minlength=k) > 0].tolist())
        count += k

    live = np.flatnonzero(alive[:count])
    live = live[np.lexsort(verts[live].T[::-1])]
    return verts[live], normals[live], offsets[live], None


def _flat(normal: np.ndarray, offset: float):
    """quickhull's result for points on the hyperplane <normal, x> = offset."""
    n = len(normal)
    return np.empty((0, n), dtype=np.intp), np.empty((0, n)), np.empty(0), (normal, offset)


def _hull_1d(pts: np.ndarray):
    vals = pts[:, 0]
    if vals.size == 1 or np.ptp(vals) <= 1e-12:
        return _flat(np.array([1.0]), float(vals[0]))
    ends = np.sort([np.argmin(vals), np.argmax(vals)])
    normals = np.sign(vals[ends] - vals[ends].mean())[:, None]  # -1 at the min, +1 at the max
    return ends[:, None], normals, normals[:, 0] * vals[ends], None
