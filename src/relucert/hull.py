"""Incremental quickhull facet enumeration in arbitrary fixed dimension.

Produces simplicial facets with unit outward normals for full-dimensional
point sets. Point sets whose affine span is a single hyperplane are reported
as flat (the caller decides what to do with them); lower-dimensional spans
raise DegenerateHull. Dimensions up to ~6 and a few hundred points are the
intended regime.

The hull under construction is a set of arrays indexed by facet id: `verts`
(F, n) sorted vertex indices, `normals` (F, n) and `offsets` (F,) of the
outward planes, and an `alive` mask. Each point's outside set membership is
`owner` (m,): the facet it lies above, or -1. No adjacency is stored: each
apex step sorts the ridges of the facets the apex is above, which gives both
the visible set and its horizon. `_sorted_ridges` is the one routine that
matches ridges between simplices, for quickhull and for `ridge_pairs`.
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


def _sorted_ridges(verts: np.ndarray):
    """The ridges of the simplices `verts` (F, n), sorted vertex indices, in
    one lexicographic sort.

    The ridge in slot s = f*n + k is simplex f without its vertex k. Returns
    (ridges, order, same): `ridges` (F*n, n-1) in slot order, `order` the
    slots in ridge order, and `same[i]` whether the ridges in slots
    order[i] and order[i + 1] are equal.
    """
    count, n = verts.shape
    ridges = verts[:, _opposite(n)].reshape(count * n, n - 1)
    order = np.lexsort(ridges.T[::-1]) if n > 1 else np.arange(count)
    ranked = ridges[order]
    return ridges, order, (ranked[1:] == ranked[:-1]).all(axis=1)


def ridge_pairs(verts: np.ndarray):
    """Pair the ridges of the simplices `verts` (F, n), sorted vertex indices.

    Returns flat slot arrays (s, t) such that the ridges in slots s[i] and
    t[i] are equal (slots as in `_sorted_ridges`). Raises DegenerateHull
    unless every ridge lies on exactly two simplices.
    """
    _, order, same = _sorted_ridges(verts)
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

    A normal is the last column of Q in the complete Householder QR of the
    simplex's n x (n-1) difference matrix A; all K come from one stacked QR.
    As det(A^T A) = det(R^T R), |prod(diag R)| is the product of the
    singular values, by Cauchy-Binet the norm of the cofactor normal (the
    simplex's scaled (n-1)-volume). A simplex with it at most 1e-14 raises
    DegenerateHull, as does a plane within 1e-13 of `interior`.
    """
    sub = pts[verts]
    q, r = np.linalg.qr(np.swapaxes(sub[:, 1:] - sub[:, :1], 1, 2), mode="complete")
    if (np.abs(r.diagonal(axis1=1, axis2=2).prod(axis=1)) <= 1e-14).any():
        raise DegenerateHull("facet simplex is degenerate")
    normals = q[:, :, -1]
    dots = np.einsum("kvj,kj->kv", sub, normals)
    side = normals @ interior - dots[:, 0]
    if (np.abs(side) <= 1e-13).any():
        raise DegenerateHull("hull is too flat to orient facets")
    sign = np.where(side > 0, -1.0, 1.0)
    return normals * sign[:, None], sign * dots.sum(axis=1) / sub.shape[1]


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
    verts = np.sort(np.array(chosen)[_opposite(n + 1)], axis=1)
    normals, offsets = make_planes(pts, verts, interior)
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
        out = (owner == f).nonzero()[0] if alive[f] else ()
        if len(out) == 0:
            continue
        apex = int(out[np.argmax(pts[out] @ normals[f])])

        # candidates: the facets the apex is above, and f; their ridge sort
        # pairs the ridges two candidates share
        hit = alive[:count] & (normals[:count] @ pts[apex] - offsets[:count] > tol)
        hit[f] = True
        cand = hit.nonzero()[0]
        ridges, order, same = _sorted_ridges(verts[cand])
        # visible: the candidates connected to f through shared ridges
        a, b = order[:-1][same] // n, order[1:][same] // n
        src, dst = np.concatenate([a, b]), np.concatenate([b, a])
        comp = cand == f
        while True:
            reached = dst[comp[src]]
            if comp[reached].all():
                break
            comp[reached] = True
        # horizon: the ridges of visible facets that no other candidate
        # shares (a visible facet's candidate twin is visible too), in slot
        # order with f's first, as a search from f would list them
        unpaired = np.concatenate([[True], ~same, [True]])
        slots = np.sort(order[unpaired[:-1] & unpaired[1:]])
        slots = slots[comp[slots // n]]
        lead = cand[slots // n] == f
        ridge = ridges[np.concatenate([slots[lead], slots[~lead]])]
        visible = cand[comp]

        # one new facet per horizon ridge, through the ridge and the apex
        k = len(ridge)
        new_verts = np.sort(np.concatenate([ridge, np.full((k, 1), apex)], axis=1), axis=1)
        new_normals, new_offsets = make_planes(pts, new_verts, interior)
        if count + k > len(offsets):
            verts, normals, offsets, alive = (
                np.concatenate([a, np.zeros((count + k,) + a.shape[1:], a.dtype)])
                for a in (verts, normals, offsets, alive))
        rows = slice(count, count + k)
        verts[rows], normals[rows], offsets[rows], alive[rows] = (
            new_verts, new_normals, new_offsets, True)
        alive[visible] = False

        owner[apex] = -1
        gone = np.zeros(count + 1, dtype=bool)  # gone[-1] stays False for owner -1
        gone[visible] = True
        orphans = gone[owner].nonzero()[0]
        if orphans.size:
            dists = pts[orphans] @ new_normals.T - new_offsets
            best = dists.argmax(axis=1)
            above = dists.max(axis=1) > tol
            owner[orphans] = np.where(above, count + best, -1)
            stack.extend((count + np.bincount(best[above], minlength=k).nonzero()[0]).tolist())
        count += k

    keep = np.flatnonzero(alive[:count])
    keep = keep[np.lexsort(verts[keep].T[::-1])]
    return verts[keep], normals[keep], offsets[keep], None


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
