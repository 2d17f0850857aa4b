"""Convex hull facet enumeration in arbitrary fixed dimension.

Produces simplicial facets with unit outward normals for full-dimensional
point sets. Point sets whose affine span is a single hyperplane are reported
as flat (the caller decides what to do with them); lower-dimensional spans
raise DegenerateHull. Dimensions up to ~6 and a few hundred points are the
intended regime.

The algorithm is the randomized incremental hull of Clarkson & Shor,
"Applications of random sampling in computational geometry, II" (1989), in
the round-synchronous ProcessRidge form of Blelloch, Gu, Shun & Sun,
"Randomized incremental convex hull is highly parallel" (SPAA 2020). After
a seed simplex, points come in the order of a multiplicative hash of their
index, a stand-in for a random order whatever the row order. A facet keeps
only its pivot: the first point after its apex, in that order, more than
`TOL_PLANE` above it. A round takes every open ridge task (t1, t2) at once:
equal pivots drop it (the ridge is buried, or final); otherwise the facet
with the smaller pivot p gives way to the facet (ridge + p), which takes
over the task. Its ridges through p wait for their twin, now or in a later
round, as rows [packed key words (`_ridge_keys`) | owner facet | index row]
of one table, sorted once per round; each pair is a task. A task's smaller
pivot rises every round, so there are at most m rounds (O(log m) with high
probability for a random order). The hull is the facets without a pivot.
A new facet's plane is a combination of its two parents' planes, which
pass through its ridge (`_pencil_planes`). `make_planes` (cofactor normals,
with a stacked Householder QR for the thin simplices only, and every
DegenerateHull check) makes the seed simplex's planes, the rows where a
pencil cancels, and, in one call, the planes of the final simplices: every
plane `quickhull` returns is a `make_planes` plane.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

import numpy as np

from .errors import DegenerateHull
from .frames import as_matrix

TOL_PLANE = 1e-9  # a point within this of a facet's plane lies on it
SCRAMBLE = 0x9E3779B1  # odd, so the hash permutes the indices below 2**32
# a simplex whose volume is below this share of Hadamard's bound gets its
# plane from the Householder QR, not from the cofactors (see make_planes)
THIN = 1e-3
# a pencil plane whose error bound grows past this multiple of its
# make_planes ancestors' is taken from make_planes (see _pencil_planes)
GROWTH = 64.0


@cache
def _opposite(n: int) -> np.ndarray:
    """(n, n-1) slot index: row k lists every slot of an n-tuple but k."""
    idx = np.array([[j for j in range(n) if j != k] for k in range(n)],
                   dtype=np.intp).reshape(n, n - 1)
    idx.flags.writeable = False
    return idx


@cache
def _laplace(n: int):
    """Index tables of the cofactor expansion in `_cofactors`, one per
    level r = 2..n-1: for the r-subsets S of the n columns, in
    `combinations` order, the (S, r) positions in level r-1 of the subsets
    S without S[t], the (S, r) columns S[t], and the (r,) signs
    (-1)^(r-1+t) of expanding along row r."""
    levels, prev = [], {s: i for i, s in enumerate(combinations(range(n), 1))}
    for r in range(2, n):
        subsets = list(combinations(range(n), r))
        drop = np.array([[prev[s[:t] + s[t + 1:]] for t in range(r)] for s in subsets])
        level = (drop, np.array(subsets), (-1.0) ** (r - 1 + np.arange(r)))
        for a in level:
            a.flags.writeable = False
        levels.append(level)
        prev = {s: i for i, s in enumerate(subsets)}
    return tuple(levels)


def _cofactors(diffs: np.ndarray) -> np.ndarray:
    """The cofactor normals (K, n) of the difference matrices (K, n-1, n):
    entry j is (-1)^j times the minor without column j, so each normal is
    orthogonal to its matrix's rows. The minors of the first r rows are
    built level by level, by Laplace expansion along row r."""
    n = diffs.shape[2]
    minors = diffs[:, 0]
    for row, (drop, cols, sign) in enumerate(_laplace(n), start=1):
        minors = np.einsum("ksr,ksr,r->ks", diffs[:, row, cols], minors[:, drop], sign)
    # level n-1 lists the column subsets without column n-1, ..., 0
    return minors[:, ::-1] * (-1.0) ** np.arange(n)


@cache
def _key_layout(m: int, k: int) -> np.ndarray:
    """How `_ridge_keys` packs k sorted indices below m: bit_length(m - 1)
    bits each, as many per int64 word as fit in 63 bits (one word for m <=
    4096 at k <= 5), the first index highest. Returns the weights (k, w):
    index j is shifted into word j // per, per = 63 // bits, at bit
    bits * (per - 1 - j % per)."""
    bits = max(int(m - 1).bit_length(), 1)
    per = 63 // bits
    j = np.arange(k)
    weights = np.zeros((k, max(-(-k // per), 1)), dtype=np.int64)
    weights[j, j // per] = np.left_shift(1, bits * (per - 1 - j % per))
    weights.flags.writeable = False
    return weights


def _ridge_keys(ridges: np.ndarray, m: int) -> np.ndarray:
    """The key words (R, w) of the ridges (R, k), sorted vertex indices
    below m: equal ridges have equal keys, and keys order as ridges do."""
    return ridges @ _key_layout(m, ridges.shape[1])


def _key_order(keys: np.ndarray):
    """Stable order of the keys (R, w), and whether each key in it equals the next."""
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    return order, (ranked[1:] == ranked[:-1]).all(axis=1)


def ridge_pairs(verts: np.ndarray):
    """Pair the ridges of the simplices `verts` (F, n), sorted vertex indices.

    The ridge in slot s = f*n + k is simplex f without its vertex k. Returns
    flat slot arrays (s, t) such that the ridges in slots s[i] and t[i] are
    equal. Raises DegenerateHull unless every ridge lies on exactly two
    simplices.
    """
    count, n = verts.shape
    ridges = verts[:, _opposite(n)].reshape(count * n, n - 1)
    order, same = _key_order(_ridge_keys(ridges, int(verts.max(initial=0)) + 1))
    if len(order) % 2 or not same[0::2].all() or same[1::2].any():
        raise DegenerateHull("hull is not closed: a ridge does not have exactly two facets")
    return order[0::2], order[1::2]


def _affine_basis(points: np.ndarray, tol: float):
    """Greedy farthest-point seed: indices of affinely independent points
    plus an orthonormal basis of their span of differences."""
    m, n = points.shape
    base = int(np.lexsort(points.T[::-1])[0])
    chosen = [base]
    rel = points - points[base]
    q = np.zeros((n, n))
    for k in range(n):
        resid = rel - (rel @ q[:k].T) @ q[:k]
        dist = np.linalg.norm(resid, axis=1)
        far = int(np.argmax(dist))
        if dist[far] <= tol:
            break
        chosen.append(far)
        q[k] = resid[far] / dist[far]
    return chosen, q[:len(chosen) - 1]


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

    A normal is the cofactor vector c of the simplex's (n-1) x n difference
    matrix A (rows a_j), divided by its norm. By Cauchy-Binet |c| is the
    product of the singular values of A, the simplex's scaled
    (n-1)-volume, which never exceeds Hadamard's bound H = prod_j |a_j|_2.

    Each entry of c is a sum of (n-1)! signed products of n-1 entries of A,
    one from each row, so its computed value is off by at most
    gamma_k sum |terms| <= gamma_k prod_j |a_j|_1 <= gamma_k n^((n-1)/2) H,
    with k = (n-2)(n+1)/2 the roundings along one term of the level-by-level
    expansion. Relative to |c|, the unit normal's error is then at most
    2 gamma_k n^(n/2) H/|c|. A simplex with |c| >= THIN H keeps that below
    6.7e-10 for n <= 6, so a unit-norm point's distance to the plane moves
    by at most about TOL_PLANE. A thinner simplex, where the bound grows as
    H/|c|, gets the last column of Q in the complete Householder QR of A^T
    instead (one stacked QR over the thin rows), and its volume from
    |prod(diag R)|, since det(A A^T) = det(R^T R). This is the filtered
    design of Shewchuk's robust predicates (Discrete Comput. Geom. 18,
    1997): a fast formula where its error bound is small, and a stabler
    one only where it is not.

    A simplex with volume at most 1e-14 raises DegenerateHull, as does a
    plane within 1e-13 of `interior`.
    """
    sub = pts.take(verts, axis=0)
    diffs = sub[:, 1:] - sub[:, :1]
    cof = _cofactors(diffs)
    volume = np.sqrt(np.einsum("kj,kj->k", cof, cof))
    thin = volume < THIN * np.sqrt(np.einsum("kij,kij->ki", diffs, diffs)).prod(axis=1)
    any_thin = thin.any()
    if any_thin:
        q, r = np.linalg.qr(np.swapaxes(diffs[thin], 1, 2), mode="complete")
        volume[thin] = np.abs(r.diagonal(axis1=1, axis2=2).prod(axis=1))
    if volume.min(initial=np.inf) <= 1e-14:
        raise DegenerateHull("facet simplex is degenerate")
    normals = cof / volume[:, None]
    if any_thin:
        normals[thin] = q[:, :, -1]
    dots = np.einsum("kvj,kj->kv", sub, normals)
    outward = dots[:, 0] - normals @ interior
    if np.abs(outward).min(initial=np.inf) <= 1e-13:
        raise DegenerateHull("hull is too flat to orient facets")
    sign = np.sign(outward)
    normals *= sign[:, None]
    return normals, sign * dots.sum(axis=1) / sub.shape[1]


def _pencil_planes(pts, verts, apex, a, b, interior):
    """Plane rows (K, n+2), [unit normal | offset | growth], of the simplices
    `pts[verts[i]]`, each a ridge and apex[i]: across that ridge the facet
    with plane row a[i] gave way to it, and the facet with row b[i] was kept.

    The new simplex lies in the pencil of its parents' planes a and b
    (rotation about a ridge: Chand & Kapur, J. ACM 17, 1970). With x the
    apex, alpha = a(x) > 0 (x is a's pivot) and beta = b(x), the plane

        h = alpha b - beta a

    vanishes on the ridge, where a and b do, and at x. Where beta <= 0 both
    weights are >= 0, so h needs no orientation: as its normal has norm
    |h| <= alpha + |beta|, the interior lies at least min(-a(i), -b(i))
    below h / |h|, and so, by induction, at least as far as below the
    nearest `make_planes` ancestor, which that function keeps above 1e-13.

    Error. Call a plane's residual eps the largest |<u, v> - d| over its
    simplex's vertices v. At a ridge vertex v, h(v) / |h| is (alpha b(v) -
    beta a(v)) / |h|, at most (alpha eps_b + |beta| eps_a) / |h|; at x it
    is the rounding of alpha and beta. Forming and scaling h adds at most
    c u (alpha + |beta|) s / |h|, with u = 2^-53, c a small multiple of n
    and s the largest |v| + |d|. The last column carries the growth

        g = (alpha g_b + |beta| g_a) / |h|,   g = 1 for a `make_planes` row,

    the same combination of the parents' growths. Since g >= 1 bounds
    (alpha + |beta|) / |h|, induction gives eps <= g (eps_0 + k c u s),
    where eps_0 is the largest residual of the facet's `make_planes`
    ancestors and k <= m its pencil steps from them. On random_sphere(n, m,
    7) at (5, 120), (6, 100), (6, 200) and (7, 100), g stays below 10.3 and
    every pencil plane is within 1.0e-15 of its simplex's vertices.

    Fallback. Where the pencil cancels, |h| is small against alpha +
    |beta|: the normals nearly oppose, or beta > 0 and the weights differ
    in sign. Those rows, the ones with beta > 0, alpha <= 0 or g > GROWTH,
    come from `make_planes`, with all its DegenerateHull checks, and start
    again at g = 1. The pencil planes only choose pivots: `quickhull`
    returns `make_planes` planes.
    """
    n = pts.shape[1]
    x = pts.take(apex, axis=0)
    h_a = np.einsum("kj,kj->k", a[:, :n], x) - a[:, n]
    h_b = np.einsum("kj,kj->k", b[:, :n], x) - b[:, n]
    rows = h_a[:, None] * b
    rows -= h_b[:, None] * a
    norm = np.sqrt(np.einsum("kj,kj->k", rows[:, :n], rows[:, :n]))
    cancel = ~((h_a > 0) & (h_b <= 0) & (rows[:, n + 1] <= GROWTH * norm))
    norm[cancel] = 1.0
    rows /= norm[:, None]
    if cancel.any():
        rows[cancel, :n], rows[cancel, n] = make_planes(pts, verts[cancel], interior)
        rows[cancel, n + 1] = 1.0
    return rows


def quickhull(points: np.ndarray):
    """Enumerate the hull facets of `points` (one point per row).

    Returns (verts, normals, offsets, flat): one row per simplicial facet,
    `verts` (F, n) its sorted vertex indices, `normals` (F, n) its unit
    outward normal and `offsets` (F,) its offset, rows in order of their
    vertex tuples. When the points span a single hyperplane, F = 0 and
    `flat` is that (unit normal, offset) hyperplane; otherwise flat is None.
    DimensionMismatch unless `points` is a non-empty finite 2-d array.
    """
    pts = as_matrix(points, "points")
    m, n = pts.shape
    if n == 1:
        return _hull_1d(pts)
    chosen, q = _affine_basis(pts, TOL_PLANE)
    if len(chosen) == n:
        normal = _null_direction(q)
        return _flat(normal, float(np.mean(pts @ normal)))
    if len(chosen) < n:
        raise DegenerateHull(
            f"points affinely span dimension {len(chosen) - 1} < {n - 1}")

    # rank order: the seed simplex, then the rest by hashed index (pivot m is none)
    rest = np.delete(np.arange(m), chosen)
    scramble = (rest.astype(np.uint64) * np.uint64(SCRAMBLE)) & np.uint64(0xFFFFFFFF)
    perm = np.concatenate([chosen, rest[np.argsort(scramble, kind="stable")]])
    ranked, rank = pts[perm].T, np.arange(m)
    interior = pts[chosen].mean(axis=0)

    # round 0 makes the seed simplex's facets, whose pivots come after rank n
    verts = np.sort(np.array(chosen)[_opposite(n + 1)], axis=1)
    planes = np.ones((n + 1, n + 2))  # plane rows: [unit normal | offset | growth]
    planes[:, :n], planes[:, n] = make_planes(pts, verts, interior)
    p, apex = np.full(n + 1, n), np.full(n + 1, -1)
    kept, ridge = np.empty(0, dtype=np.intp), verts[:0, 1:]
    w = _key_layout(m, n - 1).shape[1]  # a row of `wait`: [w key words | owner | ridge]
    pivot, wait, made = p[:0], np.empty((0, w + n), dtype=np.int64), []
    store = np.empty((0, n + 2))  # every facet's plane row, by facet id
    while len(p):
        made.append(verts)
        first = len(pivot)  # this round's facets are first, first + 1, ...
        if first + len(planes) > len(store):
            store = np.resize(store, (2 * (first + len(planes)), n + 2))
        store[first:first + len(planes)] = planes
        dists = planes[:, :n] @ ranked
        dists -= planes[:, n:n + 1]
        above = (dists > TOL_PLANE) & (rank > p[:, None])
        # ranks up to n belong to the seed simplex and are never above (p >=
        # n), so an argmax of 0 means no pivot
        new_pivot = above.argmax(axis=1)
        new_pivot[new_pivot == 0] = m
        # a new facet takes over its ridge task against the kept facet (none
        # in round 0); its ridges through the apex (all of a seed facet's)
        # wait for their twins, and each pair is a task
        through = verts != apex[:, None]
        ridges = verts[:, _opposite(n)][through]
        wait = np.concatenate([wait, np.concatenate(
            [_ridge_keys(ridges, m), through.nonzero()[0][:, None] + len(pivot), ridges], axis=1)])
        order, same = _key_order(wait[:, :w])
        wait, pair = wait.take(order, axis=0), same.nonzero()[0]
        twin, owner = pair + 1, wait[:, w]
        paired = np.zeros(len(wait), dtype=bool)
        paired[pair] = paired[twin] = True
        if np.count_nonzero(paired) < 2 * len(pair):  # pairs overlap: 3 equal keys
            raise DegenerateHull("hull is not closed: a ridge has more than two facets")
        lo = np.concatenate([np.arange(len(pivot), len(pivot) + len(kept)), owner[pair]])
        hi = np.concatenate([kept, owner[twin]])
        ridge = np.concatenate([ridge, wait[:, w + 1:].take(pair, axis=0)])
        wait = wait.compress(~paired, axis=0)
        pivot = np.concatenate([pivot, new_pivot])
        # across each ridge the facet with the smaller pivot p gives way to
        # (ridge + p), and the other is kept; equal pivots drop the task
        p_lo, p_hi = pivot[lo], pivot[hi]
        live = (p_lo != p_hi).nonzero()[0]
        p, kept = np.minimum(p_lo, p_hi)[live], np.where(p_hi < p_lo, lo, hi)[live]
        gives = np.where(p_hi < p_lo, hi, lo)[live]
        ridge, apex = ridge.take(live, axis=0), perm[p]
        verts = np.concatenate([ridge, apex[:, None]], axis=1)
        verts.sort(axis=1)
        planes = _pencil_planes(pts, verts, apex, store.take(gives, axis=0),
                                store.take(kept, axis=0), interior)

    # the hull is every facet made that found no pivot, with planes from make_planes
    verts = np.concatenate(made)[pivot == m]
    verts = verts[np.lexsort(verts.T[::-1])]
    return (verts, *make_planes(pts, verts, interior), None)


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
