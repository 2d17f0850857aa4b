"""Convex polytope of the frame elements: facets, incidences, cone queries.

The polytope is the convex hull of the unit-norm frame elements. Facet
vertex sets are the work horses of the bias estimation: whenever a facet
misses the origin its vertices span R^n, and when the origin is strictly
inside the hull the facet cones tile the whole space.

Quickhull's simplicial facets become polytope facets by a merge over the
ridge graph: simplices that share a ridge and a hyperplane are joined, and
the same ridge pairing (`hull.ridge_pairs`) checks that the simplicial hull
is closed (every ridge on exactly two simplices), which is what makes the
tiling true rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import islice, takewhile

import numpy as np

from . import hull as _hull
from .errors import DegenerateHull
from .frames import UnitFrame
from .hull import TOL_PLANE
from .solvers import TOL_SOLVER, lp_feasible

TOL_INTERIOR = 1e-9
TOL_MERGE = 1e-9
TOL_DISTINCT = 1e-10
MERGE_ENTRIES = 2 ** 14  # entries per (m x block) certificate product: bounds peak memory
# a facet with some coordinate below -TOL_OUTSIDE at every vertex misses the
# orthant by more than lp_feasible's tolerance (proof in positive_facets)
TOL_OUTSIDE = 2.0 * TOL_SOLVER


@dataclass(frozen=True)
class Polytope:
    """The facet table of the hull of the frame elements.

    Row j is facet j: its unit normal `normals[j]`, pointing away from the
    interior, its offset `offsets[j]`, and `incidence[j]`, the elements on
    its plane. Every element satisfies <normal, x_i> <= offset, with
    equality exactly on the facet's vertices. Facets are in order of their
    vertex tuples; the three arrays are stored as read-only copies, and its
    cached views hold no bias: one polytope serves every layer bias.
    """

    frame: UnitFrame
    normals: np.ndarray  # (num_facets, n)
    offsets: np.ndarray  # (num_facets,)
    incidence: np.ndarray  # bool, (num_facets, m)
    full_dimensional: bool

    def __post_init__(self):
        for name in ("normals", "offsets", "incidence"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def num_facets(self) -> int:
        return len(self.offsets)

    @cached_property
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        """Each facet's vertex indices, ascending: the rows of `incidence`."""
        cols = iter(nonzero_2d(self.incidence)[1].tolist())
        return tuple(tuple(islice(cols, k)) for k in self.incidence.sum(axis=1).tolist())

    @cached_property
    def facets_by_size(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per facet size k, ascending: the indices of the facets with k
        vertices and their (F_k, k) vertex array, ascending and read-only."""
        return _group_by_size(np.arange(self.num_facets), self.incidence)


@dataclass(frozen=True)
class PositiveFacetReport:
    """Which facets meet the closed non-negative orthant, and whether their
    cones cover it without passing through the origin."""

    facet_indices: tuple[int, ...]
    vertex_indices: tuple[int, ...]
    nonneg_omnidirectional: bool


def build_polytope(frame: UnitFrame) -> Polytope:
    """Enumerate the facets of the convex hull of the frame elements.

    Quickhull's simplicial facets are merged into the facet table by
    `_merge_coplanar`: the simplicial hull is checked for closure,
    ridge-adjacent simplices on one hyperplane become one facet, and each
    facet's vertex set is every element within `TOL_PLANE` of its
    hyperplane. If the elements span only a hyperplane that misses the
    origin, the table has one flat facet holding every element; a
    hyperplane through the origin (or a lower-dimensional span) raises
    DegenerateHull.
    """
    pts = frame.elements
    _check_distinct(pts)
    verts, normals, offsets, flat = _hull.quickhull(pts)
    if flat is not None:
        normal, offset = flat
        if abs(offset) <= TOL_PLANE:
            raise DegenerateHull("affine hull of the elements passes through the origin")
        if offset < 0:
            normal, offset = -normal, -offset
        return Polytope(frame, normal[None, :], np.array([offset]),
                        np.ones((1, frame.m), dtype=bool), False)
    return Polytope(frame, *_merge_coplanar(verts, normals, offsets, pts), True)


def _check_distinct(pts: np.ndarray) -> None:
    """Raise ValueError for the first element i with a later element within
    tol = TOL_DISTINCT, naming the nearest such j (ties to the smallest).

    One sort finds the candidates. Every row is projected onto the fixed
    unit vector u of `_direction(n)`, and since |<u, a - b>| <= |a - b|, a
    pair within tol has projections within tol of each other. So only
    pairs of rows whose sorted (stable) projections lie within

        window = tol + 4 (n + 4) eps (tol + 2 s)

    of each other are tested, eps = 2^-53 the unit roundoff and s the
    largest row 1-norm. The slack is at least twice, to first order in eps,
    the rounding it covers: each projection's, at most gamma_n s (as
    |u_k| <= 1); the norm test's, whose computed value <= tol implies
    |a - b| <= tol (1 + gamma_(n+3)); that of |u| itself; and the window
    comparison's, at most eps (s + window). The candidates get the same
    `np.linalg.norm` test as a scan of every later row.
    """
    m, n = pts.shape
    if m < 2:
        return
    proj = pts @ _direction(n)
    order = np.argsort(proj, kind="stable")
    ranked = proj[order]
    s = float(np.max(np.abs(pts).sum(axis=1)))
    window = TOL_DISTINCT + 4 * (n + 4) * 2.0 ** -53 * (TOL_DISTINCT + 2 * s)
    reach = np.searchsorted(ranked, ranked + window, side="right") - np.arange(1, m + 1)
    if not reach.any():
        return
    # every sorted position p with each of the reach[p] positions after it
    p = np.repeat(np.arange(m), reach)
    q = p + 1 + np.arange(len(p)) - np.repeat(np.cumsum(reach) - reach, reach)
    i, j = np.minimum(order[p], order[q]), np.maximum(order[p], order[q])
    d = np.linalg.norm(pts[j] - pts[i], axis=1)
    close = d <= TOL_DISTINCT
    if close.any():
        first = i[close].min()
        at = close & (i == first)
        nearest = j[at][np.lexsort((j[at], d[at]))[0]]
        raise ValueError(f"elements {first} and {nearest} coincide within {TOL_DISTINCT}")


@cache
def _direction(n: int) -> np.ndarray:
    """Unit vector along (sqrt 2, sqrt 3, sqrt 5, ...), the square roots of
    the first n primes. They are linearly independent over the rationals,
    so distinct rows with small integer entries (cube and ternary frames)
    never project to the same value in exact arithmetic."""
    primes: list[int] = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in takewhile(lambda p: p * p <= k, primes)):
            primes.append(k)
        k += 1
    u = np.sqrt(np.array(primes, dtype=float))
    return _readonly(u / np.linalg.norm(u))


def facet_groups(poly: Polytope, facet_indices):
    """The facets `facet_indices`, an ascending set without repeats, grouped
    as `poly.facets_by_size` groups every facet; a size with none of them
    is left out. A strict subset is grouped from its own incidence rows."""
    if len(facet_indices) == poly.num_facets:  # every facet: the table, not a copy
        return poly.facets_by_size
    facets = np.asarray(facet_indices, dtype=int)
    return _group_by_size(facets, poly.incidence[facets])


def _group_by_size(facets: np.ndarray, incidence: np.ndarray):
    """Per facet size k, ascending: the entries of `facets` whose
    `incidence` row has k vertices, and their (F_k, k) vertex array,
    ascending and read-only."""
    rows, cols = nonzero_2d(incidence)
    sizes = np.bincount(rows, minlength=len(facets))
    table = []
    for k in np.flatnonzero(np.bincount(sizes)).tolist():
        chosen = sizes == k
        verts = cols[np.repeat(chosen, sizes)].reshape(-1, k)
        table.append((_readonly(facets[chosen]), _readonly(verts)))
    return tuple(table)


def nonzero_2d(mask: np.ndarray):
    """`np.nonzero` of a 2-D mask, from one scan of the flat mask (numpy's
    2-D nonzero is several times slower)."""
    return divmod(np.flatnonzero(mask), mask.shape[1])


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False
    return a


def _merge_coplanar(verts: np.ndarray, normals: np.ndarray, offsets: np.ndarray,
                    pts: np.ndarray):
    """Merge quickhull's simplices (`verts`, `normals`, `offsets`, one row
    each, in order of their vertex tuples) that share a hyperplane into
    facets, and give each facet every element on its plane. Returns the
    facet table (normals, offsets, incidence), its rows in order of their
    vertex tuples.

    The simplices of one facet are connected through the ridges they share,
    so only ridge neighbours are compared: two are coplanar when their
    normals and offsets agree within TOL_MERGE (sup norm), and each
    connected component of that relation becomes one facet. A lone simplex
    keeps its plane; a larger component takes its summed normal,
    renormalized, and the mean offset of its vertices. Pairing the ridges
    (`hull.ridge_pairs`, on the packed ridge keys of quickhull's rounds)
    also checks closure: every ridge must belong to exactly two simplices,
    or the facet cones would not tile space. Raises
    DegenerateHull when closure or a facet certificate (no element above
    the plane by more than TOL_PLANE) fails, or when two facets get the
    same vertex set: points on two distinct hyperplanes at once are
    affinely degenerate, and such a facet is ill-defined.

    Only what merges pays for the merge. When no ridge neighbours are
    coplanar, every simplex is a facet with its own plane, and the
    component labels and summed normals are skipped. When, moreover, each
    facet's elements on its plane are exactly its simplex's vertices, its
    vertex tuple is its row of `verts`. Those rows are all of length n and
    already in lexicographic order, so padding changes none of them and the
    stable sort of the padded tuples is the identity: the facets keep
    quickhull's rows, and the sort is skipped. Equal vertex sets are then
    equal, hence adjacent, rows of `verts`, so comparing adjacent rows
    checks for them exactly as it does on the sorted padded tuples.
    """
    count, n = verts.shape
    s, t = _hull.ridge_pairs(verts)
    a, b = s // n, t // n
    same = ((np.max(np.abs(normals[a] - normals[b]), axis=1) <= TOL_MERGE)
            & (np.abs(offsets[a] - offsets[b]) <= TOL_MERGE))
    merged = bool(same.any())
    planes, plane_offsets = normals, offsets
    if merged:
        root = _components(count, a[same], b[same])
        roots, group = np.unique(root, return_inverse=True)
        planes = normals[roots]
        plane_offsets = offsets[roots]
        summed = np.zeros_like(planes)
        np.add.at(summed, group, normals)
        union = np.zeros((len(roots), len(pts)), dtype=bool)
        union[group[:, None], verts] = True  # each component's vertices
        for g in np.flatnonzero(np.bincount(group) > 1).tolist():
            normal = summed[g] / np.linalg.norm(summed[g])
            planes[g] = normal
            plane_offsets[g] = float(np.mean(pts[union[g]] @ normal))

    incidence = np.empty((len(planes), len(pts)), dtype=bool)
    block_len = max(MERGE_ENTRIES // len(pts), 1)
    for start in range(0, len(planes), block_len):
        block = slice(start, start + block_len)
        dots = pts @ planes[block].T
        if np.any(np.max(dots, axis=0) > plane_offsets[block] + TOL_PLANE):
            raise DegenerateHull("hull facet certificate failed")
        incidence[block] = (np.abs(dots - plane_offsets[block]) <= TOL_PLANE).T
    tuples = verts
    if (merged or np.count_nonzero(incidence) != verts.size
            or not incidence[np.arange(count)[:, None], verts].all()):
        # vertex-tuple order: one lexsort of the vertex lists padded with -1,
        # so that a tuple sorts before every longer tuple it begins
        rows, cols = nonzero_2d(incidence)
        sizes = np.bincount(rows, minlength=len(incidence))
        tuples = np.full((len(sizes), sizes.max()), -1)
        tuples[rows, np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes)] = cols
        order = np.lexsort(tuples.T[::-1])
        tuples = tuples[order]
        planes, plane_offsets, incidence = planes[order], plane_offsets[order], incidence[order]
    if np.any(np.all(tuples[1:] == tuples[:-1], axis=1)):
        raise DegenerateHull("two facets have the same vertex set")
    return planes, plane_offsets, incidence


def _components(count: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected-component label of each of `count` nodes under the edges
    (a[k], b[k]): the smallest node index of its component."""
    label = np.arange(count)
    while True:
        low = np.minimum(label[a], label[b])
        nxt = label.copy()
        np.minimum.at(nxt, a, low)
        np.minimum.at(nxt, b, low)
        nxt = nxt[nxt]
        if np.array_equal(nxt, label):
            return label
        label = nxt


def is_omnidirectional(poly: Polytope) -> bool:
    """True iff the origin lies strictly inside the polytope: the hull is
    full-dimensional and every outward facet offset is above TOL_INTERIOR."""
    if not poly.full_dimensional:
        return False
    return bool(np.min(poly.offsets) > TOL_INTERIOR)


def positive_facets(poly: Polytope) -> PositiveFacetReport:
    """Find the facets meeting the closed non-negative orthant and test
    whether their cones cover it.

    Facet j meets the orthant iff {c >= 0, sum c = 1, D c >= 0} is feasible,
    where D has the facet vertices as columns; `lp_feasible` gets it in
    standard form, [[1^T, 0], [D, -I]] (c, s) = (1, 0, ..., 0) with slacks
    s >= 0. Two exact tests on the incidence table decide most facets, and
    only the rest go to that LP:

    - Select: a vertex v of j lies in the closed orthant. Then c = e_v is a
      feasible point, and the LP would say True.
    - Reject: some coordinate i is below -delta at every vertex of j, with
      delta = TOL_OUTSIDE, twice the LP's tolerance TOL_SOLVER. The LP
      would say False: its phase-1 program has artificials
      a_eq >= 0 on sum c + a_eq = 1 and a_i >= 0 on
      (D c)_i - s_i + a_i = 0 with s_i >= 0, so
      a_i >= -(D c)_i >= delta * sum c = delta * (1 - a_eq), and its
      objective is at least a_eq + a_i >= delta + a_eq * (1 - delta) >=
      delta > TOL_SOLVER.
    - Otherwise the facet straddles the orthant's boundary and `lp_feasible`
      decides it, in facet order.

    Coverage is decided exactly by n more LPs, one per basis vector e_k:
    the selected cones cover the orthant iff every e_k lies in cone(frame).

    Why n LPs suffice. Every selected cone lies in cone(frame), so the union
    of the selected cones never covers more of the orthant than
    orthant & cone(frame). Conversely, take d != 0 in the orthant and in
    cone(frame). Then d is a positive multiple of a hull point, so the ray
    {s*d : s >= 0} meets the hull; let p = t*d be its farthest hull point
    (t > 0). The hull is the intersection of its facet half-spaces, and
    stepping past p leaves it, so some facet F through p has
    <normal_F, d> > 0, hence offset_F = t <normal_F, d> > 0: the exit facet
    always has positive offset. Its vertex set is every element on its
    plane, so p lies in conv(F), and p lies in the orthant, so F is
    selected and d = p / t lies in cone(F). The selected cones therefore
    cover exactly orthant & cone(frame), which is the whole orthant iff each
    e_k lies in the convex cone cone(frame).

    - Flat hulls: the single facet is the whole hull (its offset is positive
      by construction), so p lies in it directly and its cone is cone(frame).
    - Negative-offset facets: the origin is outside the hull. Such a facet
      is where a ray enters the hull, never where it leaves; if it meets the
      orthant it is selected, and its cone, inside cone(frame), adds nothing
      beyond orthant & cone(frame).
    - Zero-offset facets pass through the origin. One that meets the orthant
      is selected and makes the verdict False, whatever the coverage.

    Omnidirectional hulls need no LP. When `is_omnidirectional` holds (the
    hull is full-dimensional and every facet offset is above
    TOL_INTERIOR), the n LPs are skipped, as their answer is known. The
    origin is then strictly inside the hull, so some ball {|y| <= r},
    r > 0, lies in the hull, and every d != 0 is a positive multiple of its
    hull point r d / |d|: cone(frame) = R^n, and every e_k lies in it.

    The verdict stays conservative: `nonneg_omnidirectional` is True only if
    some facet is selected, the orthant lies in cone(frame) (at the LP's 1e-9
    tolerance, or exactly for omnidirectional hulls), and every selected
    offset is more than TOL_INTERIOR away from zero. When the hull is
    full-dimensional and the selected offsets are all positive, the origin
    is strictly inside the hull (else the entry facet of a ray through a
    selected hull point would be selected with offset <= 0), so cone(frame)
    is R^n and the n LPs would pass. They still run for every hull that is
    not omnidirectional, but decide the verdict only for flat hulls and for
    full-dimensional hulls whose selected facets include negative offsets.
    """
    pts = poly.frame.elements
    incidence = poly.incidence
    selected = incidence[:, (pts >= 0.0).all(axis=1)].any(axis=1)
    straddling = ~selected
    for coordinate in pts.T:
        straddling &= incidence[:, coordinate >= -TOL_OUTSIDE].any(axis=1)
    n = poly.frame.n
    for j in np.flatnonzero(straddling):
        # sum c = 1 and D c - s = 0, with slacks s >= 0
        cols = pts[incidence[j]].T
        ones = np.ones((1, cols.shape[1]))
        selected[j] = lp_feasible(np.block([[ones, np.zeros((1, n))], [cols, -np.eye(n)]]),
                                  np.eye(n + 1)[0])
    facets = np.flatnonzero(selected)
    vertex_union = np.flatnonzero(incidence[selected].any(axis=0))

    away_from_origin = bool(np.all(np.abs(poly.offsets[selected]) > TOL_INTERIOR))
    nonneg = bool(facets.size) and away_from_origin and (
        is_omnidirectional(poly)
        or all(lp_feasible(pts.T, e_k) for e_k in np.eye(n)))
    return PositiveFacetReport(tuple(facets.tolist()), tuple(vertex_union.tolist()), nonneg)
