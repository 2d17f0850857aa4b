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

import numpy as np

from . import hull as _hull
from .errors import AtOrigin, DegenerateHull, NotOmnidirectional
from .frames import UnitFrame
from .solvers import lp_feasible

TOL_PLANE = 1e-9
TOL_INTERIOR = 1e-9
TOL_MERGE = 1e-9
TOL_TIE = 1e-12
TOL_DISTINCT = 1e-10
MERGE_BLOCK = 32  # facets per (m x block) product: bounds peak memory


@dataclass(frozen=True)
class Facet:
    """One (n-1)-dimensional face: its vertex indices and supporting hyperplane.

    The unit normal points away from the polytope interior, so every frame
    element satisfies <normal, x_i> <= offset, with equality exactly on
    `vertex_indices`.
    """

    vertex_indices: tuple[int, ...]
    normal: np.ndarray
    offset: float


@dataclass(frozen=True)
class Polytope:
    frame: UnitFrame
    facets: tuple[Facet, ...]
    incidence: np.ndarray  # bool, shape (num_facets, m)
    full_dimensional: bool

    @property
    def num_facets(self) -> int:
        return len(self.facets)

    def normals(self) -> np.ndarray:
        return np.array([f.normal for f in self.facets])

    def offsets(self) -> np.ndarray:
        return np.array([f.offset for f in self.facets])

    def facets_of_vertex(self, index: int) -> tuple[int, ...]:
        return tuple(int(j) for j in np.nonzero(self.incidence[:, index])[0])


@dataclass(frozen=True)
class PositiveFacetReport:
    """Which facets meet the closed non-negative orthant, and whether their
    cones cover it without passing through the origin."""

    facet_indices: tuple[int, ...]
    vertex_indices: tuple[int, ...]
    nonneg_omnidirectional: bool


def build_polytope(frame: UnitFrame, tol_plane: float = TOL_PLANE) -> Polytope:
    """Enumerate the facets of the convex hull of the frame elements.

    Simplicial quickhull output is checked for closure, ridge-adjacent
    simplices on one hyperplane are merged into a single facet, and each
    facet's vertex set is extended to every element within `tol_plane` of its
    hyperplane (see `_merge_coplanar`). If the elements span only a hyperplane
    that misses the origin, the whole point set is emitted as a single flat
    facet; a hyperplane through the origin (or a lower-dimensional span)
    raises DegenerateHull.
    """
    pts = frame.elements
    m = frame.m
    _check_distinct(pts)
    raw, flat = _hull.quickhull(pts, tol=tol_plane)
    if flat is not None:
        normal, offset = flat
        if abs(offset) <= tol_plane:
            raise DegenerateHull("affine hull of the elements passes through the origin")
        if offset < 0:
            normal, offset = -normal, -offset
        facet = Facet(tuple(range(m)), _readonly(normal), float(offset))
        incidence = np.ones((1, m), dtype=bool)
        return Polytope(frame, (facet,), _readonly(incidence), False)

    merged = _merge_coplanar(raw, pts, tol_plane)
    facets = []
    incidence = np.zeros((len(merged), m), dtype=bool)
    for j, (verts, normal, offset) in enumerate(merged):
        facets.append(Facet(verts, _readonly(normal), offset))
        incidence[j, list(verts)] = True
    return Polytope(frame, tuple(facets), _readonly(incidence), True)


def _check_distinct(pts: np.ndarray, tol: float = TOL_DISTINCT) -> None:
    m = pts.shape[0]
    for i in range(m - 1):
        d = np.linalg.norm(pts[i + 1:] - pts[i], axis=1)
        if float(np.min(d)) <= tol:
            j = i + 1 + int(np.argmin(d))
            raise ValueError(f"elements {i} and {j} coincide within {tol}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False
    return a


def _merge_coplanar(raw, pts: np.ndarray, tol_plane: float):
    """Merge the simplicial facets that share a hyperplane, then give each
    merged facet every element on its plane.

    The simplices of one facet are connected through the ridges they share,
    so only ridge neighbours are compared: two are coplanar when their
    normals and offsets agree within TOL_MERGE (sup norm), and each
    connected component of that relation becomes one facet. A lone simplex
    keeps its plane; a larger component takes its summed normal,
    renormalized, and the mean offset of its vertices. Pairing the ridges
    (`hull.ridge_pairs`, the same routine quickhull links its facets with)
    also checks closure: every ridge must belong to exactly two simplices,
    or the facet cones would not tile space. Raises
    DegenerateHull when closure or a facet certificate (no element above
    the plane by more than `tol_plane`) fails, or when two facets get the
    same vertex set: points on two distinct hyperplanes at once are
    affinely degenerate, and such a facet is ill-defined.
    """
    verts = np.array([v for v, _, _ in raw])
    normals = np.array([nv for _, nv, _ in raw])
    offsets = np.array([off for _, _, off in raw])
    s, t = _hull.ridge_pairs(verts)
    a, b = s // verts.shape[1], t // verts.shape[1]
    same = ((np.max(np.abs(normals[a] - normals[b]), axis=1) <= TOL_MERGE)
            & (np.abs(offsets[a] - offsets[b]) <= TOL_MERGE))
    root = _components(len(raw), a[same], b[same])
    roots = np.flatnonzero(root == np.arange(len(raw)))
    rank = np.zeros(len(raw), dtype=int)
    rank[roots] = np.arange(len(roots))
    group = rank[root]
    planes = normals[roots]
    plane_offsets = offsets[roots]
    summed = np.zeros_like(planes)
    np.add.at(summed, group, normals)
    for g in np.flatnonzero(np.bincount(group) > 1):
        normal = summed[g] / np.linalg.norm(summed[g])
        union = np.flatnonzero(np.bincount(verts[group == g].ravel(), minlength=len(pts)))
        planes[g] = normal
        plane_offsets[g] = float(np.mean(pts[union] @ normal))

    merged = []
    for start in range(0, len(roots), MERGE_BLOCK):
        block = slice(start, start + MERGE_BLOCK)
        dots = pts @ planes[block].T
        if np.any(np.max(dots, axis=0) > plane_offsets[block] + tol_plane):
            raise DegenerateHull("hull facet certificate failed")
        on_plane = np.abs(dots - plane_offsets[block]) <= tol_plane
        for col, normal, offset in zip(on_plane.T, planes[block], plane_offsets[block]):
            merged.append((tuple(np.flatnonzero(col).tolist()), normal, float(offset)))
    merged.sort(key=lambda item: item[0])
    if len({item[0] for item in merged}) != len(merged):
        raise DegenerateHull("two facets have the same vertex set")
    return merged


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


def is_omnidirectional(poly: Polytope, tol_interior: float = TOL_INTERIOR) -> bool:
    """True iff the origin lies strictly inside the polytope: the hull is
    full-dimensional and every outward facet offset is positive."""
    if not poly.full_dimensional:
        return False
    return bool(np.min(poly.offsets()) > tol_interior)


def covering_facet(poly: Polytope, x, tol_interior: float = TOL_INTERIOR,
                   tie_tol: float = TOL_TIE) -> int:
    """Index of a facet whose cone contains x: the facet the ray through x
    exits the polytope by. Ties within `tie_tol` go to the smallest index.
    """
    if not is_omnidirectional(poly, tol_interior):
        raise NotOmnidirectional("covering queries need the origin strictly inside the hull")
    v = np.asarray(x, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm <= 1e-12:
        raise AtOrigin("direction is numerically zero")
    v = v / norm
    dots = poly.normals() @ v
    offsets = poly.offsets()
    mask = dots > tol_interior
    t = np.full(dots.shape, np.inf)
    t[mask] = offsets[mask] / dots[mask]
    tmin = float(np.min(t))
    candidates = np.nonzero(t <= tmin + tie_tol)[0]
    return int(candidates[0])


def positive_facets(poly: Polytope, tol_interior: float = TOL_INTERIOR) -> PositiveFacetReport:
    """Find the facets meeting the closed non-negative orthant and test
    whether their cones cover it.

    Facet membership is decided exactly per facet by LP feasibility of
    {c >= 0, sum c = 1, D c >= 0} where D has the facet vertices as columns.
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

    The verdict stays conservative: `nonneg_omnidirectional` is True only if
    some facet is selected, the orthant lies in cone(frame) (at the LP's 1e-9
    tolerance), and every selected offset is at least `tol_interior` away
    from zero. When the hull is full-dimensional and the selected offsets
    are all positive, the origin is strictly inside the hull (else the entry
    facet of a ray through a selected hull point would be selected with
    offset <= 0), so cone(frame) is R^n and the n LPs always pass. They
    decide the verdict for flat hulls and for full-dimensional hulls whose
    selected facets include negative offsets.
    """
    pts = poly.frame.elements
    selected = []
    for j, facet in enumerate(poly.facets):
        cols = pts[list(facet.vertex_indices)].T
        k = cols.shape[1]
        feasible = lp_feasible(
            A_eq=np.ones((1, k)), b_eq=np.array([1.0]),
            A_ineq=cols, b_ineq=np.zeros(cols.shape[0]),
            nonneg_vars=True)
        if feasible:
            selected.append(j)
    vertex_union = sorted({v for j in selected for v in poly.facets[j].vertex_indices})

    away_from_origin = all(abs(poly.facets[j].offset) > tol_interior for j in selected)
    nonneg = bool(selected) and away_from_origin and all(
        lp_feasible(A_eq=pts.T, b_eq=e_k, nonneg_vars=True)
        for e_k in np.eye(poly.frame.n))
    return PositiveFacetReport(tuple(selected), tuple(int(v) for v in vertex_union), nonneg)
