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
from functools import cached_property
from itertools import islice

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
class Polytope:
    """The facet table of the hull of the frame elements.

    Row j is facet j: its unit normal `normals[j]`, pointing away from the
    interior, its offset `offsets[j]`, and `incidence[j]`, the elements on
    its plane. Every element satisfies <normal, x_i> <= offset, with
    equality exactly on the facet's vertices. Facets are in order of their
    vertex tuples; the three arrays are stored as read-only copies.
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
        cols = iter(np.nonzero(self.incidence)[1].tolist())
        return tuple(tuple(islice(cols, k)) for k in self.incidence.sum(axis=1).tolist())

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

    Quickhull's simplicial facets are merged into the facet table by
    `_merge_coplanar`: the simplicial hull is checked for closure,
    ridge-adjacent simplices on one hyperplane become one facet, and each
    facet's vertex set is every element within `tol_plane` of its
    hyperplane. If the elements span only a hyperplane that misses the
    origin, the table has one flat facet holding every element; a
    hyperplane through the origin (or a lower-dimensional span) raises
    DegenerateHull.
    """
    pts = frame.elements
    _check_distinct(pts)
    verts, normals, offsets, flat = _hull.quickhull(pts, tol=tol_plane)
    if flat is not None:
        normal, offset = flat
        if abs(offset) <= tol_plane:
            raise DegenerateHull("affine hull of the elements passes through the origin")
        if offset < 0:
            normal, offset = -normal, -offset
        return Polytope(frame, normal[None, :], np.array([offset]),
                        np.ones((1, frame.m), dtype=bool), False)
    return Polytope(frame, *_merge_coplanar(verts, normals, offsets, pts, tol_plane), True)


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


def _merge_coplanar(verts: np.ndarray, normals: np.ndarray, offsets: np.ndarray,
                    pts: np.ndarray, tol_plane: float):
    """Merge quickhull's simplices (`verts`, `normals`, `offsets`, one row
    each) that share a hyperplane into facets, and give each facet every
    element on its plane. Returns the facet table (normals, offsets,
    incidence), its rows in order of their vertex tuples.

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
    count, n = verts.shape
    s, t = _hull.ridge_pairs(verts)
    a, b = s // n, t // n
    same = ((np.max(np.abs(normals[a] - normals[b]), axis=1) <= TOL_MERGE)
            & (np.abs(offsets[a] - offsets[b]) <= TOL_MERGE))
    root = _components(count, a[same], b[same])
    roots, group = np.unique(root, return_inverse=True)
    planes = normals[roots]
    plane_offsets = offsets[roots]
    summed = np.zeros_like(planes)
    np.add.at(summed, group, normals)
    for g in np.flatnonzero(np.bincount(group) > 1):
        normal = summed[g] / np.linalg.norm(summed[g])
        union = np.flatnonzero(np.bincount(verts[group == g].ravel(), minlength=len(pts)))
        planes[g] = normal
        plane_offsets[g] = float(np.mean(pts[union] @ normal))

    incidence = np.empty((len(roots), len(pts)), dtype=bool)
    for start in range(0, len(roots), MERGE_BLOCK):
        block = slice(start, start + MERGE_BLOCK)
        dots = pts @ planes[block].T
        if np.any(np.max(dots, axis=0) > plane_offsets[block] + tol_plane):
            raise DegenerateHull("hull facet certificate failed")
        incidence[block] = (np.abs(dots - plane_offsets[block]) <= tol_plane).T
    # vertex-tuple order: one lexsort of the vertex lists padded with -1,
    # so that a tuple sorts before every longer tuple it begins
    rows, cols = np.nonzero(incidence)
    sizes = np.count_nonzero(incidence, axis=1)
    padded = np.full((len(sizes), sizes.max()), -1)
    padded[rows, np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes)] = cols
    order = np.lexsort(padded.T[::-1])
    incidence = incidence[order]
    if np.any(np.all(incidence[1:] == incidence[:-1], axis=1)):
        raise DegenerateHull("two facets have the same vertex set")
    return planes[order], plane_offsets[order], incidence


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
    return bool(np.min(poly.offsets) > tol_interior)


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
    dots = poly.normals @ v
    mask = dots > tol_interior
    t = np.full(dots.shape, np.inf)
    t[mask] = poly.offsets[mask] / dots[mask]
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
    for j, verts in enumerate(poly.vertices):
        cols = pts[list(verts)].T
        k = cols.shape[1]
        feasible = lp_feasible(
            A_eq=np.ones((1, k)), b_eq=np.array([1.0]),
            A_ineq=cols, b_ineq=np.zeros(cols.shape[0]),
            nonneg_vars=True)
        if feasible:
            selected.append(j)
    vertex_union = sorted({v for j in selected for v in poly.vertices[j]})

    away_from_origin = all(abs(poly.offsets[j]) > tol_interior for j in selected)
    nonneg = bool(selected) and away_from_origin and all(
        lp_feasible(A_eq=pts.T, b_eq=e_k, nonneg_vars=True)
        for e_k in np.eye(poly.frame.n))
    return PositiveFacetReport(tuple(selected), tuple(int(v) for v in vertex_union), nonneg)
