"""Independent oracles the test suite checks the library against.

Everything here is deliberately brute force: closed-form characteristic
polynomials, shifted power iterations, exhaustive supporting-hyperplane
scans, exact vertex enumeration in fractions, dense angular sweeps and
rejection sampling. Nothing shares code
with the library paths it validates, except `quickhull_furthest`: the
former hull, kept to check the new one bit for bit, shares its seed simplex
and its plane routine; and `full_scan_estimate`, the bias estimate with no
program pruned, which solves every program with the library's solver so
that the pruned estimate can be checked against it bit for bit.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from relucert import hull
from relucert.errors import DegenerateHull, NotAFrame, NotConverged, ParseError
from relucert.fixtures import random_sphere
from relucert.frames import operator_bounds
from relucert.layer import VERIFY_TOL
from relucert.pbe import DOMAIN_BALL
from relucert.polytope import PositiveFacetReport
from relucert.solvers import TOL_SOLVER, lp_feasible, min_linear_capped_cones


def eig_closed_form(s: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 1x1/2x2/3x3 symmetric matrix from the characteristic
    polynomial (trigonometric solution for the cubic), ascending."""
    n = s.shape[0]
    if n == 1:
        return np.array([float(s[0, 0])])
    if n == 2:
        a, b, c = float(s[0, 0]), float(s[0, 1]), float(s[1, 1])
        mid = 0.5 * (a + c)
        h = np.sqrt((0.5 * (a - c)) ** 2 + b * b)
        return np.array([mid - h, mid + h])
    if n == 3:
        q = float(np.trace(s)) / 3.0
        p1 = s[0, 1] ** 2 + s[0, 2] ** 2 + s[1, 2] ** 2
        p2 = (s[0, 0] - q) ** 2 + (s[1, 1] - q) ** 2 + (s[2, 2] - q) ** 2 + 2.0 * p1
        if p2 <= 0.0:
            return np.array([q, q, q])
        p = np.sqrt(p2 / 6.0)
        b = (s - q * np.eye(3)) / p
        r = _det3(b) / 2.0
        r = min(1.0, max(-1.0, r))
        phi = np.arccos(r) / 3.0
        top = q + 2.0 * p * np.cos(phi)
        bot = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
        return np.array([bot, 3.0 * q - top - bot, top])
    raise ValueError("closed forms cover n <= 3 only")


def _det3(a: np.ndarray) -> float:
    return float(
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


def eig_power_extremes(s: np.ndarray, iters: int = 8000, seed: int = 0) -> tuple[float, float]:
    """(smallest, largest) eigenvalue by shifted power iterations.

    A Gershgorin shift makes the iterated matrix positive semidefinite, so
    the magnitude-dominant eigenvalue is the algebraic extreme we want.
    """
    n = s.shape[0]
    rng = np.random.default_rng(seed)
    shift = float(np.max(np.sum(np.abs(s), axis=1))) + 1.0

    def top(mat):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        for _ in range(iters):
            w = mat @ v
            nw = np.linalg.norm(w)
            if nw == 0.0:
                return 0.0
            v = w / nw
        return float(v @ mat @ v)

    lmax = top(s + shift * np.eye(n)) - shift
    lmin = shift - top(shift * np.eye(n) - s)
    return lmin, lmax


def hull_facets(points: np.ndarray, tol: float = 1e-9):
    """Exhaustive supporting-hyperplane facet scan for n = 2 or n = 3.

    Every n-subset of points defines a candidate hyperplane; it supports the
    hull iff all points sit on one side. The facet vertex set is every point
    on the plane. Returns a sorted list of (vertex tuple, outward unit
    normal, offset).
    """
    m, n = points.shape
    if n not in (2, 3):
        raise ValueError("oracle covers n = 2 and n = 3 only")
    found: dict[tuple[int, ...], tuple[np.ndarray, float]] = {}
    for combo in combinations(range(m), n):
        sub = points[list(combo)]
        if n == 2:
            d = sub[1] - sub[0]
            normal = np.array([d[1], -d[0]])
        else:
            normal = np.cross(sub[1] - sub[0], sub[2] - sub[0])
        norm = float(np.linalg.norm(normal))
        if norm <= 1e-12:
            continue
        normal = normal / norm
        offset = float(np.mean(sub @ normal))
        dots = points @ normal
        if np.max(dots) <= offset + tol:
            pass
        elif np.min(dots) >= offset - tol:
            normal, offset, dots = -normal, -offset, -dots
        else:
            continue
        verts = tuple(int(i) for i in np.nonzero(np.abs(dots - offset) <= tol)[0])
        found[verts] = (normal, offset)
    return sorted((v, nrm, off) for v, (nrm, off) in found.items())


def _sorted_ridges_lexsort(verts: np.ndarray):
    """The ridges of the simplices `verts` (F, n), sorted vertex indices, in
    one `np.lexsort` over their n - 1 columns: (ridges, order, same), with
    `ridges` (F*n, n-1) in slot order (slot f*n + k is simplex f without its
    vertex k), `order` the slots in ridge order and `same[i]` whether the
    ridges in slots order[i] and order[i + 1] are equal."""
    count, n = verts.shape
    ridges = verts[:, hull._opposite(n)].reshape(count * n, n - 1)
    order = np.lexsort(ridges.T[::-1])
    ranked = ridges[order]
    return ridges, order, (ranked[1:] == ranked[:-1]).all(axis=1)


def quickhull_furthest(points: np.ndarray, tol: float = hull.TOL_PLANE):
    """The former `hull.quickhull`, furthest-point quickhull with one apex
    per step, as the reference for the round-based hull: same contract,
    same seed simplex and same `hull.make_planes`, so on general-position
    points the two give bit-identical simplices, normals and offsets.

    Each step pops a facet with a non-empty outside set and takes its
    furthest point as the apex. The facets the apex is above, and the popped
    facet, are the candidates; those connected to the popped facet through
    shared ridges are the visible set, and their ridges that no other
    candidate shares the horizon. Each horizon ridge and the apex make a new
    facet, and the visible facets' outside points are reassigned to the new
    facets.
    """
    pts = np.asarray(points, dtype=float)
    m, n = pts.shape
    if n == 1:
        return hull._hull_1d(pts)
    chosen, q = hull._affine_basis(pts, tol)
    if len(chosen) == n:
        normal = hull._null_direction(q)
        return hull._flat(normal, float(np.mean(pts @ normal)))
    if len(chosen) < n:
        raise DegenerateHull(
            f"points affinely span dimension {len(chosen) - 1} < {n - 1}")

    interior = pts[chosen].mean(axis=0)
    verts = np.sort(np.array(chosen)[hull._opposite(n + 1)], axis=1)
    normals, offsets = hull.make_planes(pts, verts, interior)
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

        hit = alive[:count] & (normals[:count] @ pts[apex] - offsets[:count] > tol)
        hit[f] = True
        cand = hit.nonzero()[0]
        ridges, order, same = _sorted_ridges_lexsort(verts[cand])
        a, b = order[:-1][same] // n, order[1:][same] // n
        src, dst = np.concatenate([a, b]), np.concatenate([b, a])
        comp = cand == f
        while True:
            reached = dst[comp[src]]
            if comp[reached].all():
                break
            comp[reached] = True
        unpaired = np.concatenate([[True], ~same, [True]])
        slots = np.sort(order[unpaired[:-1] & unpaired[1:]])
        slots = slots[comp[slots // n]]
        lead = cand[slots // n] == f
        ridge = ridges[np.concatenate([slots[lead], slots[~lead]])]
        visible = cand[comp]

        k = len(ridge)
        new_verts = np.sort(np.concatenate([ridge, np.full((k, 1), apex)], axis=1), axis=1)
        new_normals, new_offsets = hull.make_planes(pts, new_verts, interior)
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


def fuzz_frame(kind, n, rng):
    """Weight rows of one fuzz kind: random, near-duplicate, coplanar or
    jittered cross-polytope, drawn from `rng`."""
    base = rng.standard_normal((int(rng.integers(n + 1, 4 * n + 4)), n))
    if kind == "near-duplicate":
        # copies of some rows moved by 1e-9 to 1e-4: above TOL_DISTINCT after
        # normalization, except in rare draws that must raise ValueError
        twins = base[:n] + 10.0 ** rng.uniform(-9, -4) * rng.standard_normal((n, n))
        return np.vstack([base, twins])
    if kind == "coplanar":
        # points on one cap boundary {x : <u, x> = c} of the sphere: 2n of
        # them, or for n = 2 the two points where the line meets the circle
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        c = rng.uniform(0.3, 0.9)
        if n == 2:
            tangent = np.outer([1.0, -1.0], rng.standard_normal(n))
        else:
            tangent = rng.standard_normal((2 * n, n))
        tangent -= np.outer(tangent @ u, u)
        tangent /= np.linalg.norm(tangent, axis=1)[:, None]
        return np.vstack([base, c * u + np.sqrt(1.0 - c * c) * tangent])
    if kind == "cross-polytope":
        cross = np.vstack([np.eye(n), -np.eye(n)])
        return cross + 10.0 ** rng.uniform(-13, -3) * rng.standard_normal(cross.shape)
    return base


def svd_planes(pts: np.ndarray, verts: np.ndarray, interior: np.ndarray):
    """The former stacked-SVD `hull.make_planes`, as the reference for the
    QR one: (normals, offsets, volumes) of the simplices `pts[verts[i]]`,
    normals pointing away from `interior`. A normal is the last
    right-singular vector of the (n-1) x n difference matrix, and the volume
    is the product of its singular values."""
    sub = pts[verts]
    _, sing, vt = np.linalg.svd(sub[:, 1:] - sub[:, :1])
    normals = vt[:, -1]
    side = normals @ interior - np.einsum("kj,kj->k", normals, sub[:, 0])
    normals[side > 0] *= -1.0
    return normals, np.mean(np.einsum("kvj,kj->kv", sub, normals), axis=1), np.prod(sing, axis=1)


def merge_coplanar_scan(raw, pts: np.ndarray, tol_plane: float, tol_merge: float = 1e-9):
    """Group simplicial facets sharing a hyperplane, then pull in every point
    on that hyperplane (a facet owns all elements on its supporting plane).

    The greedy scan the library used before its ridge-graph merge: every
    simplex is compared with the first member of every group found so far,
    whether or not they are adjacent.
    """
    groups: list[dict] = []
    for verts, normal, offset in raw:
        for g in groups:
            if (np.max(np.abs(normal - g["normal"])) <= tol_merge
                    and abs(offset - g["offset"]) <= tol_merge):
                g["members"].append((verts, normal, offset))
                break
        else:
            groups.append({"normal": normal, "offset": offset,
                           "members": [(verts, normal, offset)]})
    merged = []
    for g in groups:
        members = g["members"]
        if len(members) == 1:
            normal, offset = g["normal"], g["offset"]
        else:
            normal = np.sum([mm[1] for mm in members], axis=0)
            normal = normal / np.linalg.norm(normal)
            union = sorted({v for mm in members for v in mm[0]})
            offset = float(np.mean(pts[union] @ normal))
        on_plane = np.nonzero(np.abs(pts @ normal - offset) <= tol_plane)[0]
        merged.append((tuple(int(v) for v in on_plane), normal, float(offset)))
    merged.sort(key=lambda item: item[0])
    return merged


def ridge_pairs_dict(raw):
    """The two simplices (indices into `raw`) on each ridge, as index arrays
    (a, b). A ridge is a simplex's sorted vertex tuple minus one vertex;
    raises DegenerateHull unless every ridge has exactly two owners.

    The dict ridge map the library used before its sort-based pairing."""
    owners: dict = {}
    for j, (verts, _, _) in enumerate(raw):
        for k in range(len(verts)):
            owners.setdefault(verts[:k] + verts[k + 1:], []).append(j)
    if any(len(pair) != 2 for pair in owners.values()):
        raise DegenerateHull("hull is not closed: a ridge does not have exactly two facets")
    pairs = np.array(list(owners.values()))
    return pairs[:, 0], pairs[:, 1]


def qhull_facets(points: np.ndarray, tol: float = 1e-9):
    """Facet vertex sets from scipy's Qhull (test-only dependency): each
    simplex's hyperplane equation is extended to every point within `tol`
    of it, and simplices whose equations agree give the same set. Returns
    the sorted distinct vertex tuples."""
    from scipy.spatial import ConvexHull

    eqs = ConvexHull(points).equations
    on = np.abs(points @ eqs[:, :-1].T + eqs[:, -1]) <= tol
    return sorted({tuple(int(i) for i in np.nonzero(col)[0]) for col in on.T})

def render_recursive(value) -> str:
    """The report writer as it was before its typed list paths: one
    recursive call per value, floats through `format(x, ".17g")`."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x) or math.isinf(x):
            raise ValueError("non-finite float reached the report writer")
        return format(0.0 if x == 0.0 else x, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {render_recursive(v)}"
                          for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(render_recursive(v) for v in value) + "]"
    raise TypeError(f"cannot render {type(value).__name__} into a report")


def with_slacks(a_eq, b_eq, a_ge, b_ge):
    """{x >= 0 : a_eq x = b_eq, a_ge x >= b_ge} as `lp_feasible`'s standard
    form (A, b) over (x, s), s >= 0 the slacks: A = [[a_eq, 0], [a_ge, -I]]."""
    a_eq, a_ge = np.atleast_2d(a_eq), np.atleast_2d(a_ge)
    zeros = np.zeros((a_eq.shape[0], a_ge.shape[0]))
    return (np.vstack([np.hstack([a_eq, zeros]), np.hstack([a_ge, -np.eye(a_ge.shape[0])])]),
            np.concatenate([np.ravel(b_eq), np.ravel(b_ge)]).astype(float))


def positive_facets_lp(poly, tol_interior: float = 1e-9) -> PositiveFacetReport:
    """`positive_facets` with one phase-1 LP per facet, as the library
    selected facets before its vertex tests: facet j is selected iff
    {c >= 0, sum c = 1, D c >= 0} is feasible, D its vertices as columns."""
    pts = poly.frame.elements
    selected = []
    for j, verts in enumerate(poly.vertices):
        cols = pts[list(verts)].T
        if lp_feasible(*with_slacks(np.ones(cols.shape[1]), [1.0], cols, np.zeros(cols.shape[0]))):
            selected.append(j)
    vertex_union = sorted({v for j in selected for v in poly.vertices[j]})

    away_from_origin = all(abs(poly.offsets[j]) > tol_interior for j in selected)
    nonneg = bool(selected) and away_from_origin and all(
        lp_feasible(pts.T, e_k) for e_k in np.eye(poly.frame.n))
    return PositiveFacetReport(tuple(selected), tuple(int(v) for v in vertex_union), nonneg)


def orthant_margin_bounds(cols: np.ndarray) -> tuple[float, float]:
    """Bounds (low, high) on t* = max {t : D c >= t, c >= 0, sum c = 1},
    D = `cols`, the largest smallest coordinate over the convex hull of the
    columns, from scipy's HiGHS (test-only dependency). Both are evaluated
    in the data, not read off the solver: low = min(D c) at its primal c,
    and high = max(D^T y) at its dual y, both scaled onto the simplex. For
    every such c and y, min(D c) <= y^T D c <= max(D^T y), so
    low <= t* <= high whatever the solver's tolerances did."""
    from scipy.optimize import linprog

    n, k = cols.shape
    res = linprog(np.r_[np.zeros(k), -1.0], A_ub=np.hstack([-cols, np.ones((n, 1))]),
                  b_ub=np.zeros(n), A_eq=np.r_[np.ones(k), 0.0][None], b_eq=[1.0],
                  bounds=[(0.0, None)] * k + [(None, None)], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise AssertionError(res.message)
    c = np.maximum(res.x[:k], 0.0)
    y = np.abs(res.ineqlin.marginals)
    return float(np.min(cols @ (c / c.sum()))), float(np.max(cols.T @ (y / y.sum())))


def snapped(n: int, seed: int) -> np.ndarray:
    """`random_sphere(n, 30, seed)` with about a fifth of its entries set to
    0, +-1e-12, -5e-10 or -3e-9: frames with vertices on, and within the
    LP tolerance of, the orthant's boundary."""
    rng = np.random.default_rng(seed)
    p = random_sphere(n, 30, seed)
    mask = rng.random(p.shape) < 0.2
    p[mask] = rng.choice([0.0, -1e-12, 1e-12, -5e-10, -3e-9], size=int(mask.sum()))
    return p


def arc_sweep_min(d_cols: np.ndarray, c: np.ndarray, samples: int = 1_000_000) -> float:
    """Capped-cone oracle in the plane: dense sweep of the unit arc between
    the two generators, capped below by the apex value 0."""
    v1, v2 = d_cols[:, 0], d_cols[:, 1]
    w = np.linalg.solve(d_cols.T, c)  # value(y) = <w, y> on the arc
    a1 = np.arctan2(v1[1], v1[0])
    a2 = np.arctan2(v2[1], v2[0])
    delta = (a2 - a1 + np.pi) % (2.0 * np.pi) - np.pi
    theta = a1 + np.linspace(0.0, 1.0, samples) * delta
    vals = np.cos(theta) * w[0] + np.sin(theta) * w[1]
    return min(0.0, float(np.min(vals)))


def cone_sample_min(d_cols: np.ndarray, c: np.ndarray, samples: int = 10_000,
                    seed: int = 0) -> float:
    """Sampling upper bound on the capped-cone minimum.

    Rays through the cone scaled onto the cap: the generators themselves,
    dense sweeps along every two-generator edge (where constrained minima
    live), and random interior directions for the rest of the budget.
    """
    rng = np.random.default_rng(seed)
    k = d_cols.shape[1]
    parts = [np.eye(k)]
    pairs = list(combinations(range(k), 2))
    per_edge = max(2, (samples // 2) // max(1, len(pairs)))
    for i, j in pairs:
        t = np.linspace(0.0, 1.0, per_edge)
        w = np.zeros((per_edge, k))
        w[:, i] = 1.0 - t
        w[:, j] = t
        parts.append(w)
    used = sum(len(p) for p in parts)
    if used < samples:
        budget = samples - used
        if k == 3:
            # regular barycentric lattice: bounded worst-case gap
            t = int(np.sqrt(2.0 * budget)) + 1
            grid = [(i / t, j / t, (t - i - j) / t)
                    for i in range(t + 1) for j in range(t + 1 - i)]
            parts.append(np.array(grid))
        else:
            parts.append(rng.dirichlet(np.ones(k), size=budget))
    weights = np.vstack(parts)
    norms = np.linalg.norm(weights @ d_cols.T, axis=1)
    keep = norms > 1e-12
    vals = (weights[keep] @ c) / norms[keep]
    return min(0.0, float(np.min(vals)))


def ray_exit_facets(points: np.ndarray, facets, x: np.ndarray, tol: float = 1e-9) -> set[int]:
    """All facets whose convex hull the ray through x exits: brute membership
    of the first hyperplane hit, decided by non-negative least squares on the
    convex-combination system."""
    x = np.asarray(x, dtype=float)
    hits = []
    for j, (verts, normal, offset) in enumerate(facets):
        dot = float(normal @ x)
        if dot <= 1e-12:
            continue
        t = offset / dot
        exit_point = t * x
        if _in_convex_hull(points[list(verts)], exit_point, tol):
            hits.append((t, j))
    if not hits:
        return set()
    tmin = min(t for t, _ in hits)
    return {j for t, j in hits if t <= tmin + 1e-9}


def _in_convex_hull(vertices: np.ndarray, point: np.ndarray, tol: float) -> bool:
    """Membership via the affine-combination system (exact for simplicial
    vertex sets): weights solving [V^T; 1] w = [p; 1] must be non-negative."""
    k = vertices.shape[0]
    if k == 1:
        return bool(np.linalg.norm(vertices[0] - point) <= 1e-8)
    system = np.vstack([vertices.T, np.ones(k)])
    rhs = np.concatenate([point, [1.0]])
    sol, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    if np.min(sol) < -1e-8:
        return False
    return bool(np.linalg.norm(system @ sol - rhs) <= 1e-8)


def edge_meets_quadrant(p1: np.ndarray, p2: np.ndarray, samples: int = 100_001) -> bool:
    """Dense parameter sweep over a segment against the closed first quadrant."""
    ts = np.linspace(0.0, 1.0, samples)
    pts = np.outer(1.0 - ts, p1) + np.outer(ts, p2)
    return bool(np.any(np.all(pts >= -1e-12, axis=1)))


def quadrant_covered_by_cones_2d(generators: list[np.ndarray], samples: int = 100_001) -> bool:
    """Angular sweep of the closed first quadrant against 2-generator cones."""
    theta = np.linspace(0.0, np.pi / 2.0, samples)
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    covered = np.zeros(samples, dtype=bool)
    for cols in generators:
        coeff = np.linalg.solve(cols, dirs.T)
        covered |= np.all(coeff >= -1e-9, axis=0)
    return bool(covered.all())


def octant_grid(n: int, count: int = 10_000) -> np.ndarray:
    """Deterministic covering grid of unit directions in the closed positive
    orthant: uniform angles for n = 2, a Kronecker low-discrepancy lattice
    pushed to the unit cube boundary and normalized for n >= 3."""
    if n == 1:
        return np.array([[1.0]])
    if n == 2:
        theta = np.linspace(0.0, np.pi / 2.0, count)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (n + 1))
    alpha = phi ** -(np.arange(1, n + 1, dtype=float))
    k = np.arange(1, count + 1, dtype=float)
    p = np.mod(0.5 + np.outer(k, alpha), 1.0)
    p = np.maximum(p, 1e-12)
    q = p / np.max(p, axis=1)[:, None]
    return q / np.linalg.norm(q, axis=1)[:, None]


def in_cone(cols: np.ndarray, directions: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Membership of each direction in the conical hull of the columns.

    Caratheodory: a direction lies in the cone iff it is a non-negative
    combination of some linearly independent columns, and any such set
    extends to rank(cols) independent columns with zero weights. So every
    rank-sized column subset is tried: the subset's least-squares
    coefficients must be non-negative and reproduce the direction.
    """
    rank = int(np.linalg.matrix_rank(cols))
    subsets = np.array(list(combinations(range(cols.shape[1]), rank)))
    blocks = np.transpose(cols[:, subsets], (1, 0, 2))  # (subsets, n, rank)
    blocks = blocks[np.linalg.matrix_rank(blocks) == rank]
    coeff = np.linalg.pinv(blocks) @ directions.T  # (subsets, rank, count)
    resid = np.linalg.norm(blocks @ coeff - directions.T, axis=1)
    hit = (resid <= tol) & np.all(coeff >= -tol, axis=1)
    return hit.any(axis=0)


def orthant_grid_covered(cones: list[np.ndarray], n: int, count: int = 10_000) -> bool:
    """Sampled coverage: every octant_grid direction lies in one of the cones
    (each given by its generators as columns)."""
    grid = octant_grid(n, count)
    covered = np.zeros(grid.shape[0], dtype=bool)
    for cols in cones:
        covered |= in_cone(cols, grid)
    return bool(covered.all())


def facet_cone_instances(n: int, count: int, seed: int, m: int = 20):
    """Capped-cone problems exactly as the bias estimation poses them:
    facet vertex columns of random omnidirectional frames, objective taken
    from one facet vertex, kept only when it has a negative entry."""
    import relucert as rc

    out = []
    draw = seed
    while len(out) < count:
        draw += 1
        pts = rc.random_sphere(n, m, draw)
        frame, _, _ = rc.normalize(pts)
        poly = rc.build_polytope(frame)
        if not rc.is_omnidirectional(poly):
            continue
        for verts in poly.vertices:
            idx = list(verts)
            cols = frame.elements[idx].T
            for i in idx:
                c = cols.T @ frame.elements[i]
                if np.min(c) < 0.0:
                    out.append((cols, c))
                    if len(out) >= count:
                        return out
    return out


def lawson_hanson_scalar(gram: np.ndarray, c: np.ndarray, tol: float = 1e-9,
                         tol_enter: float = 1e-14):
    """One capped-cone program by the former scalar Lawson-Hanson loop:
    one Python iteration per active-set step, one `np.linalg.solve` on the
    compacted passive block per step.

    Returns (value, argmin, residual, steps, walks), where `walks` counts
    the blocking walks; raises NotConverged as the library does.
    """
    k = c.shape[0]
    d = np.zeros(k)
    passive = np.zeros(k, dtype=bool)  # generators free to move; d > 0 there
    steps = walks = 0
    descent = -c  # -(c + G d): positive entries lower the objective
    while steps <= 3 * k:
        free = np.nonzero(~passive & (descent > tol_enter))[0]
        if free.size == 0:
            break
        j = free[np.argmax(descent[free])]
        passive[j] = True
        s = _passive_solve(gram, c, passive)
        steps += 1
        if s[j] <= 0.0:
            passive[j] = False
            break
        while (s[passive] <= 0.0).any():
            # walk from d towards s until the first blocking weight hits zero
            blocking = np.nonzero(passive & (s <= 0.0))[0]
            ratio = d[blocking] / (d[blocking] - s[blocking])
            d = d + float(np.min(ratio)) * (s - d)
            passive[blocking[np.argmin(ratio)]] = False
            passive &= d > 0.0
            d[~passive] = 0.0
            s = _passive_solve(gram, c, passive)
            steps += 1
            walks += 1
        d = s
        descent = -(c + gram @ d)

    residual = max(0.0, float(np.max(descent)))
    if steps > 3 * k or residual > tol:
        raise NotConverged(steps, residual)
    norm = float(np.sqrt(max(float(d @ gram @ d), 0.0)))
    if norm == 0.0:
        return 0.0, np.zeros(k), residual, steps, walks
    return -norm, d / norm, residual, steps, walks


def _passive_solve(gram: np.ndarray, c: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Unconstrained minimizer over the passive generators, zero elsewhere."""
    s = np.zeros(c.shape[0])
    s[passive] = np.linalg.solve(gram[np.ix_(passive, passive)], -c[passive])
    return s


def facet_groups(poly, facet_indices):
    """`polytope.facet_groups` from the incidence rows, one facet at a time:
    per facet size k, ascending, the indices of the facets in
    `facet_indices` with k vertices and their vertex indices as (F_k, k)
    rows."""
    by_size = {}
    for j in facet_indices:
        verts = np.flatnonzero(poly.incidence[j])
        by_size.setdefault(len(verts), []).append((j, verts))
    return [(np.array([j for j, _ in group]), np.array([verts for _, verts in group]))
            for _, group in sorted(by_size.items())]


def full_scan_estimate(frame, poly, facet_indices, tol: float = TOL_SOLVER):
    """The bias estimate with no program pruned: every (facet, element)
    program of the elements with alpha_X < 0, one facet at a time, by
    `min_linear_capped_cones`, each result value - residual / |offset|,
    minima per element. G and c are formed as stacked products, as the
    library forms them. Returns (alpha_X, alpha_S, alpha_B, programs):
    per program (facet position, element, G, c, result, failed, bound),
    bound the lemma's lower bound (min(0, g) - max(tol, 0)) / |offset|,
    g the element's smallest correlation with the facet's vertices."""
    pts = frame.elements
    gram = pts @ pts.T
    facets = [np.flatnonzero(poly.incidence[j]) for j in facet_indices]
    alpha_x = np.full(frame.m, np.inf)
    for verts in facets:
        for i in verts:
            alpha_x[i] = min(alpha_x[i], gram[i, verts].min())
    alpha_b = np.where((alpha_x < 0.0) | np.isinf(alpha_x), np.inf, 0.0)
    programs = []
    for pos, (j, verts) in enumerate(zip(facet_indices, facets)):
        elements = [i for i in verts if alpha_x[i] < 0.0]
        if not elements:
            continue
        vx = pts[verts][None]
        G = np.repeat(vx @ vx.swapaxes(1, 2), len(elements), axis=0)
        c = (np.repeat(vx, len(elements), axis=0) @ pts[elements][:, :, None])[:, :, 0]
        values, _, residuals, _, failed = min_linear_capped_cones(G, c, tol)
        offset = abs(poly.offsets[j])
        for p, i in enumerate(elements):
            result = values[p] - residuals[p] / offset
            alpha_b[i] = min(alpha_b[i], result)
            bound = (min(0.0, gram[i, verts].min()) - max(tol, 0.0)) / offset
            programs.append((pos, int(i), G[p], c[p], result, bool(failed[p]), bound))
    alpha_s = np.where(alpha_x < 0.0, alpha_b, np.nan)
    return alpha_x, alpha_s, alpha_b, programs


def cube(n: int) -> np.ndarray:
    """The 2^n corners of the n-cube, (+-1, ..., +-1)."""
    return np.array(list(product([-1.0, 1.0], repeat=n)))


def cell24() -> np.ndarray:
    """The 24-cell's vertices: every permutation of (+-1, +-1, 0, 0)."""
    rows = []
    for i, j in combinations(range(4), 2):
        for si, sj in product((1.0, -1.0), repeat=2):
            v = np.zeros(4)
            v[i], v[j] = si, sj
            rows.append(v)
    return np.array(rows)


def ternary(n: int, m: int, seed: int) -> np.ndarray:
    """m distinct non-zero rows of {-1, 0, 1}^n, as in a quantized layer."""
    grid = np.array(list(product([-1.0, 0.0, 1.0], repeat=n)))
    grid = grid[np.any(grid != 0.0, axis=1)]
    pick = np.random.default_rng(seed).choice(len(grid), size=m, replace=False)
    return grid[np.sort(pick)]


def sample_ball(rng: np.random.Generator, n: int, count: int, radius: float = 1.0) -> np.ndarray:
    """Uniform samples from the n-ball of the given radius."""
    x = rng.standard_normal((count, n))
    x /= np.linalg.norm(x, axis=1)[:, None]
    r = radius * rng.uniform(size=count) ** (1.0 / n)
    return x * r[:, None]


def sample_ball_positive(rng: np.random.Generator, n: int, count: int,
                         radius: float = 1.0) -> np.ndarray:
    """Uniform samples from the non-negative part of the n-ball."""
    return np.abs(sample_ball(rng, n, count, radius))


def facet_dual(frame, idx) -> np.ndarray:
    """Canonical dual synthesis matrix S^-1 V^T of the sub-frame V = the rows
    idx, S = V^T V: for every x, facet_dual(frame, idx) @ (V x) == x. Raises
    NotAFrame where S fails the rank rule of `frames.spanning`."""
    sub = frame.elements[list(idx)]
    op = sub.T @ sub
    operator_bounds(op)
    return np.linalg.solve(op, sub.T)


def preimage_vertices(layer, z) -> list[tuple[Fraction, ...]]:
    """The vertices of the preimage set Q = {x : max(0, <x, x_i> - b_i) = z_i
    for every i} of one output z, exactly: every entry of the frame, the bias
    and z is read as the Fraction of its float. With P the strictly positive
    pattern, Q is {<x, x_i> = z_i + b_i for i in P, <x, x_j> <= b_j
    otherwise} if no entry of z is negative, else empty. Each vertex solves
    a basis of the equalities and n - rank of the inequalities taken as
    equalities; every combination is solved (C(m, n) at most: meant for
    n <= 3) and kept if it lies in Q. Where the frame positively spans R^n,
    as a certified layer's does, Q is bounded: it is one point iff it has
    one vertex, and empty iff it has none.
    """
    elements = [[Fraction(v) for v in row] for row in layer.frame.elements.tolist()]
    bias = [Fraction(v) for v in layer.bias.tolist()]
    zf = [Fraction(v) for v in np.asarray(z, dtype=float).tolist()]
    if min(zf) < 0:
        return []
    equal = [i for i, v in enumerate(zf) if v > 0]
    level = [v + b for v, b in zip(zf, bias)]
    basis = []
    for i in equal:
        if _rank([elements[k] for k in basis + [i]]) > len(basis):
            basis.append(i)
    found = set()
    for extra in combinations([j for j, v in enumerate(zf) if v == 0],
                              layer.frame.n - len(basis)):
        rows = basis + list(extra)
        x = _solve_exact([elements[k] for k in rows], [level[k] for k in rows])
        if x is not None and is_preimage(layer, z, x):
            found.add(x)
    return sorted(found)


def is_preimage(layer, z, x) -> bool:
    """Whether max(0, <x, x_i> - b_i) == z_i for every i, exactly, for a
    point x of Fractions (or floats, read exactly)."""
    x = [Fraction(v) for v in x]
    for row, b, v in zip(layer.frame.elements.tolist(), layer.bias.tolist(),
                         np.asarray(z, dtype=float).tolist()):
        coeff = sum(Fraction(a) * c for a, c in zip(row, x)) - Fraction(b)
        if max(coeff, Fraction(0)) != Fraction(v):
            return False
    return True


def _pinned(layer, z, x) -> bool:
    """Whether the elements tight at a preimage x of z (Fractions), the
    strictly positive pattern and the elements with <x, x_j> == b_j
    exactly, pass `facet_dual`'s rank rule."""
    tight = [i for i, (row, b, v) in enumerate(zip(layer.frame.elements.tolist(),
                                                   layer.bias.tolist(), z.tolist()))
             if v > 0 or sum(Fraction(a) * c for a, c in zip(row, x)) == Fraction(b)]
    try:
        facet_dual(layer.frame, tight)
    except NotAFrame:
        return False
    return True


def _rank(rows) -> int:
    """Rank of a list of Fraction rows, by exact elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _solve_exact(rows, rhs):
    """The solution of the square Fraction system rows @ x = rhs, by
    Gauss-Jordan elimination, or None if it is singular."""
    a = [list(r) + [v] for r, v in zip(rows, rhs)]
    n = len(a)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [u - f * v for u, v in zip(a[r], a[col])]
    return tuple(a[r][n] / a[r][r] for r in range(n))


def two_preimages(layer, z, vertices, x=None):
    """Two distinct points of the preimage set of z, confirmed exactly by
    `is_preimage`, from its vertices (two or more). Given an input x inside
    the ball, both lie in the ball: p is a convex combination of the
    vertices fitted to x (scipy's NNLS; weights read exactly and scaled to
    sum 1), and q moves from p towards another vertex, by a step halved
    until q is in the ball too."""
    from scipy.optimize import nnls

    assert len(vertices) >= 2
    if x is None:
        p, q = vertices[:2]
    else:
        pts = np.array(vertices, dtype=float)
        fit = np.vstack([pts.T, np.ones(len(pts))])
        weights = [Fraction(w) for w in nnls(fit, np.append(x, 1.0))[0].tolist()]
        total = sum(weights)
        p = tuple(sum(w * v[k] for w, v in zip(weights, vertices)) / total
                  for k in range(len(x)))
        far = next(v for v in vertices if v != p)
        limit, step = Fraction(layer.radius) ** 2, Fraction(1)
        assert sum(c * c for c in p) < limit
        while True:
            q = tuple(a + step * (b - a) for a, b in zip(p, far))
            if sum(c * c for c in q) <= limit:
                break
            step /= 2
    assert p != q and is_preimage(layer, z, p) and is_preimage(layer, z, q)
    return p, q


def reconstruct_rows(layer, zs: np.ndarray, inputs=None) -> tuple[np.ndarray, np.ndarray]:
    """The preimage rule row by row, the reference for `reconstruct_batch`:
    (X with NaN rows, failed mask). A row settles iff its preimage set is
    one point. Nothing is read from the library but the layer.

    - A row whose strictly positive pattern passes `facet_dual`'s `eigvalsh`
      rank rule has at most one preimage, its canonical dual's solution, and
      settles iff that maps forward to z within VERIFY_TOL. It is decided in
      floats: more than n equalities read exactly are, in general, not
      consistent.
    - Any other row is decided exactly: it settles iff `preimage_vertices`
      finds one vertex and the elements tight at it (its pattern and the
      inequalities that hold with equality) pass the same rank rule, and X
      holds that vertex in floats. A vertex that only a rank-deficient set
      pins down, as the rows of two near-duplicate elements do, is a
      preimage no float solve resolves; the pattern stage leaves such
      patterns undecided too. For every row with two or more vertices
      `two_preimages` exhibits two distinct preimages, in the ball where
      `inputs` gives the row's input inside it.
    """
    if layer.domain != DOMAIN_BALL:
        raise ValueError("reconstruction is defined for layers on the ball domain")
    xs = np.full((zs.shape[0], layer.frame.n), np.nan)
    failed = np.ones(zs.shape[0], dtype=bool)
    elements, bias = layer.frame.elements, layer.bias
    for i, z in enumerate(zs):
        pattern = np.flatnonzero(z > 0.0)
        try:
            x = facet_dual(layer.frame, pattern) @ (z[pattern] + bias[pattern])
        except NotAFrame:
            vertices = preimage_vertices(layer, z)
            if len(vertices) == 1 and _pinned(layer, z, vertices[0]):
                xs[i], failed[i] = np.array(vertices[0], dtype=float), False
            elif len(vertices) > 1:
                x = None if inputs is None else inputs[i]
                inside = x is not None and np.linalg.norm(x) < layer.radius
                two_preimages(layer, z, vertices, x if inside else None)
            continue
        if np.max(np.abs(np.maximum(elements @ x - bias, 0.0) - z)) <= VERIFY_TOL:
            xs[i], failed[i] = x, False
    return xs, failed


def parse_matrix_per_line(lines, path: str = "<memory>") -> np.ndarray:
    """The former `io.parse_matrix`: each non-blank line parsed with
    `float()` on its own and checked against the first row's width, then
    one array of the rows, then the finiteness check."""
    rows = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = [float(f) for f in line.split(",")]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad numeric field: {exc}") from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    a = np.array(rows, dtype=float)
    if not np.isfinite(a).all():
        raise ParseError(f"{path}: non-finite entries")
    return a


def format_matrix_repr(a) -> str:
    """The former `io.format_matrix`: one `repr` per field."""
    rows = np.atleast_2d(np.asarray(a, dtype=float)).tolist()
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)
