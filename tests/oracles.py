"""Independent oracles the test suite checks the library against.

Everything here is deliberately brute force: closed-form characteristic
polynomials, shifted power iterations, exhaustive supporting-hyperplane
scans, dense angular sweeps and rejection sampling. Nothing shares code
with the library paths it validates.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from relucert.errors import DegenerateHull, FrameMismatch, ReconstructionFailed
from relucert.layer import VERIFY_TOL
from relucert.pbe import DOMAIN_BALL


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


def reconstruct_rowwise(bank, layer, z, verify_tol: float = VERIFY_TOL) -> np.ndarray:
    """The former one-row `layer.reconstruct` (with `facet_reconstruction`
    inlined), kept as the reference for `reconstruct_batch`: it ranks every
    facet for the one output z and verifies candidates in that order.

    Looks for a facet whose vertex set lies inside the strictly positive
    output pattern first; if none does (boundary equalities zero some active
    coefficients), every other facet is a fallback candidate, since its
    remaining vertices all carry zero outputs. Every candidate is verified by
    mapping it forward before it is accepted; if no candidate survives, the
    output is not in the certified image and ReconstructionFailed is raised.
    """
    if layer.domain != DOMAIN_BALL:
        raise ValueError("reconstruction is defined for layers on the ball domain")
    if bank.frame_fingerprint != layer.frame.fingerprint():
        raise FrameMismatch("dual bank was built for a different frame")
    if not np.array_equal(bank.bias, layer.bias):
        raise FrameMismatch("dual bank was built for a different bias")
    zv = np.asarray(z, dtype=float)
    positive = zv > 0.0
    overlap = (bank.poly.incidence & positive).sum(axis=1)
    sizes = bank.poly.incidence.sum(axis=1)
    outside = overlap < sizes  # facets not fully in the strict-positive pattern
    order = np.lexsort((np.arange(len(sizes)), -overlap, outside))
    for j in order:
        idx = list(bank.poly.vertices[j])
        candidate = bank.duals[j] @ (zv[idx] + bank.bias[idx])
        check = np.maximum(layer.frame.elements @ candidate - layer.bias, 0.0)
        if float(np.max(np.abs(check - zv))) <= verify_tol:
            return candidate
    raise ReconstructionFailed("no facet left-inverse reproduces the given output")


def reconstruct_rows(bank, layer, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`reconstruct_rowwise` over the rows of zs: (X with NaN rows, failed mask)."""
    xs = np.full((zs.shape[0], layer.frame.n), np.nan)
    failed = np.zeros(zs.shape[0], dtype=bool)
    for i, z in enumerate(zs):
        try:
            xs[i] = reconstruct_rowwise(bank, layer, z)
        except ReconstructionFailed:
            failed[i] = True
    return xs, failed
