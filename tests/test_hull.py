import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relucert as rc
from relucert import hull, polytope
from relucert import io as fio
from relucert.cli import main
from relucert.errors import (AtOrigin, DegenerateHull, NotNonnegOmnidirectional,
                             NotOmnidirectional, RelucertError)

import oracles
from conftest import random_omnidirectional


def facet_sets(poly):
    return sorted(poly.vertices)


def triples(verts, normals, offsets):
    """A facet table as the oracles take it: (vertex tuple, normal, offset) rows."""
    return [(tuple(int(i) for i in v), normal, float(offset))
            for v, normal, offset in zip(verts, normals, offsets)]


def latitude_circle(s=0.8, h=0.6):
    """Six points on the circle of radius s in the plane z = h."""
    theta = np.linspace(0.0, 2.0 * np.pi, 7)[:-1]
    return np.column_stack([s * np.cos(theta), s * np.sin(theta), np.full(6, h)])


def test_mercedes_triangle(mb):
    assert facet_sets(mb.poly) == [(0, 1), (0, 2), (1, 2)]
    assert mb.poly.full_dimensional
    assert np.allclose(mb.poly.offsets, 0.5, atol=1e-12)


def test_tetrahedron_four_triangles(tet):
    assert facet_sets(tet.poly) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_icosahedron_twenty_triangles(ico):
    assert ico.poly.num_facets == 20
    assert all(len(v) == 3 for v in ico.poly.vertices)
    # every vertex sits on exactly five facets
    assert np.array_equal(ico.poly.incidence.sum(axis=0), np.full(12, 5))


def test_standard_basis_single_flat_facet():
    frame, _, _ = rc.normalize(np.eye(3))
    poly = rc.build_polytope(frame)
    assert not poly.full_dimensional
    assert facet_sets(poly) == [(0, 1, 2)]
    assert np.allclose(poly.normals[0], np.ones(3) / np.sqrt(3.0), atol=1e-12)
    assert poly.offsets[0] == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)


def test_cube_merges_coplanar_triangles():
    corners = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                       dtype=float) / np.sqrt(3.0)
    frame, _, _ = rc.normalize(corners)
    poly = rc.build_polytope(frame)
    assert poly.num_facets == 6
    assert all(len(v) == 4 for v in poly.vertices)
    assert rc.is_omnidirectional(poly)


def test_cross_polytope_square():
    frame, _, _ = rc.normalize(np.array([[1.0, 0], [0, 1.0], [-1.0, 0], [0, -1.0]]))
    poly = rc.build_polytope(frame)
    assert poly.num_facets == 4
    assert all(len(v) == 2 for v in poly.vertices)


def test_degenerate_antipodal_pair():
    frame, _, _ = rc.normalize(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    with pytest.raises(DegenerateHull):
        rc.build_polytope(frame)


def test_flat_circle_off_origin_is_single_facet():
    # points on a latitude circle: affine span is the plane z = h, away from 0
    h = 0.6
    frame, _, _ = rc.normalize(latitude_circle(0.8, h))
    poly = rc.build_polytope(frame)
    assert not poly.full_dimensional
    assert poly.vertices[0] == tuple(range(6))
    assert poly.offsets[0] == pytest.approx(h, abs=1e-12)


def test_flat_great_circle_through_origin_degenerate():
    theta = np.linspace(0.0, 2.0 * np.pi, 7)[:-1]
    pts = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(6)])
    frame, _, _ = rc.normalize(pts)
    with pytest.raises(DegenerateHull):
        rc.build_polytope(frame)


def test_duplicate_points_rejected():
    frame = rc.UnitFrame(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        rc.build_polytope(frame)


def test_facet_certificates_random():
    rng = np.random.default_rng(41)
    weights = [rc.random_sphere(n, m, int(rng.integers(1 << 30)))
               for n, m in ((2, 30), (3, 25), (4, 18))]
    # the merged frames, and the flat and one-dimensional hulls
    weights += [SCAN_FRAMES[name] for name in sorted(SCAN_FRAMES)]
    weights += [np.eye(2), np.eye(3), latitude_circle(), np.array([[1.0], [-1.0]])]
    for w in weights:
        frame, _, _ = rc.normalize(w)
        poly = rc.build_polytope(frame)
        pts = frame.elements
        (m, n), count = pts.shape, poly.num_facets
        assert poly.normals.shape == (count, n)
        assert poly.offsets.shape == (count,)
        assert poly.incidence.shape == (count, m)
        for table in (poly.normals, poly.offsets, poly.incidence):
            assert not table.flags.writeable
        assert list(poly.vertices) == sorted(poly.vertices)
        for j, verts in enumerate(poly.vertices):
            assert verts == tuple(np.flatnonzero(poly.incidence[j]))
            normal, offset = poly.normals[j], poly.offsets[j]
            assert abs(np.linalg.norm(normal) - 1.0) <= 1e-12
            dots = pts @ normal
            on = np.abs(dots - offset) <= 1e-9
            assert set(np.nonzero(on)[0]) == set(verts)
            assert np.all(dots <= offset + 1e-9)
    # quickhull's simplex count, which the benchmark tracer reads as len(result[0])
    assert len(hull.quickhull(np.eye(3))[0]) == 0
    assert len(hull.quickhull(rc.tetrahedron())[0]) == 4


def test_hull_oracle_equivalence_2d():
    for m, seed in ((5, 1), (17, 2), (64, 3), (200, 4)):
        frame, _, _ = rc.normalize(rc.random_sphere(2, m, seed))
        poly = rc.build_polytope(frame)
        want = oracles.hull_facets(frame.elements)
        assert facet_sets(poly) == [v for v, _, _ in want]
        for j, (_, normal, offset) in enumerate(want):
            assert np.max(np.abs(poly.normals[j] - normal)) <= 1e-9
            assert abs(poly.offsets[j] - offset) <= 1e-9


def test_hull_oracle_equivalence_3d():
    for m, seed in ((6, 5), (10, 6), (14, 7)):
        frame, _, _ = rc.normalize(rc.random_sphere(3, m, seed))
        poly = rc.build_polytope(frame)
        want = oracles.hull_facets(frame.elements)
        assert facet_sets(poly) == [v for v, _, _ in want]


def test_hull_oracle_equivalence_merged_cube():
    corners = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                       dtype=float) / np.sqrt(3.0)
    frame, _, _ = rc.normalize(corners)
    poly = rc.build_polytope(frame)
    want = oracles.hull_facets(frame.elements)
    assert facet_sets(poly) == [v for v, _, _ in want]


def test_omnidirectional_examples(mb, tet):
    assert rc.is_omnidirectional(mb.poly)
    assert rc.is_omnidirectional(tet.poly)
    basis, _, _ = rc.normalize(np.eye(3))
    assert not rc.is_omnidirectional(rc.build_polytope(basis))


def test_not_omnidirectional_when_accumulated_on_one_side():
    # all elements in the open upper half plane
    theta = np.linspace(0.2, np.pi - 0.2, 8)
    frame, _, _ = rc.normalize(np.column_stack([np.cos(theta), np.sin(theta)]))
    poly = rc.build_polytope(frame)
    assert poly.full_dimensional
    assert not rc.is_omnidirectional(poly)
    with pytest.raises(NotOmnidirectional):
        rc.covering_facet(poly, [1.0, 0.0])


def test_covering_facet_examples(mb, tet):
    down = rc.covering_facet(mb.poly, [0.0, -1.0])
    assert mb.poly.vertices[down] == (1, 2)
    # ray through vertex 0: tie between its two edges, smallest index wins
    up = rc.covering_facet(mb.poly, [0.0, 0.5])
    assert up == 0
    assert 0 in mb.poly.vertices[up]
    opposite = rc.covering_facet(tet.poly, -tet.frame.elements[3])
    assert tet.poly.vertices[opposite] == (0, 1, 2)


def test_covering_facet_matches_ray_oracle(mb, tet, ico):
    rng = np.random.default_rng(42)
    for setup in (mb, tet, ico):
        poly = setup.poly
        facets = triples(poly.vertices, poly.normals, poly.offsets)
        for _ in range(50):
            x = rng.standard_normal(setup.frame.n)
            j = rc.covering_facet(setup.poly, x)
            allowed = oracles.ray_exit_facets(setup.frame.elements, facets, x)
            assert j in allowed


def test_covering_facet_exit_point_on_facet():
    rng = np.random.default_rng(43)
    pts = random_omnidirectional(3, 20, 77)
    frame, _, _ = rc.normalize(pts)
    poly = rc.build_polytope(frame)
    for _ in range(10_000):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        j = rc.covering_facet(poly, x)
        normal, offset = poly.normals[j], poly.offsets[j]
        t = offset / float(normal @ x)
        exit_point = t * x
        # on the plane, and inside the polytope
        assert abs(normal @ exit_point - offset) <= 1e-9
        assert np.all(poly.normals @ exit_point <= poly.offsets + 1e-9)


def test_covering_facet_at_origin(mb):
    with pytest.raises(AtOrigin):
        rc.covering_facet(mb.poly, [0.0, 1e-14])


def test_offset_facets_span(mb, tet, ico):
    # facets missing the origin carry spanning vertex sets
    for setup in (mb, tet, ico):
        for verts, offset in zip(setup.poly.vertices, setup.poly.offsets):
            if abs(offset) > 1e-9:
                assert rc.is_frame(setup.frame, verts)


def test_omnidirectional_vertices_all_on_facets(mb, tet, ico):
    for setup in (mb, tet, ico):
        assert set(range(setup.frame.m)) == {
            v for verts in setup.poly.vertices for v in verts}


def test_positive_facets_mercedes(mb):
    report = rc.positive_facets(mb.poly)
    # exactly the two edges at the top vertex meet the closed quadrant
    assert report.facet_indices == (0, 1)
    assert report.vertex_indices == (0, 1, 2)
    assert report.nonneg_omnidirectional
    # oracle: dense sweep of each edge against the quadrant
    pts = mb.frame.elements
    for j, (a, b) in enumerate(mb.poly.vertices):
        assert oracles.edge_meets_quadrant(pts[a], pts[b]) == (j in report.facet_indices)
    cones = [pts[list(mb.poly.vertices[j])].T for j in report.facet_indices]
    assert oracles.quadrant_covered_by_cones_2d(cones)


def test_positive_facets_standard_basis():
    for n in (2, 3, 4):
        frame, _, _ = rc.normalize(np.eye(n))
        poly = rc.build_polytope(frame)
        report = rc.positive_facets(poly)
        assert report.facet_indices == (0,)
        assert report.vertex_indices == tuple(range(n))
        assert report.nonneg_omnidirectional


def test_positive_facets_negative_orthant_excluded():
    # a frame with one facet entirely in the open negative quadrant
    theta = np.array([np.pi + 0.4, np.pi + 1.2, 0.3, 2.0])
    frame, _, _ = rc.normalize(np.column_stack([np.cos(theta), np.sin(theta)]))
    poly = rc.build_polytope(frame)
    report = rc.positive_facets(poly)
    negative_facet = next(
        j for j, verts in enumerate(poly.vertices)
        if np.all(frame.elements[list(verts)] < 0))
    assert negative_facet not in report.facet_indices


def test_one_dimensional_frame():
    frame, _, _ = rc.normalize(np.array([[1.0], [-1.0]]))
    poly = rc.build_polytope(frame)
    assert poly.num_facets == 2
    assert rc.is_omnidirectional(poly)
    est = rc.pbe_ball(frame, poly, 1.0)
    assert np.all(est.alpha_B == 0.0)


def test_octant_grid_shapes():
    for n in (2, 3, 4):
        grid = oracles.octant_grid(n, 2500)
        assert grid.shape == (2500, n)
        assert np.all(grid >= 0.0)
        assert np.allclose(np.linalg.norm(grid, axis=1), 1.0, atol=1e-12)
    # deterministic
    assert np.array_equal(oracles.octant_grid(3, 500), oracles.octant_grid(3, 500))


def _hexagon_around_basis(scale):
    """Six unit vectors on a circle about (1,1,1)/3 in the plane x+y+z = 1,
    its radius `scale` times the distance to e_1: a flat hull whose cone
    just misses (scale < 1) or just contains (scale > 1) the basis vectors."""
    c = np.ones(3) / 3.0
    e1 = np.eye(3)[0]
    a = (e1 - c) / np.linalg.norm(e1 - c)
    b = np.cross(np.ones(3) / np.sqrt(3.0), a)
    radius = np.linalg.norm(e1 - c) * scale
    t = np.arange(6) * np.pi / 3.0
    pts = c + radius * (np.cos(t)[:, None] * a + np.sin(t)[:, None] * b)
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def test_positive_facets_flat_cone_missing_basis_vector(capsys, tmp_path):
    weights = _hexagon_around_basis(1.0 - 1e-5)
    frame, _, _ = rc.normalize(weights)
    poly = rc.build_polytope(frame)
    assert not poly.full_dimensional and poly.num_facets == 1
    report = rc.positive_facets(poly)
    assert report.facet_indices == (0,)
    # the cone misses a 1e-5 sliver around e_1, which a sampled grid skips
    assert not report.nonneg_omnidirectional
    with pytest.raises(NotNonnegOmnidirectional):
        rc.pbe_positive(frame, poly, report, 1.0)

    w = tmp_path / "w.csv"
    b = tmp_path / "b.csv"
    w.write_text(fio.format_matrix(weights))
    b.write_text(",".join(["-0.1"] * 6) + "\n")
    code = main(["certify", str(w), "--bias", str(b), "--domain", "ball+"])
    err = capsys.readouterr().err
    assert code == 3
    assert json.loads(err)["error"] == "NotNonnegOmnidirectional"

    twin, _, _ = rc.normalize(_hexagon_around_basis(1.0 + 1e-5))
    assert rc.positive_facets(rc.build_polytope(twin)).nonneg_omnidirectional


def _arc(theta):
    return np.column_stack([np.cos(theta), np.sin(theta)])


ORTHANT_CASES = {
    "mercedes": rc.mercedes_benz(),
    "icosahedron": rc.icosahedron(),
    **{f"basis{n}": np.eye(n) for n in (2, 3, 4, 5)},
    "half-circle-4": _arc([0.4, 1.2, 2.2, 2.9]),
    "half-circle-8": _arc(np.linspace(0.2, np.pi - 0.2, 8)),
    "cube3": oracles.cube(3),
    "cube4": oracles.cube(4),
    "cell24": oracles.cell24(),
    "sphere-3x5": rc.random_sphere(3, 5, 1),
    "sphere-3x8": rc.random_sphere(3, 8, 1),
    "sphere-4x8": rc.random_sphere(4, 8, 2),
    # origin outside the hull: an entry facet of negative offset is selected
    "entry-covered": np.array([[1.0, 0.0], [0.0, 1.0], [0.8, 0.6]]),
    "entry-missing-e2": np.array([[1.0, 0.0], [0.8, 0.6], [0.6, 0.8]]),
}


@pytest.mark.parametrize("name", sorted(ORTHANT_CASES))
def test_positive_facets_exact_matches_grid_oracle(name):
    frame, _, _ = rc.normalize(ORTHANT_CASES[name])
    poly = rc.build_polytope(frame)
    report = rc.positive_facets(poly)
    cones = [frame.elements[list(poly.vertices[j])].T
             for j in report.facet_indices]
    covered = bool(cones) and oracles.orthant_grid_covered(cones, frame.n)
    away = all(abs(poly.offsets[j]) > 1e-9 for j in report.facet_indices)
    if report.nonneg_omnidirectional:
        assert covered
    assert report.nonneg_omnidirectional == (covered and away)


def _cofactor_normal(sub):
    """Unit normal of the hyperplane through the rows of `sub` from its n
    signed cofactor determinants, and the unnormalized norm."""
    diffs = sub[1:] - sub[0]
    cof = np.array([(-1) ** j * np.linalg.det(np.delete(diffs, j, axis=1))
                    for j in range(sub.shape[1])])
    norm = float(np.linalg.norm(cof))
    return cof / norm, norm


def test_make_plane_matches_cofactor_normal():
    rng = np.random.default_rng(45)
    for n in range(2, 7):
        pts = rng.standard_normal((n + 3, n))
        verts = np.sort([rng.choice(n + 3, size=n, replace=False) for _ in range(25)], axis=1)
        interior = rng.standard_normal(n)
        normals, offsets = hull.make_planes(pts, verts, interior)
        for normal, offset, sub in zip(normals, offsets, pts[verts]):
            cof, _ = _cofactor_normal(sub)
            sign = 1.0 if normal @ cof > 0 else -1.0
            assert np.max(np.abs(normal - sign * cof)) <= 1e-12
            assert abs(offset - sign * float(np.mean(sub @ cof))) <= 1e-12
            assert normal @ interior < offset


def test_make_plane_degenerate_threshold():
    interior = np.zeros(3)
    thin = np.array([[0.0, 0.0, 1.0], [1e-8, 0.0, 1.0], [0.0, 1e-7, 1.0]])
    assert _cofactor_normal(thin)[1] < 1e-14
    with pytest.raises(DegenerateHull):
        hull.make_planes(thin, np.array([[0, 1, 2]]), interior)
    collinear = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [2.0, 0.0, 1.0]])
    with pytest.raises(DegenerateHull):
        hull.make_planes(collinear, np.array([[0, 1, 2]]), interior)
    # ten times thicker: above the threshold, so it still gets a plane
    wide = np.array([[0.0, 0.0, 1.0], [1e-6, 0.0, 1.0], [0.0, 1e-7, 1.0]])
    assert _cofactor_normal(wide)[1] > 1e-14
    normals, offsets = hull.make_planes(wide, np.array([[0, 1, 2]]), interior)
    assert np.max(np.abs(normals[0] - np.eye(3)[2])) <= 1e-12
    assert offsets[0] == pytest.approx(1.0, abs=1e-12)
    # one degenerate simplex among good ones fails the whole batch
    pts = np.vstack([wide, thin, rc.tetrahedron()])
    good = np.array([[0, 1, 2], [6, 7, 8], [7, 8, 9]])
    assert len(hull.make_planes(pts, good, interior)[0]) == 3
    with pytest.raises(DegenerateHull, match="degenerate"):
        hull.make_planes(pts, np.insert(good, 1, [3, 4, 5], axis=0), interior)


def test_merge_coplanar_rejects_open_hull():
    frame, _, _ = rc.normalize(rc.tetrahedron())
    pts = frame.elements
    *raw, flat = hull.quickhull(pts)
    assert flat is None and len(raw[0]) == 4
    assert len(polytope._merge_coplanar(*raw, pts, 1e-9)[1]) == 4
    with pytest.raises(DegenerateHull, match="not closed"):
        polytope._merge_coplanar(*(a[1:] for a in raw), pts, 1e-9)
    # closed, but with repeated simplices: one simplex twice gives each of
    # its ridges three owners, the whole hull twice gives every ridge four
    for extra in (1, 4):
        with pytest.raises(DegenerateHull, match="not closed"):
            polytope._merge_coplanar(*(np.concatenate([a, a[:extra]]) for a in raw), pts, 1e-9)
    # one ridge with one owner and nothing to compare it with
    with pytest.raises(DegenerateHull, match="not closed"):
        hull.ridge_pairs(np.array([[0]]))


def test_merge_coplanar_certificate_in_every_block():
    frame, _, _ = rc.normalize(rc.random_sphere(4, 60, 31))
    pts = frame.elements
    verts, normals, offsets, _ = hull.quickhull(pts)
    assert len(verts) > 2 * polytope.MERGE_BLOCK
    for j in (0, len(verts) // 2, len(verts) - 1):
        lowered = offsets.copy()
        lowered[j] -= 1e-6
        with pytest.raises(DegenerateHull, match="certificate"):
            polytope._merge_coplanar(verts, normals, lowered, pts, 1e-9)


def _ternary(n, m, seed):
    """m distinct non-zero rows with entries in {-1, 0, 1}."""
    rows = np.array([r for r in product((-1.0, 0.0, 1.0), repeat=n) if any(r)])
    return rows[np.random.default_rng(seed).choice(len(rows), size=m, replace=False)]


SCAN_FRAMES = {
    "sphere-4x60": rc.random_sphere(4, 60, 31),
    "sphere-5x30": rc.random_sphere(5, 30, 32),
    "sphere-6x16": rc.random_sphere(6, 16, 33),
    "cube3": oracles.cube(3),
    "cube4": oracles.cube(4),
    "cube5": oracles.cube(5),
    "cell24": oracles.cell24(),
    "ternary4x30": _ternary(4, 30, 34),
}


@pytest.mark.parametrize("name", sorted(SCAN_FRAMES))
def test_ridge_merge_matches_scan_oracle(name):
    frame, _, _ = rc.normalize(SCAN_FRAMES[name])
    pts = frame.elements
    *raw, flat = hull.quickhull(pts)
    assert flat is None
    want = oracles.merge_coplanar_scan(triples(*raw), pts, 1e-9)
    poly = rc.build_polytope(frame)
    assert facet_sets(poly) == [v for v, _, _ in want]
    for j, (_, normal, offset) in enumerate(want):
        assert np.max(np.abs(poly.normals[j] - normal)) <= 1e-12
        assert abs(poly.offsets[j] - offset) <= 1e-12


@pytest.mark.parametrize("name", sorted(SCAN_FRAMES))
def test_ridge_pairs_match_dict_oracle(name):
    frame, _, _ = rc.normalize(SCAN_FRAMES[name])
    *raw, _ = hull.quickhull(frame.elements)
    verts = raw[0]
    n = verts.shape[1]
    s, t = hull.ridge_pairs(verts)
    ridge = [np.delete(verts[slot // n], slot % n).tolist() for slot in range(verts.size)]
    assert all(ridge[x] == ridge[y] for x, y in zip(s, t))
    a, b = oracles.ridge_pairs_dict(triples(*raw))
    assert len(s) == len(a) == len(verts) * n // 2
    assert ({frozenset(p) for p in zip((s // n).tolist(), (t // n).tolist())}
            == {frozenset(p) for p in zip(a.tolist(), b.tolist())})


QHULL_FRAMES = {
    **{f"sphere-{n}x{m}": rc.random_sphere(n, m, seed) for n, m, seed in (
        (4, 40, 51), (4, 80, 52), (5, 30, 53), (5, 50, 54), (6, 20, 55), (6, 30, 56),
        (3, 200, 57))},
    **{name: SCAN_FRAMES[name] for name in ("cube4", "cube5", "cell24", "ternary4x30")},
}


@pytest.mark.parametrize("name", sorted(QHULL_FRAMES))
def test_facets_match_qhull(name):
    pytest.importorskip("scipy.spatial")
    frame, _, _ = rc.normalize(QHULL_FRAMES[name])
    assert facet_sets(rc.build_polytope(frame)) == oracles.qhull_facets(frame.elements)


def _fuzz_frame(kind, n, rng):
    """Weight rows of one fuzz kind: random, near-duplicate, coplanar or
    jittered cross-polytope."""
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["random", "near-duplicate", "coplanar", "cross-polytope"]),
       st.integers(2, 5), st.integers(0, 2 ** 31 - 1))
def test_hull_fuzz(kind, n, seed):
    rng = np.random.default_rng(seed)
    frame, _, _ = rc.normalize(_fuzz_frame(kind, n, rng))
    try:
        poly = rc.build_polytope(frame)
    except (ValueError, RelucertError):
        return
    if not poly.full_dimensional:
        return
    verts = hull.quickhull(frame.elements)[0]
    s, _ = hull.ridge_pairs(verts)
    assert 2 * len(s) == len(verts) * n
    if not rc.is_omnidirectional(poly):
        return
    for x in rng.standard_normal((5, n)):
        cols = frame.elements[list(poly.vertices[rc.covering_facet(poly, x)])].T
        assert oracles.in_cone(cols, (x / np.linalg.norm(x))[None, :], tol=1e-7)[0]


def test_repeated_facet_vertex_set_raises(capsys, tmp_path):
    # near-duplicate rows: two simplices' planes differ by more than the
    # merge tolerance while both hold the same six points within 1e-9, so
    # the merge gave one vertex set twice
    weights = _fuzz_frame("near-duplicate", 5, np.random.default_rng([65, 5, 1]))
    frame, _, _ = rc.normalize(weights)
    with pytest.raises(DegenerateHull, match="same vertex set"):
        rc.build_polytope(frame)
    path = tmp_path / "w.csv"
    path.write_text(fio.format_matrix(weights))
    assert main(["pbe", str(path)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "DegenerateHull"
