import itertools
import json

import numpy as np
import pytest

import relucert as rc
from relucert import io as fio
from relucert.cli import main
from relucert.errors import (AtOrigin, DegenerateHull, NotNonnegOmnidirectional,
                             NotOmnidirectional)

import oracles
from conftest import random_omnidirectional


def facet_sets(poly):
    return sorted(f.vertex_indices for f in poly.facets)


def test_mercedes_triangle(mb):
    assert facet_sets(mb.poly) == [(0, 1), (0, 2), (1, 2)]
    assert mb.poly.full_dimensional
    assert np.allclose(mb.poly.offsets(), 0.5, atol=1e-12)


def test_tetrahedron_four_triangles(tet):
    assert facet_sets(tet.poly) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_icosahedron_twenty_triangles(ico):
    assert ico.poly.num_facets == 20
    assert all(len(f.vertex_indices) == 3 for f in ico.poly.facets)
    # every vertex sits on exactly five facets
    assert np.array_equal(ico.poly.incidence.sum(axis=0), np.full(12, 5))


def test_standard_basis_single_flat_facet():
    frame, _, _ = rc.normalize(np.eye(3))
    poly = rc.build_polytope(frame)
    assert not poly.full_dimensional
    assert facet_sets(poly) == [(0, 1, 2)]
    facet = poly.facets[0]
    assert np.allclose(facet.normal, np.ones(3) / np.sqrt(3.0), atol=1e-12)
    assert facet.offset == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)


def test_cube_merges_coplanar_triangles():
    corners = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                       dtype=float) / np.sqrt(3.0)
    frame, _, _ = rc.normalize(corners)
    poly = rc.build_polytope(frame)
    assert poly.num_facets == 6
    assert all(len(f.vertex_indices) == 4 for f in poly.facets)
    assert rc.is_omnidirectional(poly)


def test_cross_polytope_square():
    frame, _, _ = rc.normalize(np.array([[1.0, 0], [0, 1.0], [-1.0, 0], [0, -1.0]]))
    poly = rc.build_polytope(frame)
    assert poly.num_facets == 4
    assert all(len(f.vertex_indices) == 2 for f in poly.facets)


def test_degenerate_antipodal_pair():
    frame, _, _ = rc.normalize(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    with pytest.raises(DegenerateHull):
        rc.build_polytope(frame)


def test_flat_circle_off_origin_is_single_facet():
    # points on a latitude circle: affine span is the plane z = h, away from 0
    theta = np.linspace(0.0, 2.0 * np.pi, 7)[:-1]
    s, h = 0.8, 0.6
    pts = np.column_stack([s * np.cos(theta), s * np.sin(theta), np.full(6, h)])
    frame, _, _ = rc.normalize(pts)
    poly = rc.build_polytope(frame)
    assert not poly.full_dimensional
    assert poly.facets[0].vertex_indices == tuple(range(6))
    assert poly.facets[0].offset == pytest.approx(h, abs=1e-12)


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
    for n, m in ((2, 30), (3, 25), (4, 18)):
        frame, _, _ = rc.normalize(rc.random_sphere(n, m, int(rng.integers(1 << 30))))
        poly = rc.build_polytope(frame)
        pts = frame.elements
        for facet in poly.facets:
            assert abs(np.linalg.norm(facet.normal) - 1.0) <= 1e-12
            dots = pts @ facet.normal
            on = np.abs(dots - facet.offset) <= 1e-9
            assert set(np.nonzero(on)[0]) == set(facet.vertex_indices)
            assert np.all(dots <= facet.offset + 1e-9)


def test_hull_oracle_equivalence_2d():
    for m, seed in ((5, 1), (17, 2), (64, 3), (200, 4)):
        frame, _, _ = rc.normalize(rc.random_sphere(2, m, seed))
        poly = rc.build_polytope(frame)
        want = oracles.hull_facets(frame.elements)
        assert facet_sets(poly) == [v for v, _, _ in want]
        for facet, (_, normal, offset) in zip(poly.facets, want):
            assert np.max(np.abs(facet.normal - normal)) <= 1e-9
            assert abs(facet.offset - offset) <= 1e-9


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
    assert mb.poly.facets[down].vertex_indices == (1, 2)
    # ray through vertex 0: tie between its two edges, smallest index wins
    up = rc.covering_facet(mb.poly, [0.0, 0.5])
    assert up == 0
    assert 0 in mb.poly.facets[up].vertex_indices
    opposite = rc.covering_facet(tet.poly, -tet.frame.elements[3])
    assert tet.poly.facets[opposite].vertex_indices == (0, 1, 2)


def test_covering_facet_matches_ray_oracle(mb, tet, ico):
    rng = np.random.default_rng(42)
    for setup in (mb, tet, ico):
        facets = [(f.vertex_indices, f.normal, f.offset) for f in setup.poly.facets]
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
        facet = poly.facets[j]
        t = facet.offset / float(facet.normal @ x)
        exit_point = t * x
        # on the plane, and inside the polytope
        assert abs(facet.normal @ exit_point - facet.offset) <= 1e-9
        assert np.all(poly.normals() @ exit_point <= poly.offsets() + 1e-9)


def test_covering_facet_at_origin(mb):
    with pytest.raises(AtOrigin):
        rc.covering_facet(mb.poly, [0.0, 1e-14])


def test_offset_facets_span(mb, tet, ico):
    # facets missing the origin carry spanning vertex sets
    for setup in (mb, tet, ico):
        for facet in setup.poly.facets:
            if abs(facet.offset) > 1e-9:
                assert rc.is_frame(setup.frame, facet.vertex_indices)


def test_omnidirectional_vertices_all_on_facets(mb, tet, ico):
    for setup in (mb, tet, ico):
        assert set(range(setup.frame.m)) == {
            v for f in setup.poly.facets for v in f.vertex_indices}


def test_positive_facets_mercedes(mb):
    report = rc.positive_facets(mb.poly)
    # exactly the two edges at the top vertex meet the closed quadrant
    assert report.facet_indices == (0, 1)
    assert report.vertex_indices == (0, 1, 2)
    assert report.nonneg_omnidirectional
    # oracle: dense sweep of each edge against the quadrant
    pts = mb.frame.elements
    for j, facet in enumerate(mb.poly.facets):
        a, b = facet.vertex_indices
        assert oracles.edge_meets_quadrant(pts[a], pts[b]) == (j in report.facet_indices)
    cones = [pts[list(mb.poly.facets[j].vertex_indices)].T for j in report.facet_indices]
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
        j for j, f in enumerate(poly.facets)
        if np.all(frame.elements[list(f.vertex_indices)] < 0))
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


def _cube(n):
    return np.array(list(itertools.product([-1.0, 1.0], repeat=n)))


def _cell24():
    """The 24-cell's vertices: every permutation of (+-1, +-1, 0, 0)."""
    rows = []
    for i, j in itertools.combinations(range(4), 2):
        for si, sj in itertools.product((1.0, -1.0), repeat=2):
            v = np.zeros(4)
            v[i], v[j] = si, sj
            rows.append(v)
    return np.array(rows)


def _arc(theta):
    return np.column_stack([np.cos(theta), np.sin(theta)])


ORTHANT_CASES = {
    "mercedes": rc.mercedes_benz(),
    "icosahedron": rc.icosahedron(),
    **{f"basis{n}": np.eye(n) for n in (2, 3, 4, 5)},
    "half-circle-4": _arc([0.4, 1.2, 2.2, 2.9]),
    "half-circle-8": _arc(np.linspace(0.2, np.pi - 0.2, 8)),
    "cube3": _cube(3),
    "cube4": _cube(4),
    "cell24": _cell24(),
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
    cones = [frame.elements[list(poly.facets[j].vertex_indices)].T
             for j in report.facet_indices]
    covered = bool(cones) and oracles.orthant_grid_covered(cones, frame.n)
    away = all(abs(poly.facets[j].offset) > 1e-9 for j in report.facet_indices)
    if report.nonneg_omnidirectional:
        assert covered
    assert report.nonneg_omnidirectional == (covered and away)
