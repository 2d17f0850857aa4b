import json
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relucert as rc
from relucert import hull, polytope
from relucert import io as fio
from relucert.cli import main
from relucert.errors import DegenerateHull, NotNonnegOmnidirectional, RelucertError
from relucert.solvers import TOL_SOLVER, lp_feasible

import oracles
from conftest import random_omnidirectional, spans


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


def test_quickhull_validates_its_points():
    # a non-finite entry or a non-matrix is a DimensionMismatch, before any
    # hull arithmetic
    from relucert.errors import DimensionMismatch

    points = rc.tetrahedron()
    points[2, 1] = np.nan
    for bad in (points, np.array([[1.0, np.inf], [0.0, 1.0], [-1.0, 0.0]]),
                np.ones(3), np.empty((0, 3))):
        with pytest.raises(DimensionMismatch, match="points"):
            rc.quickhull(bad)


def test_duplicate_points_rejected():
    frame = rc.UnitFrame(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        rc.build_polytope(frame)


def _check_distinct_loop(pts, tol=polytope.TOL_DISTINCT):
    """The former per-row scan of `polytope._check_distinct`, as its reference."""
    for i in range(len(pts) - 1):
        d = np.linalg.norm(pts[i + 1:] - pts[i], axis=1)
        if float(np.min(d)) <= tol:
            raise ValueError(f"elements {i} and {i + 1 + int(np.argmin(d))} coincide within {tol}")


def test_check_distinct_names_first_pair_across_blocks():
    rng = np.random.default_rng(46)
    pts = rng.standard_normal((200, 4))
    # near-duplicate pairs: element 70 has three later twins, the nearest
    # not the first; 66 and 130 are 2e-10 apart, above the tolerance
    for i, j, gap in ((150, 190, 3e-11), (70, 140, 8e-11), (70, 75, 9e-11), (70, 100, 2e-11),
                      (66, 130, 2e-10)):
        pts[j] = pts[i] + gap * np.eye(4)[0]
    want = "elements 70 and 100 coincide within 1e-10"
    with pytest.raises(ValueError, match=f"^{want}$"):
        _check_distinct_loop(pts)
    with pytest.raises(ValueError, match=f"^{want}$"):
        polytope._check_distinct(pts)
    for last in (len(pts) - 1, 16, 17):
        twins = rng.standard_normal((len(pts), 4))
        twins[last] = twins[last - 1]
        with pytest.raises(ValueError, match=f"^elements {last - 1} and {last} "):
            polytope._check_distinct(twins)
    polytope._check_distinct(rng.standard_normal((len(pts), 4)))
    polytope._check_distinct(pts[:1])


def _distinct_message(check, pts):
    try:
        check(pts)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(["gaussian", "scaled", "sphere", "cube", "ternary"]),
       st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
def test_check_distinct_matches_row_scan(kind, n, seed):
    # one projection sort against the scan of every later row: planted
    # pairs at the tolerance (both sides, within rounding), exact
    # duplicates and equidistant twins, on rows of any norm and on the
    # integer rows of cube and ternary frames
    rng = np.random.default_rng(seed)
    tol = polytope.TOL_DISTINCT
    m = int(rng.integers(2, 60))
    if kind == "cube":
        pts = oracles.cube(n)
    elif kind == "ternary":
        pts = oracles.ternary(n, min(m, 3 ** n - 1), seed)
    elif kind == "sphere":
        pts = rc.random_sphere(n, m, seed)
    else:
        pts = rng.standard_normal((m, n))
        if kind == "scaled":
            pts *= 10.0 ** rng.uniform(-3.0, 3.0, (m, 1))
    m = len(pts)
    for _ in range(int(rng.integers(0, 4))):
        i, j, k = rng.integers(0, m, 3)
        d = rng.standard_normal(n)
        d *= rng.choice([tol * (1.0 - 1e-15), tol, tol * (1.0 + 1e-15), 0.5 * tol,
                         0.0]) / np.linalg.norm(d)
        pts[j] = pts[i] + d
        if rng.random() < 0.3:
            pts[k] = pts[j]  # i's equidistant twins j and k
        elif rng.random() < 0.3:
            pts[k] = pts[i] - d
    want = _distinct_message(_check_distinct_loop, pts)
    assert _distinct_message(polytope._check_distinct, pts) == want


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


def test_offset_facets_span(mb, tet, ico):
    # facets missing the origin carry spanning vertex sets
    for setup in (mb, tet, ico):
        for verts, offset in zip(setup.poly.vertices, setup.poly.offsets):
            if abs(offset) > 1e-9:
                assert spans(setup.frame, verts)


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


LP_ORACLE_CASES = {
    **ORTHANT_CASES,
    "sphere-3x120": rc.random_sphere(3, 120, 7),
    "sphere-3x200": rc.random_sphere(3, 200, 7),
}


def _decided_by_vertices(pts, verts):
    """Whether a facet's vertices settle its selection without an LP: one
    lies in the closed orthant, or one coordinate is below -2 * TOL_SOLVER
    at all of them."""
    sub = pts[list(verts)]
    return bool(np.any(np.all(sub >= 0.0, axis=1))
                or np.any(np.all(sub < -2.0 * TOL_SOLVER, axis=0)))


def _facet_lp_columns(A):
    """The vertex columns D of a facet LP, A = [[1^T, 0], [D, -I]], or
    None for a coverage LP (A the frame's elements as columns)."""
    n = A.shape[0] - 1
    k = A.shape[1] - n
    if (k >= 1 and np.array_equal(A[0], np.r_[np.ones(k), np.zeros(n)])
            and np.array_equal(A[1:, k:], -np.eye(n))):
        return A[1:, :k]
    return None


def _recording_lps(monkeypatch, record):
    """Patch `positive_facets`' LP solver to call record(A, b) first."""
    def recording(A, b):
        record(np.array(A), np.array(b))
        return lp_feasible(A, b)

    monkeypatch.setattr(polytope, "lp_feasible", recording)


@pytest.fixture
def facet_lps(monkeypatch):
    """The vertex columns of every facet LP `positive_facets` runs."""
    calls = []

    def record(A, b):
        cols = _facet_lp_columns(A)
        if cols is not None:
            calls.append(cols)

    _recording_lps(monkeypatch, record)
    return calls


@pytest.mark.parametrize("name", sorted(LP_ORACLE_CASES))
def test_positive_facets_matches_per_facet_lp_oracle(name, facet_lps):
    frame, _, _ = rc.normalize(LP_ORACLE_CASES[name])
    poly = rc.build_polytope(frame)
    report = rc.positive_facets(poly)
    assert report == oracles.positive_facets_lp(poly)
    # an LP runs for exactly the facets the vertex tests leave, in order
    pts = frame.elements
    straddling = [j for j, verts in enumerate(poly.vertices)
                  if not _decided_by_vertices(pts, verts)]
    assert len(facet_lps) == len(straddling)
    for cols, j in zip(facet_lps, straddling):
        assert np.array_equal(cols, pts[list(poly.vertices[j])].T)


@pytest.mark.parametrize("scale, selected", [(0.5, True), (3.0, False)])
def test_positive_facets_reject_test_at_its_bound(scale, selected, facet_lps):
    # edge 0-1 lies on x = -scale * TOL_SOLVER. At half the LP tolerance the
    # LP must decide it (and finds it feasible within tolerance); at three
    # times the tolerance the reject test drops it without an LP
    x = -scale * TOL_SOLVER
    frame, _, _ = rc.normalize(np.array([[x, 1.0], [x, -1.0], [1.0, 0.0]]))
    poly = rc.build_polytope(frame)
    assert poly.vertices[0] == (0, 1) and np.all(frame.elements[:2, 0] == x)
    report = rc.positive_facets(poly)
    assert (0 in report.facet_indices) is selected
    assert any(np.array_equal(cols, frame.elements[:2].T) for cols in facet_lps) is selected
    assert report == oracles.positive_facets_lp(poly)


def test_positive_facets_poses_standard_form_lps(monkeypatch):
    # each facet LP is [[1^T, 0], [D, -I]] x = (1, 0, ..., 0), D the facet's
    # vertex columns, in facet order; each coverage LP is E x = e_k, E the
    # elements as columns, in basis order
    calls = []
    _recording_lps(monkeypatch, lambda A, b: calls.append((A, b)))
    facet_count = coverage_count = 0
    for name in sorted(LP_ORACLE_CASES):
        calls.clear()
        frame, _, _ = rc.normalize(LP_ORACLE_CASES[name])
        poly = rc.build_polytope(frame)
        rc.positive_facets(poly)
        pts, n = frame.elements, frame.n
        straddling = [j for j, verts in enumerate(poly.vertices)
                      if not _decided_by_vertices(pts, verts)]
        facet_calls, coverage_calls = calls[:len(straddling)], calls[len(straddling):]
        for (A, b), j in zip(facet_calls, straddling):
            cols = pts[list(poly.vertices[j])].T
            k = cols.shape[1]
            assert np.array_equal(A[:1], np.hstack([np.ones((1, k)), np.zeros((1, n))])), name
            assert np.array_equal(A[1:], np.hstack([cols, -np.eye(n)])), name
            assert np.array_equal(b, np.eye(n + 1)[0]), name
        assert len(coverage_calls) <= n, name
        for (A, b), e_k in zip(coverage_calls, np.eye(n)):
            assert np.array_equal(A, pts.T) and np.array_equal(b, e_k), name
        facet_count += len(facet_calls)
        coverage_count += len(coverage_calls)
    assert facet_count > 0 and coverage_count > 0


def _snapped_polytopes(n):
    for seed in range(40):
        try:
            frame, _, _ = rc.normalize(oracles.snapped(n, seed))
            yield seed, rc.build_polytope(frame)
        except (DegenerateHull, ValueError):
            continue  # near-duplicate rows or a failed facet certificate


@pytest.mark.parametrize("n", [3, 4])
def test_positive_facets_on_snapped_frames_selects_every_orthant_vertex(n):
    for seed, poly in _snapped_polytopes(n):
        report = rc.positive_facets(poly)
        pts = poly.frame.elements
        touching = {j for j, verts in enumerate(poly.vertices)
                    if np.any(np.all(pts[list(verts)] >= 0.0, axis=1))}
        assert touching <= set(report.facet_indices), seed


@pytest.mark.parametrize("n", [3, 4])
def test_positive_facets_on_snapped_frames_matches_linprog(n):
    # t* is the largest smallest coordinate over conv(facet). The phase-1
    # objective lies between -t* and -n t* when t* < 0, and is 0 otherwise;
    # where that settles it against TOL_SOLVER (with a factor 2 to spare),
    # the selection must agree
    pytest.importorskip("scipy")
    checked = ambiguous = 0
    for seed, poly in _snapped_polytopes(n):
        report = rc.positive_facets(poly)
        pts = poly.frame.elements
        for j, verts in enumerate(poly.vertices):
            if _decided_by_vertices(pts, verts):
                continue
            low, high = oracles.orthant_margin_bounds(pts[list(verts)].T)
            if n * max(0.0, -low) <= 0.5 * TOL_SOLVER:
                assert j in report.facet_indices, (seed, j, low)
            elif high < -2.0 * TOL_SOLVER:
                assert j not in report.facet_indices, (seed, j, high)
            else:
                ambiguous += 1
                continue
            checked += 1
    assert checked > 2 * ambiguous


@pytest.fixture
def coverage_lps(monkeypatch):
    """The right-hand side e_k of every coverage LP `positive_facets` runs
    (the LPs that are not facet LPs)."""
    calls = []

    def record(A, b):
        if _facet_lp_columns(A) is None:
            calls.append(b)

    _recording_lps(monkeypatch, record)
    return calls


def _check_coverage_lps(poly, report, calls):
    """Omnidirectional hulls run no coverage LP. Other hulls run them in
    basis order, up to the first e_k outside cone(frame), once some facet
    is selected away from the origin; all n when the verdict is True."""
    n = poly.frame.n
    if rc.is_omnidirectional(poly):
        assert calls == []
        return
    assert np.array_equal(np.array(calls).reshape(-1, n), np.eye(n)[:len(calls)])
    if report.nonneg_omnidirectional:
        assert len(calls) == n


@pytest.mark.parametrize("name", sorted(LP_ORACLE_CASES))
def test_positive_facets_coverage_lps_only_off_omnidirectional_hulls(name, coverage_lps):
    frame, _, _ = rc.normalize(LP_ORACLE_CASES[name])
    poly = rc.build_polytope(frame)
    report = rc.positive_facets(poly)
    _check_coverage_lps(poly, report, coverage_lps)
    assert report == oracles.positive_facets_lp(poly)
    if name.startswith("basis"):  # a flat hull: every e_k is decided by an LP
        assert len(coverage_lps) == frame.n


@pytest.mark.parametrize("n", [3, 4])
def test_positive_facets_coverage_shortcut_on_snapped_frames(n, coverage_lps):
    # the snapped frames' hulls are all omnidirectional; the rows of each
    # with positive coordinate sum, and the basis, give hulls that miss the
    # origin, whose cones still hold the orthant. Only the verdicts are
    # compared: the oracle's facet LPs reject a few facets with a vertex in
    # the orthant, which the library selects by its vertex test
    built = offside = 0
    for seed, poly in _snapped_polytopes(n):
        coverage_lps.clear()
        report = rc.positive_facets(poly)
        assert rc.is_omnidirectional(poly)
        _check_coverage_lps(poly, report, coverage_lps)
        verdict = oracles.positive_facets_lp(poly).nonneg_omnidirectional
        assert report.nonneg_omnidirectional == verdict, seed
        built += 1

        weights = oracles.snapped(n, seed)
        weights = np.concatenate([weights[weights.sum(axis=1) > 0.1], np.eye(n)])
        try:
            half = rc.build_polytope(rc.normalize(weights)[0])
        except (DegenerateHull, ValueError):
            continue
        coverage_lps.clear()
        report = rc.positive_facets(half)
        assert not rc.is_omnidirectional(half)
        _check_coverage_lps(half, report, coverage_lps)
        verdict = oracles.positive_facets_lp(half).nonneg_omnidirectional
        assert report.nonneg_omnidirectional == verdict, seed
        offside += len(coverage_lps) == n
    assert built >= 30 and offside >= 15


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


def _simplices(rng, n, count, singular):
    """`count` simplices in R^n whose (n-1) x n difference matrices have the
    singular values `singular` (count, n-1) and random singular vectors."""
    u = np.linalg.qr(rng.standard_normal((count, n - 1, n - 1)))[0]
    v = np.linalg.qr(rng.standard_normal((count, n, n)))[0][:, :, :n - 1]
    diffs = (u * singular[:, None, :]) @ np.swapaxes(v, 1, 2)
    base = rng.standard_normal((count, 1, n))
    pts = np.concatenate([base, base + diffs], axis=1).reshape(count * n, n)
    return pts, np.arange(count * n).reshape(count, n)


@pytest.mark.parametrize("kind", ["random", "thin", "wide"])
def test_make_planes_match_svd_oracle(kind):
    # random: singular values in [0.5, 2]; thin: one of them 1e-3 (a
    # simplex squashed toward a lower-dimensional one); wide: all times 1e3
    rng = np.random.default_rng([48, len(kind)])
    for n in range(2, 7):
        singular = rng.uniform(0.5, 2.0, (50, n - 1))
        if kind == "thin":
            singular[:, -1] = 1e-3
        elif kind == "wide":
            singular *= 1e3
        pts, verts = _simplices(rng, n, 50, singular)
        interior = pts.mean(axis=0) + 1e4 * rng.standard_normal(n)
        normals, offsets = hull.make_planes(pts, verts, interior)
        want, want_offsets, volumes = oracles.svd_planes(pts, verts, interior)
        # |prod diag R| is the product of the singular values: the
        # degeneracy threshold means the same under both factorizations
        sub = pts[verts]
        r = np.linalg.qr(np.swapaxes(sub[:, 1:] - sub[:, :1], 1, 2), mode="complete")[1]
        diag = np.abs(np.prod(np.diagonal(r, axis1=1, axis2=2), axis=1))
        assert np.max(np.abs(diag - volumes) / volumes) <= 1e-12
        # both are oriented by `interior`; the normal's own conditioning,
        # the ratio of extreme singular values, scales the agreement
        cond = singular.max(axis=1) / singular.min(axis=1)
        assert np.all(np.max(np.abs(normals - want), axis=1) <= 1e-14 * cond)
        scale = np.max(np.abs(sub), axis=(1, 2))
        assert np.all(np.abs(offsets - want_offsets) <= 1e-14 * cond * scale)


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


def test_make_planes_thin_simplices_take_the_qr(monkeypatch):
    # a batch mixing well-shaped simplices with thin ones, whose difference
    # matrix has one singular value 1e-6: the thin rows, and only they, go
    # through the stacked Householder QR, and every plane agrees with the
    # SVD oracle within the bound of test_make_planes_match_svd_oracle
    qr_inputs = []
    qr = np.linalg.qr

    def recording(a, mode="reduced"):
        qr_inputs.append(a)
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", recording)
    rng = np.random.default_rng(49)
    for n in range(3, 7):
        singular = rng.uniform(0.5, 2.0, (60, n - 1))
        thin = np.arange(60) % 4 == 1
        singular[thin, -1] = 1e-6
        pts, verts = _simplices(rng, n, 60, singular)
        interior = pts.mean(axis=0) + 1e4 * rng.standard_normal(n)
        qr_inputs.clear()
        normals, offsets = hull.make_planes(pts, verts, interior)
        sub = pts[verts]
        assert len(qr_inputs) == 1
        assert np.array_equal(qr_inputs[0], np.swapaxes(sub[thin, 1:] - sub[thin, :1], 1, 2))
        want, want_offsets, _ = oracles.svd_planes(pts, verts, interior)
        cond = singular.max(axis=1) / singular.min(axis=1)
        assert np.all(np.max(np.abs(normals - want), axis=1) <= 1e-14 * cond)
        scale = np.max(np.abs(sub), axis=(1, 2))
        assert np.all(np.abs(offsets - want_offsets) <= 1e-14 * cond * scale)


def test_merge_coplanar_rejects_open_hull():
    frame, _, _ = rc.normalize(rc.tetrahedron())
    pts = frame.elements
    *raw, flat = hull.quickhull(pts)
    assert flat is None and len(raw[0]) == 4
    assert len(polytope._merge_coplanar(*raw, pts)[1]) == 4
    with pytest.raises(DegenerateHull, match="not closed"):
        polytope._merge_coplanar(*(a[1:] for a in raw), pts)
    # closed, but with repeated simplices: one simplex twice gives each of
    # its ridges three owners, the whole hull twice gives every ridge four
    for extra in (1, 4):
        with pytest.raises(DegenerateHull, match="not closed"):
            polytope._merge_coplanar(*(np.concatenate([a, a[:extra]]) for a in raw), pts)
    # one ridge with one owner and nothing to compare it with
    with pytest.raises(DegenerateHull, match="not closed"):
        hull.ridge_pairs(np.array([[0]]))


def test_near_duplicate_frame_with_an_open_hull_still_raises():
    # one ridge of this frame's simplicial hull lies on four simplices; a
    # count of ridge pairs (F n / 2 of them) would not see it, so closure is
    # still decided by hull.ridge_pairs in the merge
    weights = oracles.fuzz_frame("near-duplicate", 5, np.random.default_rng([34, 5, 1]))
    frame, _, _ = rc.normalize(weights)
    with pytest.raises(DegenerateHull, match="hull is not closed"):
        rc.build_polytope(frame)


@pytest.fixture
def merge_calls(monkeypatch):
    """How often `_merge_coplanar` labels components and sorts vertex tuples
    (each sort starts from one `nonzero_2d` scan of the incidence)."""
    calls = {"_components": 0, "nonzero_2d": 0}

    def counting(name):
        function = getattr(polytope, name)

        def counted(*args):
            calls[name] += 1
            return function(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(polytope, name, counting(name))
    return calls


@pytest.mark.parametrize("name", ["sphere-4x60", "sphere-5x30", "sphere-6x16"])
def test_general_position_hull_keeps_quickhull_rows(name, merge_calls):
    # no simplex has a coplanar neighbour or another element on its plane:
    # each facet is quickhull's row, in quickhull's order, with no re-sort
    frame, _, _ = rc.normalize(SCAN_FRAMES[name])
    verts, normals, offsets, _ = hull.quickhull(frame.elements)
    poly = rc.build_polytope(frame)
    assert merge_calls == {"_components": 0, "nonzero_2d": 0}
    assert poly.vertices == tuple(map(tuple, verts.tolist()))
    assert poly.normals.tobytes() == normals.tobytes()
    assert poly.offsets.tobytes() == offsets.tobytes()


@pytest.mark.parametrize("name", ["cube3", "cube4", "cube5", "cell24"])
def test_coplanar_hull_still_merges(name, merge_calls):
    frame, _, _ = rc.normalize(SCAN_FRAMES[name])
    simplices = len(hull.quickhull(frame.elements)[0])
    poly = rc.build_polytope(frame)
    assert merge_calls == {"_components": 1, "nonzero_2d": 1}
    assert poly.num_facets < simplices
    assert list(poly.vertices) == facet_sets(poly)


def test_merge_coplanar_certificate_in_every_block():
    frame, _, _ = rc.normalize(rc.random_sphere(4, 60, 31))
    pts = frame.elements
    verts, normals, offsets, _ = hull.quickhull(pts)
    block = polytope.MERGE_ENTRIES // len(pts)  # facets per certificate product
    assert len(verts) > block  # two blocks at least
    for j in (0, block - 1, block, len(verts) - 1):
        lowered = offsets.copy()
        lowered[j] -= 1e-6
        with pytest.raises(DegenerateHull, match="certificate"):
            polytope._merge_coplanar(verts, normals, lowered, pts)


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


@pytest.mark.parametrize("n, seed", [(3, 2), (4, 18)])
def test_snapped_near_duplicate_frames_still_raise(n, seed):
    # Known failures, left to ROADMAP direction 2 (near-duplicate apexes),
    # although Qhull builds both: with a pair of elements 9.5e-9 and 1.6e-9
    # apart, the hull's own simplices are not convex (an element lies 0.12
    # and 0.10 above one of them), so the facet certificate fails.
    frame, _, _ = rc.normalize(oracles.snapped(n, seed))
    with pytest.raises(DegenerateHull, match="certificate"):
        rc.build_polytope(frame)


@pytest.mark.parametrize("n, seed", [(3, 20), (4, 33)])
def test_snapped_near_duplicate_frames_match_qhull(n, seed):
    # with a pair of elements 8.2e-9 and 3.5e-9 apart: the former
    # furthest-point quickhull built non-convex simplices here, the
    # round-based hull builds Qhull's facets
    pytest.importorskip("scipy.spatial")
    frame, _, _ = rc.normalize(oracles.snapped(n, seed))
    assert facet_sets(rc.build_polytope(frame)) == oracles.qhull_facets(frame.elements)


@pytest.mark.parametrize("n, seed", [(3, 130), (4, 157), (5, 23), (5, 131), (6, 0), (6, 8)])
def test_near_duplicate_fuzz_frames_match_qhull(n, seed):
    # each frame holds copies of n rows moved by 1e-9 to 1e-4; the planes of
    # the thin simplices through such a pair need make_planes' QR fallback:
    # cofactor planes alone leave the hull's simplices non-convex, and the
    # build raises DegenerateHull
    pytest.importorskip("scipy.spatial")
    weights = oracles.fuzz_frame("near-duplicate", n, np.random.default_rng([seed, n, 1]))
    frame, _, _ = rc.normalize(weights)
    assert facet_sets(rc.build_polytope(frame)) == oracles.qhull_facets(frame.elements)


BIT_FRAMES = {
    **{f"sphere-{n}x{m}": rc.random_sphere(n, m, seed) for n, m, seed in (
        (3, 200, 61), (4, 60, 62), (5, 30, 63), (6, 16, 64), (6, 50, 65))},
    # 13-index ridges of 5 bits: two key words
    "sphere-14x17": rc.random_sphere(14, 17, 73),
    "tetrahedron": rc.tetrahedron(),
    "icosahedron": rc.icosahedron(),
}


def _check_bit_identical(pts):
    # in general position the hull's simplices are unique, and each plane
    # comes from the same make_planes row, whatever the insertion order
    got = hull.quickhull(pts)
    want = oracles.quickhull_furthest(pts)
    assert got[3] is None and want[3] is None
    for a, b in zip(got[:3], want[:3]):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return got


@pytest.mark.parametrize("name", sorted(BIT_FRAMES))
def test_quickhull_bit_identical_to_furthest_point_oracle(name):
    frame, _, _ = rc.normalize(BIT_FRAMES[name])
    _check_bit_identical(frame.elements)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_smallest_hulls_bit_identical_to_furthest_point_oracle(n):
    # m = n + 1 .. n + 3: zero to two points after the seed simplex, so the
    # last rank can be a round's apex and the waiting table can run empty
    for m in range(n + 1, n + 4):
        for seed in range(4):
            frame, _, _ = rc.normalize(rc.random_sphere(n, m, seed))
            _check_bit_identical(frame.elements)


def test_quickhull_rounds_over_two_key_words():
    # m > 4096 at n = 6: 13 bits per index, so the 5-index ridges take two
    # key words and the waiting ridges sort on both; the 16 outer points
    # are the hull, and the 4,090 inner ones are halfway to their centroid
    outer = rc.random_sphere(6, 16, 74)
    weights = np.random.default_rng(75).dirichlet(np.ones(16), 4090)
    centre = outer.mean(axis=0)
    pts = np.vstack([outer, centre + 0.5 * (weights @ outer - centre)])
    assert hull._key_layout(len(pts), 5).shape == (5, 2)
    verts = _check_bit_identical(pts)[0]
    assert set(np.unique(verts)) <= set(range(16))


@pytest.mark.parametrize("name", ["cube3", "cube4", "cube5", "cell24", "ternary4x30"])
def test_coplanar_frames_merge_to_the_furthest_point_facets(name):
    # coplanar points: the two hulls may triangulate a facet differently,
    # but the merged facets are the same
    frame, _, _ = rc.normalize(SCAN_FRAMES[name])
    pts = frame.elements
    *raw, _ = oracles.quickhull_furthest(pts)
    want = polytope._merge_coplanar(*raw, pts)
    poly = rc.build_polytope(frame)
    assert np.array_equal(poly.incidence, want[2])
    assert np.max(np.abs(poly.normals - want[0])) <= 1e-12
    assert np.max(np.abs(poly.offsets - want[1])) <= 1e-12


@pytest.fixture
def rounds(monkeypatch):
    """The facets each round of `hull.quickhull` makes after the seed round,
    one `_pencil_planes` call per round (the last makes none), and under
    "make_planes" the size of each `make_planes` call."""
    calls = {"make_planes": [], "pencil": []}
    make_planes, pencil_planes = hull.make_planes, hull._pencil_planes

    def counting(pts, verts, interior):
        calls["make_planes"].append(len(verts))
        return make_planes(pts, verts, interior)

    def pencil(pts, verts, *args):
        calls["pencil"].append(len(verts))
        return pencil_planes(pts, verts, *args)

    monkeypatch.setattr(hull, "make_planes", counting)
    monkeypatch.setattr(hull, "_pencil_planes", pencil)
    return calls


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_simplex_frames_need_no_round(n, rounds):
    # m = n + 1: the seed simplex is the hull and no point is left to rank;
    # make_planes runs on the seed simplex and on the final simplices
    pts = np.vstack([np.eye(n), -np.ones((1, n)) / np.sqrt(n)])
    verts, normals, offsets, flat = hull.quickhull(pts)
    assert flat is None and rounds == {"make_planes": [n + 1, n + 1], "pencil": [0]}
    assert np.array_equal(verts, list(combinations(range(n + 1), n)))
    assert np.all(pts @ normals.T <= offsets + 1e-12)


def test_rows_sorted_by_a_coordinate_take_few_rounds(rounds):
    # insertion by hashed index, not row order: in row order these rows,
    # sorted by height, take 77 rounds (29 in hashed order)
    frame, _, _ = rc.normalize(rc.random_sphere(3, 200, 66))
    pts = frame.elements[np.argsort(frame.elements[:, 2])]
    got = hull.quickhull(pts)
    assert len(rounds["pencil"]) - 1 <= 40
    # in general position no pencil cancels: the seed and the final simplices
    assert rounds["make_planes"] == [4, len(got[0])]
    want = oracles.quickhull_furthest(pts)
    for a, b in zip(got[:3], want[:3]):
        assert np.array_equal(a, b)


def _final_planes(pts):
    """`hull.make_planes` over the final simplices of `hull.quickhull`,
    oriented by quickhull's interior point: (quickhull's result, planes)."""
    got = hull.quickhull(pts)
    interior = pts[hull._affine_basis(pts, hull.TOL_PLANE)[0]].mean(axis=0)
    return got, hull.make_planes(pts, got[0], interior)


@pytest.mark.parametrize("name", sorted(BIT_FRAMES))
def test_returned_planes_are_make_planes_of_the_final_simplices(name):
    # the rounds' pencil planes only steer the search: every returned plane
    # is the final make_planes call's, bit for bit
    frame, _, _ = rc.normalize(BIT_FRAMES[name])
    got, want = _final_planes(frame.elements)
    for a, b in zip(got[1:3], want):
        assert a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["random", "near-duplicate", "coplanar", "cross-polytope"]),
       st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_returned_planes_are_make_planes_on_fuzz_frames(kind, n, seed):
    pts = rc.normalize(oracles.fuzz_frame(kind, n, np.random.default_rng(seed)))[0].elements
    try:
        got, want = _final_planes(pts)
    except DegenerateHull:
        return
    if got[3] is None:
        for a, b in zip(got[1:3], want):
            assert a.tobytes() == b.tobytes()


def test_knife_edge_pencil_falls_back_to_make_planes(monkeypatch):
    # twelve points on a flat ellipse (semi-axes 1 and 1e-6): at a thin end
    # a facet of the upper chain and one of the lower meet with nearly
    # opposite normals, and the next point beyond that end is about as far
    # above one as below the other, so their pencil cancels (|h| is 1/170
    # of alpha + |beta|) and the new facet's plane comes from make_planes
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((12, 2))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts[:, 1] *= 1e-6
    parents, fallback = {}, []
    make_planes, pencil_planes = hull.make_planes, hull._pencil_planes

    def pencil(pts, verts, apex, a, b, interior):
        cos = np.einsum("kj,kj->k", a[:, :2], b[:, :2])
        parents.update(zip(map(tuple, verts.tolist()), cos.tolist()))
        return pencil_planes(pts, verts, apex, a, b, interior)

    def recording(pts, verts, interior):
        fallback.append(verts.tolist())
        return make_planes(pts, verts, interior)

    monkeypatch.setattr(hull, "_pencil_planes", pencil)
    monkeypatch.setattr(hull, "make_planes", recording)
    got = hull.quickhull(pts)
    rows = [v for call in fallback[1:-1] for v in call]  # not the seed or the final call
    assert rows and all(parents[tuple(v)] < -0.9999 for v in rows)
    monkeypatch.undo()
    want = oracles.quickhull_furthest(pts)
    assert np.array_equal(got[0], want[0])
    assert got[1].tobytes() == _final_planes(pts)[1][0].tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.integers(0, 40), st.integers(0, 2 ** 31 - 1))
def test_row_order_does_not_change_general_position_facets(n, extra, seed):
    rng = np.random.default_rng(seed)
    weights = rc.random_sphere(n, n + 1 + extra, seed)
    perm = rng.permutation(len(weights))
    frame, _, _ = rc.normalize(weights)
    moved, _, _ = rc.normalize(weights[perm])
    want = facet_sets(rc.build_polytope(frame))
    got = [tuple(sorted(int(perm[i]) for i in verts))
           for verts in rc.build_polytope(moved).vertices]
    assert sorted(got) == want


def test_ridge_keys_over_several_words():
    # labels below 2**40: 40 bits per index, one index per int64 word, so
    # the 4-index ridges at n = 5 take four words; the pairs match those of
    # small labels, and the keys unpack to the ridges
    frame, _, _ = rc.normalize(rc.random_sphere(5, 30, 71))
    verts = hull.quickhull(frame.elements)[0]
    labels = np.sort(np.random.default_rng(72).choice(2 ** 40, 30, replace=False))
    big = labels[verts]
    for a, b in zip(hull.ridge_pairs(verts), hull.ridge_pairs(big)):
        assert np.array_equal(a, b)
    keys = hull._ridge_keys(big[:, 1:], 2 ** 40)
    assert keys.shape == (len(verts), 4)
    assert np.array_equal(_unpack_keys(keys, 2 ** 40, 4), big[:, 1:])
    small = hull._ridge_keys(verts[:, 1:], 30)
    assert small.shape == (len(verts), 1)
    assert np.array_equal(_unpack_keys(small, 30, 4), verts[:, 1:])


def _unpack_keys(keys, m, k):
    """The k indices below m packed in each row of keys, by the layout that
    `hull._key_layout` documents."""
    bits = max(int(m - 1).bit_length(), 1)
    per = 63 // bits
    j = np.arange(k)
    return (keys[:, j // per] >> (bits * (per - 1 - j % per))) & ((1 << bits) - 1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["random", "near-duplicate", "coplanar", "cross-polytope"]),
       st.integers(2, 5), st.integers(0, 2 ** 31 - 1))
def test_hull_fuzz(kind, n, seed):
    rng = np.random.default_rng(seed)
    frame, _, _ = rc.normalize(oracles.fuzz_frame(kind, n, rng))
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
    facets = triples(poly.vertices, poly.normals, poly.offsets)
    for x in rng.standard_normal((5, n)):
        j = min(oracles.ray_exit_facets(frame.elements, facets, x))
        cols = frame.elements[list(poly.vertices[j])].T
        assert oracles.in_cone(cols, (x / np.linalg.norm(x))[None, :], tol=1e-7)[0]


def test_repeated_facet_vertex_set_raises(capsys, tmp_path):
    # near-duplicate rows: two simplices' planes differ by more than the
    # merge tolerance while both hold the same six points within 1e-9, so
    # the merge gave one vertex set twice
    weights = oracles.fuzz_frame("near-duplicate", 5, np.random.default_rng([65, 5, 1]))
    frame, _, _ = rc.normalize(weights)
    with pytest.raises(DegenerateHull, match="same vertex set"):
        rc.build_polytope(frame)
    path = tmp_path / "w.csv"
    path.write_text(fio.format_matrix(weights))
    assert main(["pbe", str(path)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "DegenerateHull"
