import numpy as np
import pytest

import relucert as rc
from relucert.errors import NotNonnegOmnidirectional, NotOmnidirectional

import oracles
from conftest import random_omnidirectional


def test_alpha_x_fixture_values(mb, tet, ico):
    assert np.max(np.abs(rc.alpha_X(mb.poly) + 0.5)) <= 1e-12
    assert np.max(np.abs(rc.alpha_X(tet.poly) + 1.0 / 3.0)) <= 1e-12
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    want = phi / (1.0 + phi * phi)  # == 1/sqrt(5)
    assert np.max(np.abs(rc.alpha_X(ico.poly) - want)) <= 1e-12


def test_pbe_ball_fixture_values(mb, tet, ico):
    assert np.max(np.abs(mb.estimate.alpha_B + 0.5)) <= 1e-9
    assert np.max(np.abs(tet.estimate.alpha_B + 1.0 / np.sqrt(3.0))) <= 1e-9
    assert np.all(ico.estimate.alpha_B == 0.0)


def test_pbe_requires_omnidirectional():
    frame, _, _ = rc.normalize(np.eye(3))
    poly = rc.build_polytope(frame)
    with pytest.raises(NotOmnidirectional):
        rc.pbe_ball(frame, poly, 1.0)
    with pytest.raises(NotOmnidirectional):
        rc.stability(frame, poly, 1.0)


def test_alpha_x_orphan_vertex(mb):
    from relucert.errors import OrphanVertex

    # hand-built polytope whose facet list misses vertex 2
    incidence = np.array([[True, True, False]])
    broken = rc.Polytope(mb.frame, mb.poly.normals[:1], mb.poly.offsets[:1], incidence, True)
    with pytest.raises(OrphanVertex) as err:
        rc.alpha_X(broken)
    assert err.value.index == 2


def test_case_split_zero_iff_nonnegative_correlation(mb, ico):
    rng = np.random.default_rng(61)
    setups = [mb, ico]
    for n, m, seed in ((2, 12, 601), (3, 16, 602), (3, 40, 603)):
        from conftest import build_setup

        setups.append(build_setup(random_omnidirectional(n, m, seed)))
    for setup in setups:
        est = setup.estimate
        assert np.array_equal(est.alpha_B == 0.0, est.alpha_X >= 0.0)
        # value ordering wherever the cone programs ran
        ran = ~np.isnan(est.alpha_S)
        assert np.all(est.alpha_B[ran] <= est.alpha_S[ran] + 1e-9)
        assert np.all(est.alpha_S[ran] <= est.alpha_X[ran] + 1e-9)
        assert np.all(est.alpha_B <= 1e-12)


def test_alpha_sphere_matches_arc_sweep_2d():
    # per-element sphere minimum over adjacent facet cones, swept densely
    pts = random_omnidirectional(2, 9, 62)
    frame, _, _ = rc.normalize(pts)
    poly = rc.build_polytope(frame)
    est = rc.pbe_ball(frame, poly, 1.0)
    gram = frame.elements @ frame.elements.T
    for i in range(frame.m):
        if est.alpha_X[i] >= 0.0:
            continue
        best = 0.0
        for j in poly.facets_of_vertex(i):
            cols = frame.elements[list(poly.vertices[j])].T
            best = min(best, oracles.arc_sweep_min(cols, gram[i, list(poly.vertices[j])],
                                                   samples=400_000))
        assert est.alpha_B[i] == pytest.approx(best, abs=1e-6)


def test_alpha_sphere_below_sampled_facet_minima():
    # alpha_S is a lower bound on every adjacent facet's cone minimum, so it
    # never exceeds a feasible sampled value on any of them
    for n, m, seed in ((4, 12, 63), (5, 14, 64)):
        frame, _, _ = rc.normalize(random_omnidirectional(n, m, seed))
        poly = rc.build_polytope(frame)
        est = rc.pbe_ball(frame, poly, 1.0)
        assert not np.isnan(est.alpha_S).all()
        for i in np.nonzero(~np.isnan(est.alpha_S))[0]:
            for j in poly.facets_of_vertex(i):
                idx = list(poly.vertices[j])
                cols = frame.elements[idx].T
                sampled = oracles.cone_sample_min(cols, cols.T @ frame.elements[i],
                                                  samples=2000, seed=int(i))
                assert est.alpha_S[i] <= sampled + 1e-12, (n, i, j)


def test_radius_scaling_multiplies(mb):
    est2 = rc.pbe_ball(mb.frame, mb.poly, 2.0)
    assert np.allclose(est2.alpha_scaled, 2.0 * est2.alpha_B)
    assert np.allclose(est2.alpha_B, mb.estimate.alpha_B)
    with pytest.raises(ValueError):
        rc.pbe_ball(mb.frame, mb.poly, -1.0)


def test_active_sets_span_on_ball_samples(mb, tet, ico):
    rng = np.random.default_rng(63)
    for setup in (mb, tet, ico):
        xs = oracles.sample_ball(rng, setup.frame.n, 10_000)
        assert rc.spanning_failures(setup.layer, setup.poly, xs) == []


def test_active_sets_span_random_frames():
    from conftest import build_setup

    rng = np.random.default_rng(64)
    for n, m, seed in ((2, 10, 641), (3, 14, 642), (4, 12, 643)):
        setup = build_setup(random_omnidirectional(n, m, seed))
        xs = oracles.sample_ball(rng, n, 2000)
        assert rc.spanning_failures(setup.layer, setup.poly, xs) == []


def test_spanning_failures_exit_facet_through_origin():
    # facet (0, 2) has offset 0: rays exiting through it have active set
    # {0, 2}, which contains its vertices but spans only a line
    frame, bias, _ = rc.normalize(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), np.zeros(3))
    poly = rc.build_polytope(frame)
    assert not rc.is_omnidirectional(poly)
    layer = rc.ReLULayer(frame, bias, 1.0)
    xs = np.array([[0.0, -1.0], [0.0, -0.5], [0.6, 0.8]])
    assert [rc.active_set(layer, x).indices for x in xs[:2]] == [(0, 2), (0, 2)]
    assert not rc.is_frame(frame, (0, 2))
    assert rc.spanning_failures(layer, poly, xs) == [0, 1]


def test_pbe_positive_standard_basis():
    for n in (2, 3, 5):
        frame, _, _ = rc.normalize(np.eye(n))
        poly = rc.build_polytope(frame)
        report = rc.positive_facets(poly)
        est = rc.pbe_positive(frame, poly, report, 1.0)
        assert np.all(est.alpha_B == 0.0)
        assert not est.unconstrained_mask.any()
        assert est.domain == rc.DOMAIN_BALL_POSITIVE


def test_pbe_positive_mercedes(mb):
    report = rc.positive_facets(mb.poly)
    est = rc.pbe_positive(mb.frame, mb.poly, report, 1.0)
    # every vertex sits on a selected facet, so nothing is unconstrained,
    # and the selected-edge minima agree with the full-ball values here
    assert not est.unconstrained_mask.any()
    assert np.max(np.abs(est.alpha_B + 0.5)) <= 1e-9


def test_pbe_positive_icosahedron(ico):
    report = rc.positive_facets(ico.poly)
    est = rc.pbe_positive(ico.frame, ico.poly, report, 1.0)
    inside = np.array(report.vertex_indices)
    assert np.all(est.alpha_B[inside] == 0.0)
    outside = np.setdiff1d(np.arange(ico.frame.m), inside)
    assert outside.size > 0  # far-octant vertices exist
    assert np.all(est.unconstrained_mask[outside])
    assert np.all(np.isinf(est.alpha_B[outside]))


def test_pbe_positive_requires_coverage():
    # upper-half-circle frame: facets meet the quadrant but miss its interior
    theta = np.array([0.4, 1.2, 2.2, 2.9])
    frame, _, _ = rc.normalize(np.column_stack([np.cos(theta), np.sin(theta)]))
    poly = rc.build_polytope(frame)
    report = rc.positive_facets(poly)
    assert not report.nonneg_omnidirectional
    with pytest.raises(NotNonnegOmnidirectional):
        rc.pbe_positive(frame, poly, report, 1.0)


def test_positive_consistency_sampled(mb, ico):
    # on non-negative inputs, every sample activates one selected facet fully
    rng = np.random.default_rng(65)
    for setup in (mb, ico):
        report = rc.positive_facets(setup.poly)
        est = rc.pbe_positive(setup.frame, setup.poly, report, 1.0)
        xs = oracles.sample_ball_positive(rng, setup.frame.n, 10_000)
        coeff = xs @ setup.frame.elements.T
        bias = np.where(est.unconstrained_mask, np.inf, est.alpha_scaled)
        covered = np.zeros(xs.shape[0], dtype=bool)
        for j in report.facet_indices:
            verts = list(setup.poly.vertices[j])
            ok = np.all(coeff[:, verts] >= bias[verts] - 1e-12, axis=1)
            covered |= ok
        assert covered.all()
        for j in report.facet_indices:
            assert rc.is_frame(setup.frame, setup.poly.vertices[j])


def test_stability_mercedes(mb):
    st = rc.stability(mb.frame, mb.poly, 1.0)
    assert st.A0 == pytest.approx(0.5, abs=1e-12)
    assert st.B0 == pytest.approx(1.5, abs=1e-12)
    assert st.image_radius == pytest.approx(np.sqrt(1.5), abs=1e-12)


def test_stability_cross_polytope():
    frame, _, _ = rc.normalize(np.array([[1.0, 0], [0, 1.0], [-1.0, 0], [0, -1.0]]))
    poly = rc.build_polytope(frame)
    st = rc.stability(frame, poly, 1.0)
    assert st.B0 == pytest.approx(2.0, abs=1e-12)


def test_stability_linear_in_radius(tet):
    st1 = rc.stability(tet.frame, tet.poly, 1.0)
    st2 = rc.stability(tet.frame, tet.poly, 2.0)
    assert st2.image_radius == pytest.approx(2.0 * st1.image_radius, abs=1e-12)
    assert st2.A0 == st1.A0 and st2.B0 == st1.B0


def test_stability_positive_standard_basis():
    frame, _, _ = rc.normalize(np.eye(4))
    poly = rc.build_polytope(frame)
    report = rc.positive_facets(poly)
    st = rc.stability_positive(frame, poly, report, 1.0)
    assert st.A0 == pytest.approx(1.0, abs=1e-12)
    assert st.B0 == pytest.approx(1.0, abs=1e-12)
    assert st.image_radius == pytest.approx(1.0, abs=1e-12)


def test_image_bound_holds_for_zero_bias_layers(ico):
    # with a zero upper bias the forward image stays inside the scaled ball
    rng = np.random.default_rng(66)
    st = rc.stability(ico.frame, ico.poly, 1.0)
    xs = oracles.sample_ball(rng, 3, 10_000)
    z = np.maximum(xs @ ico.frame.elements.T - ico.layer.bias, 0.0)
    norms = np.linalg.norm(z, axis=1)
    assert float(np.max(norms)) <= st.image_radius + 1e-9
    assert np.min(z) >= 0.0


def test_forward_difference_bound_sampled(mb, tet, ico):
    # the layer map is norm-contractive up to sqrt(B0) on differences
    rng = np.random.default_rng(67)
    for setup in (mb, tet, ico):
        st = rc.stability(setup.frame, setup.poly, 1.0)
        xs = oracles.sample_ball(rng, setup.frame.n, 2000)
        ys = oracles.sample_ball(rng, setup.frame.n, 2000)
        zx = np.maximum(xs @ setup.frame.elements.T - setup.layer.bias, 0.0)
        zy = np.maximum(ys @ setup.frame.elements.T - setup.layer.bias, 0.0)
        lhs = np.linalg.norm(zx - zy, axis=1)
        rhs = np.sqrt(st.B0) * np.linalg.norm(xs - ys, axis=1)
        assert np.all(lhs <= rhs + 1e-9)


def test_energy_bounds_diagnostic(mb, ico, capsys):
    # two-sided energy inequality: violations are counted and reported, not
    # asserted; the bias shift moves the output energy away from the
    # unbiased analysis energy wherever the upper bias is negative
    rng = np.random.default_rng(68)
    for setup, label in ((mb, "mercedes"), (ico, "icosahedron")):
        st = rc.stability(setup.frame, setup.poly, 1.0)
        xs = oracles.sample_ball(rng, setup.frame.n, 10_000)
        z = np.maximum(xs @ setup.frame.elements.T - setup.layer.bias, 0.0)
        energy = np.sum(z * z, axis=1)
        sq = np.sum(xs * xs, axis=1)
        low = np.count_nonzero(energy < st.A0 * sq - 1e-9)
        high = np.count_nonzero(energy > st.B0 * sq + 1e-9)
        print(f"energy-bound violations ({label}): below={low} above={high} of {len(xs)}")
        if np.all(setup.layer.bias == 0.0):
            assert low == 0 and high == 0
