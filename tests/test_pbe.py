from collections import Counter

import numpy as np
import pytest

import relucert as rc
from relucert.errors import (DimensionMismatch, FrameMismatch, NotNonnegOmnidirectional,
                             NotOmnidirectional)
from relucert.solvers import TOL_SOLVER

import oracles
from conftest import (BOUND_FRAMES, bound_frame, closed_active_set, random_omnidirectional,
                      spans)


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


def test_estimates_refuse_a_polytope_of_another_frame():
    # the polytope of another frame would raise alpha_B[4] from -0.3952 to
    # -0.1939 and so certify a bias of -0.25 there, which the frame's own
    # estimate rejects
    frame, _, _ = rc.normalize(rc.random_sphere(3, 20, 3))
    other = rc.build_polytope(rc.normalize(rc.random_sphere(3, 20, 103))[0])
    own = rc.build_polytope(frame)
    bias = np.full(frame.m, -1.0)
    bias[4] = -0.25
    estimate = rc.pbe_ball(frame, own, 1.0)
    assert rc.certify(rc.ReLULayer(frame, bias), estimate).failing_indices == (4,)
    positive = rc.positive_facets(other)
    for call in (lambda: rc.pbe_ball(frame, other, 1.0),
                 lambda: rc.pbe_positive(frame, other, positive, 1.0),
                 lambda: rc.stability(frame, other, 1.0),
                 lambda: rc.stability_positive(frame, other, positive, 1.0)):
        with pytest.raises(FrameMismatch, match="polytope was built for a different frame"):
            call()
    # an equal frame that is another object passes the fingerprint check
    twin, _, _ = rc.normalize(rc.random_sphere(3, 20, 3))
    assert np.array_equal(rc.pbe_ball(twin, own, 1.0).alpha_B, estimate.alpha_B)
    assert rc.stability(twin, own, 1.0) == rc.stability(frame, own, 1.0)

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
        for j in np.flatnonzero(poly.incidence[:, i]):
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
            for j in np.flatnonzero(poly.incidence[:, i]):
                idx = list(poly.vertices[j])
                cols = frame.elements[idx].T
                sampled = oracles.cone_sample_min(cols, cols.T @ frame.elements[i],
                                                  samples=2000, seed=int(i))
                assert est.alpha_S[i] <= sampled + 1e-12, (n, i, j)


def _fail_every_cone_program(monkeypatch):
    """Run the estimates' cone programs with tol = -1, which every program
    fails (the estimates themselves take only a tol >= 0)."""
    from relucert import pbe, solvers

    monkeypatch.setattr(pbe, "min_linear_capped_cones",
                        lambda G, c, tol: solvers.min_linear_capped_cones(G, c, -1.0))


def test_solver_failure_names_first_element_and_facet(tet, monkeypatch):
    # with tol = -1 every cone program fails; the error names the first
    # element that needs one, then the first of its facets in scan order
    from relucert.errors import NotConverged, SolverFailed

    frame, _, _ = rc.normalize(random_omnidirectional(3, 16, 65))
    poly = rc.build_polytope(frame)
    report = rc.positive_facets(poly)
    cases = [(tet.frame, tet.poly, range(tet.poly.num_facets), rc.pbe_ball, ()),
             (frame, poly, range(poly.num_facets), rc.pbe_ball, ()),
             (frame, poly, report.facet_indices, rc.pbe_positive, (report,))]
    for frame_, poly_, facets, estimate, extra in cases:
        alpha_x = estimate(frame_, poly_, *extra).alpha_X
        i = int(np.flatnonzero(alpha_x < 0.0)[0])
        j = next(j for j in facets if poly_.incidence[j, i])
        with monkeypatch.context() as patch, pytest.raises(SolverFailed) as err:
            _fail_every_cone_program(patch)
            estimate(frame_, poly_, *extra)
        assert (err.value.index, err.value.facet) == (i, j)
        assert isinstance(err.value.__cause__, NotConverged)


def estimate_cases(frame, poly):
    """(estimate, extra arguments, facet positions) of each domain the frame
    is certifiable on."""
    cases = []
    if rc.is_omnidirectional(poly):
        cases.append((rc.pbe_ball, (), range(poly.num_facets)))
    report = rc.positive_facets(poly)
    if report.nonneg_omnidirectional:
        cases.append((rc.pbe_positive, (report,), report.facet_indices))
    return cases


def recording_solver(monkeypatch):
    """Patch the estimate's cone solver to record each program it solves, as
    the bytes of its G and c; returns the list it appends to."""
    from relucert import pbe as pbe_module

    solved = []

    def recording(G, c, tol=TOL_SOLVER):
        solved.extend((g.tobytes(), v.tobytes()) for g, v in zip(G, c))
        return rc.min_linear_capped_cones(G, c, tol)

    monkeypatch.setattr(pbe_module, "min_linear_capped_cones", recording)
    return solved


@pytest.mark.parametrize("name", BOUND_FRAMES)
def test_pruned_estimate_matches_full_scan(name, monkeypatch):
    # alpha_S and alpha_B bit for bit those of a scan that solves every
    # program; each skipped program's lemma bound exceeds the alpha_X entry
    # it was compared with, its result exceeds alpha_B, it did not fail,
    # and it is not its element's first program
    frame, poly = bound_frame(name)
    cases = estimate_cases(frame, poly)
    assert cases
    solved = recording_solver(monkeypatch)
    for estimate, extra, facets in cases:
        solved.clear()
        est = estimate(frame, poly, *extra)
        a_x, a_s, a_b, programs = oracles.full_scan_estimate(frame, poly, list(facets))
        for got, want in ((est.alpha_X, a_x), (est.alpha_S, a_s), (est.alpha_B, a_b)):
            assert got.tobytes() == want.tobytes()
        # programs are known by their G and c only, and congruent facets
        # repeat them: per (G, c), as many programs as were skipped must
        # qualify for skipping
        skipped = Counter((G.tobytes(), c.tobytes()) for _, _, G, c, *_ in programs)
        skipped.subtract(solved)
        assert min(skipped.values(), default=0) >= 0
        first = {}
        for pos, i, *_ in programs:
            first.setdefault(i, pos)
        for pos, i, G, c, result, failed, bound in programs:
            if bound > a_x[i] and result > a_b[i] and not failed and pos != first[i]:
                skipped[G.tobytes(), c.tobytes()] -= 1
        assert max(skipped.values(), default=0) <= 0


def test_pruning_skips_most_programs(monkeypatch):
    # on benchmark-like frames most programs cannot set alpha_S
    solved = recording_solver(monkeypatch)
    for n, m in ((5, 30), (6, 16), (4, 60)):
        frame, _, _ = rc.normalize(rc.random_sphere(n, m, 1))
        poly = rc.build_polytope(frame)
        solved.clear()
        rc.pbe_ball(frame, poly)
        programs = oracles.full_scan_estimate(frame, poly, range(poly.num_facets))[3]
        assert 0 < len(solved) < 0.8 * len(programs), (n, m)


def test_facet_groups_match_incidence_reference(monkeypatch):
    # one group per facet size, ascending: the indices of its facets and
    # their ascending (F_k, k) vertex arrays, in the polytope's read-only
    # table and for every facet, for the ball+ subset and for `np.unique`
    # picks (one of a single facet), on hulls with one and with three facet
    # sizes; with tol = -1 every cone program fails, and SolverFailed names
    # the pair a scan by element, then by facet, meets first, on both domains
    from relucert.errors import SolverFailed
    from relucert.polytope import facet_groups

    rng = np.random.default_rng(67)
    sizes = set()
    for points in (oracles.cell24(), random_omnidirectional(4, 24, 66), oracles.ternary(4, 30, 0)):
        frame, _, _ = rc.normalize(points)
        poly = rc.build_polytope(frame)
        report = rc.positive_facets(poly)
        assert 0 < len(report.facet_indices) < poly.num_facets
        every = range(poly.num_facets)
        pick = np.unique(rng.integers(0, poly.num_facets, poly.num_facets // 2))
        cases = [(every, poly.facets_by_size)] + [
            (indices, list(facet_groups(poly, indices)))
            for indices in (every, report.facet_indices, pick, pick[:1])]
        for indices, got in cases:
            want = oracles.facet_groups(poly, indices)
            assert len(got) == len(want)
            for (facets, verts), (want_facets, want_verts) in zip(got, want):
                assert np.array_equal(facets, want_facets)
                assert np.array_equal(verts, want_verts)
                assert np.all(np.diff(verts, axis=1) > 0)
                sizes.add(verts.shape[1])
        assert not any(a.flags.writeable for group in poly.facets_by_size for a in group)
        for facets, estimate in ((range(poly.num_facets), rc.pbe_ball),
                                 (report.facet_indices, rc.pbe_positive)):
            args = (frame, poly) if estimate is rc.pbe_ball else (frame, poly, report)
            with monkeypatch.context() as patch, pytest.raises(SolverFailed) as err:
                _fail_every_cone_program(patch)
                estimate(*args)
            programs = oracles.full_scan_estimate(frame, poly, facets, tol=-1.0)[3]
            i, pos = min((i, pos) for pos, i, *_, failed, _ in programs if failed)
            assert (err.value.index, err.value.facet) == (i, facets[pos])
    assert sizes == {4, 5, 6}  # the ternary hull has facets of three sizes


def test_radius_scaling_multiplies(mb):
    est2 = rc.pbe_ball(mb.frame, mb.poly, 2.0)
    assert np.allclose(est2.alpha_scaled, 2.0 * est2.alpha_B)
    assert np.allclose(est2.alpha_B, mb.estimate.alpha_B)
    with pytest.raises(ValueError):
        rc.pbe_ball(mb.frame, mb.poly, -1.0)


def test_library_checks_radius_and_tol_as_the_cli_does(tet):
    # the estimates and the stability bounds refuse the radii and solver
    # tolerances that the CLI's --radius and --tol refuse, with ValueError
    report = rc.positive_facets(tet.poly)
    calls = {
        "pbe_ball": lambda **kw: rc.pbe_ball(tet.frame, tet.poly, **kw),
        "pbe_positive": lambda **kw: rc.pbe_positive(tet.frame, tet.poly, report, **kw),
        "stability": lambda **kw: rc.stability(tet.frame, tet.poly, **kw),
        "stability_positive": lambda **kw: rc.stability_positive(tet.frame, tet.poly, report,
                                                                 **kw),
    }
    for name, call in calls.items():
        for radius in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="radius must be finite and positive"):
                call(radius=radius)
        if name.startswith("pbe"):
            for tol in (-1.0, -1e-300, np.inf, np.nan):
                with pytest.raises(ValueError, match="tol must be finite and at least 0"):
                    call(tol=tol)
            assert call(tol=0.0).tol == 0.0
            assert call(tol=1e-6).tol == 1e-6
            assert call().tol == TOL_SOLVER


def test_ball_plus_subset_builds_no_full_facet_table():
    # a ball+ estimate and its A0 over a strict subset of the facets group
    # the subset's own incidence rows: the polytope's table is not built
    frame, _, _ = rc.normalize(oracles.cell24())
    poly = rc.build_polytope(frame)
    report = rc.positive_facets(poly)
    assert 0 < len(report.facet_indices) < poly.num_facets
    rc.pbe_positive(frame, poly, report)
    rc.stability_positive(frame, poly, report)
    assert "facets_by_size" not in poly.__dict__


def test_active_sets_span_on_ball_samples(mb, tet, ico):
    rng = np.random.default_rng(63)
    for setup in (mb, tet, ico):
        xs = oracles.sample_ball(rng, setup.frame.n, 10_000)
        assert rc.spanning_failures(setup.layer, xs) == []


def test_active_sets_span_random_frames():
    from conftest import build_setup

    rng = np.random.default_rng(64)
    for n, m, seed in ((2, 10, 641), (3, 14, 642), (4, 12, 643)):
        setup = build_setup(random_omnidirectional(n, m, seed))
        xs = oracles.sample_ball(rng, n, 2000)
        assert rc.spanning_failures(setup.layer, xs) == []


def test_spanning_failures_exit_facet_through_origin():
    # facet (0, 2) has offset 0: rays exiting through it have active set
    # {0, 2}, which contains its vertices but spans only a line
    frame, bias, _ = rc.normalize(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), np.zeros(3))
    poly = rc.build_polytope(frame)
    assert not rc.is_omnidirectional(poly)
    layer = rc.ReLULayer(frame, bias, 1.0)
    xs = np.array([[0.0, -1.0], [0.0, -0.5], [0.6, 0.8]])
    assert [closed_active_set(layer, x) for x in xs[:2]] == [(0, 2), (0, 2)]
    assert not spans(frame, (0, 2))
    assert rc.spanning_failures(layer, xs) == [0, 1]


def test_spanning_failures_match_brute_force_rank_check():
    # uncertified biases on hulls with the origin inside and on their
    # absolute values, whose hulls miss it: many active sets fail to span,
    # and the stacked test must give the failures of a per-sample
    # rank test (`spans`) on each active set, the zero sample included
    rng = np.random.default_rng(65)
    omnidirectional, failures = [], 0
    for n, m, seed in ((2, 6, 651), (3, 9, 652), (3, 12, 653), (4, 10, 654)):
        points = np.vstack([random_omnidirectional(n, m, seed), -np.eye(n)[:1]])
        for pts in (points, np.abs(points)):
            frame, _, _ = rc.normalize(pts)
            poly = rc.build_polytope(frame)
            omnidirectional.append(rc.is_omnidirectional(poly))
            for bias in (rng.uniform(-0.3, 0.6, frame.m), np.full(frame.m, 0.2)):
                layer = rc.ReLULayer(frame, bias)
                xs = np.vstack([np.zeros(n), oracles.sample_ball(rng, n, 300)])
                want = [s for s, x in enumerate(xs)
                        if not ((active := closed_active_set(layer, x))
                                and spans(frame, active))]
                assert rc.spanning_failures(layer, xs) == want
                failures += len(want)
    assert omnidirectional == [True, False] * 4
    assert failures > 1000


def test_spanning_failures_validates_its_samples(tet):
    # as `forward` does: a non-finite row or a wrong width is a
    # DimensionMismatch, not a spanning failure or numpy's own error
    xs = oracles.sample_ball(np.random.default_rng(66), 3, 5)
    xs[0, 1] = np.nan
    for bad in (xs, np.zeros((4, 2)), np.zeros(3)):
        with pytest.raises(DimensionMismatch):
            rc.spanning_failures(tet.layer, bad)


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
            assert spans(setup.frame, setup.poly.vertices[j])


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
