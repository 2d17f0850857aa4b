import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relucert as rc
from relucert.errors import (DimensionMismatch, FrameMismatch, NotAFrame,
                             ReconstructionFailed)
from relucert.frames import spanning
from relucert.layer import VERIFY_TOL

import oracles
from conftest import build_setup, closed_active_set, random_omnidirectional


def test_forward_examples(mb):
    z = rc.forward(mb.layer, [0.0, 1.0])
    assert np.allclose(z, [1.5, 0.0, 0.0], atol=1e-15)
    # coefficients exactly at the bias give a zero vector
    boundary = rc.forward(rc.ReLULayer(mb.frame, mb.frame.elements @ np.array([0.1, 0.2])),
                          [0.1, 0.2])
    assert np.allclose(boundary, 0.0)
    basis, _, _ = rc.normalize(np.eye(3))
    layer = rc.ReLULayer(basis, np.zeros(3))
    assert np.allclose(rc.forward(layer, [0.3, -0.7, 0.0]), [0.3, 0.0, 0.0])
    assert np.min(rc.forward(mb.layer, [0.3, -0.2])) >= 0.0


def test_forward_batch_matches_rows_and_warns_once(tet):
    rng = np.random.default_rng(78)
    xs = oracles.sample_ball(rng, 3, 40)
    xs[17] = [0.0, 2.0, 0.0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        zs = rc.forward(tet.layer, xs)
    assert len(caught) == 1 and issubclass(caught[0].category, UserWarning)
    assert zs.shape == (40, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = np.array([rc.forward(tet.layer, x) for x in xs])
    assert np.max(np.abs(zs - rows)) <= 1e-15
    with pytest.raises(DimensionMismatch):
        rc.forward(tet.layer, np.zeros((5, 2)))


def test_forward_warns_outside_ball(mb):
    with pytest.warns(UserWarning):
        rc.forward(mb.layer, [3.0, 0.0])
    with pytest.raises(DimensionMismatch):
        rc.forward(mb.layer, [1.0, 2.0, 3.0])


def test_active_set_boundary_equalities(mb):
    # two exact equalities stay active, and their outputs are zero
    assert closed_active_set(mb.layer, [0.0, 1.0]) == (0, 1, 2)
    assert np.flatnonzero(rc.forward(mb.layer, [0.0, 1.0]) > 0.0).tolist() == [0]


def test_active_set_trivial_bias(mb):
    rng = np.random.default_rng(71)
    layer = rc.ReLULayer(mb.frame, np.full(3, -2.0), 2.0)
    for _ in range(50):
        x = oracles.sample_ball(rng, 2, 1, radius=2.0)[0]
        assert closed_active_set(layer, x) == (0, 1, 2)


def test_certify_examples(mb):
    cert = rc.certify(rc.ReLULayer(mb.frame, np.full(3, -0.6)), mb.estimate)
    assert cert.injective
    assert np.allclose(cert.margins, 0.1)
    assert cert.failing_indices == ()

    cert = rc.certify(rc.ReLULayer(mb.frame, np.full(3, -0.4)), mb.estimate)
    assert not cert.injective
    assert cert.failing_indices == (0, 1, 2)

    est2 = rc.pbe_ball(mb.frame, mb.poly, 2.0)
    cert = rc.certify(rc.ReLULayer(mb.frame, np.full(3, -1.0), 2.0), est2)
    assert cert.injective


def test_certify_mismatches(mb, tet):
    with pytest.raises(FrameMismatch):
        rc.certify(rc.ReLULayer(tet.frame, np.zeros(4)), mb.estimate)
    with pytest.raises(FrameMismatch):
        rc.certify(rc.ReLULayer(mb.frame, np.zeros(3), 2.0), mb.estimate)
    with pytest.raises(FrameMismatch):
        rc.certify(rc.ReLULayer(mb.frame, np.zeros(3), 1.0, rc.DOMAIN_BALL_POSITIVE),
                   mb.estimate)


def test_certify_margin_scales_with_the_radius():
    # alpha_scaled + 0.9 r fails every entry at every radius r; at r = 1e-12
    # that bias is positive entrywise and the layer sends two inputs to 0,
    # while an absolute slack of 1e-12 would have certified it. A margin
    # above -1e-12 r passes at every radius.
    frame, _, _ = rc.normalize(rc.random_sphere(3, 20, 1))
    poly = rc.build_polytope(frame)
    for radius in (1e-12, 1.0, 1e6):
        est = rc.pbe_ball(frame, poly, radius)
        layer = rc.ReLULayer(frame, est.alpha_scaled + 0.9 * radius, radius)
        cert = rc.certify(layer, est)
        assert not cert.injective and cert.failing_indices == tuple(range(20))
        assert rc.certify(rc.ReLULayer(frame, est.alpha_scaled + 0.5e-12 * radius, radius),
                          est).injective
        if radius == 1e-12:
            assert layer.bias.min() > 0.0
            zs = rc.forward(layer, np.array([[1e-13, 0.0, 0.0], [0.0, 2e-13, 0.0]]))
            assert not zs.any()


def test_ball_checks_are_relative_to_the_radius(tet):
    # an input 500 radii outside a ball of radius 1e-12 draws the warning;
    # inputs on a sphere of radius 1e9, some of whose norms round above it,
    # do not
    small = rc.ReLULayer(tet.frame, np.zeros(4), 1e-12)
    with pytest.warns(UserWarning):
        rc.forward(small, [5e-10, 0.0, 0.0])
    x = np.random.default_rng(87).standard_normal((200, 3))
    x *= 1e9 / np.linalg.norm(x, axis=1)[:, None]
    assert np.linalg.norm(x, axis=1).max() > 1e9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc.forward(rc.ReLULayer(tet.frame, np.zeros(4), 1e9), x)
    # certify matches radii within 1e-12 times the layer's: an estimate for
    # radius 1e-13 does not serve radius 1e-12, one for 1e6 serves 1e6 + 1 ulp
    est = rc.pbe_ball(tet.frame, tet.poly, 1e-13)
    with pytest.raises(FrameMismatch):
        rc.certify(rc.ReLULayer(tet.frame, est.alpha_scaled, 1e-12), est)
    est = rc.pbe_ball(tet.frame, tet.poly, 1e6)
    layer = rc.ReLULayer(tet.frame, est.alpha_scaled, np.nextafter(1e6, 2e6))
    assert rc.certify(layer, est).injective


def test_certify_ignores_unconstrained_entries(ico):
    report = rc.positive_facets(ico.poly)
    est = rc.pbe_positive(ico.frame, ico.poly, report, 1.0)
    bias = np.zeros(ico.frame.m)
    bias[list(set(range(ico.frame.m)) - set(report.vertex_indices))] = 99.0
    layer = rc.ReLULayer(ico.frame, bias, 1.0, rc.DOMAIN_BALL_POSITIVE)
    cert = rc.certify(layer, est)
    assert cert.injective


def test_facet_dual_shapes(mb, tet):
    assert mb.poly.num_facets == 3
    assert all(oracles.facet_dual(mb.frame, mb.poly.vertices[j]).shape == (2, 2)
               for j in range(3))
    assert tet.poly.num_facets == 4
    assert all(oracles.facet_dual(tet.frame, tet.poly.vertices[j]).shape == (3, 3)
               for j in range(4))
    basis, _, _ = rc.normalize(np.eye(3))
    poly = rc.build_polytope(basis)
    assert poly.num_facets == 1
    assert np.allclose(oracles.facet_dual(basis, poly.vertices[0]), np.eye(3), atol=1e-12)


def test_facet_dual_rejects_origin_facet():
    # hull of these three has an edge through the origin: rank-deficient
    frame, _, _ = rc.normalize(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
    poly = rc.build_polytope(frame)
    with pytest.raises(NotAFrame):
        oracles.facet_dual(frame, poly.vertices[0])


def test_facet_dual_decomposition_identity(mb, tet, ico):
    rng = np.random.default_rng(72)
    for setup in (mb, tet, ico):
        for j, verts in enumerate(setup.poly.vertices):
            dual = oracles.facet_dual(setup.frame, verts)
            for _ in range(10):
                x = rng.standard_normal(setup.frame.n)
                coeff = setup.frame.elements[list(verts)] @ x
                assert np.max(np.abs(dual @ coeff - x)) <= 1e-10


def test_reconstruct_example(mb):
    z = rc.forward(mb.layer, [0.0, 0.5])
    assert np.allclose(z, [1.0, 0.25, 0.25])
    xhat = rc.reconstruct(mb.layer, z)
    assert np.max(np.abs(xhat - [0.0, 0.5])) <= 1e-10


def test_reconstruct_tetrahedron_roundtrip(tet):
    rng = np.random.default_rng(73)
    xs = oracles.sample_ball(rng, 3, 100)
    for x in xs:
        xhat = rc.reconstruct(tet.layer, rc.forward(tet.layer, x))
        assert np.max(np.abs(xhat - x)) <= 1e-8


def test_reconstruct_zero_output_has_no_preimage(mb):
    # with bias -r every coefficient of a ball point clears the threshold
    # somewhere, so the all-zero output cannot come from the ball; its
    # preimage set is empty, and the least-distance program finds no point
    layer = rc.ReLULayer(mb.frame, np.full(3, -1.0), 1.0)
    with pytest.raises(ReconstructionFailed, match="output has no unique verified preimage"):
        rc.reconstruct(layer, np.zeros(3))
    assert oracles.preimage_vertices(layer, np.zeros(3)) == []
    zs = np.vstack([np.zeros(3), rc.forward(layer, [0.0, 0.5])])
    xs, failed = rc.reconstruct_batch(layer, zs)
    assert failed.tolist() == [True, False]
    assert np.isnan(xs[0]).all() and np.max(np.abs(xs[1] - [0.0, 0.5])) <= 1e-10


def test_reconstruct_mismatches(mb, tet):
    positive_layer = rc.ReLULayer(mb.frame, mb.layer.bias, 1.0, rc.DOMAIN_BALL_POSITIVE)
    with pytest.raises(ValueError):
        rc.reconstruct(positive_layer, np.zeros(3))
    with pytest.raises(ValueError):
        rc.reconstruct_batch(positive_layer, np.zeros((1, 3)))
    with pytest.raises(DimensionMismatch):
        rc.reconstruct(tet.layer, np.zeros(3))
    with pytest.raises(DimensionMismatch):
        rc.reconstruct_batch(mb.layer, np.zeros((2, 4)))
    with pytest.raises(DimensionMismatch):
        rc.reconstruct(mb.layer, np.zeros((1, 3)))


def _boundary_outputs(setup, xs):
    """Outputs of xs with every coefficient within 1e-12 of its bias set to
    the exact boundary value 0: the inputs below sit where a certified
    coefficient equals its bias."""
    coeff = xs @ setup.frame.elements.T - setup.layer.bias
    return np.where(np.abs(coeff) <= 1e-12, 0.0, np.maximum(coeff, 0.0))


def _pattern_spans(layer, zs):
    return spanning(rc.layer._frame_operators(layer.frame.elements, zs > 0.0))


def _recording_preimage_rows(monkeypatch):
    """Record the rows (R, m) that each call of the preimage stage gets."""
    calls = []
    preimage_points = rc.layer._preimage_points

    def recording(layer, zs):
        calls.append(zs.copy())
        return preimage_points(layer, zs)

    monkeypatch.setattr(rc.layer, "_preimage_points", recording)
    return calls


def _vertex_inputs(setup, rng, count):
    """Per facet of the first `count`, the input that puts a random number
    (one to all) of its vertices' coefficients at their bias and lifts the
    others by up to 0.1; those of norm below 0.99."""
    elements, bias = setup.frame.elements, setup.layer.bias
    xs = []
    for idx in map(list, setup.poly.vertices[:count]):
        lift = rng.uniform(0.0, 0.1, len(idx))
        lift[:rng.integers(1, len(idx) + 1)] = 0.0
        xs.append(np.linalg.lstsq(elements[idx], bias[idx] + lift, rcond=None)[0])
    return np.array([x for x in xs if np.linalg.norm(x) < 0.99])


def test_reconstruct_batch_matches_rowwise_oracle(mb, tet):
    # certified layers at inputs with coefficients at the bias: random
    # layers at `_vertex_inputs`, inside the ball, where many patterns do not
    # span, each preimage set is the input alone and the row settles within
    # 1e-12 of it; so do Mercedes-Benz at each element and the tetrahedron
    # at each edge midpoint direction, on the sphere. In-ball, zero and
    # mostly-outside rows follow the row-wise oracle, in blocks of every
    # size.
    rng = np.random.default_rng(79)
    mids = [tet.frame.elements[i] + tet.frame.elements[j]
            for i in range(4) for j in range(i + 1, 4)]
    mids = np.array(mids) / np.linalg.norm(mids, axis=1)[:, None]
    cases = [(mb, mb.frame.elements), (tet, mids)]
    for n, m, seed in ((2, 7, 791), (2, 12, 751), (3, 18, 752), (4, 14, 753)):
        setup = build_setup(random_omnidirectional(n, m, seed))
        cases.append((setup, _vertex_inputs(setup, rng, 30)))
    lost = 0  # boundary rows whose pattern does not span
    for setup, inputs in cases:
        n, m = setup.frame.n, setup.frame.m
        boundary = _boundary_outputs(setup, inputs)
        got, failed = rc.reconstruct_batch(setup.layer, boundary)
        assert not failed.any() and np.max(np.abs(got - inputs)) <= 1e-12
        lost += int((~_pattern_spans(setup.layer, boundary)).sum())
        if n > 3:
            continue
        zs = rng.permutation(np.vstack([
            rc.forward(setup.layer, oracles.sample_ball(rng, n, 100)),
            np.zeros((1, m)),                     # outside the image
            np.abs(rng.standard_normal((10, m))) * (rng.random((10, m)) < 0.5)]))
        want, want_failed = oracles.reconstruct_rows(setup.layer, zs)
        blocks = [rc.reconstruct_batch(setup.layer, block) for block in np.split(zs, [1, 8, 63])]
        got = np.vstack([xs for xs, _ in blocks])
        failed = np.concatenate([f for _, f in blocks])
        assert np.array_equal(failed, want_failed)
        assert np.isnan(got[failed]).all()
        assert np.max(np.abs(got[~failed] - want[~failed])) <= 1e-12
        assert failed.any() and not failed.all()
    assert lost >= 15


def test_exact_boundary_rows_match_the_vertex_oracle():
    # the cross-polytope {+-e_i} at bias 0 (certified: its alpha_B is 0)
    # and dyadic inputs: every coefficient is exact, so the exact preimage
    # set of each output is the preimage set the library decides. Inputs
    # with zero coordinates sit on cone boundaries, and x = 0 gives the
    # zero output, whose preimage set {0} is one point.
    frame, _, _ = rc.normalize(np.vstack([np.eye(3), -np.eye(3)]))
    layer = rc.ReLULayer(frame, np.zeros(6))
    rng = np.random.default_rng(83)
    xs = rng.integers(-4, 5, (200, 3)) / 8.0
    xs = xs[np.linalg.norm(xs, axis=1) < 1.0]
    zs = rc.forward(layer, xs)
    want, want_failed = oracles.reconstruct_rows(layer, zs, xs)
    got, failed = rc.reconstruct_batch(layer, zs)
    assert not _pattern_spans(layer, zs).all() and not failed.any() and not want_failed.any()
    assert np.array_equal(got, xs) and np.array_equal(want, xs)
    # at bias 1/8 an input with a coordinate in [-1/8, 1/8] can move along
    # it: the rows whose pattern does not span are ambiguous
    lifted = rc.ReLULayer(frame, np.full(6, 0.125))
    zs = rc.forward(lifted, xs)
    want, want_failed = oracles.reconstruct_rows(lifted, zs, xs)
    got, failed = rc.reconstruct_batch(lifted, zs)
    assert np.array_equal(failed, want_failed)
    assert np.array_equal(failed, ~_pattern_spans(lifted, zs)) and failed.any()
    assert np.array_equal(got[~failed], xs[~failed])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from(["random", "near-duplicate", "coplanar", "cross-polytope"]),
       st.integers(2, 3), st.integers(0, 2 ** 31 - 1))
def test_reconstruct_batch_matches_vertex_oracle_on_fuzz_frames(kind, n, seed):
    # certified and forced (alpha_scaled + 0.2) layers of fuzz frames with
    # n <= 3: in-ball rows, a zero row and sparse positive rows. No row the
    # library fails has one exact preimage, and every row the oracle calls
    # ambiguous comes with two distinct preimages, in the ball for the
    # in-ball rows. A row the library settles has every exact vertex within
    # 1e-9 of its x: one, or none where the data sit within rounding of a
    # boundary (a cross-polytope jittered by 1e-12 at bias -1e-12 has an
    # empty exact preimage of zero, and x = 0 verifies within VERIFY_TOL)
    rng = np.random.default_rng(seed)
    frame, _, _ = rc.normalize(oracles.fuzz_frame(kind, n, rng))
    try:
        poly = rc.build_polytope(frame)
        alpha = rc.pbe_ball(frame, poly, 1.0).alpha_scaled
    except (ValueError, rc.RelucertError):
        return
    xs = oracles.sample_ball(rng, n, 40)
    sparse = np.abs(rng.standard_normal((4, frame.m))) * (rng.random((4, frame.m)) < 1.5 / frame.m)
    for lift in (0.0, 0.2):
        layer = rc.ReLULayer(frame, alpha + lift)
        zs = np.vstack([rc.forward(layer, xs), np.zeros((1, frame.m)), sparse])
        inputs = np.vstack([xs, np.full((5, n), np.nan)])
        want, want_failed = oracles.reconstruct_rows(layer, zs, inputs)
        got, failed = rc.reconstruct_batch(layer, zs)
        assert want_failed[failed].all()
        assert np.isnan(got[failed]).all()
        assert np.max(np.abs(got[~want_failed] - want[~want_failed]), initial=0.0) <= 1e-9
        for i in np.flatnonzero(want_failed & ~failed):
            vertices = np.array(oracles.preimage_vertices(layer, zs[i]), dtype=float).reshape(-1, n)
            assert np.max(np.abs(vertices - got[i]), initial=0.0) <= 1e-9


def test_certified_in_ball_rows_settle_in_the_pattern_stage(monkeypatch, mb, tet, ico):
    # every in-ball row of a certified layer has a spanning positive pattern
    # whose solve verifies: the pattern solve settles it, and it is at
    # least as close to its input as the row-wise oracle's facet dual
    calls = _recording_preimage_rows(monkeypatch)
    rng = np.random.default_rng(85)
    setups = [mb, tet, ico] + [build_setup(random_omnidirectional(n, m, seed))
                               for n, m, seed in ((2, 12, 751), (3, 18, 752), (4, 14, 753))]
    for setup in setups:
        xs = oracles.sample_ball(rng, setup.frame.n, 300)
        zs = rc.forward(setup.layer, xs)
        got, failed = rc.reconstruct_batch(setup.layer, zs)
        want, _ = oracles.reconstruct_rows(setup.layer, zs)
        assert not failed.any()
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.max(np.abs(got - xs)) <= max(np.max(np.abs(want - xs)), 1e-15)
    assert calls == []


def test_boundary_equality_pattern_settles_by_its_preimage_set(monkeypatch, mb):
    # x = (0, 1) puts two Mercedes-Benz coefficients exactly at the bias:
    # the positive pattern {0} does not span, its null line meets the two
    # boundary constraints from both sides, and the preimage stage settles
    # the row at x
    calls = _recording_preimage_rows(monkeypatch)
    z = rc.forward(mb.layer, [0.0, 1.0])
    assert np.flatnonzero(z > 0.0).tolist() == [0]
    got, failed = rc.reconstruct_batch(mb.layer, z[None, :])
    assert not failed[0] and np.max(np.abs(got[0] - [0.0, 1.0])) <= 1e-12
    assert [rows.shape[0] for rows in calls] == [1]


def test_spanning_pattern_without_preimage_fails_at_once(monkeypatch, tet):
    # every entry positive: the pattern spans, its solve does not reproduce
    # the output, so no input does, and the row fails without the preimage
    # stage
    calls = _recording_preimage_rows(monkeypatch)
    rng = np.random.default_rng(86)
    for setup in (tet, build_setup(random_omnidirectional(3, 18, 752))):
        zs = rng.uniform(0.1, 2.0, (30, setup.frame.m))
        got, failed = rc.reconstruct_batch(setup.layer, zs)
        _, want_failed = oracles.reconstruct_rows(setup.layer, zs)
        assert failed.all() and np.array_equal(failed, want_failed)
        assert np.isnan(got).all()
    assert calls == []


def test_zero_output_rows_never_abort_a_batch(mb, tet):
    # an all-zero row has an empty pattern, whose frame operator is zero;
    # it goes to the preimage stage, alone or among other rows, and fails
    # as in the row-wise oracle: at the certified bias its preimage set is
    # empty, and under a positive bias it holds a ball around x = 0
    rng = np.random.default_rng(87)
    for setup in (mb, tet):
        m = setup.frame.m
        for bias in (setup.layer.bias, np.full(m, 0.25)):
            layer = rc.ReLULayer(setup.frame, bias)
            mixed = rc.forward(layer, oracles.sample_ball(rng, setup.frame.n, 20))
            for zs in (np.zeros((3, m)), np.vstack([mixed[:10], np.zeros((2, m)), mixed[10:]])):
                got, failed = rc.reconstruct_batch(layer, zs)
                want, want_failed = oracles.reconstruct_rows(layer, zs)
                assert np.array_equal(failed, want_failed)
                assert np.isnan(got[failed]).all()
                assert np.max(np.abs(got[~failed] - want[~failed]), initial=0.0) <= 1e-12
            assert rc.reconstruct_batch(layer, np.zeros((1, m)))[1][0]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(2, 3), st.integers(0, 8), st.integers(0, 2 ** 31 - 1))
def test_reconstruct_batch_matches_rowwise_oracle_on_random_layers(n, extra, seed):
    # certified random layers: in-ball outputs, an all-zero row and outputs
    # mostly outside the image, against the row-wise oracle. An in-ball row
    # may also be farther than 1e-12 from the oracle if it is closer to its
    # input: the oracle's facet dual is the worse conditioned solve (on
    # n = 2, m = 13, seed 1815832229 it misses the input by 1.3e-10)
    rng = np.random.default_rng(seed)
    setup = build_setup(random_omnidirectional(n, n + 3 + extra, seed))
    m = setup.frame.m
    xs = oracles.sample_ball(rng, n, 40)
    zs = np.vstack([rc.forward(setup.layer, xs), np.zeros((1, m)),
                    np.abs(rng.standard_normal((5, m))) * (rng.random((5, m)) < 0.5)])
    got, failed = rc.reconstruct_batch(setup.layer, zs)
    want, want_failed = oracles.reconstruct_rows(setup.layer, zs)
    assert np.array_equal(failed, want_failed)
    assert not failed[:40].any() and np.isnan(got[failed]).all()
    near = np.max(np.abs(got - want), axis=1) <= 1e-12
    closer = np.max(np.abs(got[:40] - xs), axis=1) <= np.max(np.abs(want[:40] - xs), axis=1)
    assert (near[:40] | closer).all() and (near[40:] | failed[40:]).all()


@pytest.mark.parametrize("n, m, seed, lift, lost", [(5, 60, 1, 0.45, 3), (4, 60, 1, 0.3, 9),
                                                    (6, 100, 7, 0.6, 20), (6, 200, 7, 0.6, 66)])
def test_forced_layers_fail_every_row_whose_pattern_does_not_span(n, m, seed, lift, lost):
    # uncertified layers (alpha_scaled + lift), 256 ball inputs: every row
    # whose positive pattern spans settles within VERIFY_TOL of its input,
    # the only preimage in R^n. Every other row fails: its input lies
    # strictly inside its preimage set, so a step along the pattern's null
    # space that stays inside the ball and short of every other constraint
    # gives a second preimage
    frame, _, _ = rc.normalize(rc.random_sphere(n, m, seed))
    layer = rc.ReLULayer(frame, rc.pbe_ball(frame, rc.build_polytope(frame), 1.0).alpha_scaled
                         + lift)
    xs = oracles.sample_ball(np.random.default_rng(0), n, 256)
    zs = rc.forward(layer, xs)
    got, failed = rc.reconstruct_batch(layer, zs)
    assert failed.sum() == lost and np.array_equal(failed, ~_pattern_spans(layer, zs))
    assert np.isnan(got[failed]).all()
    assert np.max(np.abs(got[~failed] - xs[~failed])) <= VERIFY_TOL
    for x, z in zip(xs[failed], zs[failed]):
        pattern = frame.elements[z > 0.0]
        direction = np.linalg.svd(np.vstack([pattern, np.zeros((1, n))]))[2][-1]
        slack = layer.bias[z == 0.0] - frame.elements[z == 0.0] @ x
        assert slack.min() > 0.0
        step = 0.5 * min(np.min(slack / np.abs(frame.elements[z == 0.0] @ direction)),
                         1.0 - np.linalg.norm(x))
        other = x + step * direction
        assert step > 1e-6 and np.linalg.norm(other) < 1.0
        assert np.max(np.abs(rc.forward(layer, other) - z)) <= 1e-12


def test_covering_facet_candidate_always_verifies(mb, tet, ico):
    # every facet cone containing x yields a left-inverse that passes the gate
    rng = np.random.default_rng(74)
    for setup in (mb, tet, ico):
        poly = setup.poly
        facets = list(zip(poly.vertices, poly.normals, poly.offsets))
        for x in oracles.sample_ball(rng, setup.frame.n, 300):
            exits = oracles.ray_exit_facets(setup.frame.elements, facets, x)
            assert exits
            z = rc.forward(setup.layer, x)
            for j in exits:
                idx = list(poly.vertices[j])
                xhat = oracles.facet_dual(setup.frame, idx) @ (z[idx] + setup.layer.bias[idx])
                assert np.max(np.abs(xhat - x)) <= 1e-9
                assert np.max(np.abs(rc.forward(setup.layer, xhat) - z)) <= 1e-8


def test_roundtrip_random_layers():
    rng = np.random.default_rng(75)
    for n, m, seed in ((2, 12, 751), (3, 18, 752), (4, 14, 753)):
        setup = build_setup(random_omnidirectional(n, m, seed))
        xs = oracles.sample_ball(rng, n, 200)
        worst = 0.0
        for x in xs:
            xhat = rc.reconstruct(setup.layer, rc.forward(setup.layer, x))
            worst = max(worst, float(np.max(np.abs(xhat - x))))
        assert worst <= 1e-8


def test_injectivity_witness_sampled(mb, tet):
    # certified layers: outputs that coincide force inputs to coincide
    rng = np.random.default_rng(76)
    for setup in (mb, tet):
        xs = oracles.sample_ball(rng, setup.frame.n, 10_000)
        ys = oracles.sample_ball(rng, setup.frame.n, 10_000)
        zx = np.maximum(xs @ setup.frame.elements.T - setup.layer.bias, 0.0)
        zy = np.maximum(ys @ setup.frame.elements.T - setup.layer.bias, 0.0)
        same_out = np.max(np.abs(zx - zy), axis=1) <= 1e-12
        close_in = np.linalg.norm(xs - ys, axis=1) <= 1e-8
        assert np.all(~same_out | close_in)
        # and exact collisions reconstruct to the same point
        x = xs[0]
        assert np.array_equal(rc.forward(setup.layer, x), rc.forward(setup.layer, x.copy()))


def test_layer_validation(mb):
    with pytest.raises(ValueError):
        rc.ReLULayer(mb.frame, np.zeros(3), radius=0.0)
    with pytest.raises(DimensionMismatch):
        rc.ReLULayer(mb.frame, np.zeros(4))


def test_layer_rejects_non_finite_radius(mb):
    # a NaN radius would slip past certify's radius-mismatch guard
    for radius in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            rc.ReLULayer(mb.frame, np.zeros(3), radius=radius)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31 - 1))
def test_strict_output_pattern_within_active_set(seed):
    # strictly positive outputs are always a subset of the active set, which
    # keeps boundary equalities (coefficient == bias, output 0)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    m = int(rng.integers(n, n + 6))
    frame, _, _ = rc.normalize(rng.standard_normal((m, n)))
    layer = rc.ReLULayer(frame, rng.standard_normal(m), radius=2.0)
    x = rng.standard_normal(n)
    x *= rng.uniform(0.0, 2.0) / max(np.linalg.norm(x), 1e-12)
    strict = set(np.flatnonzero(rc.forward(layer, x) > 0.0).tolist())
    active = set(closed_active_set(layer, x))
    assert strict <= active
