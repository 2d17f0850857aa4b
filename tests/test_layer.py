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


def test_reconstruct_batch_singular_facet_in_a_round(monkeypatch):
    # facet 0 of this hull, the edge from element 0 to element 1, passes
    # through the origin: its sub-frame operator has an exact zero
    # eigenvalue. The all-zero row overlaps no facet and takes it in its
    # first ranked round; the stacked solve must not raise, and the rows
    # settle or fail as in the row-wise oracle.
    calls = _recording_rounds(monkeypatch)
    frame, _, _ = rc.normalize(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
    poly = rc.build_polytope(frame)
    assert poly.vertices[0] == (0, 1)
    sub = frame.elements[list(poly.vertices[0])]
    assert np.linalg.eigvalsh(sub.T @ sub)[0] == 0.0
    layer = rc.ReLULayer(frame, np.full(3, -0.5))
    rng = np.random.default_rng(82)
    zs = np.vstack([rc.forward(layer, oracles.sample_ball(rng, 2, 200)),
                    np.zeros((1, 3)), np.abs(rng.standard_normal((10, 3)))])
    got, failed = rc.reconstruct_batch(poly, layer, zs)
    want, want_failed = oracles.reconstruct_rows(poly, layer, zs)
    assert np.array_equal(failed, want_failed)
    assert np.isnan(got[failed]).all()
    assert np.max(np.abs(got[~failed] - want[~failed])) <= 1e-12
    assert failed.any() and not failed.all()
    assert calls and (calls[0][:, 0] == 0).any()


def test_facet_dual_decomposition_identity(mb, tet, ico):
    rng = np.random.default_rng(72)
    for setup in (mb, tet, ico):
        for j, verts in enumerate(setup.poly.vertices):
            dual = oracles.facet_dual(setup.frame, verts)
            for _ in range(10):
                x = rng.standard_normal(setup.frame.n)
                coeff = setup.frame.elements[list(verts)] @ x
                assert np.max(np.abs(dual @ coeff - x)) <= 1e-10


def test_reconstruct_skips_unapplied_rank_deficient_facet(monkeypatch):
    # facet 0, the edge between elements 0 and 1, passes 1e-5 from the
    # origin and has no canonical dual; rows that never apply it invert
    angle = np.pi - 2e-5
    frame, _, _ = rc.normalize(np.array([[1.0, 0.0], [np.cos(angle), np.sin(angle)],
                                         [0.0, -1.0]]))
    poly = rc.build_polytope(frame)
    assert poly.vertices[0] == (0, 1)
    layer = rc.ReLULayer(frame, np.array([0.5, 0.5, -0.5]))
    xs = np.array([[0.8, -0.3], [-0.7, -0.2], [0.6, 0.1]])
    got, failed = rc.reconstruct_batch(poly, layer, rc.forward(layer, xs))
    assert not failed.any() and np.max(np.abs(got - xs)) <= 1e-10
    # a row whose turn reaches facet 0 takes it as a candidate that does not
    # verify: the zero output inverts through facet 1 to another preimage,
    # and an output without one fails
    x = rc.reconstruct(poly, layer, np.zeros(3))
    assert np.array_equal(rc.forward(layer, x), np.zeros(3))
    with pytest.raises(ReconstructionFailed):
        rc.reconstruct(poly, layer, np.ones(3))
    # the all-positive row spans and fails at once; the zero row picks
    # facet 0 in its first ranked round
    calls = _recording_rounds(monkeypatch)
    got, failed = rc.reconstruct_batch(poly, layer, np.vstack([np.ones(3), np.zeros(3)]))
    assert failed.tolist() == [True, False]
    assert calls[0].tolist() == [[0]]
    assert np.isnan(got[0]).all() and np.array_equal(got[1], x)
    with pytest.raises(NotAFrame):
        oracles.facet_dual(frame, poly.vertices[0])


def test_reconstruct_example(mb):
    z = rc.forward(mb.layer, [0.0, 0.5])
    assert np.allclose(z, [1.0, 0.25, 0.25])
    xhat = rc.reconstruct(mb.poly, mb.layer, z)
    assert np.max(np.abs(xhat - [0.0, 0.5])) <= 1e-10


def test_reconstruct_tetrahedron_roundtrip(tet):
    rng = np.random.default_rng(73)
    xs = oracles.sample_ball(rng, 3, 100)
    for x in xs:
        xhat = rc.reconstruct(tet.poly, tet.layer, rc.forward(tet.layer, x))
        assert np.max(np.abs(xhat - x)) <= 1e-8


def test_reconstruct_zero_output_has_no_preimage(mb):
    # with bias -r every coefficient of a ball point clears the threshold
    # somewhere, so the all-zero output cannot come from the ball; the
    # verification gate must refuse every facet candidate
    layer = rc.ReLULayer(mb.frame, np.full(3, -1.0), 1.0)
    with pytest.raises(ReconstructionFailed):
        rc.reconstruct(mb.poly, layer, np.zeros(3))
    zs = np.vstack([np.zeros(3), rc.forward(layer, [0.0, 0.5])])
    xs, failed = rc.reconstruct_batch(mb.poly, layer, zs)
    assert failed.tolist() == [True, False]
    assert np.isnan(xs[0]).all() and np.max(np.abs(xs[1] - [0.0, 0.5])) <= 1e-10


def test_reconstruct_mismatches(mb, tet):
    with pytest.raises(FrameMismatch):
        rc.reconstruct(mb.poly, tet.layer, np.zeros(4))
    with pytest.raises(FrameMismatch):
        rc.reconstruct_batch(mb.poly, tet.layer, np.zeros((2, 4)))
    positive_layer = rc.ReLULayer(mb.frame, mb.layer.bias, 1.0, rc.DOMAIN_BALL_POSITIVE)
    with pytest.raises(ValueError):
        rc.reconstruct(mb.poly, positive_layer, np.zeros(3))
    with pytest.raises(DimensionMismatch):
        rc.reconstruct_batch(mb.poly, mb.layer, np.zeros((2, 4)))
    with pytest.raises(DimensionMismatch):
        rc.reconstruct(mb.poly, mb.layer, np.zeros((1, 3)))


def _boundary_outputs(setup, xs):
    """Outputs of xs with every coefficient within 1e-12 of its bias set to
    the exact boundary value 0: the inputs below sit where a certified
    coefficient equals its bias."""
    coeff = xs @ setup.frame.elements.T - setup.layer.bias
    return np.where(np.abs(coeff) <= 1e-12, 0.0, np.maximum(coeff, 0.0))


def _has_inside_facet(poly, zs):
    inside = (zs[:, None, :] > 0.0) | ~poly.incidence[None, :, :]
    return inside.all(axis=2).any(axis=1)


def test_reconstruct_batch_matches_rowwise_oracle(mb, tet):
    rng = np.random.default_rng(79)
    # Mercedes-Benz at each element, tetrahedron at each edge midpoint
    # direction: two coefficients sit exactly at the bias, so no facet lies
    # inside the positive pattern and only a later round inverts them
    mids = [tet.frame.elements[i] + tet.frame.elements[j]
            for i in range(4) for j in range(i + 1, 4)]
    mids = np.array(mids) / np.linalg.norm(mids, axis=1)[:, None]
    cases = [(mb, _boundary_outputs(mb, mb.frame.elements)),
             (tet, _boundary_outputs(tet, mids))]
    for setup, zs in cases:
        assert not _has_inside_facet(setup.poly, zs).any()
    for n, m, seed in ((2, 7, 791), (2, 12, 751), (3, 18, 752), (4, 14, 753)):
        cases.append((build_setup(random_omnidirectional(n, m, seed)), None))
    for setup, boundary in cases:
        n, m = setup.frame.n, setup.frame.m
        parts = [rc.forward(setup.layer, oracles.sample_ball(rng, n, 300)),
                 np.zeros((1, m)),                      # outside the image
                 np.abs(rng.standard_normal((20, m)))]  # mostly outside
        if boundary is not None:
            parts.insert(1, boundary)
        zs = rng.permutation(np.vstack(parts))
        want, want_failed = oracles.reconstruct_rows(setup.poly, setup.layer, zs)
        blocks = [rc.reconstruct_batch(setup.poly, setup.layer, block)
                  for block in np.split(zs, [1, 8, 263])]
        got = np.vstack([xs for xs, _ in blocks])
        failed = np.concatenate([f for _, f in blocks])
        assert np.array_equal(failed, want_failed)
        assert np.isnan(got[failed]).all()
        assert np.max(np.abs(got[~failed] - want[~failed])) <= 1e-12
        assert failed.any() and not failed.all()


@pytest.mark.parametrize("cap", [None, 7])
def test_reconstruct_batch_late_rounds_match_rowwise_oracle(monkeypatch, cap):
    # an uncertified bias, and per facet an input with one facet vertex's
    # coefficient exactly at its bias: that facet still inverts the output,
    # but where another facet ranks above it the row settles in a later
    # round, where each row tries its next 2, 4, 8, ... ranked facets at
    # once; rows outside the image fail after every facet. With cap 7 a
    # round holds at most 7 candidates (or one per row), so the widths stop
    # doubling.
    if cap is not None:
        monkeypatch.setattr(rc.layer, "ROUND_CANDIDATES", cap)
    rng = np.random.default_rng(81)
    setup = build_setup(random_omnidirectional(3, 14, 811))
    poly, elements = setup.poly, setup.frame.elements
    layer = rc.ReLULayer(setup.frame, setup.layer.bias + 0.35)
    boundary = []
    for idx in map(list, poly.vertices):
        lift = rng.uniform(0.05, 0.2, len(idx))
        lift[0] = 0.0
        x = np.linalg.lstsq(elements[idx], layer.bias[idx] + lift, rcond=None)[0]
        coeff = elements @ x - layer.bias
        boundary.append(np.where(np.arange(len(coeff)) == idx[0], 0.0, np.maximum(coeff, 0.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inside = rc.forward(layer, oracles.sample_ball(rng, 3, 60))
    zs = rng.permutation(np.vstack([inside, boundary, np.abs(rng.standard_normal((10, 14)))]))
    want, want_failed = oracles.reconstruct_rows(poly, layer, zs)
    got, failed = rc.reconstruct_batch(poly, layer, zs)
    assert np.array_equal(failed, want_failed)
    assert np.isnan(got[failed]).all()
    assert np.max(np.abs(got[~failed] - want[~failed])) <= 1e-12
    first = np.argmax(_facet_scores(poly, zs), axis=1)
    late = [i for i in np.flatnonzero(~failed) if not _verifies(poly, layer, zs[i], first[i])]
    assert failed.any() and late


def test_reconstruct_round_solves_each_distinct_facet_once(monkeypatch):
    # many rows share each facet: outputs outside the image with two
    # positive entries, repeated 10 times, whose patterns do not span, so
    # they try every facet over several ranked rounds. Each round hands
    # `spanning` one Gram matrix per distinct facet it tries, in one call,
    # not one per (row, facet) pair. The first `spanning` call is the
    # pattern stage's, one per row.
    setup = build_setup(random_omnidirectional(3, 14, 811))
    rounds, grams = _recording_rounds(monkeypatch), []
    spanning = rc.layer.spanning

    def recording_spanning(ops):
        grams.append(len(ops))
        spans = spanning(ops)
        assert spans.shape == (len(ops),)  # the mask alone, one entry per operator
        return spans

    monkeypatch.setattr(rc.layer, "spanning", recording_spanning)
    rng = np.random.default_rng(84)
    xs = np.repeat(oracles.sample_ball(rng, 3, 6), 40, axis=0)
    outside = np.zeros((2, 14))
    outside[[0, 0, 1, 1], [2, 9, 4, 11]] = rng.uniform(0.5, 1.5, 4)
    zs = np.vstack([rc.forward(setup.layer, xs), np.repeat(outside, 10, axis=0)])
    got, failed = rc.reconstruct_batch(setup.poly, setup.layer, zs)
    assert np.array_equal(failed, np.arange(len(zs)) >= len(xs))
    assert np.max(np.abs(got[:len(xs)] - xs)) <= 1e-12
    assert len(rounds) > 1
    assert grams == [len(zs)] + [np.unique(picks).size for picks in rounds]
    assert rounds[0].size == 20 and grams[1] <= 2


@pytest.mark.parametrize("points", [oracles.cube(3), oracles.cube(4), oracles.cell24(),
                                    oracles.ternary(4, 30, 0)],
                         ids=["cube3", "cube4", "cell24", "ternary"])
def test_ranked_rounds_on_merged_facets_match_rowwise_oracle(monkeypatch, points):
    # facets of more than n vertices: every facet of a cube and of the
    # 24-cell, some of the ternary frame's. At the certified bias and at
    # that bias + 0.3, in-ball rows, rows at 0.7 x_i, a zero row and random
    # positive rows run the rounds on them and give the row-wise oracle's
    # outcome
    calls = _recording_rounds(monkeypatch)
    setup = build_setup(points)
    poly, n, m = setup.poly, setup.frame.n, setup.frame.m
    sizes = poly.incidence.sum(axis=1)
    assert sizes.max() > n
    rng = np.random.default_rng(88)
    for lift in (0.0, 0.3):
        layer = rc.ReLULayer(setup.frame, setup.layer.bias + lift)
        xs = np.vstack([oracles.sample_ball(rng, n, 120), 0.7 * setup.frame.elements])
        zs = np.vstack([rc.forward(layer, xs), np.zeros((1, m)),
                        rng.uniform(0.0, 1.0, (10, m))])
        got, failed = rc.reconstruct_batch(poly, layer, zs)
        want, want_failed = oracles.reconstruct_rows(poly, layer, zs)
        assert np.array_equal(failed, want_failed)
        assert np.isnan(got[failed]).all()
        assert np.max(np.abs(got[~failed] - want[~failed])) <= 1e-12
    assert any((sizes[picks] > n).any() for picks in calls)


def _recording_rounds(monkeypatch):
    """Record the facets (rows, k) that each ranked round tries."""
    calls = []
    try_facets = rc.layer._try_facets

    def recording(poly, layer, zs, picks):
        calls.append(picks.copy())
        return try_facets(poly, layer, zs, picks)

    monkeypatch.setattr(rc.layer, "_try_facets", recording)
    return calls


def test_certified_in_ball_rows_skip_the_ranked_rounds(monkeypatch, mb, tet, ico):
    # every in-ball row of a certified layer has a spanning positive pattern
    # whose solve verifies: the pattern solve settles it, and it is at
    # least as close to its input as the row-wise oracle's
    calls = _recording_rounds(monkeypatch)
    rng = np.random.default_rng(85)
    setups = [mb, tet, ico] + [build_setup(random_omnidirectional(n, m, seed))
                               for n, m, seed in ((2, 12, 751), (3, 18, 752), (4, 14, 753))]
    for setup in setups:
        xs = oracles.sample_ball(rng, setup.frame.n, 300)
        zs = rc.forward(setup.layer, xs)
        got, failed = rc.reconstruct_batch(setup.poly, setup.layer, zs)
        want, _ = oracles.reconstruct_rows(setup.poly, setup.layer, zs)
        assert not failed.any()
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.max(np.abs(got - xs)) <= max(np.max(np.abs(want - xs)), 1e-15)
    assert calls == []


def test_boundary_equality_pattern_inverts_through_the_rounds(monkeypatch, mb):
    # x = (0, 1) puts two Mercedes-Benz coefficients exactly at the bias:
    # the positive pattern {0} does not span, so a ranked round inverts it
    calls = _recording_rounds(monkeypatch)
    z = rc.forward(mb.layer, [0.0, 1.0])
    assert np.flatnonzero(z > 0.0).tolist() == [0]
    got, failed = rc.reconstruct_batch(mb.poly, mb.layer, z[None, :])
    assert not failed[0] and np.max(np.abs(got[0] - [0.0, 1.0])) <= 1e-12
    assert [picks.shape[0] for picks in calls] == [1]


def test_spanning_pattern_without_preimage_fails_at_once(monkeypatch, tet):
    # every entry positive: the pattern spans, its solve does not reproduce
    # the output, so no input does, and the row fails without a ranked round
    calls = _recording_rounds(monkeypatch)
    rng = np.random.default_rng(86)
    for setup in (tet, build_setup(random_omnidirectional(3, 18, 752))):
        zs = rng.uniform(0.1, 2.0, (30, setup.frame.m))
        got, failed = rc.reconstruct_batch(setup.poly, setup.layer, zs)
        _, want_failed = oracles.reconstruct_rows(setup.poly, setup.layer, zs)
        assert failed.all() and np.array_equal(failed, want_failed)
        assert np.isnan(got).all()
    assert calls == []


def test_zero_output_rows_never_abort_a_batch(mb, tet):
    # an all-zero row has an empty pattern, whose frame operator is zero;
    # it goes to the ranked rounds, alone or among other rows, and fails
    # or settles as in the row-wise oracle (x = 0 is a preimage under a
    # positive bias)
    rng = np.random.default_rng(87)
    for setup in (mb, tet):
        m = setup.frame.m
        for bias in (setup.layer.bias, np.full(m, 0.25)):
            layer = rc.ReLULayer(setup.frame, bias)
            mixed = rc.forward(layer, oracles.sample_ball(rng, setup.frame.n, 20))
            for zs in (np.zeros((3, m)), np.vstack([mixed[:10], np.zeros((2, m)), mixed[10:]])):
                got, failed = rc.reconstruct_batch(setup.poly, layer, zs)
                want, want_failed = oracles.reconstruct_rows(setup.poly, layer, zs)
                assert np.array_equal(failed, want_failed)
                assert np.isnan(got[failed]).all()
                assert np.max(np.abs(got[~failed] - want[~failed]), initial=0.0) <= 1e-12
            assert rc.reconstruct_batch(setup.poly, layer, np.zeros((1, m)))[1][0] == (bias[0] < 0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(2, 4), st.integers(0, 8), st.integers(0, 2 ** 31 - 1))
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
    got, failed = rc.reconstruct_batch(setup.poly, setup.layer, zs)
    want, want_failed = oracles.reconstruct_rows(setup.poly, setup.layer, zs)
    assert np.array_equal(failed, want_failed)
    assert not failed[:40].any() and np.isnan(got[failed]).all()
    near = np.max(np.abs(got - want), axis=1) <= 1e-12
    closer = np.max(np.abs(got[:40] - xs), axis=1) <= np.max(np.abs(want[:40] - xs), axis=1)
    assert (near[:40] | closer).all() and (near[40:] | failed[40:]).all()


@pytest.mark.parametrize("n, m, seed, lift, lost", [(5, 60, 1, 0.45, 1), (4, 60, 1, 0.3, 1),
                                                    (6, 100, 7, 0.6, 7), (6, 200, 7, 0.6, 16)])
def test_forced_layers_settle_every_verified_spanning_pattern(n, m, seed, lift, lost):
    # uncertified layers (alpha_scaled + lift), 256 ball inputs: every row
    # whose positive pattern spans settles within VERIFY_TOL of its input,
    # the only preimage in R^n (the oracle's facet_dual solve may differ by
    # up to 5.8e-11 on an ill-conditioned pattern at (6, 100)); the `lost`
    # failed rows, as in the row-wise oracle, all have patterns that do not
    # span, and the other such rows settle through the same facet as there
    frame, _, _ = rc.normalize(rc.random_sphere(n, m, seed))
    poly = rc.build_polytope(frame)
    layer = rc.ReLULayer(frame, rc.pbe_ball(frame, poly, 1.0).alpha_scaled + lift)
    xs = oracles.sample_ball(np.random.default_rng(0), n, 256)
    zs = rc.forward(layer, xs)
    got, failed = rc.reconstruct_batch(poly, layer, zs)
    want, want_failed = oracles.reconstruct_rows(poly, layer, zs)
    assert failed.sum() == lost and np.array_equal(failed, want_failed)
    assert np.isnan(got[failed]).all()
    spans = spanning(rc.layer._frame_operators(frame.elements, zs > 0.0))
    assert not (spans & failed).any()
    assert np.max(np.abs(got[spans] - xs[spans])) <= VERIFY_TOL
    rounds = ~spans & ~failed
    assert np.max(np.abs(got[rounds] - want[rounds]), initial=0.0) <= 1e-12


def _facet_scores(poly, zs):
    """The first-round ranking of `reconstruct_batch`: overlap of each
    row's positive pattern with each facet, facets inside it first."""
    incidence = poly.incidence.astype(float)
    score = (zs > 0.0).astype(float) @ incidence.T
    return score + (zs.shape[1] + 1.0) * (score == incidence.sum(axis=1))


def _verifies(poly, layer, z, j):
    idx = list(poly.vertices[j])
    try:
        x = oracles.facet_dual(poly.frame, idx) @ (z[idx] + layer.bias[idx])
    except NotAFrame:
        return False
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return np.max(np.abs(rc.forward(layer, x) - z)) <= 1e-8


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
            xhat = rc.reconstruct(setup.poly, setup.layer, rc.forward(setup.layer, x))
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
