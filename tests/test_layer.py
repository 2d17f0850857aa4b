import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relucert as rc
from relucert.errors import (DimensionMismatch, FrameMismatch, NotAFrame,
                             ReconstructionFailed)

import oracles
from conftest import build_setup, random_omnidirectional


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
    pattern = rc.active_set(mb.layer, [0.0, 1.0])
    assert pattern.indices == (0, 1, 2)  # two exact equalities stay active
    out = rc.active_from_output(rc.forward(mb.layer, [0.0, 1.0]))
    assert out.indices == (0,)


def test_active_set_trivial_bias(mb):
    rng = np.random.default_rng(71)
    layer = rc.ReLULayer(mb.frame, np.full(3, -2.0), 2.0)
    for _ in range(50):
        x = oracles.sample_ball(rng, 2, 1, radius=2.0)[0]
        assert rc.active_set(layer, x).indices == (0, 1, 2)
    assert rc.active_from_output(np.zeros(3)).indices == ()


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


def test_certify_ignores_unconstrained_entries(ico):
    report = rc.positive_facets(ico.poly)
    est = rc.pbe_positive(ico.frame, ico.poly, report, 1.0)
    bias = np.zeros(ico.frame.m)
    bias[list(set(range(ico.frame.m)) - set(report.vertex_indices))] = 99.0
    layer = rc.ReLULayer(ico.frame, bias, 1.0, rc.DOMAIN_BALL_POSITIVE)
    cert = rc.certify(layer, est)
    assert cert.injective


def test_dual_bank_shapes(mb, tet):
    assert len(mb.bank.duals) == 3
    assert all(d.shape == (2, 2) for d in mb.bank.duals)
    assert len(tet.bank.duals) == 4
    assert all(d.shape == (3, 3) for d in tet.bank.duals)
    basis, _, _ = rc.normalize(np.eye(3))
    poly = rc.build_polytope(basis)
    bank = rc.build_dual_bank(basis, poly, np.zeros(3))
    assert len(bank.duals) == 1
    assert np.allclose(bank.duals[0], np.eye(3), atol=1e-12)


def test_dual_bank_rejects_origin_facet():
    # hull of these three has an edge through the origin: rank-deficient
    frame, _, _ = rc.normalize(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
    poly = rc.build_polytope(frame)
    with pytest.raises(NotAFrame, match="^facet 0 "):
        rc.build_dual_bank(frame, poly, np.zeros(3))


def test_dual_bank_decomposition_identity(mb, tet, ico):
    rng = np.random.default_rng(72)
    for setup in (mb, tet, ico):
        for verts, dual in zip(setup.bank.poly.vertices, setup.bank.duals):
            for _ in range(10):
                x = rng.standard_normal(setup.frame.n)
                coeff = setup.frame.elements[list(verts)] @ x
                assert np.max(np.abs(dual @ coeff - x)) <= 1e-10


def test_reconstruct_example(mb):
    z = rc.forward(mb.layer, [0.0, 0.5])
    assert np.allclose(z, [1.0, 0.25, 0.25])
    xhat = rc.reconstruct(mb.bank, mb.layer, z)
    assert np.max(np.abs(xhat - [0.0, 0.5])) <= 1e-10


def test_reconstruct_tetrahedron_roundtrip(tet):
    rng = np.random.default_rng(73)
    xs = oracles.sample_ball(rng, 3, 100)
    for x in xs:
        xhat = rc.reconstruct(tet.bank, tet.layer, rc.forward(tet.layer, x))
        assert np.max(np.abs(xhat - x)) <= 1e-8


def test_reconstruct_zero_output_has_no_preimage(mb):
    # with bias -r every coefficient of a ball point clears the threshold
    # somewhere, so the all-zero output cannot come from the ball; the
    # verification gate must refuse every facet candidate
    layer = rc.ReLULayer(mb.frame, np.full(3, -1.0), 1.0)
    bank = rc.build_dual_bank(mb.frame, mb.poly, layer.bias)
    with pytest.raises(ReconstructionFailed):
        rc.reconstruct(bank, layer, np.zeros(3))
    zs = np.vstack([np.zeros(3), rc.forward(layer, [0.0, 0.5])])
    xs, failed = rc.reconstruct_batch(bank, layer, zs)
    assert failed.tolist() == [True, False]
    assert np.isnan(xs[0]).all() and np.max(np.abs(xs[1] - [0.0, 0.5])) <= 1e-10


def test_reconstruct_mismatches(mb, tet):
    with pytest.raises(FrameMismatch):
        rc.reconstruct(mb.bank, tet.layer, np.zeros(4))
    other = rc.ReLULayer(mb.frame, np.full(3, -0.7))
    with pytest.raises(FrameMismatch):
        rc.reconstruct(mb.bank, other, np.zeros(3))
    positive_layer = rc.ReLULayer(mb.frame, mb.layer.bias, 1.0, rc.DOMAIN_BALL_POSITIVE)
    with pytest.raises(ValueError):
        rc.reconstruct(mb.bank, positive_layer, np.zeros(3))
    with pytest.raises(FrameMismatch):
        rc.reconstruct_batch(mb.bank, other, np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        rc.reconstruct_batch(mb.bank, mb.layer, np.zeros((2, 4)))
    with pytest.raises(DimensionMismatch):
        rc.reconstruct(mb.bank, mb.layer, np.zeros((1, 3)))


def _boundary_outputs(setup, xs):
    """Outputs of xs with every coefficient within 1e-12 of its bias set to
    the exact boundary value 0: the inputs below sit where a certified
    coefficient equals its bias."""
    coeff = xs @ setup.frame.elements.T - setup.layer.bias
    return np.where(np.abs(coeff) <= 1e-12, 0.0, np.maximum(coeff, 0.0))


def _has_inside_facet(bank, zs):
    inside = (zs[:, None, :] > 0.0) | ~bank.poly.incidence[None, :, :]
    return inside.all(axis=2).any(axis=1)


def test_reconstruct_batch_matches_rowwise_oracle(mb, tet):
    rng = np.random.default_rng(79)
    # Mercedes-Benz at each element, tetrahedron at each edge midpoint
    # direction: two coefficients sit exactly at the bias, so no facet lies
    # inside the positive pattern and only the ordered fallback inverts them
    mids = [tet.frame.elements[i] + tet.frame.elements[j]
            for i in range(4) for j in range(i + 1, 4)]
    mids = np.array(mids) / np.linalg.norm(mids, axis=1)[:, None]
    cases = [(mb, _boundary_outputs(mb, mb.frame.elements)),
             (tet, _boundary_outputs(tet, mids))]
    for setup, zs in cases:
        assert not _has_inside_facet(setup.bank, zs).any()
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
        want, want_failed = oracles.reconstruct_rows(setup.bank, setup.layer, zs)
        blocks = [rc.reconstruct_batch(setup.bank, setup.layer, block)
                  for block in np.split(zs, [1, 8, 263])]
        got = np.vstack([xs for xs, _ in blocks])
        failed = np.concatenate([f for _, f in blocks])
        assert np.array_equal(failed, want_failed)
        assert np.isnan(got[failed]).all()
        assert np.max(np.abs(got[~failed] - want[~failed])) <= 1e-12
        assert failed.any() and not failed.all()


def test_covering_facet_candidate_always_verifies(mb, tet, ico):
    # the facet cone containing x yields a left-inverse that passes the gate
    rng = np.random.default_rng(74)
    for setup in (mb, tet, ico):
        xs = oracles.sample_ball(rng, setup.frame.n, 300)
        for x in xs:
            if np.linalg.norm(x) <= 1e-12:
                continue
            j = rc.covering_facet(setup.poly, x)
            z = rc.forward(setup.layer, x)
            xhat = rc.facet_reconstruction(setup.bank, z, j)
            assert np.max(np.abs(xhat - x)) <= 1e-9
            zhat = rc.forward(setup.layer, xhat)
            assert np.max(np.abs(zhat - z)) <= 1e-8


def test_roundtrip_random_layers():
    rng = np.random.default_rng(75)
    for n, m, seed in ((2, 12, 751), (3, 18, 752), (4, 14, 753)):
        setup = build_setup(random_omnidirectional(n, m, seed))
        xs = oracles.sample_ball(rng, n, 200)
        worst = 0.0
        for x in xs:
            xhat = rc.reconstruct(setup.bank, setup.layer, rc.forward(setup.layer, x))
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


@settings(max_examples=60, deadline=None)
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
    strict = set(rc.active_from_output(rc.forward(layer, x)).indices)
    active = set(rc.active_set(layer, x).indices)
    assert strict <= active
