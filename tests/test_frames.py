import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relucert as rc
from relucert.errors import DimensionMismatch, NotAFrame, ZeroRow

import oracles


def test_normalize_scaling_identity():
    frame, bias, norms = rc.normalize(np.array([[0.0, 2.0], [1.0, 0.0]]), [1.0, 0.3])
    assert np.allclose(frame.elements[0], [0.0, 1.0])
    assert bias[0] == pytest.approx(0.5, abs=1e-15)
    assert norms[0] == pytest.approx(2.0)


def test_normalize_leaves_unit_rows_unchanged():
    w = rc.mercedes_benz()
    frame, bias, norms = rc.normalize(w, [-0.5, -0.5, -0.5])
    assert np.max(np.abs(frame.elements - w)) <= 1e-15
    assert np.allclose(bias, [-0.5, -0.5, -0.5])
    assert np.allclose(norms, 1.0)


def test_normalize_zero_row():
    with pytest.raises(ZeroRow) as err:
        rc.normalize(np.array([[1.0, 0.0], [0.0, 0.0]]), [0.0, 1.0])
    assert err.value.index == 1


def test_normalize_preserves_active_sets():
    rng = np.random.default_rng(21)
    for _ in range(200):
        m, n = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        m = max(m, n)
        weights = rng.standard_normal((m, n)) * rng.uniform(0.1, 10.0, size=(m, 1))
        bias = rng.standard_normal(m)
        frame, rescaled, _ = rc.normalize(weights, bias)
        for _ in range(20):
            x = rng.standard_normal(n)
            before = (weights @ x >= bias)
            after = (frame.elements @ x >= rescaled)
            assert np.array_equal(before, after)


def test_unit_frame_rejects_bad_input():
    with pytest.raises(ValueError):
        rc.UnitFrame(np.array([[2.0, 0.0], [0.0, 1.0]]))  # not unit norm
    with pytest.raises(DimensionMismatch):
        rc.UnitFrame(np.array([[1.0, 0.0]]).T @ np.array([[1.0, 0.0]]) * np.nan)
    with pytest.raises(DimensionMismatch):
        rc.UnitFrame(np.eye(3)[:2])  # m < n


def test_analysis_examples(mb):
    coeff = rc.analysis(mb.frame, [0.0, 1.0])
    assert np.allclose(coeff, [1.0, -0.5, -0.5], atol=1e-15)
    assert np.allclose(rc.analysis(mb.frame, [0.0, 0.0]), 0.0)
    basis, _, _ = rc.normalize(np.eye(2))
    assert np.allclose(rc.analysis(basis, [0.3, 0.7]), [0.3, 0.7])
    with pytest.raises(DimensionMismatch):
        rc.analysis(mb.frame, [1.0, 2.0, 3.0])


def test_synthesis_examples(mb):
    basis, _, _ = rc.normalize(np.eye(2))
    assert np.allclose(rc.synthesis(basis, [0.3, 0.7]), [0.3, 0.7])
    # the three elements sum to zero by symmetry
    assert np.max(np.abs(rc.synthesis(mb.frame, [1.0, 1.0, 1.0]))) <= 1e-15
    assert np.allclose(rc.synthesis(mb.frame, [0.0, 0.0, 0.0]), 0.0)
    with pytest.raises(DimensionMismatch):
        rc.synthesis(mb.frame, [1.0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_adjointness(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    m = int(rng.integers(n, n + 8))
    frame, _, _ = rc.normalize(rng.standard_normal((m, n)) + 1e-3)
    x = rng.standard_normal(n)
    c = rng.standard_normal(m)
    lhs = float(rc.analysis(frame, x) @ c)
    rhs = float(x @ rc.synthesis(frame, c))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_frame_bounds_mercedes_full(mb):
    bounds = rc.frame_bounds(mb.frame)
    assert bounds.lower == pytest.approx(1.5, abs=1e-12)
    assert bounds.upper == pytest.approx(1.5, abs=1e-12)


def test_frame_bounds_mercedes_pair_vs_char_poly(mb):
    bounds = rc.frame_bounds(mb.frame, (0, 1))
    s = rc.frames.subframe_operator(mb.frame, (0, 1))
    want = oracles.eig_closed_form(s)
    assert bounds.lower == pytest.approx(want[0], abs=1e-12)
    assert bounds.upper == pytest.approx(want[-1], abs=1e-12)
    assert bounds.lower == pytest.approx(0.5, abs=1e-12)
    assert bounds.upper == pytest.approx(1.5, abs=1e-12)


def test_frame_bounds_singleton_not_a_frame(mb):
    with pytest.raises(NotAFrame):
        rc.frame_bounds(mb.frame, (0,))


def test_frame_bounds_eigen_oracles():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3):
        for _ in range(20):
            frame, _, _ = rc.normalize(rng.standard_normal((n + 3, n)))
            bounds = rc.frame_bounds(frame)
            want = oracles.eig_closed_form(rc.frames.subframe_operator(frame))
            assert bounds.lower == pytest.approx(want[0], abs=1e-9)
            assert bounds.upper == pytest.approx(want[-1], abs=1e-9)
    for n in (4, 5, 6):
        for rep in range(5):
            frame, _, _ = rc.normalize(rng.standard_normal((n + 4, n)))
            bounds = rc.frame_bounds(frame)
            lmin, lmax = oracles.eig_power_extremes(
                rc.frames.subframe_operator(frame), seed=rep)
            assert bounds.lower == pytest.approx(lmin, abs=1e-9)
            assert bounds.upper == pytest.approx(lmax, abs=1e-9)


def test_frame_inequality_sampled(mb, tet):
    rng = np.random.default_rng(32)
    for setup, subset in ((mb, (0, 1)), (mb, None), (tet, (0, 1, 2)), (tet, None)):
        bounds = rc.frame_bounds(setup.frame, subset)
        rows = setup.frame.elements if subset is None else setup.frame.elements[list(subset)]
        for _ in range(200):
            x = rng.standard_normal(setup.frame.n)
            x /= np.linalg.norm(x)
            energy = float(np.sum((rows @ x) ** 2))
            assert bounds.lower - 1e-10 <= energy <= bounds.upper + 1e-10


def test_is_frame_examples(mb, tet):
    assert rc.is_frame(mb.frame, (0, 1))
    assert not rc.is_frame(mb.frame, (1,))
    assert rc.is_frame(tet.frame, (0, 1, 2))
    assert not rc.is_frame(tet.frame, (0, 1))


def test_dual_synthesis_orthonormal_self_dual():
    basis, _, _ = rc.normalize(np.eye(2))
    dual = rc.dual_synthesis(basis, (0, 1))
    assert np.allclose(dual, np.eye(2), atol=1e-14)


def test_dual_synthesis_reconstruction_pair(mb):
    dual = rc.dual_synthesis(mb.frame, (0, 1))
    x = np.array([0.2, -0.4])
    coeff = mb.frame.elements[[0, 1]] @ x
    assert np.max(np.abs(dual @ coeff - x)) <= 1e-12


def test_dual_synthesis_tight_frame_scaling(mb):
    # the full frame operator is 1.5x identity, so duals are (2/3) elements
    dual = rc.dual_synthesis(mb.frame)
    assert np.max(np.abs(dual - (2.0 / 3.0) * mb.frame.elements.T)) <= 1e-12


def test_dual_synthesis_not_a_frame(mb):
    with pytest.raises(NotAFrame):
        rc.dual_synthesis(mb.frame, (2,))
    # rank-one pairs: an exactly singular operator, whose factorization
    # fails, and a nearly singular one, whose last pivot falls below tol_rank
    for rows in ([[1.0, 0.0], [-1.0, 0.0]], [[1.0, 0.0], [np.cos(1e-6), np.sin(1e-6)]]):
        frame, _, _ = rc.normalize(np.array(rows))
        assert not rc.is_frame(frame)
        with pytest.raises(NotAFrame):
            rc.dual_synthesis(frame)


def test_canonical_reconstruction_random_frames():
    rng = np.random.default_rng(33)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(n, n + 6))
        frame, _, _ = rc.normalize(rng.standard_normal((m, n)))
        size = int(rng.integers(n, m + 1))
        subset = tuple(sorted(rng.choice(m, size=size, replace=False).tolist()))
        if not rc.is_frame(frame, subset):
            continue
        dual = rc.dual_synthesis(frame, subset)
        x = rng.standard_normal(n)
        coeff = frame.elements[list(subset)] @ x
        assert np.max(np.abs(dual @ coeff - x)) <= 1e-10


def test_fingerprint_distinguishes_frames(mb, tet):
    assert mb.frame.fingerprint() == mb.frame.fingerprint()
    assert mb.frame.fingerprint() != tet.frame.fingerprint()


def test_index_subset_validation(mb):
    assert rc.frames.check_indices((2, 0), 3) == (0, 2)
    with pytest.raises(ValueError):
        rc.frames.check_indices((), 3)
    with pytest.raises(ValueError):
        rc.frames.check_indices((0, 3), 3)
    with pytest.raises(ValueError):
        rc.frames.check_indices((1, 1), 3)
    with pytest.raises(ValueError):
        rc.frame_bounds(mb.frame, (-1,))
