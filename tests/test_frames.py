import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import relucert as rc
from relucert.errors import DimensionMismatch, NotAFrame, ZeroRow
from relucert import frames as frames_module
from relucert.frames import (TOL_RANK, TOL_SCREEN, operator_bounds, smallest_lower_bound,
                             spanning)

import oracles
from conftest import BOUND_FRAMES, bound_frame, facet_operators, spans


def frame_operator(frame, subset=None):
    sub = frame.elements if subset is None else frame.elements[list(subset)]
    return sub.T @ sub


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


def test_operator_bounds_mercedes_full(mb):
    lower, upper = operator_bounds(frame_operator(mb.frame))
    assert lower == pytest.approx(1.5, abs=1e-12)
    assert upper == pytest.approx(1.5, abs=1e-12)


def test_operator_bounds_mercedes_pair_vs_char_poly(mb):
    s = frame_operator(mb.frame, (0, 1))
    lower, upper = operator_bounds(s)
    want = oracles.eig_closed_form(s)
    assert lower == pytest.approx(want[0], abs=1e-12)
    assert upper == pytest.approx(want[-1], abs=1e-12)
    assert lower == pytest.approx(0.5, abs=1e-12)
    assert upper == pytest.approx(1.5, abs=1e-12)


def test_operator_bounds_singleton_not_a_frame(mb):
    with pytest.raises(NotAFrame):
        operator_bounds(frame_operator(mb.frame, (0,)))


def test_operator_bounds_eigen_oracles():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3):
        for _ in range(20):
            frame, _, _ = rc.normalize(rng.standard_normal((n + 3, n)))
            lower, upper = operator_bounds(frame_operator(frame))
            want = oracles.eig_closed_form(frame_operator(frame))
            assert lower == pytest.approx(want[0], abs=1e-9)
            assert upper == pytest.approx(want[-1], abs=1e-9)
    for n in (4, 5, 6):
        for rep in range(5):
            frame, _, _ = rc.normalize(rng.standard_normal((n + 4, n)))
            lower, upper = operator_bounds(frame_operator(frame))
            lmin, lmax = oracles.eig_power_extremes(frame_operator(frame), seed=rep)
            assert lower == pytest.approx(lmin, abs=1e-9)
            assert upper == pytest.approx(lmax, abs=1e-9)


def test_frame_inequality_sampled(mb, tet):
    rng = np.random.default_rng(32)
    for setup, subset in ((mb, (0, 1)), (mb, None), (tet, (0, 1, 2)), (tet, None)):
        lower, upper = operator_bounds(frame_operator(setup.frame, subset))
        rows = setup.frame.elements if subset is None else setup.frame.elements[list(subset)]
        for _ in range(200):
            x = rng.standard_normal(setup.frame.n)
            x /= np.linalg.norm(x)
            energy = float(np.sum((rows @ x) ** 2))
            assert lower - 1e-10 <= energy <= upper + 1e-10


def test_is_frame_examples(mb, tet):
    assert spans(mb.frame, (0, 1))
    assert not spans(mb.frame, (1,))
    assert spans(tet.frame, (0, 1, 2))
    assert not spans(tet.frame, (0, 1))


def eigen_rule(ops) -> np.ndarray:
    """The rank rule on `np.linalg.eigvalsh`'s extreme eigenvalues, one
    operator at a time."""
    ops = np.asarray(ops, dtype=float)
    flat = ops.reshape((-1,) + ops.shape[-2:])
    want = [(e[0] >= TOL_RANK * max(e[-1], np.finfo(float).tiny))
            for e in map(np.linalg.eigvalsh, flat)]
    return np.array(want, dtype=bool).reshape(ops.shape[:-2])


# stacks of frame operators V^T V of up to n + 2 vectors in R^n, n = 1..6:
# fewer than n vectors, repeated vectors and vectors of very different
# lengths give rank-deficient and ill-conditioned operators
@st.composite
def operator_stacks(draw):
    n = draw(st.integers(1, 6))
    count, k = draw(st.integers(1, 4)), draw(st.integers(0, n + 2))
    v = draw(hnp.arrays(np.float64, (count, k, n), elements=st.floats(-1.0, 1.0)))
    if k > 1 and draw(st.booleans()):
        v[:, -1] = v[:, 0] * draw(st.sampled_from([1.0, -1.0, 1e-3]))
    scale = draw(hnp.arrays(np.float64, (count, k, 1),
                            elements=st.sampled_from([1.0, 1e-4, 1e-5, 1e3])))
    v *= scale
    return v.swapaxes(1, 2) @ v


@settings(max_examples=300, deadline=None, derandomize=True)
@given(operator_stacks())
def test_spanning_is_the_eigenvalue_rule(ops):
    want = eigen_rule(ops)
    assert np.array_equal(spanning(ops), want)
    for op, one in zip(ops, want):
        assert spanning(op).shape == () and bool(spanning(op)) == one


def _rotated(eigenvalues, seed: int) -> np.ndarray:
    n = len(eigenvalues)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return (q * eigenvalues) @ q.T


def test_spanning_pinned_operators():
    for n in range(1, 7):
        below, above = TOL_RANK * (1 - 1e-6), TOL_RANK * (1 + 1e-6)
        # the last entry r at which the screen's shift (TOL_RANK + TOL_SCREEN)
        # times the trace n - 1 + r reaches r (0 for n = 1)
        shift = TOL_RANK + TOL_SCREEN
        edge = shift * (n - 1) / (1 - shift)
        cases = {  # name: (operators, the rule's mask where it is known exactly)
            "zero": (np.zeros((1, n, n)), [False]),
            "identity": (np.eye(n)[None], [True]),
            "ratio 1e-9 (1 -+ 1e-6)": (np.stack([np.diag([1.0] * (n - 1) + [r])
                                                 for r in (below, above)]),
                                       [n == 1, True]),
            "at the screen": (np.stack([scale * np.diag([1.0] * (n - 1) + [r])
                                        for scale in (1e-100, 1.0, 1e100)
                                        for r in (edge * (1 - 1e-6), edge * (1 + 1e-6))]),
                              [n > 1] * 6),
            "rotated": (np.stack([_rotated([1.0] * (n - 1) + [r], n)
                                  for r in (below, above, 0.0, shift * n, 1e-3)]), None),
        }
        if n > 1:
            v = np.random.default_rng(n).standard_normal((n + 2, n))
            v[:, 0] = v[:, 1]  # rank n - 1
            cases["rank-deficient"] = (np.stack([v.T @ v, v[:n - 1].T @ v[:n - 1]]),
                                       [False, False])
        for name, (ops, known) in cases.items():
            got = spanning(ops)
            assert np.array_equal(got, eigen_rule(ops)), (n, name)
            if known is not None:
                assert got.tolist() == known, (n, name)
    # one unstacked (n, n) operator: a 0-d mask
    got = spanning(np.diag([2.0, 1.0, 1e-12]))
    assert got.shape == () and not got
    assert spanning(np.eye(4)).shape == () and spanning(np.eye(4))


def test_certified_block_pattern_stage_needs_no_eigensolver(monkeypatch):
    # every pattern operator of an in-ball (3, 200) block passes the
    # LDL^T screen: no row reaches `eigvalsh`
    frame, _, _ = rc.normalize(rc.random_sphere(3, 200, 5))
    poly = rc.build_polytope(frame)
    layer = rc.ReLULayer(frame, rc.pbe_ball(frame, poly, 1.0).alpha_scaled - 1e-3, 1.0)
    z = rc.forward(layer, oracles.sample_ball(np.random.default_rng(7), 3, 240, 0.99))
    rows = []
    eigvalsh = np.linalg.eigvalsh

    def counting(ops):
        rows.append(np.asarray(ops).reshape(-1, 3, 3).shape[0])
        return eigvalsh(ops)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    _, failed = rc.reconstruct_batch(layer, z)
    assert not failed.any()
    assert sum(rows) == 0, rows


def recording_candidates(monkeypatch):
    """Patch the eigensolve behind `smallest_lower_bound` to record each
    stack it gets; returns the list it appends to."""
    stacks = []

    def recording(ops):
        stacks.append(np.array(ops))
        return operator_bounds(ops)

    monkeypatch.setattr(frames_module, "operator_bounds", recording)
    return stacks


def eigvalsh_min(ops) -> bytes:
    return np.linalg.eigvalsh(ops)[:, 0].min().tobytes()


@pytest.mark.parametrize("name", BOUND_FRAMES + ["cross-polytope-7"])
def test_smallest_lower_bound_is_eigvalsh_minimum(name, monkeypatch):
    # A0 bit for bit the smallest eigvalsh value over every facet operator,
    # on both domains, with and without the screen, and through `stability`
    # and `stability_positive`; where all facets are congruent every one of
    # them is a candidate
    if name == "cross-polytope-7":
        frame, _, _ = rc.normalize(np.vstack([np.eye(7), -np.eye(7)]))
        poly = rc.build_polytope(frame)
        assert poly.num_facets == 128 > frames_module.SCREEN_MIN
    else:
        frame, poly = bound_frame(name)
    selections = [range(poly.num_facets)]
    report = rc.positive_facets(poly)
    if report.nonneg_omnidirectional:
        selections.append(report.facet_indices)
    stacks = recording_candidates(monkeypatch)
    congruent = name in ("cube3", "cube4", "cell24", "cross-polytope-7")
    for facets in selections:
        ops = facet_operators(frame, poly, facets)
        for screen_min in (0, frames_module.SCREEN_MIN):
            monkeypatch.setattr(frames_module, "SCREEN_MIN", screen_min)
            stacks.clear()
            assert np.float64(smallest_lower_bound(ops)).tobytes() == eigvalsh_min(ops)
            if congruent or len(ops) <= screen_min:
                assert len(stacks[0]) == len(ops)
    if rc.is_omnidirectional(poly):
        ops = facet_operators(frame, poly, range(poly.num_facets))
        assert np.float64(rc.stability(frame, poly).A0).tobytes() == eigvalsh_min(ops)
    if report.nonneg_omnidirectional:
        ops = facet_operators(frame, poly, report.facet_indices)
        a0 = rc.stability_positive(frame, poly, report).A0
        assert np.float64(a0).tobytes() == eigvalsh_min(ops)


def test_screen_drops_most_facet_operators(monkeypatch):
    stacks = recording_candidates(monkeypatch)
    for n, m in ((5, 30), (6, 16), (3, 200)):
        frame, _, _ = rc.normalize(rc.random_sphere(n, m, 1))
        poly = rc.build_polytope(frame)
        ops = facet_operators(frame, poly, range(poly.num_facets))
        stacks.clear()
        assert np.float64(smallest_lower_bound(ops)).tobytes() == eigvalsh_min(ops)
        assert len(stacks[0]) < 0.2 * len(ops), (n, m)


@pytest.mark.parametrize("kinds", [("projected", "projected"),
                                   ("zero-first-pivot", "zero-first-pivot"),
                                   ("ratio 4e-10", "zero-first-pivot")])
def test_screen_keeps_rank_deficient_operators(kinds, monkeypatch):
    # operators that fail the rank rule put where the screen drops one,
    # the second after the first: NotAFrame names the first with the
    # message the eigensolve over every operator gives. The third case
    # needs the shift's TOL_RANK floor: the singular second operator brings
    # the smallest pivot to 0, and the first, whose eigenvalue ratio is
    # 4e-10, must still be kept
    frame, _, _ = rc.normalize(rc.random_sphere(5, 30, 1))
    poly = rc.build_polytope(frame)
    ops = facet_operators(frame, poly, range(poly.num_facets))
    stacks = recording_candidates(monkeypatch)
    smallest_lower_bound(ops)
    kept = {op.tobytes() for op in stacks[0]}
    dropped = [j for j, op in enumerate(ops) if op.tobytes() not in kept]
    assert len(dropped) > 0.8 * len(ops)
    first = dropped[len(dropped) // 2]
    for j, kind in zip((first, dropped[-1]), kinds):
        if kind == "ratio 4e-10":
            ops[j] = _rotated([2.0, 1.5, 1.2, 1.0, 8e-10], j)
        else:
            sub = frame.elements[poly.incidence[j]].copy()
            sub[:, 0 if kind == "zero-first-pivot" else -1] = 0.0
            ops[j] = sub.T @ sub
        with pytest.raises(NotAFrame) as want:
            operator_bounds(ops)
        with pytest.raises(NotAFrame) as got:
            smallest_lower_bound(ops)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith(f"{np.linalg.eigvalsh(ops[first])[-1]:.3e}])")


def test_facet_dual_orthonormal_self_dual():
    basis, _, _ = rc.normalize(np.eye(2))
    dual = oracles.facet_dual(basis, (0, 1))
    assert np.allclose(dual, np.eye(2), atol=1e-14)


def test_facet_dual_reconstruction_pair(mb):
    dual = oracles.facet_dual(mb.frame, (0, 1))
    x = np.array([0.2, -0.4])
    coeff = mb.frame.elements[[0, 1]] @ x
    assert np.max(np.abs(dual @ coeff - x)) <= 1e-12


def test_facet_dual_tight_frame_scaling(mb):
    # the full frame operator is 1.5x identity, so duals are (2/3) elements
    dual = oracles.facet_dual(mb.frame, range(3))
    assert np.max(np.abs(dual - (2.0 / 3.0) * mb.frame.elements.T)) <= 1e-12


def test_facet_dual_not_a_frame(mb):
    with pytest.raises(NotAFrame):
        oracles.facet_dual(mb.frame, (2,))
    # rank-one pairs: an exactly singular operator, and a nearly singular
    # one, whose smallest eigenvalue falls below tol_rank times its largest
    for rows in ([[1.0, 0.0], [-1.0, 0.0]], [[1.0, 0.0], [np.cos(1e-6), np.sin(1e-6)]]):
        frame, _, _ = rc.normalize(np.array(rows))
        assert not spans(frame, (0, 1))
        with pytest.raises(NotAFrame):
            oracles.facet_dual(frame, (0, 1))


def test_canonical_reconstruction_random_frames():
    rng = np.random.default_rng(33)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(n, n + 6))
        frame, _, _ = rc.normalize(rng.standard_normal((m, n)))
        size = int(rng.integers(n, m + 1))
        subset = tuple(sorted(rng.choice(m, size=size, replace=False).tolist()))
        if not spans(frame, subset):
            continue
        dual = oracles.facet_dual(frame, subset)
        x = rng.standard_normal(n)
        coeff = frame.elements[list(subset)] @ x
        assert np.max(np.abs(dual @ coeff - x)) <= 1e-10


def test_fingerprint_distinguishes_frames(mb, tet):
    assert mb.frame.fingerprint() == mb.frame.fingerprint()
    assert mb.frame.fingerprint() != tet.frame.fingerprint()
