import numpy as np
import pytest

import relucert as rc
from relucert.errors import DimensionMismatch

import oracles


def unit_columns(rng, n, k):
    cols = rng.standard_normal((n, k))
    return cols / np.linalg.norm(cols, axis=0)


def test_capped_cone_axis_aligned():
    res = rc.min_linear_capped_cone(rc.CappedConeProblem(D=np.eye(2), c=np.array([-1.0, 0.0])))
    assert res.value == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(res.argmin, [1.0, 0.0], atol=1e-9)
    assert res.kkt_residual <= 1e-9


def test_capped_cone_tetrahedron_facet(tet):
    # facet {0,1,2} with the objective taken from its first vertex
    cols = tet.frame.elements[[0, 1, 2]].T
    c = cols.T @ tet.frame.elements[0]
    res = rc.min_linear_capped_cone(rc.CappedConeProblem(D=cols, c=c))
    assert res.value == pytest.approx(-1.0 / np.sqrt(3.0), abs=1e-9)
    assert np.linalg.norm(cols @ res.argmin) == pytest.approx(1.0, abs=1e-8)


def test_capped_cone_mercedes_edge(mb):
    # bottom edge, objective from the top vertex's neighbour: the minimum
    # sits at the far vertex since the edge arc never dips below it
    cols = mb.frame.elements[[1, 2]].T
    c = cols.T @ mb.frame.elements[1]
    res = rc.min_linear_capped_cone(rc.CappedConeProblem(D=cols, c=c))
    assert res.value == pytest.approx(-0.5, abs=1e-9)
    assert np.allclose(res.argmin, [0.0, 1.0], atol=1e-8)
    sweep = oracles.arc_sweep_min(cols, c, samples=200_000)
    assert res.value == pytest.approx(sweep, abs=1e-6)


def test_capped_cone_nonnegative_objective_stays_at_apex():
    cols = unit_columns(np.random.default_rng(1), 2, 2)
    res = rc.min_linear_capped_cone(rc.CappedConeProblem(D=cols, c=np.array([0.3, 0.1])))
    assert res.value == 0.0
    assert np.allclose(res.argmin, 0.0)


def test_capped_cone_single_generator():
    res = rc.min_linear_capped_cone(
        rc.CappedConeProblem(D=np.array([[1.0], [0.0]]), c=np.array([-0.7])))
    assert res.value == pytest.approx(-0.7, abs=1e-12)
    assert np.allclose(res.argmin, [1.0])


def test_capped_cone_validates_input():
    with pytest.raises(ValueError):
        rc.CappedConeProblem(D=2.0 * np.eye(2), c=np.array([-1.0, 0.0]))
    with pytest.raises(DimensionMismatch):
        rc.CappedConeProblem(D=np.eye(2), c=np.array([-1.0, 0.0, 0.0]))


def test_capped_cone_oracle_agreement_2d():
    for k, (cols, c) in enumerate(oracles.facet_cone_instances(2, 60, seed=510)):
        res = rc.min_linear_capped_cone(rc.CappedConeProblem(D=cols, c=c))
        sweep = oracles.arc_sweep_min(cols, c, samples=300_000)
        assert res.value == pytest.approx(sweep, abs=1e-5), f"instance {k}"
        assert np.min(res.argmin) >= -1e-12
        assert np.linalg.norm(cols @ res.argmin) <= 1.0 + 1e-10


def test_capped_cone_oracle_agreement_3d():
    for k, (cols, c) in enumerate(oracles.facet_cone_instances(3, 30, seed=520)):
        res = rc.min_linear_capped_cone(rc.CappedConeProblem(D=cols, c=c))
        sampled = oracles.cone_sample_min(cols, c, samples=10_000, seed=k)
        assert res.value <= sampled + 1e-9, f"instance {k}"
        assert res.value >= sampled - 1e-3, f"instance {k}"


def test_capped_cone_redundant_generators():
    # four coplanar generators spanning a flat cone in R^3
    base = np.array([[1.0, 0.8, 0.6, 0.2], [0.0, 0.6, 0.8, 0.98], [0.0, 0.0, 0.0, 0.0]])
    cols = base / np.linalg.norm(base, axis=0)
    c = cols.T @ np.array([-1.0, 0.2, 0.1])
    res = rc.min_linear_capped_cone(rc.CappedConeProblem(D=cols, c=c))
    sampled = oracles.cone_sample_min(cols, c, samples=200_000, seed=9)
    assert res.value <= sampled + 1e-9
    assert res.value >= sampled - 1e-4


def test_capped_cone_scale_covariance():
    rng = np.random.default_rng(53)
    for _ in range(25):
        cols = unit_columns(rng, 3, 3)
        c = cols.T @ rng.standard_normal(3)
        if np.min(c) >= 0.0:
            continue
        lam = float(rng.uniform(0.1, 10.0))
        base = rc.min_linear_capped_cone(rc.CappedConeProblem(D=cols, c=c))
        scaled = rc.min_linear_capped_cone(rc.CappedConeProblem(D=cols, c=lam * c))
        assert abs(scaled.value - lam * base.value) <= 1e-12 * max(1.0, abs(lam * base.value))
        assert np.max(np.abs(scaled.argmin - base.argmin)) <= 1e-8


def _merged_facet_instances(points):
    """Cone programs on every facet of a frame with coplanar merges (k > n
    generators), one objective per frame element that has a negative entry."""
    frame, _, _ = rc.normalize(points)
    poly = rc.build_polytope(frame)
    out = []
    for verts in poly.vertices:
        cols = frame.elements[list(verts)].T
        out.extend((cols, cols.T @ x) for x in frame.elements if np.min(cols.T @ x) < 0.0)
    return out


def test_capped_cone_matches_scipy_nnls():
    # Moreau: the minimum is -||P_K(-x)|| with P_K(-x) = D d*, d* the NNLS
    # solution of min_{d >= 0} ||D d + x||; x is recovered from c = D^T x
    optimize = pytest.importorskip("scipy.optimize")
    instances = [inst for n in (3, 4, 5, 6)
                 for inst in oracles.facet_cone_instances(n, 40, seed=530 + n)]
    merged = _merged_facet_instances(oracles.cell24()) + _merged_facet_instances(oracles.cube(4))
    assert merged and all(cols.shape[1] > cols.shape[0] for cols, _ in merged)
    for k, (cols, c) in enumerate(instances + merged):
        res = rc.min_linear_capped_cone(rc.CappedConeProblem(D=cols, c=c))
        x = np.linalg.lstsq(cols.T, c, rcond=None)[0]
        want = -np.linalg.norm(cols @ optimize.nnls(cols, -x)[0])
        assert abs(res.value - want) <= 1e-12, f"instance {k}"
        assert res.kkt_residual <= 1e-12, f"instance {k}"
        assert np.min(res.argmin) >= 0.0
        assert np.linalg.norm(cols @ res.argmin) <= 1.0 + 1e-12
        assert res.iterations <= 3 * cols.shape[1]


def test_lp_feasible_simplex_examples():
    ones = np.ones((1, 2))
    assert rc.lp_feasible(A_eq=ones, b_eq=[1.0], A_ineq=np.eye(2), b_ineq=np.zeros(2))
    assert not rc.lp_feasible(A_eq=ones, b_eq=[1.0], A_ineq=-np.eye(2), b_ineq=np.zeros(2) + 1e-6)


def test_lp_feasible_negated_identity_on_simplex():
    # sum c = 1 with -c >= 0 conflicts with c >= 0
    assert not rc.lp_feasible(A_eq=np.ones((1, 3)), b_eq=[1.0],
                              A_ineq=-np.eye(3), b_ineq=np.zeros(3) + 1e-7)


def test_lp_feasible_mercedes_bottom_edge(mb):
    cols = mb.frame.elements[[1, 2]].T
    feasible = rc.lp_feasible(A_eq=np.ones((1, 2)), b_eq=[1.0],
                              A_ineq=cols, b_ineq=np.zeros(2))
    assert not feasible
    # oracle: dense sweep over the segment parameter
    assert not oracles.edge_meets_quadrant(mb.frame.elements[1], mb.frame.elements[2])


def test_lp_feasible_free_variables():
    # x1 + x2 = 0 with x1 >= 1 needs a negative x2: feasible only if free
    a_eq = np.array([[1.0, 1.0]])
    a_in = np.array([[1.0, 0.0]])
    assert rc.lp_feasible(A_eq=a_eq, b_eq=[0.0], A_ineq=a_in, b_ineq=[1.0], nonneg_vars=False)
    assert not rc.lp_feasible(A_eq=a_eq, b_eq=[0.0], A_ineq=a_in, b_ineq=[1.0], nonneg_vars=True)


def test_lp_feasible_equalities_only():
    assert rc.lp_feasible(A_eq=np.array([[1.0, 1.0], [1.0, -1.0]]), b_eq=[1.0, 0.0])
    assert not rc.lp_feasible(A_eq=np.array([[1.0, 1.0], [2.0, 2.0]]), b_eq=[1.0, 3.0])


def test_lp_feasible_random_cross_check():
    # random systems with a known witness are feasible; the same systems with
    # an impossible equality row are not
    rng = np.random.default_rng(54)
    for _ in range(40):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        a = rng.standard_normal((rows, cols))
        witness = rng.uniform(0.0, 2.0, size=cols)
        b = a @ witness
        assert rc.lp_feasible(A_eq=a, b_eq=b)
        bad = np.vstack([a, np.zeros((1, cols))])
        assert not rc.lp_feasible(A_eq=bad, b_eq=np.concatenate([b, [1.0]]))
