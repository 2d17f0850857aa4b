import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import relucert as rc
from relucert import solvers
from relucert.errors import NotConverged
from relucert.solvers import lp_feasible

import oracles
from conftest import capped_cone


def unit_columns(rng, n, k):
    cols = rng.standard_normal((n, k))
    return cols / np.linalg.norm(cols, axis=0)


def test_capped_cone_axis_aligned():
    value, argmin, residual, _ = capped_cone(np.eye(2), [-1.0, 0.0])
    assert value == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(argmin, [1.0, 0.0], atol=1e-9)
    assert residual <= 1e-9


def test_capped_cone_tetrahedron_facet(tet):
    # facet {0,1,2} with the objective taken from its first vertex
    cols = tet.frame.elements[[0, 1, 2]].T
    c = cols.T @ tet.frame.elements[0]
    value, argmin, _, _ = capped_cone(cols, c)
    assert value == pytest.approx(-1.0 / np.sqrt(3.0), abs=1e-9)
    assert np.linalg.norm(cols @ argmin) == pytest.approx(1.0, abs=1e-8)


def test_capped_cone_mercedes_edge(mb):
    # bottom edge, objective from the top vertex's neighbour: the minimum
    # sits at the far vertex since the edge arc never dips below it
    cols = mb.frame.elements[[1, 2]].T
    c = cols.T @ mb.frame.elements[1]
    value, argmin, _, _ = capped_cone(cols, c)
    assert value == pytest.approx(-0.5, abs=1e-9)
    assert np.allclose(argmin, [0.0, 1.0], atol=1e-8)
    sweep = oracles.arc_sweep_min(cols, c, samples=200_000)
    assert value == pytest.approx(sweep, abs=1e-6)


def test_capped_cone_nonnegative_objective_stays_at_apex():
    cols = unit_columns(np.random.default_rng(1), 2, 2)
    value, argmin, _, _ = capped_cone(cols, [0.3, 0.1])
    assert value == 0.0
    assert np.allclose(argmin, 0.0)


def test_capped_cone_single_generator():
    value, argmin, _, _ = capped_cone(np.array([[1.0], [0.0]]), [-0.7])
    assert value == pytest.approx(-0.7, abs=1e-12)
    assert np.allclose(argmin, [1.0])


def test_capped_cone_oracle_agreement_2d():
    for k, (cols, c) in enumerate(oracles.facet_cone_instances(2, 60, seed=510)):
        value, argmin, _, _ = capped_cone(cols, c)
        sweep = oracles.arc_sweep_min(cols, c, samples=300_000)
        assert value == pytest.approx(sweep, abs=1e-5), f"instance {k}"
        assert np.min(argmin) >= -1e-12
        assert np.linalg.norm(cols @ argmin) <= 1.0 + 1e-10


def test_capped_cone_oracle_agreement_3d():
    for k, (cols, c) in enumerate(oracles.facet_cone_instances(3, 30, seed=520)):
        value, *_ = capped_cone(cols, c)
        sampled = oracles.cone_sample_min(cols, c, samples=10_000, seed=k)
        assert value <= sampled + 1e-9, f"instance {k}"
        assert value >= sampled - 1e-3, f"instance {k}"


def test_capped_cone_redundant_generators():
    # four coplanar generators spanning a flat cone in R^3
    base = np.array([[1.0, 0.8, 0.6, 0.2], [0.0, 0.6, 0.8, 0.98], [0.0, 0.0, 0.0, 0.0]])
    cols = base / np.linalg.norm(base, axis=0)
    c = cols.T @ np.array([-1.0, 0.2, 0.1])
    value, *_ = capped_cone(cols, c)
    sampled = oracles.cone_sample_min(cols, c, samples=200_000, seed=9)
    assert value <= sampled + 1e-9
    assert value >= sampled - 1e-4


def test_capped_cone_scale_covariance():
    rng = np.random.default_rng(53)
    for _ in range(25):
        cols = unit_columns(rng, 3, 3)
        c = cols.T @ rng.standard_normal(3)
        if np.min(c) >= 0.0:
            continue
        lam = float(rng.uniform(0.1, 10.0))
        base, base_argmin, _, _ = capped_cone(cols, c)
        scaled, scaled_argmin, _, _ = capped_cone(cols, lam * c)
        assert abs(scaled - lam * base) <= 1e-12 * max(1.0, abs(lam * base))
        assert np.max(np.abs(scaled_argmin - base_argmin)) <= 1e-8


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
        value, argmin, residual, steps = capped_cone(cols, c)
        x = np.linalg.lstsq(cols.T, c, rcond=None)[0]
        want = -np.linalg.norm(cols @ optimize.nnls(cols, -x)[0])
        assert abs(value - want) <= 1e-12, f"instance {k}"
        assert residual <= 1e-12, f"instance {k}"
        assert np.min(argmin) >= 0.0
        assert np.linalg.norm(cols @ argmin) <= 1.0 + 1e-12
        assert steps <= 3 * cols.shape[1]


def test_capped_cone_with_dependent_generators_does_not_raise(monkeypatch):
    # the least-distance program of the zero output of a cross-polytope of
    # R^2 jittered by 1e-12, at its certified bias (also about -1e-12): four
    # generators in R^3, each three of them dependent up to 1e-12. A
    # passive block turns singular in the stacked solve, which once raised
    # LinAlgError for the whole stack; the stack now takes least-squares
    # solutions and ends within the solver's dual tolerance, at a feasible
    # point (the geometry lives at 1e-12, below what that tolerance sees)
    fallbacks = []
    pinv = np.linalg.pinv

    def recording(*args, **kwargs):
        fallbacks.append(args[0].shape)
        return pinv(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", recording)
    elements = np.array([[1.0, 6.148519238107574e-13], [1.5803256479864993e-12, 1.0],
                         [-1.0, -1.612257141499005e-12], [-8.006416556280629e-13, -1.0]])
    bias = np.array([-1.4154935794388203e-12, -3.192582789485504e-12,
                     -3.192582789485504e-12, -1.4154935794388203e-12])
    cols = -np.hstack([elements, bias[:, None]]).T
    value, argmin, residual, _ = capped_cone(cols, -cols.T @ [0.0, 0.0, 1.0])
    assert fallbacks and residual <= 1e-9 and -1.0 < value <= 0.0
    assert np.min(argmin) >= 0.0 and np.linalg.norm(cols @ argmin) <= 1.0 + 1e-12


def _polytope_programs(points):
    """Every (facet, element on it) cone program of the frame's polytope,
    posed from the frame's Gram matrix and grouped by facet size k:
    (n, {k: (G (P, k, k), c (P, k))})."""
    frame, _, _ = rc.normalize(points)
    gram = frame.elements @ frame.elements.T
    groups = {}
    for verts in rc.build_polytope(frame).vertices:
        v = list(verts)
        for i in v:
            groups.setdefault(len(v), []).append((gram[np.ix_(v, v)], gram[i, v]))
    return frame.n, {k: tuple(np.array(a) for a in zip(*progs))
                     for k, progs in groups.items()}


def test_batched_cone_programs_match_scalar_oracle():
    frames = [oracles.cell24(), oracles.cube(4), oracles.ternary(4, 30, 430)]
    frames += [rc.random_sphere(n, m, 7) for n, m in ((2, 12), (3, 30), (4, 30), (5, 24), (6, 18))]
    merged = trivial = walked = 0
    for points in frames:
        n, groups = _polytope_programs(points)
        for k, (G, c) in groups.items():
            values, argmins, residuals, steps, failed = rc.min_linear_capped_cones(G, c)
            assert not failed.any()
            for p in range(len(c)):
                value, argmin, residual, want_steps, walks = oracles.lawson_hanson_scalar(G[p], c[p])
                where = (points.shape, k, p)
                # rounding in d^T G d and c + G d grows with ||d*||_1^2
                # (|G| <= 1); on well-conditioned facets that is 1e-15
                slack = 1e-15 * max(1.0, float(np.sum(np.abs(argmin * value))) ** 2)
                assert steps[p] == want_steps, where
                assert abs(values[p] - value) <= slack, where
                assert abs(residuals[p] - residual) <= slack, where
                assert np.max(np.abs(argmins[p] - argmin)) <= 1e-12, where
                trivial += want_steps == 0
                walked += walks > 0
            merged += len(c) if k > n else 0
    # the oracle covers merged facets (k > n), programs settled at the
    # apex without a step, and programs that take the blocking walk
    assert merged and trivial and walked


def test_batched_cone_programs_break_ties_and_stop_on_denial_like_the_oracle():
    # a duplicated generator ties the descent, and the first one enters; an
    # indefinite G denies the entering generator a positive weight in exact
    # arithmetic (on Gram matrices only rounding does), and the program stops
    cols = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    tie = (cols.T @ cols, cols.T @ np.array([-1.0, 0.0]), [1.0, 0.0, 0.0], 1)
    denial = (np.array([[1.0, -2.0], [-2.0, 1.0]]), np.array([-3.0, -1.0]), [1.0, 0.0], 2)
    for G, c, want_argmin, want_steps in (tie, denial):
        values, argmins, residuals, steps, _ = rc.min_linear_capped_cones(G[None], c[None], np.inf)
        value, argmin, residual, oracle_steps, _ = oracles.lawson_hanson_scalar(G, c, np.inf)
        assert (values[0], residuals[0], steps[0]) == (value, residual, oracle_steps)
        assert np.array_equal(argmins[0], argmin) and np.array_equal(argmin, want_argmin)
        assert oracle_steps == want_steps
    assert residual == 7.0  # the denied generator's descent is left in place


def test_batched_cone_programs_failures():
    # a residual not within tol fails each program alone, trivial ones too
    _, groups = _polytope_programs(oracles.cube(3))
    G, c = groups[4]
    *_, failed = rc.min_linear_capped_cones(G, c, tol=-1.0)
    assert failed.all()
    *_, failed = rc.min_linear_capped_cones(G, c)
    assert not failed.any()
    _, _, residuals, steps, failed = rc.min_linear_capped_cones(
        np.eye(2)[None], np.array([[-1.0, 0.0]]), tol=-1.0)
    assert failed[0] and steps[0] == 1 and residuals[0] == 0.0


# a random facet: k unit vectors on the plane <u, .> = offset, and the
# objective of one of them or of a random unit vector, as a program's
# (G, c, offset)
@st.composite
def facet_programs(draw):
    n = draw(st.integers(2, 6))
    k = draw(st.integers(n, n + 3))
    offset = draw(st.floats(0.02, 0.98))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    tangent = rng.standard_normal((k, n))
    tangent -= np.outer(tangent @ u, u)
    tangent /= np.linalg.norm(tangent, axis=1)[:, None]
    vx = offset * u + np.sqrt(1.0 - offset * offset) * tangent
    if draw(st.booleans()):
        x = vx[draw(st.integers(0, k - 1))]
    else:
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
    return (vx @ vx.T)[None], (vx @ x)[None], offset


@settings(max_examples=300, deadline=None, derandomize=True)
@given(facet_programs())
def test_argmin_weights_sum_to_at_most_one_over_offset(program):
    # the lemma under both of the estimate's bounds: a point D d of the
    # capped cone, its vertices on <u, .> = offset, has
    # sum(d) = <u, D d> / offset <= 1 / offset; so the result is at least
    # (min(0, min c) - residual) / offset, the bound that prunes programs
    G, c, offset = program
    values, argmins, residuals, _, failed = rc.min_linear_capped_cones(G, c)
    assume(not failed[0])
    assert argmins.min() >= 0.0
    assert argmins.sum() <= (1.0 + 1e-12) / offset
    result = values[0] - residuals[0] / offset
    assert result >= (min(0.0, c.min()) - solvers.TOL_SOLVER) / offset - 1e-12


def test_lp_feasible_simplex_examples():
    ones = np.ones((1, 2))
    assert lp_feasible(*oracles.with_slacks(ones, [1.0], np.eye(2), np.zeros(2)))
    assert not lp_feasible(*oracles.with_slacks(ones, [1.0], -np.eye(2), np.zeros(2) + 1e-6))


def test_lp_feasible_negated_identity_on_simplex():
    # sum c = 1 with -c >= 0 conflicts with c >= 0
    assert not lp_feasible(*oracles.with_slacks(np.ones((1, 3)), [1.0],
                                                -np.eye(3), np.zeros(3) + 1e-7))


def test_lp_feasible_mercedes_bottom_edge(mb):
    cols = mb.frame.elements[[1, 2]].T
    feasible = lp_feasible(*oracles.with_slacks(np.ones((1, 2)), [1.0], cols, np.zeros(2)))
    assert not feasible
    # oracle: dense sweep over the segment parameter
    assert not oracles.edge_meets_quadrant(mb.frame.elements[1], mb.frame.elements[2])


def test_lp_feasible_free_variables():
    # x1 + x2 = 0 with x1 >= 1 needs a negative x2: infeasible for x >= 0
    a_eq = np.array([[1.0, 1.0]])
    a_in = np.array([[1.0, 0.0]])
    assert not lp_feasible(*oracles.with_slacks(a_eq, [0.0], a_in, [1.0]))


def test_lp_feasible_equalities_only():
    assert lp_feasible(np.array([[1.0, 1.0], [1.0, -1.0]]), [1.0, 0.0])
    assert not lp_feasible(np.array([[1.0, 1.0], [2.0, 2.0]]), [1.0, 3.0])


def test_lp_feasible_random_cross_check():
    # random systems with a known witness are feasible; the same systems with
    # an impossible equality row are not
    rng = np.random.default_rng(54)
    for _ in range(40):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        a = rng.standard_normal((rows, cols))
        witness = rng.uniform(0.0, 2.0, size=cols)
        b = a @ witness
        assert lp_feasible(a, b)
        bad = np.vstack([a, np.zeros((1, cols))])
        assert not lp_feasible(bad, np.concatenate([b, [1.0]]))


def test_lp_feasible_vertex_in_orthant_with_rounding_level_entries():
    # row 0 lies in the orthant, so x = e_0 is feasible; pivots on entries
    # like -8.2e-10 once drove the objective to 8e-8 and the answer to False
    V = np.array([
        [0.7703112392821031, 0.1650208180652595, 0.20463335073696365, 0.5809594787994306],
        [-8.235306432782589e-10, -1.0, 0.0, 0.0],
        [-3.1916339811866857e-09, -0.2017662891823482, 0.653644578298793, 0.729410124559687],
        [0.9658481883183992, -0.25192236875832613, -0.05940640904145922, 0.011969787218613885],
    ])
    assert lp_feasible(*oracles.with_slacks(np.ones((1, 4)), [1.0], V.T, np.zeros(4)))


@pytest.mark.parametrize("seed, k", [(21, 2), (35, 0)])
def test_lp_feasible_column_without_pivot_row_is_not_improving(seed, k):
    # e_k lies in the cone of a snapped frame whose hull holds the origin;
    # on the way the simplex meets improving columns with no pivot row,
    # which only rounding can make
    frame = rc.normalize(oracles.snapped(4, seed))[0]
    assert rc.is_omnidirectional(rc.build_polytope(frame))
    assert lp_feasible(frame.elements.T, np.eye(4)[k])


def test_lp_feasible_pivot_cap_raises_not_converged(monkeypatch):
    monkeypatch.setattr(solvers, "_MAX_PIVOTS", 1)
    with pytest.raises(NotConverged) as err:
        lp_feasible(np.array([[1.0, 1.0], [1.0, -1.0]]), [1.0, 0.0])
    assert err.value.iterations == 1
