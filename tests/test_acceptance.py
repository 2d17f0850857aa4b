"""Acceptance suite: one test per shipping criterion.

Each test prints a single `[acceptance] criterion NN ...: PASS/FAIL` line
(visible with `pytest -s`) before asserting, so a red run still reports
every criterion's outcome.
"""

import time

import numpy as np
import pytest

import relucert as rc
from relucert import io as fio
from relucert.cli import main as cli_main

import oracles
from conftest import build_setup, random_omnidirectional


def announce(num: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d} {label}: {verdict}{suffix}")


def test_criterion_01_mercedes_ball_bias():
    t0 = time.perf_counter()
    frame, _, _ = rc.normalize(rc.mercedes_benz())
    poly = rc.build_polytope(frame)
    est = rc.pbe_ball(frame, poly, 1.0)
    elapsed = time.perf_counter() - t0
    err = float(np.max(np.abs(est.alpha_B - (-0.5))))
    ok = err <= 1e-9 and elapsed < 0.1
    announce(1, "mercedes ball bias -1/2", ok, f"err={err:.2e}, {elapsed:.3f} s")
    assert err <= 1e-9
    assert elapsed < 0.1


def test_criterion_02_tetrahedron_biases():
    t0 = time.perf_counter()
    frame, _, _ = rc.normalize(rc.tetrahedron())
    poly = rc.build_polytope(frame)
    est = rc.pbe_ball(frame, poly, 1.0)
    elapsed = time.perf_counter() - t0
    err_x = float(np.max(np.abs(est.alpha_X - (-1.0 / 3.0))))
    err_b = float(np.max(np.abs(est.alpha_B - (-1.0 / np.sqrt(3.0)))))
    ok = err_x <= 1e-12 and err_b <= 1e-9 and elapsed < 0.1
    announce(2, "tetrahedron biases -1/3 and -1/sqrt(3)", ok,
             f"errX={err_x:.2e}, errB={err_b:.2e}, {elapsed:.3f} s")
    assert err_x <= 1e-12
    assert err_b <= 1e-9
    assert elapsed < 0.1


def test_criterion_03_icosahedron_biases_and_hull():
    t0 = time.perf_counter()
    frame, _, _ = rc.normalize(rc.icosahedron())
    poly = rc.build_polytope(frame)
    est = rc.pbe_ball(frame, poly, 1.0)
    elapsed = time.perf_counter() - t0
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    err_x = float(np.max(np.abs(est.alpha_X - phi / (1.0 + phi * phi))))
    zero_exact = bool(np.all(est.alpha_B == 0.0))
    hull_ok = poly.num_facets == 20 and all(len(v) == 3 for v in poly.vertices)
    ok = err_x <= 1e-9 and zero_exact and hull_ok and elapsed < 0.5
    announce(3, "icosahedron correlation bias and 20-facet hull", ok,
             f"errX={err_x:.2e}, {elapsed:.3f} s")
    assert err_x <= 1e-9
    assert zero_exact
    assert hull_ok
    assert elapsed < 0.5


def test_criterion_04_standard_basis_positive_domain():
    t0 = time.perf_counter()
    frame, _, _ = rc.normalize(np.eye(3))
    poly = rc.build_polytope(frame)
    report = rc.positive_facets(poly)
    est = rc.pbe_positive(frame, poly, report, 1.0)
    elapsed = time.perf_counter() - t0
    flat = not poly.full_dimensional and poly.num_facets == 1
    zeros = bool(np.all(est.alpha_B == 0.0)) and not est.unconstrained_mask.any()
    ok = flat and zeros and elapsed < 0.1
    announce(4, "standard basis zero bias on the non-negative ball", ok,
             f"{elapsed:.3f} s")
    assert flat
    assert zeros
    assert elapsed < 0.1


def test_criterion_05_trivial_bias_always_spans():
    rng = np.random.default_rng(9050)
    total_failures = 0
    for rep in range(20):
        pts = random_omnidirectional(3, 30, 9100 + rep)
        frame, _, _ = rc.normalize(pts)
        poly = rc.build_polytope(frame)
        for radius in (1.0, 2.0):
            layer = rc.ReLULayer(frame, np.full(30, -radius), radius)
            xs = oracles.sample_ball(rng, 3, 10_000, radius=radius)
            total_failures += len(rc.spanning_failures(layer, poly, xs))
    ok = total_failures == 0
    announce(5, "bias -r keeps every active set spanning on the radius-r ball", ok,
             f"failures={total_failures}")
    assert total_failures == 0


def test_criterion_06_reconstruction_roundtrip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9060)
    setups = [build_setup(rc.mercedes_benz()),
              build_setup(rc.tetrahedron()),
              build_setup(rc.icosahedron())]
    combos = [(n, m) for n in (2, 3, 4) for m in (10, 20, 60)]
    for idx in range(50):
        n, m = combos[idx % len(combos)]
        setups.append(build_setup(random_omnidirectional(n, m, 9200 + idx)))
    worst = 0.0
    for setup in setups:
        xs = oracles.sample_ball(rng, setup.frame.n, 1000)
        for x in xs:
            xhat = rc.reconstruct(setup.bank, setup.layer, rc.forward(setup.layer, x))
            worst = max(worst, float(np.max(np.abs(xhat - x))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    announce(6, "exact roundtrip on 53 layers x 1000 inputs", ok,
             f"worst={worst:.2e}, {elapsed:.1f} s")
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_criterion_07_solver_oracle_agreement():
    worst2 = 0.0
    for cols, c in oracles.facet_cone_instances(2, 200, seed=9300):
        res = rc.min_linear_capped_cone(rc.CappedConeProblem(D=cols, c=c))
        sweep = oracles.arc_sweep_min(cols, c, samples=1_000_000)
        worst2 = max(worst2, abs(res.value - sweep))
    ok2 = worst2 <= 1e-5
    low3 = ok3 = True
    worst3 = 0.0
    for k, (cols, c) in enumerate(oracles.facet_cone_instances(3, 100, seed=9400)):
        res = rc.min_linear_capped_cone(rc.CappedConeProblem(D=cols, c=c))
        sampled = oracles.cone_sample_min(cols, c, samples=10_000, seed=k)
        low3 = low3 and res.value <= sampled + 1e-9
        worst3 = max(worst3, sampled - res.value)
    ok3 = low3 and worst3 <= 1e-3
    announce(7, "cone solver vs sweep and sampling oracles", ok2 and ok3,
             f"2d worst={worst2:.2e}, 3d worst gap={worst3:.2e}")
    assert ok2
    assert ok3


def test_criterion_08_hull_matches_exhaustive_oracle():
    cases_ok = True
    for n, sizes in ((2, (8, 40, 120, 200)), (3, (6, 10, 14))):
        for m in sizes:
            pts = rc.random_sphere(n, m, 9500 + 13 * m + n)
            frame, _, _ = rc.normalize(pts)
            poly = rc.build_polytope(frame)
            got = sorted(poly.vertices)
            want = [v for v, _, _ in oracles.hull_facets(frame.elements)]
            cases_ok = cases_ok and got == want
    announce(8, "hull incidences equal the supporting-hyperplane oracle", cases_ok)
    assert cases_ok


def test_criterion_09_image_norm_bound():
    # The stability report's image bound contains the forward image of the
    # radius-r ball. For a non-negative bias r*sqrt(B0) bounds it; for any
    # bias b, r*sqrt(B0) + ||max(-b, 0)|| does, since
    # 0 <= max(Wx - b, 0) <= max(Wx, 0) + max(-b, 0) entrywise. The bias term
    # is needed: with the Mercedes-Benz layer's verified bias (-1/2 each),
    # x = (0, 1) maps to (1.5, 0, 0), whose norm 1.5 exceeds sqrt(1.5).
    frame, _, _ = rc.normalize(rc.mercedes_benz())
    poly = rc.build_polytope(frame)
    est = rc.pbe_ball(frame, poly, 1.0)
    layer = rc.ReLULayer(frame, est.alpha_scaled, 1.0)
    st = rc.stability(frame, poly, 1.0)
    rng = np.random.default_rng(9600)
    xs = oracles.sample_ball(rng, 2, 10_000)
    coeffs = xs @ frame.elements.T

    z = np.maximum(coeffs - layer.bias, 0.0)
    norms = np.linalg.norm(z, axis=1)
    nonneg = bool(np.min(z) >= 0.0)
    bound = st.image_radius + float(np.linalg.norm(np.maximum(-layer.bias, 0.0)))
    violations = int(np.count_nonzero(norms > bound + 1e-9))

    clipped_norms = np.linalg.norm(
        np.maximum(coeffs - np.maximum(layer.bias, 0.0), 0.0), axis=1)
    clipped_violations = int(np.count_nonzero(clipped_norms > st.image_radius + 1e-9))

    corner = rc.forward(layer, (0.0, 1.0))
    corner_ok = (np.allclose(corner, (1.5, 0.0, 0.0), rtol=0.0, atol=1e-12)
                 and float(np.linalg.norm(corner)) > st.image_radius)

    ok = nonneg and violations == 0 and clipped_violations == 0 and corner_ok
    announce(9, "sampled image-norm bound r*sqrt(B0) + ||max(-b,0)||", ok,
             f"bias b: max norm={float(np.max(norms)):.4f}, bound={bound:.4f}; "
             f"bias max(b,0): max norm={float(np.max(clipped_norms)):.4f}, "
             f"bound={st.image_radius:.4f}")
    assert nonneg
    assert violations == 0
    assert clipped_violations == 0
    assert corner_ok


def _synthetic_trace(epochs: int = 100):
    rng = np.random.default_rng(9700)
    weights = rc.mercedes_benz().copy()
    bias = np.array([-1.5, -1.6, -1.55])
    out = []
    for k in range(epochs):
        weights = weights + 0.01 * rng.standard_normal((3, 2))
        bias = bias + 0.05 * rng.standard_normal(3)
        out.append((k, weights.copy(), bias.copy()))
    return out


def _oracle_scaled_alpha(weights: np.ndarray, radius: float) -> np.ndarray:
    """Independent per-element upper bias: exhaustive 2-d hull, gram minima,
    and dense arc sweeps, scaled by the radius."""
    norms = np.linalg.norm(weights, axis=1)
    unit = weights / norms[:, None]
    facets = oracles.hull_facets(unit)
    gram = unit @ unit.T
    m = unit.shape[0]
    alpha = np.zeros(m)
    for i in range(m):
        adjacent = [verts for verts, _, _ in facets if i in verts]
        corr = min(gram[i, list(verts)].min() for verts in adjacent)
        if corr >= 0.0:
            continue
        best = 0.0
        for verts in adjacent:
            cols = unit[list(verts)].T
            best = min(best, oracles.arc_sweep_min(cols, cols.T @ unit[i], samples=400_000))
        alpha[i] = best
    return radius * alpha


def test_criterion_10_monitor_determinism_and_oracle(tmp_path):
    trace_path = tmp_path / "trace.txt"
    trace_path.write_text(fio.format_trace(_synthetic_trace(100)))
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    code1 = cli_main(["monitor", str(trace_path), "--out", str(out1)])
    code2 = cli_main(["monitor", str(trace_path), "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().strip().splitlines()[1:]
    spot_ok = code1 == code2 == 0 and len(lines) == 100
    for k in (0, 24, 49, 74, 99):
        epoch, _, _, proportion, _ = lines[k].split(",")
        _, weights, bias = _synthetic_trace(100)[k]
        scaled = _oracle_scaled_alpha(weights, 3.1)
        rescaled_bias = bias / np.linalg.norm(weights, axis=1)
        margin = float(np.min(np.abs(rescaled_bias - scaled)))
        want = float(np.count_nonzero(rescaled_bias <= scaled)) / 3.0
        spot_ok = spot_ok and int(epoch) == k and margin > 1e-4 \
            and float(proportion) == pytest.approx(want, abs=1e-12)
    ok = identical and spot_ok
    announce(10, "monitor: byte-identical runs, proportions match the oracle", ok)
    assert identical
    assert spot_ok


def test_criterion_11_radius_scaling_audit():
    frame, _, _ = rc.normalize(rc.mercedes_benz())
    poly = rc.build_polytope(frame)
    rng = np.random.default_rng(9800)
    xs = oracles.sample_ball(rng, 2, 10_000, radius=2.0)
    multiplied = rc.ReLULayer(frame, np.full(3, 2.0 * -0.5), 2.0)
    divided = rc.ReLULayer(frame, np.full(3, -0.5 / 2.0), 2.0)
    good = len(rc.spanning_failures(multiplied, poly, xs))
    bad = len(rc.spanning_failures(divided, poly, xs))
    ok = good == 0 and bad >= 1
    announce(11, "bias scales by r (not 1/r) on the radius-r ball", ok,
             f"multiplied failures={good}, divided failures={bad}")
    assert good == 0
    assert bad >= 1
