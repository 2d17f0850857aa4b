import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import relucert as rc
from relucert import cli, fixtures, io as fio
from relucert.cli import main
from relucert.reports import Report

import oracles
from conftest import assert_same_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_mercedes_exact(capsys):
    code, out, _ = run(capsys, "gen", "mercedes")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    got = np.array([[float(v) for v in row] for row in rows])
    assert np.array_equal(got, rc.mercedes_benz())


def test_gen_tetrahedron_and_basis(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "tetrahedron")
    assert code == 0
    got = fio.parse_matrix(out.splitlines())
    assert np.array_equal(got, rc.tetrahedron())
    out_path = tmp_path / "basis.csv"
    code, _, _ = run(capsys, "gen", "basis", "--n", "4", "--out", str(out_path))
    assert code == 0
    assert np.array_equal(fio.read_matrix(str(out_path)), np.eye(4))


def test_gen_random_sphere_deterministic(capsys):
    code1, out1, _ = run(capsys, "gen", "random-sphere", "--n", "3", "--m", "20", "--seed", "7")
    code2, out2, _ = run(capsys, "gen", "random-sphere", "--n", "3", "--m", "20", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    rows = fio.parse_matrix(out1.splitlines())
    assert rows.shape == (20, 3)
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)


def test_gen_errors(capsys):
    code, _, err = run(capsys, "gen", "nonsense")
    assert code == 2
    assert json.loads(err)["error"] == "UnknownName"
    code, _, err = run(capsys, "gen", "basis")
    assert code == 2


@pytest.mark.parametrize("name, n, m", [("basis", 0, None), ("random-sphere", 0, 3),
                                         ("random-sphere", 3, 0)])
def test_gen_rejects_sizes_below_one(capsys, name, n, m):
    with pytest.raises(ValueError, match=">= 1"):
        fixtures.generate(name, n=n, m=m, seed=1)
    sizes = ["--n", str(n)] + ([] if m is None else ["--m", str(m), "--seed", "1"])
    code, out, err = run(capsys, "gen", name, *sizes)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_pbe_mercedes_report(capsys, tmp_path):
    w = tmp_path / "w.csv"
    w.write_text(fio.format_matrix(rc.mercedes_benz()))
    code, out, _ = run(capsys, "pbe", str(w), "--radius", "1")
    assert code == 0
    doc = Report.from_text(out).document
    assert doc["command"] == "pbe"
    assert np.allclose(doc["bias_estimate"]["alpha_B"], -0.5, atol=1e-9)
    assert doc["polytope"]["omnidirectional"] is True
    assert doc["stability"]["B0"] == pytest.approx(1.5, abs=1e-12)
    # byte-identical on a second run
    code2, out2, _ = run(capsys, "pbe", str(w), "--radius", "1")
    assert out2 == out


def test_pbe_icosahedron_zero_bias(capsys, tmp_path):
    w = tmp_path / "w.csv"
    w.write_text(fio.format_matrix(rc.icosahedron()))
    code, out, _ = run(capsys, "pbe", str(w), "--radius", "1")
    assert code == 0
    doc = Report.from_text(out).document
    assert doc["bias_estimate"]["alpha_B"] == [0] * 12


def test_pbe_basis_ball_exits_3(capsys, tmp_path):
    w = tmp_path / "w.csv"
    w.write_text(fio.format_matrix(np.eye(3)))
    code, _, err = run(capsys, "pbe", str(w))
    assert code == 3
    payload = json.loads(err)
    assert payload["error"] == "NotOmnidirectional"
    assert payload["exit_code"] == 3


def test_pbe_basis_ball_positive(capsys, tmp_path):
    w = tmp_path / "w.csv"
    w.write_text(fio.format_matrix(np.eye(3)))
    code, out, _ = run(capsys, "pbe", str(w), "--domain", "ball+")
    assert code == 0
    doc = Report.from_text(out).document
    assert doc["bias_estimate"]["alpha_B"] == [0, 0, 0]
    assert doc["polytope"]["nonneg"]["nonneg_omnidirectional"] is True


@pytest.mark.parametrize("seed", [12, 29, 35])
def test_pbe_ball_positive_on_snapped_frame(capsys, tmp_path, seed):
    # entries at 1e-12..3e-9 once drove the phase-1 simplex to a column
    # with no pivot row, which escaped as a bare ArithmeticError (exit 1)
    w = tmp_path / "w.csv"
    w.write_text(fio.format_matrix(oracles.snapped(4, seed)))
    code, out, err = run(capsys, "pbe", str(w), "--domain", "ball+")
    assert (code, err) == (0, "")
    doc = Report.from_text(out).document
    assert doc["polytope"]["nonneg"]["nonneg_omnidirectional"] is True


@pytest.mark.parametrize("domain", ["ball", "ball+"])
def test_precondition_failure_matches_the_library(capsys, tmp_path, domain):
    # the basis misses the ball's precondition (its flat hull misses the
    # origin), the negated basis ball+'s (no facet meets the orthant):
    # every command exits 3 with the error pbe_ball or pbe_positive raises
    weights = np.eye(3) if domain == "ball" else -np.eye(3)
    frame = rc.normalize(weights)[0]
    poly = rc.build_polytope(frame)
    with pytest.raises(rc.errors.RelucertError) as lib:
        if domain == "ball":
            rc.pbe_ball(frame, poly)
        else:
            rc.pbe_positive(frame, poly, rc.positive_facets(poly))
    expected = {"error": type(lib.value).__name__, "exit_code": 3, "message": str(lib.value)}
    assert expected["error"] == {"ball": "NotOmnidirectional",
                                 "ball+": "NotNonnegOmnidirectional"}[domain]
    if domain == "ball":
        assert "try --domain ball+" in expected["message"]
    w, b, x = tmp_path / "w.csv", tmp_path / "b.csv", tmp_path / "x.csv"
    w.write_text(fio.format_matrix(weights))
    b.write_text("0.0,0.0,0.0\n")
    x.write_text("0.0,0.0,0.5\n")
    commands = [["pbe", str(w), "--domain", domain],
                ["certify", str(w), "--bias", str(b), "--domain", domain]]
    if domain == "ball":
        commands.append(["reconstruct", str(w), "--bias", str(b), "--inputs", str(x)])
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert json.loads(err) == expected


def test_rank_deficient_facet_exits_3(capsys, tmp_path):
    # omnidirectional, but the edge between elements 0 and 1 passes 1e-5
    # from the origin: the stability bounds find its vertex set rank deficient
    angle = np.pi - 2e-5
    w = tmp_path / "w.csv"
    w.write_text(fio.format_matrix(np.array([[1.0, 0.0], [np.cos(angle), np.sin(angle)],
                                             [0.0, -1.0]])))
    b = tmp_path / "b.csv"
    b.write_text("-1.1,-1.1,-0.2\n")
    for argv in (["pbe", str(w)], ["certify", str(w), "--bias", str(b)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        payload = json.loads(err)
        assert (payload["error"], payload["exit_code"]) == ("NotAFrame", 3)


GOLDEN = Path(__file__).parent / "data" / "golden"
# name: (weights, domain, rows whose bias is raised to +0.2)
GOLDEN_FRAMES = {
    "tetrahedron": (rc.tetrahedron(), "ball", ()),
    "icosahedron": (rc.icosahedron(), "ball", ()),
    "sphere5x30": (rc.random_sphere(5, 30, 7), "ball", ()),
    "cube3": (oracles.cube(3), "ball", ()),
    # alpha lists mixing floats, "unconstrained" and null; rows 16 and 25
    # fail and the unconstrained rows' margins are null
    "sphere3x40plus": (rc.random_sphere(3, 40, 7), "ball+", (16, 25)),
    # merged facets of 4, 5 and 6 vertices
    "ternary4x30": (oracles.ternary(4, 30, 0), "ball", ()),
}


@pytest.mark.parametrize("command", ["pbe", "certify"])
@pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
def test_report_matches_golden(name, command, tmp_path):
    # data/golden/<name>.<command>.txt were written by the stacked-SVD facet
    # planes (the first four frames) and by the per-entry report writer (the
    # last two); every byte of these reports must stay the same
    weights, domain, raised = GOLDEN_FRAMES[name]
    w, b, out = tmp_path / "w.csv", tmp_path / "b.csv", tmp_path / "out.txt"
    w.write_text(fio.format_matrix(weights))
    bias = np.round(np.linspace(-0.6, 0.0, len(weights)), 3)
    bias[list(raised)] = 0.2
    b.write_text(fio.format_matrix(bias[:, None]))
    options = ["--bias", str(b)] if command == "certify" else []
    if domain != "ball":
        options += ["--domain", domain]
    assert main([command, str(w), *options, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.{command}.txt").read_bytes()


def test_pbe_parse_error_exits_2(capsys, tmp_path):
    w = tmp_path / "w.csv"
    w.write_text("1,2\n3\n")
    code, _, err = run(capsys, "pbe", str(w))
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"
    w.write_text("0,0\n1,0\n0,1\n")  # dead neuron
    code, _, err = run(capsys, "pbe", str(w))
    assert code == 2
    assert json.loads(err)["error"] == "ZeroRow"


@pytest.mark.parametrize("argv", [
    ["pbe"], ["certify", "--bias", "b.csv"],
    ["reconstruct", "--bias", "b.csv", "--inputs", "x.csv"], ["monitor"]])
def test_tol_and_radius_checked_before_input_is_read(capsys, tmp_path, argv):
    # the input paths do not exist: an option error must come first
    command, rest = argv[0], [str(tmp_path / a) if a.endswith(".csv") else a for a in argv[1:]]
    missing = str(tmp_path / "missing.csv")
    for option, value in (("--tol", "-1"), ("--tol", "inf"), ("--tol", "nan"),
                          ("--radius", "0"), ("--radius", "-2"), ("--radius", "nan"),
                          ("--radius", "inf")):
        code, out, err = run(capsys, command, missing, *rest, option, value)
        assert code == 2, (command, option, value)
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith(option + " must be a finite number")
        assert out == ""


@pytest.mark.parametrize("domain", ["ball", "ball+"])
def test_certify_builds_the_facet_table_once(domain, capsys, tmp_path, monkeypatch):
    # on the ball, the bias estimate and A0 of one command read one per-size
    # facet table; on ball+ (a strict subset of the 24-cell's facets) they
    # group the selected facets' own incidence rows and build no full table
    table = rc.Polytope.__dict__["facets_by_size"]
    builds = []

    def counting(poly, build=table.func):
        builds.append(poly.num_facets)
        return build(poly)

    monkeypatch.setattr(table, "func", counting)
    frame, _, _ = rc.normalize(oracles.cell24())
    poly = rc.build_polytope(frame)
    if domain == "ball":
        est = rc.pbe_ball(frame, poly)
    else:
        est = rc.pbe_positive(frame, poly, rc.positive_facets(poly))
    w, b = tmp_path / "w.csv", tmp_path / "b.csv"
    w.write_text(fio.format_matrix(frame.elements))
    bias = np.where(est.unconstrained_mask, 0.0, est.alpha_scaled) - 1e-3
    b.write_text(fio.format_matrix(bias[None]))
    builds.clear()
    code, out, _ = run(capsys, "certify", str(w), "--bias", str(b), "--domain", domain)
    assert code == 0
    assert Report.from_text(out).document["certificate"]["injective"] is True
    assert len(builds) == (1 if domain == "ball" else 0)


def test_certify_report(capsys, tmp_path):
    w = tmp_path / "w.csv"
    b = tmp_path / "b.csv"
    w.write_text(fio.format_matrix(rc.mercedes_benz()))
    b.write_text("-0.6,-0.6,-0.6\n")
    code, out, _ = run(capsys, "certify", str(w), "--bias", str(b))
    assert code == 0
    doc = Report.from_text(out).document
    assert doc["certificate"]["injective"] is True
    assert doc["certificate"]["failing_indices"] == []
    b.write_text("-0.4,-0.4,-0.4\n")
    code, out, _ = run(capsys, "certify", str(w), "--bias", str(b))
    assert code == 0  # a negative verdict is still a successful run
    doc = Report.from_text(out).document
    assert doc["certificate"]["injective"] is False
    assert doc["certificate"]["failing_indices"] == [0, 1, 2]


def test_reconstruct_roundtrip(capsys, tmp_path):
    w = tmp_path / "w.csv"
    b = tmp_path / "b.csv"
    x = tmp_path / "x.csv"
    w.write_text(fio.format_matrix(rc.mercedes_benz()))
    b.write_text("-0.5,-0.5,-0.5\n")
    x.write_text("0.0,0.5\n-0.25,0.125\n")
    code, out, _ = run(capsys, "reconstruct", str(w), "--bias", str(b), "--inputs", str(x))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "z0,z1,z2,xhat0,xhat1,roundtrip_error"
    first = [float(v) for v in lines[1].split(",")]
    assert first[:3] == pytest.approx([1.0, 0.25, 0.25])
    assert first[3:5] == pytest.approx([0.0, 0.5], abs=1e-10)
    assert first[5] <= 1e-10
    assert float(lines[2].split(",")[-1]) <= 1e-10


def test_reconstruct_skips_stability_and_report(capsys, tmp_path, monkeypatch):
    # reconstruct needs the certificate only: the energy bounds and the
    # report document are never computed
    def unused(*args, **kwargs):
        raise AssertionError("reconstruct computed a result it discards")

    monkeypatch.setattr("relucert.cli.stability", unused)
    monkeypatch.setattr("relucert.cli.build_report", unused)
    w = tmp_path / "w.csv"
    b = tmp_path / "b.csv"
    x = tmp_path / "x.csv"
    w.write_text(fio.format_matrix(rc.mercedes_benz()))
    b.write_text("-0.5,-0.5,-0.5\n")
    x.write_text("0.0,0.5\n")
    code, out, _ = run(capsys, "reconstruct", str(w), "--bias", str(b), "--inputs", str(x))
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[-1]) <= 1e-10


def test_reconstruct_tetrahedron_batch(capsys, tmp_path):
    rng = np.random.default_rng(82)
    w = tmp_path / "w.csv"
    b = tmp_path / "b.csv"
    x = tmp_path / "x.csv"
    w.write_text(fio.format_matrix(rc.tetrahedron()))
    b.write_text(",".join([repr(float(-1.0 / np.sqrt(3.0)))] * 4) + "\n")
    dirs = rng.standard_normal((100, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    xs = dirs * rng.uniform(size=(100, 1)) ** (1.0 / 3.0)
    x.write_text(fio.format_matrix(xs))
    code, out, _ = run(capsys, "reconstruct", str(w), "--bias", str(b), "--inputs", str(x))
    assert code == 0
    errors = [float(line.split(",")[-1]) for line in out.strip().splitlines()[1:]]
    assert len(errors) == 100
    assert max(errors) <= 1e-8


def test_reconstruct_refuses_uncertified(capsys, tmp_path):
    w = tmp_path / "w.csv"
    b = tmp_path / "b.csv"
    x = tmp_path / "x.csv"
    w.write_text(fio.format_matrix(rc.mercedes_benz()))
    b.write_text("-0.4,-0.4,-0.4\n")
    x.write_text("0.0,0.5\n")
    code, _, err = run(capsys, "reconstruct", str(w), "--bias", str(b), "--inputs", str(x))
    assert code == 5
    assert json.loads(err)["error"] == "ReconstructionFailed"
    code, out, _ = run(capsys, "reconstruct", str(w), "--bias", str(b),
                       "--inputs", str(x), "--force")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def _reconstruct_files(tmp_path, weights, bias, xs):
    """Write the layer and inputs, and return `reconstruct_batch`'s
    (xhat, failed) for the layer the CLI builds from them (`test_layer.py`
    checks it against the row-wise preimage oracle)."""
    paths = [tmp_path / name for name in ("w.csv", "b.csv", "x.csv")]
    for path, a in zip(paths, (weights, bias, xs)):
        path.write_text(fio.format_matrix(a))
    frame, rescaled, _ = rc.normalize(weights, bias)
    layer = rc.ReLULayer(frame, rescaled)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # inputs outside the ball
        zs = np.array([rc.forward(layer, x) for x in xs])
    return [str(p) for p in paths], rc.reconstruct_batch(layer, zs)


def _csv_rows(text):
    lines = text.strip().splitlines()
    return lines[0], np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def _forced_layer():
    """An uncertified layer, random_sphere(3, 20, 1) at alpha_scaled + 0.4:
    (weights, bias). Some outputs of ball inputs have more than one
    preimage."""
    weights = rc.random_sphere(3, 20, 1)
    frame, _, _ = rc.normalize(weights)
    return weights, rc.pbe_ball(frame, rc.build_polytope(frame), 1.0).alpha_scaled + 0.4


def test_reconstruct_force_marks_failed_rows(capsys, tmp_path):
    # every in-ball row whose positive pattern has rank below 3 lies inside
    # a preimage set of more than one point: 102 of 600 rows fail
    xs = oracles.sample_ball(np.random.default_rng(84), 3, 600)
    weights, bias = _forced_layer()
    (w, b, x), (want, want_failed) = _reconstruct_files(tmp_path, weights, bias, xs)
    code, out, err = run(capsys, "reconstruct", w, "--bias", b, "--inputs", x, "--force")
    assert code == 0
    header, rows = _csv_rows(out)
    assert header.split(",")[-4:] == ["xhat0", "xhat1", "xhat2", "roundtrip_error"]
    assert rows.shape == (600, 20 + 3 + 1)
    low = [np.linalg.matrix_rank(np.vstack([weights[z > 0.0], np.zeros(3)])) < 3
           for z in rows[:, :20]]
    assert want_failed.sum() == 102 and np.array_equal(want_failed, low)
    assert np.array_equal(np.isnan(rows[:, 20:]).any(axis=1), want_failed)
    assert np.isnan(rows[want_failed, 20:]).all()
    assert np.max(np.abs(rows[~want_failed, 20:23] - want[~want_failed])) <= 1e-12
    assert err == f"warning: {want_failed.sum()} inputs could not be reconstructed\n"


def _certified_layer():
    """A certified layer, random_sphere(3, 12, 5) at alpha_scaled - 1e-3:
    (weights, bias)."""
    weights = rc.random_sphere(3, 12, 5)
    frame, _, _ = rc.normalize(weights)
    return weights, rc.pbe_ball(frame, rc.build_polytope(frame), 1.0).alpha_scaled - 1e-3


# an input far outside the ball of `_certified_layer` whose output has no
# unique preimage: its positive pattern {2, 9} does not span, and the input
# lies inside its preimage set, not at a vertex
LOST = [4.930248079440492, -11.42922479877076, 58.199457666239105]


def test_reconstruct_refusal_writes_no_file(capsys, tmp_path):
    # the last of 300 inputs cannot be inverted, after a first block of 256
    # rows that can
    xs = np.vstack([oracles.sample_ball(np.random.default_rng(85), 3, 299), [LOST]])
    (w, b, x), (want, want_failed) = _reconstruct_files(tmp_path, *_certified_layer(), xs)
    assert np.flatnonzero(want_failed).tolist() == [299]
    out = tmp_path / "out.csv"
    with pytest.warns(UserWarning, match="outside the declared ball"):
        code, _, err = run(capsys, "reconstruct", w, "--bias", b, "--inputs", x,
                           "--out", str(out))
    assert code == 5
    assert json.loads(err) == {"error": "ReconstructionFailed", "exit_code": 5,
                               "message": "output has no unique verified preimage"}
    assert not out.exists()
    with pytest.warns(UserWarning, match="outside the declared ball"):
        code, _, err = run(capsys, "reconstruct", w, "--bias", b, "--inputs", x,
                           "--out", str(out), "--force")
    assert code == 0
    _, rows = _csv_rows(out.read_text())
    assert rows.shape == (300, 12 + 3 + 1)
    assert np.flatnonzero(np.isnan(rows).any(axis=1)).tolist() == [299]
    assert np.max(np.abs(rows[:299, 12:15] - want[:299])) <= 1e-12
    assert np.max(rows[:299, -1]) <= 1e-8
    assert err == "warning: 1 inputs could not be reconstructed\n"


def test_outside_ball_row_with_a_spanning_pattern_inverts(capsys, tmp_path):
    # (0.3, 3.8, 2.2) lies outside the ball, but its positive pattern spans
    # and its solve verifies: that solve is its only preimage in R^n, so the
    # command inverts it, with no --force, and prints no `nan`
    xs = np.vstack([oracles.sample_ball(np.random.default_rng(85), 3, 299), [[0.3, 3.8, 2.2]]])
    (w, b, x), (want, want_failed) = _reconstruct_files(tmp_path, *_certified_layer(), xs)
    assert not want_failed.any()
    with pytest.warns(UserWarning, match="outside the declared ball"):
        code, out, err = run(capsys, "reconstruct", w, "--bias", b, "--inputs", x)
    assert (code, err) == (0, "") and "nan" not in out
    _, rows = _csv_rows(out)
    assert np.max(np.abs(rows[:, 12:15] - xs)) <= 1e-12 and np.max(rows[:, -1]) <= 1e-12


def test_reconstruct_warns_once_for_an_outside_ball_row(capsys, tmp_path):
    # the inputs' ball check warns; recomputing the outputs to write them does not
    xs = np.vstack([oracles.sample_ball(np.random.default_rng(86), 3, 20), [[0.3, 3.8, 2.2]]])
    (w, b, x), _ = _reconstruct_files(tmp_path, *_certified_layer(), xs)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run(capsys, "reconstruct", w, "--bias", b, "--inputs", x, "--force")
    assert code == 0 and len(out.splitlines()) == 1 + 21
    assert [str(c.message) for c in caught] == ["input lies outside the declared ball"]


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def wide_force_files(tmp_path):
    """The uncertified layer of `_forced_layer` and 1,100 ball inputs, some
    of which print `nan` under --force: five blocks of up to 256 rows, about
    94 KB of text each."""
    xs = oracles.sample_ball(np.random.default_rng(87), 3, 1100)
    (w, b, x), (_, want_failed) = _reconstruct_files(tmp_path, *_forced_layer(), xs)
    assert 0 < want_failed.sum() < len(xs)
    return ["reconstruct", w, "--bias", b, "--inputs", x, "--force"], int(want_failed.sum())


def test_reconstruct_output_is_byte_identical(capsys, tmp_path, wide_force_files):
    # five blocks with `nan` rows: standard output, the --out file and the
    # repr oracle's re-print of the parsed values agree byte for byte
    argv, failed = wide_force_files
    want_err = f"warning: {failed} inputs could not be reconstructed\n"
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, want_err)
    header, values = _csv_rows(out)
    body = out.partition("\n")[2]
    assert header.startswith("z0,") and values.shape == (1100, 20 + 3 + 1)
    assert np.isnan(values).any() and "nan" in body
    assert_same_text(body, oracles.format_matrix_repr(values))
    path = tmp_path / "out.csv"
    code, printed, err = run(capsys, *argv, "--out", str(path))
    assert (code, printed, err) == (0, "", want_err)
    assert path.read_bytes() == out.encode()
    _no_children()


def test_large_reconstruct_starts_no_process(capsys, monkeypatch, tmp_path):
    # 8,300 rows of a certified tetrahedron layer are 33 blocks of 256: this
    # process writes every one of them. A started process fails the test here
    # (an AssertionError, which no caller swallows as it would an OSError).
    xs = oracles.sample_ball(np.random.default_rng(90), 3, 8300)
    bias = np.full(4, -1.0 / np.sqrt(3.0))
    paths = [tmp_path / name for name in ("w.csv", "b.csv", "x.csv")]
    for path, a in zip(paths, (rc.tetrahedron(), bias, xs)):
        path.write_text(fio.format_matrix(a))
    assert cli._block_rows(4 + 3 + 1) == 256 and -(-len(xs) // 256) == 33

    def no_fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    w, b, x = map(str, paths)
    code, out, err = run(capsys, "reconstruct", w, "--bias", b, "--inputs", x)
    assert (code, err) == (0, "")
    _, values = _csv_rows(out)
    body = out.partition("\n")[2]
    assert values.shape == (8300, 8)
    assert_same_text(body, oracles.format_matrix_repr(values))
    assert np.max(np.abs(values[:, 4:7] - xs)) <= 1e-12
    _no_children()


def test_closed_stdout_exits_1_quietly(tmp_path):
    # `relucert reconstruct ... | head -1`: the reader takes one line and
    # closes the pipe while about 160 KB are still to come. The console
    # script exits 1 with nothing on standard error.
    xs = oracles.sample_ball(np.random.default_rng(89), 3, 1000)
    bias = np.full(4, -1.0 / np.sqrt(3.0))
    (w, b, x), _ = _reconstruct_files(tmp_path, rc.tetrahedron(), bias, xs)
    env = {**os.environ, "PYTHONPATH": str(Path(rc.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-c", "from relucert.cli import entry; entry()",
         "reconstruct", w, "--bias", b, "--inputs", x],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        header = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:  # a hung command fails the test; it must not outlive it
            proc.kill()
            proc.wait()
    assert header.startswith(b"z0,z1,z2,z3,xhat0,")
    assert (proc.returncode, err) == (1, b"")


def test_console_warning_is_one_line(tmp_path):
    # the console script prints the inputs' ball warning as one line, like
    # its other messages: no source path, no code line
    xs = np.vstack([oracles.sample_ball(np.random.default_rng(87), 3, 20), [LOST]])
    (w, b, x), _ = _reconstruct_files(tmp_path, *_certified_layer(), xs)
    env = {**os.environ, "PYTHONPATH": str(Path(rc.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "from relucert.cli import entry; entry()",
         "reconstruct", w, "--bias", b, "--inputs", x, "--force"],
        capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 1 + 21
    assert proc.stderr.decode().splitlines() == [
        "warning: input lies outside the declared ball",
        "warning: 1 inputs could not be reconstructed"]


@pytest.mark.parametrize("n, m, slice_rows, block_rows", [(3, 200, 80, 240), (4, 60, 252, 252)])
def test_reconstruct_blocks_hold_whole_slices(capsys, monkeypatch, tmp_path,
                                              n, m, slice_rows, block_rows):
    # blocks of the most whole formatter slices in 256 rows: each block of
    # r rows formats in ceil(r / s) `_format_rows` calls, and the CSV is the
    # repr oracle's byte for byte at every slice and block edge
    cols = m + n + 1
    s, b = fio.slice_rows(cols), cli._block_rows(cols)
    assert (s, b) == (slice_rows, block_rows)
    assert cli._block_rows(4) == cli._block_rows(2 * fio.SLICE_FIELDS) == cli.RECONSTRUCT_BLOCK
    frame, _, _ = rc.normalize(rc.random_sphere(n, m, 5))
    layer = rc.ReLULayer(frame, rc.pbe_ball(frame, rc.build_polytope(frame), 1.0).alpha_scaled
                         - 1e-3)
    xs = oracles.sample_ball(np.random.default_rng(89), n, 3 * b + 7, 0.9)
    (tmp_path / "w.csv").write_text(fio.format_matrix(frame.elements))
    (tmp_path / "b.csv").write_text(fio.format_matrix(layer.bias))
    counts = sorted({1, s - 1, s, s + 1, b, b + 1, 3 * b + 7})
    for rows in counts:
        (tmp_path / f"x{rows}.csv").write_text(fio.format_matrix(xs[:rows]))
    blocks = []  # (rows, _format_rows calls) per format_matrix call
    format_matrix, format_rows = fio.format_matrix, fio._format_rows

    def counting_rows(a, follows):
        blocks[-1][1] += 1
        return format_rows(a, follows)

    def recording(a):
        blocks.append([len(a), 0])
        return format_matrix(a)

    monkeypatch.setattr(fio, "_format_rows", counting_rows)
    monkeypatch.setattr(fio, "format_matrix", recording)
    header = ",".join([f"z{i}" for i in range(m)] + [f"xhat{j}" for j in range(n)]
                      + ["roundtrip_error"])
    for rows in counts:
        blocks.clear()
        code, out, err = run(capsys, "reconstruct", str(tmp_path / "w.csv"), "--bias",
                             str(tmp_path / "b.csv"), "--inputs", str(tmp_path / f"x{rows}.csv"))
        assert (code, err) == (0, ""), rows
        lines = out.split("\n")
        values = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
        assert_same_text(out, header + "\n" + oracles.format_matrix_repr(values), f"{rows} rows")
        assert np.max(np.abs(values[:, :m] - rc.forward(layer, xs[:rows]))) <= 1e-12
        assert np.max(np.abs(values[:, m:m + n] - xs[:rows])) <= 1e-12
        sizes = [b] * (rows // b) + ([rows % b] if rows % b else [])
        assert blocks == [[r, -(-r // s)] for r in sizes], rows


@pytest.mark.parametrize("command", ["gen", "reconstruct"])
def test_unwritable_out_exits_2(capsys, tmp_path, command):
    missing = str(tmp_path / "no-such-dir" / "out.csv")
    if command == "gen":
        argv = ["gen", "basis", "--n", "3"]
    else:
        w, b, x = (tmp_path / name for name in ("w.csv", "b.csv", "x.csv"))
        w.write_text(fio.format_matrix(rc.mercedes_benz()))
        b.write_text("-0.5,-0.5,-0.5\n")
        x.write_text(fio.format_matrix(oracles.sample_ball(np.random.default_rng(88), 2, 600)))
        argv = ["reconstruct", str(w), "--bias", str(b), "--inputs", str(x)]
    code, out, err = run(capsys, *argv, "--out", missing)
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ParseError"
    assert doc["message"].startswith(f"cannot write {missing}: ")
    _no_children()


def test_parser_is_built_once():
    from relucert.cli import build_parser

    assert build_parser() is build_parser()


def test_monitor_proportion_example(capsys, tmp_path):
    trace = tmp_path / "trace.txt"
    epochs = [(0, rc.mercedes_benz(), np.array([-0.6, -0.4, -0.5]))]
    trace.write_text(fio.format_trace(epochs))
    code, out, _ = run(capsys, "monitor", str(trace), "--radius", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "epoch,mean_rescaled_bias,mean_alpha_scaled,proportion_below,omnidirectional"
    fields = lines[1].split(",")
    assert fields[0] == "0"
    assert float(fields[1]) == pytest.approx(-0.5)
    assert float(fields[2]) == pytest.approx(-0.5, abs=1e-9)
    assert float(fields[3]) == pytest.approx(2.0 / 3.0)
    assert fields[4] == "true"


def test_monitor_proportion_extremes(capsys, tmp_path):
    # biases strictly below the estimate give 1.0, strictly above give 0.0
    trace = tmp_path / "trace.txt"
    below = [(k, rc.mercedes_benz(), np.full(3, -0.5 - 0.1)) for k in range(3)]
    trace.write_text(fio.format_trace(below))
    code, out, _ = run(capsys, "monitor", str(trace), "--radius", "1")
    assert code == 0
    assert all(line.split(",")[3] == "1.0" for line in out.strip().splitlines()[1:])
    above = [(k, rc.mercedes_benz(), np.full(3, -0.5 + 0.1)) for k in range(3)]
    trace.write_text(fio.format_trace(above))
    code, out, _ = run(capsys, "monitor", str(trace), "--radius", "1")
    assert all(line.split(",")[3] == "0.0" for line in out.strip().splitlines()[1:])


def test_monitor_rescaling_invariance(capsys, tmp_path):
    # scaling weight rows and bias entries together preserves every activation
    # comparison, so the proportion column cannot move
    rng = np.random.default_rng(81)
    base_w = rc.mercedes_benz()
    epochs, scaled = [], []
    for k in range(5):
        w = base_w + 0.01 * rng.standard_normal((3, 2))
        b = np.full(3, -0.5) + 0.1 * rng.standard_normal(3)
        scale = rng.uniform(0.2, 5.0, size=3)
        epochs.append((k, w, b))
        scaled.append((k, w * scale[:, None], b * scale))
    t1, t2 = tmp_path / "t1.txt", tmp_path / "t2.txt"
    t1.write_text(fio.format_trace(epochs))
    t2.write_text(fio.format_trace(scaled))
    _, out1, _ = run(capsys, "monitor", str(t1), "--radius", "1")
    _, out2, _ = run(capsys, "monitor", str(t2), "--radius", "1")
    col = lambda text: [line.split(",")[3] for line in text.strip().splitlines()[1:]]
    assert col(out1) == col(out2)


def test_monitor_skips_bad_epochs(capsys, tmp_path):
    # a failing epoch is logged as one JSON line and skipped; one that
    # fails pbe_ball's precondition carries the library's error and message
    trace = tmp_path / "trace.txt"
    quadrant = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    epochs = [
        (0, rc.mercedes_benz(), np.full(3, -0.6)),
        (1, np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), np.zeros(3)),  # degenerate
        (2, quadrant, np.zeros(3)),  # not omnidirectional
        (3, rc.mercedes_benz(), np.full(3, -0.6)),
    ]
    trace.write_text(fio.format_trace(epochs))
    code, out, err = run(capsys, "monitor", str(trace), "--radius", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "3"]
    logged = [json.loads(line) for line in err.strip().splitlines()]
    assert [doc["epoch"] for doc in logged] == [1, 2]
    frame = rc.normalize(quadrant)[0]
    with pytest.raises(rc.errors.NotOmnidirectional) as lib:
        rc.pbe_ball(frame, rc.build_polytope(frame))
    assert logged[1] == {"epoch": 2, "error": "NotOmnidirectional", "message": str(lib.value)}


def test_monitor_ragged_trace_is_a_parse_error(capsys, tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text("epoch 0\n1,0\n0,1,0\n-1,-1\nbias,0,0,0\n")
    code, out, err = run(capsys, "monitor", str(trace))
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ParseError"
    assert doc["message"] == f"{trace}:3: expected 2 fields, got 3"


def test_monitor_all_epochs_fail(capsys, tmp_path):
    trace = tmp_path / "trace.txt"
    epochs = [(0, np.eye(3), np.zeros(3))]  # not omnidirectional
    trace.write_text(fio.format_trace(epochs))
    code, _, err = run(capsys, "monitor", str(trace), "--radius", "1")
    assert code == 3
    assert "NotOmnidirectional" in err


def test_stdin_pipeline(tmp_path, capsys, monkeypatch):
    import io as _io

    text = fio.format_matrix(rc.mercedes_benz())
    monkeypatch.setattr("sys.stdin", _io.StringIO(text))
    code, out, _ = run(capsys, "pbe", "--radius", "1")
    assert code == 0
    doc = Report.from_text(out).document
    assert np.allclose(doc["bias_estimate"]["alpha_B"], -0.5, atol=1e-9)
