import json
import warnings

import numpy as np
import pytest

import relucert as rc
from relucert import io as fio
from relucert.cli import main
from relucert.reports import Report

import oracles


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
    """Write the layer and inputs, and return the row-wise oracle's
    (xhat, failed) for the layer the CLI builds from them."""
    paths = [tmp_path / name for name in ("w.csv", "b.csv", "x.csv")]
    for path, a in zip(paths, (weights, bias, xs)):
        path.write_text(fio.format_matrix(a))
    frame, rescaled, _ = rc.normalize(weights, bias)
    layer = rc.ReLULayer(frame, rescaled)
    bank = rc.build_dual_bank(frame, rc.build_polytope(frame), rescaled)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # inputs outside the ball
        zs = np.array([rc.forward(layer, x) for x in xs])
    return [str(p) for p in paths], oracles.reconstruct_rows(bank, layer, zs)


def _csv_rows(text):
    lines = text.strip().splitlines()
    return lines[0], np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def test_reconstruct_force_marks_failed_rows(capsys, tmp_path):
    # an uncertified icosahedron layer (biases above its zero threshold):
    # some outputs of ball inputs have no facet left-inverse at all
    bias = np.array([-0.5, -0.3, 0.1, 0.2, 0.0, 0.2, 0.2, -0.7, -0.7, 0.0, 0.4, 0.2])
    xs = oracles.sample_ball(np.random.default_rng(84), 3, 600)
    (w, b, x), (want, want_failed) = _reconstruct_files(tmp_path, rc.icosahedron(), bias, xs)
    assert 0 < want_failed.sum() < len(xs)
    code, out, err = run(capsys, "reconstruct", w, "--bias", b, "--inputs", x, "--force")
    assert code == 0
    header, rows = _csv_rows(out)
    assert header.split(",")[-4:] == ["xhat0", "xhat1", "xhat2", "roundtrip_error"]
    assert rows.shape == (600, 12 + 3 + 1)
    assert np.array_equal(np.isnan(rows[:, 12:]).any(axis=1), want_failed)
    assert np.isnan(rows[want_failed, 12:]).all()
    assert np.max(np.abs(rows[~want_failed, 12:15] - want[~want_failed])) <= 1e-12
    assert err == f"warning: {want_failed.sum()} inputs could not be reconstructed\n"


def test_reconstruct_refusal_writes_no_file(capsys, tmp_path):
    # a certified layer; the last of 300 inputs lies outside the ball and
    # cannot be inverted, after a first block of 256 rows that can
    weights = rc.random_sphere(3, 12, 5)
    frame, _, _ = rc.normalize(weights)
    bias = rc.pbe_ball(frame, rc.build_polytope(frame), 1.0).alpha_scaled - 1e-3
    xs = np.vstack([oracles.sample_ball(np.random.default_rng(85), 3, 299), [[0.3, 3.8, 2.2]]])
    (w, b, x), (want, want_failed) = _reconstruct_files(tmp_path, weights, bias, xs)
    assert np.flatnonzero(want_failed).tolist() == [299]
    out = tmp_path / "out.csv"
    with pytest.warns(UserWarning, match="outside the declared ball"):
        code, _, err = run(capsys, "reconstruct", w, "--bias", b, "--inputs", x,
                           "--out", str(out))
    assert code == 5
    assert json.loads(err)["error"] == "ReconstructionFailed"
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


def test_reconstruct_warns_once_for_an_outside_ball_row(capsys, tmp_path):
    # the inputs' ball check warns; recomputing the outputs to write them does not
    weights = rc.random_sphere(3, 12, 5)
    frame, _, _ = rc.normalize(weights)
    bias = rc.pbe_ball(frame, rc.build_polytope(frame), 1.0).alpha_scaled - 1e-3
    xs = np.vstack([oracles.sample_ball(np.random.default_rng(86), 3, 20), [[0.3, 3.8, 2.2]]])
    (w, b, x), _ = _reconstruct_files(tmp_path, weights, bias, xs)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run(capsys, "reconstruct", w, "--bias", b, "--inputs", x, "--force")
    assert code == 0 and len(out.splitlines()) == 1 + 21
    assert [str(c.message) for c in caught] == ["input lies outside the declared ball"]


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
    trace = tmp_path / "trace.txt"
    epochs = [
        (0, rc.mercedes_benz(), np.full(3, -0.6)),
        (1, np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), np.zeros(3)),  # degenerate
        (2, rc.mercedes_benz(), np.full(3, -0.6)),
    ]
    trace.write_text(fio.format_trace(epochs))
    code, out, err = run(capsys, "monitor", str(trace), "--radius", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "2"]
    assert json.loads(err.strip().splitlines()[0])["epoch"] == 1


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
