import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relucert as rc
from relucert import io as fio
from relucert.cli import main
from relucert.errors import ParseError
from relucert.reports import UNCONSTRAINED_SENTINEL, Report, render

import oracles


def test_matrix_roundtrip(tmp_path):
    a = np.array([[0.1, -2.5e-17], [1.0 / 3.0, 4.0]])
    path = tmp_path / "m.csv"
    path.write_text(fio.format_matrix(a))
    b = fio.read_matrix(str(path))
    assert np.array_equal(a, b)


def test_matrix_parse_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    with pytest.raises(ParseError):
        fio.read_matrix(str(bad))
    bad.write_text("1,x\n")
    with pytest.raises(ParseError):
        fio.read_matrix(str(bad))
    bad.write_text("")
    with pytest.raises(ParseError):
        fio.read_matrix(str(bad))
    bad.write_text("1,nan\n")
    with pytest.raises(ParseError):
        fio.read_matrix(str(bad))
    with pytest.raises(ParseError):
        fio.read_matrix(str(tmp_path / "missing.csv"))


# fields float() takes (whitespace, underscores, inf/nan spellings, an
# overflow to inf, Arabic-Indic digits) and fields it rejects
FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from([" 1.5", "2.5 ", "\t-3", "1_000", "1e400", "-1e400", "inf", "-Infinity",
                     "nan", "\u0661\u0662", "\u0661.\u0665", ".5", "5.", "+.5e-3",
                     "", " ", "x", "1__0", "_1", "0x10", "1e", "1,5"]))
LINES = st.one_of(st.lists(FIELDS, min_size=1, max_size=4).map(",".join),
                  st.sampled_from(["", "   ", "\t"]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.lists(FIELDS, min_size=3, max_size=3).map(",".join), max_size=6),
       st.lists(st.tuples(st.integers(0, 6), LINES), max_size=3))
def test_parse_matrix_matches_per_line_parse(rows, inserts):
    # mostly three-field rows, with ragged, bad, blank and non-finite lines
    # put in: the same array bytes, or the same first ParseError message
    lines = list(rows)
    for at, line in inserts:
        lines.insert(min(at, len(lines)), line)
    try:
        want = oracles.parse_matrix_per_line(lines, "m.csv")
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            fio.parse_matrix(lines, "m.csv")
        assert str(got.value) == str(exc)
    else:
        got = fio.parse_matrix(iter(lines), "m.csv")
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_format_matrix_prints_every_entry_as_a_float():
    # integer entries print as 1.0, as `float` reprs them; a vector is one row
    assert fio.format_matrix(np.array([[1, 0], [-2, 3]])) == "1.0,0.0\n-2.0,3.0\n"
    assert fio.format_matrix(np.arange(3)) == "0.0,1.0,2.0\n"
    # the same text as formatting each numpy entry on its own
    a = np.random.default_rng(5).standard_normal((4, 3)) * np.logspace(-20, 20, 3)
    want = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in a)
    assert fio.format_matrix(a) == want


def test_vector_row_or_column(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("1.5,2.5,3.5\n")
    assert np.array_equal(fio.read_vector(str(path)), [1.5, 2.5, 3.5])
    path.write_text("1.5\n2.5\n3.5\n")
    assert np.array_equal(fio.read_vector(str(path)), [1.5, 2.5, 3.5])
    path.write_text("1,2\n3,4\n")
    with pytest.raises(ParseError):
        fio.read_vector(str(path))
    path.write_text("1,2,3\n")
    with pytest.raises(ParseError):
        fio.read_vector(str(path), length=2)


def test_trace_roundtrip(tmp_path):
    epochs = [
        (0, np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]), np.array([0.1, -0.2, 0.3])),
        (1, np.array([[1.1, 0.0], [0.0, 2.1], [1.0, 0.9]]), np.array([0.0, -0.1, 0.4])),
    ]
    path = tmp_path / "trace.txt"
    path.write_text(fio.format_trace(epochs))
    parsed = fio.read_trace(str(path))
    assert len(parsed) == 2
    for (k0, w0, b0), (k1, w1, b1) in zip(epochs, parsed):
        assert k0 == k1
        assert np.array_equal(w0, w1)
        assert np.array_equal(b0, b1)


def test_trace_errors(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("epoch 0\n1,0\nbias,0.1\nepoch 1\n1,0,0\nbias,0.1\n")
    with pytest.raises(ParseError):
        fio.read_trace(str(path))  # shape changes between epochs
    path.write_text("epoch 0\n1,0\n2,1\n")
    with pytest.raises(ParseError):
        fio.read_trace(str(path))  # missing bias row
    path.write_text("nonsense\n")
    with pytest.raises(ParseError):
        fio.read_trace(str(path))


def test_render_fixed_format():
    assert render({"a": 1.0, "b": [True, None, "s"]}) == '{"a": 1, "b": [true, null, "s"]}'
    assert render(0.5) == "0.5"
    assert render(-0.0) == "0"
    assert render(1.0 / 3.0) == "0.33333333333333331"
    with pytest.raises(ValueError):
        render(float("inf"))


RENDER_CASES = {
    "bools": [True, False, True],
    "bool-and-int": [1, True, 0, False],
    "numpy-scalars": [np.float64(0.1), np.int64(-3), np.float32(2.5), np.float64(-0.0)],
    "numpy-array": np.array([[1.5, -0.0], [2.0, 3.0]]),
    "negative-zero": [-0.0, 0.0, -0.0, 1e-300, -1e-300],
    "empty": [[], (), {}, [[]], [(), []]],
    "tuples": ((0, 1, 2), (3,), ()),
    "int-lists": [[0, 1, 2], (3, 4), [5]],
    "bool-lists": [[0, True], (False,)],
    "int-and-float": [1, 2.0, 3],
    "alpha": [UNCONSTRAINED_SENTINEL, None, 0.25, -0.0, None, UNCONSTRAINED_SENTINEL, 1e-17],
    "nested": {"a": [1.0 / 3.0, 2e300], "b": {"c": [None, "x\u00e9\"", [True, 2]]}},
}


@pytest.mark.parametrize("name", sorted(RENDER_CASES))
def test_render_matches_recursive_writer(name):
    value = RENDER_CASES[name]
    assert render(value) == oracles.render_recursive(value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_render_non_finite_raises_in_every_list(bad):
    for value in ([bad], [1.0, bad], [None, 1.0, bad], [[0.5, bad]], {"a": (bad,)},
                  np.array([bad]), [np.float64(bad)]):
        with pytest.raises(ValueError):
            oracles.render_recursive(value)
        with pytest.raises(ValueError):
            render(value)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30),
       st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=10))
def test_render_float_and_int_lists_match_recursive_writer(floats, ints):
    for value in (floats, ints, [floats, ints], [ints, ints], floats + [None]):
        assert render(value) == oracles.render_recursive(value)


def test_rendered_reports_match_recursive_writer(capsys, tmp_path):
    # a ball+ pbe report (the alpha lists mix the sentinel, null and floats)
    # and a certify report with a bias
    w = tmp_path / "w.csv"
    b = tmp_path / "b.csv"
    w.write_text(fio.format_matrix(rc.icosahedron()))
    b.write_text(",".join(["-0.3"] * 12) + "\n")
    for argv in (["pbe", str(w), "--domain", "ball+"], ["certify", str(w), "--bias", str(b)]):
        assert main(argv) == 0
        text = capsys.readouterr().out
        doc = Report.from_text(text).document
        assert text == oracles.render_recursive(doc) + "\n"


def test_report_roundtrip_is_lossless_and_stable(mb):
    cert = rc.certify(rc.ReLULayer(mb.frame, np.full(3, -0.6)), mb.estimate)
    report = rc.build_report(
        command="certify", version="0.1.0", domain="ball", radius=1.0,
        frame=mb.frame, norms=np.ones(3), rescaled_bias=np.full(3, -0.6),
        poly=mb.poly, omnidirectional=True, positive_report=None,
        estimate=mb.estimate, stability_report=rc.stability(mb.frame, mb.poly, 1.0),
        certificate=cert, solver_tol=1e-9)
    text = report.to_text()
    again = Report.from_text(text)
    assert again.to_text() == text  # byte-identical re-emission
    alpha = again.document["bias_estimate"]["alpha_B"]
    assert alpha == [float(v) for v in mb.estimate.alpha_B]  # exact floats back


def test_report_unconstrained_sentinel(ico):
    pos = rc.positive_facets(ico.poly)
    est = rc.pbe_positive(ico.frame, ico.poly, pos, 1.0)
    report = rc.build_report(
        command="pbe", version="0.1.0", domain="ball+", radius=1.0,
        frame=ico.frame, norms=np.ones(12), rescaled_bias=None, poly=ico.poly,
        omnidirectional=True, positive_report=pos, estimate=est,
        stability_report=None, certificate=None, solver_tol=1e-9)
    doc = Report.from_text(report.to_text()).document
    entries = doc["bias_estimate"]["alpha_B"]
    for i in range(12):
        if est.unconstrained_mask[i]:
            assert entries[i] == "unconstrained"
        else:
            assert entries[i] == 0.0
    # entries the cone programs never ran are null
    assert all(v is None or v == "unconstrained" for v in doc["bias_estimate"]["alpha_S"])
