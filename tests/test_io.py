import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import relucert as rc
from relucert import io as fio, reports
from relucert.cli import _block_rows, main
from relucert.errors import ParseError
from relucert.reports import UNCONSTRAINED_SENTINEL, Entries, IntLists, Report, render

import oracles
from conftest import assert_same_text


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


FLOAT_MATRICES = hnp.arrays(
    np.float64, st.tuples(st.integers(0, 6), st.integers(0, 6)),
    elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(FLOAT_MATRICES)
def test_format_matrix_matches_repr_on_any_floats(a):
    # nan, +-inf, +-0.0 and subnormals included; empty shapes too
    assert_same_text(fio.format_matrix(a), oracles.format_matrix_repr(a))


def _edge_floats() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(24)
    bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64)
    # exponents from 2^-14 to 2^54: mostly inside the exact path's window
    window = ((rng.integers(1009, 1078, 200_000).astype(np.uint64) << np.uint64(52))
              | rng.integers(0, 2 ** 52, 200_000, dtype=np.uint64)).view(np.float64)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)]
                      + [2.0 ** k for k in range(-1074, 1024)])
    edges = np.array([1e-4, 1e16])
    ints = np.arange(-2000.0, 2001.0)
    scaled = rng.uniform(-1, 1, 20_000) * 10.0 ** rng.integers(-6, 18, 20_000)
    decimals = np.array([float(f"{v:.{1 + i % 17}g}") for i, v in enumerate(scaled)])
    return {
        "bits": bits[np.isfinite(bits)],
        "window": window,
        "powers": np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)]),
        "edges": np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)]),
        "ints": np.concatenate([2.0 ** 53 + ints, 2.0 ** 52 + ints, 2.0 ** 54 + 2 * ints]),
        "decimals": decimals,
        "fractions": np.arange(1, 20_000) / 20_000,  # no field has an integer digit
    }


def test_format_matrix_matches_repr_on_edge_floats():
    # random bit patterns, every 10^k and 2^k and the window edges 1e-4 and
    # 1e16 with their neighbours, integers around 2^53, decimals of 1 to 17
    # digits, fractions below 1; both signs, in rows of 7 and in one column
    floats = _edge_floats()
    for name, v in floats.items():
        v = np.concatenate([v, -v])
        a = v[:v.size // 7 * 7].reshape(-1, 7)
        assert_same_text(fio.format_matrix(a), oracles.format_matrix_repr(a), name)
    column = floats["fractions"][:, None]
    assert_same_text(fio.format_matrix(column), oracles.format_matrix_repr(column), "column")
    for empty in (np.zeros((0, 3)), np.zeros((3, 0)), np.zeros(0)):
        assert_same_text(fio.format_matrix(empty), oracles.format_matrix_repr(empty), "empty")
    # rows of 204 fields across two slice edges: about half 0.0, with -0.0
    # and negative fields, and in every row the same fields left to repr,
    # one of them longer than any exact field (the row grows a word)
    rng = np.random.default_rng(25)
    rows = 2 * (fio.SLICE_FIELDS // 204) + 1
    a = rng.uniform(-2.0, 2.0, (rows, 204))
    a[rng.random(a.shape) < 0.5] = 0.0
    a[rng.random(a.shape) < 0.05] = -0.0
    a[:, ::34] = [1e-17, 2.0 ** -60, np.nan, -np.inf, 1e300, -(2.0 ** -1000)]
    assert_same_text(fio.format_matrix(a), oracles.format_matrix_repr(a), "slices")


def _reconstruct_block(n: int, m: int, rows: int = 256) -> np.ndarray:
    """A block of `rows` rows as `relucert reconstruct` writes it for a
    certified (n, m) layer: ReLU outputs (about half 0.0), reconstructed
    inputs, and round-trip errors (about 1e-16, below the exact path's
    window)."""
    frame, _, _ = rc.normalize(rc.random_sphere(n, m, 5))
    poly = rc.build_polytope(frame)
    bias = rc.pbe_ball(frame, poly, 1.0).alpha_scaled - 1e-3
    layer = rc.ReLULayer(frame, bias, 1.0)
    x = oracles.sample_ball(np.random.default_rng(6), n, rows, 0.9)
    z = rc.forward(layer, x)
    xhat, failed = rc.reconstruct_batch(layer, z)
    assert not failed.any()
    return np.hstack([z, xhat, np.max(np.abs(xhat - x), axis=1)[:, None]])


@pytest.mark.parametrize("n, m, bound", [(3, 200, 1.62e6), (4, 60, 1.30e6)])
def test_format_matrix_peak_memory(n, m, bound):
    # the traced peak of formatting a reconstruct block, its text included,
    # at 256 rows and at the command's block size (whole slices): the bounds
    # are the peaks measured with 8,192-field slices of 8-word rows, which
    # larger slices of 6-word rows must not exceed
    for rows in (256, _block_rows(n + m + 1)):
        block = _reconstruct_block(n, m, rows)
        want = oracles.format_matrix_repr(block)
        assert_same_text(fio.format_matrix(block), want)  # builds the digit tables first
        tracemalloc.start()
        try:
            got = fio.format_matrix(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_text(got, want)
        assert peak <= bound, (rows, peak)


def test_format_matrix_leaves_few_fields_to_repr(monkeypatch):
    block = _reconstruct_block(3, 200)
    counted = []
    repr_fields = fio._repr_fields

    def counting(values):
        counted.append(values.size)
        return repr_fields(values)

    monkeypatch.setattr(fio, "_repr_fields", counting)
    assert_same_text(fio.format_matrix(block), oracles.format_matrix_repr(block))
    assert 0 < sum(counted) < 0.02 * block.size


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


def test_trace_errors_name_the_file_line(tmp_path):
    # blank lines count: each message names the line as the file numbers it
    path = tmp_path / "trace.txt"
    cases = {"epoch 0\n1,0\n\n0,1\nbias,0,x\n": ":5: bad numeric field",
             "epoch 0\n\n1,x\nbias,0\n": ":3: bad numeric field",
             "epoch 0\n1,0\nbias,0\n\n\nepochs 1\n": "expected 'epoch <k>' at line 6",
             "\nepoch 0\n1,0\nbias,0\n\nepoch one\n": "bad epoch number at line 6"}
    for text, message in cases.items():
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(message)):
            fio.read_trace(str(path))


TRACE_FLOATS = st.one_of(
    st.floats(-1e3, 1e3), st.just(-0.0),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals
    st.floats(1e299, 1e301), st.floats(-1e301, -1e299))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_read_trace_matches_format_trace_and_names_bad_lines(tmp_path_factory, data):
    # 1-4 epochs of one shape with blank lines put in: the same epochs back,
    # byte for byte; a bad field or a short weight row is named by its
    # line as the file numbers it
    m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    epochs = [(data.draw(st.integers(-5, 1000)),
               data.draw(hnp.arrays(np.float64, (m, n), elements=TRACE_FLOATS)),
               data.draw(hnp.arrays(np.float64, m, elements=TRACE_FLOATS)))
              for _ in range(data.draw(st.integers(1, 4)))]
    lines = fio.format_trace(epochs).splitlines()
    for at, blank in data.draw(st.lists(st.tuples(st.integers(0, len(lines)),
                                                  st.sampled_from(["", "  ", "\t"])), max_size=6)):
        lines.insert(at, blank)
    path = tmp_path_factory.getbasetemp() / "trace.txt"

    def read(lines):
        path.write_text("\n".join(lines) + "\n")
        return fio.read_trace(str(path))

    parsed = read(lines)
    assert len(parsed) == len(epochs)
    for (k0, w0, b0), (k1, w1, b1) in zip(epochs, parsed):
        assert k0 == k1 and w1.shape == (m, n) and b1.shape == (m,)
        assert w0.tobytes() == w1.tobytes() and b0.tobytes() == b1.tobytes()
    rows = [i for i, line in enumerate(lines) if line.strip() and not line.startswith("epoch ")]
    at = data.draw(st.sampled_from(rows))
    prefix = "bias," if lines[at].startswith("bias,") else ""
    fields = lines[at][len(prefix):].split(",")
    fields[data.draw(st.integers(0, len(fields) - 1))] = "x"
    with pytest.raises(ParseError, match=re.escape(f"{path}:{at + 1}: bad numeric field")):
        read(lines[:at] + [prefix + ",".join(fields)] + lines[at + 1:])
    # the first weight row of a block sets its width, as in a matrix file
    later = [i for i in rows if not lines[i].startswith("bias,")
             and not [line for line in lines[:i] if line.strip()][-1].startswith("epoch ")]
    if n > 1 and later:
        at = data.draw(st.sampled_from(later))
        fields = lines[at].split(",")
        del fields[data.draw(st.integers(0, n - 1))]
        with pytest.raises(ParseError, match=re.escape(f"{path}:{at + 1}: expected {n} fields, got {n - 1}")):
            read(lines[:at] + [",".join(fields)] + lines[at + 1:])


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
    "numpy-floats": np.array([-0.0, 1e-17, 2e300, 0.5, -1.0 / 3.0]),
    "numpy-ints": np.array([3, -1, 0]),
    "negative-zero": [-0.0, 0.0, -0.0, 1e-300, -1e-300],
    "empty": [[], (), {}, [[]], [(), []]],
    "tuples": ((0, 1, 2), (3,), ()),
    "int-lists": [[0, 1, 2], (3, 4), [5]],
    "bool-lists": [[0, True], (False,)],
    "int-and-float": [1, 2.0, 3],
    "alpha": [UNCONSTRAINED_SENTINEL, None, 0.25, -0.0, None, UNCONSTRAINED_SENTINEL, 1e-17],
    "nested": {"a": [1.0 / 3.0, 2e300], "b": {"c": [None, "x\u00e9\"", [True, 2]]}},
    "literals-with-percent": ["%d", "100%", "%.17g", 'a"b', "\\", "%%s", 0.5, None, 7],
    "bools-among-numbers": [True, 1, 1.5, False, 0, -0.0],
    "big-ints-among-floats": [2 ** 70, -2 ** 70, 0.25, None, 10 ** 20],
    "int-lists-mixed-lengths": [[0, 1, 2], (3,), [], (4, 5, 6, 7), [8, 9]],
    "empty-lists": [[], [[]], [[], []], ([],)],
}


@pytest.mark.parametrize("name", sorted(RENDER_CASES))
def test_render_matches_recursive_writer(name):
    value = RENDER_CASES[name]
    assert render(value) == oracles.render_recursive(value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_render_non_finite_raises_in_every_list(bad):
    mixed = [UNCONSTRAINED_SENTINEL, None, 0.5, True, 3, "x", -0.0]
    at_every_position = [mixed[:at] + [bad] + mixed[at:] for at in range(len(mixed) + 1)]
    for value in ([bad], [1.0, bad], [None, 1.0, bad], [[0.5, bad]], {"a": (bad,)},
                  np.array([bad]), [np.float64(bad)], *at_every_position):
        with pytest.raises(ValueError):
            oracles.render_recursive(value)
        with pytest.raises(ValueError):
            render(value)
    for at in range(4):
        values = np.full(4, 0.25)
        values[at] = bad
        with pytest.raises(ValueError):
            render(Entries(values, np.zeros(4, dtype=int)))
        # a literal's value is never printed, whatever it holds
        codes = (np.arange(4) == at).astype(int)
        assert render(Entries(values, codes, ("null",))) == "[" + ", ".join(
            ["0.25"] * at + ["null"] + ["0.25"] * (3 - at)) + "]"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30),
       st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=10))
def test_render_float_and_int_lists_match_recursive_writer(floats, ints):
    for value in (floats, ints, [floats, ints], [ints, ints], floats + [None]):
        assert render(value) == oracles.render_recursive(value)


_SCALARS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e-17, 2e300, -2e300, 5e-324]),
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.text(st.sampled_from('ab%"\\\u00e9\n '), max_size=6),
    st.just(UNCONSTRAINED_SENTINEL))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_SCALARS, max_size=40))
def test_render_mixed_lists_match_recursive_writer(values):
    # floats, ints, bools, None and strings in one list are rendered item
    # by item; bools print as true/false, not as 1/0
    assert render(values) == oracles.render_recursive(values)
    assert render(tuple(values)) == oracles.render_recursive(values)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.integers(-2 ** 40, 2 ** 40), max_size=7), max_size=12))
def test_render_int_lists_match_recursive_writer(lists):
    want = oracles.render_recursive(lists)
    assert render(lists) == want
    assert render(IntLists(list(map(len, lists)), [i for v in lists for i in v])) == want


_LITERAL_TEXTS = ('"unconstrained"', "null", '"50%"', "true", '"%d%%"')


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                    st.sampled_from([-0.0, 1e-17, 2e300])),
                          st.integers(0, len(_LITERAL_TEXTS))), max_size=30))
def test_render_entries_match_recursive_writer(pairs):
    values = np.array([v for v, _ in pairs], dtype=float)
    codes = np.array([c for _, c in pairs], dtype=int)
    want = [json.loads(_LITERAL_TEXTS[c - 1]) if c else v for v, c in pairs]
    assert render(Entries(values, codes, _LITERAL_TEXTS)) == oracles.render_recursive(want)


def _positive_report(m: int, seed: int):
    """A ball+ certify report of random_sphere(3, m, seed) with two failing rows."""
    frame, _, _ = rc.normalize(rc.random_sphere(3, m, seed))
    poly = rc.build_polytope(frame)
    pos = rc.positive_facets(poly)
    est = rc.pbe_positive(frame, poly, pos, 1.0)
    bias = np.where(est.unconstrained_mask, -0.5, est.alpha_scaled - 1e-3)
    bias[np.flatnonzero(~est.unconstrained_mask)[:2]] += 0.2
    layer = rc.ReLULayer(frame, bias, 1.0, "ball+")
    return rc.build_report(
        command="certify", norms=np.ones(m), rescaled_bias=bias, poly=poly,
        positive_report=pos, estimate=est,
        stability_report=rc.stability_positive(frame, poly, pos, 1.0),
        certificate=rc.certify(layer, est))


def test_report_lists_render_without_a_call_per_entry(monkeypatch):
    report = _positive_report(200, 5)
    calls = []
    original = reports.render

    def counting(value):
        calls.append(value)
        return original(value)

    monkeypatch.setattr(reports, "render", counting)
    text = report.to_text()

    def nodes(doc: dict) -> int:  # the dict and each of its values, recursively
        return 1 + sum(nodes(v) if isinstance(v, dict) else 1 for v in doc.values())

    assert len(calls) == nodes(report.document) < 100
    doc = json.loads(text)
    alphas = doc["bias_estimate"]["alpha_S"] + doc["bias_estimate"]["alpha_X"]
    assert {type(v) for v in alphas} == {str, type(None), float}
    assert None in doc["certificate"]["margins"]
    assert len(doc["certificate"]["failing_indices"]) == 2
    assert len(doc["polytope"]["facet_vertices"]) == doc["polytope"]["num_facets"] > 300
    assert text == oracles.render_recursive(doc) + "\n"
    assert Report.from_text(text).to_text() == text


_TYPED_LISTS = {
    ("polytope", "facet_vertices"): IntLists,
    **{("bias_estimate", key): Entries
       for key in ("alpha_X", "alpha_S", "alpha_B", "alpha_scaled")},
    ("certificate", "margins"): Entries,
}


def test_built_report_document_types():
    # build_report's document: facet_vertices is an IntLists, the alpha and
    # margin lists are Entries, every other value is JSON; the parsed text
    # is plain JSON, holds the same entries and renders to the same text
    report = _positive_report(60, 3)
    text = report.to_text()
    parsed = Report.from_text(text).document
    assert json.loads(json.dumps(parsed)) == parsed
    assert Report(parsed).to_text() == text

    def json_types(v):
        yield type(v)
        if isinstance(v, (dict, list, tuple)):
            for x in (v.values() if isinstance(v, dict) else v):
                yield from json_types(x)

    for section, fields in report.document.items():
        for key, value in (fields.items() if isinstance(fields, dict) else [(None, fields)]):
            if (section, key) in _TYPED_LISTS:
                assert type(value) is _TYPED_LISTS[section, key]
            else:
                assert set(json_types(value)) <= {dict, list, tuple, float, int, bool, str,
                                                   type(None)}, (section, key)
    lists = report.document["polytope"]["facet_vertices"]
    cut = np.cumsum([0] + lists.lengths).tolist()
    assert [lists.flat[i:j] for i, j in zip(cut, cut[1:])] == \
        parsed["polytope"]["facet_vertices"]
    for (section, key), kind in _TYPED_LISTS.items():
        if kind is Entries:
            entries = report.document[section][key]
            literals = [json.loads(t) for t in entries.literals]
            assert [literals[c - 1] if c else v for v, c in
                    zip(entries.values.tolist(), entries.codes.tolist())] == parsed[section][key]


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
        command="certify", norms=np.ones(3), rescaled_bias=np.full(3, -0.6),
        poly=mb.poly, positive_report=None,
        estimate=mb.estimate, stability_report=rc.stability(mb.frame, mb.poly, 1.0),
        certificate=cert)
    text = report.to_text()
    again = Report.from_text(text)
    assert again.to_text() == text  # byte-identical re-emission
    alpha = again.document["bias_estimate"]["alpha_B"]
    assert alpha == [float(v) for v in mb.estimate.alpha_B]  # exact floats back


def test_report_header_is_read_from_the_results():
    # domain, radius, solver tolerance, fingerprint, omnidirectionality and
    # version come from the estimate, the polytope and the package; an
    # estimate of another frame than the polytope's is refused
    from relucert.errors import FrameMismatch

    frame, _, _ = rc.normalize(rc.random_sphere(3, 20, 3))
    poly = rc.build_polytope(frame)
    pos = rc.positive_facets(poly)
    est = rc.pbe_positive(frame, poly, pos, 2.0, tol=1e-8)
    doc = Report.from_text(rc.build_report(
        command="pbe", norms=np.ones(frame.m), rescaled_bias=None, poly=poly,
        positive_report=pos, estimate=est, stability_report=None,
        certificate=None).to_text()).document
    assert doc["tool"]["version"] == rc.__version__
    assert (doc["domain"], doc["radius"]) == ("ball+", 2.0)
    assert doc["input"]["fingerprint"] == frame.fingerprint()
    assert doc["polytope"]["omnidirectional"] is rc.is_omnidirectional(poly) is True
    assert doc["tolerances"]["solver"] == 1e-8
    scaled = doc["bias_estimate"]["alpha_scaled"]
    assert [v for v in scaled if v != "unconstrained"] == est.alpha_scaled[
        ~est.unconstrained_mask].tolist()
    other = rc.build_polytope(rc.normalize(rc.random_sphere(3, 20, 103))[0])
    with pytest.raises(FrameMismatch, match="estimate was computed for a different frame"):
        rc.build_report(command="pbe", norms=np.ones(frame.m), rescaled_bias=None,
                        poly=other, positive_report=rc.positive_facets(other), estimate=est,
                        stability_report=None, certificate=None)


def test_report_refuses_parts_of_another_analysis():
    # a certificate made against an estimate of another radius, domain or
    # frame, a non-negative facet report on the ball, and none on ball+
    from relucert.errors import FrameMismatch

    frame, _, _ = rc.normalize(rc.random_sphere(3, 20, 3))
    poly = rc.build_polytope(frame)
    pos = rc.positive_facets(poly)
    ball, positive = rc.pbe_ball(frame, poly, 1.0), rc.pbe_positive(frame, poly, pos, 1.0)
    other = rc.normalize(rc.random_sphere(3, 20, 103))[0]
    certificates = [
        rc.certify(rc.ReLULayer(frame, np.full(20, -0.9), 2.0), rc.pbe_ball(frame, poly, 2.0)),
        rc.certify(rc.ReLULayer(frame, np.full(20, -0.9), 1.0, "ball+"), positive),
        rc.certify(rc.ReLULayer(other, np.full(20, -0.9)),
                   rc.pbe_ball(other, rc.build_polytope(other), 1.0)),
    ]

    def build(estimate, positive_report, certificate=None):
        return rc.build_report(
            command="certify", norms=np.ones(frame.m), rescaled_bias=None, poly=poly,
            positive_report=positive_report, estimate=estimate, stability_report=None,
            certificate=certificate)

    build(ball, None, rc.certify(rc.ReLULayer(frame, np.full(20, -0.9)), ball))
    for certificate in certificates:
        with pytest.raises(FrameMismatch, match="certificate was made against a different"):
            build(ball, None, certificate)
    with pytest.raises(FrameMismatch, match="'ball' estimate takes no non-negative"):
        build(ball, pos)
    with pytest.raises(FrameMismatch, match="'ball\\+' estimate takes a non-negative"):
        build(positive, None)


def test_report_refuses_a_stability_report_of_another_radius():
    # a radius-1 report would otherwise print the image radius of the
    # radius-5 ball; the radius-1 bounds, or a radius within 1e-12 times
    # the radius, are taken
    from relucert.errors import FrameMismatch

    frame, _, _ = rc.normalize(rc.random_sphere(3, 20, 3))
    poly = rc.build_polytope(frame)
    est = rc.pbe_ball(frame, poly, 1.0)

    def build(radius):
        return rc.build_report(
            command="pbe", norms=np.ones(frame.m), rescaled_bias=None, poly=poly,
            positive_report=None, estimate=est,
            stability_report=rc.stability(frame, poly, radius), certificate=None)

    assert rc.stability(frame, poly, 5.0).radius == 5.0
    with pytest.raises(FrameMismatch, match="stability report was computed for a different radius"):
        build(5.0)
    for radius in (1.0, 1.0 + 1e-13):
        doc = Report.from_text(build(radius).to_text()).document
        assert doc["stability"]["image_radius"] == rc.stability(frame, poly, radius).image_radius


def test_report_unconstrained_sentinel(ico):
    pos = rc.positive_facets(ico.poly)
    est = rc.pbe_positive(ico.frame, ico.poly, pos, 1.0)
    report = rc.build_report(
        command="pbe", norms=np.ones(12), rescaled_bias=None, poly=ico.poly,
        positive_report=pos, estimate=est, stability_report=None, certificate=None)
    doc = Report.from_text(report.to_text()).document
    entries = doc["bias_estimate"]["alpha_B"]
    for i in range(12):
        if est.unconstrained_mask[i]:
            assert entries[i] == "unconstrained"
        else:
            assert entries[i] == 0.0
    # entries the cone programs never ran are null
    assert all(v is None or v == "unconstrained" for v in doc["bias_estimate"]["alpha_S"])
