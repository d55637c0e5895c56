"""The matrix file writer against the per-entry oracle, and what the reader refuses."""

import json
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import per_entry_dumps_matrix
from pseudounitary import dumps_matrix, loads_matrix, make_metric
from pseudounitary.cli import main
from pseudounitary.matrixfile import KIND_BLOCK, KIND_SQUARE, _pairs

MAX = sys.float_info.max


def _signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda m: -m[0] if m[1] else m[0])


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    # integer values on both sides of 1e17, where %.17g switches to an exponent
    st.integers(-10**18, 10**18).map(float),
    # magnitudes from 1e-320 (subnormal) to 1e308
    _signed(st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e)),
    st.sampled_from([0.0, -0.0, 1.0, -3.0, 0.5, 1e15 + 0.5, 1e16, -1e16,
                     99999999999999984.0, 1e17, -1e17, 1e17 + 16.0, 2.0 ** 53 + 2.0,
                     5e-324, -5e-324, 2.2250738585072014e-308, 1e-320, 1e308, MAX, -MAX]),
)

@st.composite
def matrices(draw):
    """A (metric, kind, array) triple; the array may be a transposed or strided view."""
    p = draw(st.integers(0, 3))
    q = draw(st.integers(0 if p else 1, 3))
    metric = make_metric(p, q)
    kind = draw(st.sampled_from([KIND_SQUARE, KIND_BLOCK]))
    rows, cols = (metric.n, metric.n) if kind == KIND_SQUARE else (p, q)
    layout = draw(st.sampled_from(["contiguous", "transposed", "strided"]))
    stored = {"contiguous": (rows, cols), "transposed": (cols, rows),
              "strided": (rows, 2 * cols)}[layout]
    size = 2 * stored[0] * stored[1]
    x = np.array(draw(st.lists(FLOATS, min_size=size, max_size=size)), dtype=float)
    a = x.view(complex).reshape(stored)
    a = {"contiguous": a, "transposed": a.T, "strided": a[:, ::2]}[layout]
    return metric, kind, a


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, complex).view(np.uint64)


class TestWriterAgainstOracle:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(matrices())
    def test_byte_identical(self, case):
        metric, kind, a = case
        # the per-entry writer printed the empty rows of a p x 0 block as
        # invalid JSON; test_empty_blocks_round_trip covers that case
        assume(a.size or not a.shape[0])
        assert dumps_matrix(a, metric, kind) == per_entry_dumps_matrix(a, metric, kind)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(matrices())
    def test_round_trip_is_bitwise(self, case):
        metric, kind, a = case
        doc = loads_matrix(dumps_matrix(a, metric, kind))
        assert (doc.metric, doc.kind) == (metric, kind)
        assert doc.matrix.shape == a.shape
        assert np.array_equal(_bits(doc.matrix), _bits(a))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(matrices(), st.data())
    def test_non_finite_entry_raises_like_the_oracle(self, case, data):
        metric, kind, a = case
        assume(a.size > 0)
        i = data.draw(st.integers(0, a.shape[0] - 1))
        j = data.draw(st.integers(0, a.shape[1] - 1))
        bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        a[i, j] = complex(bad, a[i, j].imag) if data.draw(st.booleans()) else \
            complex(a[i, j].real, bad)
        messages = []
        for writer in (dumps_matrix, per_entry_dumps_matrix):
            with pytest.raises(ValueError) as exc:
                writer(a, metric, kind)
            messages.append(str(exc.value))
        assert messages == [f"{kind} matrix for ({metric.p}, {metric.q}) "
                            "contains non-finite entries"] * 2

    @pytest.mark.parametrize("p, q", [(2, 0), (0, 2), (1, 0)])
    def test_empty_blocks_round_trip(self, p, q):
        metric = make_metric(p, q)
        text = dumps_matrix(np.zeros((p, q)), metric, KIND_BLOCK)
        assert '"entries": [\n\n  ]' in text
        doc = loads_matrix(text)
        assert doc.matrix.shape == (p, q) and doc.kind == KIND_BLOCK

    def test_one_row_strided_view(self):
        metric = make_metric(1, 3)
        base = np.arange(12, dtype=float).reshape(2, 6) * (1 + 0.5j) - 3.25j
        a = base[1:, ::2]
        assert a.shape == (1, 3) and not a.flags.c_contiguous
        text = dumps_matrix(a, metric, KIND_BLOCK)
        assert text == per_entry_dumps_matrix(a, metric, KIND_BLOCK)
        assert np.array_equal(loads_matrix(text).matrix, a)

    def test_signed_zeros_survive(self):
        a = np.array([[complex(-0.0, -0.0), complex(0.0, -0.0)],
                      [complex(-0.0, 0.0), complex(-1.0, -0.0)]])
        text = dumps_matrix(a, make_metric(1, 1))
        assert "[-0.0, -0.0], [0.0, -0.0]" in text
        assert np.array_equal(_bits(loads_matrix(text).matrix), _bits(a))

    def test_extra_keys_and_real_input(self):
        metric = make_metric(2, 1)
        a = np.arange(9, dtype=float).reshape(3, 3) - 4.0
        extra = {"note": "kept", "ground_truth": {"t": [0.5, 1e17]}}
        assert dumps_matrix(a, metric, extra=extra) == per_entry_dumps_matrix(a, metric,
                                                                              extra=extra)


def _document(entries, kind: str = "square") -> str:
    return json.dumps({"format": "upq-matrix/1", "kind": kind, "p": 1, "q": 1,
                       "entries": entries})


IDENTITY_ENTRIES = [[1, 0], [0, 0], [0, 0], [-1, 0]]

# file text and the start of the reader's message
UNREADABLE = {
    "not_an_object": ("[1, 2]", "matrix file must hold a JSON object"),
    "unknown_kind": (_document(IDENTITY_ENTRIES, "other"), "unknown matrix kind 'other'"),
    "three_entries": (_document(IDENTITY_ENTRIES[:3]),
                      "entries must be a list of 4 [re, im] pairs"),
    "three_numbers_a_row": (_document([[1, 0, 0], [0, 0, 0], [0, 0, 0], [-1, 0, 0]]),
                            "entries must be [re, im] pairs"),
    "nan": (_document(IDENTITY_ENTRIES).replace("[-1, 0]", "[NaN, 0]"),
            "entries contain non-finite values"),
    "infinity": (_document(IDENTITY_ENTRIES).replace("[0, 0]", "[0, -Infinity]", 1),
                 "entries contain non-finite values"),
}


NON_NUMERIC = {
    "strings": [["1", 0], [0, 0], [0, 0], ["-1", 0]],
    "booleans": [[True, False], [False, False], [False, False], [True, False]],
    "mixed": [[1.0, 0.0], [0.0, "0"], [0.0, 0.0], [-1.0, 0.0]],
    "null": [[1.0, 0.0], [0.0, None], [0.0, 0.0], [-1.0, 0.0]],
}


class TestReaderRejects:
    @pytest.mark.parametrize("case", sorted(NON_NUMERIC))
    def test_non_numeric_entries(self, case):
        with pytest.raises(ValueError, match=r"entries must be numeric \[re, im\] pairs"):
            loads_matrix(_document(NON_NUMERIC[case]))

    def test_integer_too_large_for_a_float(self):
        text = _document(IDENTITY_ENTRIES).replace("-1", "1" + "0" * 400)
        with pytest.raises(ValueError, match=r"entries must be numeric \[re, im\] pairs"):
            loads_matrix(text)

    def test_bare_numbers_are_not_pairs(self):
        with pytest.raises(ValueError, match=r"entries must be \[re, im\] pairs"):
            loads_matrix(_document([1.0, 0.0, 0.0, -1.0]))

    @pytest.mark.parametrize("where", ["document", "unknown_key"])
    def test_deep_nesting_is_a_value_error(self, where):
        # the decoder raises RecursionError past its nesting limit; readers
        # ignore unknown keys, but they still have to parse them
        deep = "[" * 100000 + "]" * 100000
        text = deep
        if where == "unknown_key":
            valid = _document(IDENTITY_ENTRIES)
            text = valid.replace("{", '{"note": ' + deep + ", ", 1)
        with pytest.raises(ValueError, match="^matrix file nests too deeply to parse$"):
            loads_matrix(text)

    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    def test_unreadable_file(self, case):
        text, message = UNREADABLE[case]
        with pytest.raises(ValueError) as exc:
            loads_matrix(text)
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    def test_upq_check_exits_two_on_unreadable_file(self, tmp_path, capsys, case):
        text, message = UNREADABLE[case]
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = main(["check", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: " + message)

    def test_json_integers_are_numbers(self):
        doc = loads_matrix(_document(IDENTITY_ENTRIES))
        assert np.array_equal(doc.matrix, np.diag([1.0, -1.0]))


class TestWriterRejects:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="^unknown matrix kind 'other'$"):
            dumps_matrix(np.eye(2), make_metric(1, 1), "other")

    def test_wrong_shape(self):
        with pytest.raises(ValueError, match=r"must have shape \(2, 2\), got \(3, 3\)$"):
            dumps_matrix(np.eye(3), make_metric(1, 1))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                       np.float64("nan"), {"t": [0.5, float("nan")]}])
    def test_non_finite_extras_are_refused(self, value):
        # json.dumps once wrote NaN, which strict JSON readers refuse
        with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
            dumps_matrix(np.eye(2), make_metric(1, 1), extra={"x": value})


class TestJsonPairs:
    """The [re, im] pairs of an ndarray, as reports print them and file extras hold them."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(matrices())
    def test_same_text_as_json_dumps(self, case):
        metric, _, a = case
        text = json.dumps([[z.real, z.imag] for z in a.flat])
        assert json.dumps(_pairs(a)) == text
        assert f'\n  "u": {text},\n' in dumps_matrix(np.eye(metric.n), metric, extra={"u": a})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, bad):
        a = np.array([[1.0, complex(0.0, bad)]])
        with pytest.raises(ValueError, match="non-finite"):
            _pairs(a)
        with pytest.raises(ValueError, match="non-finite"):
            dumps_matrix(np.eye(2), make_metric(1, 1), extra={"g": {"u": a}})

    @pytest.mark.parametrize("value", [np.int64(3), np.complex128(1j), np.float32(0.5), {1, 2}],
                             ids=["int64", "complex128", "float32", "set"])
    def test_other_objects_stay_a_type_error(self, value):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            dumps_matrix(np.eye(2), make_metric(1, 1), extra={"x": value})

    def test_ndarray_extras_read_as_their_pairs(self):
        metric = make_metric(1, 1)
        m = np.array([[0.1, -0.0], [1e17, 2.0]])
        pairs = [[0.1, 0.0], [-0.0, 0.0], [1e17, 0.0], [2.0, 0.0]]
        header = {"a": [1, "x", None], "b": {}}
        arrays = dumps_matrix(np.eye(2), metric,
                              extra={"u": m, "g": {**header, "nested": {"u": m}, "list": [m]}})
        lists = dumps_matrix(np.eye(2), metric,
                             extra={"u": pairs, "g": {**header, "nested": {"u": pairs},
                                                      "list": [pairs]}})
        assert arrays == lists
        assert json.loads(arrays)["g"]["nested"]["u"][1] == [-0.0, 0.0]
