"""Parser grammar, round-trip identity, and generator range tests."""

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqnlab import data
from iqnlab.data import (
    GeneratorSpec,
    SparseRow,
    generate_quadratic,
    initial_point,
    load_libsvm,
    parse_libsvm,
    rows_to_csr,
    serialize_libsvm,
)
from iqnlab.errors import EmptyDataset, InvalidSpec, MalformedLine


def outcome(parse, source):
    """What a parse gives: dim and each row's label, dtypes and bytes, or
    the type and message of a parser error. Any other exception escapes."""
    try:
        rows, dim = parse(source)
    except (MalformedLine, EmptyDataset) as exc:
        return type(exc), str(exc)
    assert type(dim) is int and all(type(r.label) is int for r in rows)
    return dim, [(r.label, r.indices.dtype, r.indices.tobytes(), r.values.dtype,
                  r.values.tobytes()) for r in rows]


def reference(text):
    """The per-line parser on the text's lines."""
    return data._parse_lines(data._lines(text))


def as_file(text):
    """The text as ``open(path, encoding="utf-8")`` would read it."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


# Pieces of LIBSVM-like text, including what int() and float() accept that
# the format does not name ("1_0", "+1", non-ASCII digits, "inf"), tokens
# whose colons a count alone would misplace, and the whitespace and line
# ends str.split() and a text file disagree on.
SPACES = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
NEWLINES = ["\n", "\r\n", "\r"]
ODD_TOKENS = ["1:2:3", "3:", ":5", ":", "7", "1_0:1", "+3:1", "\u0663:1", "1:1_0.5",
              "2:inf", "2:nan", "2:1e999", "99999999999999999999:1", "9223372036854775807:1",
              "-9223372036854775809:1", "0:1", "-1:1", "0x1:1", "1:0x1"]
LABELS = ["+1", "-1", "1", "0", "2", "1.0", "-0", "+0", "1_0", "3", "nan", "x", "#", "\uff11"]
PIECES = ["0", "1", "2", "9", "-", "+", ".", "e", "_", ":", "#", "1:2:3 4", "3:", ":5", "inf",
          "nan", "a", "\u0661", *SPACES, *NEWLINES]


def valid_line():
    """label and strictly increasing positive indices with finite values."""
    pairs = st.lists(st.integers(1, 60), unique=True, max_size=6).map(sorted).flatmap(
        lambda idx: st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=len(idx), max_size=len(idx)).map(
            lambda vals: [f"{i}:{v!r}" for i, v in zip(idx, vals)]))
    return st.tuples(st.sampled_from(["+1", "-1", "1", "0", "2"]), pairs)


def any_line():
    index = st.one_of(st.integers(-2, 60).map(str), st.sampled_from(["", "1_0", "+3"]))
    value = st.one_of(st.floats().map(repr), st.sampled_from(["", "-0", "1e999", "x"]))
    token = st.one_of(st.tuples(index, value).map(":".join), st.sampled_from(ODD_TOKENS))
    return st.tuples(st.sampled_from(LABELS), st.lists(token, max_size=5))


def text_of(line):
    def render(parts):
        lines, spaces, newline = parts
        rendered = []
        for (label, tokens), space in zip(lines, spaces):
            rendered.append(space.join([label, *tokens]) if label != "#" else "# note")
        return newline.join(rendered) + newline
    return st.lists(line, max_size=6).flatmap(lambda lines: st.tuples(
        st.just(lines), st.lists(st.sampled_from(SPACES), min_size=len(lines),
                                 max_size=len(lines)),
        st.sampled_from(NEWLINES))).map(render)


TEXTS = st.one_of(text_of(valid_line()), text_of(st.one_of(valid_line(), any_line())),
                  st.lists(st.sampled_from(PIECES), max_size=40).map("".join))


class TestParser:
    def test_basic_line(self):
        rows, dim = parse_libsvm("+1 1:0.5 3:2\n")
        assert dim == 3
        assert len(rows) == 1
        assert rows[0].label == 1
        np.testing.assert_array_equal(rows[0].indices, [1, 3])
        np.testing.assert_array_equal(rows[0].values, [0.5, 2.0])

    def test_label_only_line(self):
        rows, dim = parse_libsvm("-1\n")
        assert rows[0].label == 0
        assert len(rows[0].indices) == 0
        assert dim == 0

    def test_blank_lines_and_comments_skipped(self):
        rows, _ = parse_libsvm("# header\n\n+1 1:1\n\n# tail\n0 2:3\n")
        assert [r.label for r in rows] == [1, 0]

    @pytest.mark.parametrize("token,expected", [("+1", 1), ("-1", 0), ("1", 1),
                                                ("0", 0), ("2", 0)])
    def test_label_mapping(self, token, expected):
        rows, _ = parse_libsvm(f"{token} 1:1\n")
        assert rows[0].label == expected

    def test_malformed_label_carries_line_number(self):
        with pytest.raises(MalformedLine) as err:
            parse_libsvm("+1 1:1\nspam 1:1\n")
        assert err.value.line_no == 2

    def test_non_increasing_indices_rejected(self):
        with pytest.raises(MalformedLine) as err:
            parse_libsvm("+1 2:1 2:3\n")
        assert err.value.line_no == 1
        with pytest.raises(MalformedLine):
            parse_libsvm("+1 3:1 2:1\n")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(MalformedLine):
            parse_libsvm("+1 1:abc\n")
        with pytest.raises(MalformedLine):
            parse_libsvm("+1 zero\n")

    @pytest.mark.parametrize("token", ["1:nan", "2:inf", "3:-inf", "4:1e999"])
    def test_non_finite_value_carries_line_number(self, token):
        with pytest.raises(MalformedLine, match="non-finite value") as err:
            parse_libsvm(f"+1 1:1\n# comment\n-1 {token}\n")
        assert err.value.line_no == 3

    def test_unsupported_label_rejected(self):
        with pytest.raises(MalformedLine):
            parse_libsvm("3 1:1\n")

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyDataset):
            parse_libsvm("# only comments\n\n")

    def test_bytes_input_accepted(self):
        rows, _ = parse_libsvm(b"+1 1:0.25\n")
        assert rows[0].values[0] == 0.25

    def test_round_trip_identity(self, rng):
        rows = []
        for _ in range(100):
            k = int(rng.integers(0, 8))
            idx = np.sort(rng.choice(np.arange(1, 30), size=k, replace=False))
            rows.append(SparseRow(indices=idx.astype(np.int64),
                                  values=rng.standard_normal(k),
                                  label=int(rng.integers(0, 2))))
        parsed, _ = parse_libsvm(serialize_libsvm(rows))
        assert len(parsed) == len(rows)
        for a, b in zip(rows, parsed):
            assert a.label == b.label
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.values, b.values)

    def test_rows_to_csr_layout(self):
        rows, dim = parse_libsvm("+1 1:2 3:4\n-1 2:5\n")
        matrix, labels = rows_to_csr(rows, dim)
        np.testing.assert_array_equal(matrix.toarray(), [[2, 0, 4], [0, 5, 0]])
        np.testing.assert_array_equal(labels, [1.0, 0.0])

    @pytest.mark.parametrize("dim", [None, 12], ids=["dim-inferred", "dim-given"])
    @pytest.mark.parametrize("empty", ["one-empty", "all-empty"])
    def test_rows_to_csr_equals_a_textbook_loop(self, rng, dim, empty):
        rows = []
        for i in range(6):
            k = 0 if empty == "all-empty" or i == 2 else int(rng.integers(1, 5))
            idx = np.sort(rng.choice(np.arange(1, 10), size=k, replace=False))
            rows.append(SparseRow(indices=idx.astype(np.int64), values=rng.standard_normal(k),
                                  label=int(rng.integers(0, 2))))
        indptr, indices, data = [0], [], []
        for row in rows:
            for j, v in zip(row.indices, row.values):
                indices.append(j - 1)
                data.append(v)
            indptr.append(len(indices))
        width = max(indices, default=-1) + 1 if dim is None else dim
        matrix, labels = rows_to_csr(rows, dim)
        assert matrix.shape == (len(rows), width)
        np.testing.assert_array_equal(matrix.indptr, indptr)
        np.testing.assert_array_equal(matrix.indices, indices)
        assert matrix.data.dtype == np.float64 and matrix.data.tobytes() == np.array(
            data, dtype=np.float64).tobytes()
        assert labels.dtype == np.float64
        np.testing.assert_array_equal(labels, [row.label for row in rows])


class TestBulkParse:
    # parse_libsvm converts all tokens at once and hands any text its checks
    # do not fully accept to the per-line parser, data._parse_lines.
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(TEXTS)
    @example("1 1:2:3 4\n")  # as many colons as tokens, one token with two
    @example("0 1:1\n1 2:3:4\n")  # the last token's second colon
    def test_bulk_pass_matches_the_per_line_parser(self, text):
        want = outcome(reference, text)
        assert outcome(parse_libsvm, text) == want
        assert outcome(parse_libsvm, text.encode("utf-8")) == want
        assert outcome(parse_libsvm, as_file(text)) == want
        # The bulk pass declines exactly the text the reference rejects.
        accepted = data._parse_bulk(data._lines(text)) is not None
        assert accepted == (type(want[0]) is int)
        if accepted:
            assert outcome(parse_libsvm, serialize_libsvm(parse_libsvm(text)[0])) == want

    def test_valid_text_never_reaches_the_per_line_parser(self, monkeypatch):
        def refuse(_lines):
            raise AssertionError("valid text went through the per-line parser")
        monkeypatch.setattr(data, "_parse_lines", refuse)
        rows, dim = parse_libsvm("# c\n+1 1:0.5 3:2\n\n-1\n2 4:-1e-300 7:1_0.5\n0 2:3\n")
        assert dim == 7 and [r.label for r in rows] == [1, 0, 0, 0]
        np.testing.assert_array_equal(rows[2].indices, [4, 7])
        np.testing.assert_array_equal(rows[2].values, [-1e-300, 10.5])
        assert len(rows[1].indices) == 0 and rows[1].indices.dtype == np.int64

    @pytest.mark.parametrize("text,message", [
        ("1 1:2:3 4\n", "line 1: feature token '1:2:3' is not numeric"),
        ("1 1:1\n0 3:\n", "line 2: feature token '3:' is not numeric"),
        ("1 :5\n", "line 1: feature token ':5' is not numeric"),
        ("1 1:1 99999999999999999999:2\n", "line 1: index in token '99999999999999999999:2' "
                                          "is past int64's largest value 9223372036854775807"),
        ("1 2:1\n0 3:1 3:2\n", "line 2: index 3 not strictly increasing after 3"),
    ], ids=["two-colons", "empty-value", "empty-index", "past-int64", "repeated-index"])
    def test_tokens_the_bulk_checks_reject_are_named_by_line(self, text, message):
        # A count of colons against tokens would read "1:2:3 4" as the
        # pairs (1, 2) and (3, 4).
        with pytest.raises(MalformedLine) as err:
            parse_libsvm(text)
        assert str(err.value) == message

    def test_largest_int64_index_is_kept(self):
        rows, dim = parse_libsvm("1 9223372036854775807:2\n")
        assert dim == 9223372036854775807 == rows[0].indices[0]

    @pytest.mark.parametrize("newline", NEWLINES, ids=["LF", "CRLF", "CR"])
    def test_file_str_and_bytes_share_one_newline_rule(self, tmp_path, newline):
        good = newline.join(["+1 1:0.5 3:2", "# c", "", "-1 2:1"]) + newline
        bad = newline.join(["+1 1:1", "", "0 2:x"]) + newline
        results = []
        for text in (good, bad):
            path = tmp_path / "data.libsvm"
            path.write_bytes(text.encode("utf-8"))
            results.append([outcome(load_libsvm, path), outcome(parse_libsvm, text),
                            outcome(parse_libsvm, text.encode("utf-8"))])
        rows_of, error_of = results
        assert rows_of[0][0] == 3 and len(rows_of[0][1]) == 2
        assert rows_of == [rows_of[0]] * 3
        assert error_of == [(MalformedLine, "line 3: feature token '2:x' is not numeric")] * 3

    def test_mixed_line_ends_count_as_a_file_counts_them(self):
        with pytest.raises(MalformedLine) as err:
            parse_libsvm("1 1:1\r0 2:1\r\n\n1 3:x\n")
        assert err.value.line_no == 4


class TestGenerator:
    def test_xi_zero_gives_identity_components(self):
        comps = generate_quadratic(GeneratorSpec(n=3, d=6, xi=0.0, seed=1))
        np.testing.assert_array_equal(comps.a_diag, np.ones((3, 6)))

    def test_ranges_and_condition_number(self):
        spec = GeneratorSpec(n=100, d=100, xi=2.0, seed=5)
        comps = generate_quadratic(spec)  # 10^4 sampled diagonal entries
        half = spec.d // 2
        assert np.all(comps.a_diag[:, :half] >= 1.0)
        assert np.all(comps.a_diag[:, :half] <= 10.0)
        assert np.all(comps.a_diag[:, half:] >= 0.1)
        assert np.all(comps.a_diag[:, half:] <= 1.0)
        cond = comps.a_diag.max(axis=1) / comps.a_diag.min(axis=1)
        assert np.all(cond <= 100.0)
        assert np.all(comps.b >= 0.0) and np.all(comps.b <= spec.b_max)

    def test_b_max_configurable(self):
        comps = generate_quadratic(GeneratorSpec(n=5, d=4, xi=1.0, b_max=2.0, seed=9))
        assert comps.b.max() <= 2.0

    def test_deterministic_under_seed(self):
        spec = GeneratorSpec(n=4, d=8, xi=1.5, seed=123)
        first = generate_quadratic(spec)
        second = generate_quadratic(spec)
        np.testing.assert_array_equal(first.a_diag, second.a_diag)
        np.testing.assert_array_equal(first.b, second.b)

    def test_odd_dimension_rejected(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(n=2, d=5, xi=1.0)

    @pytest.mark.parametrize("spec", [
        dict(xi=np.inf), dict(xi=np.nan), dict(xi=700.0),
        dict(b_max=np.inf), dict(b_max=np.nan), dict(b_max=-1.0), dict(seed=-1),
    ], ids=["xi-inf", "xi-nan", "xi-overflow", "b_max-inf", "b_max-nan", "b_max-negative",
            "seed-negative"])
    def test_invalid_spec_rejected(self, spec):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(**{"n": 2, "d": 4, "xi": 1.0, **spec})


class TestInitialPoint:
    def test_zero_scale_gives_origin(self):
        np.testing.assert_array_equal(initial_point(7, 0.0, 3), np.zeros(7))

    def test_seed_reproducibility_and_range(self):
        a = initial_point(50, 2.5, 11)
        b = initial_point(50, 2.5, 11)
        np.testing.assert_array_equal(a, b)
        assert np.all(a >= 0.0) and np.all(a <= 2.5)
