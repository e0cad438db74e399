"""Parser grammar, round-trip identity, and generator range tests."""

import numpy as np
import pytest

from iqnlab.data import (
    GeneratorSpec,
    SparseRow,
    generate_quadratic,
    initial_point,
    parse_libsvm,
    rows_to_csr,
    serialize_libsvm,
)
from iqnlab.errors import EmptyDataset, InvalidSpec, MalformedLine


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
