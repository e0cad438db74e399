"""Objective-family tests: closed forms, finite-difference consistency,
constant estimation, and the regularizer's behavior at the origin."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from scipy.special import expit

from iqnlab import objectives
from iqnlab.data import initial_point
from iqnlab.errors import DegenerateProblem
from iqnlab.objectives import (
    ORIGIN_GUARD,
    LogisticObjective,
    QuadraticComponents,
    QuadraticObjective,
    SmoothnessConstants,
)
from iqnlab.oracle import finite_diff_gradient, finite_diff_hessian
from iqnlab.solvers import SolverConfig, index_of, make_solver


def make_quadratic(a, b):
    return QuadraticObjective(QuadraticComponents(
        a_diag=np.asarray(a, dtype=float), b=np.asarray(b, dtype=float)))


def make_logistic(rows_dense, labels, lam=0.1, p=2.1, **kw):
    return LogisticObjective(scipy.sparse.csr_matrix(np.asarray(rows_dense, dtype=float)),
                             np.asarray(labels, dtype=float), lam=lam, p=p, **kw)


@pytest.fixture
def random_logistic(rng):
    dense = rng.standard_normal((6, 5)) * (rng.random((6, 5)) < 0.6)
    labels = (rng.random(6) > 0.5).astype(float)
    return make_logistic(dense, labels, lam=0.05)


class TestQuadratic:
    def test_identity_component_at_origin(self):
        obj = make_quadratic([[1.0, 1.0]], [[0.0, 0.0]])
        x = np.zeros(2)
        assert obj.value(0, x) == 0.0
        np.testing.assert_array_equal(obj.gradient(0, x), np.zeros(2))

    def test_hessian_is_constant_diagonal(self, rng):
        obj = make_quadratic([[2.0, 0.5, 1.5]], [[1.0, -1.0, 0.0]])
        for _ in range(3):
            x = rng.standard_normal(3)
            np.testing.assert_array_equal(obj.hessian(0, x), np.diag([2.0, 0.5, 1.5]))
            np.testing.assert_array_equal(obj.hessian_diag(0, x), [2.0, 0.5, 1.5])
            np.testing.assert_array_equal(obj.hessian_column(0, x, 1), [0.0, 0.5, 0.0])

    def test_constants_min_max(self):
        obj = make_quadratic([[1.0, 1.0], [1.0, 1.0]], np.zeros((2, 2)))
        consts = obj.estimate_constants()
        assert consts.mu == consts.L == 1.0 and consts.M == 0.0

        obj = make_quadratic([[0.5, 2.0]], [[0.0, 0.0]])
        consts = obj.estimate_constants()
        assert consts.mu == 0.5 and consts.L == 2.0

    def test_exact_minimizer_zeroes_gradient(self, rng):
        a = rng.uniform(0.5, 2.0, size=(4, 3))
        b = rng.uniform(-5.0, 5.0, size=(4, 3))
        obj = make_quadratic(a, b)
        assert np.linalg.norm(obj.full_gradient(obj.exact_minimizer())) < 1e-10

    def test_full_gradient_matches_component_sum(self, rng):
        a = rng.uniform(0.5, 2.0, size=(4, 3))
        b = rng.uniform(-5.0, 5.0, size=(4, 3))
        obj = make_quadratic(a, b)
        x = rng.standard_normal(3)
        direct = sum(obj.gradient(i, x) for i in range(4))
        np.testing.assert_allclose(obj.full_gradient(x), direct, atol=1e-12)
        np.testing.assert_allclose(obj.gradients_at(x),
                                   np.stack([obj.gradient(i, x) for i in range(4)]),
                                   atol=0)

    def test_rejects_nonpositive_diagonals(self):
        with pytest.raises(DegenerateProblem):
            make_quadratic([[1.0, 0.0]], [[0.0, 0.0]])


class TestLogisticClosedForms:
    def test_single_sample_at_origin(self):
        # sigma(0) = 1/2: value log 2, gradient (sigma - y) z = -0.5 z.
        obj = make_logistic([[1.0, 0.0]], [1.0], lam=0.1)
        x = np.zeros(2)
        assert obj.value(0, x) == pytest.approx(np.log(2.0), rel=1e-15)
        np.testing.assert_allclose(obj.gradient(0, x), [-0.5, 0.0], atol=1e-15)

    def test_single_sample_hessian_at_origin(self):
        # sigma'(0) = 1/4 and the regularizer Hessian vanishes at x = 0.
        obj = make_logistic([[1.0, 0.0]], [0.0], lam=0.1)
        x = np.zeros(2)
        np.testing.assert_allclose(obj.hessian(0, x), 0.25 * np.outer([1, 0], [1, 0]),
                                   atol=1e-15)

    def test_labels_must_be_binary(self):
        with pytest.raises(DegenerateProblem):
            make_logistic([[1.0]], [0.5])

    def test_p_must_exceed_two(self):
        with pytest.raises(DegenerateProblem):
            make_logistic([[1.0]], [1.0], p=2.0)

    @pytest.mark.parametrize("setting, message", [
        pytest.param({"lam": np.inf}, "lam must be positive and finite", id="lam-inf"),
        pytest.param({"p": np.inf}, "regularizer exponent p must be finite", id="p-inf")])
    def test_lam_and_p_must_be_finite(self, setting, message):
        with pytest.raises(DegenerateProblem, match=message):
            make_logistic([[1.0]], [1.0], **setting)

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_radius_must_be_positive(self, radius):
        with pytest.raises(DegenerateProblem, match="radius must be positive"):
            make_logistic([[1.0]], [1.0], radius=radius)


class TestLogisticDerivatives:
    def test_gradient_matches_finite_differences(self, rng, random_logistic):
        obj = random_logistic
        for _ in range(20):
            i = int(rng.integers(obj.n))
            x = rng.standard_normal(obj.d)
            fd = finite_diff_gradient(obj, i, x)
            an = obj.gradient(i, x)
            assert np.linalg.norm(an - fd) <= 1e-5 * max(np.linalg.norm(fd), 1.0)

    def test_hessian_matches_differenced_gradient(self, rng, random_logistic):
        obj = random_logistic
        for _ in range(10):
            i = int(rng.integers(obj.n))
            x = rng.standard_normal(obj.d)
            fd = finite_diff_hessian(obj, i, x)
            an = obj.hessian(i, x)
            assert np.linalg.norm(an - fd) <= 1e-4 * max(np.linalg.norm(fd), 1.0)

    def test_hessian_slices_are_exact(self, rng, random_logistic):
        obj = random_logistic
        for _ in range(10):
            i = int(rng.integers(obj.n))
            x = rng.standard_normal(obj.d)
            full = obj.hessian(i, x)
            np.testing.assert_allclose(obj.hessian_diag(i, x), np.diagonal(full),
                                       atol=1e-12)
            j = int(rng.integers(obj.d))
            np.testing.assert_allclose(obj.hessian_column(i, x, j), full[:, j],
                                       atol=1e-12)

    @pytest.mark.parametrize("family", ["quadratic", "logistic"])
    def test_hessian_quad_form_matches_the_dense_hessian(self, rng, random_logistic, family):
        obj = random_logistic if family == "logistic" else make_quadratic(
            rng.uniform(0.5, 2.0, size=(6, 5)), rng.standard_normal((6, 5)))
        for x in [rng.standard_normal(obj.d) for _ in range(10)] + [np.zeros(obj.d)]:
            i = int(rng.integers(obj.n))
            s = rng.standard_normal(obj.d)
            got = obj.hessian_quad_form(i, x, s)
            assert type(got) is float
            assert got == pytest.approx(s @ obj.hessian(i, x) @ s, rel=1e-12, abs=0.0)

    def test_full_gradient_matches_component_sum(self, rng, random_logistic):
        obj = random_logistic
        x = rng.standard_normal(obj.d)
        direct = sum(obj.gradient(i, x) for i in range(obj.n))
        np.testing.assert_allclose(obj.full_gradient(x), direct, atol=1e-12)

    @staticmethod
    def uncached_full_gradient(obj, x):
        """Z^T (expit(Z x) - y) + n grad reg(x) through scipy's public ``@``."""
        nx = np.sqrt(x.dot(x))
        reg = (np.zeros(obj.d) if nx < ORIGIN_GUARD
               else 0.5 * obj.lam * obj.p * nx ** (obj.p - 2.0) * x)
        return obj.features.T @ (expit(obj.features @ x) - obj.labels) + obj.n * reg

    def test_full_gradient_bit_equal_to_uncached_transpose(self, rng, random_logistic):
        # full_gradient calls scipy's private compiled kernels; a scipy that
        # changes them fails here first.
        with_empty_row = random_logistic.features.toarray()
        with_empty_row[2] = 0.0
        for obj in (random_logistic, make_logistic(with_empty_row, random_logistic.labels)):
            d = obj.d
            points = [rng.standard_normal(d) for _ in range(3)] + [
                rng.integers(-3, 4, size=d),                         # int64
                rng.standard_normal(d).astype(np.float32),
                rng.standard_normal(2 * d)[::2],                     # strided
                1e-16 * rng.standard_normal(d),                      # inside ORIGIN_GUARD
                np.zeros(d),
            ]
            for x in points:
                got, want = obj.full_gradient(x), self.uncached_full_gradient(obj, x)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), x

    def test_full_gradient_skips_scipys_python_dispatch(self, rng, random_logistic,
                                                        monkeypatch):
        obj = random_logistic
        x = rng.standard_normal(obj.d)
        want = self.uncached_full_gradient(obj, x)

        def refuse(*_args):
            raise AssertionError("full_gradient went through csr_matrix @ x")
        monkeypatch.setattr(scipy.sparse._compressed._cs_matrix, "_matmul_vector", refuse)
        np.testing.assert_array_equal(obj.full_gradient(x), want)

    @pytest.mark.parametrize("shape", [(4,), (6,), (5, 1)])
    def test_full_gradient_rejects_a_point_of_another_length(self, random_logistic, shape):
        # The compiled kernels read d entries of x whatever its length.
        with pytest.raises(ValueError, match="x must have shape"):
            random_logistic.full_gradient(np.ones(shape))

    def test_full_gradient_allocates_nothing_of_size_nnz(self, rng):
        # A transposed copy of the features, or a product that converts
        # them, would allocate nnz values; the stopping rule needs O(n + d).
        n, d = 20, 100
        obj = make_logistic(rng.standard_normal((n, d)), (rng.random(n) > 0.5).astype(float))
        obj.full_gradient(rng.standard_normal(d))
        x = rng.standard_normal(d)
        tracemalloc.start()
        try:
            obj.full_gradient(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert obj.features.nnz == n * d
        assert peak < obj.features.data.nbytes // 2, peak


class TestLogisticRows:
    # The per-component oracles read z_i as row i of LogisticObjective.rows,
    # a dense copy of the CSR features made once.
    @pytest.fixture
    def edge(self):
        """Three CSR rows: empty (nothing stored), full, and one nonzero."""
        d = 5
        features = scipy.sparse.csr_matrix(
            (np.append(np.linspace(-1.0, 1.5, d), 2.5), np.append(np.arange(d), 3),
             [0, 0, d, d + 1]), shape=(3, d))
        return LogisticObjective(features, np.array([1.0, 0.0, 1.0]), lam=0.05)

    def test_rows_are_a_read_only_dense_copy(self, edge):
        rows = edge.rows
        assert rows.dtype == np.float64 and rows.flags.c_contiguous
        np.testing.assert_array_equal(rows, edge.features.toarray())
        with pytest.raises(ValueError, match="read-only"):
            rows[1, 0] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            rows[0] += 1.0

    @pytest.mark.parametrize("i", [0, 1, 2], ids=["empty", "full", "single-nonzero"])
    def test_oracles_match_textbook_expressions(self, rng, edge, i):
        obj, f = edge, edge.features
        z = np.zeros(obj.d)
        z[f.indices[f.indptr[i]:f.indptr[i + 1]]] = f.data[f.indptr[i]:f.indptr[i + 1]]
        for x in (rng.standard_normal(obj.d), np.zeros(obj.d)):
            nx = np.linalg.norm(x)
            c1 = 0.5 * obj.lam * obj.p * nx ** (obj.p - 2.0) if nx else 0.0
            c2 = 0.5 * obj.lam * obj.p * (obj.p - 2.0) * nx ** (obj.p - 4.0) if nx else 0.0
            s = expit(z @ x)
            hess = s * (1.0 - s) * np.outer(z, z) + c1 * np.eye(obj.d) + c2 * np.outer(x, x)
            tol = dict(rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(obj.gradient(i, x), (s - obj.labels[i]) * z + c1 * x,
                                       **tol)
            np.testing.assert_allclose(obj.hessian(i, x), hess, **tol)
            np.testing.assert_allclose(obj.hessian_diag(i, x), np.diagonal(hess), **tol)
            for j in range(obj.d):
                np.testing.assert_allclose(obj.hessian_column(i, x, j), hess[:, j], **tol)

    def test_gradients_at_equals_the_sparse_product(self, rng, edge):
        # Z's rows scaled by the residuals, through the dense rows or the
        # CSR arrays: equal, zeros compared without their sign.
        obj = edge
        for x in (rng.standard_normal(obj.d), np.zeros(obj.d)):
            residual = expit(obj.features @ x) - obj.labels
            want = obj.features.multiply(residual[:, None]).toarray() + obj._reg_gradient(x)
            np.testing.assert_array_equal(obj.gradients_at(x), want)


class TestNewtonSystem:
    # newton_system builds Z^T diag(w) Z in one compiled call on Z's CSR
    # arrays; the textbook forms below are built from features.toarray().
    @pytest.fixture(params=[np.int32, np.int64], ids=["int32", "int64"])
    def objective(self, request, rng):
        """An empty row (nothing stored), a full row and a single-nonzero
        row above four random sparse rows, with index arrays of the given
        dtype: scipy downcasts small matrices to int32, and the compiled
        kernel is templated on both."""
        d = 5
        dense = np.vstack([np.zeros(d), np.linspace(-1.0, 1.5, d), [0.0, 0.0, 0.0, 2.5, 0.0],
                           rng.standard_normal((4, d)) * (rng.random((4, d)) < 0.5)])
        features = scipy.sparse.csr_matrix(dense)
        features.indices = features.indices.astype(request.param)
        features.indptr = features.indptr.astype(request.param)
        obj = LogisticObjective(features, (rng.random(7) > 0.5).astype(float), lam=0.05)
        assert obj.features.indices.dtype == obj.features.indptr.dtype == request.param
        assert obj.features.indptr[1] == 0 and np.diff(obj.features.indptr)[1:3].tolist() == [d, 1]
        return obj

    @staticmethod
    def textbook(obj, x):
        """sum_i loss_i + n (lam/2) ||x||^p and Z^T diag(w) Z + n (c1 I + c2 x x^T)."""
        z, y = obj.features.toarray(), obj.labels
        nx = np.linalg.norm(x)
        c1 = 0.5 * obj.lam * obj.p * nx ** (obj.p - 2.0) if nx else 0.0
        c2 = 0.5 * obj.lam * obj.p * (obj.p - 2.0) * nx ** (obj.p - 4.0) if nx else 0.0
        t = z @ x
        s = expit(t)
        value = (np.where(y == 1.0, np.logaddexp(0.0, -t), np.logaddexp(0.0, t)).sum()
                 + obj.n * 0.5 * obj.lam * nx ** obj.p)
        hess = z.T @ ((s * (1.0 - s))[:, None] * z) + obj.n * (c1 * np.eye(obj.d)
                                                                + c2 * np.outer(x, x))
        return value, hess

    def test_newton_system_matches_textbook_expressions(self, rng, objective):
        obj = objective
        for x in (rng.standard_normal(obj.d), np.zeros(obj.d)):
            value, grad, hess = obj.newton_system(x)
            want_value, want_hess = self.textbook(obj, x)
            # The gradient from newton_system's own margins is full_gradient's.
            assert grad.dtype == np.float64 and grad.tobytes() == obj.full_gradient(x).tobytes()
            assert hess.dtype == np.float64 and hess.shape == (obj.d, obj.d)
            assert hess.flags.c_contiguous
            assert abs(value - want_value) <= 1e-12 * abs(want_value)
            assert np.abs(hess - want_hess).max() <= 1e-12 * np.abs(want_hess).max()

    def test_newton_system_skips_scipys_sparse_product(self, rng, objective, monkeypatch):
        # newton_system calls scipy's private csc_matvecs; a scipy that
        # changes its arguments fails here or in the test above.
        def refuse(*_args):
            raise AssertionError("newton_system went through a sparse-sparse product")
        monkeypatch.setattr(scipy.sparse._compressed._cs_matrix, "_matmul_sparse", refuse)
        x = rng.standard_normal(objective.d)
        hess = objective.newton_system(x)[2]
        want = self.textbook(objective, x)[1]
        assert np.abs(hess - want).max() <= 1e-12 * np.abs(want).max()


class TestLogisticMemo:
    # LogisticObjective keeps the pieces its oracles share for the last
    # (i, x) it saw. Every result must be what an objective without that
    # memo returns, bit for bit.
    ORACLES = {
        "gradient": lambda obj, i, x: obj.gradient(i, x),
        "hessian": lambda obj, i, x: obj.hessian(i, x),
        "hessian_diag": lambda obj, i, x: obj.hessian_diag(i, x),
        "hessian_column": lambda obj, i, x: obj.hessian_column(i, x, 2),
    }

    @staticmethod
    def fresh(obj):
        return LogisticObjective(obj.features, obj.labels, obj.lam, obj.p, obj.radius)

    def expect_fresh(self, obj, name, i, x):
        got, want = self.ORACLES[name](obj, i, x), self.ORACLES[name](self.fresh(obj), i, x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        return got

    def test_oracles_bit_identical_in_any_call_order(self, rng, random_logistic):
        x = rng.standard_normal(random_logistic.d)
        for order in itertools.permutations(self.ORACLES):
            obj = self.fresh(random_logistic)
            for name in order:
                # A result is the caller's own: writing into it changes no later one.
                self.expect_fresh(obj, name, 3, x).fill(np.nan)

    def test_in_place_write_or_other_component_gives_fresh_values(self, rng, random_logistic):
        obj = random_logistic
        x = rng.standard_normal(obj.d)
        for name in self.ORACLES:
            before = self.expect_fresh(obj, name, 1, x)
            x[0] += 0.5
            assert not np.array_equal(self.expect_fresh(obj, name, 1, x), before)
            self.expect_fresh(obj, name, 4, x)

    def test_same_bytes_of_another_dtype_miss(self, random_logistic):
        obj = random_logistic
        x_int = np.arange(1, obj.d + 1, dtype=np.int64)
        x_float = x_int.view(np.float64)  # the same bytes: subnormal floats
        for name in self.ORACLES:
            at_float = self.expect_fresh(obj, name, 0, x_float)
            assert not np.array_equal(self.expect_fresh(obj, name, 0, x_int), at_float)

    @pytest.mark.parametrize("names", [
        ("gradient", "full_gradient"),
        ("gradient", "hessian_diag", "hessian_column", "full_gradient"),
        ("gradient", "hessian", "full_gradient"),
    ], ids=["IQN", "SLIQN", "NIM"])
    def test_one_norm_per_point(self, rng, random_logistic, names):
        # What a step and its stopping rule ask at one iterate: ||x||, which
        # the regularizer's gradient and Hessian coefficients share, is
        # evaluated once per point, whatever the component.
        norms = []

        class Counting(np.ndarray):
            def dot(self, other, *args):
                if other is self:
                    norms.append(1)
                return np.asarray(self).dot(np.asarray(other), *args)

        obj = random_logistic
        oracles = dict(self.ORACLES, full_gradient=lambda obj, i, x: obj.full_gradient(x))
        for point in range(1, 4):
            x = rng.standard_normal(obj.d).view(Counting)
            for i in (0, 3):
                for name in names:
                    oracles[name](obj, i, x)
            assert len(norms) == point

    @staticmethod
    def count_row_reads(obj, monkeypatch):
        """Swap obj.rows for a view that records the key of every read; what
        a read hands back is a plain array, as before."""
        reads = []

        class RowReads(np.ndarray):
            def __getitem__(self, key):
                reads.append(key)
                return np.asarray(self)[key]
        monkeypatch.setattr(obj, "rows", obj.rows.view(RowReads))
        return reads

    @pytest.mark.parametrize("method, rows", [
        ("SLIQN", 1), ("IQN", 1), ("NIM", 1), ("SIQN", 2), ("IGS", 2)])
    def test_dense_rows_per_step(self, random_logistic, monkeypatch, method, rows):
        # SIQN's and IGS's scale stage reads the Hessian at the old iterate;
        # every other oracle call of a step is at the new one.
        obj = random_logistic
        reads = self.count_row_reads(obj, monkeypatch)
        assert obj.constants.M > 0.0  # the scale stage reads the Hessian
        solver = make_solver(obj, initial_point(obj.d, 0.5, 0),
                             SolverConfig(method=method, gstop=1e-300))
        for _ in range(2 * obj.n):
            reads.clear()
            solver.step()
            assert len(reads) == rows

    def test_sliqn_step_evaluates_each_point_once(self, random_logistic, monkeypatch):
        # A greedy step reads the gradient, the Hessian diagonal and one
        # Hessian column at the same (i, x): one row read, and one margin,
        # which expit maps to s.
        obj = random_logistic
        reads = self.count_row_reads(obj, monkeypatch)
        margins = []
        monkeypatch.setattr(objectives, "expit",
                            lambda t, *args, **kw: margins.append(t) or expit(t, *args, **kw))
        solver = make_solver(obj, initial_point(obj.d, 0.5, 0),
                             SolverConfig(method="SLIQN", gstop=1e-300))
        for t in range(1, 2 * obj.n + 1):
            reads.clear()
            margins.clear()
            solver.step()
            assert reads == [index_of(t, obj.n)] and len(margins) == 1


class TestLogisticConstants:
    def test_l_bounds_sampled_hessian_spectrum(self, rng):
        obj = make_logistic([[1.0, 0.0]], [1.0], lam=0.1)
        consts = obj.estimate_constants()
        for _ in range(100):
            x = rng.standard_normal(2)
            x *= rng.uniform(obj.inner_radius, obj.radius) / np.linalg.norm(x)
            top = np.linalg.eigvalsh(obj.hessian(0, x))[-1]
            assert top <= consts.L + 1e-9

    def test_spectrum_within_certified_bounds(self, rng, random_logistic):
        obj = random_logistic
        consts = obj.estimate_constants()
        for _ in range(20):
            i = int(rng.integers(obj.n))
            x = rng.standard_normal(obj.d)
            x *= rng.uniform(obj.inner_radius, obj.radius) / np.linalg.norm(x)
            eigs = np.linalg.eigvalsh(obj.hessian(i, x))
            assert eigs[0] >= consts.mu - 1e-9
            assert eigs[-1] <= consts.L + 1e-9

    def test_m_consistent_with_l_tilde_and_mu(self, random_logistic):
        consts = random_logistic.estimate_constants()
        assert consts.M == pytest.approx(consts.L_tilde * consts.mu ** -1.5, rel=1e-12)

    def test_quadratic_spectrum_exact(self, rng):
        a = rng.uniform(0.5, 2.0, size=(4, 3))
        obj = make_quadratic(a, np.zeros((4, 3)))
        consts = obj.estimate_constants()
        for i in range(4):
            eigs = np.linalg.eigvalsh(obj.hessian(i, rng.standard_normal(3)))
            assert eigs[0] >= consts.mu - 1e-12 and eigs[-1] <= consts.L + 1e-12


class TestRegularizerOrigin:
    def test_gradient_and_hessian_vanish_toward_origin(self):
        # One empty feature row isolates the regularizer behind the public
        # component interface (the loss term is constant).
        obj = LogisticObjective(scipy.sparse.csr_matrix((1, 3)), np.array([0.0]),
                                lam=0.5, p=2.1)
        direction = np.array([1.0, 2.0, -2.0]) / 3.0
        grad_norms, hess_norms = [], []
        for radius in (1e-2, 1e-4, 1e-6, 1e-8):
            x = radius * direction
            grad_norms.append(np.linalg.norm(obj.gradient(0, x)))
            hess_norms.append(np.linalg.norm(obj.hessian(0, x), ord=2))
        assert all(a > b for a, b in zip(grad_norms, grad_norms[1:]))
        assert all(a > b for a, b in zip(hess_norms, hess_norms[1:]))
        # both decay like powers of ||x||; check the analytic envelopes at 1e-8
        c = 0.5 * obj.lam * obj.p
        assert grad_norms[-1] <= c * (1e-8) ** (obj.p - 1.0) * (1.0 + 1e-9)
        assert hess_norms[-1] <= c * (obj.p - 1.0) * (1e-8) ** (obj.p - 2.0) * (1.0 + 1e-9)

    def test_exact_zero_at_origin(self):
        obj = LogisticObjective(scipy.sparse.csr_matrix((1, 2)), np.array([1.0]),
                                lam=0.5, p=2.1)
        x = np.zeros(2)
        np.testing.assert_array_equal(obj.gradient(0, x), np.zeros(2))
        np.testing.assert_array_equal(obj.hessian(0, x), np.zeros((2, 2)))


def test_huge_iterate_gives_inf_not_overflow_error():
    # At ||x|| = 1e150, x . x is finite but ||x||^p overflows: a Python
    # float would raise OverflowError there, a numpy scalar returns inf.
    obj = LogisticObjective(scipy.sparse.csr_matrix((1, 4)), np.array([0.0]),
                            lam=0.5, p=2.1)
    x = np.full(4, 0.5e150)
    with np.errstate(over="ignore"):
        assert obj._reg_value(x) == np.inf


class TestSmoothnessConstants:
    def test_rejects_bad_values(self):
        with pytest.raises(DegenerateProblem):
            SmoothnessConstants(mu=0.0, L=1.0)
        with pytest.raises(DegenerateProblem):
            SmoothnessConstants(mu=2.0, L=1.0)

    def test_from_smoothness_computes_m(self):
        consts = SmoothnessConstants.from_smoothness(mu=4.0, L=8.0, L_tilde=16.0)
        assert consts.M == pytest.approx(16.0 * 4.0 ** -1.5)
