"""Objective-family tests: closed forms, finite-difference consistency,
constant estimation, and the regularizer's behavior at the origin."""

import numpy as np
import pytest
import scipy.sparse
from scipy.special import expit

from iqnlab.errors import DegenerateProblem
from iqnlab.objectives import (
    LogisticObjective,
    QuadraticComponents,
    QuadraticObjective,
    SmoothnessConstants,
)
from iqnlab.oracle import finite_diff_gradient, finite_diff_hessian


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

    def test_full_gradient_matches_component_sum(self, rng, random_logistic):
        obj = random_logistic
        x = rng.standard_normal(obj.d)
        direct = sum(obj.gradient(i, x) for i in range(obj.n))
        np.testing.assert_allclose(obj.full_gradient(x), direct, atol=1e-12)

    def test_full_gradient_bit_equal_to_uncached_transpose(self, rng, random_logistic):
        obj = random_logistic
        for _ in range(3):
            x = rng.standard_normal(obj.d)
            uncached = (obj.features.T @ (expit(obj.features @ x) - obj.labels)
                        + obj.n * obj._reg_gradient(x))
            np.testing.assert_array_equal(obj.full_gradient(x), uncached)

    def test_cached_transpose_shares_the_csr_arrays(self, random_logistic):
        obj = random_logistic
        assert obj._features_t.shape == (obj.d, obj.n)
        assert np.shares_memory(obj._features_t.data, obj.features.data)
        assert np.shares_memory(obj._features_t.indices, obj.features.indices)


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
