"""Unit and property tests for the dense curvature kernels."""

import itertools

import numpy as np
import pytest

from iqnlab import matkernel as mk
from iqnlab.errors import (
    DegenerateDirection,
    InvalidTau,
    NonPositiveDiagonal,
    SingularA,
    SingularUpdate,
)

from iqnlab.oracle import full_matrix

from conftest import psd_dominates, rand_spd


class TestShermanMorrison:
    def test_identity_plus_unit_rank_one(self):
        out = mk.sm_inverse_update(np.eye(2), [(np.array([1.0, 0.0]), 1.0)])
        np.testing.assert_allclose(out, np.diag([0.5, 1.0]), atol=0)

    def test_zero_update_is_noop(self):
        out = mk.sm_inverse_update(np.eye(2), [(np.array([1.0, 2.0]), 0.0)])
        np.testing.assert_allclose(out, np.eye(2), atol=0)
        # x = 0 comes from a cross pair with ku == bu exactly.
        out = mk.sm_inverse_update(np.eye(2), [(np.zeros(2), 0.5)])
        np.testing.assert_array_equal(out, np.eye(2))

    def test_singular_update_raises(self):
        # A = I, x = e1, c = -1 makes 1 + c <x, x> = 0 exactly.
        with pytest.raises(SingularUpdate):
            mk.sm_inverse_update(np.eye(2), [(np.array([1.0, 0.0]), -1.0)])

    def test_chain_of_100_updates_tracks_direct_inverse(self, rng):
        d = 32
        a = rand_spd(rng, d, lo=1.0, hi=5.0)
        a_inv = np.linalg.inv(a)
        for _ in range(100):
            u = rng.standard_normal(d) * 0.1
            c = rng.uniform(-0.1, 1.0)
            a = a + c * np.outer(u, u)
            a_inv = mk.sm_inverse_update(a_inv, [(u, c)])
        expected = np.linalg.inv(a)
        err = np.linalg.norm(full_matrix(a_inv) - expected) / np.linalg.norm(expected)
        assert err < 1e-8


class TestCurvatureOperators:
    def test_bfgs_fixed_point_when_k_equals_b(self, rng):
        b = rand_spd(rng, 4)
        u = rng.standard_normal(4)
        out = b.copy()
        mk.bfgs_update(out, b @ u, float(u @ b @ u), u)
        np.testing.assert_allclose(out, b, atol=1e-12 * np.linalg.norm(b))

    def test_bfgs_diagonal_example(self):
        # B = diag(2, 1), K = I, u = e1 collapses both correction terms onto
        # the (1, 1) entry: 2 - 4/2 + 1/1 = 1.
        b = np.diag([2.0, 1.0])
        u = np.array([1.0, 0.0])
        mk.bfgs_update(b, u.copy(), 1.0, u)
        np.testing.assert_allclose(b, np.eye(2), atol=1e-15)

    def test_dfp_fixed_point_and_diagonal_example(self, rng):
        b = rand_spd(rng, 4)
        u = rng.standard_normal(4)
        out = b.copy()
        mk.dfp_update(out, b @ u, float(u @ b @ u), u)
        np.testing.assert_allclose(out, b, atol=1e-12 * np.linalg.norm(b))

        b = np.diag([2.0, 1.0])
        e1 = np.array([1.0, 0.0])
        mk.dfp_update(b, e1.copy(), 1.0, e1)
        np.testing.assert_allclose(b, np.eye(2), atol=1e-15)

    def test_broyden_endpoints_are_exact(self, rng):
        b = rand_spd(rng, 4)
        k = rand_spd(rng, 4)
        u = rng.standard_normal(4)
        ku, uku = k @ u, float(u @ k @ u)
        for tau, endpoint in ((0.0, mk.bfgs_update), (1.0, mk.dfp_update)):
            got, expected = b.copy(), b.copy()
            mk.broyden_update(tau, got, ku, uku, u)
            endpoint(expected, ku, uku, u)
            np.testing.assert_array_equal(got, expected)

    def test_broyden_midpoint_is_elementwise_mean(self, rng):
        b = rand_spd(rng, 4)
        k = rand_spd(rng, 4)
        u = rng.standard_normal(4)
        ku, uku = k @ u, float(u @ k @ u)
        bfgs, dfp = b.copy(), b.copy()
        mk.bfgs_update(bfgs, ku, uku, u)
        mk.dfp_update(dfp, ku, uku, u)
        mean = 0.5 * (bfgs + dfp)
        mk.broyden_update(0.5, b, ku, uku, u)
        np.testing.assert_allclose(b, mean, atol=1e-14 * np.linalg.norm(mean))

    def test_broyden_rejects_tau_outside_unit_interval(self, rng):
        b = np.eye(2)
        u = np.array([1.0, 0.0])
        with pytest.raises(InvalidTau):
            mk.broyden_update(1.5, b, u, 1.0, u)

    def test_degenerate_direction_raises(self):
        b = np.eye(2)
        with pytest.raises(DegenerateDirection):
            mk.bfgs_update(b, np.zeros(2), 0.0, np.zeros(2))
        with pytest.raises(DegenerateDirection):
            mk.dfp_update(b, np.array([1.0, 0.0]), 0.0, np.array([1.0, 0.0]))


class TestGreedyVector:
    def test_uniform_ratio_breaks_tie_to_lowest(self):
        h = np.array([1.0, 2.0, 3.0])
        assert mk.greedy_vector(2.0 * h, h) == 0

    def test_picks_largest_ratio(self):
        assert mk.greedy_vector(np.array([3.0, 1.0]), np.array([1.0, 1.0])) == 0
        assert mk.greedy_vector(np.array([1.0, 5.0]), np.array([1.0, 1.0])) == 1

    def test_matches_exhaustive_quadratic_form_scan(self, rng):
        d = 8
        q = rand_spd(rng, d)
        h = rand_spd(rng, d)
        ratios = [q[i, i] / h[i, i] for i in range(d)]
        assert mk.greedy_vector(np.diag(q), np.diag(h)) == int(np.argmax(ratios))

    def test_nonpositive_reference_diagonal_raises(self):
        with pytest.raises(NonPositiveDiagonal):
            mk.greedy_vector(np.array([1.0, 1.0]), np.array([1.0, 0.0]))

    # The guard must raise on exactly the diagonals that
    # np.any(h_diag <= GUARD_TOL) flags. A NaN makes h_diag.min() NaN, which
    # hides a 0 next to it from a min()-only test.
    @pytest.mark.parametrize("h_diag, raises", [
        ([1.0, 0.0, 2.0], True),
        ([1.0, -3.0, 2.0], True),
        ([1.0, mk.GUARD_TOL, 2.0], True),
        ([np.nan, 0.0, 2.0], True),
        ([0.0, np.nan, 2.0], True),
        ([1.0, np.nan, 2.0], False),
        ([1.0, 2.0 * mk.GUARD_TOL, 2.0], False),
    ], ids=["zero", "negative", "at-tol", "nan-then-zero", "zero-then-nan",
            "nan-among-positive", "above-tol"])
    @pytest.mark.parametrize("fn", [mk.greedy_vector], ids=["public"])
    def test_guard_raises_on_exactly_the_flagged_set(self, fn, h_diag, raises):
        h_diag = np.array(h_diag)
        q_diag = np.ones(3)
        if raises:
            with pytest.raises(NonPositiveDiagonal, match="reference diagonal"):
                fn(q_diag, h_diag)
        else:
            # argmax of q/h, which counts a NaN ratio as the largest.
            assert fn(q_diag, h_diag) == int(np.argmax(q_diag / h_diag))


class TestReductionsMatchTheOldExpressions:
    # The guards take a[a.argmax()] for np.maximum.reduce(a) and
    # h[h.argmin()] for h.min(): the same values on every diagonal,
    # NaN, infinities and signed zeros included.
    VALUES = (np.nan, np.inf, -np.inf, -0.0, 0.0, mk.GUARD_TOL, 1.0, -2.5)
    DIAGONALS = [np.array(v) for v in itertools.product(VALUES, repeat=3)]

    def test_curvature_guards(self, rng):
        u, ku = rng.standard_normal(3), rng.standard_normal(3)
        nu = np.sqrt(u.dot(u))
        for diag in self.DIAGONALS:
            b = np.diag(diag)
            old = (mk.GUARD_TOL * nu * nu * np.maximum.reduce(np.abs(b.diagonal())),
                   mk.GUARD_TOL * nu * np.sqrt(ku.dot(ku)))
            np.testing.assert_array_equal(mk._curvature_guards(b, ku, u), old, str(diag))

    def test_greedy_vector_picks_and_messages(self):
        q_diag = np.array([1.0, 3.0, 2.0])
        for h_diag in self.DIAGONALS:
            low = h_diag.min()
            with np.errstate(invalid="ignore", divide="ignore"):
                if low <= mk.GUARD_TOL or (low != low and np.any(h_diag <= mk.GUARD_TOL)):
                    message = (f"reference diagonal has entries <= {mk.GUARD_TOL:.1e} "
                               f"(min {low:.3e})")
                    with pytest.raises(NonPositiveDiagonal) as info:
                        mk.greedy_vector(q_diag, h_diag)
                    assert str(info.value) == message
                else:
                    assert mk.greedy_vector(q_diag, h_diag) == int((q_diag / h_diag).argmax())


class TestSigmaMetric:
    def test_zero_at_equality(self, rng):
        a = rand_spd(rng, 5)
        assert abs(mk.sigma_metric(a, a)) < 1e-12

    def test_identity_examples(self):
        assert mk.sigma_metric(np.eye(2), np.diag([2.0, 3.0])) == pytest.approx(3.0)
        assert mk.sigma_metric(np.eye(2), 2.0 * np.eye(2)) == pytest.approx(2.0)

    def test_singular_a_raises(self):
        with pytest.raises(SingularA):
            mk.sigma_metric(np.zeros((2, 2)), np.eye(2))


class TestPsdDominates:
    def test_reflexive_and_shifted(self, rng):
        a = rand_spd(rng, 4)
        assert psd_dominates(a, a, tol=0.0)
        assert psd_dominates(a + np.eye(4), a, tol=0.0)

    def test_detects_violation(self):
        a = 2.0 * np.eye(3)
        assert not psd_dominates(a - np.eye(3), a, tol=1e-9)


class TestOperatorProperties:
    """Randomized invariants shared by the whole restricted Broyden family."""

    OPS = {
        "bfgs": lambda b, ku, uku, u: mk.bfgs_update(b, ku, uku, u),
        "dfp": lambda b, ku, uku, u: mk.dfp_update(b, ku, uku, u),
        "broyden_0.3": lambda b, ku, uku, u: mk.broyden_update(0.3, b, ku, uku, u),
    }

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_secant_property(self, name, rng):
        op = self.OPS[name]
        for _ in range(100):
            d = int(rng.integers(2, 17))
            b = rand_spd(rng, d)
            k = rand_spd(rng, d)
            u = rng.standard_normal(d)
            ku = k @ u
            op(b, ku, float(u @ ku), u)
            assert np.linalg.norm(full_matrix(b) @ u - ku) <= 1e-10 * np.linalg.norm(ku)

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_identity_fixed_point(self, name, rng):
        op = self.OPS[name]
        for _ in range(50):
            d = int(rng.integers(2, 17))
            b = rand_spd(rng, d)
            u = rng.standard_normal(d)
            out = b.copy()
            op(out, b @ u, float(u @ b @ u), u)
            np.testing.assert_allclose(out, b, atol=1e-12 * np.linalg.norm(b))

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_hereditary_psd_sandwich(self, tau, rng):
        # (1/xi) A <= G <= eta A is preserved by one update toward K = A.
        for _ in range(100):
            d = int(rng.integers(2, 9))
            a = rand_spd(rng, d, lo=0.5, hi=3.0)
            xi = float(rng.uniform(1.0, 4.0))
            eta = float(rng.uniform(1.0, 4.0))
            sqrt_a = np.linalg.cholesky(a)
            s = rand_spd(rng, d, lo=1.0 / xi, hi=eta)
            g = sqrt_a @ s @ sqrt_a.T
            u = rng.standard_normal(d)
            mk.broyden_update(tau, g, a @ u, float(u @ a @ u), u)
            assert psd_dominates(g, a / xi, tol=1e-9)
            assert psd_dominates(eta * a, g, tol=1e-9)

    def test_greedy_step_contracts_sigma(self, rng):
        # One greedy update toward K = A with A <= G and mu I <= A <= L I.
        for _ in range(100):
            d = int(rng.integers(2, 9))
            a = rand_spd(rng, d, lo=0.5, hi=3.0)
            g = a + rand_spd(rng, d, lo=0.1, hi=2.0)
            eigs = np.linalg.eigvalsh(a)
            mu, big_l = eigs[0], eigs[-1]
            idx = mk.greedy_vector(np.diag(g), np.diag(a))
            out = g.copy()
            mk.bfgs_update(out, a[:, idx].copy(), float(a[idx, idx]), np.eye(d)[idx])
            rate = 1.0 - mu / (d * big_l)
            assert mk.sigma_metric(a, out) <= rate * mk.sigma_metric(a, g) + 1e-12

    def test_bfgs_never_increases_sigma_when_dominating(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 9))
            a = rand_spd(rng, d, lo=0.5, hi=3.0)
            g = a + rand_spd(rng, d, lo=0.1, hi=2.0)
            u = rng.standard_normal(d)
            out = g.copy()
            mk.bfgs_update(out, a @ u, float(u @ a @ u), u)
            assert mk.sigma_metric(a, out) <= mk.sigma_metric(a, g) + 1e-12

    def test_spectral_norm_bounded_by_sigma(self, rng):
        # A <= L I and A <= G imply ||G - A||_2 <= L * sigma(G, A).
        for _ in range(100):
            d = int(rng.integers(2, 9))
            a = rand_spd(rng, d, lo=0.5, hi=3.0)
            g = a + rand_spd(rng, d, lo=0.1, hi=2.0)
            big_l = np.linalg.eigvalsh(a)[-1]
            lhs = np.linalg.norm(g - a, ord=2)
            assert lhs <= big_l * mk.sigma_metric(a, g) + 1e-9
