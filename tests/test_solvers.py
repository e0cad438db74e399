"""Solver-family tests: scheduling primitives, per-method oracles, lazy
bookkeeping, memoization exactness, and the convergence contracts."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from iqnlab import matkernel as mk
from iqnlab import solvers
from iqnlab.data import GeneratorSpec, generate_quadratic, initial_point
from iqnlab.errors import DegenerateDirection, LazyInconsistency, SingularAggregate
from iqnlab.objectives import LogisticObjective, QuadraticComponents, QuadraticObjective
from iqnlab.oracle import (
    direct_sums,
    full_matrix,
    inverse_residual,
    lazy_eager_audit,
    memoization_audit,
    recompute_aggregates,
)
from iqnlab.solvers import (
    SolverConfig,
    alpha,
    index_of,
    make_solver,
    omega,
    run,
)


def small_quadratic(n=5, d=6, xi=1.0, seed=3, b_max=10.0):
    return QuadraticObjective(generate_quadratic(
        GeneratorSpec(n=n, d=d, xi=xi, b_max=b_max, seed=seed)))


def small_logistic(rng, n=10, d=20, lam=None):
    dense = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.5)
    labels = (rng.random(n) > 0.5).astype(float)
    return LogisticObjective(scipy.sparse.csr_matrix(dense), labels,
                             lam=lam or 1.0 / n, p=2.1, radius=10.0)


GEOMETRIC = 0.1  # alpha0: alpha_k = 0.1 * 0.5^k


class TestScheduling:
    def test_index_function(self):
        assert index_of(1, 5) == 0
        assert index_of(5, 5) == 4
        assert index_of(6, 5) == 0

    def test_cyclic_order_within_every_epoch(self):
        quad = small_quadratic()
        solver = make_solver(quad, initial_point(6, 1.0, 0),
                             SolverConfig(method="SLIQN", gstop=1e-300))
        seen = [solver.step().index for _ in range(3 * quad.n)]
        assert seen == list(range(quad.n)) * 3

    def test_omega_zero_schedule(self):
        # alpha0 = 0 pins every alpha_k to 0.
        assert all(alpha(0.0, k) == 0.0 for k in range(5))
        assert all(omega(t, 4, 0.0) == 1.0 for t in range(1, 13))

    # alpha0 is M sqrt(L) epsilon; each id names the epsilon it is at scale 1.
    @pytest.mark.parametrize("alpha0", [-0.1, float("inf"), float("nan")],
                             ids=["epsilon-negative", "epsilon-inf", "epsilon-nan"])
    def test_bad_schedule_rejected(self, alpha0):
        with pytest.raises(ValueError, match="alpha0"):
            SolverConfig(alpha0=alpha0)

    def test_omega_geometric_values(self):
        # alpha0 = 1, so alpha_1 = 0.5 and omega at the first epoch end is 1.5^2.
        n = 7
        assert omega(n, n, 1.0) == pytest.approx(2.25, abs=0)
        assert omega(n + 1, n, 1.0) == 1.0
        assert alpha(1.0, 0) == 1.0 and alpha(1.0, 2) == 0.25


class TestInitState:
    def test_scaled_identity_init(self):
        # alpha_0 = 0, L = 2: every D_i = 2 I and H = (2 n I)^{-1}.
        a = np.full((3, 2), 2.0)
        quad = QuadraticObjective(QuadraticComponents(a_diag=a, b=np.zeros((3, 2))))
        solver = make_solver(quad, np.zeros(2), SolverConfig(method="SLIQN"))
        for i in range(3):
            np.testing.assert_array_equal(solver.eager_curvature(i), 2.0 * np.eye(2))
        np.testing.assert_allclose(full_matrix(solver.H), np.eye(2) / 6.0, atol=1e-15)

    def test_alpha0_scaling_applied_to_aggregates(self):
        a = np.full((3, 2), 2.0)
        quad = QuadraticObjective(QuadraticComponents(a_diag=a, b=np.zeros((3, 2))))
        solver = make_solver(quad, np.zeros(2), SolverConfig(method="SLIQN", alpha0=1.0))
        # alpha_0 = 1 so the eager curvature carries (1 + 1)^2 = 4.
        np.testing.assert_allclose(solver.eager_curvature(0), 8.0 * np.eye(2),
                                   atol=1e-15)
        np.testing.assert_allclose(full_matrix(solver.H), np.eye(2) / 24.0, atol=1e-15)

    @pytest.mark.parametrize("method", solvers.METHODS)
    def test_initial_aggregates_match_definitions(self, method, rng):
        quad = small_quadratic()
        x0 = rng.standard_normal(quad.d)
        solver = make_solver(quad, x0, SolverConfig(method=method))
        np.testing.assert_allclose(solver.g, quad.gradients_at(x0).sum(axis=0),
                                   atol=1e-12)
        dbar = sum(full_matrix(solver.eager_curvature(i)) for i in range(quad.n))
        np.testing.assert_allclose(solver.phi, dbar @ x0, atol=1e-9)


class TestOneStepConvergence:
    @pytest.mark.parametrize("method", ["SLIQN", "SIQN", "IQN", "NIM"])
    def test_exact_curvature_solves_quadratic_in_one_step(self, method, rng):
        quad = small_quadratic(seed=int(rng.integers(1000)))
        x0 = initial_point(quad.d, 1.0, int(rng.integers(1000)))
        x_star = quad.exact_minimizer()
        cfg = SolverConfig(method=method, init_curvature="exact-hessian",
                           gstop=1e-14, max_epochs=3)
        records = run(quad, x0, cfg, x_star=x_star)
        assert records[0].normalized_error <= 1e-10
        assert len(records) == 1  # gradient vanished at the first iterate

    def test_iqn_single_component_newton_step(self):
        # n = 1, B0 = A: x1 = -A^{-1} b.
        a = np.array([[2.0, 0.5]])
        b = np.array([[1.0, -3.0]])
        quad = QuadraticObjective(QuadraticComponents(a_diag=a, b=b))
        solver = make_solver(quad, np.array([1.0, 1.0]),
                             SolverConfig(method="IQN", init_curvature="exact-hessian"))
        x1 = solver.step().x
        np.testing.assert_allclose(x1, -b[0] / a[0], atol=1e-14)

    def test_classic_stage_skips_once_converged(self):
        a = np.array([[2.0, 0.5]])
        b = np.array([[1.0, -3.0]])
        quad = QuadraticObjective(QuadraticComponents(a_diag=a, b=b))
        solver = make_solver(quad, np.array([1.0, 1.0]),
                             SolverConfig(method="SLIQN", init_curvature="exact-hessian"))
        assert not solver.step().classic_skipped
        assert solver.step().classic_skipped  # second step starts at x*


def scalar_iqn_trace(a, b, x0, steps):
    """Plain-float reimplementation of the one-dimensional recursion."""
    n = len(a)
    big_l = max(a)
    z = [x0] * n
    grad = [a[i] * x0 + b[i] for i in range(n)]
    curv = [big_l] * n
    xs = []
    for t in range(1, steps + 1):
        i = (t - 1) % n
        x = (sum(curv[j] * z[j] for j in range(n)) - sum(grad)) / sum(curv)
        grad_new = a[i] * x + b[i]
        s = x - z[i]
        y = grad_new - grad[i]
        if abs(s) > 1e-13 * (1.0 + abs(z[i])):
            curv[i] = y / s  # scalar BFGS collapses to the secant slope
        z[i] = x
        grad[i] = grad_new
        xs.append(x)
    return xs


class TestIqnScalarOracle:
    def test_two_components_hand_traced(self):
        a = [2.0, 0.5]
        b = [1.0, -1.0]
        quad = QuadraticObjective(QuadraticComponents(
            a_diag=np.array(a).reshape(2, 1), b=np.array(b).reshape(2, 1)))
        solver = make_solver(quad, np.array([2.0]), SolverConfig(method="IQN"))
        expected = scalar_iqn_trace(a, b, 2.0, steps=4)
        got = [solver.step().x[0] for _ in range(4)]
        # the scalar oracle cancels B algebraically, the kernel numerically;
        # an epsilon-level absolute floor covers the residue at x* = 0
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-14)


class TestMemoization:
    @pytest.mark.parametrize("method", ["IQN", "SLIQN", "GSLIQN"])
    def test_aggregates_match_direct_recomputation(self, method, rng):
        quad = small_quadratic()
        cfg = SolverConfig(method=method, tau1=0.3, tau2=0.6, alpha0=GEOMETRIC,
                           gstop=1e-300)
        report = memoization_audit(quad, initial_point(quad.d, 1.0, 1), cfg,
                                   steps=3 * quad.n)
        assert report.passed, report.line()

    def test_memoization_on_logistic(self, rng):
        logi = small_logistic(rng)
        cfg = SolverConfig(method="SLIQN", gstop=1e-300)
        report = memoization_audit(logi, initial_point(logi.d, 0.5, 2), cfg,
                                   steps=2 * logi.n)
        assert report.passed, report.line()

    def test_recompute_matches_init(self):
        quad = small_quadratic()
        solver = make_solver(quad, initial_point(quad.d, 1.0, 0),
                             SolverConfig(method="SLIQN"))
        h, phi, g = recompute_aggregates(solver)
        np.testing.assert_allclose(h, full_matrix(solver.H), atol=1e-12)
        np.testing.assert_allclose(phi, solver.phi, atol=1e-9)
        np.testing.assert_array_equal(g, solver.g)

    def test_drift_stays_within_budget(self):
        quad = small_quadratic(n=20, d=10, xi=1.0, seed=8)
        from iqnlab.oracle import drift_audit
        cfg = SolverConfig(method="SLIQN", gstop=1e-300, max_epochs=100,
                           refresh_period=200)
        report = drift_audit(quad, initial_point(quad.d, 1.0, 4), cfg, steps=1000)
        assert report.passed, report.line()

    @pytest.mark.parametrize("method,tau", [("IQN", 0.0), ("SLIQN", 0.0), ("GSLIQN", 0.5)])
    def test_inverse_stays_symmetric_and_accurate_without_refresh(self, method, tau):
        # H is stored as its lower triangle, so it is symmetric by
        # construction; with no refresh the chain alone must keep it the
        # inverse of the sum over 500 steps.
        quad = small_quadratic(n=10, d=40, xi=2.0, seed=4)
        solver = make_solver(quad, initial_point(quad.d, 1.0, 4), SolverConfig(
            method=method, tau1=tau, tau2=tau, gstop=1e-300, max_epochs=100,
            refresh_period=10 ** 6))
        for _ in range(500):
            solver.step()
        assert inverse_residual(solver) < 1e-10


def _sum_drift(solver):
    """Relative distance of a solver's phi, g and phi - g, and of the direct
    strategy's sum, from oracle.direct_sums, on the lower triangles that
    define the sums."""
    dbar, phi, g = direct_sums(solver)
    rhs = phi - g
    drift = max(np.linalg.norm(solver.phi - phi) / np.linalg.norm(phi),
                np.linalg.norm(solver.g - g) / max(np.linalg.norm(g), 1.0),
                np.linalg.norm(solver.phi - solver.g - rhs) / np.linalg.norm(rhs))
    if isinstance(solver, solvers.DirectSolver):
        hsum = np.tril(dbar)
        drift = max(drift, np.linalg.norm(np.tril(solver._hsum) - hsum) / np.linalg.norm(hsum))
    return drift


# Exact curvature lands on x* at t = 1, so from t = n + 1 on, the touched
# tuple already sits at the iterate and the classic stage is skipped.
EXACT_START = dict(init_curvature="exact-hessian")


class TestDirectSums:
    # Worst per-step drift over 100 epochs, with the default refresh: 1.1e-15
    # on small quadratics, 1.0e-11 on small logistic problems (SIQN).
    DRIFT_BOUND = 1e-9
    # Settings beyond the default ones for the "quad-..." runs below.
    SETTINGS = {"dfp": dict(tau1=1.0, tau2=1.0), "skip": EXACT_START,
                "geometric": dict(tau1=0.5, tau2=0.5, alpha0=GEOMETRIC)}

    @pytest.mark.parametrize("method", ["SIQN", "IGS", "NIM"])
    def test_sums_are_built_at_init(self, method):
        quad = small_quadratic()
        solver = make_solver(quad, initial_point(quad.d, 1.0, 0),
                             SolverConfig(method=method))
        assert solver.t == 0
        assert _sum_drift(solver) == 0.0

    @staticmethod
    def beta_swelling_logistic(rng):
        # SIQN's beta swells sum D_i to ~3e9 here before the greedy stage
        # brings it back to ~8; with no refresh its sums drift to 9.5e-8.
        # (On small_logistic's default n = 10, d = 20, SIQN stalls into a
        # DegenerateDirection at t = 52.)
        return small_logistic(rng, n=12, d=6), 0.1

    @pytest.mark.parametrize("method, problem", [
        *itertools.product(solvers.METHODS, ["quad", "logi"]),
        ("GSLIQN", "quad-dfp"),
        *((method, "quad-skip") for method in ("IQN", "SIQN", "SLIQN", "GSLIQN")),
        ("SLIQN", "quad-geometric"), ("GSLIQN", "quad-geometric")])
    def test_sums_track_a_rebuild_over_100_epochs(self, method, problem, rng):
        # phi takes its change from the stages' terms at tau1 < 1 and at
        # tau1 = 1 (where B s is no term), and from two products of D_i
        # where the classic stage is skipped or absent; every path must
        # track the direct sums through ten rebuilds.
        obj, scale = ((small_quadratic(), 1.0) if problem.startswith("quad")
                      else self.beta_swelling_logistic(rng))
        settings = self.SETTINGS.get(problem.partition("-")[2], {})
        solver = make_solver(obj, initial_point(obj.d, scale, 8),
                             SolverConfig(method=method, gstop=1e-300, **settings))
        worst, skipped = 0.0, 0
        for _ in range(100 * obj.n):
            skipped += solver.step().classic_skipped
            worst = max(worst, _sum_drift(solver))
        assert worst <= self.DRIFT_BOUND
        assert skipped or problem != "quad-skip"

    def test_refresh_removes_the_gradient_floor(self, rng):
        # The rounding left from the peak floors the gradient norm at the
        # fixed point: without the refresh SIQN stalls near 1.5e-8.
        obj, scale = self.beta_swelling_logistic(rng)
        x0 = initial_point(obj.d, scale, 8)
        refreshed = run(obj, x0, SolverConfig(method="SIQN", gstop=1e-10, max_epochs=100))
        assert refreshed[-1].grad_norm < 1e-10
        never = run(obj, x0, SolverConfig(method="SIQN", gstop=1e-10, max_epochs=100,
                                          refresh_period=10 ** 9))
        assert min(r.grad_norm for r in never) > 1e-9


class TestLazyScaling:
    def test_lazy_matches_eager_with_geometric_alpha(self, rng):
        quad = small_quadratic()
        cfg = SolverConfig(method="SLIQN", alpha0=GEOMETRIC, gstop=1e-300)
        report = lazy_eager_audit(quad, initial_point(quad.d, 1.0, 5), cfg,
                                  steps=3 * quad.n)
        assert report.passed, report.line()

    def test_lazy_matches_eager_on_logistic(self, rng):
        logi = small_logistic(rng)
        cfg = SolverConfig(method="SLIQN", gstop=1e-300)
        report = lazy_eager_audit(logi, initial_point(logi.d, 0.5, 6), cfg,
                                  steps=3 * logi.n)
        assert report.passed, report.line()

    def test_corrupted_epoch_bookkeeping_raises(self):
        quad = small_quadratic()
        solver = make_solver(quad, initial_point(quad.d, 1.0, 0),
                             SolverConfig(method="SLIQN"))
        solver.step()
        solver.scale_epoch[1] = 5  # pending gap no longer equals one epoch
        with pytest.raises(LazyInconsistency):
            solver.step()

    def test_stored_matrices_lag_by_exactly_one_boundary(self):
        quad = small_quadratic(n=3, d=4)
        solver = make_solver(quad, initial_point(4, 1.0, 0),
                             SolverConfig(method="SLIQN", alpha0=0.2))
        for _ in range(quad.n):  # full first epoch
            solver.step()
        # every tuple was rewritten in epoch 1; one boundary (end of epoch 1)
        # has passed, so the eager value carries (1 + alpha_1)^2
        factor = (1.0 + alpha(0.2, 1)) ** 2
        for i in range(quad.n):
            np.testing.assert_allclose(solver.eager_curvature(i),
                                       factor * solver.D[i], atol=0)


class TestStateInvariants:
    @pytest.mark.parametrize("method", ["IQN", "SIQN", "SLIQN", "IGS", "NIM"])
    def test_tuple_gradients_stay_refreshed(self, method, rng):
        quad = small_quadratic()
        solver = make_solver(quad, initial_point(quad.d, 1.0, 3),
                             SolverConfig(method=method, gstop=1e-300))
        for _ in range(2 * quad.n + 3):
            solver.step()
        for i in range(quad.n):
            np.testing.assert_array_equal(solver.grads[i],
                                          quad.gradient(i, solver.z[i]))

    def test_single_component_lazy_run_stays_consistent(self):
        # n = 1: the chain's terms remove as much curvature as they add; the
        # memoized state must remain exact and the run must converge.
        a = np.array([[3.0, 0.5, 1.5, 2.0]])
        b = np.array([[10.0, -20.0, 5.0, 0.0]])
        quad = QuadraticObjective(QuadraticComponents(a_diag=a, b=b))
        x_star = quad.exact_minimizer()
        solver = make_solver(quad, np.array([1.0, -1.0, 0.5, 2.0]),
                             SolverConfig(method="SLIQN", gstop=1e-300))
        for _ in range(12):
            res = solver.step()
            h, phi, g = recompute_aggregates(solver)
            assert np.linalg.norm(full_matrix(solver.H) - h) <= 1e-9 * np.linalg.norm(h)
            assert np.linalg.norm(solver.phi - phi) <= 1e-9 * max(np.linalg.norm(phi), 1.0)
        assert np.linalg.norm(res.x - x_star) <= 1e-8 * (1 + np.linalg.norm(x_star))

    @pytest.mark.parametrize("method", ["IQN", "SLIQN", "GSLIQN"])
    def test_singular_chain_rebuilds_inverse_from_scratch(self, method, monkeypatch):
        # n = 1: with the positive terms first every chain stays regular,
        # so each runs in full and is then reported singular. What remains
        # must be the direct Cholesky inverse, bit for bit, not that buffer.
        outcomes = []
        chain = solvers._apply_chain

        def apply_chain(h, terms):
            outcomes.append(chain(h, terms))
            return False
        monkeypatch.setattr(solvers, "_apply_chain", apply_chain)
        quad = QuadraticObjective(QuadraticComponents(
            a_diag=np.array([[3.0, 0.5, 1.5, 2.0]]), b=np.array([[10.0, -20.0, 5.0, 0.0]])))
        solver = make_solver(quad, np.array([1.0, -1.0, 0.5, 2.0]), SolverConfig(
            method=method, tau1=0.5, tau2=0.0, gstop=1e-300))
        for _ in range(6):
            solver.step()
            direct = mk.cholesky_inverse(solver.eager_curvature(0).copy())
            np.testing.assert_array_equal(np.tril(solver.H), np.tril(direct))
        assert outcomes and all(outcomes)

    def test_singular_fallback_raises_typed_error(self, monkeypatch):
        quad = small_quadratic(n=2, d=4)
        monkeypatch.setattr(solvers, "_apply_chain", lambda h, terms: False)
        for method in ("IQN", "SLIQN"):
            solver = make_solver(quad, initial_point(quad.d, 1.0, 0),
                                 SolverConfig(method=method, gstop=1e-300))
            monkeypatch.setattr(type(solver), "_curvature_sum",
                                lambda self, out: np.zeros((self.d, self.d)))
            with pytest.raises(SingularAggregate, match="singular"):
                solver.step()

    @pytest.mark.parametrize("method", ["SIQN", "IGS", "NIM"])
    def test_singular_direct_solve_raises_typed_error(self, method):
        # The solve reads the incremental curvature sum, not D: zero the sum
        # between two refreshes.
        quad = small_quadratic(n=2, d=4)
        solver = make_solver(quad, initial_point(quad.d, 1.0, 0),
                             SolverConfig(method=method, gstop=1e-300))
        solver.step()
        solver._hsum[:] = 0.0
        with pytest.raises(SingularAggregate, match="aggregate solve failed"):
            solver.step()

    def test_lazy_matches_eager_logistic_geometric_many_epochs(self, rng):
        logi = small_logistic(rng)
        cfg = SolverConfig(method="SLIQN", alpha0=0.05, gstop=1e-300)
        report = lazy_eager_audit(logi, initial_point(logi.d, 0.5, 8), cfg,
                                  steps=8 * logi.n)
        assert report.passed, report.line()

    def test_large_n_regime_orders_igs_ahead_of_iqn(self):
        # with many components and few dimensions the greedy-only method
        # overtakes the classic-only one; the sharpened method beats both
        quad = QuadraticObjective(generate_quadratic(
            GeneratorSpec(n=300, d=10, xi=1.0, seed=6)))
        x0 = initial_point(10, 1.0, 6)
        x_star = quad.exact_minimizer()
        passes = {}
        for method in ("SLIQN", "IQN", "IGS"):
            records = run(quad, x0, SolverConfig(method=method, gstop=1e-9,
                                                 max_epochs=40), x_star=x_star)
            assert records[-1].grad_norm < 1e-9
            passes[method] = records[-1].t / quad.n
        assert passes["IGS"] <= passes["IQN"]
        assert passes["SLIQN"] <= passes["IQN"]


class TestAllocation:
    # GSLIQN at tau = 0 runs SLIQN's path (test_tau_zero_is_bitwise_sliqn);
    # at tau != 0 each stage adds two symmetric cross terms to the chain,
    # whose vectors are all it allocates. On the quadratic (M = 0) SIQN and
    # IGS read no component Hessian.
    @pytest.mark.parametrize("method, tau", [
        pytest.param("IQN", 0.0, id="IQN"), pytest.param("SLIQN", 0.0, id="SLIQN"),
        pytest.param("GSLIQN", 0.5, id="GSLIQN-tau"), pytest.param("SIQN", 0.0, id="SIQN"),
        pytest.param("IGS", 0.0, id="IGS")])
    def test_step_allocates_no_d_by_d_array(self, method, tau):
        # Every stage writes D_i in place and dposv factorizes in the direct
        # strategy's one scratch matrix, so a step (no refresh, no omega, no
        # track_sigma) allocates only vectors once its buffers exist.
        d = 120
        quad = small_quadratic(n=4, d=d)
        solver = make_solver(quad, initial_point(d, 1.0, 0), SolverConfig(
            method=method, tau1=tau, tau2=tau, gstop=1e-300))
        solver.step()
        solver.step()
        tracemalloc.start()
        try:
            solver.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < d * d * 8, f"{method} step peaked at {peak / (d * d * 8):.2f} d^2 doubles"

    @pytest.mark.parametrize("method", ["IQN", "SLIQN", "SIQN", "IGS"])
    def test_refresh_step_allocates_no_d_by_d_array(self, method):
        # A rebuild sums the D_i into the buffer the aggregate already has
        # (H, which Cholesky then inverts in place, or the direct sum).
        d = 120
        quad = small_quadratic(n=4, d=d)
        solver = make_solver(quad, initial_point(d, 1.0, 0), SolverConfig(
            method=method, gstop=1e-300, refresh_period=3))
        solver.step()
        solver.step()
        tracemalloc.start()
        try:
            solver.step()  # t = 3: the step ends in a rebuild
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < d * d * 8, f"{method} refresh peaked at {peak / (d * d * 8):.2f} d^2 doubles"

    @staticmethod
    def held_d2(method, steps=0, d=120):
        """What a solver holds at n = 4 once made and stepped, in d^2 doubles."""
        quad = small_quadratic(n=4, d=d)
        tracemalloc.start()
        try:
            solver = make_solver(quad, initial_point(d, 1.0, 0), SolverConfig(
                method=method, tau1=0.5, tau2=0.5, gstop=1e-300))
            for _ in range(steps):
                solver.step()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return held / (d * d * 8)

    @pytest.mark.parametrize("method, reference", [
        ("SLIQN", "IQN"), ("GSLIQN", "IQN"), ("SIQN", "NIM"), ("IGS", "NIM")])
    def test_stages_hold_no_matrix_beyond_their_strategy(self, method, reference):
        # A greedy stage keeps no d x d buffer of its own: a solver holds
        # what the other solvers of its aggregate strategy hold.
        gap = self.held_d2(method) - self.held_d2(reference)
        assert abs(gap) < 0.1, f"{method} holds {gap:+.2f} d^2 doubles beyond {reference}"

    @pytest.mark.parametrize("method", ["SIQN", "IGS", "NIM"])
    def test_direct_strategy_holds_one_scratch_matrix(self, method):
        # Both strategies keep the stack D and one aggregate matrix (IQN's H,
        # the direct sum). Beyond that a direct solver keeps one scratch
        # matrix, which takes the solve's factor and then the outgoing D_i.
        gap = self.held_d2(method, steps=2) - self.held_d2("IQN", steps=2)
        assert abs(gap - 1.0) < 0.1, f"{method} holds {gap:+.2f} d^2 doubles beyond IQN"

    @pytest.mark.parametrize("method, init", itertools.product(
        solvers.METHODS, ["scaled-identity", "exact-hessian"]))
    def test_init_peaks_at_what_the_solver_holds(self, method, init):
        # The curvature stack is filled in place, one component Hessian at a
        # time: the start never holds a list of n Hessians next to the stack
        # it keeps (NIM always starts from the exact Hessians).
        d = 120
        quad = small_quadratic(n=6, d=d)
        x0 = initial_point(d, 1.0, 0)
        config = SolverConfig(method=method, tau1=0.5, tau2=0.5, gstop=1e-300,
                              init_curvature=init)
        tracemalloc.start()
        try:
            solver = make_solver(quad, x0, config)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del solver
        excess = (peak - held) / (d * d * 8)
        assert excess < 1.0, f"{method} start peaked {excess:.2f} d^2 doubles above what it holds"

    @pytest.mark.parametrize("method", ["SLIQN", "GSLIQN", "SIQN", "IGS"])
    def test_q_is_kept_only_when_tracking_sigma(self, method, monkeypatch):
        # With track_sigma the step copies the matrix its greedy stage
        # starts from; without it there is no copy, and the iterates agree.
        inputs = []
        update = mk.broyden_update

        def recorded(tau, b, *args):
            inputs.append(b.copy())
            return update(tau, b, *args)
        monkeypatch.setattr(mk, "broyden_update", recorded)
        quad = small_quadratic()
        x0 = initial_point(quad.d, 1.0, 9)
        cfg = dict(method=method, tau1=0.5, tau2=0.5, gstop=1e-300)
        plain = make_solver(quad, x0, SolverConfig(**cfg))
        tracked = make_solver(quad, x0, SolverConfig(**cfg, track_sigma=True))
        for _ in range(quad.n + 2):
            res = plain.step()
            assert res.q is None
            res_tracked = tracked.step()
            np.testing.assert_array_equal(res_tracked.q, inputs[-1])  # the greedy call's B
            np.testing.assert_array_equal(res_tracked.x, res.x)


# The kernels each method's steps reach, besides set-up and refreshes; no
# step symmetrizes H.
STEP_KERNELS = {
    "IQN": {"sm_inverse_update", "broyden_update"},
    "SLIQN": {"sm_inverse_update", "broyden_update", "greedy_vector"},
    "GSLIQN": {"sm_inverse_update", "broyden_update", "greedy_vector"},
}


@pytest.mark.parametrize("method", solvers.METHODS)
def test_solver_goes_by_its_config_method(method):
    # GSLIQN shares SLIQN's class, so the name comes from the config alone;
    # perfbench files each step under it.
    quad = small_quadratic()
    solver = make_solver(quad, initial_point(quad.d, 1.0, 0), SolverConfig(method=method))
    assert solver.method == method


@pytest.mark.parametrize("method", sorted(STEP_KERNELS))
def test_steps_call_the_public_kernels(method, monkeypatch):
    # perfbench's traced mode wraps these module attributes: a step that
    # bypasses them hides its kernel time from the per-layer split.
    quad = small_quadratic()
    solver = make_solver(quad, initial_point(quad.d, 1.0, 0), SolverConfig(
        method=method, tau1=0.5, tau2=0.5, gstop=1e-300))
    calls = dict.fromkeys(STEP_KERNELS["GSLIQN"] | {"symmetrize"}, 0)
    for name in calls:
        def counted(*args, _kernel=getattr(mk, name), _name=name):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(mk, name, counted)
    for _ in range(2 * quad.n - 1):  # short of the 10 n refresh
        solver.step()
    assert {name for name, count in calls.items() if count} == STEP_KERNELS[method]


# Products m @ x (mk.symv) per step: the iterate solve's symv(H), B u in
# each Broyden stage and symv(H) for each term of the inverse chain. phi's
# change comes from the classic stage's B s and the terms, so no other
# product of D_i is taken (taking D_i z_old and D_i x too made 6 and 9).
STEP_PRODUCTS = {"IQN": 4, "SLIQN": 7}


@pytest.mark.parametrize("method", sorted(STEP_PRODUCTS))
def test_step_takes_no_product_of_d_i_for_phi(method, monkeypatch):
    # Exact curvature lands on x* at t = 1: the first n steps run the
    # classic stage, the next n skip it and take D_i z_old and D_i x.
    quad = small_quadratic()
    solver = make_solver(quad, initial_point(quad.d, 1.0, 0), SolverConfig(
        method=method, gstop=1e-300, **EXACT_START))
    products = []

    def counted(m, x, _symv=mk.symv):
        products.append(np.shares_memory(m, solver.D))
        return _symv(m, x)
    monkeypatch.setattr(mk, "symv", counted)
    greedy = int(solver.greedy)  # the greedy stage's B e_k
    for t in range(1, 2 * quad.n + 1):  # short of the 10 n refresh
        products.clear()
        skipped = solver.step().classic_skipped
        assert skipped == (t > quad.n)
        if skipped:
            # The solve, the greedy stage and its 2 terms, and the two
            # fallback products of D_i.
            assert (len(products), sum(products)) == (1 + 3 * greedy + 2, greedy + 2)
        else:
            assert (len(products), sum(products)) == (STEP_PRODUCTS[method], 1 + greedy)


@pytest.mark.parametrize("method", solvers.METHODS)
def test_strict_upper_triangles_are_never_read(method):
    # Every matrix a solver keeps is defined by its lower triangle: with
    # NaN in the strict upper triangle of every D_i and of H or the direct
    # sum, the trace must not change in any bit, through refreshes and the
    # sigma diagnostics.
    quad = small_quadratic(n=6, d=64, xi=2.0, seed=11)
    x0 = initial_point(quad.d, 1.0, 11)
    cfg = SolverConfig(method=method, tau1=0.5, tau2=0.5, gstop=1e-300, max_epochs=3,
                       refresh_period=5, track_sigma=True)
    traces = []
    for poison in (False, True):
        solver = make_solver(quad, x0, cfg)
        if poison:
            upper = np.triu_indices(quad.d, 1)
            solver.D[:, upper[0], upper[1]] = np.nan
            (solver._hsum if hasattr(solver, "_hsum") else solver.H)[upper] = np.nan
        records = solvers.run_solver(solver, x_star=quad.exact_minimizer())
        traces.append([(r.t, r.grad_norm, r.normalized_error, r.sigma_max)
                       for r in records])
    assert len(traces[0]) == 3 * quad.n
    assert traces[1] == traces[0]


class TestGeneralizedBroyden:
    def test_tau_zero_is_bitwise_sliqn(self):
        quad = small_quadratic()
        x0 = initial_point(quad.d, 1.0, 9)
        sliqn = make_solver(quad, x0, SolverConfig(method="SLIQN", gstop=1e-300))
        gsliqn = make_solver(quad, x0, SolverConfig(
            method="GSLIQN", tau1=0.0, tau2=0.0, gstop=1e-300))
        for _ in range(2 * quad.n):
            np.testing.assert_array_equal(sliqn.step().x, gsliqn.step().x)

    def test_tau_one_stages_are_pure_dfp(self):
        quad = small_quadratic()
        x0 = initial_point(quad.d, 1.0, 9)
        solver = make_solver(quad, x0, SolverConfig(
            method="GSLIQN", tau1=1.0, tau2=1.0, gstop=1e-300, track_sigma=True))
        d_old = solver.eager_curvature(0).copy()
        z_old = solver.z[0].copy()
        grad_old = solver.grads[0].copy()
        res = solver.step()
        s = res.x - z_old
        y = quad.gradient(0, res.x) - grad_old
        q_expected = d_old
        mk.dfp_update(q_expected, y, float(s @ y), s)
        q_expected = full_matrix(q_expected)
        np.testing.assert_allclose(full_matrix(res.q), q_expected,
                                   atol=1e-12 * np.linalg.norm(q_expected))
        h_diag = quad.hessian_diag(0, res.x)
        k_idx = mk.greedy_vector(np.diagonal(q_expected), h_diag)
        e_k = np.zeros(quad.d)
        e_k[k_idx] = 1.0
        d_expected = q_expected.copy()
        mk.dfp_update(d_expected, quad.hessian_column(0, res.x, k_idx),
                      float(h_diag[k_idx]), e_k)
        d_expected = full_matrix(d_expected)
        np.testing.assert_allclose(full_matrix(res.d_unscaled), d_expected,
                                   atol=1e-12 * np.linalg.norm(d_expected))

    def test_tau_half_matches_eager_broyden(self, rng):
        quad = small_quadratic()
        cfg = SolverConfig(method="GSLIQN", tau1=0.5, tau2=0.5, alpha0=GEOMETRIC,
                           gstop=1e-300)
        report = lazy_eager_audit(quad, initial_point(quad.d, 1.0, 5), cfg,
                                  steps=2 * quad.n)
        assert report.passed, report.line()


class TestSiqn:
    def test_identity_fixed_point_on_quadratic(self):
        quad = small_quadratic()
        solver = make_solver(quad, initial_point(quad.d, 1.0, 1),
                             SolverConfig(method="SIQN", init_curvature="exact-hessian"))
        res = solver.step()
        # M = 0 on quadratics so beta = 0, K = A_i: both stages fix A_i.
        np.testing.assert_allclose(full_matrix(res.d_unscaled), quad.hessian(0, res.x),
                                   atol=1e-10)

    def test_beta_uses_hessian_norm_of_step(self, rng):
        logi = small_logistic(rng)
        solver = make_solver(logi, initial_point(logi.d, 0.5, 2),
                             SolverConfig(method="SIQN"))
        s = rng.standard_normal(logi.d)
        m_const = logi.constants.M
        expected = 0.5 * m_const * np.sqrt(s @ logi.hessian(0, solver.z[0]) @ s)
        assert solver._correction(1, 0, s, False) == pytest.approx(expected, rel=1e-12)
        assert solver._correction(1, 0, s, True) == 0.0


class TestIgs:
    def test_sigma_contracts_on_quadratic_steps(self):
        quad = small_quadratic(n=4, d=6, xi=1.0, seed=2)
        consts = quad.constants
        rate = 1.0 - consts.mu / (quad.d * consts.L)
        solver = make_solver(quad, initial_point(quad.d, 1.0, 3),
                             SolverConfig(method="IGS", gstop=1e-300, track_sigma=True))
        for _ in range(3 * quad.n):
            res = solver.step()
            hess = quad.hessian(res.index, res.x)
            before = mk.sigma_metric(hess, res.q)
            after = mk.sigma_metric(hess, res.d_unscaled)
            if before > 1e-12:
                assert after <= rate * before + 1e-9

    def test_single_component_matches_standalone_greedy_bfgs(self):
        a = np.array([[3.0, 0.5, 1.0, 2.0]])
        b = np.array([[1.0, -2.0, 0.5, 0.0]])
        quad = QuadraticObjective(QuadraticComponents(a_diag=a, b=b))
        x0 = np.array([1.0, 1.0, -1.0, 0.5])
        solver = make_solver(quad, x0, SolverConfig(method="IGS", gstop=1e-300))

        # standalone greedy-BFGS iteration on f(x) = x^T A x / 2 + b x
        a_mat = np.diag(a[0])
        d_mat = quad.constants.L * np.eye(4)
        z = x0.copy()
        for _ in range(8):
            full = full_matrix(d_mat)
            x = np.linalg.solve(full, full @ z - (a[0] * z + b[0]))
            idx = int(np.argmax(np.diagonal(d_mat) / np.diagonal(a_mat)))
            e_k = np.zeros(4)
            e_k[idx] = 1.0
            mk.bfgs_update(d_mat, a_mat[:, idx].copy(), a_mat[idx, idx], e_k)
            z = x
            got = solver.step().x
            np.testing.assert_allclose(got, x, atol=1e-12 * (1 + np.linalg.norm(x)))


class TestNim:
    def test_single_component_is_newton_iteration(self, rng):
        logi = small_logistic(rng, n=1, d=6, lam=0.5)
        x0 = initial_point(6, 0.5, 4)
        solver = make_solver(logi, x0, SolverConfig(method="NIM", gstop=1e-300))
        x = x0.copy()
        for _ in range(5):
            x = x - np.linalg.solve(logi.hessian(0, x), logi.gradient(0, x))
            np.testing.assert_allclose(solver.step().x, x, atol=1e-10)

    def test_matches_direct_incremental_newton_reference(self, rng):
        logi = small_logistic(rng, n=6, d=5)
        x0 = initial_point(5, 0.5, 7)
        solver = make_solver(logi, x0, SolverConfig(method="NIM", gstop=1e-300))

        z = np.tile(x0, (6, 1))
        for t in range(1, 3 * 6 + 1):
            i = (t - 1) % 6
            hsum = sum(logi.hessian(j, z[j]) for j in range(6))
            rhs = sum(logi.hessian(j, z[j]) @ z[j] - logi.gradient(j, z[j])
                      for j in range(6))
            x = np.linalg.solve(hsum, rhs)
            z[i] = x
            np.testing.assert_allclose(solver.step().x, x, rtol=1e-9, atol=1e-12)


class TestSigmaAndPsdInvariants:
    def test_sigma_decays_linearly_per_epoch(self):
        quad = small_quadratic(n=5, d=6, xi=1.0, seed=13)
        consts = quad.constants
        rate = 1.0 - consts.mu / (quad.d * consts.L)
        solver = make_solver(quad, initial_point(quad.d, 1.0, 13),
                             SolverConfig(method="SLIQN", gstop=1e-300))
        sigma0 = [mk.sigma_metric(quad.hessian(i, solver.z[i]),
                                  solver.eager_curvature(i))
                  for i in range(quad.n)]
        for epoch in range(1, 6):
            for _ in range(quad.n):
                res = solver.step()
                i = res.index
                sigma_now = mk.sigma_metric(quad.hessian(i, res.x), res.d_unscaled)
                assert sigma_now <= rate ** epoch * sigma0[i] + 1e-9

    def test_psd_dominance_throughout_run(self):
        from iqnlab.oracle import psd_dominance_audit
        quad = small_quadratic(n=5, d=6, xi=1.5, seed=17)
        report = psd_dominance_audit(quad, initial_point(quad.d, 1.0, 17),
                                     SolverConfig(method="SLIQN", gstop=1e-300),
                                     steps=5 * quad.n)
        assert report.passed, report.line()


class TestRunLoop:
    def test_infinite_gstop_runs_to_max_epochs(self):
        quad = small_quadratic()
        cfg = SolverConfig(method="SLIQN", gstop=np.inf, max_epochs=2)
        records = run(quad, initial_point(quad.d, 1.0, 0), cfg)
        assert len(records) == 2 * quad.n
        assert [r.t for r in records] == list(range(1, 2 * quad.n + 1))

    def test_normalized_error_non_increasing_per_epoch(self):
        quad = QuadraticObjective(generate_quadratic(
            GeneratorSpec(n=10, d=10, xi=2.0, seed=4)))
        x_star = quad.exact_minimizer()
        cfg = SolverConfig(method="SLIQN", gstop=1e-10, max_epochs=60)
        records = run(quad, initial_point(quad.d, 1.0, 4), cfg, x_star=x_star)
        per_epoch = {}
        for rec in records:
            per_epoch[rec.epoch] = rec.normalized_error
        completed = records[-1].t // quad.n
        errors = [per_epoch[k] for k in range(1, completed + 1)]
        assert all(a >= b for a, b in zip(errors, errors[1:]))

    def test_epoch_counter_matches_ceiling(self):
        quad = small_quadratic(n=4)
        cfg = SolverConfig(method="IQN", gstop=np.inf, max_epochs=2)
        records = run(quad, initial_point(quad.d, 1.0, 0), cfg)
        for rec in records:
            assert rec.epoch == -(-rec.t // 4)

    @pytest.mark.parametrize("method", ["IQN", "SIQN", "SLIQN", "GSLIQN"])
    def test_stale_gradient_raises_degenerate_direction_at_its_step(self, method,
                                                                    monkeypatch):
        # At t = 7 the touched component returns its previous gradient, so
        # y = 0 along a nonzero step and the classic stage has no curvature.
        quad = small_quadratic(n=6, d=8)
        real = QuadraticObjective.gradient
        last, calls = {}, itertools.count(1)

        def gradient(self, i, x):
            if next(calls) != 7:
                last[i] = real(self, i, x)
            return last[i]
        monkeypatch.setattr(QuadraticObjective, "gradient", gradient)
        cfg = SolverConfig(method=method, gstop=1e-300, max_epochs=3)
        with pytest.raises(DegenerateDirection, match="^step t=7 failed"):
            run(quad, initial_point(quad.d, 1.0, 0), cfg)

    def test_step_errors_carry_iteration_number(self):
        quad = small_quadratic()
        solver_cfg = SolverConfig(method="SLIQN", gstop=1e-300, max_epochs=1)
        solver = make_solver(quad, initial_point(quad.d, 1.0, 0), solver_cfg)
        solver.step()
        solver.scale_epoch[1] = 7
        with pytest.raises(LazyInconsistency, match="tuple 1"):
            solver.step()
