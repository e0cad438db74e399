"""Tests of the verification layer itself: finite differences, aggregate
recomputation, and the eager reference."""

import json

import numpy as np
import pytest

from iqnlab import matkernel as mk
from iqnlab.cli import main as cli_main
from iqnlab.data import GeneratorSpec, generate_quadratic, initial_point
from iqnlab.errors import SingularAggregate
from iqnlab.objectives import QuadraticComponents, QuadraticObjective
from iqnlab.oracle import (
    AuditReport,
    EagerReference,
    direct_sums_audit,
    drift_audit,
    finite_diff_gradient,
    finite_diff_hessian,
    full_matrix,
    lazy_eager_audit,
    memoization_audit,
    recompute_aggregates,
    run_check_suite,
    _synthetic_logistic,
)
from iqnlab import solvers
from iqnlab.solvers import SolverConfig, make_solver


def small_quadratic(n=5, d=6, seed=3):
    return QuadraticObjective(generate_quadratic(
        GeneratorSpec(n=n, d=d, xi=1.0, b_max=10.0, seed=seed)))


class TestFiniteDifferences:
    def test_quadratic_gradient_exact_up_to_rounding(self, rng):
        quad = small_quadratic()
        x = rng.standard_normal(quad.d)
        fd = finite_diff_gradient(quad, 2, x)
        an = quad.gradient(2, x)
        assert np.linalg.norm(fd - an) <= 1e-6 * (1.0 + np.linalg.norm(an))

    def test_logistic_gradient_within_tolerance(self, rng):
        logi = _synthetic_logistic(rng, 6, 5)
        x = rng.standard_normal(5)
        fd = finite_diff_gradient(logi, 1, x)
        an = logi.gradient(1, x)
        assert np.linalg.norm(fd - an) <= 1e-5 * max(np.linalg.norm(fd), 1.0)

    def test_gradient_jacobian_nearly_symmetric(self, rng):
        # raw differenced-gradient Jacobian before symmetrization
        logi = _synthetic_logistic(rng, 6, 5)
        x = rng.standard_normal(5)
        h = 1e-6 * (1.0 + np.linalg.norm(x))
        cols = np.zeros((5, 5))
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            cols[:, j] = (logi.gradient(1, x + e) - logi.gradient(1, x - e)) / (2 * h)
        assert np.max(np.abs(cols - cols.T)) <= 1e-6

    def test_finite_diff_hessian_is_symmetric_and_accurate(self, rng):
        logi = _synthetic_logistic(rng, 6, 5)
        x = rng.standard_normal(5)
        fd = finite_diff_hessian(logi, 1, x)
        np.testing.assert_array_equal(fd, fd.T)
        an = logi.hessian(1, x)
        assert np.linalg.norm(fd - an) <= 1e-4 * max(np.linalg.norm(an), 1.0)


class TestRecomputeAggregates:
    def test_matches_after_random_steps(self, rng):
        quad = small_quadratic()
        solver = make_solver(quad, initial_point(quad.d, 1.0, 1),
                             SolverConfig(method="SLIQN", gstop=1e-300))
        for _ in range(2 * quad.n + 3):
            solver.step()
        h, phi, g = recompute_aggregates(solver)
        assert np.linalg.norm(solver.phi - phi) <= 1e-9 * max(np.linalg.norm(phi), 1.0)
        assert np.linalg.norm(solver.g - g) <= 1e-9 * max(np.linalg.norm(g), 1.0)
        assert np.linalg.norm(full_matrix(solver.H) - h) <= 1e-9 * np.linalg.norm(h)

    def test_single_component_inverse(self):
        a = np.array([[2.0, 4.0]])
        quad = QuadraticObjective(QuadraticComponents(a_diag=a, b=np.zeros((1, 2))))
        solver = make_solver(quad, np.array([1.0, -1.0]),
                             SolverConfig(method="SLIQN", init_curvature="exact-hessian"))
        h, _, _ = recompute_aggregates(solver)
        np.testing.assert_allclose(h, np.diag(1.0 / a[0]), atol=1e-14)


class TestEagerReference:
    def test_matches_lazy_on_zero_alpha_quadratic(self):
        quad = small_quadratic()
        x0 = initial_point(quad.d, 1.0, 5)
        cfg = SolverConfig(method="SLIQN", gstop=1e-300)
        lazy = make_solver(quad, x0, cfg)
        eager = EagerReference(quad, x0, cfg)
        for _ in range(2 * quad.n):
            x_lazy = lazy.step().x
            x_eager = eager.step()
            assert np.linalg.norm(x_lazy - x_eager) <= 1e-12 * (1 + np.linalg.norm(x_eager))

    def test_matches_lazy_with_geometric_alpha_over_three_epochs(self):
        quad = small_quadratic()
        cfg = SolverConfig(method="SLIQN", alpha0=0.1, gstop=1e-300)
        report = lazy_eager_audit(quad, initial_point(quad.d, 1.0, 5), cfg,
                                  steps=3 * quad.n)
        assert report.passed, report.line()

    # The check suite's problems. IQN runs the classic stage alone, SIQN
    # scales by beta (nonzero on the logistic) and the exact-Hessian start
    # skips the L I one; each against the reference's own branch.
    @pytest.mark.parametrize("problem", ["quadratic", "logistic"])
    @pytest.mark.parametrize("method, init", [("IQN", "scaled-identity"),
                                              ("SIQN", "scaled-identity"),
                                              ("SLIQN", "exact-hessian")])
    def test_matches_each_method_over_three_passes(self, problem, method, init):
        seed = 20240111
        if problem == "quadratic":
            obj = QuadraticObjective(generate_quadratic(
                GeneratorSpec(n=10, d=8, xi=1.0, b_max=10.0, seed=seed)))
            x0 = initial_point(obj.d, 1.0, seed)
        else:
            obj = _synthetic_logistic(np.random.default_rng(seed), n=10, d=20)
            x0 = initial_point(obj.d, 0.5, seed)
        cfg = SolverConfig(method=method, init_curvature=init, gstop=1e-300)
        report = lazy_eager_audit(obj, x0, cfg, steps=3 * obj.n)
        assert report.passed, report.line()

    def test_single_component_reduces_to_sharpened_bfgs(self):
        # n = 1: the incremental scheme collapses to the full two-stage
        # (classic + greedy) iteration on the one component.
        a = np.array([[3.0, 0.5, 1.5]])
        b = np.array([[1.0, -2.0, 0.5]])
        quad = QuadraticObjective(QuadraticComponents(a_diag=a, b=b))
        x0 = np.array([1.0, -1.0, 0.5])
        eager = EagerReference(quad, x0, SolverConfig(method="SLIQN", gstop=1e-300))

        a_mat = np.diag(a[0])
        big_l = quad.constants.L
        d_mat = big_l * np.eye(3)
        z = x0.copy()
        grad = a[0] * z + b[0]
        for _ in range(6):
            x = np.linalg.solve(d_mat, d_mat @ z - grad)
            s = x - z
            grad_new = a[0] * x + b[0]
            if np.linalg.norm(s) > 1e-13 * (1 + np.linalg.norm(z)):
                y = grad_new - grad
                bu = d_mat @ s
                d_mat = (d_mat - np.outer(bu, bu) / (s @ bu)
                         + np.outer(y, y) / (s @ y))
            idx = int(np.argmax(np.diagonal(d_mat) / a[0]))
            e_k = np.zeros(3)
            e_k[idx] = 1.0
            du = d_mat @ e_k
            au = a_mat @ e_k
            d_mat = (d_mat - np.outer(du, du) / d_mat[idx, idx]
                     + np.outer(au, au) / a_mat[idx, idx])
            z, grad = x, grad_new
            np.testing.assert_allclose(eager.step(), x,
                                       atol=1e-12 * (1 + np.linalg.norm(x)))


class TestAuditReport:
    def test_pass_fail_consistency(self):
        assert AuditReport.from_deviation("a", 1e-10, 1e-9).passed
        assert not AuditReport.from_deviation("a", 1e-8, 1e-9).passed
        line = AuditReport.from_deviation("name", 0.5, 1.0, context="ctx").line()
        assert "PASS" in line and "name" in line and "ctx" in line


def test_memoization_audit_inverts_nothing(monkeypatch):
    # The audit checks H against the directly summed curvature; it never
    # inverts that sum, nor an inverse back.
    calls = []
    inv = np.linalg.inv

    def counted(a):
        calls.append(a.shape)
        return inv(a)
    monkeypatch.setattr(np.linalg, "inv", counted)
    quad = small_quadratic()
    report = memoization_audit(quad, initial_point(quad.d, 1.0, 1),
                               SolverConfig(method="SLIQN", gstop=1e-300), steps=quad.n)
    assert report.passed, report.line()
    assert calls == []


def test_drift_audit_uses_the_solver_default_period():
    quad = small_quadratic()
    report = drift_audit(quad, initial_point(quad.d, 1.0, 0),
                         SolverConfig(method="IQN", gstop=1e-300, refresh_period=0),
                         steps=2 * 10 * quad.n)
    assert report.context.endswith(f"refresh every {10 * quad.n}")
    assert report.passed, report.line()


def test_direct_sums_audit_fails_without_a_rebuild(monkeypatch):
    # The audit pushes the sums off just before the first rebuild, which
    # must bring them back: a direct solver that only builds its sums at
    # init fails it.
    rebuild = solvers.DirectSolver._rebuild

    def at_init_only(self):
        if self._hsum is None:
            rebuild(self)
    quad = small_quadratic()
    for method in ("SIQN", "IGS", "NIM"):
        config = SolverConfig(method=method, gstop=1e-300, refresh_period=2 * quad.n)
        report = direct_sums_audit(quad, initial_point(quad.d, 1.0, 0), config,
                                   steps=3 * quad.n)
        assert report.passed, report.line()
        with monkeypatch.context() as patch:
            patch.setattr(solvers.DirectSolver, "_rebuild", at_init_only)
            report = direct_sums_audit(quad, initial_point(quad.d, 1.0, 0), config,
                                       steps=3 * quad.n)
        assert report.max_deviation > 1e-7, report.line()


def test_check_suite_passes_everywhere():
    reports = run_check_suite()
    failing = [r.line() for r in reports if not r.passed]
    assert not failing, "\n".join(failing)


def test_check_keeps_every_line_when_an_audit_raises(monkeypatch, capsys):
    # Every direct solve fails, so each direct_sums audit raises at its
    # first step: those lines FAIL with the error, the others still run.
    def singular(m, b):
        raise SingularAggregate("aggregate solve failed: forced")
    monkeypatch.setattr(mk, "cholesky_solve", singular)
    assert cli_main(["check"]) == 1
    *lines, summary = capsys.readouterr().out.splitlines()
    assert len(lines) == 14
    failed = [line for line in lines if line.startswith("[FAIL]")]
    assert failed == [line for line in lines if "direct_sums_exactness" in line]
    assert len(failed) == 3
    assert all(line.endswith("raised SingularAggregate: aggregate solve failed: forced")
               for line in failed)
    assert sum(line.startswith("[PASS]") for line in lines) == 11
    assert json.loads(summary) == {"passed": 11, "failed": 3, "total": 14}
