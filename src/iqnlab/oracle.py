"""Independent verification layer.

Everything here recomputes from definitions: aggregates are rebuilt from the
tuples, curvature updates are evaluated as full-matrix textbook formulas with
the explicit Hessian, and derivatives are checked by central differences.
None of it shares code with the optimized solver steps, so agreement between
the two is evidence rather than tautology. Audits run on demand (the `check`
CLI subcommand and the test suite), never inside solver loops.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse

from .errors import IqnLabError
from .solvers import SolverConfig, make_solver
from .objectives import LogisticObjective, QuadraticObjective


@dataclass
class AuditReport:
    """Outcome of one audit: passed iff max_deviation <= tolerance."""

    name: str
    max_deviation: float
    tolerance: float
    passed: bool
    context: str = ""

    @classmethod
    def from_deviation(cls, name, max_deviation, tolerance, context=""):
        return cls(name=name, max_deviation=float(max_deviation),
                   tolerance=float(tolerance),
                   passed=bool(max_deviation <= tolerance), context=context)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: max deviation {self.max_deviation:.3e} "
                f"(tolerance {self.tolerance:.1e}) {self.context}")


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def _difference_step(x):
    """The central-difference step at x."""
    return 1e-6 * (1.0 + float(np.linalg.norm(x)))


def finite_diff_gradient(objective, i, x):
    """Central-difference gradient of component i at x."""
    x = np.asarray(x, dtype=np.float64)
    h = _difference_step(x)
    grad = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        grad[j] = (objective.value(i, x + e) - objective.value(i, x - e)) / (2.0 * h)
    return grad


def finite_diff_hessian(objective, i, x):
    """Central differences of the analytic gradient, symmetrized."""
    x = np.asarray(x, dtype=np.float64)
    h = _difference_step(x)
    cols = np.zeros((x.size, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        cols[:, j] = (objective.gradient(i, x + e) - objective.gradient(i, x - e)) / (2.0 * h)
    return 0.5 * (cols + cols.T)


# ---------------------------------------------------------------------------
# aggregate recomputation
# ---------------------------------------------------------------------------

def full_matrix(m):
    """The symmetric matrix stored as m's lower triangle, as by the solvers."""
    return np.tril(m) + np.tril(m, -1).T


def direct_sums(solver):
    """(sum D_i, sum D_i z_i, sum grad_i) summed directly from the solver's
    tuples, the first in full.

    Uses the eager (fully scaled) curvature of every tuple, so it is valid
    for the lazy solver as well.
    """
    d = solver.d
    dbar = np.zeros((d, d))
    phi = np.zeros(d)
    for i in range(solver.n):
        d_i = full_matrix(solver.eager_curvature(i))
        dbar += d_i
        phi += d_i @ solver.z[i]
    return dbar, phi, solver.grads.sum(axis=0)


def inverse_residual(solver):
    """|| H (sum D_i) - I ||_F for a memoized solver's H, with the sum from
    :func:`direct_sums`: how far H has drifted from the inverse, measured
    with no inversion."""
    return float(np.linalg.norm(full_matrix(solver.H) @ direct_sums(solver)[0] - np.eye(solver.d)))


# ---------------------------------------------------------------------------
# eager reference solver
# ---------------------------------------------------------------------------

def _broyden_explicit(tau, b, ku, uku, u):
    """Textbook Broyden(tau) update of b along u, tau * DFP + (1 - tau) * BFGS,
    with the target K known through ku = K u and uku = <u, K u>."""
    bu = b @ u
    ubu = u @ bu
    bfgs = b - np.outer(bu, bu) / ubu + np.outer(ku, ku) / uku
    if tau == 0.0:
        return bfgs
    dfp = (b - (np.outer(ku, bu) + np.outer(bu, ku)) / uku
           + (1.0 + ubu / uku) * np.outer(ku, ku) / uku)
    if tau == 1.0:
        return dfp
    return tau * dfp + (1.0 - tau) * bfgs


class EagerReference:
    """Literal full-matrix execution of the two-stage incremental updates.

    Every iterate comes from a fresh dense solve of the aggregated system;
    the per-epoch scaling is applied explicitly to every stored matrix at
    epoch ends (the O(n d^2) path the lazy scheme replaces); the greedy
    stage uses the fully materialized component Hessian.

    Methods: SLIQN (alpha schedule), GSLIQN (alpha + restricted Broyden),
    SIQN (per-step beta, no scaling), IQN (classic stage only).
    """

    def __init__(self, objective, x0, config: SolverConfig):
        self.objective = objective
        self.config = config
        self.method = config.method
        self.n, self.d = objective.n, objective.d
        self.t = 0
        x0 = np.asarray(x0, dtype=np.float64)
        self.x = x0.copy()
        self.z = np.tile(x0, (self.n, 1))
        self.grads = np.stack([objective.gradient(i, x0) for i in range(self.n)])
        if config.init_curvature == "exact-hessian":
            base = np.stack([objective.hessian(i, x0) for i in range(self.n)])
        else:
            base = np.stack([objective.constants.L * np.eye(self.d)] * self.n)
        if self.method in ("SLIQN", "GSLIQN"):
            base = (1.0 + self.alpha(0)) ** 2 * base
        self.D = base

    def alpha(self, k):
        """alpha_k = alpha0 * 0.5^k, stated here from config.alpha0."""
        return self.config.alpha0 * 0.5 ** k

    def step(self):
        t = self.t + 1
        n = self.n
        i = (t - 1) % n
        epoch = (t + n - 1) // n

        dbar = self.D.sum(axis=0)
        rhs = np.einsum("nij,nj->i", self.D, self.z) - self.grads.sum(axis=0)
        x = np.linalg.solve(dbar, rhs)

        z_old = self.z[i].copy()
        s = x - z_old
        grad_new = self.objective.gradient(i, x)
        y_raw = grad_new - self.grads[i]

        tau1 = self.config.tau1 if self.method == "GSLIQN" else 0.0
        tau2 = self.config.tau2 if self.method == "GSLIQN" else 0.0

        # SLIQN-family matrices already carry the epoch factor through the
        # omega scaling, so only the reference matrix K is inflated here;
        # SIQN inflates the stored matrix by (1 + beta)^2 at touch time.
        pre_scale = 1.0
        if self.method in ("SLIQN", "GSLIQN"):
            k_scale = 1.0 + self.alpha(epoch - 1)
        elif self.method == "SIQN":
            m_const = self.objective.constants.M
            if m_const == 0.0:
                k_scale = 1.0
            else:
                h_old = self.objective.hessian(i, z_old)
                k_scale = 1.0 + 0.5 * m_const * np.sqrt(max(float(s @ h_old @ s), 0.0))
            pre_scale = k_scale ** 2
        else:
            k_scale = 1.0

        tiny = np.linalg.norm(s) <= 1e-13 * (1.0 + np.linalg.norm(z_old))
        if tiny:
            q = self.D[i].copy()
        else:
            y = k_scale * y_raw
            sy = k_scale * float(s @ y_raw)
            q = _broyden_explicit(tau1, pre_scale * self.D[i], y, sy, s)

        if self.method == "IQN":
            d_new = q
        else:
            hess = self.objective.hessian(i, x)
            ratios = np.diagonal(q) / np.diagonal(hess)
            e_k = np.zeros(self.d)
            e_k[int(np.argmax(ratios))] = 1.0
            hess_e = hess @ e_k
            d_new = _broyden_explicit(tau2, q, hess_e, e_k @ hess_e, e_k)

        # omega: the epoch-end factor (1 + alpha_{t/n})^2 of the SLIQN family.
        w = 1.0
        if self.method in ("SLIQN", "GSLIQN") and t % n == 0:
            w = (1.0 + self.alpha(t // n)) ** 2
        self.D[i] = w * d_new
        if w != 1.0:
            for j in range(n):
                if j != i:
                    self.D[j] *= w
        self.z[i] = x
        self.grads[i] = grad_new
        self.x = x
        self.t = t
        return x


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def _audit(name):
    """Turn a measure that returns (max deviation, tolerance, context) into
    an audit that returns its AuditReport. An IqnLabError the measure
    raises becomes a FAIL report that names it, with nothing measured (NaN
    deviation and tolerance), so one raising audit costs the suite no
    other line."""
    def decorate(measure):
        @functools.wraps(measure)
        def audit(*args, **kwargs):
            try:
                return AuditReport.from_deviation(name, *measure(*args, **kwargs))
            except IqnLabError as exc:
                return AuditReport.from_deviation(
                    name, np.nan, np.nan, f"raised {type(exc).__name__}: {exc}")
        return audit
    return decorate


@_audit("lazy_vs_eager")
def lazy_eager_audit(objective, x0, config, steps):
    """Max relative iterate deviation between the lazy solver and the eager
    reference over the given number of steps."""
    lazy = make_solver(objective, x0, config)
    eager = EagerReference(objective, x0, config)
    worst = 0.0
    for _ in range(steps):
        x_lazy = lazy.step().x
        x_eager = eager.step()
        scale = max(float(np.linalg.norm(x_eager)), 1e-30)
        worst = max(worst, float(np.linalg.norm(x_lazy - x_eager)) / scale)
    return worst, 1e-8, f"{config.method}, {steps} steps, n={objective.n}, d={objective.d}"


@_audit("memoization_exactness")
def memoization_audit(objective, x0, config, steps):
    """After every step, memoized phi and g must match the direct sums
    (relative error), and H must invert the directly summed curvature
    (:func:`inverse_residual`)."""
    solver = make_solver(objective, x0, config)
    worst = 0.0
    for _ in range(steps):
        solver.step()
        _, phi_direct, g_direct = direct_sums(solver)
        phi_err = (np.linalg.norm(solver.phi - phi_direct)
                   / max(np.linalg.norm(phi_direct), 1.0))
        g_err = (np.linalg.norm(solver.g - g_direct)
                 / max(np.linalg.norm(g_direct), 1.0))
        worst = max(worst, float(phi_err), float(g_err), inverse_residual(solver))
    return worst, 1e-9, f"{config.method}, {steps} steps"


# How far the direct_sums audit pushes the sums just before a rebuild
# (relative): the order of the drift rounding leaves after a beta peak.
SEEDED_DRIFT = 1e-6


@_audit("direct_sums_exactness")
def direct_sums_audit(objective, x0, config, steps):
    """After every step, a direct solver's incremental sum of D_i and its
    phi - g must match :func:`direct_sums` (relative errors, on the lower
    triangles). Over a few passes rounding alone drifts them by ~1e-16, so
    just before the first rebuild both are pushed SEEDED_DRIFT off: the
    audit then also fails when the rebuild does not rebuild them."""
    solver = make_solver(objective, x0, config)
    worst = 0.0
    for step_no in range(1, steps + 1):
        solver.step()
        dbar, phi, g = direct_sums(solver)
        dbar, rhs = np.tril(dbar), phi - g
        hsum_err = np.linalg.norm(np.tril(solver._hsum) - dbar) / np.linalg.norm(dbar)
        rhs_err = (np.linalg.norm(solver.phi - solver.g - rhs)
                   / max(np.linalg.norm(rhs), 1.0))
        worst = max(worst, float(hsum_err), float(rhs_err))
        if step_no == solver.refresh_period - 1:
            solver._hsum *= 1.0 + SEEDED_DRIFT
            solver.phi *= 1.0 + SEEDED_DRIFT
    return (worst, 1e-9,
            f"{config.method}, {steps} steps, rebuild every {solver.refresh_period}")


@_audit("memoized_inverse_drift")
def drift_audit(objective, x0, config, steps):
    """:func:`inverse_residual` measured at every refresh boundary, before
    the refresh overwrites the memoized inverse."""
    solver = make_solver(objective, x0, config)
    # Disable the automatic refresh so the drift can be observed first, then
    # refresh manually at exactly the solver's boundaries.
    period, solver.refresh_period = solver.refresh_period, steps + 1
    worst = 0.0
    for step_no in range(1, steps + 1):
        solver.step()
        if step_no % period == 0:
            worst = max(worst, inverse_residual(solver))
            solver._rebuild()
    return worst, 1e-6, f"{config.method}, {steps} steps, refresh every {period}"


@_audit("sigma_greedy_contraction")
def sigma_decay_audit(objective, x0, config, steps):
    """On quadratics every greedy update must contract the approximation
    error: sigma(D_new, A_i) <= (1 - mu/(dL)) sigma(Q, A_i) + tol."""
    from . import matkernel as mk

    if not isinstance(objective, QuadraticObjective):
        raise ValueError("sigma decay is certified on the quadratic family only")
    consts = objective.constants
    rate = 1.0 - consts.mu / (objective.d * consts.L)
    solver = make_solver(objective, x0, replace(config, track_sigma=True))  # keeps Q
    worst = 0.0
    checked = 0
    for _ in range(steps):
        res = solver.step()
        if res.q is None or res.d_unscaled is None:
            continue
        hess = objective.hessian(res.index, res.x)
        before = mk.sigma_metric(hess, res.q)
        after = mk.sigma_metric(hess, res.d_unscaled)
        if before > 1e-12:
            worst = max(worst, after - rate * before)
            checked += 1
    return worst, 1e-9, f"{config.method}, {checked} greedy updates, rate {rate:.6f}"


@_audit("psd_dominance")
def psd_dominance_audit(objective, x0, config, steps):
    """On quadratics, Q and the omega-free updated curvature must stay PSD
    above the component Hessian at every step."""
    if not isinstance(objective, QuadraticObjective):
        raise ValueError("PSD dominance is certified on the quadratic family only")
    solver = make_solver(objective, x0, replace(config, track_sigma=True))  # keeps Q
    worst = 0.0
    for _ in range(steps):
        res = solver.step()
        hess = objective.hessian(res.index, res.x)
        for mat in (res.q, res.d_unscaled):
            if mat is None:
                continue
            min_eig = float(np.linalg.eigvalsh(full_matrix(mat) - hess)[0])
            worst = max(worst, -min_eig)
    return worst, 1e-8, f"{config.method}, {steps} steps"


def _random_points(objective, rng):
    """The 20 (component, point) pairs a derivative audit checks."""
    for _ in range(20):
        i = int(rng.integers(objective.n))
        yield i, rng.uniform(0.5, 1.5) * rng.standard_normal(objective.d)


@_audit("gradient_vs_finite_differences")
def gradient_audit(objective, rng):
    """Component gradients against central differences (relative error)."""
    worst = 0.0
    for i, x in _random_points(objective, rng):
        fd = finite_diff_gradient(objective, i, x)
        an = objective.gradient(i, x)
        worst = max(worst, float(np.linalg.norm(an - fd) / max(np.linalg.norm(fd), 1.0)))
    return worst, 1e-5, "20 random points"


@_audit("hessian_vs_differenced_gradient")
def hessian_audit(objective, rng):
    """Component Hessians against differenced gradients, plus exactness of
    the diagonal and column slices."""
    worst = 0.0
    for i, x in _random_points(objective, rng):
        full = objective.hessian(i, x)
        fd = finite_diff_hessian(objective, i, x)
        worst = max(worst, float(np.linalg.norm(full - fd) / max(np.linalg.norm(fd), 1.0)))
        j = int(rng.integers(objective.d))
        col_err = np.max(np.abs(objective.hessian_column(i, x, j) - full[:, j]))
        diag_err = np.max(np.abs(objective.hessian_diag(i, x) - np.diagonal(full)))
        worst = max(worst, float(col_err), float(diag_err))
    return worst, 1e-4, "20 random points"


# ---------------------------------------------------------------------------
# check suite
# ---------------------------------------------------------------------------

def _synthetic_logistic(rng, n, d):
    """Well-scaled random logistic instance for self-contained audits."""
    weights = rng.standard_normal(d)
    dense = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.4)
    margins = dense @ weights
    labels = (margins + 0.5 * rng.standard_normal(n) > 0.0).astype(float)
    features = scipy.sparse.csr_matrix(dense)
    return LogisticObjective(features, labels, lam=1.0 / n, p=2.1, radius=10.0)


def run_check_suite(seed=20240111):
    """Execute the oracle audits on small seeded problems."""
    from .data import GeneratorSpec, generate_quadratic, initial_point

    rng = np.random.default_rng(seed)
    reports = []

    quad = QuadraticObjective(generate_quadratic(
        GeneratorSpec(n=10, d=8, xi=1.0, b_max=10.0, seed=seed)))
    logi = _synthetic_logistic(rng, n=10, d=20)
    x0_quad = initial_point(quad.d, 1.0, seed)
    x0_logi = initial_point(logi.d, 0.5, seed)

    reports.append(gradient_audit(quad, rng))
    reports.append(hessian_audit(quad, rng))
    reports.append(gradient_audit(logi, rng))
    reports.append(hessian_audit(logi, rng))

    # A nonzero alpha makes every lazy factor and secant scale (1 + alpha)
    # differ from 1; at the default alpha = 0 the lazy path is the eager one.
    lazy = SolverConfig(method="GSLIQN", tau1=0.3, tau2=0.7, alpha0=0.05, gstop=1e-300)
    reports.append(lazy_eager_audit(logi, x0_logi, lazy, steps=3 * logi.n))
    cfg = SolverConfig(method="SLIQN", gstop=1e-300, max_epochs=100)
    reports.append(memoization_audit(quad, x0_quad, cfg, steps=3 * quad.n))
    reports.append(memoization_audit(
        quad, x0_quad, SolverConfig(method="IQN", gstop=1e-300), steps=3 * quad.n))
    # Past the default 10 n rebuild, with both stages' four Broyden terms.
    reports.append(memoization_audit(
        quad, x0_quad, SolverConfig(method="GSLIQN", tau1=0.5, tau2=0.5, gstop=1e-300),
        steps=11 * quad.n))
    # The logistic beta swells D_i past phi's share, so these steps trade
    # the share for two products of D_i.
    for method in ("SIQN", "IGS", "NIM"):
        reports.append(direct_sums_audit(
            logi, x0_logi, SolverConfig(method=method, gstop=1e-300,
                                        refresh_period=2 * logi.n),
            steps=5 * logi.n))
    reports.append(drift_audit(
        quad, x0_quad,
        SolverConfig(method="SLIQN", gstop=1e-300, max_epochs=200, refresh_period=200),
        steps=1000))
    reports.append(sigma_decay_audit(quad, x0_quad, cfg, steps=5 * quad.n))
    reports.append(psd_dominance_audit(quad, x0_quad, cfg, steps=5 * quad.n))
    return reports
