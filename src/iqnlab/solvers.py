"""Incremental quasi-Newton solvers over finite-sum objectives.

All methods maintain one tuple (z_i, grad_i, D_i) per component and touch the
components in cyclic order. They differ in the curvature update applied to
the touched tuple and in how the aggregate solve

    x = (sum_i D_i)^{-1} (sum_i D_i z_i - sum_i grad_i)

is carried out:

IQN      classic update along the step direction; aggregates memoized, the
         summed inverse maintained by two rank-one inverse updates.
SIQN     classic + greedy two-stage update with the per-step correction
         beta = (M/2) * ||s||_{z_old}; aggregates recomputed directly every
         step (O(n d^2 + d^3) reference path).
SLIQN    two-stage update with the epoch-constant correction alpha_k in
         place of beta, per-epoch scaling omega applied lazily, and the
         summed inverse maintained by a fixed four-term rank-one chain.
GSLIQN   SLIQN with the two stages generalized to restricted Broyden
         operators (tau1 classic, tau2 greedy); tau1 = tau2 = 0 runs the
         identical code path as SLIQN.
IGS      greedy-only update (scale by (1+beta)^2, one greedy step against
         the current Hessian); aggregates recomputed directly.
NIM      exact component Hessians; direct solve.

Lazy scaling (SLIQN/GSLIQN): stored matrices omit multiplicative epoch
scalings. The stored value of a tuple written in epoch e equals its true
(eager) value divided by every boundary factor (1 + alpha_k)^2 with
e <= k <= floor(t/n). Under the cyclic schedule exactly one factor is
pending when a tuple is touched; memoized aggregates always hold eager
values.
"""

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg.lapack

from . import matkernel as mk
from .errors import IqnLabError, LazyInconsistency, SingularAggregate, SingularUpdate
from .objectives import FiniteSumObjective

METHODS = ("IQN", "SIQN", "SLIQN", "GSLIQN", "IGS", "NIM")

# Steps shorter than this (relative to the iterate scale) skip the classic
# curvature stage; the operators are undefined along a zero direction.
TINY_STEP = 1e-13

DIVERGENCE_GRAD_NORM = 1e12


def index_of(t: int, n: int) -> int:
    """Cyclic 1-based component index for iteration t >= 1: 1 + (t-1) mod n."""
    return 1 + (t - 1) % n


@dataclass(frozen=True)
class AlphaSchedule:
    """Epoch correction factors alpha_k.

    ``zero`` mode pins alpha_k = 0 (the default; the correction is not
    needed empirically). ``geometric`` mode yields
    alpha_k = m_sqrt_l * epsilon * rho^k, non-increasing in k.
    """

    mode: str = "zero"
    epsilon: float = 0.0
    rho: float = 0.5
    m_sqrt_l: float = 0.0

    def __post_init__(self):
        if self.mode not in ("zero", "geometric"):
            raise ValueError(f"unknown alpha schedule mode {self.mode!r}")
        if self.mode == "geometric":
            if not 0.0 < self.rho < 1.0:
                raise ValueError(f"geometric mode needs rho in (0, 1), got {self.rho}")
            if self.epsilon <= 0.0 or self.m_sqrt_l < 0.0:
                raise ValueError("geometric mode needs epsilon > 0 and m_sqrt_l >= 0")

    @classmethod
    def geometric(cls, constants, epsilon, rho):
        return cls(mode="geometric", epsilon=epsilon, rho=rho,
                   m_sqrt_l=constants.M * np.sqrt(constants.L))

    def value(self, k: int) -> float:
        if self.mode == "zero":
            return 0.0
        return self.m_sqrt_l * self.epsilon * self.rho ** k


def omega(t: int, n: int, alpha: AlphaSchedule) -> float:
    """Per-iteration aggregate scaling: (1 + alpha_{t/n})^2 at epoch ends
    (t mod n == 0), 1 otherwise."""
    if t % n != 0:
        return 1.0
    return (1.0 + alpha.value(t // n)) ** 2


@dataclass
class SolverConfig:
    """Knobs shared by every method; tau1/tau2 are read by GSLIQN only."""

    method: str = "SLIQN"
    tau1: float = 0.0
    tau2: float = 0.0
    alpha: AlphaSchedule = field(default_factory=AlphaSchedule)
    gstop: float = 1e-10
    max_epochs: int = 50
    refresh_period: Optional[int] = None  # defaults to 10 n at solver init
    seed: int = 0
    init_curvature: str = "scaled-identity"  # or "exact-hessian"
    track_sigma: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not 0.0 <= self.tau1 <= 1.0 or not 0.0 <= self.tau2 <= 1.0:
            raise ValueError("tau1 and tau2 must lie in [0, 1]")
        if not self.gstop > 0.0:
            raise ValueError("gstop must be positive")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if self.refresh_period is not None and self.refresh_period < 1:
            raise ValueError("refresh_period must be at least 1")
        if self.init_curvature not in ("scaled-identity", "exact-hessian"):
            raise ValueError(f"unknown init_curvature {self.init_curvature!r}")


@dataclass
class TraceRecord:
    """Per-iteration diagnostics recorded by :func:`run`.

    wall_ms times the solver step alone; the stopping-rule gradient
    evaluation and optional sigma diagnostics are bookkeeping outside it.
    """

    t: int
    epoch: int
    grad_norm: float
    normalized_error: Optional[float]
    sigma_max: Optional[float]
    wall_ms: float


@dataclass
class StepResult:
    """What one solver step exposes for diagnostics and audits."""

    t: int
    index: int  # 1-based component index that was touched
    x: np.ndarray
    omega: float = 1.0
    q: Optional[np.ndarray] = None           # post-classic-stage matrix
    # New curvature before omega. Memoized and greedy solvers update the
    # stored D[i] in place and return it here: read it before the tuple is
    # touched again, or copy it.
    d_unscaled: Optional[np.ndarray] = None
    classic_skipped: bool = False


def _tiny_step(s, z_old):
    return np.linalg.norm(s) <= TINY_STEP * (1.0 + np.linalg.norm(z_old))


def _summed_inverse(dbar):
    """Symmetrized inverse of the summed curvature; the one place the
    memoized solvers factorize it."""
    try:
        h = np.linalg.inv(dbar)
    except np.linalg.LinAlgError as exc:
        raise SingularAggregate(f"summed curvature is singular: {exc}") from exc
    return mk.symmetrize(h)


def _apply_chain(h, chain):
    """Apply the rank-one inverse updates of ``chain`` to ``h`` in place, in
    order. False when an intermediate is singular: ``h`` is then partly
    updated and must be rebuilt."""
    try:
        for u, v in chain:
            mk.sm_inverse_update(h, u, v, out=h)
    except SingularUpdate:
        return False
    return True


class BaseSolver:
    """Shared tuple state: iterates z (n, d), gradients (n, d), curvature
    D (n, d, d), and the iteration counter t (completed iterations)."""

    method = "?"

    def __init__(self, objective: FiniteSumObjective, x0, config: SolverConfig):
        self.objective = objective
        self.config = config
        self.n = objective.n
        self.d = objective.d
        self.t = 0
        x0 = np.ascontiguousarray(x0, dtype=np.float64)
        if x0.shape != (self.d,):
            raise ValueError(f"x0 must have shape ({self.d},)")
        self.x = x0.copy()
        self.z = np.tile(x0, (self.n, 1))
        self.grads = np.ascontiguousarray(objective.gradients_at(x0))
        self.D = self._initial_curvature(x0)

    def _initial_curvature(self, x0):
        if self.config.init_curvature == "exact-hessian":
            return np.stack([self.objective.hessian(i, x0) for i in range(self.n)])
        big_l = self.objective.constants.L
        stack = np.zeros((self.n, self.d, self.d))
        stack[:, np.arange(self.d), np.arange(self.d)] = big_l
        return stack

    @property
    def epoch(self) -> int:
        return (self.t + self.n - 1) // self.n

    def _next_index(self):
        """(t, 0-based component index) for the step about to execute."""
        t = self.t + 1
        return t, (t - 1) % self.n

    def eager_curvature(self, i: int) -> np.ndarray:
        """True curvature matrix of tuple i at the current time (identity for
        the non-lazy methods; overridden by the lazy solver)."""
        return self.D[i]

    def step(self) -> StepResult:
        raise NotImplementedError


class MemoizedSolver(BaseSolver):
    """Adds the memoized aggregates H = (sum D_i)^{-1}, phi = sum D_i z_i,
    g = sum grad_i, plus the periodic eager refresh that bounds drift."""

    def __init__(self, objective, x0, config):
        super().__init__(objective, x0, config)
        self.refresh_period = config.refresh_period or 10 * self.n
        self._materialize_aggregates()

    def _materialize_aggregates(self):
        dbar = np.zeros((self.d, self.d))
        phi = np.zeros(self.d)
        for i in range(self.n):
            d_i = self.eager_curvature(i)
            dbar += d_i
            phi += d_i @ self.z[i]
        self.H = _summed_inverse(dbar)
        self.phi = phi
        self.g = self.grads.sum(axis=0)

    def _curvature_sum(self):
        dbar = np.zeros((self.d, self.d))
        for i in range(self.n):
            dbar += self.eager_curvature(i)
        return dbar

    def _maybe_refresh(self):
        if self.t % self.refresh_period == 0:
            self._materialize_aggregates()

    def aggregate_drift(self) -> float:
        """|| H (sum D_i) - I ||_F for the current memoized inverse."""
        return float(np.linalg.norm(self.H @ self._curvature_sum() - np.eye(self.d)))


def _classic_terms(tau, y, sy, bu, ubu):
    """Rank-one factors of the classic-stage correction, K-term first."""
    c_k = (1.0 - tau) + tau * (1.0 + ubu / sy)
    terms = [(c_k * y, y / sy), (-(1.0 - tau) * bu, bu / ubu)]
    if tau != 0.0:
        terms.append((-tau * y, bu / sy))
        terms.append((-tau * bu, y / sy))
    return terms


def _greedy_terms(tau, qcol, qkk, hcol, hkk):
    """Rank-one factors of the greedy-stage correction, B-term first."""
    c_k = (1.0 - tau) + tau * (1.0 + qkk / hkk)
    terms = [(-(1.0 - tau) * qcol, qcol / qkk), (c_k * hcol, hcol / hkk)]
    if tau != 0.0:
        terms.append((-tau * hcol, qcol / hkk))
        terms.append((-tau * qcol, hcol / hkk))
    return terms


class SharpenedLazySolver(MemoizedSolver):
    """SLIQN / G-SLIQN: two-stage updates with lazy epoch scaling and the
    rank-one inverse chain.

    The inverse chain applies, in this pinned order: the scaled gradient
    difference term, the negative B s term, the negative Q column term, the
    Hessian column term, then the 1/omega scaling. Reordering changes
    rounding; the lazy/eager equivalence tests pin this order.
    """

    method = "SLIQN"

    def __init__(self, objective, x0, config):
        self.tau1 = config.tau1 if config.method == "GSLIQN" else 0.0
        self.tau2 = config.tau2 if config.method == "GSLIQN" else 0.0
        self.alpha = config.alpha
        self.scale_epoch = None  # set before aggregates materialize
        super().__init__(objective, x0, config)

    def _initial_curvature(self, x0):
        # Stored matrices are the unscaled I_i^0; the (1 + alpha_0)^2 factor
        # is pending from epoch 0.
        self.scale_epoch = np.zeros(self.n, dtype=np.int64)
        return super()._initial_curvature(x0)

    def _pending_factor(self, i):
        """Product of epoch-boundary scalings not yet folded into D[i]."""
        factor = 1.0
        for k in range(int(self.scale_epoch[i]), self.t // self.n + 1):
            a = self.alpha.value(k)
            if a != 0.0:
                factor *= (1.0 + a) ** 2
        return factor

    def eager_curvature(self, i):
        factor = self._pending_factor(i)
        return self.D[i] if factor == 1.0 else factor * self.D[i]

    def step(self) -> StepResult:
        t, i = self._next_index()
        n = self.n
        current_epoch = (t + n - 1) // n

        x = self.H @ (self.phi - self.g)
        z_old = self.z[i]
        grad_old = self.grads[i]
        s = x - z_old

        if self.scale_epoch[i] != current_epoch - 1:
            raise LazyInconsistency(
                f"tuple {i} stored in epoch {self.scale_epoch[i]}, touched in "
                f"epoch {current_epoch}; pending scaling spans more than one epoch")
        a_prev = self.alpha.value(current_epoch - 1)
        pend = (1.0 + a_prev) ** 2
        d_i = self.D[i]
        # q starts as the eager old curvature and becomes the post-classic
        # matrix; it is the one fresh d x d array per step (audits keep it).
        q = d_i.copy() if pend == 1.0 else pend * d_i
        dz_old = q @ z_old

        grad_new = self.objective.gradient(i, x)
        y_raw = grad_new - grad_old
        w = omega(t, n, self.alpha)

        chain = []
        skipped = _tiny_step(s, z_old)
        if not skipped:
            y = y_raw if a_prev == 0.0 else (1.0 + a_prev) * y_raw
            sy = float(s @ y)
            bu = q @ s
            ubu = float(s @ bu)
            mk.broyden_update(self.tau1, q, y, sy, s, out=q)
            chain.extend(_classic_terms(self.tau1, y, sy, bu, ubu))

        h_diag = self.objective.hessian_diag(i, x)
        k_idx = mk.greedy_vector(np.diagonal(q), h_diag)
        h_col = self.objective.hessian_column(i, x, k_idx)
        h_kk = float(h_diag[k_idx])
        e_k = np.zeros(self.d)
        e_k[k_idx] = 1.0
        mk.broyden_update(self.tau2, q, h_col, h_kk, e_k, out=d_i)
        q_col = q[:, k_idx].copy()
        q_kk = float(q[k_idx, k_idx])
        chain.extend(_greedy_terms(self.tau2, q_col, q_kk, h_col, h_kk))

        # The chain can pass through an exactly singular intermediate even
        # though the final sum stays invertible (n = 1 always does). Fall
        # back to direct materialization in that case.
        chained = _apply_chain(self.H, chain)

        self.phi = w * (self.phi - dz_old + d_i @ x)
        self.g = self.g + y_raw

        self.scale_epoch[i] = current_epoch
        self.z[i] = x
        self.grads[i] = grad_new
        self.x = x
        self.t = t
        if not chained:
            self.H = _summed_inverse(self._curvature_sum())
        else:
            if self.tau1 != 0.0 or self.tau2 != 0.0:
                # The cross terms of tau != 0 leave H asymmetric in its last
                # bits; unremoved, that part grows from step to step until H
                # diverges (n = 10, d = 40, no refresh: drift 1e13 by step
                # 1000). The tau = 0 chain is exactly symmetric throughout.
                mk.symmetrize(self.H, out=self.H)
            if w != 1.0:
                self.H /= w
        self._maybe_refresh()
        return StepResult(t=t, index=i + 1, x=x, omega=w, q=q,
                          d_unscaled=d_i, classic_skipped=skipped)


class IqnSolver(MemoizedSolver):
    """Classic-only incremental BFGS with memoized aggregates; the summed
    inverse is maintained by two rank-one inverse updates per step."""

    method = "IQN"

    def step(self) -> StepResult:
        t, i = self._next_index()
        x = self.H @ (self.phi - self.g)
        z_old = self.z[i]
        b_i = self.D[i]
        s = x - z_old
        grad_new = self.objective.gradient(i, x)
        y = grad_new - self.grads[i]
        bz_old = b_i @ z_old

        chained = True
        skipped = _tiny_step(s, z_old)
        if not skipped:
            sy = float(s @ y)
            bu = b_i @ s
            ubu = float(s @ bu)
            mk.bfgs_update(b_i, y, sy, s, out=b_i)
            chained = _apply_chain(self.H, [(y, y / sy), (-bu, bu / ubu)])

        self.phi = self.phi + b_i @ x - bz_old
        self.g = self.g + y
        self.z[i] = x
        self.grads[i] = grad_new
        self.x = x
        self.t = t
        if not chained:
            self._materialize_aggregates()
        else:
            self._maybe_refresh()
        return StepResult(t=t, index=i + 1, x=x, d_unscaled=b_i,
                          classic_skipped=skipped)


class DirectAggregateSolver(BaseSolver):
    """Reference-path solvers: the aggregate system is rebuilt from the
    tuples and solved directly at every step (O(n d^2 + d^3))."""

    def _solve_iterate(self):
        dbar = self.D.sum(axis=0)
        rhs = np.einsum("nij,nj->i", self.D, self.z) - self.grads.sum(axis=0)
        # scipy's LAPACK, not numpy's: the curvature kernels run on scipy's
        # OpenBLAS, and a numpy solve leaves its own pool's workers spinning
        # on the shared cores, which stalls the next kernel call.
        _, _, x, info = scipy.linalg.lapack.dgesv(dbar, rhs)
        if info != 0:
            raise SingularAggregate(f"aggregate solve failed: dgesv info {info}")
        return x

    def _beta(self, i, s):
        """(M/2) * ||s||_{z_i} with the norm taken in the component Hessian."""
        m_const = self.objective.constants.M
        if m_const == 0.0:
            return 0.0
        h_old = self.objective.hessian(i, self.z[i])
        quad = float(s @ (h_old @ s))
        return 0.5 * m_const * np.sqrt(max(quad, 0.0))


class SiqnSolver(DirectAggregateSolver):
    """Two-stage (classic + greedy) updates with the per-step beta
    correction; the O(d^3) correctness reference for the lazy solver."""

    method = "SIQN"

    def step(self) -> StepResult:
        t, i = self._next_index()
        x = self._solve_iterate()
        z_old = self.z[i]
        s = x - z_old
        grad_new = self.objective.gradient(i, x)
        y_raw = grad_new - self.grads[i]

        skipped = _tiny_step(s, z_old)
        if skipped:
            q = self.D[i].copy()
        else:
            beta = self._beta(i, s)
            scale = 1.0 + beta
            sy = float(s @ y_raw)
            q = scale ** 2 * self.D[i]
            mk.bfgs_update(q, scale * y_raw, scale * sy, s, out=q)

        h_diag = self.objective.hessian_diag(i, x)
        k_idx = mk.greedy_vector(np.diagonal(q), h_diag)
        h_col = self.objective.hessian_column(i, x, k_idx)
        e_k = np.zeros(self.d)
        e_k[k_idx] = 1.0
        b_new = mk.bfgs_update(q, h_col, float(h_diag[k_idx]), e_k, out=self.D[i])

        self.z[i] = x
        self.grads[i] = grad_new
        self.x = x
        self.t = t
        return StepResult(t=t, index=i + 1, x=x, q=q, d_unscaled=b_new,
                          classic_skipped=skipped)


class IgsSolver(DirectAggregateSolver):
    """Greedy-only updates inside the incremental aggregate solve: scale the
    stored curvature by (1 + beta)^2, then one greedy step against the
    Hessian at the new iterate."""

    method = "IGS"

    def step(self) -> StepResult:
        t, i = self._next_index()
        x = self._solve_iterate()
        s = x - self.z[i]
        grad_new = self.objective.gradient(i, x)

        beta = self._beta(i, s)
        d_scaled = (1.0 + beta) ** 2 * self.D[i]
        h_diag = self.objective.hessian_diag(i, x)
        k_idx = mk.greedy_vector(np.diagonal(d_scaled), h_diag)
        h_col = self.objective.hessian_column(i, x, k_idx)
        e_k = np.zeros(self.d)
        e_k[k_idx] = 1.0
        b_new = mk.bfgs_update(d_scaled, h_col, float(h_diag[k_idx]), e_k,
                               out=self.D[i])

        self.z[i] = x
        self.grads[i] = grad_new
        self.x = x
        self.t = t
        return StepResult(t=t, index=i + 1, x=x, q=d_scaled, d_unscaled=b_new)


class NimSolver(BaseSolver):
    """Exact-Hessian incremental Newton: the tuple curvature is the true
    component Hessian and the aggregate system is solved directly."""

    method = "NIM"

    def __init__(self, objective, x0, config):
        super().__init__(objective, x0, config)
        self.D = np.stack([objective.hessian(i, x0) for i in range(self.n)])
        self._hsum = self.D.sum(axis=0)
        self._rhs = (np.einsum("nij,nj->i", self.D, self.z)
                     - self.grads.sum(axis=0))

    def step(self) -> StepResult:
        t, i = self._next_index()
        try:
            x = np.linalg.solve(self._hsum, self._rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularAggregate(f"Hessian sum solve failed: {exc}") from exc
        h_old = self.D[i]
        z_old = self.z[i]
        grad_old = self.grads[i]
        h_new = self.objective.hessian(i, x)
        grad_new = self.objective.gradient(i, x)

        self._hsum = self._hsum + (h_new - h_old)
        self._rhs = self._rhs + (h_new @ x - grad_new) - (h_old @ z_old - grad_old)

        self.D[i] = h_new
        self.z[i] = x
        self.grads[i] = grad_new
        self.x = x
        self.t = t
        return StepResult(t=t, index=i + 1, x=x, d_unscaled=h_new)


_SOLVERS = {
    "IQN": IqnSolver,
    "SIQN": SiqnSolver,
    "SLIQN": SharpenedLazySolver,
    "GSLIQN": SharpenedLazySolver,
    "IGS": IgsSolver,
    "NIM": NimSolver,
}


def make_solver(objective, x0, config: SolverConfig) -> BaseSolver:
    """Instantiate the solver selected by config.method."""
    cls = _SOLVERS[config.method]
    solver = cls(objective, x0, config)
    solver.method = config.method
    return solver


def run(objective, x0, config: SolverConfig, x_star=None):
    """Execute a solver until the averaged gradient norm drops below
    config.gstop or max_epochs full passes complete.

    Returns the list of TraceRecords, one per executed iteration. The
    stopping rule checks (1/n) * ||sum_i grad f_i(x^t)|| at every iterate;
    a non-finite gstop (e.g. inf) disables it, so exactly
    max_epochs * n records are produced. A non-finite or
    > DIVERGENCE_GRAD_NORM gradient norm also ends the run (divergence).
    Step failures re-raise with the failing iteration attached.
    """
    solver = make_solver(objective, x0, config)
    records = []
    denom = None
    if x_star is not None:
        x_star = np.asarray(x_star, dtype=np.float64)
        denom = float(np.linalg.norm(np.asarray(x0, dtype=np.float64) - x_star))
    for _ in range(config.max_epochs * objective.n):
        start = time.perf_counter()
        try:
            result = solver.step()
        except IqnLabError as exc:
            raise type(exc)(f"step t={solver.t + 1} failed: {exc}") from exc
        wall_ms = (time.perf_counter() - start) * 1e3
        grad_norm = float(np.linalg.norm(objective.full_gradient(result.x))) / objective.n
        normalized = None
        if denom is not None:
            err = float(np.linalg.norm(result.x - x_star))
            normalized = err / denom if denom > 0.0 else err
        sigma_max = None
        if config.track_sigma and result.d_unscaled is not None:
            hess = objective.hessian(result.index - 1, result.x)
            sigma_max = mk.sigma_metric(hess, result.d_unscaled)
        records.append(TraceRecord(
            t=result.t, epoch=(result.t + objective.n - 1) // objective.n,
            grad_norm=grad_norm, normalized_error=normalized,
            sigma_max=sigma_max, wall_ms=wall_ms))
        if np.isfinite(config.gstop) and grad_norm < config.gstop:
            break
        if not np.isfinite(grad_norm) or grad_norm > DIVERGENCE_GRAD_NORM:
            break
    return records
