"""Incremental quasi-Newton solvers over finite-sum objectives.

All methods maintain one tuple (z_i, grad_i, D_i) per component, touch the
components in cyclic order and take each iterate from the aggregate system

    x = (sum_i D_i)^{-1} (sum_i D_i z_i - sum_i grad_i).

One step() runs every method: the touched tuple's curvature passes through
the method's stages, then its aggregate strategy folds the change in.

method  scale c        classic stage   greedy stage    aggregate strategy
IQN     0              BFGS along s    -               memoized inverse chain
SLIQN   pending alpha  BFGS along s    BFGS on e_k     chain, lazy omega
GSLIQN  pending alpha  Broyden(tau1)   Broyden(tau2)   chain, lazy omega
SIQN    beta           BFGS along s    BFGS on e_k     direct rebuild + dgesv
IGS     beta           -               BFGS on e_k     direct rebuild + dgesv
NIM     exact component Hessian instead of stages      incremental exact sums

The scale stage multiplies D_i by (1 + c)^2 and the reference Hessian K by
(1 + c), with beta = (M/2) ||s||_{z_i} per step (0 when the classic stage is
skipped along a tiny step). The greedy coordinate e_k maximizes the ratio
of the diagonals of Q and the Hessian. The memoized chain keeps
H = (sum D_i)^{-1} by rank-one inverse updates in O(d^2); the direct
rebuild costs O(n d^2 + d^3).

Lazy scaling (SLIQN/GSLIQN): stored matrices omit multiplicative epoch
scalings. The stored value of a tuple written in epoch e equals its true
(eager) value divided by every boundary factor (1 + alpha_k)^2 with
e <= k <= floor(t/n). Under the cyclic schedule exactly one factor is
pending when a tuple is touched; memoized aggregates always hold eager
values.
"""

import math
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


def diverged(grad_norm: float) -> bool:
    """A non-finite or > DIVERGENCE_GRAD_NORM averaged gradient norm."""
    return not math.isfinite(grad_norm) or grad_norm > DIVERGENCE_GRAD_NORM


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
    """What one solver step exposes for diagnostics and audits.

    ``q`` is the matrix the greedy stage started from (after the scale and
    classic stages), None for IQN and NIM. It is the solver's one q buffer,
    which the next step overwrites. ``d_unscaled`` is the new curvature
    before omega, for every method a view of the stored D[i]. Read either
    before the next step, or copy it. A step that raises returns nothing and
    leaves the solver unusable (see :meth:`BaseSolver.step`).
    """

    t: int
    index: int  # 1-based component index that was touched
    x: np.ndarray
    q: Optional[np.ndarray] = None
    d_unscaled: Optional[np.ndarray] = None
    classic_skipped: bool = False


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


def _broyden_terms(tau, ku, uku, bu, ubu, k_first):
    """Rank-one factors (u, v) of a Broyden(tau) stage's change to B along a
    direction u, from ku = K u, uku = <u, K u>, bu = B u and ubu = <u, B u>:
    the K-term and the B-term in the pinned order, then the two cross terms
    of tau != 0."""
    if tau == 0.0:
        k_term, b_term, cross = (ku, ku / uku), (-bu, bu / ubu), []
    else:
        c_k = (1.0 - tau) + tau * (1.0 + ubu / uku)
        k_term, b_term = (c_k * ku, ku / uku), (-(1.0 - tau) * bu, bu / ubu)
        cross = [(-tau * ku, bu / uku), (-tau * bu, ku / uku)]
    return ([k_term, b_term] if k_first else [b_term, k_term]) + cross


class BaseSolver:
    """Shared tuple state: iterates z (n, d), gradients (n, d), curvature
    D (n, d, d), and the iteration counter t (completed iterations).

    step() runs every method: the class flags below pick its curvature
    stages, and its aggregate strategy overrides the hooks after step().
    """

    method = "?"
    classic = False        # classic Broyden(tau1) stage along the step s
    greedy = False         # greedy Broyden(tau2) stage on the greedy coordinate
    inverse_chain = False  # the strategy needs the stages' rank-one factors
    tau1 = tau2 = 0.0

    def __init__(self, objective: FiniteSumObjective, x0, config: SolverConfig):
        self.objective = objective
        self.config = config
        self.n = objective.n
        self.d = objective.d
        self.t = 0
        x0 = np.ascontiguousarray(x0, dtype=np.float64)
        if x0.shape != (self.d,):
            raise ValueError(f"x0 must have shape ({self.d},)")
        self.z = np.tile(x0, (self.n, 1))
        self.grads = np.ascontiguousarray(objective.gradients_at(x0))
        self.D = self._initial_curvature(x0)
        self._q = np.empty((self.d, self.d)) if self.greedy else None

    def _initial_curvature(self, x0):
        if self.config.init_curvature == "exact-hessian":
            return np.stack([self.objective.hessian(i, x0) for i in range(self.n)])
        big_l = self.objective.constants.L
        stack = np.zeros((self.n, self.d, self.d))
        stack[:, np.arange(self.d), np.arange(self.d)] = big_l
        return stack

    def eager_curvature(self, i: int) -> np.ndarray:
        """True curvature of tuple i now: D[i] unless a lazy solver overrides it."""
        return self.D[i]

    def step(self) -> StepResult:
        """One iteration: solve for x, run the stages on the touched tuple,
        write it back and fold the change into the aggregates.

        The stages write D[i] in place, so a step that raises may leave D[i]
        partly updated: the solver's state is then undefined and it must not
        be stepped again."""
        t = self.t + 1
        i = index_of(t, self.n) - 1
        x = self._solve_iterate()
        z_old = self.z[i]
        s = x - z_old
        grad_new = self.objective.gradient(i, x)
        y_raw = grad_new - self.grads[i]
        # Vector 2-norms as numpy's norm computes them, minus its overhead.
        skipped = self.classic and (
            math.sqrt(s.dot(s)) <= TINY_STEP * (1.0 + math.sqrt(z_old.dot(z_old))))
        c = self._correction(t, i, s, skipped)

        # Every stage writes D_i in place. Scale stage: D_i *= (1 + c)^2.
        d_i = self.D[i]
        if c != 0.0:
            d_i *= (1.0 + c) ** 2
        outgoing = self._outgoing(i, d_i, z_old)

        terms = []
        if self.classic and not skipped:
            y, sy = self._secant(s, y_raw, c)
            bu = d_i @ s if self.inverse_chain else None
            mk.broyden_update(self.tau1, d_i, y, sy, s, out=d_i)
            if self.inverse_chain:
                terms += _broyden_terms(self.tau1, y, sy, bu, float(s @ bu), k_first=True)
        q = None
        if self.greedy:
            # q keeps the post-classic matrix: the chain's terms and audits
            # read it after D_i has moved on.
            q = self._q
            np.copyto(q, d_i)
            h_diag = self.objective.hessian_diag(i, x)
            k = mk.greedy_vector(np.diagonal(q), h_diag)
            h_col = self.objective.hessian_column(i, x, k)
            h_kk = float(h_diag[k])
            e_k = np.zeros(self.d)
            e_k[k] = 1.0
            mk.broyden_update(self.tau2, d_i, h_col, h_kk, e_k, out=d_i)
            if self.inverse_chain:
                terms += _broyden_terms(self.tau2, h_col, h_kk, q[:, k], float(q[k, k]),
                                        k_first=False)

        self.z[i] = x
        self.grads[i] = grad_new
        self.t = t
        self._fold(t, i, x, y_raw, outgoing, terms)
        return StepResult(t=t, index=i + 1, x=x, q=q, d_unscaled=d_i,
                          classic_skipped=skipped)

    def _solve_iterate(self):
        """The iterate from the aggregate system of the current tuples."""
        raise NotImplementedError

    def _correction(self, t, i, s, skipped):
        """c of the scale stage (1 + c)^2 D_i and of K = (1 + c) Hessian."""
        return 0.0

    def _secant(self, s, y_raw, c):
        """(K s, <s, K s>) for the classic stage, K = (1 + c) Hessian."""
        y = y_raw if c == 0.0 else (1.0 + c) * y_raw
        return y, float(s @ y)

    def _outgoing(self, i, d_i, z_old):
        """What the aggregates lose with the old tuple, read before it changes."""
        return None

    def _fold(self, t, i, x, y_raw, outgoing, terms):
        """Bring the aggregates up to date with the written-back tuple i."""


class MemoizedSolver(BaseSolver):
    """Memoized aggregates H = (sum D_i)^{-1}, phi = sum D_i z_i,
    g = sum grad_i. H follows every step through the rank-one inverse chain
    of the stages' factors, with the epoch scaling omega applied lazily; a
    periodic eager refresh bounds its drift."""

    inverse_chain = True
    alpha = AlphaSchedule()  # omega = 1 unless a method sets a schedule

    def __init__(self, objective, x0, config):
        super().__init__(objective, x0, config)
        self.refresh_period = config.refresh_period or 10 * self.n
        self._materialize_aggregates()

    def _curvature_sum(self):
        dbar = np.zeros((self.d, self.d))
        for i in range(self.n):
            dbar += self.eager_curvature(i)
        return dbar

    def _materialize_aggregates(self):
        phi = np.zeros(self.d)
        for i in range(self.n):
            phi += self.eager_curvature(i) @ self.z[i]
        self.H = _summed_inverse(self._curvature_sum())
        self.phi = phi
        self.g = self.grads.sum(axis=0)

    def aggregate_drift(self) -> float:
        """|| H (sum D_i) - I ||_F for the current memoized inverse."""
        return float(np.linalg.norm(self.H @ self._curvature_sum() - np.eye(self.d)))

    def _solve_iterate(self):
        return self.H @ (self.phi - self.g)

    def _swap_phi(self, dz_old, dx, w):
        """phi with the touched tuple's share D_i z_old replaced by D_i x,
        scaled by omega; each method keeps its own association."""
        raise NotImplementedError

    def _outgoing(self, i, d_i, z_old):
        return d_i @ z_old

    def _fold(self, t, i, x, y_raw, dz_old, terms):
        w = omega(t, self.n, self.alpha)
        chained = _apply_chain(self.H, terms)
        self.phi = self._swap_phi(dz_old, self.D[i] @ x, w)
        self.g = self.g + y_raw
        if not chained:
            # The chain can pass through an exactly singular intermediate
            # even though the final sum stays invertible (SLIQN at n = 1
            # always does). H is then part-updated: rebuild it directly.
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
        if t % self.refresh_period == 0:
            self._materialize_aggregates()


class SharpenedLazySolver(MemoizedSolver):
    """SLIQN / G-SLIQN: classic then greedy stage, scaled by the pending
    epoch factor, with lazy omega scaling of the memoized aggregates.

    The inverse chain applies, in this pinned order: the scaled gradient
    difference term, the negative B s term, the negative Q column term, the
    Hessian column term, then the 1/omega scaling. Reordering changes
    rounding; the lazy/eager equivalence tests pin this order.
    """

    method = "SLIQN"
    classic = True
    greedy = True

    def __init__(self, objective, x0, config):
        self.tau1 = config.tau1 if config.method == "GSLIQN" else 0.0
        self.tau2 = config.tau2 if config.method == "GSLIQN" else 0.0
        self.alpha = config.alpha
        # Stored matrices are the unscaled I_i^0; the (1 + alpha_0)^2 factor
        # is pending from epoch 0.
        self.scale_epoch = np.zeros(objective.n, dtype=np.int64)
        super().__init__(objective, x0, config)

    def eager_curvature(self, i):
        """D[i] times the epoch-boundary scalings not yet folded into it."""
        factor = 1.0
        for k in range(int(self.scale_epoch[i]), self.t // self.n + 1):
            a = self.alpha.value(k)
            if a != 0.0:
                factor *= (1.0 + a) ** 2
        return self.D[i] if factor == 1.0 else factor * self.D[i]

    def _correction(self, t, i, s, skipped):
        """alpha of the one epoch end still pending on tuple i, which this
        step folds in."""
        epoch = (t + self.n - 1) // self.n
        if self.scale_epoch[i] != epoch - 1:
            raise LazyInconsistency(
                f"tuple {i} stored in epoch {self.scale_epoch[i]}, touched in "
                f"epoch {epoch}; pending scaling spans more than one epoch")
        self.scale_epoch[i] = epoch
        return self.alpha.value(epoch - 1)

    def _swap_phi(self, dz_old, dx, w):
        return w * (self.phi - dz_old + dx)


class IqnSolver(MemoizedSolver):
    """Classic-only incremental BFGS with memoized aggregates; the summed
    inverse is maintained by two rank-one inverse updates per step."""

    method = "IQN"
    classic = True

    def _swap_phi(self, dz_old, dx, w):
        return self.phi + dx - dz_old


class DirectAggregateSolver(BaseSolver):
    """Reference-path strategy: the aggregate system is rebuilt from the
    tuples and solved directly at every step (O(n d^2 + d^3)). The scale
    stage uses the per-step beta = (M/2) ||s||_{z_i}."""

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

    def _correction(self, t, i, s, skipped):
        """beta = (M/2) * ||s||_{z_i} with the norm taken in the component
        Hessian; 0 when the classic stage is skipped."""
        m_const = self.objective.constants.M
        if skipped or m_const == 0.0:
            return 0.0
        h_old = self.objective.hessian(i, self.z[i])
        quad = float(s @ (h_old @ s))
        return 0.5 * m_const * np.sqrt(max(quad, 0.0))

    def _secant(self, s, y_raw, c):
        # (1 + beta) <s, y_raw>, not <s, (1 + beta) y_raw>: SIQN's rounding.
        return (1.0 + c) * y_raw, (1.0 + c) * float(s @ y_raw)


class SiqnSolver(DirectAggregateSolver):
    """Two-stage (classic + greedy) updates with the per-step beta
    correction; the O(d^3) correctness reference for the lazy solver."""

    method = "SIQN"
    classic = True
    greedy = True


class IgsSolver(DirectAggregateSolver):
    """Greedy-only updates inside the incremental aggregate solve: scale the
    stored curvature by (1 + beta)^2, then one greedy step against the
    Hessian at the new iterate."""

    method = "IGS"
    greedy = True


class NimSolver(BaseSolver):
    """Exact-Hessian incremental Newton: the tuple curvature is the true
    component Hessian, and the Hessian sum and right-hand side are kept as
    incremental exact sums and solved directly."""

    method = "NIM"

    def __init__(self, objective, x0, config):
        super().__init__(objective, x0, config)
        self._hsum = self.D.sum(axis=0)
        self._rhs = (np.einsum("nij,nj->i", self.D, self.z)
                     - self.grads.sum(axis=0))

    def _initial_curvature(self, x0):
        return np.stack([self.objective.hessian(i, x0) for i in range(self.n)])

    def _solve_iterate(self):
        try:
            return np.linalg.solve(self._hsum, self._rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularAggregate(f"Hessian sum solve failed: {exc}") from exc

    def _outgoing(self, i, d_i, z_old):
        return d_i @ z_old - self.grads[i]

    def _fold(self, t, i, x, y_raw, outgoing, terms):
        h_new = self.objective.hessian(i, x)
        self._hsum = self._hsum + (h_new - self.D[i])
        self._rhs = self._rhs + (h_new @ x - self.grads[i]) - outgoing
        self.D[i] = h_new


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
    """Build the solver config.method selects and run it to a stop; returns
    the list of TraceRecords of :func:`run_solver`."""
    return run_solver(make_solver(objective, x0, config), x_star=x_star)


def run_solver(solver: BaseSolver, x_star=None):
    """Step a solver that has not been stepped yet until the averaged
    gradient norm drops below its config.gstop or max_epochs full passes
    complete.

    Returns the list of TraceRecords, one per executed iteration. The
    stopping rule checks (1/n) * ||sum_i grad f_i(x^t)|| at every iterate;
    a non-finite gstop (e.g. inf) disables it, so exactly
    max_epochs * n records are produced. A :func:`diverged` gradient norm
    also ends the run. The normalized error is taken against the solver's
    start point. Step failures re-raise with the failing iteration attached.
    """
    objective, config = solver.objective, solver.config
    records = []
    denom = None
    if x_star is not None:
        x_star = np.asarray(x_star, dtype=np.float64)
        denom = float(np.linalg.norm(solver.z[0] - x_star))
    for _ in range(config.max_epochs * objective.n):
        start = time.perf_counter()
        try:
            result = solver.step()
        except IqnLabError as exc:
            raise type(exc)(f"step t={solver.t + 1} failed: {exc}") from exc
        wall_ms = (time.perf_counter() - start) * 1e3
        # 2-norms as numpy's norm computes them, minus its overhead.
        g = objective.full_gradient(result.x)
        grad_norm = math.sqrt(g.dot(g)) / objective.n
        normalized = None
        if denom is not None:
            e = result.x - x_star
            err = math.sqrt(e.dot(e))
            normalized = err / denom if denom > 0.0 else err
        sigma_max = None
        if config.track_sigma:
            hess = objective.hessian(result.index - 1, result.x)
            sigma_max = mk.sigma_metric(hess, result.d_unscaled)
        records.append(TraceRecord(
            t=result.t, epoch=(result.t + objective.n - 1) // objective.n,
            grad_norm=grad_norm, normalized_error=normalized,
            sigma_max=sigma_max, wall_ms=wall_ms))
        if (np.isfinite(config.gstop) and grad_norm < config.gstop) or diverged(grad_norm):
            break
    return records
