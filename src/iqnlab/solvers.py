"""Incremental quasi-Newton solvers over finite-sum objectives.

All methods maintain one tuple (z_i, grad_i, D_i) per component, touch the
components in cyclic order and take each iterate from the aggregate system

    x = (sum_i D_i)^{-1} (sum_i D_i z_i - sum_i grad_i).

One step() runs every method: the touched tuple's curvature passes through
the method's stages, then its aggregate strategy folds the change into the
curvature aggregate. Every method keeps phi = sum_i D_i z_i and
g = sum_i grad_i the same way, in place, so the methods differ only in how
they keep sum_i D_i. When the classic stage runs from the D_i that phi
holds, the step takes phi's change D_i(new) x - D_i z_old from the stage's
product B s and the terms both stages added, with no product of D_i; a
skipped classic stage, IGS, NIM and SIQN's nonzero beta trade the old share
for a fresh product instead.

method  scale c        classic stage   greedy stage    aggregate strategy
IQN     0              BFGS along s    -               memoized inverse chain
SLIQN   pending alpha  BFGS along s    BFGS on e_k     chain, lazy omega
GSLIQN  pending alpha  Broyden(tau1)   Broyden(tau2)   chain, lazy omega
SIQN    beta           BFGS along s    BFGS on e_k     exact sum + Cholesky
IGS     beta           -               BFGS on e_k     exact sum + Cholesky
NIM     exact component Hessian instead of stages      exact sum + Cholesky

The scale stage multiplies D_i by (1 + c)^2 and the reference Hessian K by
(1 + c), with beta = (M/2) ||s||_{z_i} per step (0 when the classic stage is
skipped along a tiny step). The greedy coordinate e_k maximizes the ratio
of the diagonals of Q and the Hessian; the greedy stage hands the int k
to mk.broyden_update, which reads D_i e_k as a column. The memoized chain
keeps H = (sum D_i)^{-1} by rank-one inverse updates in O(d^2), one
mk.sm_inverse_update call a step over every term the stages added; the
direct strategy updates the exact sum of D_i in O(d^2) and solves it
against phi - g in O(d^3). Every matrix a solver keeps (H, each D_i, the
direct sum) is symmetric and stored as its lower triangle, and only
matkernel's kernels touch it: mk.symv reads it, mk.cholesky_inverse
rebuilds H from the summed curvature and mk.cholesky_solve solves the
direct sum. Nothing reads the strict upper triangle. H, the direct sum and
its scratch are C-ordered. The D_i come from mk.symmetric_stack, two to a
buffer: D_i's strict upper triangle is its partner's lower one, so the
scale stage, NIM's Hessian and the exact start write D_i through
mk.scale_lower and mk.copy_lower. How far H has drifted from the inverse
of the sum is the oracle's measure (oracle.inverse_residual), not the
solvers'.

Lazy scaling (SLIQN/GSLIQN): stored matrices omit multiplicative epoch
scalings. The stored value of a tuple written in epoch e equals its true
(eager) value divided by every boundary factor (1 + alpha_k)^2 with
e <= k <= floor(t/n). Under the cyclic schedule exactly one factor is
pending when a tuple is touched; memoized aggregates always hold eager
values.
"""

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import matkernel as mk
from .errors import (
    DegenerateDirection,
    IqnLabError,
    LazyInconsistency,
    SingularUpdate,
    SwollenCurvature,
)
from .objectives import FiniteSumObjective

# Steps shorter than this (relative to the iterate scale) skip the classic
# curvature stage; the operators are undefined along a zero direction.
TINY_STEP = 1e-13

DIVERGENCE_GRAD_NORM = 1e12


def diverged(grad_norm: float) -> bool:
    """A non-finite or > DIVERGENCE_GRAD_NORM averaged gradient norm."""
    return not math.isfinite(grad_norm) or grad_norm > DIVERGENCE_GRAD_NORM


def index_of(t: int, n: int) -> int:
    """Cyclic 0-based component index for iteration t >= 1: (t-1) mod n."""
    return (t - 1) % n


def alpha(alpha0: float, k: int) -> float:
    """The epoch correction factor alpha_k = alpha0 * 0.5^k."""
    return alpha0 * 0.5 ** k


def omega(t: int, n: int, alpha0: float) -> float:
    """Per-iteration aggregate scaling: (1 + alpha_{t/n})^2, with alpha_k
    from alpha0, at epoch ends (t mod n == 0), 1 otherwise."""
    if t % n != 0:
        return 1.0
    return (1.0 + alpha(alpha0, t // n)) ** 2


@dataclass
class SolverConfig:
    """Knobs shared by every method; tau1/tau2 are read by GSLIQN only,
    alpha0 by SLIQN and GSLIQN only. alpha0 starts the epoch correction
    alpha_k = alpha0 * 0.5^k (the harness sets M sqrt(L) epsilon); the
    default 0 pins every alpha_k to 0, as the correction is not needed
    empirically."""

    method: str = "SLIQN"
    tau1: float = 0.0
    tau2: float = 0.0
    alpha0: float = 0.0
    gstop: float = 1e-10
    max_epochs: int = 50
    refresh_period: int = 0  # steps between aggregate rebuilds; 0: BaseSolver's default
    init_curvature: str = "scaled-identity"  # or "exact-hessian"
    track_sigma: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not 0.0 <= self.tau1 <= 1.0 or not 0.0 <= self.tau2 <= 1.0:
            raise ValueError("tau1 and tau2 must lie in [0, 1]")
        if not 0.0 <= self.alpha0 < math.inf:
            raise ValueError(f"alpha0 must be finite and non-negative, got {self.alpha0}")
        if not self.gstop > 0.0:
            raise ValueError("gstop must be positive")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if self.refresh_period < 0:
            raise ValueError("refresh_period must be non-negative")
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

    ``q`` is a copy of the matrix the greedy stage started from (after the
    scale and classic stages), kept only when ``config.track_sigma`` asks
    for O(d^3) diagnostics; None otherwise, and for IQN and NIM.
    ``d_unscaled`` is the new curvature before omega, for every method a
    view of the stored D[i]: read it before the next step, or copy it. Only
    the lower triangle of either is defined. A step that raises returns
    nothing and leaves the solver unusable (see :meth:`BaseSolver.step`).
    """

    t: int
    index: int  # 0-based component index that was touched
    x: np.ndarray
    q: Optional[np.ndarray] = None
    d_unscaled: Optional[np.ndarray] = None
    classic_skipped: bool = False


class BaseSolver:
    """Shared tuple state: iterates z (n, d), gradients (n, d), curvature
    D (a list of n d x d views from mk.symmetric_stack), and the iteration
    counter t (completed iterations).
    ``method`` is config.method, the one name a solver goes by.

    step() runs every method: the class flags below pick its curvature
    stages, and its aggregate strategy overrides the hooks after step().
    Every method keeps phi = sum D_i z_i and g = sum grad_i the same way:
    _rebuild() builds them and step() updates them in place. With x =
    z_old + s, phi's change is B s + sum_j c_j <x_j, x> x_j whenever the
    classic stage ran from the D_i phi holds (mk.add_product_change);
    otherwise, with no B s or a D_i swollen by beta, it is D_i(new) x less
    _outgoing's D_i z_old, two products of D_i. A strategy adds only its
    curvature aggregate. The aggregates are built by
    _rebuild() at init and rebuilt exactly after every refresh_period-th
    step.
    """

    classic = False  # classic Broyden(tau1) stage along the step s
    greedy = False   # greedy Broyden(tau2) stage on the greedy coordinate
    exact_start = False  # D starts at the component Hessians whatever init_curvature says
    tau1 = tau2 = 0.0
    alpha0 = 0.0  # omega = 1 unless a method sets alpha0

    def __init__(self, objective: FiniteSumObjective, x0, config: SolverConfig):
        self.objective = objective
        self.config = config
        self.method = config.method
        self.n = objective.n
        self.d = objective.d
        self.t = 0
        x0 = np.ascontiguousarray(x0, dtype=np.float64)
        if x0.shape != (self.d,):
            raise ValueError(f"x0 must have shape ({self.d},)")
        self.z = np.tile(x0, (self.n, 1))
        self.grads = np.ascontiguousarray(objective.gradients_at(x0))
        self.D = self._initial_curvature(x0)
        self.refresh_period = config.refresh_period or 10 * self.n  # 0: every 10 n steps
        self._rebuild()

    def _initial_curvature(self, x0):
        """The stack D at x0: L I, or the component Hessians at x0 for
        init_curvature = "exact-hessian" and for an exact_start method.
        The Hessians are written into the stack in place, one at a time, so
        the start holds at most one d x d temporary beyond the stack."""
        stack = mk.symmetric_stack(self.n, self.d)
        exact = self.exact_start or self.config.init_curvature == "exact-hessian"
        for i, d_i in enumerate(stack):
            if exact:
                mk.copy_lower(d_i, self.objective.hessian(i, x0))
            else:
                np.fill_diagonal(d_i, self.objective.constants.L)
        return stack

    def eager_curvature(self, i: int) -> np.ndarray:
        """True curvature of tuple i now (lower triangle): D[i] unless a lazy solver overrides it."""
        return self.D[i]

    def step(self) -> StepResult:
        """One iteration: solve for x, run the stages on the touched tuple,
        write it back and fold the change into the aggregates.

        The stages write D[i] in place, so a step that raises may leave D[i]
        partly updated: the solver's state is then undefined and it must not
        be stepped again."""
        t = self.t + 1
        i = index_of(t, self.n)
        x = self._solve_iterate()
        z_old = self.z[i]
        d_i = self.D[i]
        q = None
        skipped = False
        terms = []
        if self.classic or self.greedy:  # NIM runs none: its _fold writes the exact Hessian
            s = x - z_old
            # Vector 2-norms as numpy's norm computes them, minus its overhead.
            skipped = self.classic and (
                math.sqrt(s.dot(s)) <= TINY_STEP * (1.0 + math.sqrt(z_old.dot(z_old))))
            # Every stage writes D_i in place. Scale stage: D_i *= (1 + c)^2.
            # SIQN's and IGS's c reads the Hessian at z_old, so it comes
            # before every oracle call at x, which then share one point.
            c = self._correction(t, i, s, skipped)
            if c != 0.0:
                mk.scale_lower(d_i, (1.0 + c) ** 2)
        grad_new = self.objective.gradient(i, x)
        y_raw = grad_new - self.grads[i]
        # Tuple i's share of phi is D_i z_old with D_i as the stages start
        # from it, unless a direct solver's beta has swollen D_i: a memoized
        # solver's c only folds in the lazy factor phi already holds. When
        # the classic stage runs from that D_i, phi's change comes from the
        # stages' own products and no product of D_i is taken; otherwise
        # phi trades the old share for a fresh D_i x.
        from_terms = self.classic and not skipped and (
            c == 0.0 or isinstance(self, MemoizedSolver))
        outgoing = None if from_terms else self._outgoing(d_i, z_old)

        # The stages update D_i in place through the public kernels, called
        # as module attributes so that a wrapper on matkernel sees each call,
        # and collect the rank-one terms each adds to D_i.
        if self.classic and not skipped:
            # K s = (1 + c) y_raw, and <s, K s> = (1 + c) <s, y_raw>. At
            # c = 0, K s is y_raw itself: the bits of 1.0 * y_raw, no copy.
            k = 1.0 + c
            ks = y_raw if c == 0.0 else k * y_raw
            bs, terms = mk.broyden_update(self.tau1, d_i, ks, k * s.dot(y_raw), s)
        if self.greedy:
            if self.config.track_sigma:
                q = d_i.copy()  # the audits compare it with the updated D_i
            h_diag = self.objective.hessian_diag(i, x)
            k = mk.greedy_vector(d_i.diagonal(), h_diag)
            h_col = self.objective.hessian_column(i, x, k)
            terms += mk.broyden_update(self.tau2, d_i, h_col, float(h_diag[k]), k)[1]

        self.z[i] = x
        self.grads[i] = grad_new
        self.t = t
        w = omega(t, self.n, self.alpha0)
        self._fold(i, w, terms)
        # phi takes the new share, after _fold (NIM writes its D_i there),
        # then omega.
        phi = self.phi
        if from_terms:
            # x = z_old + s, so D_i(new) x - D_i z_old = B s + sum_j c_j <x_j, x> x_j.
            mk.add_product_change(phi, bs, terms, x)
        else:
            phi -= outgoing
            phi += mk.symv(d_i, x)
        if w != 1.0:
            phi *= w
        self.g += y_raw
        if t % self.refresh_period == 0:
            self._rebuild()
        return StepResult(t=t, index=i, x=x, q=q, d_unscaled=d_i,
                          classic_skipped=skipped)

    def _rebuild(self):
        """Build the aggregates exactly from the n tuples: phi and g here,
        the curvature aggregate in each strategy's override."""
        self.phi = sum(mk.symv(self.eager_curvature(i), self.z[i]) for i in range(self.n))
        self.g = self.grads.sum(axis=0)

    def _curvature_sum(self, out):
        """sum_i D_i (eager), accumulated over ``out``, or over a new d x d
        array when ``out`` is None: after the first rebuild no rebuild
        allocates one."""
        if out is None:
            out = np.empty((self.d, self.d))
        out.fill(0.0)
        for i in range(self.n):
            out += self.eager_curvature(i)
        return out

    def _solve_iterate(self):
        """The iterate from the aggregate system of the current tuples."""
        raise NotImplementedError

    def _correction(self, t, i, s, skipped):
        """c of the scale stage (1 + c)^2 D_i and of K = (1 + c) Hessian."""
        return 0.0

    def _outgoing(self, d_i, z_old):
        """The old tuple's share D_i z_old of phi when step() cannot take
        phi's change from the terms, read after the scale stage, which
        brings a lazy D_i to the eager value phi summed, and before the
        curvature stages."""
        return mk.symv(d_i, z_old)

    def _fold(self, i, w, terms):
        """Bring the curvature aggregate up to date with the written-back
        tuple i and the step's omega w."""


class MemoizedSolver(BaseSolver):
    """Memoized curvature aggregate H = (sum D_i)^{-1}, applied to
    BaseSolver's phi - g. H follows every step through the rank-one inverse
    chain of the terms the stages added, with the epoch scaling omega
    applied lazily; the periodic rebuild, mk.cholesky_inverse of the summed
    curvature, bounds its drift."""

    H = None  # allocated by the first rebuild, rewritten in place by the others

    def _rebuild(self):
        # The sum takes H's buffer, which mk.cholesky_inverse inverts in place.
        super()._rebuild()
        self.H = mk.cholesky_inverse(self._curvature_sum(self.H))

    def _solve_iterate(self):
        return mk.symv(self.H, self.phi - self.g)

    def _fold(self, i, w, terms):
        try:
            mk.sm_inverse_update(self.H, terms)
        except SingularUpdate:
            # Rounding made an intermediate singular (see mk.sm_inverse_update).
            # H is then part-updated: rebuild it directly.
            self.H = mk.cholesky_inverse(self._curvature_sum(self.H))
            return
        if w != 1.0:
            self.H /= w


class SharpenedLazySolver(MemoizedSolver):
    """SLIQN / G-SLIQN: classic then greedy stage, scaled by the pending
    epoch factor, with lazy omega scaling of the memoized aggregates.

    The inverse chain applies the terms both stages added to D_i in one
    mk.sm_inverse_update call, the positive ones first and then the
    negative ones, each group in stage order, then the 1/omega scaling.
    Each term is one dsymv and one dsyr of H's lower triangle. Reordering
    changes rounding; the golden traces pin this order.
    """

    classic = True
    greedy = True

    def __init__(self, objective, x0, config):
        self.tau1 = config.tau1 if config.method == "GSLIQN" else 0.0
        self.tau2 = config.tau2 if config.method == "GSLIQN" else 0.0
        self.alpha0 = config.alpha0
        # Stored matrices are the unscaled I_i^0; the (1 + alpha_0)^2 factor
        # is pending from epoch 0.
        self.scale_epoch = np.zeros(objective.n, dtype=np.int64)
        super().__init__(objective, x0, config)

    def eager_curvature(self, i):
        """D[i] times the epoch-boundary scalings not yet folded into it."""
        factor = 1.0
        for k in range(int(self.scale_epoch[i]), self.t // self.n + 1):
            a = alpha(self.alpha0, k)
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
        return alpha(self.alpha0, epoch - 1)


class IqnSolver(MemoizedSolver):
    """Classic-only incremental BFGS with memoized aggregates; the summed
    inverse is maintained by two rank-one inverse updates per step."""

    classic = True


class DirectSolver(BaseSolver):
    """Direct strategy: each step folds the touched tuple's change into the
    exact sum of D_i, and the iterate solves it against BaseSolver's
    phi - g with mk.cholesky_solve. One scratch matrix serves the step
    twice: it takes a copy of the curvature sum, which the solve overwrites
    with its factor, then the outgoing D_i, which _outgoing reads and _fold
    subtracts from the sum. The scale stage (SIQN, IGS) uses the per-step
    beta = (M/2) ||s||_{z_i}."""

    _hsum = None  # allocated by the first rebuild, rewritten in place by the others
    _beta = 0.0  # the scale stage's c of the current step

    def __init__(self, objective, x0, config):
        super().__init__(objective, x0, config)
        self._scratch = np.empty((self.d, self.d))

    def step(self):
        try:
            return super().step()
        except DegenerateDirection as exc:
            if self._beta == 0.0:
                raise
            # (1 + beta)^2 compounds on D_i step after step; a stage's guard
            # then blames the direction for what the swelling did.
            t = self.t + 1
            i = index_of(t, self.n)
            diag = self.D[i].diagonal()
            raise SwollenCurvature(
                f"{self.method} beta = {self._beta:.3e} at step t={t} swelled D_{i}, "
                f"whose diagonal spans {diag.min():.3e} to {diag.max():.3e}: {exc}") from exc

    def _rebuild(self):
        # A beta-swollen D_i leaves its peak's rounding in the incremental
        # sums, which floors the gradient until the next rebuild.
        super()._rebuild()
        self._hsum = self._curvature_sum(self._hsum)

    def _solve_iterate(self):
        # The solve factorizes the sum's copy in place instead of allocating
        # one of its own. The factor is then spent, and the scratch takes
        # the outgoing D_i before any stage writes D[i], through a view in
        # D_i's memory order (the scratch itself, or its transpose).
        np.copyto(self._scratch, self._hsum)
        x = mk.cholesky_solve(self._scratch, self.phi - self.g)
        d_i = self.D[index_of(self.t + 1, self.n)]
        self._old = self._scratch if d_i.flags.c_contiguous else self._scratch.T
        np.copyto(self._old, d_i)
        return x

    def _correction(self, t, i, s, skipped):
        """beta in the component Hessian's norm; 0 if the classic stage is skipped."""
        m_const = self.objective.constants.M
        if skipped or m_const == 0.0:
            self._beta = 0.0
        else:
            quad = self.objective.hessian_quad_form(i, self.z[i], s)
            self._beta = 0.5 * m_const * np.sqrt(max(quad, 0.0))
        return self._beta

    def _outgoing(self, d_i, z_old):
        # The scale stage has swollen d_i by (1 + beta)^2; the scratch holds
        # the D_i that phi summed.
        return mk.symv(self._old, z_old)

    def _fold(self, i, w, terms):
        # hsum + (d_new - d_old), with the scratch as the difference's
        # buffer. A Fortran-ordered D_i's difference is added across memory
        # orders, the one transposing pass of its step.
        np.subtract(self.D[i], self._old, out=self._old)
        self._hsum += self._old


class SiqnSolver(DirectSolver):
    """Two-stage (classic + greedy) updates with the per-step beta
    correction; the O(d^3) correctness reference for the lazy solver."""

    classic = True
    greedy = True


class IgsSolver(DirectSolver):
    """Greedy-only updates: scale D_i by (1 + beta)^2, then one greedy step
    against the Hessian at the new iterate."""

    greedy = True


class NimSolver(DirectSolver):
    """Exact-Hessian incremental Newton (Rodomanov & Kropotov, ICML 2016): no
    stage runs; the new D_i is the component Hessian at the new iterate. D
    always starts at the exact Hessians (exact_start), whatever
    init_curvature says."""

    exact_start = True

    def _fold(self, i, w, terms):
        mk.copy_lower(self.D[i], self.objective.hessian(i, self.z[i]))
        super()._fold(i, w, terms)


_SOLVERS = {
    "IQN": IqnSolver,
    "SIQN": SiqnSolver,
    "SLIQN": SharpenedLazySolver,
    "GSLIQN": SharpenedLazySolver,
    "IGS": IgsSolver,
    "NIM": NimSolver,
}
METHODS = tuple(_SOLVERS)


def make_solver(objective, x0, config: SolverConfig) -> BaseSolver:
    """Instantiate the solver selected by config.method."""
    return _SOLVERS[config.method](objective, x0, config)


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
    use_gstop = math.isfinite(config.gstop)
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
            hess = objective.hessian(result.index, result.x)
            sigma_max = mk.sigma_metric(hess, result.d_unscaled)
        records.append(TraceRecord(
            t=result.t, epoch=(result.t + objective.n - 1) // objective.n,
            grad_norm=grad_norm, normalized_error=normalized,
            sigma_max=sigma_max, wall_ms=wall_ms))
        if (use_gstop and grad_norm < config.gstop) or diverged(grad_norm):
            break
    return records
