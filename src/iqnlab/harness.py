"""Experiment runner: build a problem, race solver configurations on a
shared start point, write per-method CSV traces and a summary table.

Config files are flat ``key = value`` text ('#' starts a comment); the CLI
overrides only ``methods`` (as ``--method``), ``gstop``, ``seed`` and
``out``. Identical config and seed reproduce byte-identical traces except
for the wall-time column.
"""

import csv
import hashlib
import itertools
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import matkernel as mk
from .data import GeneratorSpec, generate_quadratic, initial_point, load_libsvm, rows_to_csr
from .errors import HarnessError, IqnLabError, SingularAggregate
from .objectives import ORIGIN_GUARD, LogisticObjective, QuadraticObjective
from .solvers import SolverConfig, diverged, run

TRACE_COLUMNS = ("t", "epoch", "grad_norm", "normalized_error", "sigma_max", "wall_ms")
SUMMARY_COLUMNS = ("method", "epochs_to_gstop", "final_grad_norm", "wall_ms_total",
                   "status", "x0_sha256")

# The full-batch Newton run that finds the logistic minimizer x*.
REFERENCE_GSTOP = 1e-12
REFERENCE_MAX_NEWTON_ITERATIONS = 100
_ARMIJO_C = 1e-4       # sufficient decrease, Nocedal & Wright (3.4)
_MIN_STEP_LENGTH = 1e-15
# Values are sums of positive terms, good to far better than this relative
# error; a predicted decrease below it cannot be resolved by comparing them.
_VALUE_RESOLUTION = 1e-12


@dataclass
class ExperimentConfig:
    problem: str = "quadratic"
    # quadratic family
    n: int = 20
    d: int = 50
    xi: float = 2.0
    b_max: float = 1000.0
    # logistic family
    data: str = ""
    lam: str = "auto"  # "auto" means 1/N
    p: float = 2.1
    # shared
    methods: tuple = ("IQN", "SLIQN")
    x0_scale: float = 1.0
    seed: int = 0
    gstop: float = 1e-10
    max_epochs: int = 100
    refresh_period: int = 0  # 0 means the solver default
    tau1: float = 0.0
    tau2: float = 0.0
    alpha_epsilon: float = 0.0  # alpha0 = M sqrt(L) alpha_epsilon; > 0 turns it on
    track_sigma: bool = False
    out: str = "results"

    def validate(self):
        if self.problem not in ("quadratic", "logistic"):
            raise HarnessError(f"unknown problem {self.problem!r}")
        if not self.methods:
            raise HarnessError("at least one method is required")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:  # each would overwrite the other's trace
            raise HarnessError(f"methods lists {', '.join(repeated)} more than once")
        if self.seed < 0:
            raise HarnessError(f"seed must be non-negative, got {self.seed}")
        if not np.isfinite(self.x0_scale):
            raise HarnessError(f"x0_scale must be finite, got {self.x0_scale}")
        if not 0.0 <= self.alpha_epsilon < np.inf:  # alpha0 = 0 * epsilon would pass it
            raise HarnessError(f"invalid solver settings: alpha_epsilon = {self.alpha_epsilon}"
                               " is not finite and non-negative")
        if self.problem == "logistic" and not self.data:
            raise HarnessError("logistic problems need a 'data' path")
        if self.lam != "auto":
            try:
                float(self.lam)
            except ValueError as exc:
                raise HarnessError(f"lam must be 'auto' or a number, got {self.lam!r}") from exc
        for m in self.methods:  # SolverConfig names the unknown methods
            _solver_config(self, m)


_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parse_config_file(path):
    """Read flat key = value assignments; returns a plain dict of strings."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise HarnessError(f"cannot read config {path}: {exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise HarnessError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        values[key.strip()] = value.strip()
    return values


def config_from_mapping(values):
    """Build an ExperimentConfig from string key/value pairs; each value
    takes the type of its key's default."""
    cfg = ExperimentConfig()
    for key, raw in values.items():
        if key not in {f.name for f in fields(cfg)}:
            raise HarnessError(f"unknown config key {key!r}")
        kind = type(getattr(cfg, key))
        if kind is tuple:
            setattr(cfg, key, tuple(m.strip().upper() for m in raw.split(",") if m.strip()))
        elif kind is bool:
            if raw.lower() not in _BOOL:
                raise HarnessError(f"{key} must be boolean, got {raw!r}")
            setattr(cfg, key, _BOOL[raw.lower()])
        else:
            try:
                setattr(cfg, key, kind(raw))
            except ValueError as exc:
                raise HarnessError(f"bad value for {key}: {raw!r} ({exc})") from exc
    cfg.validate()
    return cfg


def build_problem(config: ExperimentConfig):
    """Construct (objective, x0, x_star) for a validated config.

    The logistic reference minimizer is found by full-batch damped Newton
    to a 1e-12 averaged gradient norm (see :func:`_reference_minimizer`);
    the quadratic one is closed form. No solver is constructed. A problem
    whose arrays cannot be allocated is a HarnessError naming N and d.
    """
    if config.problem == "quadratic":
        spec = GeneratorSpec(n=config.n, d=config.d, xi=config.xi,
                             b_max=config.b_max, seed=config.seed)
        try:
            objective = QuadraticObjective(generate_quadratic(spec))
            x0 = initial_point(objective.d, config.x0_scale, config.seed)
            return objective, x0, objective.exact_minimizer()
        except MemoryError as exc:
            raise HarnessError(f"a quadratic with N = {spec.n} and d = {spec.d} "
                               f"does not fit in memory: {exc}") from exc

    try:
        rows, dim = load_libsvm(config.data)
    except (OSError, UnicodeDecodeError) as exc:
        raise HarnessError(f"cannot read dataset {config.data}: {exc}") from exc
    if dim == 0:
        raise HarnessError(f"dataset {config.data} has no features (d = 0)")
    try:
        features, labels = rows_to_csr(rows, dim)
        lam = 1.0 / len(rows) if config.lam == "auto" else float(config.lam)
        x0 = initial_point(dim, config.x0_scale, config.seed)
        radius = 10.0 * max(1.0, float(np.linalg.norm(x0)))
        objective = LogisticObjective(features, labels, lam=lam, p=config.p, radius=radius)
        return objective, x0, _reference_minimizer(objective, x0)
    except MemoryError as exc:
        raise HarnessError(f"dataset {config.data} with N = {len(rows)} and d = {dim} "
                           f"does not fit in memory: {exc}") from exc


def _reference_minimizer(objective, x0):
    """x* of a logistic objective: damped Newton on the total objective
    (Boyd & Vandenberghe, *Convex Optimization*, 9.5) from x0 until the
    stopping rule's averaged gradient norm ``||full_gradient|| / n`` is
    below REFERENCE_GSTOP. It shares no code with the solvers under test.

    Each iteration solves ``H step = -g`` with ``objective.newton_system``'s
    Hessian by Cholesky, then halves the step until the total value meets
    the Armijo condition. A step whose predicted decrease ``-g . step`` is
    below the values' resolution (``_VALUE_RESOLUTION * |F|``) is taken
    whole: there Newton converges quadratically, and comparing two values
    would only compare their rounding errors.

    At ``||x|| < ORIGIN_GUARD`` the regularizer adds no curvature, and
    Z^T W Z is singular when the data have rank below d; the step there is
    damped to ``(H + n mu I) step = -g``, mu the certified strong
    convexity constant (the regularizer's least curvature on the annulus
    where the constants hold). Everywhere else H >= n c1 I > 0.

    Raises
    ------
    HarnessError
        On a non-finite gradient norm (at once), after
        REFERENCE_MAX_NEWTON_ITERATIONS iterations, on a Hessian that
        Cholesky cannot factorize, or when no halving meets the Armijo condition.
    """
    n = objective.n
    x = np.array(x0, dtype=np.float64)
    value, hessian = objective.newton_system(x)
    for iteration in itertools.count():
        g = objective.full_gradient(x)
        grad_norm = np.sqrt(g.dot(g)) / n
        if grad_norm < REFERENCE_GSTOP:
            return x
        if not np.isfinite(grad_norm) or iteration == REFERENCE_MAX_NEWTON_ITERATIONS:
            raise HarnessError(f"reference Newton run did not reach {REFERENCE_GSTOP:g} "
                               f"(got {grad_norm:.3e} after {iteration} iterations)")
        if np.sqrt(x.dot(x)) < ORIGIN_GUARD:
            hessian[np.diag_indices(objective.d)] += n * objective.constants.mu
        try:
            step = mk.cholesky_solve(hessian, -g)
        except SingularAggregate as exc:
            raise HarnessError(f"reference Newton run, iteration {iteration}: {exc}") from exc
        slope = g.dot(step)
        alpha = 1.0
        value_new, hessian = objective.newton_system(x + step)
        while (-slope > _VALUE_RESOLUTION * abs(value)
               and not value_new <= value + _ARMIJO_C * alpha * slope):
            if alpha < _MIN_STEP_LENGTH:
                raise HarnessError(f"reference Newton run, iteration {iteration}: no step "
                                   f"length down to {alpha:.1e} decreases the objective")
            alpha *= 0.5
            value_new, hessian = objective.newton_system(x + alpha * step)
        x += alpha * step
        value = value_new


def _solver_config(config: ExperimentConfig, method: str, constants=None) -> SolverConfig:
    """The SolverConfig of one method; raises HarnessError on bad settings.

    ``constants`` give alpha0 = M sqrt(L) alpha_epsilon. Validation runs
    before the problem exists and passes none, so it checks alpha_epsilon
    itself: the scale does not affect validity unless it overflows.
    """
    m_sqrt_l = 0.0 if constants is None else constants.M * np.sqrt(constants.L)
    try:
        return SolverConfig(
            method=method, tau1=config.tau1, tau2=config.tau2,
            alpha0=m_sqrt_l * config.alpha_epsilon,
            gstop=config.gstop, max_epochs=config.max_epochs,
            refresh_period=config.refresh_period, track_sigma=config.track_sigma)
    except ValueError as exc:
        raise HarnessError(f"invalid solver settings: {exc}") from exc


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_trace_csv(path, records):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for rec in records:
            writer.writerow([_fmt(getattr(rec, column)) for column in TRACE_COLUMNS])


def run_experiment(config: ExperimentConfig, log=print):
    """Run every configured method from the shared start point.

    Writes ``<method>.csv`` per method plus ``summary.csv`` into the output
    directory and returns the summary rows. A method that ends on a
    :func:`~iqnlab.solvers.diverged` gradient norm is recorded as diverged
    without failing its siblings; solver exceptions, and a MemoryError from
    a method whose state cannot be allocated, are recorded as failures and
    re-raised collectively at the end.
    """
    config.validate()
    objective, x0, x_star = build_problem(config)  # validates data before any output
    constants = objective.constants  # unusable constants also fail before output
    out_dir = Path(config.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise HarnessError(f"cannot create output directory {out_dir}: {exc}") from exc

    x0_hash = hashlib.sha256(np.ascontiguousarray(x0).tobytes()).hexdigest()[:16]
    log(f"problem={config.problem} n={objective.n} d={objective.d} "
        f"x0 sha256={x0_hash}")

    summary = []
    failures = []
    for method in config.methods:
        solver_cfg = _solver_config(config, method, constants)
        try:
            records = run(objective, x0, solver_cfg, x_star=x_star)
        except (IqnLabError, MemoryError) as exc:
            reason = (f"out of memory at N = {objective.n}, d = {objective.d}: {exc}"
                      if isinstance(exc, MemoryError) else str(exc))
            failures.append(f"{method}: {reason}")
            summary.append({**dict.fromkeys(SUMMARY_COLUMNS, ""), "method": method,
                            "status": f"error: {reason}", "x0_sha256": x0_hash})
            log(f"{method}: error: {reason}")
            continue
        last = records[-1]
        reached = last.grad_norm < config.gstop
        status = ("diverged" if diverged(last.grad_norm)
                  else "ok" if reached else "max_epochs")
        summary.append({"method": method,
                        "epochs_to_gstop": _fmt(last.t / objective.n) if reached else "",
                        "final_grad_norm": _fmt(last.grad_norm),
                        "wall_ms_total": _fmt(sum(r.wall_ms for r in records)),
                        "status": status, "x0_sha256": x0_hash})
        write_trace_csv(out_dir / f"{method}.csv", records)
        log(f"{method}: {status} after {last.t} iterations "
            f"({last.t / objective.n:.2f} passes), grad_norm {last.grad_norm:.3e}")

    with open(out_dir / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        writer.writerows(summary)

    if failures:
        raise HarnessError("; ".join(failures))
    return summary


def emit_plot_data(trace_paths, out_path):
    """Condense traces to one row per (method, epoch) for log-scale plots.

    Each row keeps the last iterate of the epoch; exact zeros are clipped to
    1e-16 so downstream log axes stay finite. Methods keep their input
    order, epochs ascend.
    """
    rows = []
    for path in trace_paths:
        path = Path(path)
        method = path.stem
        per_epoch = {}
        with open(path, newline="", encoding="utf-8") as fh:
            for rec in csv.DictReader(fh):
                if rec["normalized_error"] == "":
                    continue
                per_epoch[int(rec["epoch"])] = float(rec["normalized_error"])
        for epoch in sorted(per_epoch):
            value = per_epoch[epoch]
            rows.append((method, epoch, max(value, 1e-16)))
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "epoch", "normalized_error"])
        writer.writerows([_fmt(v) for v in row] for row in rows)
    return rows
