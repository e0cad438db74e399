"""Experiment runner: build a problem, race solver configurations on a
shared start point, write per-method CSV traces and a summary table.

Config files are flat ``key = value`` text ('#' starts a comment); any key
can be overridden from the CLI. Identical config and seed reproduce
byte-identical traces except for the wall-time column.
"""

import csv
import hashlib
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .data import GeneratorSpec, generate_quadratic, initial_point, load_libsvm, rows_to_csr
from .errors import HarnessError, IqnLabError
from .objectives import LogisticObjective, QuadraticObjective
from .solvers import METHODS, AlphaSchedule, SolverConfig, diverged, index_of, run, run_solver

TRACE_COLUMNS = ("t", "epoch", "grad_norm", "normalized_error", "sigma_max", "wall_ms")

# The NIM run that stands in for the logistic minimizer x*.
REFERENCE_GSTOP = 1e-12
REFERENCE_MAX_EPOCHS = 200


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
    refresh_period: int = 0  # 0 means the solver default (10 n)
    tau1: float = 0.0
    tau2: float = 0.0
    alpha_mode: str = "zero"
    alpha_epsilon: float = 0.0
    alpha_rho: float = 0.5
    track_sigma: bool = False
    out: str = "results"

    def validate(self):
        if self.problem not in ("quadratic", "logistic"):
            raise HarnessError(f"unknown problem {self.problem!r}")
        if not self.methods:
            raise HarnessError("at least one method is required")
        for m in self.methods:
            if m not in METHODS:
                raise HarnessError(f"unknown method {m!r}; expected one of {METHODS}")
        if self.problem == "logistic" and not self.data:
            raise HarnessError("logistic problems need a 'data' path")
        try:
            for m in self.methods:
                _solver_config(self, m)
        except ValueError as exc:
            raise HarnessError(f"invalid solver settings: {exc}") from exc


_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parse_config_file(path):
    """Read flat key = value assignments; returns a plain dict of strings."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
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

    The logistic reference minimizer is obtained by driving the NIM solver
    to a 1e-12 averaged gradient norm; the quadratic one is closed form.
    """
    if config.problem == "quadratic":
        spec = GeneratorSpec(n=config.n, d=config.d, xi=config.xi,
                             b_max=config.b_max, seed=config.seed)
        objective = QuadraticObjective(generate_quadratic(spec))
        x0 = initial_point(objective.d, config.x0_scale, config.seed)
        return objective, x0, objective.exact_minimizer()

    try:
        rows, dim = load_libsvm(config.data)
    except OSError as exc:
        raise HarnessError(f"cannot read dataset {config.data}: {exc}") from exc
    features, labels = rows_to_csr(rows, dim)
    lam = 1.0 / len(rows) if config.lam == "auto" else float(config.lam)
    x0 = initial_point(dim, config.x0_scale, config.seed)
    radius = 10.0 * max(1.0, float(np.linalg.norm(x0)))
    objective = LogisticObjective(features, labels, lam=lam, p=config.p, radius=radius)
    x_star = _reference_minimizer(objective, x0)
    return objective, x0, x_star


def _reference_minimizer(objective, x0):
    """Run NIM to a REFERENCE_GSTOP averaged gradient norm; x* is the
    iterate of its last step."""
    from .solvers import make_solver  # per call, so a wrapper on it applies

    solver = make_solver(objective, x0, SolverConfig(
        method="NIM", gstop=REFERENCE_GSTOP, max_epochs=REFERENCE_MAX_EPOCHS))
    grad_norm = run_solver(solver)[-1].grad_norm
    if not grad_norm < REFERENCE_GSTOP:
        raise HarnessError(f"reference NIM run did not reach {REFERENCE_GSTOP:g} "
                           f"(got {grad_norm:.3e})")
    return solver.z[index_of(solver.t, objective.n) - 1].copy()


def _solver_config(config: ExperimentConfig, method: str, constants=None) -> SolverConfig:
    """The SolverConfig of one method; raises ValueError on bad settings.

    ``constants`` scale the geometric alpha schedule. Validation runs before
    the problem exists and passes none: the scale does not affect validity.
    """
    alpha = AlphaSchedule(mode=config.alpha_mode, epsilon=config.alpha_epsilon,
                          rho=config.alpha_rho)
    if config.alpha_mode == "geometric" and constants is not None:
        alpha = AlphaSchedule.geometric(constants, epsilon=config.alpha_epsilon,
                                        rho=config.alpha_rho)
    return SolverConfig(
        method=method, tau1=config.tau1, tau2=config.tau2, alpha=alpha,
        gstop=config.gstop, max_epochs=config.max_epochs,
        refresh_period=config.refresh_period or None,
        track_sigma=config.track_sigma)


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
            writer.writerow([_fmt(rec.t), _fmt(rec.epoch), _fmt(rec.grad_norm),
                             _fmt(rec.normalized_error), _fmt(rec.sigma_max),
                             _fmt(rec.wall_ms)])


def run_experiment(config: ExperimentConfig, log=print):
    """Run every configured method from the shared start point.

    Writes ``<method>.csv`` per method plus ``summary.csv`` into the output
    directory and returns the summary rows. A method that ends on a
    :func:`~iqnlab.solvers.diverged` gradient norm is recorded as diverged
    without failing its siblings; solver exceptions are recorded as failures
    and re-raised collectively at the end.
    """
    config.validate()
    objective, x0, x_star = build_problem(config)  # validates data before any output
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
        solver_cfg = _solver_config(config, method, objective.constants)
        try:
            records = run(objective, x0, solver_cfg, x_star=x_star)
        except IqnLabError as exc:
            failures.append(f"{method}: {exc}")
            summary.append({"method": method, "epochs_to_gstop": "",
                            "final_grad_norm": "", "wall_ms_total": "",
                            "status": f"error: {exc}", "x0_sha256": x0_hash})
            log(f"{method}: error: {exc}")
            continue
        last = records[-1]
        reached = last.grad_norm < config.gstop
        status = ("diverged" if diverged(last.grad_norm)
                  else "ok" if reached else "max_epochs")
        epochs = last.t / objective.n if reached else ""
        summary.append({"method": method,
                        "epochs_to_gstop": _fmt(epochs) if epochs != "" else "",
                        "final_grad_norm": _fmt(last.grad_norm),
                        "wall_ms_total": _fmt(sum(r.wall_ms for r in records)),
                        "status": status, "x0_sha256": x0_hash})
        write_trace_csv(out_dir / f"{method}.csv", records)
        log(f"{method}: {status} after {last.t} iterations "
            f"({last.t / objective.n:.2f} passes), grad_norm {last.grad_norm:.3e}")

    with open(out_dir / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["method", "epochs_to_gstop",
                                                "final_grad_norm",
                                                "wall_ms_total", "status",
                                                "x0_sha256"])
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
        for method, epoch, value in rows:
            writer.writerow([method, epoch, f"{value:.17g}"])
    return rows
