"""Measure one workload through the real user path, ``run_experiment``.

Untraced repetitions give the end-to-end metrics; they wrap only
``harness.build_problem``, ``harness.run``, ``harness.write_trace_csv`` and
``solvers.make_solver``, once per call, and stamp the start of every step of
each solver ``make_solver`` returns. Traced repetitions wrap every layer
boundary listed below and give the per-layer split. Every repetition is checked: each method must end
as its workload expects, and the deterministic trace columns must hash the
same in every repetition, traced or not.
"""

import csv
import hashlib
import math
import resource
import shutil
import statistics
import time
import weakref
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from iqnlab import data, harness, matkernel, solvers
from iqnlab.errors import IqnLabError
from iqnlab.objectives import LogisticObjective, QuadraticObjective

from tracer import Tracer
from workloads import ERROR_TOL, write_libsvm

OBJECTIVE_FUNCS = ("full_gradient", "gradient", "hessian", "hessian_diag",
                   "hessian_column", "gradients_at")
KERNELS = ("sm_inverse_update", "bfgs_update", "dfp_update", "broyden_update",
           "symmetrize", "greedy_vector")
STEP_CLASSES = (solvers.IqnSolver, solvers.SharpenedLazySolver,
                solvers.SiqnSolver, solvers.IgsSolver, solvers.NimSolver)
LAYERS = ("objectives", "matkernel", "solvers", "data", "harness")
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _kernel_cost(name, args):
    """(flops, bytes) of one kernel call under a minimal-traffic model: the
    formula's arithmetic, each d x d operand read once per pass it needs and
    the result written once. Computed from d, not measured."""
    if name == "greedy_vector":
        d = len(args[0])
        return d, 16 * d
    if name == "broyden_update":
        tau, d = args[0], args[1].shape[0]
        return (3 * d * d, 24 * d * d) if 0.0 < tau < 1.0 else (0, 0)
    d = args[0].shape[0]
    flops_per_entry, passes = {"sm_inverse_update": (6, 4), "bfgs_update": (8, 3),
                               "dfp_update": (10, 3), "symmetrize": (2, 3)}[name]
    return flops_per_entry * d * d, passes * 8 * d * d


@dataclass
class Outcome:
    """What one ``run_experiment`` call produced and how long it took."""

    experiment_s: float = 0.0
    setup_s: float = 0.0
    runs: dict = field(default_factory=dict)      # method -> (solve_s, passes, last record)
    status: dict = field(default_factory=dict)    # method -> summary.csv status
    hashes: dict = field(default_factory=dict)    # "<method>.<column>" -> sha256
    error: str = ""
    tracer: Tracer = None
    step_s: dict = field(default_factory=dict)    # method -> [step durations]
    windows: dict = field(default_factory=dict)   # method -> iteration_windows()
    counts: dict = field(default_factory=dict)


class Probe:
    """Installs the wrappers for one repetition and collects what they see."""

    def __init__(self, full):
        self.full = full
        self.tracer = Tracer(record_spans=full)
        self.outcome = Outcome(tracer=self.tracer)
        self.stamps = {}  # method -> start time of every step
        self.outcome.counts = {"matkernel.flops_computed": 0, "matkernel.bytes_computed": 0,
                               "solvers.classic_skipped": 0, "harness.write_trace_csv.bytes": 0}

    def _after_run(self, args, kwargs, records, duration):
        objective, _, config = args[:3]
        last = records[-1]
        self.outcome.runs[config.method] = (duration, last.t / objective.n, last)

    def _after_write(self, args, kwargs, result, duration):
        self.outcome.counts["harness.write_trace_csv.bytes"] += Path(args[0]).stat().st_size

    def _after_step(self, args, kwargs, result, duration):
        self.outcome.step_s.setdefault(args[0].method, []).append(duration)
        self.outcome.counts["solvers.classic_skipped"] += bool(result.classic_skipped)

    def _stamp_steps(self, args, kwargs, solver, duration):
        """Stamp the start of every step of the solver just built. The gap
        between two stamps is one whole iteration of the run loop: the step,
        the stopping-rule gradient and the trace record."""
        stamps = self.stamps[solver.method] = array("d")
        # A weak reference, so the solver and its d x d buffers are freed
        # when the run drops it rather than at the next cycle collection.
        step, owner, clock = type(solver).step, weakref.ref(solver), time.perf_counter

        def stamped():
            stamps.append(clock())
            return step(owner())
        solver.step = stamped

    def _kernel_hook(self, name):
        counts = self.outcome.counts

        def after(args, kwargs, result, duration):
            flops, nbytes = _kernel_cost(name, args)
            counts["matkernel.flops_computed"] += flops
            counts["matkernel.bytes_computed"] += nbytes
        return after

    def install(self):
        wrap = self.tracer.wrap
        wrap(harness, "build_problem", "harness.build_problem")
        wrap(harness, "run", "solvers.run", after=self._after_run)
        wrap(harness, "write_trace_csv", "harness.write_trace_csv", after=self._after_write)
        wrap(solvers, "make_solver", "solvers.make_solver", after=self._stamp_steps)
        if not self.full:
            return
        for cls in (QuadraticObjective, LogisticObjective):
            for fn in OBJECTIVE_FUNCS:
                wrap(cls, fn, f"objectives.{fn}")
        for fn in KERNELS:
            wrap(matkernel, fn, f"matkernel.{fn}", after=self._kernel_hook(fn))
        for cls in STEP_CLASSES:
            wrap(cls, "step", "solvers.step", after=self._after_step)
        for fn in ("generate_quadratic", "load_libsvm", "rows_to_csr"):
            wrap(harness, fn, f"data.{fn}")
        wrap(data, "parse_libsvm", "data.parse_libsvm")


def _quiet(*_args, **_kwargs):
    pass


def column_hashes(out_dir, methods):
    """sha256 of every trace column except wall time, keyed method.column."""
    hashes = {}
    for method in methods:
        path = Path(out_dir) / f"{method}.csv"
        if not path.exists():
            continue
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        for j, column in enumerate(rows[0]):
            if column != "wall_ms":
                digest = hashlib.sha256("\n".join(r[j] for r in rows[1:]).encode())
                hashes[f"{method}.{column}"] = digest.hexdigest()
    return hashes


def read_status(out_dir):
    path = Path(out_dir) / "summary.csv"
    if not path.exists():
        return {}
    with open(path, newline="", encoding="utf-8") as fh:
        return {row["method"]: row["status"] for row in csv.DictReader(fh)}


def iteration_windows(stamps, block):
    """Seconds per iteration over each run of ``block`` consecutive
    iterations (non-overlapping, the last partial one dropped)."""
    return np.diff(np.frombuffer(stamps, dtype=np.float64)[::block]) / block


def run_once(workload, config, full):
    """One timed ``run_experiment`` call on a clean output directory."""
    out = Path(config.out)
    shutil.rmtree(out, ignore_errors=True)
    probe = Probe(full)
    probe.install()
    start = time.perf_counter()
    try:
        harness.run_experiment(config, log=_quiet)
    except IqnLabError as exc:
        probe.outcome.error = str(exc)
    finally:
        probe.outcome.experiment_s = time.perf_counter() - start
        probe.tracer.restore()
    outcome = probe.outcome
    outcome.setup_s = probe.tracer.stat("harness.build_problem").total_s
    outcome.windows = {method: iteration_windows(stamps, workload.iter_block)
                       for method, stamps in probe.stamps.items()}
    outcome.status = read_status(out)
    outcome.hashes = column_hashes(out, workload.methods)
    return outcome


def failures(workload, outcome, reference_hashes):
    """Methods of one repetition that did not end as the workload expects."""
    failed = {}
    for method in workload.methods:
        status = outcome.status.get(method)
        if status != "ok":
            failed[method] = f"status {status!r} {outcome.error}".rstrip()
            continue
        if method not in outcome.runs:
            failed[method] = "no run recorded"
            continue
        _, passes, last = outcome.runs[method]
        if workload.fixed_budget:
            if passes != workload.max_epochs or not math.isfinite(last.grad_norm):
                failed[method] = f"budget run ended at {passes} passes, grad {last.grad_norm}"
        elif not (last.normalized_error is not None and last.normalized_error <= ERROR_TOL):
            failed[method] = f"normalized_error {last.normalized_error} > {ERROR_TOL}"
        if method not in failed:
            mine = {k: v for k, v in outcome.hashes.items() if k.startswith(method + ".")}
            ref = {k: v for k, v in reference_hashes.items() if k.startswith(method + ".")}
            if mine != ref:
                failed[method] = "deterministic trace columns differ between repetitions"
    return failed


def tail(samples):
    """(median, level, value) where level is the highest of TAIL_LEVELS with
    at least ten samples beyond it; level and value are None when there are
    fewer than twenty samples."""
    arr = np.asarray(samples)
    for level in TAIL_LEVELS:
        if len(arr) * (1.0 - level / 100.0) >= 10.0:
            return float(np.median(arr)), level, float(np.percentile(arr, level))
    return float(np.median(arr)), None, None


@dataclass
class Measurement:
    """Every metric of one workload run plus its operation counts."""

    metrics: dict
    attempted: int
    failed: int
    problems: list
    samples: dict = field(default_factory=dict)
    spans: Tracer = None


def _put(metrics, name, value, unit):
    metrics[name] = {"value": value, "unit": unit}


def end_to_end(workload, plain, setup_samples):
    """Medians over repetitions plus the per-repetition samples behind them,
    and ``iter_us.<M>`` from every iteration of every repetition."""
    samples = {"experiment_s": [o.experiment_s for o in plain],
               "setup_s": setup_samples + [o.setup_s for o in plain]}
    ran = [m for m in workload.methods if all(m in o.runs for o in plain)]
    for method in ran:
        samples[f"solve_s.{method}"] = [o.runs[method][0] for o in plain]
    metrics = {}
    for name, values in samples.items():
        _put(metrics, name, statistics.median(values), "s")
    for method in ran:
        _put(metrics, f"passes.{method}", plain[0].runs[method][1], "passes")
        windows = np.concatenate([o.windows[method] for o in plain])
        if len(windows):
            _put(metrics, f"iter_us.{method}",
                 float(np.percentile(windows, workload.iter_percentile)) * 1e6, "us")
            _put(metrics, f"iter_us.{method}.p50", float(np.median(windows)) * 1e6, "us")
            _put(metrics, f"iter_us.{method}.windows", len(windows), "count")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _put(metrics, "peak_rss_mb", peak_kb / 1024.0, "MB")
    return metrics, samples


def per_layer(workload, plain, traced):
    metrics = {}
    first = traced[0]
    names = first.tracer.names
    layer_self = {layer: [0.0] * len(traced) for layer in LAYERS}
    for name in names:
        per_rep = [o.tracer.stat(name).self_s for o in traced]
        _put(metrics, f"{name}.calls", first.tracer.stat(name).calls, "count")
        _put(metrics, f"{name}.self_s", statistics.median(per_rep), "s")
        layer = name.split(".", 1)[0]
        layer_self[layer] = [a + b for a, b in zip(layer_self[layer], per_rep)]
    for layer, per_rep in layer_self.items():
        _put(metrics, f"{layer}.self_s", statistics.median(per_rep), "s")
    _put(metrics, "matkernel.sm_inverse_update.singular",
         first.tracer.stat("matkernel.sm_inverse_update").raised, "count")
    for key in ("matkernel.flops_computed", "matkernel.bytes_computed",
                "harness.write_trace_csv.bytes"):
        unit = "flop" if key.endswith("flops_computed") else "B"
        _put(metrics, key, first.counts[key], unit)
    steps = first.tracer.stat("solvers.step").calls
    _put(metrics, "solvers.classic_skipped.ratio",
         first.counts["solvers.classic_skipped"] / steps if steps else 0.0, "ratio")
    for method in workload.methods:
        pooled = [s for o in traced for s in o.step_s.get(method, ())]
        if not pooled:
            continue
        median, level, value = tail([s * 1e6 for s in pooled])
        _put(metrics, f"solvers.step_us.{method}.p50", median, "us")
        _put(metrics, f"solvers.step_us.{method}.steps", len(pooled), "count")
        if level is not None:
            _put(metrics, f"solvers.step_us.{method}.tail", value, "us")
            _put(metrics, f"solvers.step_us.{method}.tail_level", level, "percentile")
    plain_s = statistics.median(o.experiment_s for o in plain)
    overhead = statistics.median(o.experiment_s for o in traced) - plain_s
    _put(metrics, "trace.overhead_s", overhead, "s")
    _put(metrics, "trace.overhead_ratio", overhead / plain_s, "ratio")
    return metrics


def measure(workload, seed, seconds, traced, work_dir):
    """Run ``workload`` for about ``seconds`` and return its Measurement.

    Order: write inputs, one warm-up experiment, then repetitions until the
    next one would overrun ``seconds`` (at least one). A repetition is an
    experiment, with ``traced`` a traced one after it, and ``setup_reps``
    timed standalone problem builds, so set-up samples spread over the run.
    """
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    data_path = ""
    if workload.libsvm is not None:
        data_path = write_libsvm(workload.libsvm, seed, work_dir / "data.libsvm")
    config = workload.config(seed, work_dir / "out", data_path)

    warm = workload.warmup()
    run_once(warm, warm.config(seed, work_dir / "warmup", data_path), full=False)

    plain, traced_runs, setup_samples = [], [], []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        plain.append(run_once(workload, config, full=False))
        if traced:
            traced_runs.append(run_once(workload, config, full=True))
        for _ in range(workload.setup_reps):
            build = time.perf_counter()
            harness.build_problem(config)
            setup_samples.append(time.perf_counter() - build)
        now = time.perf_counter()
        if now - start + (now - lap) > seconds:
            break

    reference = plain[0].hashes
    problems = []
    attempted = failed = 0
    for rep, outcome in enumerate(plain + traced_runs):
        attempted += len(workload.methods)
        bad = failures(workload, outcome, reference)
        failed += len(bad)
        problems.extend(f"rep {rep} {m}: {why}" for m, why in bad.items())
    if traced:
        metrics = per_layer(workload, plain, traced_runs)
        samples = {"experiment_s": [o.experiment_s for o in plain],
                   "experiment_s.traced": [o.experiment_s for o in traced_runs]}
        spans = traced_runs[-1].tracer
    else:
        metrics, samples = end_to_end(workload, plain, setup_samples)
        spans = None
    return Measurement(metrics=metrics, attempted=attempted, failed=failed,
                       problems=problems, samples=samples, spans=spans)
