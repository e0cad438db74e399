"""Workload definitions: which problem, which methods, what a correct run is.

Each workload is one ``harness.run_experiment`` call on a generated config.
The workload seed is the only input: it seeds the problem data (quadratic
generator or the LIBSVM text below) and the shared start point.
"""

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from iqnlab.data import SparseRow, serialize_libsvm
from iqnlab.harness import ExperimentConfig

# A run that stops on gstop must also land close to the reference minimizer
# (closed form for quadratics, NIM to 1e-12 for logistic problems).
ERROR_TOL = 1e-6


@dataclass(frozen=True)
class LibsvmSpec:
    """Synthetic sparse classification data, generated as in the logistic
    acceptance fixture: a random separating direction plus label noise."""

    rows: int
    dim: int
    density: float


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    methods: tuple
    gstop: float          # inf: a fixed pass budget of max_epochs
    max_epochs: int
    problem: dict = field(default_factory=dict)  # ExperimentConfig fields
    libsvm: Optional[LibsvmSpec] = None
    setup_reps: int = 5   # standalone build_problem calls per repetition
    iter_block: int = 8   # iterations per window behind iter_us.<M>
    iter_percentile: float = 1.0  # percentile of those windows iter_us.<M> reports

    @property
    def fixed_budget(self):
        return not math.isfinite(self.gstop)

    def config(self, seed, out, data=""):
        return ExperimentConfig(methods=self.methods, seed=seed, gstop=self.gstop,
                                max_epochs=self.max_epochs, data=str(data),
                                out=str(out), **self.problem)

    def warmup(self):
        """The same experiment cut to one pass: it touches every allocation
        and BLAS path the timed runs use, at a fraction of their cost."""
        return replace(self, gstop=math.inf, max_epochs=1)


def write_libsvm(spec: LibsvmSpec, seed, path):
    """Write seeded LIBSVM text for ``spec`` to ``path``."""
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal(spec.dim)
    rows = []
    for _ in range(spec.rows):
        idx = np.nonzero(rng.random(spec.dim) < spec.density)[0]
        if len(idx) == 0:
            idx = np.array([int(rng.integers(spec.dim))])
        vals = rng.standard_normal(len(idx))
        label = 1 if vals @ weights[idx] + 0.7 * rng.standard_normal() > 0 else 0
        rows.append(SparseRow(indices=np.asarray(idx + 1, dtype=np.int64),
                              values=vals, label=label))
    Path(path).write_text(serialize_libsvm(rows), encoding="utf-8")
    return Path(path)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="quad-wide",
        why=("d >> n quadratic at a fixed 3-pass budget: 2 MB d x d matrices, "
             "so rank-one kernels and O(d^3) solves dominate; only place "
             "GSLIQN's DFP chain runs"),
        methods=("IQN", "SIQN", "SLIQN", "GSLIQN", "IGS", "NIM"),
        gstop=math.inf, max_epochs=3,
        problem=dict(problem="quadratic", n=20, d=500, xi=2.0, tau1=0.5, tau2=0.5),
        iter_block=1, iter_percentile=10.0),
    Workload(
        name="quad-tall",
        why=("n >> d quadratic to gstop 1e-10: tiny steps, so per-call "
             "overhead, the O(n d) stopping rule and IGS's O(n d^2) rebuild "
             "dominate"),
        methods=("SLIQN", "IQN", "IGS", "NIM"),
        gstop=1e-10, max_epochs=100,
        problem=dict(problem="quadratic", n=500, d=10, xi=1.0)),
    Workload(
        name="logistic-sparse",
        why=("sparse logistic regression parsed from LIBSVM text to gstop "
             "1e-8: the only real oracle cost and the only setup with a "
             "parse and a NIM reference run"),
        methods=("NIM", "SLIQN", "IQN"),
        gstop=1e-8, max_epochs=100,
        problem=dict(problem="logistic", lam="auto", p=2.1, x0_scale=0.5),
        libsvm=LibsvmSpec(rows=125, dim=30, density=0.35),
        setup_reps=2),
)}
