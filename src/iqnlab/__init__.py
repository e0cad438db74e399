"""Incremental quasi-Newton solvers and benchmark harness."""

from .matkernel import BACKEND
from .objectives import (
    LogisticObjective,
    QuadraticComponents,
    QuadraticObjective,
    SmoothnessConstants,
)
from .data import GeneratorSpec, generate_quadratic, initial_point, load_libsvm, parse_libsvm
from .solvers import SolverConfig, TraceRecord, make_solver, run

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "GeneratorSpec",
    "LogisticObjective",
    "QuadraticComponents",
    "QuadraticObjective",
    "SmoothnessConstants",
    "SolverConfig",
    "TraceRecord",
    "generate_quadratic",
    "initial_point",
    "load_libsvm",
    "make_solver",
    "parse_libsvm",
    "run",
    "__version__",
]
