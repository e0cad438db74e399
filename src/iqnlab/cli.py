"""Command line interface.

Subcommands:
    run            execute an experiment config, write CSV traces + summary
    gen-quadratic  sample a synthetic quadratic problem to an .npz file
    check          run the verification-oracle audit suite
"""

import argparse
import ctypes
import importlib
import json
import os
import sys

import numpy as np

from .data import GeneratorSpec, generate_quadratic
from .errors import IqnLabError
from .harness import config_from_mapping, emit_plot_data, parse_config_file, run_experiment
from .oracle import run_check_suite


def _cmd_run(args):
    values = parse_config_file(args.config)
    if args.method:
        values["methods"] = args.method
    if args.gstop is not None:
        values["gstop"] = str(args.gstop)
    if args.seed is not None:
        values["seed"] = str(args.seed)
    if args.out is not None:
        values["out"] = args.out
    config = config_from_mapping(values)
    summary = run_experiment(config)
    if args.plot_data:
        paths = [f"{config.out}/{row['method']}.csv" for row in summary
                 if row["status"] in ("ok", "max_epochs")]
        emit_plot_data(paths, args.plot_data)
        print(f"plot data written to {args.plot_data}")
    return 0


def _cmd_gen_quadratic(args):
    spec = GeneratorSpec(n=args.n, d=args.d, xi=args.xi, b_max=args.b_max,
                         seed=args.seed)
    components = generate_quadratic(spec)
    np.savez(args.out, a_diag=components.a_diag, b=components.b,
             n=spec.n, d=spec.d, xi=spec.xi, b_max=spec.b_max, seed=spec.seed)
    print(f"wrote {spec.n} components of dimension {spec.d} to {args.out}")
    return 0


def _cmd_check(args):
    reports = run_check_suite(seed=args.seed)
    for report in reports:
        print(report.line())
    passed = sum(r.passed for r in reports)
    print(json.dumps({"passed": passed, "failed": len(reports) - passed,
                      "total": len(reports)}))
    return 0 if passed == len(reports) else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="iqn-lab",
                                     description="incremental quasi-Newton benchmark lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True, help="key = value config file")
    p_run.add_argument("--method", help="override methods (comma separated)")
    p_run.add_argument("--gstop", type=float, help="override stopping threshold")
    p_run.add_argument("--seed", type=int, help="override seed")
    p_run.add_argument("--out", help="override output directory")
    p_run.add_argument("--plot-data", help="also write a long-format plot table")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen-quadratic", help="sample a synthetic quadratic problem")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--d", type=int, required=True)
    p_gen.add_argument("--xi", type=float, required=True)
    p_gen.add_argument("--b-max", type=float, default=1000.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help=".npz output path")
    p_gen.set_defaults(func=_cmd_gen_quadratic)

    p_check = sub.add_parser("check", help="run the oracle audit suite")
    p_check.add_argument("--seed", type=int, default=20240111)
    p_check.set_defaults(func=_cmd_check)
    return parser


# The OpenBLAS copies that scipy and numpy bundle: each extension module
# that links one and the suffix of its thread-count functions. scipy's runs
# the kernels and every factorization; numpy's 64-bit-integer copy runs every
# ndarray.dot and np.linalg call (the objectives and the oracle).
_OPENBLAS_POOLS = (("scipy.linalg._fblas", ""), ("numpy._core._multiarray_umath", "64_"))


def _openblas_pools():
    """(get, set) thread-count functions of each bundled OpenBLAS, through
    ctypes; a module that links another BLAS, or is absent, adds none."""
    pools = []
    for module, suffix in _OPENBLAS_POOLS:
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            pools.append((getattr(lib, f"scipy_openblas_get_num_threads{suffix}"),
                          getattr(lib, f"scipy_openblas_set_num_threads{suffix}")))
        except (ImportError, OSError, AttributeError):
            continue
    return pools


def pin_blas_threads():
    """Run both bundled OpenBLAS pools, scipy's and numpy's, on one thread
    unless OPENBLAS_NUM_THREADS is set.

    The pin buys reproducible traces, at a measured cost in time. The
    thread count sets BLAS rounding (`dsymv` and the Cholesky routines
    return other bits with two threads at d >= 256), so one pinned count
    makes traces independent of the host's core count. On a 2-vCPU host
    `iqn-lab run` at n = 20, d = 500 finished sooner with two threads in
    every pair raced (see the README's "Kernels"). The setting is
    process-wide, so only the command line makes it; the library never
    does.
    """
    if "OPENBLAS_NUM_THREADS" not in os.environ:
        for _, set_threads in _openblas_pools():
            set_threads(1)


def main(argv=None):
    pin_blas_threads()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IqnLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
