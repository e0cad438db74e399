"""Layered benchmark for iqnlab.

    python3 perfbench/run.py --workload quad-tall --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Standard output gets two JSON lines. The first holds the workload,
the environment manifest, every metric the run produced, the
per-repetition samples behind the reported times and any failed check.
The last holds ``correct``, ``attempted``, ``failed`` and the ``metrics``
that BENCHMARK.json lists for the mode: ``end_to_end`` with
``--trace 0``, ``per_layer`` with ``--trace 1``. Both lines are also written
to ``.perfbench/<workload>-trace<0|1>.json``; a traced run writes its spans
to ``.perfbench/<workload>-spans.npz``.

Exit status: 0 when every check passed, 1 when a correctness check failed,
2 when the package cannot be imported from ``src/`` or a listed metric was
not produced.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _calibrate(np):
    """Median time of a fixed numpy loop shaped like the solver kernels:
    d = 500 matrix-vector products and a symmetrize. Host drift shows here
    first."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((500, 500))
    v = rng.standard_normal(500)
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(40):
            v = a @ v
            v /= np.linalg.norm(v)
            a = 0.5 * (a + a.T)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def manifest(nproc):
    import numpy as np
    import scipy

    import iqnlab

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "iqnlab_backend": iqnlab.BACKEND,
        "git_revision": _git_revision(),
        "calibration_s": _calibrate(np),
    }


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import iqnlab from this checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import iqnlab
    except ImportError as exc:
        _fail(f"cannot import iqnlab from {src}: {exc}")
    if src.resolve() not in Path(iqnlab.__file__).resolve().parents:
        _fail(f"iqnlab resolved to {iqnlab.__file__}, not {src}")


def _save_spans(tracer, path):
    import numpy as np

    cols = tracer.spans()
    np.savez_compressed(path, names=np.array(tracer.names),
                        **{k: np.frombuffer(v, dtype=v.typecode) for k, v in cols.items()})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Pin the BLAS pool to this process's CPUs before numpy loads it.
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(nproc))
    _import_package()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")

    from bench import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = manifest(nproc)

    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if name not in result.metrics]
    if missing and not result.failed:
        _fail(f"metrics not produced: {missing}")
    detail = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "manifest": env, "problems": result.problems, "all_metrics": result.metrics,
              "samples": result.samples}
    final = {"correct": result.failed == 0, "attempted": result.attempted,
             "failed": result.failed,
             "metrics": {name: result.metrics[name] for name in wanted
                         if name in result.metrics}}
    stem = OUT / f"{workload.name}-trace{args.trace}"
    stem.with_suffix(".json").write_text(
        json.dumps({"detail": detail, "result": final}, indent=1) + "\n", encoding="utf-8")
    if result.spans is not None:
        _save_spans(result.spans, OUT / f"{workload.name}-spans.npz")
    print(json.dumps(detail))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
