"""Golden traces: each method's deterministic trace columns, byte for byte.

Every case runs ``solvers.run`` on a fixed problem and writes its trace with
``harness.write_trace_csv``; every column except ``wall_ms`` must equal the
committed CSV under ``tests/golden/`` string for string. These traces pin
the arithmetic of each method, including the order of the inverse chain
(positive terms first, each sign in stage order), so a refactor that only
moves code keeps them exactly.

A change that alters traces on purpose rewrites them with
``PYTHONPATH=src python tests/test_golden.py`` and says why in CHANGES.md.
The script rewrites only the cases whose deterministic columns changed, so
the ``wall_ms`` column of the others does not churn. For each case it
rewrites it prints the old and new row counts and, per deterministic
column, the largest absolute change over the rows both traces have, also
relative to the column's first value.
"""

import csv
import functools
import shutil
import tempfile
from pathlib import Path

import pytest

from iqnlab.harness import ExperimentConfig, build_problem, write_trace_csv
from iqnlab.solvers import SolverConfig, run

GOLDEN = Path(__file__).parent / "golden"

# Quadratics have M = 0, so the harness's alpha0 is 0 there; this alpha0 is
# set directly to exercise the lazy epoch scaling.
GEOMETRIC = 0.05

PROBLEMS = {
    "quad": ExperimentConfig(problem="quadratic", n=8, d=10, xi=1.5, b_max=10.0,
                             seed=5),
    # d = 64 is a whole number of BLAS blocks; the d = 10/12 fixtures run
    # mostly in the kernels' remainder loops.
    "quad64": ExperimentConfig(problem="quadratic", n=6, d=64, xi=1.5, b_max=10.0,
                               seed=11),
    # 60 rows, d = 12, parsed from committed LIBSVM text.
    "logi": ExperimentConfig(problem="logistic", data=str(GOLDEN / "logistic60.libsvm"),
                             x0_scale=0.5, seed=7),
}

QUAD = dict(gstop=1e-10, max_epochs=40)
# Exact curvature lands on x* at t = 1, so from t = n + 1 on, the touched
# tuple already sits at the iterate and the classic stage is skipped.
EXACT_START = dict(gstop=float("inf"), max_epochs=3, init_curvature="exact-hessian")
LOGI = dict(gstop=1e-8, max_epochs=15)
BLOCK = dict(gstop=float("inf"), max_epochs=3)
# SIQN's beta correction stalls on this logistic problem: it raises
# SwollenCurvature at t = 241, so its budget stays below four passes.
LOGI_BETA = dict(gstop=1e-8, max_epochs=3)

CASES = {
    "quad-IQN": ("quad", dict(method="IQN", **QUAD)),
    "quad-SIQN": ("quad", dict(method="SIQN", **QUAD)),
    "quad-SLIQN": ("quad", dict(method="SLIQN", **QUAD)),
    "quad-GSLIQN": ("quad", dict(method="GSLIQN", **QUAD)),
    "quad-IGS": ("quad", dict(method="IGS", track_sigma=True, **QUAD)),
    "quad-NIM": ("quad", dict(method="NIM", **QUAD)),
    "quad-GSLIQN-tau": ("quad", dict(method="GSLIQN", tau1=0.5, tau2=0.3, **QUAD)),
    "quad-GSLIQN-dfp": ("quad", dict(method="GSLIQN", tau1=1.0, tau2=1.0, **QUAD)),
    "quad-SLIQN-geometric": ("quad", dict(method="SLIQN", alpha0=GEOMETRIC,
                                          track_sigma=True, **QUAD)),
    "quad-GSLIQN-geometric": ("quad", dict(method="GSLIQN", tau1=0.5, tau2=0.5,
                                           alpha0=GEOMETRIC, **QUAD)),
    "quad-IQN-refresh": ("quad", dict(method="IQN", refresh_period=7, **QUAD)),
    "quad-SLIQN-refresh": ("quad", dict(method="SLIQN", refresh_period=7, **QUAD)),
    "quad-IQN-skip": ("quad", dict(method="IQN", **EXACT_START)),
    "quad-SIQN-skip": ("quad", dict(method="SIQN", **EXACT_START)),
    "quad-SLIQN-skip": ("quad", dict(method="SLIQN", **EXACT_START)),
    "quad-GSLIQN-skip": ("quad", dict(method="GSLIQN", tau1=0.5, tau2=0.5, **EXACT_START)),
    "quad64-IQN": ("quad64", dict(method="IQN", **BLOCK)),
    "quad64-SIQN": ("quad64", dict(method="SIQN", **BLOCK)),
    "quad64-SLIQN": ("quad64", dict(method="SLIQN", **BLOCK)),
    "quad64-GSLIQN-tau": ("quad64", dict(method="GSLIQN", tau1=0.5, tau2=0.5, **BLOCK)),
    "logi-IQN": ("logi", dict(method="IQN", **LOGI)),
    "logi-SIQN": ("logi", dict(method="SIQN", **LOGI_BETA)),
    "logi-SLIQN": ("logi", dict(method="SLIQN", track_sigma=True, **LOGI)),
    "logi-GSLIQN": ("logi", dict(method="GSLIQN", **LOGI)),
    "logi-IGS": ("logi", dict(method="IGS", **LOGI_BETA)),
    "logi-NIM": ("logi", dict(method="NIM", **LOGI)),
    "logi-GSLIQN-tau": ("logi", dict(method="GSLIQN", tau1=0.3, tau2=0.7, **LOGI)),
    "logi-SLIQN-geometric": ("logi", dict(method="SLIQN", alpha0=GEOMETRIC, **LOGI)),
    "logi-SLIQN-hessian-init": ("logi", dict(method="SLIQN", init_curvature="exact-hessian",
                                             **LOGI)),
}


@functools.lru_cache(maxsize=None)
def _problem(name):
    return build_problem(PROBLEMS[name])


def write_case(case, path):
    problem, settings = CASES[case]
    objective, x0, x_star = _problem(problem)
    write_trace_csv(path, run(objective, x0, SolverConfig(**settings), x_star=x_star))


def deterministic_columns(path):
    """Rows of a trace CSV, header included, without the wall_ms column."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    keep = [j for j, name in enumerate(rows[0]) if name != "wall_ms"]
    return [[row[j] for j in keep] for row in rows]


def change_report(old, new):
    """Lines describing how the deterministic rows ``new`` differ from
    ``old`` (both with their header row)."""
    lines = [f"  rows {len(old) - 1} -> {len(new) - 1}"]
    for j, name in enumerate(old[0]):
        pairs = [(float(a[j]), float(b[j])) for a, b in zip(old[1:], new[1:])
                 if a[j] and b[j]]
        if not pairs:
            continue
        largest = max(abs(b - a) for a, b in pairs)
        first = abs(pairs[0][0])
        relative = f", {largest / first:.2g} of the first value" if first else ""
        lines.append(f"  {name}: largest change {largest:.2g}{relative}")
    return lines


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_golden(case, tmp_path):
    write_case(case, tmp_path / "trace.csv")
    got = deterministic_columns(tmp_path / "trace.csv")
    want = deterministic_columns(GOLDEN / f"{case}.csv")
    for line, (g, w) in enumerate(zip(got, want), start=1):
        assert g == w, f"{case}: line {line} differs: {g} != {w}"
    assert len(got) == len(want), f"{case}: {len(got)} lines, golden has {len(want)}"


def test_goldens_cover_refresh_and_full_beta_budget():
    # The refresh cases cross several refresh boundaries; the logistic beta
    # cases spend their whole budget rather than stopping early.
    for case in ("quad-IQN-refresh", "quad-SLIQN-refresh"):
        last_t = int(deterministic_columns(GOLDEN / f"{case}.csv")[-1][0])
        assert last_t > 3 * CASES[case][1]["refresh_period"]
    n_logi = _problem("logi")[0].n
    for case in ("logi-SIQN", "logi-IGS"):
        last_t = int(deterministic_columns(GOLDEN / f"{case}.csv")[-1][0])
        assert last_t == LOGI_BETA["max_epochs"] * n_logi
    # The direct strategy's default refresh at t = 10 n rebuilds its sum;
    # the step after it solves and copies the outgoing D_i in its scratch.
    for case in ("quad-SIQN", "quad-IGS"):
        last_t = int(deterministic_columns(GOLDEN / f"{case}.csv")[-1][0])
        assert last_t > 10 * PROBLEMS["quad"].n


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            fresh, golden = Path(tmp) / f"{name}.csv", GOLDEN / f"{name}.csv"
            write_case(name, fresh)
            new = deterministic_columns(fresh)
            old = deterministic_columns(golden) if golden.exists() else None
            if new == old:
                print(f"unchanged {golden}")
                continue
            shutil.copyfile(fresh, golden)
            print(f"wrote {golden}")
            if old is not None:
                print("\n".join(change_report(old, new)))
