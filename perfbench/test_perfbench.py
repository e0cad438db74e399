"""Tests for the benchmark itself, on tiny problem sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import weakref
from array import array
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
from iqnlab import harness, solvers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, LibsvmSpec  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_PROBLEMS = {
    "quad-wide": dict(n=8, d=12),  # 24 steps: enough for a step-time tail
    "quad-tall": dict(n=30, d=4),
    "logistic-sparse": {},
}


def tiny(name):
    """The named workload with the same methods and checks, shrunk."""
    workload = WORKLOADS[name]
    problem = {**workload.problem, **TINY_PROBLEMS[name]}
    libsvm = LibsvmSpec(rows=40, dim=6, density=0.5) if workload.libsvm else None
    return replace(workload, problem=problem, libsvm=libsvm, setup_reps=2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_listed_metric_is_emitted_with_a_unit(name, tmp_path):
    workload = tiny(name)
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        result = bench.measure(workload, seed=3, seconds=0.0, traced=traced,
                               work_dir=tmp_path / key)
        assert result.failed == 0, result.problems
        assert result.attempted == len(workload.methods) * (2 if traced else 1)
        for entry in SPEC[key]:
            metric = result.metrics[entry["name"]]
            assert metric["unit"] == entry["unit"], entry["name"]
            assert math.isfinite(metric["value"]), entry["name"]


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in SPEC["workloads"])
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def _wrapped_attributes():
    """Every (owner, attribute) a full probe wraps, with its current value."""
    probe = bench.Probe(full=True)
    probe.install()
    targets = [(owner, attr) for owner, attr, _ in probe.tracer._patches]
    probe.tracer.restore()
    return {(owner, attr): vars(owner).get(attr, None) for owner, attr in targets}


def test_tracer_restores_every_wrapped_function(tmp_path):
    before = _wrapped_attributes()
    assert len(before) > 20
    workload = tiny("quad-tall")
    config = workload.config(1, tmp_path / "out")
    traced = bench.run_once(workload, config, full=True)
    after = {key: vars(key[0]).get(key[1], None) for key in before}
    assert after == before
    # Inherited methods stay inherited: nothing was left in the class dict.
    assert all(value is None or not hasattr(value, "__wrapped__") for value in after.values())
    plain = bench.run_once(workload, config, full=False)
    assert set(plain.tracer.names) == {"harness.build_problem", "solvers.run",
                                       "harness.write_trace_csv", "solvers.make_solver"}
    # The untraced run still stamps every method's iterations.
    assert set(plain.windows) == set(workload.methods)
    assert plain.tracer.stat("solvers.run").calls == len(workload.methods)
    assert traced.hashes == plain.hashes


def test_iteration_windows_cut_consecutive_iterations():
    stamps = array("d", [0.0, 1.0, 3.0, 6.0, 10.0, 15.0])
    assert list(bench.iteration_windows(stamps, 1)) == [1.0, 2.0, 3.0, 4.0, 5.0]
    # Windows of two: 0 -> 3 and 3 -> 10; the partial window after 10 is dropped.
    assert list(bench.iteration_windows(stamps, 2)) == [1.5, 3.5]


def test_stamped_solver_is_freed_with_its_run(tmp_path):
    workload = tiny("quad-tall")
    probe = bench.Probe(full=False)
    probe.install()
    try:
        config = workload.config(1, tmp_path / "out")
        objective, x0, _ = harness.build_problem(config)
        solver = solvers.make_solver(objective, x0, solvers.SolverConfig(method="IQN"))
    finally:
        probe.tracer.restore()
    solver.step()
    assert len(probe.stamps["IQN"]) == 1
    alive = weakref.ref(solver)
    del solver
    assert alive() is None


def test_tracer_self_time_excludes_children_and_counts_raises():
    class Box:
        def outer(self):
            self.inner()
            return "done"

        def inner(self):
            pass

        def boom(self):
            raise ValueError("x")

    tracer = Tracer()
    for fn in ("outer", "inner", "boom"):
        tracer.wrap(Box, fn, fn)
    box = Box()
    assert box.outer() == "done"
    with pytest.raises(ValueError):
        box.boom()
    outer, inner = tracer.stat("outer"), tracer.stat("inner")
    assert outer.calls == inner.calls == 1
    assert math.isclose(outer.self_s, outer.total_s - inner.total_s, abs_tol=1e-12)
    assert tracer.stat("boom").raised == 1
    spans = tracer.spans()
    assert list(spans["parent"]) == [-1, 0, -1]
    tracer.restore()
    assert not hasattr(Box.outer, "__wrapped__")


def test_unreachable_gstop_counts_every_method_as_failed(tmp_path):
    workload = replace(tiny("quad-tall"), gstop=1e-30, max_epochs=1)
    result = bench.measure(workload, seed=1, seconds=0.0, traced=False, work_dir=tmp_path)
    assert result.attempted == len(workload.methods)
    # NIM solves a quadratic exactly in one step; the others stop at max_epochs.
    assert result.failed >= len(workload.methods) - 1
    assert any("max_epochs" in p for p in result.problems)


def test_changed_trace_column_is_a_failure(tmp_path):
    workload = tiny("quad-tall")
    outcome = bench.run_once(workload, workload.config(2, tmp_path / "out"), full=False)
    assert bench.failures(workload, outcome, outcome.hashes) == {}
    tampered = dict(outcome.hashes, **{"IQN.grad_norm": "0" * 64})
    assert set(bench.failures(workload, outcome, tampered)) == {"IQN"}


def test_failed_check_makes_the_command_exit_nonzero(tmp_path, monkeypatch, capsys):
    broken = replace(tiny("quad-tall"), name="broken", gstop=1e-30, max_epochs=1)
    monkeypatch.setitem(WORKLOADS, "broken", broken)
    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.main(["--workload", "broken", "--seed", "1", "--seconds", "0"])
    final = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert final["correct"] is False and final["failed"] >= 1


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "quad-tall", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
