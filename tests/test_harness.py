"""Experiment-runner tests: config grammar, trace files, determinism,
fault isolation between methods, and the plot-table condenser."""

import csv
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from iqnlab import cli, harness, solvers
from iqnlab import matkernel as mk
from iqnlab.cli import main as cli_main
from iqnlab.errors import HarnessError
from iqnlab.harness import (
    ExperimentConfig,
    build_problem,
    config_from_mapping,
    emit_plot_data,
    parse_config_file,
    run_experiment,
)
from iqnlab.objectives import LogisticObjective, QuadraticObjective
from iqnlab.solvers import METHODS, SolverConfig, index_of, make_solver, run_solver

LOGISTIC60 = Path(__file__).parent / "golden" / "logistic60.libsvm"


@pytest.fixture(autouse=True)
def blas_threads():
    """cli.main sets the OpenBLAS thread counts of scipy and numpy
    process-wide; every test here gets back the counts it found."""
    pools = cli._openblas_pools()
    before = [get_threads() for get_threads, _ in pools]
    yield pools
    for (_, set_threads), count in zip(pools, before):
        set_threads(count)


@pytest.fixture
def openblas(blas_threads):
    if len(blas_threads) != 2:
        pytest.skip("scipy and numpy do not both bundle OpenBLAS")
    return blas_threads


def quad_config(tmp_path, **overrides):
    cfg = ExperimentConfig(problem="quadratic", n=6, d=8, xi=1.0, b_max=10.0,
                           methods=("IQN", "SLIQN"), x0_scale=1.0, seed=3,
                           gstop=1e-8, max_epochs=30, out=str(tmp_path / "out"))
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfigParsing:
    def test_key_value_grammar(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# comment\nproblem = quadratic\nn= 4\nd =6\n"
                        "methods = iqn, sliqn\ngstop = 1e-9\n")
        cfg = config_from_mapping(parse_config_file(path))
        assert cfg.problem == "quadratic"
        assert cfg.n == 4 and cfg.d == 6
        assert cfg.methods == ("IQN", "SLIQN")
        assert cfg.gstop == 1e-9

    def test_unknown_key_rejected(self):
        with pytest.raises(HarnessError, match="unknown config key"):
            config_from_mapping({"frobnicate": "1"})

    def test_values_take_the_type_of_their_default(self):
        cfg = config_from_mapping({"xi": "3", "seed": "4", "lam": "0.5",
                                   "track_sigma": "false"})
        assert cfg.xi == 3.0 and isinstance(cfg.xi, float)
        assert cfg.seed == 4 and isinstance(cfg.seed, int)
        assert cfg.lam == "0.5"
        # bool("false") is True; the boolean spellings are parsed instead.
        assert cfg.track_sigma is False
        assert config_from_mapping({"track_sigma": "Yes"}).track_sigma is True

    def test_bad_number_rejected(self):
        with pytest.raises(HarnessError, match="bad value for n: 'abc'"):
            config_from_mapping({"n": "abc"})

    def test_bad_boolean_rejected(self):
        with pytest.raises(HarnessError, match="track_sigma must be boolean"):
            config_from_mapping({"track_sigma": "maybe"})

    def test_unknown_method_rejected(self):
        with pytest.raises(HarnessError, match="unknown method"):
            config_from_mapping({"methods": "SGD"})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(HarnessError, match="cannot read config"):
            parse_config_file(tmp_path / "absent.cfg")

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("problem quadratic\n")
        with pytest.raises(HarnessError, match="exp.cfg:1"):
            parse_config_file(path)


class TestRunExperiment:
    def test_writes_traces_and_summary(self, tmp_path):
        cfg = quad_config(tmp_path)
        summary = run_experiment(cfg, log=lambda *_: None)
        out = Path(cfg.out)
        assert sorted(p.name for p in out.glob("*.csv")) == [
            "IQN.csv", "SLIQN.csv", "summary.csv"]
        rows = read_csv(out / "SLIQN.csv")
        assert list(rows[0]) == ["t", "epoch", "grad_norm", "normalized_error",
                                 "sigma_max", "wall_ms"]
        assert all(row["status"] == "ok" for row in summary)

    def test_exactly_n_rows_when_never_stopping(self, tmp_path):
        cfg = quad_config(tmp_path, gstop=float("inf"), max_epochs=1,
                          methods=("SLIQN",))
        run_experiment(cfg, log=lambda *_: None)
        rows = read_csv(Path(cfg.out) / "SLIQN.csv")
        assert len(rows) == cfg.n
        assert [int(r["t"]) for r in rows] == list(range(1, cfg.n + 1))

    def test_shared_start_point_hash(self, tmp_path):
        cfg = quad_config(tmp_path)
        summary = run_experiment(cfg, log=lambda *_: None)
        hashes = {row["x0_sha256"] for row in summary}
        assert len(hashes) == 1

    def test_deterministic_up_to_wall_time(self, tmp_path):
        first = quad_config(tmp_path, out=str(tmp_path / "a"))
        second = quad_config(tmp_path, out=str(tmp_path / "b"))
        run_experiment(first, log=lambda *_: None)
        run_experiment(second, log=lambda *_: None)
        for name in ("IQN.csv", "SLIQN.csv"):
            rows_a = read_csv(tmp_path / "a" / name)
            rows_b = read_csv(tmp_path / "b" / name)
            assert len(rows_a) == len(rows_b)
            for ra, rb in zip(rows_a, rows_b):
                for col in ("t", "epoch", "grad_norm", "normalized_error",
                            "sigma_max"):
                    assert ra[col] == rb[col], (name, col)

    def test_missing_dataset_fails_before_output(self, tmp_path):
        cfg = quad_config(tmp_path, problem="logistic",
                          data=str(tmp_path / "absent.libsvm"))
        with pytest.raises(HarnessError, match="cannot read dataset"):
            run_experiment(cfg, log=lambda *_: None)
        assert not Path(cfg.out).exists()

    def test_desk_scale_race_orders_methods(self, tmp_path):
        cfg = ExperimentConfig(problem="quadratic", n=20, d=50, xi=2.0,
                               methods=("IQN", "SLIQN"), x0_scale=1.0, seed=7,
                               gstop=1e-10, max_epochs=120,
                               out=str(tmp_path / "race"))
        summary = run_experiment(cfg, log=lambda *_: None)
        by_method = {row["method"]: row for row in summary}
        assert (tmp_path / "race" / "IQN.csv").exists()
        assert (tmp_path / "race" / "SLIQN.csv").exists()
        assert by_method["SLIQN"]["status"] == "ok"
        assert by_method["IQN"]["status"] == "ok"
        assert (float(by_method["SLIQN"]["epochs_to_gstop"])
                <= float(by_method["IQN"]["epochs_to_gstop"]))

    def test_alpha_epsilon_scales_alpha0_by_m_sqrt_l(self, tmp_path):
        # M > 0 on logistic data, so epsilon reaches the lazy scaling: the
        # run writes the trace of alpha0 = M sqrt(L) epsilon, not that of 0.
        traces = {}
        for eps in (0.0, 1e-4):
            cfg = ExperimentConfig(problem="logistic", data=str(LOGISTIC60),
                                   methods=("SLIQN",), x0_scale=0.5, seed=7, gstop=1e-8,
                                   alpha_epsilon=eps, out=str(tmp_path / f"eps{eps}"))
            run_experiment(cfg, log=lambda *_: None)
            traces[eps] = read_csv(Path(cfg.out) / "SLIQN.csv")
        objective, x0, x_star = build_problem(cfg)
        c = objective.constants
        records = solvers.run(objective, x0, SolverConfig(
            method="SLIQN", alpha0=c.M * np.sqrt(c.L) * 1e-4, gstop=1e-8,
            max_epochs=cfg.max_epochs), x_star=x_star)
        columns = [col for col in harness.TRACE_COLUMNS if col != "wall_ms"]
        assert [[row[col] for col in columns] for row in traces[1e-4]] == [
            [harness._fmt(getattr(rec, col)) for col in columns] for rec in records]
        assert len(traces[1e-4]) != len(traces[0.0])

    def test_sigma_column_populated_when_tracked(self, tmp_path):
        cfg = quad_config(tmp_path, track_sigma=True, methods=("SLIQN",),
                          max_epochs=2, gstop=float("inf"))
        run_experiment(cfg, log=lambda *_: None)
        rows = read_csv(Path(cfg.out) / "SLIQN.csv")
        assert all(row["sigma_max"] != "" for row in rows)


def poison_gradient(monkeypatch, value, call=7):
    """Make the call-th component gradient of the experiment return value.
    Every step calls gradient once, so call 7 is step 7 of the first method."""
    real = QuadraticObjective.gradient
    calls = itertools.count(1)
    monkeypatch.setattr(QuadraticObjective, "gradient", lambda self, i, x: (
        np.full(self.d, value) if next(calls) == call else real(self, i, x)))


# Nine rows, one of them a label with no features: its loss term is constant
# and only the regularizer gives that component curvature.
EMPTY_ROW_LIBSVM = """\
0 1:0.749 2:1.635 3:0.273 4:-1.233
0 4:-1.163
1 1:-0.589 3:0.41
1
1 1:-1.289 4:0.021
1 1:-1.355 2:0.225 3:-1.109
0 2:0.033 3:0.044
0 1:0.738 3:-1.099
1 3:0.642
"""


class TestFaultInjection:
    @pytest.mark.parametrize("target", ["IQN", "SIQN", "SLIQN", "GSLIQN", "IGS"])
    def test_nan_gradient_diverges_only_its_method(self, tmp_path, monkeypatch, target):
        poison_gradient(monkeypatch, np.nan)
        methods = (target,) + tuple(m for m in METHODS if m != target)
        summary = run_experiment(quad_config(tmp_path, methods=methods, max_epochs=60),
                                 log=lambda *_: None)
        assert {row["method"]: row["status"] for row in summary} == {
            m: "diverged" if m == target else "ok" for m in methods}

    @pytest.mark.parametrize("target", ["IQN", "SIQN", "SLIQN", "GSLIQN", "IGS"])
    def test_inf_gradient_fails_only_its_method(self, tmp_path, monkeypatch, target):
        # An infinite y fails the classic stage's guard as a typed error;
        # IGS has no classic stage and diverges instead.
        poison_gradient(monkeypatch, np.inf)
        methods = (target,) + tuple(m for m in METHODS if m != target)
        cfg = quad_config(tmp_path, methods=methods, max_epochs=60)
        if target == "IGS":
            run_experiment(cfg, log=lambda *_: None)
        else:
            with pytest.raises(HarnessError, match=f"^{target}: step t=7 failed: BFGS"):
                run_experiment(cfg, log=lambda *_: None)
        status = {row["method"]: row["status"]
                  for row in read_csv(Path(cfg.out) / "summary.csv")}
        assert status.pop(target).startswith(
            "diverged" if target == "IGS" else "error: step t=7 failed")
        assert set(status.values()) == {"ok"}

    def test_libsvm_row_without_features_converges(self, tmp_path):
        data = tmp_path / "empty-row.libsvm"
        data.write_text(EMPTY_ROW_LIBSVM)
        cfg = ExperimentConfig(problem="logistic", data=str(data), methods=METHODS,
                               x0_scale=0.5, seed=5, gstop=1e-8, max_epochs=100,
                               out=str(tmp_path / "out"))
        summary = run_experiment(cfg, log=lambda *_: None)
        assert [row["status"] for row in summary] == ["ok"] * len(METHODS)
        assert all(float(row["final_grad_norm"]) < 1e-8 for row in summary)

    @staticmethod
    def assert_cli_run_fails(tmp_path, capsys, message):
        path = tmp_path / "exp.cfg"
        path.write_text(f"problem = logistic\ndata = {LOGISTIC60}\nx0_scale = 0.5\n"
                        f"seed = 7\nout = {tmp_path / 'out'}\n")
        assert cli_main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_nan_full_gradient_stops_the_reference_run(self, tmp_path, monkeypatch, capsys):
        # The Newton run that finds the logistic x* ends at the first
        # non-finite stopping-rule norm instead of stepping through its cap.
        fault, calls, real = 3, [], LogisticObjective.full_gradient

        def poisoned(self, x):
            calls.append(1)
            return np.full(self.d, np.nan) if len(calls) >= fault else real(self, x)
        monkeypatch.setattr(LogisticObjective, "full_gradient", poisoned)
        cfg = ExperimentConfig(problem="logistic", data=str(LOGISTIC60), x0_scale=0.5,
                               seed=7)
        message = "reference Newton run did not reach 1e-12 (got nan after 2 iterations)"
        with pytest.raises(HarnessError, match=re.escape(message)):
            build_problem(cfg)
        assert len(calls) == fault

        calls.clear()
        self.assert_cli_run_fails(tmp_path, capsys, message)
        assert len(calls) == fault

    def test_reference_run_cap_names_the_norm_reached(self, tmp_path, monkeypatch, capsys):
        # logistic60 from this start needs 5 iterations; after 2 the
        # averaged gradient norm is 4.639e-03.
        monkeypatch.setattr(harness, "REFERENCE_MAX_NEWTON_ITERATIONS", 2)
        cfg = ExperimentConfig(problem="logistic", data=str(LOGISTIC60), x0_scale=0.5,
                               seed=7)
        message = "reference Newton run did not reach 1e-12 (got 4.639e-03 after 2 iterations)"
        with pytest.raises(HarnessError, match=re.escape(message)):
            build_problem(cfg)
        self.assert_cli_run_fails(tmp_path, capsys, message)


# Four rows in d = 5: Z^T W Z has rank at most 4, so the Hessian at the
# origin, where the regularizer adds no curvature, is singular.
FOUR_ROW_LIBSVM = """\
1 1:0.5 3:-1.2
0 2:0.7 4:0.3 5:1.1
1 1:-0.4 5:0.9
0 3:0.8 4:-0.6
"""


def nim_minimizer(objective, x0):
    """x* by a NIM run to the reference run's rule: the cross-check."""
    solver = make_solver(objective, x0, SolverConfig(
        method="NIM", gstop=harness.REFERENCE_GSTOP, max_epochs=200))
    assert run_solver(solver)[-1].grad_norm < harness.REFERENCE_GSTOP
    return solver.z[index_of(solver.t, objective.n)]


def averaged_gradient_norm(objective, x):
    return np.linalg.norm(objective.full_gradient(x)) / objective.n


class TestReferenceMinimizer:
    def logistic(self, data=LOGISTIC60, x0_scale=0.5, seed=7):
        return ExperimentConfig(problem="logistic", data=str(data), x0_scale=x0_scale,
                                seed=seed)

    def test_builds_no_solver(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("build_problem constructed a solver")
        monkeypatch.setattr(solvers, "make_solver", refuse)
        objective, _, x_star = build_problem(self.logistic())
        assert averaged_gradient_norm(objective, x_star) < harness.REFERENCE_GSTOP

    def test_meets_the_rule_and_agrees_with_nim(self):
        objective, x0, x_star = build_problem(self.logistic())
        assert averaged_gradient_norm(objective, x_star) < harness.REFERENCE_GSTOP
        x_nim = nim_minimizer(objective, x0)
        assert np.linalg.norm(x_star - x_nim) <= 1e-9 * np.linalg.norm(x_nim)

    @pytest.mark.parametrize("data", ["logistic60", "four-row"])
    def test_origin_start_damps_the_first_step(self, tmp_path, monkeypatch, data):
        path = LOGISTIC60
        if data == "four-row":
            path = tmp_path / "four.libsvm"
            path.write_text(FOUR_ROW_LIBSVM)
        solved, real = [], mk.cholesky_solve

        def spy(m, b):
            solved.append(m.copy())
            return real(m, b)
        monkeypatch.setattr(mk, "cholesky_solve", spy)
        objective, x0, x_star = build_problem(self.logistic(path, x0_scale=0.0))
        assert not x0.any()
        # At the origin c1 = c2 = 0: the undamped Hessian is Z^T W Z alone,
        # finite, and singular for the four rows.
        _, undamped = objective.newton_system(x0)
        eigenvalues = np.linalg.eigvalsh(undamped)
        assert np.isfinite(eigenvalues).all()
        if data == "four-row":
            assert abs(eigenvalues[0]) < 1e-12 * eigenvalues[-1]
        damping = objective.n * objective.constants.mu * np.eye(objective.d)
        assert np.array_equal(solved[0], undamped + damping)
        assert averaged_gradient_norm(objective, x_star) < harness.REFERENCE_GSTOP
        x_nim = nim_minimizer(objective, x0)
        assert np.linalg.norm(x_star - x_nim) <= 1e-9 * np.linalg.norm(x_nim)

    def log_calls(self, monkeypatch):
        """Wrap newton_system and full_gradient; returns the call log, one
        ("value", F) or ("gradient", None) entry per call."""
        log = []
        real_system, real_gradient = (LogisticObjective.newton_system,
                                      LogisticObjective.full_gradient)

        def system(self, x):
            value, hessian = real_system(self, x)
            log.append(("value", value))
            return value, hessian

        def gradient(self, x):
            log.append(("gradient", None))
            return real_gradient(self, x)
        monkeypatch.setattr(LogisticObjective, "newton_system", system)
        monkeypatch.setattr(LogisticObjective, "full_gradient", gradient)
        return log

    def test_a_far_start_backtracks(self, monkeypatch):
        log = self.log_calls(monkeypatch)
        objective, _, x_star = build_problem(self.logistic(x0_scale=2.0, seed=0))
        # One value per iteration and the start; one more per halving.
        gradients = sum(kind == "gradient" for kind, _ in log)
        assert len(log) - 2 * gradients == 1
        assert averaged_gradient_norm(objective, x_star) < harness.REFERENCE_GSTOP

    def test_a_decrease_below_the_value_resolution_takes_the_whole_step(self, monkeypatch):
        # From this start the run reaches steps whose predicted decrease is
        # ~1e-17 against F ~ 26: the value of the unit step rounds above F,
        # so the Armijo comparison alone would halve it away.
        log = self.log_calls(monkeypatch)
        objective, _, x_star = build_problem(self.logistic(x0_scale=5.0))
        accepted = [value for (kind, value), (after, _) in zip(log, log[1:])
                    if kind == "value" and after == "gradient"]
        assert len(log) == 2 * len(accepted)  # no halving
        assert any(b > a for a, b in zip(accepted, accepted[1:]))
        assert averaged_gradient_norm(objective, x_star) < harness.REFERENCE_GSTOP

    def test_indefinite_hessian_is_named(self, monkeypatch):
        monkeypatch.setattr(LogisticObjective, "newton_system",
                            lambda self, x: (1.0, -np.eye(self.d)))
        with pytest.raises(HarnessError, match="^reference Newton run, iteration 0: "
                                               "aggregate solve failed"):
            build_problem(self.logistic())

    def test_no_decreasing_step_length_is_named(self, monkeypatch):
        real, calls = LogisticObjective.newton_system, []

        def no_decrease(self, x):
            calls.append(1)
            value, hessian = real(self, x)
            return (value if len(calls) == 1 else np.nan), hessian
        monkeypatch.setattr(LogisticObjective, "newton_system", no_decrease)
        with pytest.raises(HarnessError, match="^reference Newton run, iteration 0: no step "
                                               "length down to 8.9e-16"):
            build_problem(self.logistic())
        assert len(calls) == 52


class TestEmitPlotData:
    def test_one_row_per_epoch_last_iterate(self, tmp_path):
        trace = tmp_path / "M.csv"
        with open(trace, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "epoch", "grad_norm", "normalized_error",
                             "sigma_max", "wall_ms"])
            for t, epoch, err in [(1, 1, 0.9), (2, 1, 0.8), (3, 2, 0.5),
                                  (4, 2, 0.4), (5, 3, 0.0)]:
                writer.writerow([t, epoch, 1.0, err, "", 0.1])
        rows = emit_plot_data([trace], tmp_path / "plot.csv")
        assert rows == [("M", 1, 0.8), ("M", 2, 0.4), ("M", 3, 1e-16)]

    def test_methods_keep_input_order(self, tmp_path):
        for name, err in (("B", 0.5), ("A", 0.25)):
            with open(tmp_path / f"{name}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t", "epoch", "grad_norm", "normalized_error",
                                 "sigma_max", "wall_ms"])
                writer.writerow([1, 1, 1.0, err, "", 0.1])
        rows = emit_plot_data([tmp_path / "B.csv", tmp_path / "A.csv"],
                              tmp_path / "plot.csv")
        assert [r[0] for r in rows] == ["B", "A"]


class TestCli:
    def test_pins_one_blas_thread_when_unset(self, openblas, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        for _, set_threads in openblas:
            set_threads(2)
        cli.pin_blas_threads()
        assert [get_threads() for get_threads, _ in openblas] == [1, 1]

    def test_leaves_blas_threads_to_the_variable(self, openblas, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        for _, set_threads in openblas:
            set_threads(2)
        cli.pin_blas_threads()
        assert [get_threads() for get_threads, _ in openblas] == [2, 2]

    def test_run_traces_do_not_depend_on_the_host_thread_count(self, tmp_path):
        # At d >= 256, dsymv, dposv and dpotrf return other bits with two
        # BLAS threads than with one, so a trace is reproducible only if the
        # CLI pins both OpenBLAS pools when OPENBLAS_NUM_THREADS is unset.
        # On a 1-CPU host both runs use one thread and this passes trivially.
        src = str(Path(__file__).resolve().parent.parent / "src")
        columns = {}
        for threads in (None, "1"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"out-{threads}"
            cfg = tmp_path / f"exp-{threads}.cfg"
            cfg.write_text("problem = quadratic\nn = 4\nd = 256\nxi = 2\n"
                           "methods = SLIQN, NIM\ngstop = 1e-300\nmax_epochs = 3\n"
                           f"out = {out}\n")
            subprocess.run([sys.executable, "-m", "iqnlab.cli", "run", "--config", str(cfg)],
                           env=env, check=True, capture_output=True, timeout=300)
            columns[threads] = {
                method: [{k: v for k, v in row.items() if k != "wall_ms"}
                         for row in read_csv(out / f"{method}.csv")]
                for method in ("SLIQN", "NIM")}
        assert all(len(rows) == 12 for rows in columns["1"].values())
        assert columns[None] == columns["1"]

    def test_run_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = quadratic\nn = 4\nd = 6\nxi = 1.0\n"
                       "b_max = 10\nmethods = SLIQN\ngstop = 1e-8\n"
                       f"max_epochs = 30\nout = {tmp_path / 'out'}\n")
        assert cli_main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "SLIQN.csv").exists()
        assert "SLIQN" in capsys.readouterr().out

    def test_run_tiny_tau_races_both_methods_to_the_summary(self, tmp_path):
        # At tau = 1e-156 a cross term's coefficient is ~1e-156: the chain
        # must take it as it is, and neither method may take the race down.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = quadratic\nn = 4\nd = 6\nxi = 1\n"
                       "methods = GSLIQN, SLIQN\ntau1 = 1e-156\ntau2 = 1e-156\n"
                       f"max_epochs = 3\nout = {tmp_path / 'out'}\n")
        assert cli_main(["run", "--config", str(cfg)]) == 0
        rows = read_csv(tmp_path / "out" / "summary.csv")
        assert [row["method"] for row in rows] == ["GSLIQN", "SLIQN"]

    def test_run_missing_dataset_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = logistic\ndata = /nonexistent/p.libsvm\n"
                       f"methods = SLIQN\nout = {tmp_path / 'out'}\n")
        assert cli_main(["run", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["tau1 = 2.0", "alpha_epsilon = -1",
                                         "refresh_period = -1"])
    def test_run_bad_solver_setting_exits_before_output(self, tmp_path, capsys, setting):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = quadratic\nn = 4\nd = 6\nmethods = GSLIQN\n"
                       f"{setting}\nout = {tmp_path / 'out'}\n")
        assert cli_main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid solver settings")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    # A non-finite lam or p is named, not left to fail the reference Newton run.
    # Labels with no features give d = 0, which failed inside the first BLAS
    # call; a repeated method overwrote its own trace.
    SETTINGS = {"lam": ("lam = abc", "lam must be"),
                "lam-inf": ("lam = inf", "lam must be positive and finite"),
                "p-inf": ("p = inf", "regularizer exponent p must be finite"),
                "no-features": ("lam = auto", "train.libsvm has no features (d = 0)"),
                "duplicate-methods": ("methods = iqn,IQN", "methods lists IQN more than once")}
    DATA = {"data-bytes": b"+1 1:0.5\n-1 2:\xff\n", "no-features": b"1\n0\n1\n"}

    @pytest.mark.parametrize("case", ["lam", "config-bytes", "data-bytes", "lam-inf", "p-inf",
                                      "no-features", "duplicate-methods"])
    def test_run_bad_input_exits_before_output(self, tmp_path, capsys, case):
        data = tmp_path / "train.libsvm"
        data.write_bytes(self.DATA.get(case, b"+1 1:0.5\n"))
        setting, named = self.SETTINGS.get(case, ("lam = auto", ""))
        text = (f"problem = logistic\ndata = {data}\nmethods = IQN\n"
                f"{setting}\nout = {tmp_path / 'out'}\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(text.encode() + (b"# \xe9\n" if case == "config-bytes" else b""))
        assert cli_main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    # A LIBSVM index of 10^12 asked initial_point for 7.28 TiB. The tests
    # inject the MemoryError: on a host that overcommits memory a real
    # request of that size can succeed and then page in gigabytes.
    @pytest.mark.parametrize("problem", [f"logistic\ndata = {LOGISTIC60}",
                                         "quadratic\nn = 4\nd = 6"],
                             ids=["logistic", "quadratic"])
    def test_run_unallocatable_problem_exits_before_output(self, tmp_path, capsys,
                                                           monkeypatch, problem):
        def no_memory(d, alpha_scale, seed):
            raise MemoryError(f"Unable to allocate an array with shape ({d},)")

        monkeypatch.setattr(harness, "initial_point", no_memory)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"problem = {problem}\nmethods = IQN\nout = {tmp_path / 'out'}\n")
        assert cli_main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        size = "N = 60 and d = 12" if "logistic" in problem else "N = 4 and d = 6"
        assert err.startswith("error:") and f"{size} does not fit in memory" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_run_unallocatable_method_fails_alone(self, tmp_path, capsys, monkeypatch):
        # A quadratic with n = 1, d = 10^6 asked for a 7.28 TiB curvature stack.
        def no_memory(self, x0):
            raise MemoryError("Unable to allocate the curvature stack")

        monkeypatch.setattr(solvers.IqnSolver, "_initial_curvature", no_memory)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = quadratic\nn = 4\nd = 6\nmethods = IQN, SLIQN\n"
                       f"out = {tmp_path / 'out'}\n")
        assert cli_main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: IQN: out of memory at N = 4, d = 6")
        assert "Traceback" not in err
        rows = read_csv(tmp_path / "out" / "summary.csv")
        assert [row["method"] for row in rows] == ["IQN", "SLIQN"]
        assert rows[0]["status"].startswith("error: out of memory")
        assert rows[1]["status"] == "ok"
        assert not (tmp_path / "out" / "IQN.csv").exists()
        assert (tmp_path / "out" / "SLIQN.csv").exists()

    def test_run_overflowing_constants_exit_before_output(self, tmp_path, capsys):
        # mu = lam p / 2 ~ 1e-250 overflows mu^(-3/2) in M = L_tilde mu^(-3/2).
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"problem = logistic\ndata = {LOGISTIC60}\n"
                       f"methods = IQN\nlam = 1e-250\nout = {tmp_path / 'out'}\n")
        assert cli_main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: M = L_tilde * mu^(-3/2) overflows")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("problem, setting, flags", [
        # Logistic for the seed: its start point is drawn with no GeneratorSpec
        # to check it. Quadratic for x0_scale: the logistic reference Newton
        # run would fail on a non-finite start anyway.
        (f"logistic\ndata = {LOGISTIC60}", "", ["--seed", "-1"]),
        ("quadratic\nn = 4\nd = 6", "x0_scale = nan", []),
        ("quadratic\nn = 4\nd = 6", "x0_scale = inf", [])],
        ids=["seed-negative", "x0_scale-nan", "x0_scale-inf"])
    def test_run_bad_seed_or_start_exits_before_output(self, tmp_path, capsys, problem,
                                                       setting, flags):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"problem = {problem}\nmethods = IQN\n{setting}\n"
                       f"out = {tmp_path / 'out'}\n")
        assert cli_main(["run", "--config", str(cfg), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_run_alpha_mode_is_an_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = quadratic\nn = 4\nd = 6\nmethods = SLIQN\n"
                       f"alpha_mode = geometric\nout = {tmp_path / 'out'}\n")
        assert cli_main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config key 'alpha_mode'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [["--xi", "700"], ["--xi", "1", "--seed", "-3"]],
                             ids=["xi-700", "seed-negative"])
    def test_gen_quadratic_overflowing_xi_exits_nonzero(self, tmp_path, capsys, args):
        out = tmp_path / "quad.npz"
        assert cli_main(["gen-quadratic", "--n", "2", "--d", "4", *args,
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not out.exists()

    def test_gen_quadratic_subcommand(self, tmp_path):
        out = tmp_path / "quad.npz"
        assert cli_main(["gen-quadratic", "--n", "3", "--d", "4", "--xi", "1.5",
                         "--seed", "2", "--out", str(out)]) == 0
        data = np.load(out)
        assert data["a_diag"].shape == (3, 4)
        assert data["b"].shape == (3, 4)
        # regeneration with the same seed is identical
        out2 = tmp_path / "quad2.npz"
        cli_main(["gen-quadratic", "--n", "3", "--d", "4", "--xi", "1.5",
                  "--seed", "2", "--out", str(out2)])
        np.testing.assert_array_equal(data["a_diag"], np.load(out2)["a_diag"])
