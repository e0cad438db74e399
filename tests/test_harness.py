"""Experiment-runner tests: config grammar, trace files, determinism,
fault isolation between methods, and the plot-table condenser."""

import csv
import itertools
from pathlib import Path

import numpy as np
import pytest

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
from iqnlab.solvers import METHODS

LOGISTIC60 = Path(__file__).parent / "golden" / "logistic60.libsvm"


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


    def test_nan_gradient_stops_the_reference_run(self, tmp_path, monkeypatch, capsys):
        # The NIM run that finds the logistic x* ends at the first non-finite
        # stopping-rule norm instead of stepping through its whole budget.
        fault, calls, real = 80, [], LogisticObjective.gradient

        def poisoned(self, i, x):
            calls.append(i)
            return np.full(self.d, np.nan) if len(calls) >= fault else real(self, i, x)
        monkeypatch.setattr(LogisticObjective, "gradient", poisoned)
        cfg = ExperimentConfig(problem="logistic", data=str(LOGISTIC60), x0_scale=0.5,
                               seed=7)
        with pytest.raises(HarnessError, match="reference NIM run did not reach"):
            build_problem(cfg)
        assert fault <= len(calls) <= fault + 3

        calls.clear()
        path = tmp_path / "exp.cfg"
        path.write_text(f"problem = logistic\ndata = {LOGISTIC60}\nx0_scale = 0.5\n"
                        f"seed = 7\nout = {tmp_path / 'out'}\n")
        assert cli_main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: reference NIM run")
        assert len(calls) <= fault + 3
        assert not (tmp_path / "out").exists()


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
    def test_run_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = quadratic\nn = 4\nd = 6\nxi = 1.0\n"
                       "b_max = 10\nmethods = SLIQN\ngstop = 1e-8\n"
                       f"max_epochs = 30\nout = {tmp_path / 'out'}\n")
        assert cli_main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "SLIQN.csv").exists()
        assert "SLIQN" in capsys.readouterr().out

    def test_run_missing_dataset_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = logistic\ndata = /nonexistent/p.libsvm\n"
                       f"methods = SLIQN\nout = {tmp_path / 'out'}\n")
        assert cli_main(["run", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["tau1 = 2.0", "alpha_mode = geometric",
                                         "alpha_mode = sometimes", "refresh_period = -1"])
    def test_run_bad_solver_setting_exits_before_output(self, tmp_path, capsys, setting):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = quadratic\nn = 4\nd = 6\nmethods = GSLIQN\n"
                       f"{setting}\nout = {tmp_path / 'out'}\n")
        assert cli_main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid solver settings")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

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
