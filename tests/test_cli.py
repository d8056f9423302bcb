import argparse
import contextlib
import io
import json
import os
import re
import shlex
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eps_planner import trainer
from eps_planner.cli import (
    _long_flags, _with_config, build_parser, run_cli, sample_counts, targets_spec,
)
from eps_planner.data import gen_synthetic, write_csv_dataset
from eps_planner.errors import UsageError
from eps_planner.experiments import DEFAULT_TARGETS_LOW, ExperimentConfig, SyntheticSpec


class TestTargetsSpec:
    def test_comma_list(self):
        assert targets_spec("0.1,0.5,1.0") == (0.1, 0.5, 1.0)

    def test_inclusive_range_low_grid(self):
        assert targets_spec("0.05:1.0:0.05") == DEFAULT_TARGETS_LOW
        assert len(DEFAULT_TARGETS_LOW) == 20

    def test_inclusive_range_high_grid(self):
        assert targets_spec("1.0:10.0:0.5") == tuple(1.0 + 0.5 * i for i in range(19))

    def test_rejects_malformed(self):
        for bad in ("0.5:0.1:0.05", "1:2", "a,b", "-1,2", ",",
                    "0.1,inf", "nan", "0.1:inf:0.1", "nan:1:0.1", "0.1:1.0:nan",
                    # rounding the points to 10 decimals would move them
                    "1.5e-10:4.5e-10:1.5e-10", "1e-11:1e-10:1e-11"):
            with pytest.raises(argparse.ArgumentTypeError):
                targets_spec(bad)


class TestUnsortedTargets:
    """A comma list of targets out of ascending order is a usage error
    naming --targets, before any training: it named no flag, nor the
    config file and line it came from."""

    def test_flag(self, capsys):
        before = trainer.TRAIN_CALL_COUNT
        assert run_cli(["estimate", "--synthetic", "200,3,2.0", "--targets", "0.5,0.1",
                        "--repeats", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: eps-planner estimate: argument --targets: '0.5,0.1' is not in ascending order\n"
        )
        assert trainer.TRAIN_CALL_COUNT == before

    def test_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("repeats=1\ntargets=0.5,0.1\n")
        assert run_cli(["--config", str(cfg), "estimate", "--synthetic", "200,3,2.0"]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: argument --targets: '0.5,0.1' is not in ascending order\n"
        )


class TestSampleCounts:
    def test_comma_list(self):
        assert sample_counts("100, 200,4000") == (100, 200, 4000)

    def test_rejects_fractions_and_non_positive(self):
        for bad in ("100.9,200.2", "0,100", "-5", "", "a,b"):
            with pytest.raises(argparse.ArgumentTypeError):
                sample_counts(bad)


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    write_csv_dataset(gen_synthetic(300, 4, 1.5, 7), str(path))
    return str(path)


class TestGenData:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        out = tmp_path / "gen.csv"
        code = run_cli(["gen-data", "--n", "50", "--p", "3", "--separation", "1.0",
                        "--seed", "4", "--out", str(out)])
        assert code == 0
        assert "50 x 3" in capsys.readouterr().out
        from eps_planner.data import load_dataset

        d = load_dataset(str(out), "csv")
        assert (d.n, d.p) == (50, 3)


class TestTrain:
    def test_happy_path(self, data_csv, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = run_cli(["train", "--data", data_csv, "--loss", "logistic",
                        "--eps", "0.5", "--delta", "1e-3", "--seed", "3",
                        "--solver", "exact", "--out", str(out)])
        assert code == 0
        assert "trained at eps=0.5" in capsys.readouterr().out
        summary = json.loads(out.read_text())
        assert summary["result"]["grad_norm_at_solution"] <= 1e-8
        assert summary["versions"]["eps_planner"]

    def test_synthetic_source(self, capsys):
        code = run_cli(["train", "--synthetic", "200,3,1.5", "--eps", "1.0",
                        "--seed", "2", "--solver", "exact"])
        assert code == 0


class TestUsageErrors:
    def test_negative_eps_names_flag(self, data_csv, capsys):
        code = run_cli(["train", "--data", data_csv, "--eps", "-1"])
        assert code == 1
        assert "--eps" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert run_cli(["frobnicate"]) == 1

    def test_missing_required(self, capsys):
        assert run_cli(["train", "--synthetic", "100,3,1.0"]) == 1
        assert "--eps" in capsys.readouterr().err


NON_FINITE_FLAGS = [
    ("choose-eps", "--reg-lambda", "nan"),
    ("choose-eps", "--reg-lambda", "inf"),
    ("choose-eps", "--reg-lambda", "-0.5"),
    ("choose-eps", "--target-utility", "nan"),
    ("choose-eps", "--target-utility", "-inf"),
    ("choose-eps", "--measure-eps", "inf"),
    ("choose-eps", "--measure-eps", "nan"),
    ("choose-eps", "--delta", "inf"),
    ("choose-eps", "--huber-h", "nan"),
    ("choose-eps", "--smooth-t", "inf"),
    ("train", "--eps", "inf"),
    ("train", "--eps", "nan"),
    ("estimate", "--measure-eps", "0.1,inf"),
    ("estimate", "--targets", "0.1,inf"),
    ("estimate", "--targets", "0.1:inf:0.1"),
    ("estimate", "--targets", "0.1:1.0:nan"),
    ("train", "--synthetic", "200,3,nan"),
    ("train", "--synthetic", "200,3,inf"),
    ("gen-data", "--separation", "nan"),
    ("gen-data", "--separation", "inf"),
]

_TRAINING = {"--synthetic": "200,3,1.5", "--solver": "exact", "--seed": "1"}

# every other flag the command requires, so only the flag under test is bad
_REQUIRED = {
    "choose-eps": {**_TRAINING, "--target-utility": "0.5"},
    "train": {**_TRAINING, "--eps": "0.5"},
    "estimate": _TRAINING,
    "gen-data": {"--n": "50", "--p": "3", "--out": os.devnull},
}


def _argv_with(command, flag, value):
    flags = {**_REQUIRED[command], flag: value}
    return [command, *(f"{key}={val}" for key, val in flags.items())]


class TestNonFiniteFlags:
    """A non-finite or out-of-range number is a usage error naming the flag,
    not a numerical failure of the run it would have started."""

    @pytest.mark.parametrize("command,flag,value", NON_FINITE_FLAGS)
    def test_typed_flag_is_usage_error(self, command, flag, value, capsys):
        assert run_cli(_argv_with(command, flag, value)) == 1
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,value", NON_FINITE_FLAGS)
    def test_config_line_is_usage_error(self, command, flag, value, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{flag[2:]}={value}\n")
        argv = [a for a in _argv_with(command, flag, value) if not a.startswith(flag + "=")]
        assert run_cli(["--config", str(cfgfile), *argv]) == 1
        err = capsys.readouterr().err
        assert f"run.cfg:1: argument {flag}:" in err

    def test_zero_reg_lambda_is_accepted(self, capsys):
        assert run_cli(_argv_with("train", "--reg-lambda", "0")) == 0


class TestDataErrors:
    def test_missing_file_is_exit_2(self, capsys):
        code = run_cli(["train", "--data", "/nonexistent/x.csv", "--eps", "1.0"])
        assert code == 2

    def test_config_error_comes_before_reading_the_file(self, capsys):
        code = run_cli(["estimate", "--data", "/nonexistent/x.csv", "--targets", "0.5,0.2"])
        assert code == 1
        assert "argument --targets: '0.5,0.2' is not in ascending order" in capsys.readouterr().err

    def test_bad_label_is_exit_2(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_text("f1,label\n0.5,maybe\n")
        code = run_cli(["train", "--data", str(f), "--eps", "1.0"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_inf_feature_is_exit_2(self, tmp_path, capsys):
        f = tmp_path / "inf.csv"
        f.write_text("f1,f2,label\n0.5,0.1,1\ninf,0.2,-1\n")
        code = run_cli(["train", "--data", str(f), "--eps", "1.0"])
        assert code == 2
        assert "non-finite feature value at row 1" in capsys.readouterr().err

    def test_entries_whose_squares_overflow_load(self, tmp_path, capsys):
        """Row norms of 1e200 entries overflow; the file still loads."""
        f = tmp_path / "big.csv"
        f.write_text("f1,f2,label\n1e200,1e200,1\n0.5,0.5,-1\n")
        code = run_cli(["choose-eps", "--data", str(f), "--measure-eps", "0.25",
                        "--target-utility", "0.5", "--seed", "1"])
        assert code == 0
        assert "chosen_eps" in capsys.readouterr().out

    @pytest.mark.parametrize("format, text", [
        ("csv", "label\n1\n-1\n"),
        ("sparse_text", "1\n-1\n"),
    ])
    def test_labels_without_features_are_exit_2(self, tmp_path, capsys, format, text):
        f = tmp_path / "nofeat"
        f.write_text(text)
        code = run_cli(["train", "--data", str(f), "--format", format, "--eps", "0.5"])
        assert code == 2
        assert capsys.readouterr().err == "data error: no feature columns\n"


class TestUnwritableOut:
    @pytest.mark.parametrize("argv", [
        ["gen-data", "--n", "20", "--p", "2"],
        ["train", "--synthetic", "150,3,1.5", "--eps", "0.5"],
        ["choose-eps", "--synthetic", "150,3,1.5", "--target-utility", "0.6"],
        ["estimate", "--synthetic", "150,3,1.5", "--measure-eps", "0.5",
         "--targets", "0.5,1.0", "--repeats", "1"],
    ])
    def test_is_one_line_usage_error(self, tmp_path, capsys, argv):
        """Reported before any model is trained or result printed."""
        out = str(tmp_path / "missing" / "out")
        before = trainer.TRAIN_CALL_COUNT
        assert run_cli(argv + ["--out", out]) == 1
        assert trainer.TRAIN_CALL_COUNT == before
        assert capsys.readouterr() == (
            "", f"error: cannot write {out}: No such file or directory\n"
        )

    def test_check_creates_and_truncates_nothing(self, tmp_path, capsys):
        """A run that fails after the check leaves an existing --out as it
        was and makes no new file."""
        old = tmp_path / "old.json"
        old.write_text("kept\n")
        for out in (old, tmp_path / "new.json"):
            code = run_cli(["choose-eps", "--data", str(tmp_path / "absent.csv"),
                            "--target-utility", "0.5", "--out", str(out)])
            assert code == 2
        assert "cannot read" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["old.json"]
        assert old.read_text() == "kept\n"


class TestNumericalErrors:
    def test_unreachable_utility_is_exit_3(self, data_csv, capsys):
        # this instance has a negative slope at seed 1, so a loss target of
        # 50 inverts to a nonpositive budget
        code = run_cli(["choose-eps", "--data", data_csv, "--measure-eps", "0.25",
                        "--delta", "1e-3", "--target-utility", "50",
                        "--seed", "1", "--solver", "exact"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["exact", "sgd"])
    def test_indefinite_system_is_exit_3(self, data_csv, monkeypatch, capsys, solver):
        from eps_planner import sensitivity

        monkeypatch.setattr(sensitivity, "hessian", lambda spec, m, d: -np.eye(d.p))
        code = run_cli(["choose-eps", "--data", data_csv, "--measure-eps", "0.25",
                        "--delta", "1e-3", "--target-utility", "0.40",
                        "--seed", "7", "--solver", solver])
        assert code == 3
        assert "not positive definite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train", "--eps", "1e-300"],
        ["train", "--eps", "1e300"],
        ["choose-eps", "--measure-eps", "1e-300", "--target-utility", "0.5"],
        ["estimate", "--measure-eps", "1e-300", "--repeats", "1", "--targets", "0.5,1"],
    ])
    def test_extreme_budget_is_exit_3(self, argv, capsys):
        """A budget whose square leaves the float range is one numerical
        failure line, not a traceback."""
        code = run_cli(argv + ["--synthetic", "300,3,2.0"])
        assert code == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"numerical failure: eps=1e[-+]300 is too extreme: .*\n", err)

    @pytest.mark.parametrize("solver, message", [
        ("exact", "non-finite objective at exact-solver step 0"),
        ("sgd", "non-finite iterate at sgd step 2 of run 0"),
    ])
    @pytest.mark.parametrize("argv", [
        ["train", "--eps", "1.5e-153"],
        ["choose-eps", "--measure-eps", "1.5e-153", "--target-utility", "0.5"],
    ])
    def test_overflowing_training_is_one_line(self, argv, solver, message, capsys):
        """A noise scale near 1.7e155, about the largest whose derivatives
        stay finite, overflows the gradient norm on three rows at the
        start point, and with a ridge of 1e300 the second sgd iterate. The
        solver's finiteness check reports it as the only stderr line,
        with no numpy RuntimeWarning before it (under pytest's warning
        filter such a warning is an error)."""
        code = run_cli(argv + ["--synthetic", "3,3,2.0", "--delta", "1e-300",
                               "--reg-lambda", "1e300", "--solver", solver])
        assert code == 3
        assert capsys.readouterr().err == f"numerical failure: {message}\n"

    @pytest.mark.parametrize("solver", ["exact", "sgd"])
    def test_noise_terms_out_of_float_range_is_one_line(self, solver, capsys):
        """At eps 7e-154 the derivatives are finite but sigma' * u is not:
        one numerical failure line, with no numpy RuntimeWarning before it."""
        code = run_cli(["choose-eps", "--measure-eps", "7e-154", "--delta", "1e-300",
                        "--target-utility", "0.5", "--synthetic", "300,3,2.0",
                        "--seed", "0", "--solver", solver])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: eps=7e-154 is too extreme: its noise terms leave the float range\n"
        )

    def test_indefinite_newton_matrix_is_exit_3(self, data_csv, monkeypatch, capsys):
        from eps_planner import trainer

        monkeypatch.setattr(trainer, "hessian", lambda spec, m, d: -np.eye(d.p))
        code = run_cli(["train", "--data", data_csv, "--eps", "0.5", "--seed", "3",
                        "--solver", "exact"])
        assert code == 3
        assert "Newton matrix is not positive definite" in capsys.readouterr().err


class TestChooseEps:
    def test_happy_path_prints_line(self, data_csv, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code = run_cli(["choose-eps", "--data", data_csv, "--measure-eps", "0.25",
                        "--delta", "1e-3", "--target-utility", "0.40", "--seed", "7",
                        "--solver", "exact", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "chosen_eps:" in printed
        assert "slope=" in printed
        assert "remainder_scale:" in printed
        summary = json.loads(out.read_text())
        assert summary["result"]["chosen_eps"] > 0

    def test_default_solver_is_exact(self, data_csv, capsys):
        args = ["choose-eps", "--data", data_csv, "--measure-eps", "0.25",
                "--delta", "1e-3", "--target-utility", "0.40", "--seed", "7"]
        assert run_cli(args) == 0
        default = capsys.readouterr().out
        assert run_cli(args + ["--solver", "exact"]) == 0
        assert default == capsys.readouterr().out
        assert run_cli(args + ["--solver", "sgd"]) == 0
        assert default != capsys.readouterr().out

    def test_several_measure_eps_is_usage_error(self, data_csv, capsys):
        code = run_cli(["choose-eps", "--data", data_csv, "--measure-eps", "0.25,0.5",
                        "--target-utility", "0.40", "--seed", "7", "--solver", "exact"])
        assert code == 1
        assert "--measure-eps" in capsys.readouterr().err

    def test_magnitude_gap_reported_once(self, tmp_path, capsys):
        """The gap is one stdout line and a summary field; no Python
        warning reaches stderr."""
        out = tmp_path / "plan.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(["choose-eps", "--synthetic", "2000,10,2.0", "--seed", "7",
                            "--measure-eps", "0.25", "--target-utility", "0.6",
                            "--out", str(out)])
        assert code == 0
        assert not caught
        printed = capsys.readouterr()
        assert printed.err == ""
        assert "warning: chosen and measuring eps differ" in printed.out
        assert json.loads(out.read_text())["result"]["magnitude_warning"] is True

    @pytest.mark.parametrize("target, gap", [("0.3", False), ("0.6", True)])
    def test_prints_the_summary_values(self, target, gap, tmp_path, capsys):
        """Each printed number is the repr of the summary's value, and the
        warning line is printed exactly when the summary flags the gap."""
        out = tmp_path / "plan.json"
        assert run_cli(["choose-eps", "--synthetic", "2000,10,2.0", "--seed", "7",
                        "--target-utility", target, "--out", str(out)]) == 0
        r = json.loads(out.read_text())["result"]
        assert r["magnitude_warning"] is gap
        lines = [
            f"chosen_eps: {r['chosen_eps']!r}",
            f"line: measure_eps={r['measure_eps']!r} "
            f"base_utility={r['base_utility']!r} slope={r['slope']!r}",
            f"remainder_scale: {r['remainder_scale']!r}",
        ] + ["warning: chosen and measuring eps differ by more than an order of magnitude"] * gap
        assert capsys.readouterr().out == "".join(line + "\n" for line in lines)

    def test_sgd_matches_library_plan(self, data_csv, tmp_path):
        """choose-eps --solver sgd and library plan() with sgd_repro pick
        the same budget bit for bit: both damp the solve the same way."""
        from eps_planner.chooser import measure, plan
        from eps_planner.data import load_dataset
        from eps_planner.losses import make_loss_spec
        from eps_planner.sensitivity import extrapolate
        from eps_planner.trainer import TrainConfig

        d = load_dataset(data_csv, "csv")
        spec = make_loss_spec("logistic", d.p, "tight")
        cfg = TrainConfig(reg_lambda=0.01, solver_mode="sgd_repro")
        target = extrapolate(measure(d, spec, cfg, 0.25, 1e-3, 7).line, 0.5)
        want = plan(d, spec, cfg, 0.25, 1e-3, target, seed=7).chosen_eps

        out = tmp_path / "plan.json"
        code = run_cli(["choose-eps", "--data", data_csv, "--measure-eps", "0.25",
                        "--delta", "1e-3", "--target-utility", repr(target),
                        "--seed", "7", "--solver", "sgd", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["result"]["chosen_eps"] == want


class TestSummaryInputs:
    """A summary's `inputs` are every parsed flag, written as sorted JSON."""

    COMMON = {
        "bounds": "tight", "delta": 0.001, "format": "csv", "huber_h": 0.1,
        "label_col": "label", "loss": "logistic", "reg_lambda": 0.01, "smooth_t": 0.1,
    }

    def _inputs(self, path):
        text = path.read_text()
        loaded = json.loads(text)
        assert text == json.dumps(loaded, indent=2, sort_keys=True) + "\n"
        return loaded["inputs"]

    def test_table_run(self, tmp_path):
        out = tmp_path / "est.csv"
        assert run_cli(["estimate", "--synthetic", "150,3,1.5", "--measure-eps", "0.1,0.25",
                        "--targets", "0.2,0.3", "--repeats", "2", "--seed", "5",
                        "--out", str(out)]) == 0
        assert self._inputs(tmp_path / "est.csv.summary.json") == {
            **self.COMMON,
            "data": None,
            "measure_eps": [0.1, 0.25],
            "out": str(out),
            "repeats": 2,
            "seed": 5,
            "solver": "sgd",
            "synthetic": {"n": 150, "p": 3, "separation": 1.5},
            "targets": [0.2, 0.3],
        }

    def test_choose_eps_run(self, data_csv, tmp_path):
        out = tmp_path / "choose.json"
        assert run_cli(["choose-eps", "--data", data_csv, "--target-utility", "0.5",
                        "--seed", "3", "--out", str(out)]) == 0
        assert self._inputs(out) == {
            **self.COMMON,
            "data": data_csv,
            "measure_eps": 0.25,
            "out": str(out),
            "seed": 3,
            "solver": "exact",
            "synthetic": None,
            "target_utility": 0.5,
        }


class TestEstimate:
    def test_csv_deterministic_across_runs(self, tmp_path):
        args = ["estimate", "--synthetic", "200,3,1.5", "--measure-eps", "0.25",
                "--targets", "0.2,0.3,0.4", "--repeats", "2", "--seed", "9"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_summary_seeds_reproduce_rows(self, tmp_path):
        """Any CSV cell can be recomputed from the summary's seeds alone."""
        out = tmp_path / "est.csv"
        code = run_cli(["estimate", "--synthetic", "150,3,1.5", "--measure-eps", "0.3",
                        "--targets", "0.3", "--repeats", "2", "--seed", "21",
                        "--out", str(out)])
        assert code == 0
        summary = json.loads((tmp_path / "est.csv.summary.json").read_text())
        seeds = summary["seeds"]["estimate_seeds"]
        assert seeds == [21, 22]

        from eps_planner.chooser import measure
        from eps_planner.experiments import ExperimentConfig, SyntheticSpec, resolve

        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(150, 3, 1.5), bounds_mode="tight",
            delta=1e-3, repeats=2, base_seed=21,
            measure_eps_list=(0.3,), target_grid=(0.3,),
        )
        d, spec, tcfg = resolve(cfg)
        est = np.mean([
            measure(d, spec, tcfg, 0.3, 1e-3, s).line.base_utility for s in seeds
        ])
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        cell = float(lines[1].split(",")[header.index("estimated_loss")])
        assert cell == pytest.approx(est, rel=1e-12)


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


# one valid value per long flag
FLAG_SAMPLES = {
    "data": "x.csv", "format": "sparse_text", "label-col": "y", "synthetic": "100,3,1.5",
    "loss": "huber_svm", "bounds": "paper", "reg-lambda": "0.5", "delta": "0.01",
    "repeats": "3", "seed": "4", "solver": "exact", "huber-h": "0.2", "smooth-t": "0.3",
    "out": "o.csv", "eps": "0.5", "measure-eps": "0.5", "targets": "0.3:0.5:0.1",
    "target-utility": "0.4", "samples": "100,200", "n": "50", "p": "3", "separation": "1.5",
}
COMMAND_FLAGS = [
    (command, flag)
    for command, sub in _subparsers(build_parser()).items()
    for flag in _long_flags(sub)
]


_SHARED = {
    "data", "format", "label-col", "synthetic", "loss", "bounds", "reg-lambda", "delta",
    "seed", "huber-h", "smooth-t", "out",
}


class TestFlagSets:
    """Each subcommand parses exactly the inputs it reads."""

    def test_long_flags_per_command(self):
        assert {c: set(_long_flags(sub)) for c, sub in _subparsers(build_parser()).items()} == {
            "train": _SHARED | {"solver", "eps"},
            "choose-eps": _SHARED | {"solver", "measure-eps", "target-utility"},
            "estimate": _SHARED | {"solver", "repeats", "measure-eps", "targets"},
            "sweep-measuring": _SHARED | {"solver", "repeats", "targets"},
            "sweep-samples": _SHARED | {"solver", "repeats", "measure-eps", "targets", "samples"},
            "oracle-compare": _SHARED | {"repeats", "measure-eps"},
            "gen-data": {"n", "p", "separation", "seed", "out"},
        }

    @pytest.mark.parametrize("argv,flag", [
        (["train", "--eps", "0.5", "--repeats", "3"], "--repeats"),
        (["choose-eps", "--target-utility", "0.5", "--repeats", "3"], "--repeats"),
        (["oracle-compare", "--solver", "sgd"], "--solver"),
        (["sweep-samples", "--samples", "100", "--measure-eps", "0.1,0.5"], "--measure-eps"),
    ], ids=["train", "choose-eps", "oracle-compare", "sweep-samples"])
    def test_unread_input_is_usage_error(self, argv, flag, capsys):
        assert run_cli([*argv, "--synthetic", "200,3,1.5", "--seed", "1"]) == 1
        printed = capsys.readouterr()
        assert flag in printed.err
        assert printed.out == ""


# the ExperimentConfig field each flag stands for
_CONFIG_FIELD = {
    "loss": "loss_kind", "bounds": "bounds_mode", "reg-lambda": "reg_lambda", "delta": "delta",
    "seed": "base_seed", "huber-h": "huber_h", "smooth-t": "smooth_t", "repeats": "repeats",
    "measure-eps": "measure_eps_list", "targets": "target_grid", "samples": "sample_grid",
}
# commands that measure at their own budgets, not at the config's list
_OWN_MEASURE_EPS = {"choose-eps": 0.25, "sweep-samples": 0.25, "oracle-compare": (0.25, 1.0)}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flag in COMMAND_FLAGS
    if flag in _CONFIG_FIELD or flag == "separation"
])
def test_flag_defaults_are_the_library_defaults(command, flag):
    """A flag standing for a config field defaults to ExperimentConfig()'s
    value, and gen-data --separation to SyntheticSpec()'s."""
    if flag == "separation":
        want = SyntheticSpec().separation
    elif flag == "measure-eps" and command in _OWN_MEASURE_EPS:
        want = _OWN_MEASURE_EPS[command]
    else:
        want = getattr(ExperimentConfig(), _CONFIG_FIELD[flag])
    assert _long_flags(_subparsers(build_parser())[command])[flag].default == want


# command: (the flags it requires, the config key it has no flag for)
_SKIPPED_KEY = {
    "train": (["--eps", "0.5"], "repeats"),
    "choose-eps": (["--target-utility", "0.45"], "repeats"),
    "oracle-compare": (["--measure-eps", "0.5"], "solver"),
}


class TestConfigFile:
    def test_config_supplies_flags_cli_wins(self, data_csv, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            f"data={data_csv}\neps=0.5\nsolver=exact\nseed=3\ndelta=1e-3\n"
        )
        code = run_cli(["--config", str(cfgfile), "train"])
        assert code == 0
        assert "eps=0.5" in capsys.readouterr().out
        # explicit flag overrides the config value
        code = run_cli(["--config", str(cfgfile), "train", "--eps", "0.75"])
        assert code == 0
        assert "eps=0.75" in capsys.readouterr().out

    def test_config_satisfies_required_flag(self, data_csv, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            f"data={data_csv}\ntarget-utility=0.45\nseed=7\nsolver=exact\n"
        )
        code = run_cli(["--config", str(cfgfile), "choose-eps"])
        assert code == 0
        assert "chosen_eps:" in capsys.readouterr().out

    def test_equals_form_reads_the_same_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("eps=0.5\nsolver=exact\nseed=3\n")
        runs = []
        for head in (["--config", str(cfgfile)], [f"--config={cfgfile}"]):
            assert run_cli(head + ["train", "--synthetic", "200,3,2.0"]) == 0
            runs.append(capsys.readouterr())
        assert runs[0] == runs[1]
        assert runs[0].out.startswith("trained at eps=0.5 ")

    def test_line_without_equals_is_usage_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("solver exact\n")
        assert run_cli(["--config", str(cfgfile), "train", "--eps", "1"]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfgfile}:1: expected key=value, got 'solver exact'\n"
        )

    def test_unreadable_config_is_usage_error(self, tmp_path, capsys):
        code = run_cli(["--config", str(tmp_path / "missing.cfg"), "train", "--eps", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {tmp_path / 'missing.cfg'}: ")
        assert err.count("\n") == 1

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("frobnicate=1\n")
        assert run_cli(["--config", str(cfgfile), "train", "--eps", "1"]) == 1

    def test_abbreviated_config_flag_is_usage_error(self, tmp_path, capsys):
        """`--conf FILE` is rejected rather than parsed with its file unread."""
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("solver=exact\n")
        code = run_cli(["--conf", str(cfgfile), "train", "--synthetic", "100,3,1.0",
                        "--eps", "1.0"])
        assert code == 1
        assert "trained" not in capsys.readouterr().out

    def test_bad_choice_names_path_and_line(self, data_csv, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"data={data_csv}\neps=0.5\nsolver=bogus\n")
        assert run_cli(["--config", str(cfgfile), "train"]) == 1
        err = capsys.readouterr().err
        assert f"{cfgfile}:3: argument --solver: invalid choice: 'bogus'" in err

    def test_bad_value_names_path_and_line(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("# budget\n\neps=abc\n")
        assert run_cli(["--config", str(cfgfile), "train", "--synthetic", "100,3,1.0"]) == 1
        assert f"{cfgfile}:3: argument --eps:" in capsys.readouterr().err

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        """A file saved with a UTF-8 byte-order mark runs as the same file
        without it; the mark was read into the first key."""
        runs = []
        for mark in ("", "\ufeff"):
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text(f"{mark}synthetic=100,3,2.0\nsolver=exact\n", encoding="utf-8")
            out = tmp_path / "train.json"
            argv = ["--config", str(cfgfile), "train", "--eps", "1", "--out", str(out)]
            assert run_cli(argv) == 0
            runs.append((capsys.readouterr(), out.read_text()))
        assert runs[0] == runs[1]

    def test_hash_inside_a_value_is_not_a_comment(self, tmp_path, capsys):
        """`#` opens a comment only at the start of a line or after whitespace."""
        folder = tmp_path / "a#b"
        folder.mkdir()
        data = folder / "d.csv"
        write_csv_dataset(gen_synthetic(300, 4, 1.5, 7), str(data))
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            f"# a run\ndata={data}\neps=0.5\t# budget\nseed=7  # note\nsolver=exact\n"
        )
        out = tmp_path / "train.json"
        assert run_cli(["--config", str(cfgfile), "train", "--out", str(out)]) == 0
        inputs = json.loads(out.read_text())["inputs"]
        assert (inputs["data"], inputs["eps"], inputs["seed"]) == (str(data), 0.5, 7)

    def test_other_commands_keys_leave_summary(self, data_csv, tmp_path, capsys):
        """Keys that only other subcommands take are skipped, so they do
        not reach the run summary's inputs."""
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            f"data={data_csv}\ntarget-utility=0.45\nseed=7\neps=9\nn=7\nsamples=5\n"
        )
        out = tmp_path / "plan.json"
        assert run_cli(["--config", str(cfgfile), "choose-eps", "--out", str(out)]) == 0
        inputs = json.loads(out.read_text())["inputs"]
        assert inputs["target_utility"] == 0.45
        assert not {"eps", "n", "samples"} & set(inputs)

    @pytest.mark.parametrize("command", _SKIPPED_KEY)
    def test_shared_config_keeps_working(self, command, tmp_path, capsys):
        """A config file shared by all commands may hold repeats= and
        solver=; a command without that flag skips the line."""
        required, skipped = _SKIPPED_KEY[command]
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("synthetic=150,3,1.5\nseed=3\nrepeats=3\nsolver=exact\n")
        out = tmp_path / "out"
        argv = ["--config", str(cfgfile), command, *required, "--out", str(out)]
        assert run_cli(argv) == 0
        summary = out.with_name("out.summary.json") if command == "oracle-compare" else out
        inputs = json.loads(summary.read_text())["inputs"]
        kept = {"repeats": 3, "solver": "exact"}
        del kept[skipped]
        assert skipped not in inputs
        assert kept.items() <= inputs.items()

    @pytest.mark.parametrize("command,flag", COMMAND_FLAGS)
    def test_every_flag_has_a_config_form(self, tmp_path, command, flag):
        """A config line `flag=value` parses exactly as `--flag value`."""
        parser = build_parser()
        flags = _long_flags(_subparsers(parser)[command])
        required = [f"--{f}={FLAG_SAMPLES[f]}" for f, a in flags.items()
                    if a.required and f != flag]
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{flag}={FLAG_SAMPLES[flag]}\n")
        argv = _with_config(parser, ["--config", str(cfgfile), command] + required)
        assert argv[3] == f"--{flag}={FLAG_SAMPLES[flag]}"
        from_config = parser.parse_args(argv)
        from_flag = parser.parse_args([command, f"--{flag}", FLAG_SAMPLES[flag]] + required)
        assert from_config.config == str(cfgfile)
        from_config.config = None
        assert vars(from_config) == vars(from_flag)


class TestFullFlagNames:
    def test_abbreviated_flag_is_usage_error(self, capsys):
        """`--meas` is not read as `--measure-eps`, just as a `meas=` line
        in a --config file is not."""
        code = run_cli(["choose-eps", "--synthetic", "200,3,2.0", "--meas", "0.3",
                        "--target-utility", "0.69"])
        assert code == 1
        captured = capsys.readouterr()
        assert "unrecognized arguments: --meas 0.3" in captured.err
        assert "chosen_eps" not in captured.out

    @pytest.mark.parametrize("command,flag", [(c, f) for c, f in COMMAND_FLAGS if len(f) > 1])
    def test_no_flag_takes_a_prefix(self, command, flag):
        parser = build_parser()
        flags = _long_flags(_subparsers(parser)[command])
        prefix = flag[:-1]
        assert prefix not in flags
        required = [f"--{f}={FLAG_SAMPLES[f]}" for f, a in flags.items()
                    if a.required and f != flag]
        with pytest.raises(UsageError):
            parser.parse_args([command, *required, f"--{prefix}", FLAG_SAMPLES[flag]])


README_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_commands():
    """The argv of each `eps-planner` line of the README, in order."""
    with open(README_PATH, encoding="utf-8") as fh:
        text = fh.read().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("eps-planner ")]


class TestReadme:
    def test_cli_example_runs(self, tmp_path, monkeypatch, capsys):
        """The README's gen-data, train and choose-eps lines, run in order
        in an empty directory, each exit 0."""
        commands = _readme_commands()
        example = [argv for argv in commands if argv[0] in ("gen-data", "train", "choose-eps")]
        assert [argv[0] for argv in example] == ["gen-data", "train", "choose-eps"]
        monkeypatch.chdir(tmp_path)
        for argv in example:
            assert run_cli(argv) == 0, (argv, capsys.readouterr().err)

    def test_every_cli_line_parses(self):
        """Every eps-planner line of the README parses, those the example
        above does not run included, and together they use every command."""
        parser = build_parser()
        commands = _readme_commands()
        assert sorted({argv[0] for argv in commands}) == sorted(_subparsers(parser))
        for argv in commands:
            parser.parse_args(_with_config(parser, argv))

    def test_library_example_runs(self, capsys):
        """The README's python block runs as written, and the losses it
        predicts are nonnegative, as a logistic loss is."""
        with open(README_PATH, encoding="utf-8") as fh:
            blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
        assert len(blocks) == 1
        exec(compile(blocks[0], README_PATH, "exec"), {})
        predicted = capsys.readouterr().out.splitlines()[:2]
        assert all(float(v) >= 0 for v in predicted), predicted


def _seed_with_env(raw, tmp_path, monkeypatch, capsys):
    """Run one synthetic train with EPS_PLANNER_SEED set to raw and return
    the seed its summary records."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("EPS_PLANNER_SEED", raw)
    code = run_cli(["train", "--synthetic", "100,3,1.0", "--eps", "1.0", "--out", "s.json"])
    assert code == 0, capsys.readouterr().err
    with open("s.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["inputs"]["seed"] == summary["result"]["seed"]
    return summary["inputs"]["seed"]


class TestSeedEnvVar:
    """The CLI reads its argv and its --config file alone: EPS_PLANNER_SEED,
    once a third route to the default seed, is never read."""

    def test_env_var_default(self, tmp_path, monkeypatch, capsys):
        assert _seed_with_env("123", tmp_path, monkeypatch, capsys) == 0

    def test_env_var_must_be_integer(self, tmp_path, monkeypatch, capsys):
        """A non-integer value was a usage error; now it is not looked at."""
        assert _seed_with_env("abc", tmp_path, monkeypatch, capsys) == 0


class TestCrossProcessDeterminism:
    def test_same_command_byte_identical_across_processes(self, tmp_path):
        import os
        import subprocess
        import sys

        import eps_planner

        # the child imports the same package tree as this process
        src = os.path.dirname(os.path.dirname(eps_planner.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        for out in (out1, out2):
            proc = subprocess.run(
                [sys.executable, "-m", "eps_planner", "estimate",
                 "--synthetic", "150,3,1.5", "--measure-eps", "0.25",
                 "--targets", "0.2,0.3", "--repeats", "2", "--seed", "5",
                 "--out", str(out)],
                capture_output=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr.decode()
        assert out1.read_bytes() == out2.read_bytes()


class TestSweepCommands:
    def test_sweep_measuring_writes_table(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep-measuring", "--synthetic", "150,3,1.5",
                        "--targets", "0.2,0.4,0.6", "--repeats", "2",
                        "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "measure_eps,avg_abs_error"
        assert len(lines) == 4

    def test_sweep_measuring_one_target_is_usage_error(self, capsys):
        code = run_cli(["sweep-measuring", "--synthetic", "150,3,1.5",
                        "--targets", "0.5", "--repeats", "1"])
        assert code == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: the measuring sweep needs at least 2 targets, got 1\n")

    def test_sweep_samples_writes_table(self, tmp_path):
        out = tmp_path / "samples.csv"
        code = run_cli(["sweep-samples", "--synthetic", "400,3,1.5",
                        "--measure-eps", "0.25", "--targets", "0.3,0.5",
                        "--samples", "100,200", "--repeats", "2",
                        "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,target_eps,estimated_loss,actual_loss,abs_error"
        assert len(lines) == 5

    def test_sweep_samples_runs_on_its_default_samples(self, capsys):
        """With no dataset named, the generated set has rows enough for
        the default grid's largest sample, 16000."""
        code = run_cli(["sweep-samples", "--targets", "0.5", "--repeats", "1"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines] == ["n", "1000", "4000", "16000"]

    def test_sweep_samples_explicit_synthetic_too_small(self, capsys):
        code = run_cli(["sweep-samples", "--synthetic", "5000,10,2.0",
                        "--targets", "0.5", "--repeats", "1"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: sample grid goes up to 16000 but the dataset has n=5000\n"
        )

    def test_sweep_samples_rejects_fractional_counts(self, tmp_path, capsys):
        out = tmp_path / "samples.csv"
        code = run_cli(["sweep-samples", "--synthetic", "400,3,1.5",
                        "--samples", "100.9,200.2", "--out", str(out)])
        assert code == 1
        assert "argument --samples: '100.9' is not an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_compare_stdout(self, capsys):
        code = run_cli(["oracle-compare", "--synthetic", "150,3,1.5",
                        "--measure-eps", "0.5", "--repeats", "1", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("measure_eps,seed,dtheta_rel_err,slope_rel_err,fd_step")


# each table's CSV header, the first line it writes to --out or to stdout
TABLE_HEADERS = {
    "estimate": "measure_eps,target_eps,estimated_loss,actual_loss,abs_error\r\n",
    "sweep-measuring": "measure_eps,avg_abs_error\r\n",
    "sweep-samples": "n,target_eps,estimated_loss,actual_loss,abs_error\r\n",
    "oracle-compare": "measure_eps,seed,dtheta_rel_err,slope_rel_err,fd_step\r\n",
}

_SMALL_TABLE_FLAGS = {
    "estimate": ["--targets", "0.2,0.4"],
    "sweep-measuring": ["--targets", "0.2,0.4"],
    "sweep-samples": ["--targets", "0.2,0.4", "--samples", "100"],
    "oracle-compare": [],
}


class TestTableHeaders:
    @pytest.mark.parametrize("command", sorted(TABLE_HEADERS))
    def test_header_line_to_out_and_stdout(self, command, tmp_path, capsys):
        argv = [command, "--synthetic", "200,3,2.0", "--repeats", "1",
                *_SMALL_TABLE_FLAGS[command]]
        out = tmp_path / "table.csv"
        assert run_cli(argv + ["--out", str(out)]) == 0
        assert run_cli(argv) == 0
        header = TABLE_HEADERS[command]
        assert out.read_bytes().split(b"\n", 1)[0] + b"\n" == header.encode()
        stdout = capsys.readouterr().out
        assert stdout.split("\n", 1)[0] + "\n" == header
        assert stdout.encode() == out.read_bytes()


class TestDataSource:
    """--data and --synthetic exclude each other: before, --synthetic was
    dropped without a word while the summary still recorded it."""

    def test_both_flags_are_usage_error(self, data_csv, tmp_path, capsys):
        out = tmp_path / "s.json"
        code = run_cli(["choose-eps", "--data", data_csv, "--synthetic", "500,4,2.0",
                        "--target-utility", "0.6", "--out", str(out)])
        assert code == 1
        assert "argument --synthetic: not allowed with argument --data" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_config_line_counts_as_given(self, data_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("synthetic=500,4,2.0\n")
        before = trainer.TRAIN_CALL_COUNT
        code = run_cli(["--config", str(cfg), "train", "--data", data_csv, "--eps", "0.5"])
        assert code == 1
        err = capsys.readouterr().err
        assert "not allowed with argument" in err
        assert "--data" in err and "--synthetic" in err
        assert trainer.TRAIN_CALL_COUNT == before


class TestNegativeSeed:
    """A negative seed is refused at parse time, naming its flag: before,
    numpy refused it after the trainings had run."""

    @pytest.mark.parametrize("argv", [
        ["estimate", "--synthetic", "200,3,2.0", "--repeats", "2", "--targets", "0.1:1.0:0.1",
         "--measure-eps", "0.25", "--seed", "-1"],
        ["choose-eps", "--synthetic", "200,3,2.0", "--target-utility", "0.5", "--seed", "-1"],
        ["gen-data", "--n", "50", "--p", "3", "--out", os.devnull, "--seed", "-1"],
    ], ids=lambda argv: argv[0])
    def test_flag(self, argv, capsys):
        before = trainer.TRAIN_CALL_COUNT
        assert run_cli(argv) == 1
        assert "argument --seed: '-1' is not a nonnegative integer" in capsys.readouterr().err
        assert trainer.TRAIN_CALL_COUNT == before

    def test_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=-2\n")
        assert run_cli(["--config", str(cfg), "train", "--synthetic", "100,3,1.0",
                        "--eps", "1.0"]) == 1
        assert "argument --seed: '-2' is not a nonnegative integer" in capsys.readouterr().err

    def test_env_var(self, tmp_path, monkeypatch, capsys):
        """A negative EPS_PLANNER_SEED was refused; the variable is no longer read."""
        assert _seed_with_env("-3", tmp_path, monkeypatch, capsys) == 0


# a generated dataset's n, p or separation outside the generator's bounds,
# and the message naming the flag it came from
GENERATOR_BOUNDS = [
    (["train", "--synthetic", "1.5,3,2.0"], "argument --synthetic: '1.5' is not an integer"),
    (["train", "--synthetic", "0,3,2.0"], "argument --synthetic: '0' is not an integer >= 2"),
    (["train", "--synthetic", "100,0,2.0"], "argument --synthetic: '0' is not a positive integer"),
    (["train", "--synthetic", "100,3,-1"],
     "argument --synthetic: '-1' is not a nonnegative number"),
    (["train", "--synthetic", "1,2"], "argument --synthetic: '1,2' is not n,p,separation"),
    (["train", "--synthetic", "1,2,3,4"],
     "argument --synthetic: '1,2,3,4' is not n,p,separation"),
    (["gen-data", "--n", "1", "--p", "3"], "argument --n: '1' is not an integer >= 2"),
    (["gen-data", "--n", "100", "--p", "3", "--separation", "-1"],
     "argument --separation: '-1' is not a nonnegative number"),
]


class TestGeneratorBounds:
    """n, p and the separation of generated data are checked when they are
    parsed, by the generator's own bounds, in one line naming the flag:
    before, the generator refused them later without naming it."""

    @pytest.mark.parametrize(
        "argv, message", GENERATOR_BOUNDS, ids=[" ".join(argv) for argv, _ in GENERATOR_BOUNDS]
    )
    def test_flag(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        extra = ["--eps", "1"] if argv[0] == "train" else ["--out", "x.csv"]
        assert run_cli(argv + extra) == 1
        assert capsys.readouterr().err == f"error: eps-planner {argv[0]}: {message}\n"
        assert not os.listdir(tmp_path)

    def test_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("synthetic=0,3,2.0\n")
        assert run_cli(["--config", str(cfg), "train", "--eps", "1"]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:1: argument --synthetic: '0' is not an integer >= 2\n"
        )


class TestExtremeInputs:
    """Inputs at the edges of the float range end in one line naming the
    input at fault, not a traceback or a numpy warning."""

    @pytest.mark.parametrize("flags, message", [
        (["--loss", "smooth_hinge", "--smooth-t", "1e-170"],
         "error: smooth_t=1e-170 is too extreme: "),
        (["--loss", "huber_svm", "--huber-h", "1e-320"],
         "error: huber_h=1e-320 is too extreme: "),
        (["--delta", "1e-320"], "error: delta=1e-320 is too small: "),
    ])
    def test_constant_out_of_float_range_is_exit_1(self, flags, message, capsys):
        code = run_cli(["train", "--synthetic", "50,3,2.0", "--eps", "0.5"] + flags)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("target, message", [
        ("-1e158", "budgets 1.0, 6.894165086620545e+158 put the remainder scale past "),
        ("-1e308", "expected utility -1e+308 unreachable: "),
    ])
    def test_chosen_budget_out_of_float_range_is_exit_3(self, target, message, tmp_path, capsys):
        out = tmp_path / "s.json"
        code = run_cli(["choose-eps", "--synthetic", "300,3,2.0", "--measure-eps", "1",
                        f"--target-utility={target}", "--seed", "0", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: " + message) and err.count("\n") == 1
        assert err.endswith("the float range\n") and not out.exists()

    def test_sparse_index_past_memory_is_exit_2(self, tmp_path, capsys):
        f = tmp_path / "d.svm"
        f.write_text("1 1000000000000000:0.25\n-1 1:0.5\n")
        code = run_cli(["train", "--data", str(f), "--format", "sparse_text", "--eps", "0.5"])
        assert code == 2
        assert capsys.readouterr().err == (
            "data error: feature index 1000000000000000 is too large: "
            "its dense feature matrix does not fit in memory\n"
        )

    def test_gen_data_at_huge_separation_writes_unit_rows(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = run_cli(["gen-data", "--n", "5", "--p", "2", "--separation", "1e300",
                        "--out", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        X = np.loadtxt(out, delimiter=",", skiprows=1)[:, :2]
        assert np.linalg.norm(X, axis=1) == pytest.approx(np.ones(5), abs=1e-12)


def _magnitudes(default):
    """A flag's default, or a power of ten from the subnormal range to
    near the largest float."""
    return st.one_of(st.just(default), st.integers(-323, 308).map(lambda e: f"1e{e}"))


# a sparse_text index of 10**14 or more on two rows asks for more than the
# address space, so no allocation of the file's matrix can succeed or
# touch memory; the indices between would allocate for real
_SPARSE_INDICES = st.one_of(st.integers(1, 50), st.integers(10**14, 10**20))


@example(source=("synthetic", "20,3,1e300"), loss="logistic", bounds="tight", solver="exact",
         smooth_t="0.1", huber_h="0.1", delta="1e-3", reg_lambda="0.01", eps="0.5")
@example(source=("sparse_text", 10**15), loss="logistic", bounds="tight", solver="exact",
         smooth_t="0.1", huber_h="0.1", delta="1e-3", reg_lambda="0.01", eps="0.5")
@example(source=("synthetic", "20,3,2.0"), loss="smooth_hinge", bounds="tight", solver="exact",
         smooth_t="1e-170", huber_h="0.1", delta="1e-3", reg_lambda="0.01", eps="0.5")
@settings(max_examples=30, deadline=5000, derandomize=True, database=None)
@given(
    source=st.one_of(
        st.tuples(st.just("synthetic"), st.builds(
            "{},{},{}".format, st.integers(2, 50), st.integers(1, 4), _magnitudes("2.0"),
        )),
        st.tuples(st.just("sparse_text"), _SPARSE_INDICES),
    ),
    loss=st.sampled_from(["logistic", "huber_svm", "quadratic", "smooth_hinge"]),
    bounds=st.sampled_from(["tight", "paper"]),
    solver=st.sampled_from(["exact", "sgd"]),
    smooth_t=_magnitudes("0.1"),
    huber_h=_magnitudes("0.1"),
    delta=_magnitudes("1e-3"),
    reg_lambda=_magnitudes("0.01"),
    eps=_magnitudes("0.5"),
)
def test_train_at_extreme_magnitudes_exits_with_at_most_one_line(
    source, loss, bounds, solver, smooth_t, huber_h, delta, reg_lambda, eps
):
    """Whatever the magnitudes, train exits 0-3 with at most one stderr
    line: no exception escapes run_cli (a traceback on the command line)
    and numpy warns of nothing."""
    argv = ["train", "--loss", loss, "--bounds", bounds, "--solver", solver,
            "--smooth-t", smooth_t, "--huber-h", huber_h, "--delta", delta,
            "--reg-lambda", reg_lambda, "--eps", eps, "--seed", "1"]
    with tempfile.TemporaryDirectory() as tmp:
        kind, value = source
        if kind == "synthetic":
            argv += ["--synthetic", value]
        else:
            path = os.path.join(tmp, "d.svm")
            with open(path, "w") as fh:
                fh.write(f"1 {value}:0.25\n-1 1:0.5\n")
            argv += ["--data", path, "--format", "sparse_text"]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = run_cli(argv)
    assert code in (0, 1, 2, 3)
    assert err.getvalue().count("\n") <= 1, err.getvalue()
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    assert not caught, [str(w.message) for w in caught]
