import argparse
import json
import os
import shlex
import warnings

import numpy as np
import pytest

from eps_planner.cli import (
    _long_flags, _with_config, build_parser, run_cli, sample_counts, targets_spec,
)
from eps_planner.chooser import MagnitudeGapWarning
from eps_planner.data import gen_synthetic, write_csv_dataset
from eps_planner.errors import UsageError
from eps_planner.experiments import DEFAULT_TARGETS_HIGH, DEFAULT_TARGETS_LOW


class TestTargetsSpec:
    def test_comma_list(self):
        assert targets_spec("0.1,0.5,1.0") == (0.1, 0.5, 1.0)

    def test_inclusive_range_low_grid(self):
        assert targets_spec("0.05:1.0:0.05") == DEFAULT_TARGETS_LOW
        assert len(DEFAULT_TARGETS_LOW) == 20

    def test_inclusive_range_high_grid(self):
        assert targets_spec("1.0:10.0:0.5") == DEFAULT_TARGETS_HIGH
        assert len(DEFAULT_TARGETS_HIGH) == 19

    def test_rejects_malformed(self):
        for bad in ("0.5:0.1:0.05", "1:2", "a,b", "-1,2",
                    "0.1,inf", "nan", "0.1:inf:0.1", "nan:1:0.1", "0.1:1.0:nan"):
            with pytest.raises(argparse.ArgumentTypeError):
                targets_spec(bad)


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
        assert not [w for w in caught if issubclass(w.category, MagnitudeGapWarning)]
        printed = capsys.readouterr()
        assert printed.err == ""
        assert "warning: chosen and measuring eps differ" in printed.out
        assert json.loads(out.read_text())["result"]["magnitude_warning"] is True

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


class TestReadme:
    def test_cli_example_runs(self, tmp_path, monkeypatch, capsys):
        """The README's gen-data, train and choose-eps lines, run in order
        in an empty directory, each exit 0."""
        with open(README_PATH, encoding="utf-8") as fh:
            text = fh.read().replace("\\\n", " ")
        commands = [
            shlex.split(line)[1:] for line in text.splitlines() if line.startswith("eps-planner ")
        ]
        example = [argv for argv in commands if argv[0] in ("gen-data", "train", "choose-eps")]
        assert [argv[0] for argv in example] == ["gen-data", "train", "choose-eps"]
        monkeypatch.delenv("EPS_PLANNER_SEED", raising=False)
        monkeypatch.chdir(tmp_path)
        for argv in example:
            assert run_cli(argv) == 0, (argv, capsys.readouterr().err)


class TestSeedEnvVar:
    def test_env_var_default(self, monkeypatch, capsys):
        monkeypatch.setenv("EPS_PLANNER_SEED", "123")
        code = run_cli(["train", "--synthetic", "100,3,1.0", "--eps", "1.0",
                        "--solver", "exact"])
        assert code == 0

    def test_env_var_must_be_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("EPS_PLANNER_SEED", "abc")
        code = run_cli(["train", "--synthetic", "100,3,1.0", "--eps", "1.0"])
        assert code == 1


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
