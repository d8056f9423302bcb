"""Command-line interface.

Subcommands: train, estimate, choose-eps, sweep-measuring, sweep-samples,
oracle-compare, gen-data. A flat key=value config file (--config) may
supply any flag; explicit command-line flags win. Tables are written as
CSV with a fixed column order plus a JSON run summary holding the
resolved inputs, the seed scheme and library versions, so any emitted row
can be regenerated.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import re
import sys
import tempfile
from importlib import metadata

import numpy as np
import scipy

from . import experiments
from .chooser import plan
from .data import FORMATS, gen_synthetic, load_dataset, write_csv_dataset
from .errors import DataError, NumericalError, UsageError
from .losses import BOUNDS_MODES
from .model import LOSS_KINDS, Dataset, NoiseDraw, PrivacyBudget
from .trainer import classification_error_rate, train, utility

SUMMARY_OUT_HELP = "path of the JSON run summary"
# the reference protocol: each flag standing for one of its fields defaults to it
_REF = experiments.ExperimentConfig()


def finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None


def _bounded(parse, ok, what):
    """Converter: parse, then "'TEXT' is not WHAT" if `ok` rejects the value."""
    def convert(text):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return convert


positive_float = _bounded(finite_float, lambda v: v > 0, "a positive number")
nonnegative_float = _bounded(finite_float, lambda v: v >= 0, "a nonnegative number")
positive_int = _bounded(_integer, lambda v: v >= 1, "a positive integer")
nonnegative_int = _bounded(_integer, lambda v: v >= 0, "a nonnegative integer")
# a generated dataset's n: the generator's two classes need two rows
_sample_size = _bounded(_integer, lambda v: v >= 2, "an integer >= 2")


def _comma_list(item, what):
    """Converter of a comma list of `item`s, blanks skipped: "'TEXT' must list WHAT" if none."""
    def convert(text):
        values = tuple(item(v) for v in text.split(",") if v.strip())
        if not values:
            raise argparse.ArgumentTypeError(f"{text!r} must list {what}")
        return values
    return convert


# positive finite budgets, "0.1,0.25,0.75", and sample counts, "1000,4000"
eps_list = _comma_list(positive_float, "positive numbers")
sample_counts = _comma_list(positive_int, "positive integers")
_ascending = _bounded(eps_list, lambda v: list(v) == sorted(v), "in ascending order")


def targets_spec(text: str) -> tuple:
    """Ascending comma list "0.05,0.1,..." or inclusive range "start:stop:step"."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"{text!r} is not start:stop:step")
        start, stop, step = (finite_float(v) for v in parts)
        if step <= 0 or start <= 0 or stop < start:
            raise argparse.ArgumentTypeError(f"bad range {text!r}")
        if round(start, 10) != start or round(step, 10) != step:
            raise argparse.ArgumentTypeError(f"range {text!r} is finer than 10 decimals")
        out = []
        k = 0
        while True:
            v = round(start + k * step, 10)
            if v > stop + 1e-12:
                break
            out.append(v)
            k += 1
        return tuple(out)
    return _ascending(text)


def synthetic_spec(text: str) -> experiments.SyntheticSpec:
    """"n,p,separation" triple for the built-in generator."""
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"{text!r} is not n,p,separation")
    n, p, sep = parts
    return experiments.SyntheticSpec(_sample_size(n), positive_int(p), nonnegative_float(sep))


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main controls exit codes.
    Subcommand parsers are of this class too, so no command takes an
    abbreviated flag, just as no --config key may be abbreviated."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> _Parser:
    parser = _Parser(prog="eps-planner", description=__doc__)
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(
        p, *, out_help="CSV table path; the run summary goes to PATH.summary.json", solver="sgd"
    ):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--data", help="dataset file path")
        p.add_argument("--format", choices=FORMATS, default="csv")
        p.add_argument("--label-col", default="label", help="csv label column name")
        source.add_argument(
            "--synthetic", type=synthetic_spec,
            help="use generated data: n,p,separation",
        )
        p.add_argument("--loss", choices=LOSS_KINDS, default=_REF.loss_kind)
        p.add_argument("--bounds", choices=BOUNDS_MODES, default=_REF.bounds_mode)
        p.add_argument("--reg-lambda", type=nonnegative_float, default=_REF.reg_lambda)
        p.add_argument("--delta", type=positive_float, default=_REF.delta)
        p.add_argument("--seed", type=nonnegative_int, default=_REF.base_seed)
        if solver is not None:
            p.add_argument("--solver", choices=("exact", "sgd"), default=solver)
        p.add_argument("--huber-h", type=positive_float, default=_REF.huber_h)
        p.add_argument("--smooth-t", type=positive_float, default=_REF.smooth_t)
        p.add_argument("--out", help=out_help)

    def add_table(p, *, solver="sgd"):
        add_common(p, solver=solver)
        p.add_argument("--repeats", type=positive_int, default=_REF.repeats)

    p_train = sub.add_parser("train", help="train one private model")
    add_common(p_train, out_help=SUMMARY_OUT_HELP)
    p_train.add_argument("--eps", type=positive_float, required=True)

    p_est = sub.add_parser("estimate", help="estimated vs actual loss over a target grid")
    add_table(p_est)
    p_est.add_argument("--measure-eps", type=eps_list, default=_REF.measure_eps_list)
    p_est.add_argument("--targets", type=targets_spec, default=_REF.target_grid)

    p_choose = sub.add_parser("choose-eps", help="pick the budget for an expected utility")
    add_common(p_choose, out_help=SUMMARY_OUT_HELP, solver="exact")
    p_choose.add_argument("--measure-eps", type=positive_float, default=0.25)
    p_choose.add_argument("--target-utility", type=finite_float, required=True)

    p_sweep = sub.add_parser("sweep-measuring", help="average error per measuring point")
    add_table(p_sweep)
    p_sweep.add_argument("--targets", type=targets_spec, default=_REF.target_grid)

    p_samp = sub.add_parser("sweep-samples", help="estimation error against sample count")
    add_table(p_samp)
    p_samp.add_argument("--measure-eps", type=positive_float, default=0.25)
    p_samp.add_argument("--targets", type=targets_spec, default=_REF.target_grid)
    p_samp.add_argument("--samples", type=sample_counts, default=_REF.sample_grid)

    # always retrains with the exact solver, so it takes no --solver
    p_oracle = sub.add_parser("oracle-compare", help="finite-difference check of the solve")
    add_table(p_oracle, solver=None)
    p_oracle.add_argument("--measure-eps", type=eps_list, default=(0.25, 1.0))

    p_gen = sub.add_parser("gen-data", help="write a synthetic dataset as CSV")
    p_gen.add_argument("--n", type=_sample_size, required=True)
    p_gen.add_argument("--p", type=positive_int, required=True)
    p_gen.add_argument("--separation", type=nonnegative_float,
                       default=experiments.SyntheticSpec.separation)
    p_gen.add_argument("--seed", type=nonnegative_int, default=_REF.base_seed)
    p_gen.add_argument("--out", required=True)

    return parser


def _long_flags(parser: argparse.ArgumentParser) -> dict:
    """{flag name without the leading dashes: its action}, --help aside."""
    return {
        opt[2:]: action for action in parser._actions if action.dest != "help"
        for opt in action.option_strings if opt.startswith("--")
    }


# `#` opens a comment at the start of a line or after whitespace, so a
# value such as a path may itself contain `#`
_COMMENT = re.compile(r"(^|\s)#.*")


def _with_config(parser: _Parser, argv: list) -> list:
    """argv with the lines of its --config file spliced in as flags.

    Each `key=value` line becomes `--key=value` right after the
    subcommand (the top level takes only --config, so that is the first
    command name not read as its value), and a flag typed on the command
    line comes later and wins. A line is checked against the
    subcommand's own flag, type and choices included; keys that only
    other subcommands take are skipped, any other key is an error.
    """
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    path, i = None, 0
    while i < len(argv) and argv[i] not in commands:
        if argv[i] == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
            i += 1
        elif argv[i].startswith("--config="):
            path = argv[i].split("=", 1)[1]
        i += 1
    if path is None or i == len(argv):
        return argv
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    subparser = commands[argv[i]]
    own = _long_flags(subparser)
    known = set().union(*(_long_flags(c) for c in commands.values()))
    tokens = []
    for lineno, line in enumerate(lines, start=1):
        line = _COMMENT.sub("", line).strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in known:
            raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
        if key in own:
            try:
                subparser._get_values(own[key], [raw])
            except argparse.ArgumentError as exc:
                raise UsageError(f"{path}:{lineno}: {exc}") from None
            tokens.append(f"--{key}={raw}")
    return argv[:i + 1] + tokens + argv[i + 1:]


def _inputs(args) -> tuple[experiments.ExperimentConfig, Dataset | None]:
    """The run's config, then its `--data` dataset (None without one). A
    config field the subcommand has no flag for keeps its default; the
    config is built first, so its errors come before the file is read."""
    budgets = getattr(args, "measure_eps", _REF.measure_eps_list)
    cfg = experiments.ExperimentConfig(
        synthetic=args.synthetic,
        loss_kind=args.loss,
        bounds_mode=args.bounds,
        reg_lambda=args.reg_lambda,
        delta=args.delta,
        measure_eps_list=budgets if isinstance(budgets, tuple) else (budgets,),
        target_grid=getattr(args, "targets", _REF.target_grid),
        repeats=getattr(args, "repeats", _REF.repeats),
        base_seed=args.seed,
        sample_grid=getattr(args, "samples", _REF.sample_grid),
        solver_mode="sgd_repro" if getattr(args, "solver", "exact") == "sgd" else "exact",
        huber_h=args.huber_h,
        smooth_t=args.smooth_t,
    )
    if args.data is None:
        return cfg, None
    return cfg, load_dataset(args.data, args.format, label_col=args.label_col)


def _versions() -> dict:
    try:
        own = metadata.version("eps-planner")
    except metadata.PackageNotFoundError:
        own = "unknown"
    return {
        "eps_planner": own,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
    }


def _write_csv(fh, rows):
    """The rows as CSV, headed by the first row's keys in their order."""
    writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)


@contextlib.contextmanager
def _writing(path):
    """Report an OSError raised while writing `path` as one usage error line."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_writable(path):
    """Report now, before any data is read or model trained, a directory
    of `path` that cannot take a new file. The probe is an unnamed
    temporary file, so `path` itself is neither created nor truncated."""
    with _writing(path), tempfile.TemporaryFile(dir=os.path.dirname(path) or "."):
        pass


def _write_summary(path, command, args, **sections):
    """The run summary JSON: command, resolved inputs, versions and `sections`."""
    summary = {
        "command": command,
        "inputs": {k: v for k, v in vars(args).items() if k not in ("command", "config")},
        "versions": _versions(),
        **sections,
    }
    with _writing(path), open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=dataclasses.asdict)
        fh.write("\n")


def cmd_train(args) -> int:
    d, spec, tcfg = experiments.resolve(*_inputs(args))
    noise = NoiseDraw.generate(d.p, args.seed)
    model = train(d, spec, tcfg, PrivacyBudget(args.eps, args.delta), noise)
    result = {
        "eps": args.eps,
        "delta": args.delta,
        "loss_kind": spec.kind,
        "utility": utility(model.theta, d, spec),
        "error_rate": classification_error_rate(model.theta, d),
        "theta": [float(v) for v in model.theta],
        "theta_norm": model.theta_norm,
        "grad_norm_at_solution": model.grad_norm_at_solution,
        "iterations_used": model.iterations_used,
        "solver_mode": model.solver_mode,
        "seed": args.seed,
    }
    if args.out:
        _write_summary(args.out, "train", args, result=result)
    print(
        f"trained at eps={args.eps} delta={args.delta}: "
        f"loss={result['utility']:.6f} error_rate={result['error_rate']:.4f} "
        f"grad_norm={result['grad_norm_at_solution']:.3e}"
    )
    return 0


def cmd_choose_eps(args) -> int:
    d, spec, tcfg = experiments.resolve(*_inputs(args))
    result = plan(d, spec, tcfg, args.measure_eps, args.delta, args.target_utility, args.seed)
    print(f"chosen_eps: {result.chosen_eps!r}")
    print(
        f"line: measure_eps={result.line.measure_eps!r} "
        f"base_utility={result.line.base_utility!r} slope={result.line.slope!r}"
    )
    print(f"remainder_scale: {result.scale.scale!r}")
    if result.magnitude_warning:
        print("warning: chosen and measuring eps differ by more than an order of magnitude")
    if args.out:
        _write_summary(args.out, "choose-eps", args, result={
            "chosen_eps": result.chosen_eps,
            "measure_eps": result.line.measure_eps,
            "base_utility": result.line.base_utility,
            "slope": result.line.slope,
            "remainder_scale": result.scale.scale,
            "magnitude_warning": result.magnitude_warning,
        })
    return 0


# the table commands and their experiments; each row lists its columns in CSV order
_TABLES = {
    "estimate": experiments.experiment_estimate_vs_actual,
    "sweep-measuring": experiments.experiment_measuring_sweep,
    "sweep-samples": experiments.experiment_sample_sweep,
    "oracle-compare": experiments.oracle_compare,
}


def cmd_table(args) -> int:
    """The table as CSV to --out, with its run summary beside it, or to stdout."""
    cfg, d = _inputs(args)
    rows = _TABLES[args.command](cfg, d)
    if args.out:
        with _writing(args.out), open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write_csv(fh, rows)
        _write_summary(
            args.out + ".summary.json", args.command, args, seeds=experiments.seed_scheme(cfg)
        )
    else:
        _write_csv(sys.stdout, rows)
    return 0


def cmd_gen_data(args) -> int:
    d = gen_synthetic(args.n, args.p, args.separation, args.seed)
    with _writing(args.out):
        write_csv_dataset(d, args.out)
    print(f"wrote {d.n} x {d.p} dataset to {args.out}")
    return 0


_HANDLERS = {
    "train": cmd_train,
    "choose-eps": cmd_choose_eps,
    "gen-data": cmd_gen_data,
    **dict.fromkeys(_TABLES, cmd_table),
}


def run_cli(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser()
        args = parser.parse_args(_with_config(parser, argv))
        if args.out:
            _check_writable(args.out)
        return _HANDLERS[args.command](args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError) as exc:  # after LinAlgError, itself a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())
