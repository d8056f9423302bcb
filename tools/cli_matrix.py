"""Run the CLI over a fixed matrix of 46 commands and keep every byte it writes.

    python tools/cli_matrix.py OUTDIR [--root CHECKOUT]

Each command runs as `python -m eps_planner ...` with CHECKOUT/src first
on PYTHONPATH (by default the checkout that holds this script), in a
fresh directory OUTDIR/NN-name, with OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS and MKL_NUM_THREADS set to 1. That directory keeps
the files the command writes beside its `argv`, `stdout`, `stderr` and
`exit`. Two checkouts give the same bytes when

    diff -r OUTDIR_A OUTDIR_B

prints nothing. The matrix: `gen-data` (its csv is copied into the
directory of every command that reads `data.csv`); `train` and
`choose-eps` on `--synthetic 400,4,2.0` and `choose-eps` on that csv,
each for the four losses and both solvers; a `choose-eps` that prints
its `warning:` line; `train` with every default; each table command to
`--out` and to stdout; `--help` of the top parser and of each
subcommand; and one command for each failing exit code (1, 2 and 3).
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

SUBCOMMANDS = (
    "train", "estimate", "choose-eps", "sweep-measuring", "sweep-samples",
    "oracle-compare", "gen-data",
)
# choose-eps targets (on --synthetic 400,4,2.0, on data.csv) that each
# line at --measure-eps 0.25 --seed 7 inverts to an eps of about 0.35
TARGETS = {
    ("logistic", "exact"): ("0.31", "0.12"),
    ("logistic", "sgd"): ("0.76", "0.674"),
    ("huber_svm", "exact"): ("0.21", "0.11"),
    ("huber_svm", "sgd"): ("0.86", "0.907"),
    ("quadratic", "exact"): ("0.45", "0.11"),
    ("quadratic", "sgd"): ("0.39", "0.4256"),
    ("smooth_hinge", "exact"): ("0.17", "0.095"),
    ("smooth_hinge", "sgd"): ("0.94", "0.912"),
}
SMALL = ["--synthetic", "300,3,2.0", "--repeats", "2"]
TARGET_GRID = ["--targets", "0.5,1.0"]
TABLES = {
    "estimate": [*TARGET_GRID, "--measure-eps", "0.25,0.75"],
    "sweep-measuring": TARGET_GRID,
    "sweep-samples": [*TARGET_GRID, "--samples", "100,300"],
    "oracle-compare": [],
}


def matrix() -> list[tuple[str, list[str]]]:
    """(name, argv after `python -m eps_planner`) for every command, in order."""
    runs = [("gen-data", ["gen-data", "--n", "5000", "--p", "10", "--separation", "2.0",
                          "--seed", "1", "--out", "data.csv"])]
    for (loss, solver), (on_synthetic, on_data) in TARGETS.items():
        common = ["--loss", loss, "--solver", solver]
        runs.append((f"train-{loss}-{solver}", [
            "train", "--synthetic", "400,4,2.0", *common, "--eps", "0.5", "--seed", "3",
            "--out", "train.json"]))
        for source, flags, target in (("synthetic", ["--synthetic", "400,4,2.0"], on_synthetic),
                                      ("data", ["--data", "data.csv"], on_data)):
            runs.append((f"choose-{source}-{loss}-{solver}", [
                "choose-eps", *flags, *common, "--measure-eps", "0.25",
                "--target-utility", target, "--seed", "7", "--out", "choose.json"]))
    # the sgd line on data.csv is nearly flat, so 0.9 inverts to eps of about 20
    runs.append(("choose-warning", [
        "choose-eps", "--data", "data.csv", "--solver", "sgd", "--measure-eps", "0.25",
        "--target-utility", "0.9", "--seed", "7", "--out", "choose.json"]))
    runs.append(("train-defaults", ["train", "--eps", "1.0"]))
    for command, own in TABLES.items():
        runs.append((f"{command}-out", [command, *SMALL, *own, "--out", "table.csv"]))
        runs.append((f"{command}-stdout", [command, *SMALL, *own]))
    runs.append(("help", ["--help"]))
    runs += [(f"help-{command}", [command, "--help"]) for command in SUBCOMMANDS]
    runs.append(("usage-error", ["train", "--synthetic", "300,3,2.0", "--eps", "-1"]))
    runs.append(("data-error", ["train", "--data", "missing.csv", "--eps", "1.0"]))
    runs.append(("numerical-failure", [
        "choose-eps", "--synthetic", "300,3,2.0", "--solver", "exact",
        "--target-utility", "0.99", "--seed", "7"]))
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ is run (default: this script's)")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(args.root.resolve() / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    args.outdir.mkdir(parents=True, exist_ok=False)
    data = None
    for i, (name, cli_args) in enumerate(matrix()):
        cwd = args.outdir / f"{i:02d}-{name}"
        cwd.mkdir()
        if "data.csv" in cli_args and data is not None:
            shutil.copy(data, cwd / "data.csv")
        done = subprocess.run([sys.executable, "-m", "eps_planner", *cli_args],
                              cwd=cwd, env=env, capture_output=True)
        (cwd / "argv").write_text(" ".join(cli_args) + "\n")
        (cwd / "stdout").write_bytes(done.stdout)
        (cwd / "stderr").write_bytes(done.stderr)
        (cwd / "exit").write_text(f"{done.returncode}\n")
        if name == "gen-data":
            data = cwd / "data.csv"
        print(f"{cwd.name}: exit {done.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
