"""The benchmark's three workloads: inputs, requests and output checks.

Each workload is a closed loop with one client: request ``i`` is built
from the workload seed and ``i`` alone, runs to completion, and only then
is request ``i + 1`` sent. ``setup`` makes the inputs, ``request`` returns
the request's class and a thunk that the runner times, and ``check``
verifies a request's output afterwards, untimed, raising ``CheckFailed``.
``trace_pass`` is the fixed list of requests a traced run repeats, so
its work counters are the same on every pass. ``reference`` returns the
workload's reference kernel from ``calibration``, which the timed run
runs between requests to gauge the host's speed.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
from dataclasses import dataclass, field

import numpy as np

import calibration
# calls go through the module attributes, which the tracer wraps
from eps_planner import chooser, cli, data, experiments, losses, perturbation, sensitivity, trainer
from eps_planner.experiments import ExperimentConfig, SyntheticSpec
from eps_planner.model import Dataset, ExtrapolationLine, NoiseDraw, PrivacyBudget
from eps_planner.trainer import TrainConfig

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference_tables.json")

LOSSES = ("logistic", "huber_svm", "quadratic", "smooth_hinge")
MEASURE_EPS = 0.25
DELTA = 1e-3
REG_LAMBDA = 0.01
# the probe sets each target utility to the line's prediction here
TARGET_EPS = 0.5
# probe noise seeds sit far from the request seeds (workload seed + i)
PROBE_SEED_OFFSET = 1_000_000
# plan-wide solves to this gradient norm; acceptance criterion 1's setting
PLAN_TOL = 1e-12
ROUND_TRIP_TOL = 1e-9
# acceptance criterion 1's tolerance for the slope against retraining
FD_SLOPE_TOL = 1e-3
FD_STEP = 1e-4


class CheckFailed(Exception):
    """A request's output is wrong."""


def _median(xs) -> float | None:
    return statistics.median(xs) if xs else None


def probe_target(d: Dataset, spec, cfg: TrainConfig, seed: int) -> float:
    """Utility the measured line predicts at TARGET_EPS for one training.

    Setting a request's expected utility this way keeps every request's
    inversion reachable; a fixed target is unreachable for most losses.
    """
    noise = NoiseDraw.generate(d.p, seed)
    model = trainer.train(d, spec, cfg, PrivacyBudget(MEASURE_EPS, DELTA), noise)
    pert = perturbation.materialize(noise, spec.zeta, DELTA, MEASURE_EPS, spec.lambda_hess)
    slope = sensitivity.utility_slope(model, d, spec, sensitivity.dtheta_deps(model, d, spec, pert))
    line = ExtrapolationLine(MEASURE_EPS, trainer.utility(model.theta, d, spec), slope)
    return sensitivity.extrapolate(line, TARGET_EPS)


def _check_round_trip(result, target: float) -> None:
    if not result.chosen_eps > 0:
        raise CheckFailed(f"chosen_eps {result.chosen_eps!r} is not positive")
    back = sensitivity.extrapolate(result.line, result.chosen_eps)
    if abs(back - target) > ROUND_TRIP_TOL * max(1.0, abs(target)):
        raise CheckFailed(
            f"chosen_eps {result.chosen_eps!r} predicts {back!r}, target {target!r}"
        )


# -- plan-wide ------------------------------------------------------------


@dataclass
class PlanState:
    d: Dataset
    cfg: TrainConfig
    specs: dict
    targets: dict
    # finite-difference errors of the first request of each loss
    oracle: dict = field(default_factory=dict)


class PlanWide:
    """Library plan() with the exact solver on wide data, losses rotating."""

    name = "plan-wide"
    classes = LOSSES
    trace_pass = tuple(range(len(LOSSES)))
    n, p, separation = 20000, 100, 2.0

    def inputs(self) -> dict:
        return {"n": self.n, "p": self.p, "separation": self.separation,
                "losses": list(LOSSES), "solver": "exact", "stationarity_tol": PLAN_TOL,
                "measure_eps": MEASURE_EPS, "delta": DELTA, "reg_lambda": REG_LAMBDA}

    def setup(self, seed: int, workdir: str) -> PlanState:
        d = data.gen_synthetic(self.n, self.p, self.separation, seed)
        cfg = TrainConfig(reg_lambda=REG_LAMBDA, solver_mode="exact", stationarity_tol=PLAN_TOL)
        specs = {k: losses.make_loss_spec(k, d.p, "tight") for k in LOSSES}
        targets = {
            k: probe_target(d, specs[k], cfg, seed + PROBE_SEED_OFFSET) for k in LOSSES
        }
        return PlanState(d, cfg, specs, targets)

    def request(self, state: PlanState, seed: int, i: int):
        loss = LOSSES[i % len(LOSSES)]
        spec, target = state.specs[loss], state.targets[loss]
        return loss, lambda: chooser.plan(
            state.d, spec, state.cfg, MEASURE_EPS, DELTA, target, seed + i
        )

    def check(self, state: PlanState, seed: int, i: int, result) -> None:
        loss = LOSSES[i % len(LOSSES)]
        if not result.model.grad_norm_at_solution <= state.cfg.stationarity_tol:
            raise CheckFailed(
                f"gradient norm {result.model.grad_norm_at_solution:.3e} above "
                f"{state.cfg.stationarity_tol:.0e}"
            )
        _check_round_trip(result, state.targets[loss])
        if i < len(LOSSES) and loss not in state.oracle:
            self._check_oracle(state, loss, result)

    def _check_oracle(self, state: PlanState, loss: str, result) -> None:
        """Central finite differences of exact retraining, same noise draw."""
        d, spec, cfg = state.d, state.specs[loss], state.cfg
        h = FD_STEP * MEASURE_EPS
        noise = result.model.noise
        lo = trainer.train(d, spec, cfg, PrivacyBudget(MEASURE_EPS - h, DELTA), noise)
        hi = trainer.train(d, spec, cfg, PrivacyBudget(MEASURE_EPS + h, DELTA), noise)
        v_fd = (hi.theta - lo.theta) / (2.0 * h)
        slope_fd = (
            trainer.utility(hi.theta, d, spec) - trainer.utility(lo.theta, d, spec)
        ) / (2.0 * h)
        dtheta_rel = float(
            np.linalg.norm(result.report.dtheta_deps - v_fd) / np.linalg.norm(v_fd)
        )
        slope_rel = abs(result.line.slope - slope_fd) / abs(slope_fd)
        state.oracle[loss] = {"slope_rel_err": slope_rel, "dtheta_rel_err": dtheta_rel}
        if not slope_rel <= FD_SLOPE_TOL:
            raise CheckFailed(
                f"slope {result.line.slope!r} vs retraining {slope_fd!r}: "
                f"rel err {slope_rel:.3e} > {FD_SLOPE_TOL:.0e}"
            )

    def notes(self, state: PlanState) -> dict:
        return {"oracle": state.oracle}

    def reference(self):
        return calibration.hessian_kernel()

    def named_metrics(self, lat: dict) -> dict:
        """Latency medians split by loss, whose latencies differ by up to
        3x, and the decile over all requests."""
        out = {f"plan_p50_s.{c}": _median(lat[c]) for c in self.classes}
        every = [x for xs in lat.values() for x in xs]
        if len(every) >= 2:
            out["plan_p90_s"] = statistics.quantiles(every, n=10)[-1]
        return out


# -- tables-sgd -------------------------------------------------------------

# the acceptance suite's desk configuration, with the benchmark's repeats
TABLE_GRID = tuple(round(0.05 * i, 2) for i in range(1, 21))
TABLE_SPEC = SyntheticSpec(n=5000, p=10, separation=2.0)
TABLE_REPEATS = 1
# reference tables exist for configs 0..TABLE_CONFIGS-1
TABLE_CONFIGS = 32
# rows may differ from the reference by float reassociation, not more
TABLE_RTOL, TABLE_ATOL = 1e-9, 1e-12


def table_config(k: int) -> ExperimentConfig:
    """Config k: the desk sweep with base seed k (data seed k too)."""
    return ExperimentConfig(
        synthetic=TABLE_SPEC,
        loss_kind="logistic",
        bounds_mode="tight",
        solver_mode="sgd_repro",
        reg_lambda=REG_LAMBDA,
        delta=DELTA,
        repeats=TABLE_REPEATS,
        base_seed=k,
        measure_eps_list=(MEASURE_EPS,),
        target_grid=TABLE_GRID,
    )


def table_dataset(k: int) -> Dataset:
    s = TABLE_SPEC
    return data.gen_synthetic(s.n, s.p, s.separation, k)


def reference_header() -> dict:
    """What the stored reference rows were computed from."""
    s = TABLE_SPEC
    return {"n": s.n, "p": s.p, "separation": s.separation, "loss": "logistic",
            "bounds": "tight", "solver": "sgd_repro", "reg_lambda": REG_LAMBDA,
            "delta": DELTA, "repeats": TABLE_REPEATS, "grid": list(TABLE_GRID),
            "configs": TABLE_CONFIGS}


@dataclass
class TableState:
    datasets: list
    reference: list


class TablesSgd:
    """One experiment_measuring_sweep per request on the desk config."""

    name = "tables-sgd"
    classes = ("table",)
    trace_pass = (0,)

    def inputs(self) -> dict:
        return reference_header()

    def setup(self, seed: int, workdir: str) -> TableState:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            stored = json.load(fh)
        if stored["header"] != reference_header():
            raise RuntimeError(f"{REFERENCE_PATH} was made for another configuration")
        datasets = [table_dataset(k) for k in range(TABLE_CONFIGS)]
        return TableState(datasets, stored["tables"])

    def request(self, state: TableState, seed: int, i: int):
        k = (seed + i) % TABLE_CONFIGS
        return "table", lambda: experiments.experiment_measuring_sweep(table_config(k), state.datasets[k])

    def check(self, state: TableState, seed: int, i: int, rows) -> None:
        k = (seed + i) % TABLE_CONFIGS
        got = [[r["measure_eps"], r["avg_abs_error"]] for r in rows]
        want = state.reference[k]
        if len(got) != len(want):
            raise CheckFailed(f"config {k}: {len(got)} rows, reference has {len(want)}")
        for g, w in zip(got, want):
            if g[0] != w[0] or not math.isclose(g[1], w[1], rel_tol=TABLE_RTOL, abs_tol=TABLE_ATOL):
                raise CheckFailed(f"config {k}: row {g} differs from reference {w}")

    def notes(self, state: TableState) -> dict:
        return {"tolerance": {"rel": TABLE_RTOL, "abs": TABLE_ATOL}}

    def reference(self):
        return calibration.small_steps_kernel()

    def named_metrics(self, lat: dict) -> dict:
        return {"table_s": _median(lat["table"])}


# -- cli-ingest -------------------------------------------------------------

CLI_FORMATS = ("csv", "sparse_text")


def write_sparse_text(d: Dataset, path: str) -> None:
    """The svmlight-style format load_dataset reads, exact zeros omitted."""
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in zip(d.features.tolist(), d.labels.tolist()):
            feats = " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(x) if v != 0.0)
            fh.write(f"{int(y)} {feats}\n")


def ingested_rows(d: Dataset) -> Dataset:
    """The rows load_dataset documents for a file written from d: features
    rescaled by the largest row norm only when it exceeds 1."""
    max_norm = float(np.linalg.norm(d.features, axis=1).max())
    return Dataset(d.features / max_norm, d.labels) if max_norm > 1.0 else d


@dataclass
class CliState:
    workdir: str
    rows: Dataset
    paths: dict
    target: float


class CliIngest:
    """In-process `choose-eps` on files, alternating csv and sparse_text."""

    name = "cli-ingest"
    classes = CLI_FORMATS
    trace_pass = (0, 1)
    n, p, separation = 20000, 50, 2.0

    def inputs(self) -> dict:
        return {"n": self.n, "p": self.p, "separation": self.separation,
                "formats": list(CLI_FORMATS), "loss": "logistic", "solver": "exact",
                "measure_eps": MEASURE_EPS, "delta": DELTA, "reg_lambda": REG_LAMBDA}

    def _train_config(self) -> TrainConfig:
        # what `choose-eps --solver exact` trains with
        return TrainConfig(reg_lambda=REG_LAMBDA, solver_mode="exact")

    def setup(self, seed: int, workdir: str) -> CliState:
        d = data.gen_synthetic(self.n, self.p, self.separation, seed)
        paths = {
            "csv": os.path.join(workdir, "rows.csv"),
            "sparse_text": os.path.join(workdir, "rows.svm"),
        }
        data.write_csv_dataset(d, paths["csv"])
        write_sparse_text(d, paths["sparse_text"])
        rows = ingested_rows(d)
        spec = losses.make_loss_spec("logistic", d.p, "tight")
        target = probe_target(rows, spec, self._train_config(), seed + PROBE_SEED_OFFSET)
        return CliState(workdir, rows, paths, target)

    def _out_path(self, state: CliState, i: int) -> str:
        return os.path.join(state.workdir, f"choose_{i}.json")

    def request(self, state: CliState, seed: int, i: int):
        fmt = CLI_FORMATS[i % len(CLI_FORMATS)]
        argv = [
            "choose-eps", "--data", state.paths[fmt], "--format", fmt,
            "--loss", "logistic", "--bounds", "tight", "--solver", "exact",
            "--reg-lambda", repr(REG_LAMBDA), "--delta", repr(DELTA),
            "--measure-eps", repr(MEASURE_EPS), "--target-utility", repr(state.target),
            "--seed", str(seed + i), "--out", self._out_path(state, i),
        ]

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run_cli(argv)
            return code, err.getvalue()

        return fmt, call

    def check(self, state: CliState, seed: int, i: int, output) -> None:
        code, stderr = output
        if code != 0:
            raise CheckFailed(f"exit code {code}: {stderr.strip()}")
        with open(self._out_path(state, i), encoding="utf-8") as fh:
            chosen = json.load(fh)["result"]["chosen_eps"]
        spec = losses.make_loss_spec("logistic", state.rows.p, "tight")
        want = chooser.plan(
            state.rows, spec, self._train_config(), MEASURE_EPS, DELTA, state.target, seed + i
        ).chosen_eps
        if chosen != want:
            raise CheckFailed(f"summary chosen_eps {chosen!r}, in-memory plan() {want!r}")

    def notes(self, state: CliState) -> dict:
        return {"file_bytes": {f: os.path.getsize(p) for f, p in state.paths.items()}}

    def reference(self):
        return calibration.ingest_kernel()

    def named_metrics(self, lat: dict) -> dict:
        return {f"cli_p50_s.{c}": _median(lat[c]) for c in self.classes}


WORKLOADS = {w.name: w for w in (PlanWide(), TablesSgd(), CliIngest())}
