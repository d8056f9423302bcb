"""Desk-scale reruns of the three reference experiments, plus the
retraining oracle that validates the implicit-differentiation solve by
brute force.

Seed policy: estimating runs use base_seed + repeat_index; actual-loss
runs use an independent stream offset by ACTUAL_SEED_OFFSET and the grid
position, so estimates are never correlated with the runs they are
judged against. The oracle, by contrast, REQUIRES the same draw on both
sides of its finite difference. Every emitted row is a pure function of
the config, so identical configs give identical tables.

The three experiments share one table, `experiment_estimate_vs_actual`:
the measuring sweep averages it with every target as a measuring eps,
and the sample sweep builds it on each nested subset. That table trains
its actual-loss runs, every grid point times every repeat, with one
`train_many` call, and its measuring runs, every measuring eps times
every repeat, with one `measure_many` call, so sgd_repro runs step
together in column blocks. A row therefore differs from the row that one
training at a time gives only by float reassociation (within 1e-14
relative in theta). The oracle likewise measures all its runs with one
`measure_many` call and retrains both sides of every difference with
one `train_many` call.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .chooser import measure_many
from .data import gen_synthetic
from .losses import make_loss_spec
from .model import Dataset, LossSpec, NoiseDraw, PrivacyBudget, _count, _positive
from .sensitivity import extrapolate
from .trainer import TrainConfig, train_many, utility

DEFAULT_TARGETS_LOW = tuple(round(0.05 * i, 2) for i in range(1, 21))
DEFAULT_MEASURING_LOW = (0.1, 0.25, 0.75)
DEFAULT_SAMPLE_GRID = (1000, 4000, 16000)

ACTUAL_SEED_OFFSET = 1_000_003
SUBSAMPLE_SEED_OFFSET = 7_777

# oracle-compare's central-difference step, relative to the measuring eps
ORACLE_FD_STEP_REL = 1e-4


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the built-in two-cluster generator."""

    n: int = 5000
    p: int = 10
    separation: float = 2.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a harness run needs besides a dataset; defaults follow
    the reference protocol (10 repeats, reg 1e-2, sgd training) with tight
    bound mode. An experiment given no dataset generates `synthetic`, or
    for None `SyntheticSpec()`, which the sample sweep enlarges to fit."""

    synthetic: SyntheticSpec | None = None
    loss_kind: str = "logistic"
    bounds_mode: str = "tight"
    reg_lambda: float = 0.01
    delta: float = 1e-3
    measure_eps_list: tuple = DEFAULT_MEASURING_LOW
    target_grid: tuple = DEFAULT_TARGETS_LOW
    repeats: int = 10
    base_seed: int = 0
    sample_grid: tuple = DEFAULT_SAMPLE_GRID
    solver_mode: str = "sgd_repro"
    huber_h: float = 0.1
    smooth_t: float = 0.1

    def __post_init__(self):
        _count("repeats", self.repeats, 1)
        _count("base_seed", self.base_seed, 0)
        for name in ("measure_eps_list", "target_grid", "sample_grid"):
            if not getattr(self, name):
                raise ValueError(f"{name} must list at least one value")
        for name in ("measure_eps_list", "target_grid"):
            for eps in getattr(self, name):
                _positive(f"each {name} entry", eps)
        for n in self.sample_grid:
            _count("each sample_grid entry", n, 1)
        if list(self.target_grid) != sorted(self.target_grid):
            raise ValueError("target grid must be sorted ascending")


def resolve(
    cfg: ExperimentConfig, d: Dataset | None = None
) -> tuple[Dataset, LossSpec, TrainConfig]:
    """(dataset, loss spec, solver settings) a config refers to.

    The dataset is `d` if given, else generated from `cfg.synthetic` (or
    `SyntheticSpec()` for None) with the base seed.
    """
    if d is None:
        s = cfg.synthetic or SyntheticSpec()
        d = gen_synthetic(s.n, s.p, s.separation, cfg.base_seed)
    spec = make_loss_spec(
        cfg.loss_kind, d.p, cfg.bounds_mode, huber_h=cfg.huber_h, smooth_t=cfg.smooth_t
    )
    return d, spec, TrainConfig(reg_lambda=cfg.reg_lambda, solver_mode=cfg.solver_mode)


def seed_scheme(cfg: ExperimentConfig) -> dict:
    """The seeds a table run uses, as recorded in its run summary."""
    return {
        "base_seed": cfg.base_seed,
        "estimate_seeds": [cfg.base_seed + r for r in range(cfg.repeats)],
        "actual_seed_rule": (
            f"base_seed + {ACTUAL_SEED_OFFSET} + grid_index * repeats + repeat"
        ),
        "subsample_seed": cfg.base_seed + SUBSAMPLE_SEED_OFFSET,
    }


def experiment_estimate_vs_actual(cfg: ExperimentConfig, d: Dataset | None = None) -> list[dict]:
    """Experiment 1: extrapolated vs independently retrained loss, the
    table the other two experiments are read from.

    One row per (measuring eps, target eps) with the repeat-averaged
    estimated loss, actual loss and their absolute gap.
    """
    d, spec, tcfg = resolve(cfg, d)
    grid, reps = cfg.target_grid, cfg.repeats
    first = cfg.base_seed + ACTUAL_SEED_OFFSET
    actual_runs = [
        (PrivacyBudget(eps, cfg.delta), NoiseDraw.generate(d.p, first + j * reps + r))
        for j, eps in enumerate(grid)
        for r in range(reps)
    ]
    vals = [utility(model.theta, d, spec) for model in train_many(d, spec, tcfg, actual_runs)]
    act = np.mean(np.reshape(vals, (len(grid), reps)), axis=1)
    measuring_runs = [(me, cfg.base_seed + r) for me in cfg.measure_eps_list for r in range(reps)]
    found = measure_many(d, spec, tcfg, cfg.delta, measuring_runs)
    rows = []
    for i, me in enumerate(cfg.measure_eps_list):
        est = np.zeros(len(grid))
        for m in found[i * reps : (i + 1) * reps]:
            est += [extrapolate(m.line, t) for t in grid]
        est /= reps
        rows += [
            {
                "measure_eps": me,
                "target_eps": t,
                "estimated_loss": float(est[j]),
                "actual_loss": float(act[j]),
                "abs_error": float(abs(est[j] - act[j])),
            }
            for j, t in enumerate(grid)
        ]
    return rows


def experiment_measuring_sweep(cfg: ExperimentConfig, d: Dataset | None = None) -> list[dict]:
    """Experiment 2: how the measuring point placement drives average error.

    The estimate table with every target doubling as a measuring eps:
    each is scored by the mean abs_error of its rows at the other grid
    points, so the grid needs at least 2 targets (ValueError otherwise,
    before any training).
    """
    grid = cfg.target_grid
    if len(grid) < 2:
        raise ValueError(f"the measuring sweep needs at least 2 targets, got {len(grid)}")
    rows = experiment_estimate_vs_actual(replace(cfg, measure_eps_list=grid), d)
    # row i of `errors` holds measuring eps i's abs_error at every target
    errors = np.reshape([r["abs_error"] for r in rows], (len(grid), len(grid)))
    return [
        {"measure_eps": me, "avg_abs_error": float(np.mean(np.delete(errors[i], i)))}
        for i, me in enumerate(grid)
    ]


def experiment_sample_sweep(cfg: ExperimentConfig, d: Dataset | None = None) -> list[dict]:
    """Experiment 3: estimation error against sample count.

    The estimate table on each subset, measured at the first entry of
    cfg.measure_eps_list, with `n` in place of `measure_eps`. Subsets are
    prefixes of one seeded permutation, so smaller samples are nested
    inside larger ones. With no dataset and no `cfg.synthetic`, the
    default generator makes rows enough for the largest sample.
    """
    if d is None and cfg.synthetic is None:
        cfg = replace(cfg, synthetic=SyntheticSpec(n=max(SyntheticSpec.n, *cfg.sample_grid)))
    d = resolve(cfg, d)[0]
    if max(cfg.sample_grid) > d.n:
        raise ValueError(
            f"sample grid goes up to {max(cfg.sample_grid)} but the dataset has n={d.n}"
        )
    first_eps = replace(cfg, measure_eps_list=cfg.measure_eps_list[:1])
    perm = np.random.default_rng(cfg.base_seed + SUBSAMPLE_SEED_OFFSET).permutation(d.n)
    rows = []
    for n_sub in cfg.sample_grid:
        for row in experiment_estimate_vs_actual(first_eps, d.subset(perm[:n_sub])):
            del row["measure_eps"]
            rows.append({"n": n_sub, **row})
    return rows


def oracle_compare(cfg: ExperimentConfig, d: Dataset | None = None) -> list[dict]:
    """Brute-force check of the implicit-differentiation solve.

    For each measuring eps and repeat: measure dtheta/deps and the
    utility slope analytically, then recompute both by central finite
    differences of exact retraining at eps +/- h, with
    h = ORACLE_FD_STEP_REL * eps and the SAME noise draw, and report
    relative errors. Requires the exact solver.
    """
    d, spec, tcfg = resolve(cfg, d)
    tcfg = replace(tcfg, solver_mode="exact", stationarity_tol=1e-12, max_exact_iterations=500)
    runs = [(me, cfg.base_seed + r) for me in cfg.measure_eps_list for r in range(cfg.repeats)]
    found = measure_many(d, spec, tcfg, cfg.delta, runs)
    steps = [ORACLE_FD_STEP_REL * me for me, _ in runs]
    # eps - h, then eps + h, both on the measuring run's own draw
    retrain = [
        (PrivacyBudget(me + side, cfg.delta), m.model.noise)
        for (me, _), h, m in zip(runs, steps, found)
        for side in (-h, h)
    ]
    sides = train_many(d, spec, tcfg, retrain)
    rows = []
    for (me, seed), h, m, lo, hi in zip(runs, steps, found, sides[::2], sides[1::2]):
        v_fd = (hi.theta - lo.theta) / (2.0 * h)
        slope_fd = (utility(hi.theta, d, spec) - utility(lo.theta, d, spec)) / (2.0 * h)

        dtheta_rel = float(
            np.linalg.norm(m.report.dtheta_deps - v_fd) / max(np.linalg.norm(v_fd), 1e-300)
        )
        slope_rel = float(abs(m.line.slope - slope_fd) / max(abs(slope_fd), 1e-300))
        rows.append(
            {
                "measure_eps": me,
                "seed": seed,
                "dtheta_rel_err": dtheta_rel,
                "slope_rel_err": slope_rel,
                "fd_step": h,
            }
        )
    return rows
