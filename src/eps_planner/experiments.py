"""Desk-scale reruns of the three reference experiments, plus the
retraining oracle that validates the implicit-differentiation solve by
brute force.

Seed policy: estimating runs use base_seed + repeat_index; actual-loss
runs use an independent stream offset by ACTUAL_SEED_OFFSET and the grid
position, so estimates are never correlated with the runs they are
judged against. The oracle, by contrast, REQUIRES the same draw on both
sides of its finite difference. Every emitted row is a pure function of
the config, so identical configs give identical tables.

Each table trains its actual-loss runs, every grid point times every
repeat, with one `train_many` call, and its measuring runs, every
measuring eps times every repeat, with one `measure_many` call (once per
subset in the sample sweep), so sgd_repro runs step together in column
blocks. A row therefore differs from the row that one training at a
time gives only by float reassociation (within 1e-14 relative in theta).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

from .chooser import measure, measure_many
from .data import gen_synthetic
from .losses import make_loss_spec
from .model import Dataset, LossSpec, NoiseDraw, PrivacyBudget
from .sensitivity import extrapolate
from .trainer import TrainConfig, train, train_many, utility

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
    bound mode. An experiment given no dataset generates `synthetic`."""

    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
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
        if not isinstance(self.repeats, Integral) or self.repeats < 1:
            raise ValueError(f"repeats must be an integer >= 1, got {self.repeats!r}")
        if not isinstance(self.base_seed, Integral) or self.base_seed < 0:
            raise ValueError(f"base_seed must be an integer >= 0, got {self.base_seed!r}")
        if not self.measure_eps_list or any(e <= 0 for e in self.measure_eps_list):
            raise ValueError("measure_eps_list must list at least one positive eps")
        if not self.target_grid or any(e <= 0 for e in self.target_grid):
            raise ValueError("target_grid must list at least one positive eps")
        if list(self.target_grid) != sorted(self.target_grid):
            raise ValueError("target grid must be sorted ascending")
        if not self.sample_grid or not all(
            isinstance(n, Integral) and n >= 1 for n in self.sample_grid
        ):
            raise ValueError("sample_grid must list at least one integer >= 1")


def resolve(
    cfg: ExperimentConfig, d: Dataset | None = None
) -> tuple[Dataset, LossSpec, TrainConfig]:
    """(dataset, loss spec, solver settings) a config refers to.

    The dataset is `d` if given, else generated from `cfg.synthetic` with
    the base seed.
    """
    if d is None:
        s = cfg.synthetic
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


def _actual_means(d, spec, tcfg, grid, cfg) -> np.ndarray:
    """Mean actual loss per grid point over `repeats` independent draws,
    every draw of every grid point trained by one `train_many` call."""
    first = cfg.base_seed + ACTUAL_SEED_OFFSET
    runs = [
        (PrivacyBudget(eps, cfg.delta), NoiseDraw.generate(d.p, first + j * cfg.repeats + r))
        for j, eps in enumerate(grid)
        for r in range(cfg.repeats)
    ]
    vals = [utility(model.theta, d, spec) for model in train_many(d, spec, tcfg, runs)]
    return np.mean(np.reshape(vals, (len(grid), cfg.repeats)), axis=1)


def _estimate_means(d, spec, tcfg, measuring, grid, cfg) -> list[np.ndarray]:
    """Mean estimated loss per grid point, extrapolated from each measuring
    eps in turn, every repeat of every measuring eps measured by one
    `measure_many` call."""
    seeds = [cfg.base_seed + r for r in range(cfg.repeats)]
    found = measure_many(d, spec, tcfg, cfg.delta, [(me, s) for me in measuring for s in seeds])
    means = []
    for i in range(len(measuring)):
        acc = np.zeros(len(grid))
        for m in found[i * cfg.repeats : (i + 1) * cfg.repeats]:
            acc += [extrapolate(m.line, t) for t in grid]
        means.append(acc / cfg.repeats)
    return means


def _error_rows(key, value, grid, est, act) -> list[dict]:
    """One (key, target, estimated, actual, abs error) row per grid point."""
    return [
        {
            key: value,
            "target_eps": t,
            "estimated_loss": float(est[j]),
            "actual_loss": float(act[j]),
            "abs_error": float(abs(est[j] - act[j])),
        }
        for j, t in enumerate(grid)
    ]


def experiment_estimate_vs_actual(cfg: ExperimentConfig, d: Dataset | None = None) -> list[dict]:
    """Experiment 1: extrapolated vs independently retrained loss.

    One row per (measuring eps, target eps) with the repeat-averaged
    estimated loss, actual loss and their absolute gap.
    """
    d, spec, tcfg = resolve(cfg, d)
    act = _actual_means(d, spec, tcfg, cfg.target_grid, cfg)
    ests = _estimate_means(d, spec, tcfg, cfg.measure_eps_list, cfg.target_grid, cfg)
    rows = []
    for me, est in zip(cfg.measure_eps_list, ests):
        rows += _error_rows("measure_eps", me, cfg.target_grid, est, act)
    return rows


def experiment_measuring_sweep(cfg: ExperimentConfig, d: Dataset | None = None) -> list[dict]:
    """Experiment 2: how the measuring point placement drives average error.

    Every point of the target grid doubles as a measuring candidate and
    is scored by its average absolute error over all other grid points,
    so the grid needs at least 2 targets (ValueError otherwise).
    """
    grid = cfg.target_grid
    if len(grid) < 2:
        raise ValueError(f"the measuring sweep needs at least 2 targets, got {len(grid)}")
    d, spec, tcfg = resolve(cfg, d)
    act = _actual_means(d, spec, tcfg, grid, cfg)
    ests = _estimate_means(d, spec, tcfg, grid, grid, cfg)
    rows = []
    for mi, (me, est) in enumerate(zip(grid, ests)):
        others = [j for j in range(len(grid)) if j != mi]
        avg_err = float(np.mean([abs(est[j] - act[j]) for j in others]))
        rows.append({"measure_eps": me, "avg_abs_error": avg_err})
    return rows


def experiment_sample_sweep(cfg: ExperimentConfig, d: Dataset | None = None) -> list[dict]:
    """Experiment 3: estimation error against sample count.

    Subsets are prefixes of one seeded permutation, so smaller samples
    are nested inside larger ones. The measuring point is the first
    entry of cfg.measure_eps_list.
    """
    d, spec, tcfg = resolve(cfg, d)
    if max(cfg.sample_grid) > d.n:
        raise ValueError(
            f"sample grid goes up to {max(cfg.sample_grid)} but the dataset has n={d.n}"
        )
    me = cfg.measure_eps_list[0]
    perm = np.random.default_rng(cfg.base_seed + SUBSAMPLE_SEED_OFFSET).permutation(d.n)
    rows = []
    for n_sub in cfg.sample_grid:
        sub = d.subset(perm[:n_sub])
        act = _actual_means(sub, spec, tcfg, cfg.target_grid, cfg)
        (est,) = _estimate_means(sub, spec, tcfg, (me,), cfg.target_grid, cfg)
        rows += _error_rows("n", n_sub, cfg.target_grid, est, act)
    return rows


def oracle_compare(cfg: ExperimentConfig, d: Dataset | None = None) -> list[dict]:
    """Brute-force check of the implicit-differentiation solve.

    For each measuring eps and repeat: measure dtheta/deps and the
    utility slope analytically with `measure`, then recompute both by
    central finite differences of exact retraining at eps +/- h, with
    h = ORACLE_FD_STEP_REL * eps and the SAME noise draw, and report
    relative errors. Requires the exact solver.
    """
    d, spec, tcfg = resolve(cfg, d)
    tcfg = replace(tcfg, solver_mode="exact", stationarity_tol=1e-12, max_exact_iterations=500)
    rows = []
    for me in cfg.measure_eps_list:
        h = ORACLE_FD_STEP_REL * me
        for r in range(cfg.repeats):
            seed = cfg.base_seed + r
            m = measure(d, spec, tcfg, me, cfg.delta, seed)
            noise = m.model.noise
            lo = train(d, spec, tcfg, PrivacyBudget(me - h, cfg.delta), noise)
            hi = train(d, spec, tcfg, PrivacyBudget(me + h, cfg.delta), noise)
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
