"""Desk-scale reruns of the three reference experiments, plus the
retraining oracle that validates the implicit-differentiation solve by
brute force.

Seed policy: estimating runs use base_seed + repeat_index; actual-loss
runs use an independent stream offset by ACTUAL_SEED_OFFSET and the grid
position, so estimates are never correlated with the runs they are
judged against. The oracle, by contrast, REQUIRES the same draw on both
sides of its finite difference. Every emitted row is a pure function of
the config, so identical configs give identical tables.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chooser import measure
from .data import gen_synthetic, load_dataset
from .model import Dataset, NoiseDraw, PrivacyBudget
from .losses import make_loss_spec
from .trainer import TrainConfig, train, utility

DEFAULT_TARGETS_LOW = tuple(round(0.05 * i, 2) for i in range(1, 21))
DEFAULT_TARGETS_HIGH = tuple(1.0 + 0.5 * i for i in range(19))
DEFAULT_MEASURING_LOW = (0.1, 0.25, 0.75)
DEFAULT_MEASURING_HIGH = (1.0, 2.5, 7.5)
DEFAULT_SAMPLE_GRID = (1000, 4000, 16000)

ACTUAL_SEED_OFFSET = 1_000_003
SUBSAMPLE_SEED_OFFSET = 7_777

# oracle-compare's central-difference step, relative to the measuring eps
ORACLE_FD_STEP_REL = 1e-4

ESTIMATE_COLUMNS = ("measure_eps", "target_eps", "estimated_loss", "actual_loss", "abs_error")
SWEEP_COLUMNS = ("measure_eps", "avg_abs_error")
SAMPLE_COLUMNS = ("n", "target_eps", "estimated_loss", "actual_loss", "abs_error")
ORACLE_COLUMNS = ("measure_eps", "seed", "dtheta_rel_err", "slope_rel_err", "fd_step")


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the built-in two-cluster generator."""

    n: int = 5000
    p: int = 10
    separation: float = 2.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a harness run needs; defaults follow the reference
    protocol (10 repeats, reg 1e-2, sgd training) with tight bound mode."""

    dataset_path: str | None = None
    data_format: str = "csv"
    label_col: str = "label"
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
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if any(e <= 0 for e in self.measure_eps_list):
            raise ValueError("all measuring eps must be positive")
        if any(e <= 0 for e in self.target_grid):
            raise ValueError("all target eps must be positive")
        if list(self.target_grid) != sorted(self.target_grid):
            raise ValueError("target grid must be sorted ascending")
        if any(n < 1 for n in self.sample_grid):
            raise ValueError("sample counts must be >= 1")


def resolve_dataset(cfg: ExperimentConfig) -> Dataset:
    """The dataset a config refers to: a file if given, else synthetic."""
    if cfg.dataset_path is not None:
        return load_dataset(cfg.dataset_path, cfg.data_format, label_col=cfg.label_col)
    s = cfg.synthetic
    return gen_synthetic(s.n, s.p, s.separation, cfg.base_seed)


def loss_spec_for(cfg: ExperimentConfig, p: int):
    return make_loss_spec(
        cfg.loss_kind, p, cfg.bounds_mode, huber_h=cfg.huber_h, smooth_t=cfg.smooth_t
    )


def train_config_for(cfg: ExperimentConfig) -> TrainConfig:
    return TrainConfig(reg_lambda=cfg.reg_lambda, solver_mode=cfg.solver_mode)


def _actual_once(d, spec, tcfg, eps, delta, seed):
    budget = PrivacyBudget(eps, delta)
    noise = NoiseDraw.generate(d.p, seed)
    model = train(d, spec, tcfg, budget, noise)
    return utility(model.theta, d, spec)


def _actual_means(d, spec, tcfg, grid, cfg) -> np.ndarray:
    """Mean actual loss per grid point over `repeats` independent draws."""
    means = np.zeros(len(grid))
    for j, eps in enumerate(grid):
        vals = [
            _actual_once(
                d, spec, tcfg, eps, cfg.delta,
                cfg.base_seed + ACTUAL_SEED_OFFSET + j * cfg.repeats + r,
            )
            for r in range(cfg.repeats)
        ]
        means[j] = float(np.mean(vals))
    return means


def _estimate_means(d, spec, tcfg, measure_eps, grid, cfg) -> np.ndarray:
    """Mean estimated loss per grid point, extrapolated from measure_eps."""
    grid_arr = np.asarray(grid, dtype=np.float64)
    acc = np.zeros(len(grid))
    for r in range(cfg.repeats):
        line = measure(d, spec, tcfg, measure_eps, cfg.delta, cfg.base_seed + r).line
        acc += line.base_utility + line.slope * (grid_arr - measure_eps)
    return acc / cfg.repeats


def experiment_estimate_vs_actual(cfg: ExperimentConfig, d: Dataset | None = None) -> list[dict]:
    """Experiment 1: extrapolated vs independently retrained loss.

    One row per (measuring eps, target eps) with the repeat-averaged
    estimated loss, actual loss and their absolute gap.
    """
    d = resolve_dataset(cfg) if d is None else d
    spec = loss_spec_for(cfg, d.p)
    tcfg = train_config_for(cfg)
    act = _actual_means(d, spec, tcfg, cfg.target_grid, cfg)
    rows = []
    for me in cfg.measure_eps_list:
        est = _estimate_means(d, spec, tcfg, me, cfg.target_grid, cfg)
        for j, t in enumerate(cfg.target_grid):
            rows.append(
                {
                    "measure_eps": me,
                    "target_eps": t,
                    "estimated_loss": float(est[j]),
                    "actual_loss": float(act[j]),
                    "abs_error": float(abs(est[j] - act[j])),
                }
            )
    return rows


def experiment_measuring_sweep(cfg: ExperimentConfig, d: Dataset | None = None) -> list[dict]:
    """Experiment 2: how the measuring point placement drives average error.

    Every point of the target grid doubles as a measuring candidate and
    is scored by its average absolute error over all other grid points.
    """
    d = resolve_dataset(cfg) if d is None else d
    spec = loss_spec_for(cfg, d.p)
    tcfg = train_config_for(cfg)
    grid = cfg.target_grid
    act = _actual_means(d, spec, tcfg, grid, cfg)
    rows = []
    for mi, me in enumerate(grid):
        est = _estimate_means(d, spec, tcfg, me, grid, cfg)
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
    d = resolve_dataset(cfg) if d is None else d
    if max(cfg.sample_grid) > d.n:
        raise ValueError(
            f"sample grid goes up to {max(cfg.sample_grid)} but the dataset has n={d.n}"
        )
    spec = loss_spec_for(cfg, d.p)
    tcfg = train_config_for(cfg)
    me = cfg.measure_eps_list[0]
    perm = np.random.default_rng(cfg.base_seed + SUBSAMPLE_SEED_OFFSET).permutation(d.n)
    rows = []
    for n_sub in cfg.sample_grid:
        sub = d.subset(perm[:n_sub])
        act = _actual_means(sub, spec, tcfg, cfg.target_grid, cfg)
        est = _estimate_means(sub, spec, tcfg, me, cfg.target_grid, cfg)
        for j, t in enumerate(cfg.target_grid):
            rows.append(
                {
                    "n": n_sub,
                    "target_eps": t,
                    "estimated_loss": float(est[j]),
                    "actual_loss": float(act[j]),
                    "abs_error": float(abs(est[j] - act[j])),
                }
            )
    return rows


def oracle_compare(cfg: ExperimentConfig, d: Dataset | None = None) -> list[dict]:
    """Brute-force check of the implicit-differentiation solve.

    For each measuring eps and repeat: measure dtheta/deps and the
    utility slope analytically with `measure`, then recompute both by
    central finite differences of exact retraining at eps +/- h, with
    h = ORACLE_FD_STEP_REL * eps and the SAME noise draw, and report
    relative errors. Requires the exact solver.
    """
    d = resolve_dataset(cfg) if d is None else d
    spec = loss_spec_for(cfg, d.p)
    tcfg = TrainConfig(
        reg_lambda=cfg.reg_lambda,
        solver_mode="exact",
        stationarity_tol=1e-12,
        max_exact_iterations=500,
    )
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
