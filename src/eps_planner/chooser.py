"""Accuracy-first budget selection: one training run, then invert the line.

Train once at a measuring budget, measure the utility and its slope in
eps, and read the budget expected to reach a requested utility off the
resulting affine predictor. `measure_many` is that train-and-measure
step for a list of runs, and `measure` its one-run case; `plan`, the
experiment harnesses and the CLI all go through them. `measure_many`
trains its runs as one `train_many` call does, so a table's sgd_repro
measuring runs step together, then measures each model alone. The
sensitivity solve it calls reads the loss and the damping off the
trained model and is passed the run's perturbation and the margins at
theta_hat: W, the utility and its gradient all read one vector. An exact
run takes those margins, the utility and its gradient from the Newton
solver's last accepted evaluation, so its measurement makes no margins
or aggregate call; an sgd_repro iterate gets one of each.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import FlatSlopeError, UnreachableUtilityError
from .losses import aggregate, margins
from .model import (
    Dataset,
    ExtrapolationLine,
    LossSpec,
    NoiseDraw,
    PrivacyBudget,
    PrivateModel,
    SensitivityReport,
)
from .sensitivity import ErrorScale, _dtheta_deps, error_scale
from .trainer import TrainConfig, _train_runs

SLOPE_TOL = 1e-12

# flag a chosen budget outside the measuring budget's order of magnitude
MAGNITUDE_GAP = 10.0


def choose_epsilon(line: ExtrapolationLine, expected_utility: float) -> float:
    """Invert the affine predictor: the budget whose predicted utility is
    `expected_utility`.

    Raises ValueError for a non-finite `expected_utility`, FlatSlopeError
    when the slope is numerically zero relative to the utility (the
    elasticity |slope| * measure_eps / |base_utility| is at most
    SLOPE_TOL) and UnreachableUtilityError when the inversion lands at a
    nonpositive budget or past the float range.
    """
    if not math.isfinite(expected_utility):
        raise ValueError(f"expected utility {expected_utility} is not finite")
    if abs(line.slope) * line.measure_eps <= SLOPE_TOL * abs(line.base_utility):
        raise FlatSlopeError(
            f"utility locally insensitive to eps (slope {line.slope:.3e})"
        )
    eps_hat = (expected_utility - line.base_utility) / line.slope + line.measure_eps
    if not eps_hat > 0:
        raise UnreachableUtilityError(
            f"expected utility {expected_utility} unreachable: "
            f"inversion gives eps {eps_hat:.6g} <= 0"
        )
    if eps_hat == float("inf"):
        raise UnreachableUtilityError(
            f"expected utility {expected_utility} unreachable: inversion leaves the float range"
        )
    return eps_hat


@dataclass(frozen=True)
class Measurement:
    """One training at a measuring budget and what it measures there."""

    model: PrivateModel
    report: SensitivityReport
    line: ExtrapolationLine


def measure(
    d: Dataset, spec: LossSpec, cfg: TrainConfig, eps: float, delta: float, seed: int
) -> Measurement:
    """Train once at `eps` and measure the utility and its slope there.

    The noise draw is NoiseDraw.generate(d.p, seed). An sgd_repro iterate
    is not stationary; measure accepts it, and its sensitivity solve is
    damped by (Lam + Delta_eps)/n, a convex quadratic approximation of the
    loss around the iterate (dtheta_deps refuses such models). Exact
    models are solved undamped, and their results equal those of
    dtheta_deps, utility and utility_slope bit for bit, from the margins,
    loss value and loss gradient of the solver's last evaluation. This is
    the one-run case of `measure_many`.
    """
    return measure_many(d, spec, cfg, delta, [(eps, seed)])[0]


def measure_many(
    d: Dataset,
    spec: LossSpec,
    cfg: TrainConfig,
    delta: float,
    runs: Iterable[tuple[float, int]],
) -> list[Measurement]:
    """`measure` for each (eps, seed) run, in order, trained as one
    `train_many` call trains them: sgd_repro runs train together, and each
    is then measured alone."""
    draws = [
        (PrivacyBudget(epsilon=eps, delta=delta), NoiseDraw.generate(d.p, seed))
        for eps, seed in runs
    ]
    out = []
    for model, pert, last in _train_runs(d, spec, cfg, draws):
        if last is None:
            # an sgd_repro iterate: the utility F is the mean loss, so
            # aggregate gives F and its gradient
            m = margins(model.theta, d)
            last = (m, *aggregate(spec, m, d))
        m, base_utility, gradF = last
        report = _dtheta_deps(model, pert, m, d)
        line = ExtrapolationLine(
            measure_eps=model.budget.epsilon,
            base_utility=base_utility,
            slope=float(gradF @ report.dtheta_deps),
        )
        out.append(Measurement(model=model, report=report, line=line))
    return out


@dataclass(frozen=True)
class PlanResult(Measurement):
    """Everything one planning run produces: the measurement at the
    measuring budget plus the chosen budget, its remainder scale and the
    magnitude-gap flag."""

    chosen_eps: float
    scale: ErrorScale
    magnitude_warning: bool


def plan(
    d: Dataset,
    spec: LossSpec,
    cfg: TrainConfig,
    measure_eps: float,
    delta: float,
    expected_utility: float,
    seed: int,
) -> PlanResult:
    """Run the selection procedure end to end with exactly one training.

    Measure at the measuring budget (see `measure`), invert the affine
    predictor at the requested utility, and attach the Taylor-remainder
    scale for the resulting budget pair. `magnitude_warning` is the report
    that the chosen and measuring budgets differ by more than a factor of
    MAGNITUDE_GAP, where the first-order estimate may be unreliable; no
    Python warning is emitted. Deploying at the chosen budget should use a
    fresh noise draw (privacy calibration is per release); this function
    never trains a second time.
    """
    m = measure(d, spec, cfg, measure_eps, delta, seed)
    eps_hat = choose_epsilon(m.line, expected_utility)
    scale = error_scale(measure_eps, eps_hat, d.n)

    ratio = max(eps_hat, measure_eps) / min(eps_hat, measure_eps)
    return PlanResult(
        **vars(m),
        chosen_eps=eps_hat,
        scale=scale,
        magnitude_warning=ratio > MAGNITUDE_GAP,
    )
