"""Accuracy-first budget selection: one training run, then invert the line.

Train once at a measuring budget, measure the utility and its slope in
eps, and read the budget expected to reach a requested utility off the
resulting affine predictor. `measure` is that train-and-measure step;
`plan`, the experiment harnesses and the CLI all go through it. The
sensitivity solve it calls forms its own system, damping included, so
`measure` only opts non-stationary sgd_repro iterates in. It computes
the margins at theta_hat once: W, the utility and its gradient all read
that one vector.
"""
from __future__ import annotations

import warnings
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
from .perturbation import materialize
from .sensitivity import ErrorScale, _dtheta_deps, error_scale
from .trainer import TrainConfig, train

SLOPE_TOL = 1e-12

# warn when the chosen budget leaves the measuring budget's order of magnitude
MAGNITUDE_GAP = 10.0


class MagnitudeGapWarning(UserWarning):
    """Chosen and measuring budgets differ by more than one order of magnitude."""


def choose_epsilon(line: ExtrapolationLine, expected_utility: float) -> float:
    """Invert the affine predictor: the budget whose predicted utility is
    `expected_utility`.

    Raises FlatSlopeError when the slope is numerically zero and
    UnreachableUtilityError when the inversion lands at a nonpositive
    budget.
    """
    if abs(line.slope) <= SLOPE_TOL:
        raise FlatSlopeError(
            f"utility locally insensitive to eps (slope {line.slope:.3e})"
        )
    eps_hat = (expected_utility - line.base_utility) / line.slope + line.measure_eps
    if not eps_hat > 0:
        raise UnreachableUtilityError(
            f"expected utility {expected_utility} unreachable: "
            f"inversion gives eps {eps_hat:.6g} <= 0"
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
    is not stationary, so measure opts in to its sensitivity solve, which
    dtheta_deps damps by (Lam + Delta_eps)/n; exact models are solved
    undamped. The results equal those of dtheta_deps, utility and
    utility_slope bit for bit, from one margins pass at theta_hat.
    """
    noise = NoiseDraw.generate(d.p, seed)
    model = train(d, spec, cfg, PrivacyBudget(epsilon=eps, delta=delta), noise)
    pert = materialize(noise, spec.zeta, delta, eps, spec.lambda_hess)
    m = margins(model.theta, d)
    report = _dtheta_deps(
        model, m, d, spec, pert, allow_nonstationary=cfg.solver_mode == "sgd_repro"
    )
    # the utility F is the mean loss, so aggregate gives F and its gradient
    base_utility, gradF = aggregate(spec, m, d)
    line = ExtrapolationLine(
        measure_eps=eps, base_utility=base_utility, slope=float(gradF @ report.dtheta_deps)
    )
    return Measurement(model=model, report=report, line=line)


@dataclass(frozen=True)
class PlanResult:
    """Everything one planning run produces."""

    model: PrivateModel
    report: SensitivityReport
    line: ExtrapolationLine
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
    scale for the resulting budget pair. Deploying at the chosen budget
    should use a fresh noise draw (privacy calibration is per release);
    this function never trains a second time.
    """
    m = measure(d, spec, cfg, measure_eps, delta, seed)
    eps_hat = choose_epsilon(m.line, expected_utility)
    scale = error_scale(measure_eps, eps_hat, d.n)

    ratio = max(eps_hat, measure_eps) / min(eps_hat, measure_eps)
    gap = ratio > MAGNITUDE_GAP
    if gap:
        warnings.warn(
            f"chosen eps {eps_hat:.4g} and measuring eps {measure_eps:.4g} differ "
            f"by more than an order of magnitude; the first-order estimate may be "
            f"unreliable (remainder scale {scale.scale:.3g})",
            MagnitudeGapWarning,
            stacklevel=2,
        )
    return PlanResult(
        model=m.model,
        report=m.report,
        line=m.line,
        chosen_eps=eps_hat,
        scale=scale,
        magnitude_warning=gap,
    )
