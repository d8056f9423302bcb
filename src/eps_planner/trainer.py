"""Minimization of the perturbed objective.

The objective is L(theta, D) + (Lam/2n)||theta||^2 + (1/n) <b_eps, theta>
+ (Delta_eps/2n)||theta||^2. Two solver modes:

  exact     -- damped Newton with Armijo backtracking, run to a gradient
               norm tolerance. The objective is (Lam+Delta_eps)/n strongly
               convex, so the minimizer is unique and the downstream
               implicit-differentiation step is valid.
  sgd_repro -- exactly `sgd_iterations` full-gradient steps of fixed size
               from zero, mirroring the experimental protocol of the
               original evaluations. No convergence guarantee.

Each point the solver visits gets one margins pass, X theta, and
everything evaluated there reads that one vector. An sgd step and the
sgd final gradient check evaluate the gradient alone; a Newton
line-search candidate, value and gradient, and the accepted candidate's
gradient is the one reported at the solution. The loss Hessian is built
only at the start point and at each accepted iterate that has not yet
converged, once per Newton step, from the margins that point's line
search already computed.

Training is deterministic given (dataset, spec, config, budget, seed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import NumericalError
from .losses import aggregate, hessian, margin_values, margins
from .model import SOLVER_MODES, Dataset, LossSpec, NoiseDraw, PrivacyBudget, PrivateModel
from .perturbation import PerturbationAtEps, materialize

# module-level counter used by callers to assert how many trainings ran
TRAIN_CALL_COUNT = 0


@dataclass(frozen=True)
class TrainConfig:
    """Solver settings; the sgd defaults reproduce the reference protocol."""

    reg_lambda: float = 0.01
    solver_mode: str = "exact"
    stationarity_tol: float = 1e-8
    sgd_iterations: int = 100
    sgd_learning_rate: float = 0.01
    max_exact_iterations: int = 200

    def __post_init__(self):
        if not 0 <= self.reg_lambda < math.inf:
            raise ValueError(f"reg_lambda must be nonnegative and finite, got {self.reg_lambda}")
        if self.solver_mode not in SOLVER_MODES:
            raise ValueError(f"unknown solver mode {self.solver_mode!r}")
        if not self.stationarity_tol > 0:
            raise ValueError("stationarity_tol must be positive")
        if not self.sgd_learning_rate > 0:
            raise ValueError("sgd_learning_rate must be positive")


def perturbed_objective(
    theta: np.ndarray,
    d: Dataset,
    spec: LossSpec,
    cfg: TrainConfig,
    pert: PerturbationAtEps,
    *,
    with_value: bool = True,
) -> tuple[float | None, np.ndarray]:
    """Value and gradient of the perturbed training objective.

    with_value=False skips the loss values and returns (None, gradient).
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape[0] != d.p or pert.b.shape[0] != d.p:
        raise ValueError("dimension mismatch between theta, dataset and perturbation")
    return _objective(theta, margins(theta, d), d, spec, cfg, pert, with_value=with_value)


def _objective(theta, m, d, spec, cfg, pert, *, with_value):
    # perturbed_objective at theta, from its margins m = margins(theta, d)
    n = d.n
    L, gradL = aggregate(spec, m, d, with_value=with_value)
    ridge = cfg.reg_lambda + pert.delta_eps_coeff
    grad = gradL + (ridge * theta + pert.b) / n
    if not with_value:
        return None, grad
    value = L + ridge / (2.0 * n) * float(theta @ theta) + float(pert.b @ theta) / n
    return value, grad


def train(
    d: Dataset,
    spec: LossSpec,
    cfg: TrainConfig,
    budget: PrivacyBudget,
    noise: NoiseDraw,
    theta0: np.ndarray | None = None,
) -> PrivateModel:
    """Minimize the perturbed objective and return the trained model."""
    global TRAIN_CALL_COUNT
    TRAIN_CALL_COUNT += 1

    if noise.p != d.p:
        raise ValueError(f"noise draw has length {noise.p}, dataset has p={d.p}")
    pert = materialize(noise, spec.zeta, budget.delta, budget.epsilon, spec.lambda_hess)
    theta = np.zeros(d.p) if theta0 is None else np.array(theta0, dtype=np.float64)

    run = _run_sgd if cfg.solver_mode == "sgd_repro" else _run_newton
    theta, iters, grad_norm = run(theta, d, spec, cfg, pert)
    if not np.isfinite(grad_norm):
        raise NumericalError("non-finite gradient at solution")
    return PrivateModel(
        theta=theta,
        budget=budget,
        reg_lambda=cfg.reg_lambda,
        noise=noise,
        loss=spec,
        grad_norm_at_solution=grad_norm,
        solver_mode=cfg.solver_mode,
        iterations_used=iters,
    )


def _run_sgd(theta, d, spec, cfg, pert):
    lr = cfg.sgd_learning_rate
    for it in range(cfg.sgd_iterations):
        _, grad = _objective(theta, margins(theta, d), d, spec, cfg, pert, with_value=False)
        theta = theta - lr * grad
        if not np.all(np.isfinite(theta)):
            raise NumericalError(f"non-finite iterate at sgd step {it + 1}")
    _, grad = _objective(theta, margins(theta, d), d, spec, cfg, pert, with_value=False)
    return theta, cfg.sgd_iterations, float(np.linalg.norm(grad))


def _run_newton(theta, d, spec, cfg, pert):
    m = margins(theta, d)
    value, grad = _objective(theta, m, d, spec, cfg, pert, with_value=True)
    gnorm = float(np.linalg.norm(grad))
    ridge_eye = ((cfg.reg_lambda + pert.delta_eps_coeff) / d.n) * np.eye(d.p)
    steps_taken = 0
    for it in range(cfg.max_exact_iterations):
        if not np.isfinite(value) or not np.isfinite(gnorm):
            raise NumericalError(f"non-finite objective at exact-solver step {it}")
        if gnorm <= cfg.stationarity_tol:
            return theta, steps_taken, gnorm
        hess = hessian(spec, m, d) + ridge_eye
        step = _newton_step(hess, grad)
        slope = float(grad @ step)
        # Armijo backtracking on the objective value; once value differences
        # fall below float resolution, accept on gradient-norm progress with
        # an ulp-level value slack instead
        accepted = False
        t = 1.0
        slack = 8.0 * np.spacing(max(1.0, abs(value)))
        while t >= 1e-14:
            cand = theta + t * step
            cand_m = margins(cand, d)
            cand_value, cand_grad = _objective(cand, cand_m, d, spec, cfg, pert, with_value=True)
            cand_gnorm = float(np.linalg.norm(cand_grad))
            armijo_ok = (
                cand_value <= value + 1e-4 * t * slope
                and (cand_value < value or cand_gnorm < gnorm)
            )
            flat_ok = cand_value <= value + slack and cand_gnorm < 0.9 * gnorm
            if np.isfinite(cand_value) and (armijo_ok or flat_ok):
                theta, m, value, grad, gnorm = cand, cand_m, cand_value, cand_grad, cand_gnorm
                accepted = True
                steps_taken += 1
                break
            t *= 0.5
        if not accepted:
            break  # no certifiable progress left at float resolution
    if gnorm <= cfg.stationarity_tol:
        return theta, steps_taken, gnorm
    raise NumericalError(
        f"exact solver did not reach tolerance {cfg.stationarity_tol:.3e} "
        f"(gradient norm {gnorm:.3e})"
    )


def _newton_step(hess, grad):
    # the ridge keeps hess positive definite; a failed factor is an error
    try:
        factor = cho_factor(hess, lower=True)
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(hess).min())
        raise NumericalError(
            f"Newton matrix is not positive definite (min eigenvalue {min_eig:.3e})"
        ) from None
    return cho_solve(factor, -grad)


def utility(theta: np.ndarray, d: Dataset, spec: LossSpec) -> float:
    """Mean unregularized empirical loss: the utility F(theta, D).

    Excludes the regularizer and both perturbation terms; this is the
    quantity the extrapolation machinery predicts across eps.
    """
    return float(margin_values(spec, margins(theta, d)).mean())


def classification_error_rate(theta: np.ndarray, d: Dataset) -> float:
    """Fraction of examples with nonpositive margin. Reporting only; not
    differentiable, never fed to the slope machinery."""
    return float(np.mean(margins(theta, d) <= 0.0))
