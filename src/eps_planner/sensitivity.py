"""Budget sensitivity of the trained model, by implicit differentiation.

At the minimizer, the perturbed objective's gradient vanishes.
Differentiating that stationarity identity in eps gives a linear system

    W_eps * dtheta/deps = -(1/n) (b'_eps + Delta'_eps * theta_hat),

with W_eps = hess(L) + ((Lam + Delta_eps)/n) I, symmetric positive
definite. One Cholesky solve therefore prices the model's response to a
budget change, the chain rule turns it into a utility slope, and a
first-order Taylor step extrapolates the utility to any other budget.

`dtheta_deps` owns that system. It forms the ridge (Lam + Delta_eps)/n
from the model it is given and, for a non-stationary sgd_repro iterate,
derives its own damping from the same ridge and solves against
W + damping I instead. The loss Hessian is built once, for W, and the
matrix solved is factored once: the Cholesky factor that solves it is
also its positive-definiteness check. The slope needs only the loss
gradient.

W, the loss gradient and the utility all read the margins at theta_hat.
Each public function here computes them from the model; `chooser.measure`
computes them once and passes them to `_dtheta_deps` and `aggregate`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import NoiseMismatchError, NumericalError
from .losses import aggregate, hessian, margins
from .model import Dataset, ExtrapolationLine, LossSpec, PrivateModel, SensitivityReport
from .perturbation import PerturbationAtEps, delta_coeff, noise_sigma


def _ridge(model: PrivateModel, spec: LossSpec, n: int) -> float:
    # Hessian of the quadratic terms: the regularizer and Delta_eps
    return (model.reg_lambda + delta_coeff(spec.lambda_hess, model.budget.epsilon)) / n


def _check_spec(model: PrivateModel, spec: LossSpec) -> None:
    if spec != model.loss:
        raise ValueError(f"loss spec {spec} differs from the model's {model.loss}")


def assemble_w(model: PrivateModel, d: Dataset, spec: LossSpec) -> np.ndarray:
    """The p x p system matrix hess(L) at theta_hat plus ((Lam+Delta_eps)/n) I.

    The scalar ridge terms enter as multiples of the identity: they are
    the Hessian of the quadratic perturbation terms. The result is
    symmetric positive definite whenever Lam + Delta_eps > 0; it is not
    factored here, dtheta_deps checks it by factoring the matrix it solves.
    """
    return _assemble_w(model, margins(model.theta, d), d, spec)


def _assemble_w(model, m, d, spec):
    # assemble_w from the margins m at theta_hat
    return hessian(spec, m, d) + _ridge(model, spec, d.n) * np.eye(d.p)


def dtheta_deps(
    model: PrivateModel,
    d: Dataset,
    spec: LossSpec,
    pert: PerturbationAtEps,
    allow_nonstationary: bool = False,
) -> SensitivityReport:
    """Solve for d(theta_hat)/d(eps) at the model's own budget.

    `spec` must be the model's own loss, and the perturbation must have
    been materialized from the model's noise draw, budget and bound
    constants: its eps, base vector, sigma and Delta_eps are checked bit
    for bit (NoiseMismatchError otherwise). Models trained in
    sgd_repro mode are not stationary, so the implicit-differentiation
    identity does not hold exactly; pass allow_nonstationary=True to
    proceed anyway. Their solve is then damped by (Lam + Delta_eps)/n,
    which amounts to solving against a convex quadratic approximation of
    the loss around the returned iterate; exact models are solved
    undamped. The solved matrix is factored once, and that factorization
    is the definiteness check: NumericalError if it fails.
    """
    return _dtheta_deps(model, margins(model.theta, d), d, spec, pert, allow_nonstationary)


def _dtheta_deps(model, m, d, spec, pert, allow_nonstationary):
    # dtheta_deps from the margins m at theta_hat
    if model.solver_mode == "sgd_repro" and not allow_nonstationary:
        raise NumericalError(
            "model was trained in sgd_repro mode and is not stationary; "
            "pass allow_nonstationary=True to accept the quadratic-approximation caveat"
        )
    _check_spec(model, spec)
    eps = model.budget.epsilon
    if pert.eps != eps:
        raise NoiseMismatchError(f"perturbation eps {pert.eps} differs from model eps {eps}")
    if not np.array_equal(pert.base_u, model.noise.base_u):
        raise NoiseMismatchError(
            "perturbation was materialized from a different noise draw than the model's"
        )
    if pert.sigma != noise_sigma(spec.zeta, model.budget.delta, eps):
        raise NoiseMismatchError(
            "perturbation sigma differs from the model's budget delta and loss zeta"
        )
    if pert.delta_eps_coeff != delta_coeff(spec.lambda_hess, eps):
        raise NoiseMismatchError(
            "perturbation Delta_eps differs from the model's loss lambda_hess"
        )

    ridge = _ridge(model, spec, d.n)
    damping = ridge if model.solver_mode == "sgd_repro" else 0.0
    W = _assemble_w(model, m, d, spec)
    if damping > 0:
        W = W + damping * np.eye(d.p)
    try:
        factor = cho_factor(W, lower=True)
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(W).min())
        raise NumericalError(
            f"system matrix is not positive definite (min eigenvalue {min_eig:.3e})"
        ) from None
    rhs = -(pert.b_prime + pert.delta_eps_prime * model.theta) / d.n
    return SensitivityReport(
        dtheta_deps=cho_solve(factor, rhs),
        w_min_eigen_lower=ridge + damping,
        damping_added=damping,
    )


def utility_slope(
    model: PrivateModel, d: Dataset, spec: LossSpec, report: SensitivityReport
) -> float:
    """Chain rule: dF/deps = <grad of F at theta_hat, dtheta/deps>."""
    _check_spec(model, spec)
    _, gradL = aggregate(spec, margins(model.theta, d), d, with_value=False)
    return float(gradL @ report.dtheta_deps)


def extrapolate(line: ExtrapolationLine, target_eps: float) -> float:
    """First-order utility prediction at target_eps; exactly affine."""
    if not target_eps > 0:
        raise ValueError(f"target_eps must be positive, got {target_eps}")
    return line.base_utility + line.slope * (target_eps - line.measure_eps)


@dataclass(frozen=True)
class ErrorScale:
    """Order-of-magnitude advisory for the Taylor remainder.

    scale = (measure_eps - target_eps)^2 / (n * min(measure_eps, target_eps)^3)
    with unit constant: the suppressed loss- and dimension-dependent
    factors make this an advisory, not a certified bound.
    """

    measure_eps: float
    target_eps: float
    n: int
    scale: float


def error_scale(measure_eps: float, target_eps: float, n: int) -> ErrorScale:
    """Remainder scale for extrapolating from measure_eps to target_eps.

    The intermediate budget in the remainder lies somewhere between the
    two endpoints; the scale takes the conservative endpoint min(.,.).
    """
    if not measure_eps > 0 or not target_eps > 0:
        raise ValueError("both budgets must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    tilde = min(measure_eps, target_eps)
    scale = (measure_eps - target_eps) ** 2 / (n * tilde**3)
    return ErrorScale(measure_eps=measure_eps, target_eps=target_eps, n=n, scale=scale)

