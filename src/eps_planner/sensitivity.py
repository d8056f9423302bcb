"""Budget sensitivity of the trained model, by implicit differentiation.

At the minimizer, the perturbed objective's gradient vanishes.
Differentiating that stationarity identity in eps gives a linear system

    W_eps * dtheta/deps = -(1/n) (b'_eps + Delta'_eps * theta_hat),

with W_eps = hess(L) + ((Lam + Delta_eps)/n) I, symmetric positive
definite. One Cholesky solve therefore prices the model's response to a
budget change, the chain rule turns it into a utility slope, and a
first-order Taylor step extrapolates the utility to any other budget.

`_dtheta_deps` owns that system. It forms the ridge (Lam + Delta_eps)/n
from the model's Lam and the Delta_eps of the perturbation it is given,
in `trainer`'s order of operations. For a non-stationary sgd_repro
iterate it solves against W + damping I, the damping being that ridge
once more; it is added to the finished W, not folded into the ridge,
which would round differently. The report carries only dtheta/deps. The
public `dtheta_deps` refuses sgd_repro models, whose iterate is not a
minimizer; `chooser.measure` is the one route to their damped slope. The
loss Hessian is built once, for W, and the matrix solved is factored
once: the Cholesky factor that solves it is also its
positive-definiteness check. The slope needs only the loss gradient.

W, the loss gradient and the utility all read the margins at theta_hat.
The public functions here, `dtheta_deps` and `utility_slope`, compute
them from the model. `chooser.measure` passes them to `_dtheta_deps`:
for an exact model, the margins of the Newton solver's last evaluation,
whose loss value and gradient are the utility and its gradient; for an
sgd_repro iterate, one margins pass, with one `aggregate` call for the
utility. It also passes the perturbation the run trained with, which
`trainer._train_runs` hands on with the model, so a measurement
materializes it once; the loss and the solver mode (for the damping)
come from the model. The public functions check the loss spec they are
given against the model, and `dtheta_deps` checks every field of the
given perturbation against the model's own, which it materializes once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import NoiseMismatchError, NumericalError
from .losses import aggregate, hessian, margins
from .model import Dataset, ExtrapolationLine, LossSpec, PrivateModel, SensitivityReport
from .model import _count, _positive
from .perturbation import PerturbationAtEps, materialize


def _check_spec(model: PrivateModel, spec: LossSpec) -> None:
    if spec != model.loss:
        raise ValueError(f"loss spec {spec} differs from the model's {model.loss}")


def dtheta_deps(
    model: PrivateModel, d: Dataset, spec: LossSpec, pert: PerturbationAtEps
) -> SensitivityReport:
    """Solve for d(theta_hat)/d(eps) at the model's own budget.

    `spec` must be the model's own loss, and the perturbation must be the
    one materialized from the model's noise draw, budget and bound
    constants: every field is compared bit for bit with that one, which
    the solve then uses (NoiseMismatchError naming the fields that
    differ otherwise). The model must be exact:
    an sgd_repro iterate is not stationary, so the implicit-differentiation
    identity does not hold for it, and NumericalError says so;
    `chooser.measure` gives its damped slope. The solved matrix is
    factored once, and that factorization is the definiteness check:
    NumericalError if it fails.
    """
    if model.solver_mode == "sgd_repro":
        raise NumericalError(
            "model was trained in sgd_repro mode and is not stationary; "
            "measure gives its damped slope"
        )
    _check_spec(model, spec)
    budget = model.budget
    own = materialize(model.noise, spec.zeta, budget.delta, budget.epsilon, spec.lambda_hess)
    differ = ", ".join(k for k, v in vars(own).items() if not np.array_equal(getattr(pert, k), v))
    if differ:
        raise NoiseMismatchError(f"perturbation differs from the model's own in {differ}")
    return _dtheta_deps(model, own, margins(model.theta, d), d)


def _dtheta_deps(model, pert, m, d):
    # the solve from the margins m at theta_hat and the perturbation the
    # model trained with; the loss and the damping come from the model
    # Hessian of the quadratic terms: the regularizer and Delta_eps
    ridge = (model.reg_lambda + pert.delta_eps_coeff) / d.n * np.eye(d.p)
    W = hessian(model.loss, m, d) + ridge
    if model.solver_mode == "sgd_repro":
        # the damping: the ridge once more, kept apart so that W keeps its bits
        W += ridge
    try:
        factor = cho_factor(W, lower=True)
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(W).min())
        raise NumericalError(
            f"system matrix is not positive definite (min eigenvalue {min_eig:.3e})"
        ) from None
    rhs = -(pert.b_prime + pert.delta_eps_prime * model.theta) / d.n
    return SensitivityReport(cho_solve(factor, rhs))


def utility_slope(
    model: PrivateModel, d: Dataset, spec: LossSpec, report: SensitivityReport
) -> float:
    """Chain rule: dF/deps = <grad of F at theta_hat, dtheta/deps>."""
    _check_spec(model, spec)
    _, gradL = aggregate(spec, margins(model.theta, d), d)
    return float(gradL @ report.dtheta_deps)


def extrapolate(line: ExtrapolationLine, target_eps: float) -> float:
    """First-order utility prediction at target_eps; exactly affine."""
    _positive("target_eps", target_eps)
    return line.base_utility + line.slope * (target_eps - line.measure_eps)


@dataclass(frozen=True)
class ErrorScale:
    """Order-of-magnitude advisory for the Taylor remainder.

    scale = (measure_eps - target_eps)^2 / (n * min(measure_eps, target_eps)^3)
    with unit constant: the suppressed loss- and dimension-dependent
    factors make this an advisory, not a certified bound.
    """

    scale: float


def error_scale(measure_eps: float, target_eps: float, n: int) -> ErrorScale:
    """Remainder scale for extrapolating from measure_eps to target_eps.

    The intermediate budget in the remainder lies somewhere between the
    two endpoints; the scale takes the conservative endpoint min(.,.).
    """
    if not (0 < measure_eps < np.inf and 0 < target_eps < np.inf):
        raise ValueError("both budgets must be positive and finite")
    _count("n", n, 1)
    tilde = min(measure_eps, target_eps)
    try:
        scale = (measure_eps - target_eps) ** 2 / (n * tilde**3)
    except (OverflowError, ZeroDivisionError):
        scale = np.inf
    if not np.isfinite(scale):
        raise NumericalError(
            f"budgets {measure_eps!r}, {target_eps!r} put the remainder scale past the float range"
        )
    return ErrorScale(scale)

