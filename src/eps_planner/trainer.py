"""Minimization of the perturbed objective.

The objective is L(theta, D) + (Lam/2n)||theta||^2 + (1/n) <b_eps, theta>
+ (Delta_eps/2n)||theta||^2. Two solver modes:

  exact     -- damped Newton with Armijo backtracking, run to a gradient
               norm tolerance. The objective is (Lam+Delta_eps)/n strongly
               convex, so the minimizer is unique and the downstream
               implicit-differentiation step is valid.
  sgd_repro -- the original evaluations' fixed protocol: exactly 100
               full-gradient steps of size 0.01 from zero (class constants
               of TrainConfig). No convergence guarantee.

Each point the solver visits gets one margins pass, X theta, and
everything evaluated there reads that one vector: `perturbed_objective`
takes those margins, as `aggregate` and `hessian` do. The exact solver's
start theta = 0 takes zeros instead of the product X 0, whose +-0 give
every loss the same value, slope and curvature; a given `theta0` is
multiplied out. A Newton line-search candidate evaluates value and
gradient, and the accepted candidate's gradient is the one reported at
the solution. The loss Hessian is built only at the start point and at
each accepted iterate that has not yet converged, once per Newton step,
from the margins that point's line search already computed. The last
accepted evaluation, its margins and its loss value and gradient, goes
on to `chooser.measure_many` through `_train_runs` with the run's
perturbation, so the measurement at theta_hat recomputes none of them;
`train` and `train_many` return the models alone.

`train_many` trains a list of (budget, noise draw) runs. Its sgd_repro
runs step together as the columns of a p x K iterate, in blocks of K
columns, with one ridge and one noise vector per column, the per-step
finiteness check and a final gradient norm per column. `train` is the
one-column case of that loop. An sgd step and the final gradient check
evaluate the gradient alone, on the dataset's label-folded rows z, and
with one column numpy's products are the 1-D ones of `margins` and
`aggregate`, so `train` keeps their bits. With more columns a column can
differ from its one-run `train` by the reassociation of the BLAS
products, within 1e-14 relative. Exact runs train one at a time.

Each call allocates one n x K margins buffer, for its widest block, and
each block one p x K gradient buffer. Every gradient writes z theta into
the first, overwrites it in place with the slopes l' (`margin_slopes`
with `out=`), and writes z^T l' into the second, so no step allocates an
n x K array. SGD_BLOCK_BYTES bounds the buffer, and so sets K.

Training is deterministic given (dataset, spec, config, budget, seed)
and, for `train_many`'s sgd_repro runs, the block a run is stepped in.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import NumericalError
from .losses import aggregate, hessian, margin_slopes, margin_values, margins
from .model import SOLVER_MODES, Dataset, LossSpec, NoiseDraw, PrivacyBudget, PrivateModel
from .model import _count, _nonnegative, _one_of, _positive, _vector
from .perturbation import PerturbationAtEps, materialize

# module-level counter used by callers to assert how many trainings ran
TRAIN_CALL_COUNT = 0


@dataclass(frozen=True)
class TrainConfig:
    """Solver settings; the sgd_repro schedule is the reference protocol's, fixed."""

    reg_lambda: float = 0.01
    solver_mode: str = "exact"
    stationarity_tol: float = 1e-8
    max_exact_iterations: int = 200
    sgd_iterations: ClassVar[int] = 100
    sgd_learning_rate: ClassVar[float] = 0.01

    def __post_init__(self):
        _nonnegative("reg_lambda", self.reg_lambda)
        _one_of("solver mode", self.solver_mode, SOLVER_MODES)
        _count("max_exact_iterations", self.max_exact_iterations, 0)
        _positive("stationarity_tol", self.stationarity_tol)


def perturbed_objective(
    theta: np.ndarray,
    m: np.ndarray,
    d: Dataset,
    spec: LossSpec,
    cfg: TrainConfig,
    pert: PerturbationAtEps,
) -> tuple[float, np.ndarray]:
    """Value and gradient of the perturbed training objective at theta,
    from its margins `m = margins(theta, d)`."""
    value, grad, _ = _objective(theta, m, d, spec, cfg, pert)
    return value, grad


def _objective(theta, m, d, spec, cfg, pert):
    # perturbed_objective, and the loss value and gradient it adds the
    # regularizer and perturbation terms to
    theta = _vector("theta", theta, d.p)
    _vector("b", pert.b, d.p)
    n = d.n
    L, gradL = aggregate(spec, m, d)
    ridge = cfg.reg_lambda + pert.delta_eps_coeff
    grad = gradL + (ridge * theta + pert.b) / n
    value = L + ridge / (2.0 * n) * float(theta @ theta) + float(pert.b @ theta) / n
    return value, grad, (L, gradL)


def train(
    d: Dataset,
    spec: LossSpec,
    cfg: TrainConfig,
    budget: PrivacyBudget,
    noise: NoiseDraw,
    theta0: np.ndarray | None = None,
) -> PrivateModel:
    """Minimize the perturbed objective and return the trained model."""
    return _train_runs(d, spec, cfg, [(budget, noise)], theta0)[0][0]


def train_many(
    d: Dataset,
    spec: LossSpec,
    cfg: TrainConfig,
    runs: Iterable[tuple[PrivacyBudget, NoiseDraw]],
) -> list[PrivateModel]:
    """One model per (budget, noise draw) run, in order, each as `train`
    trains it from zero.

    sgd_repro runs step together, as the columns of a p x K iterate in
    blocks of columns whose n x K margins buffer stays within
    SGD_BLOCK_BYTES; a column's bits may differ from its one-run `train`
    by the reassociation of the BLAS products (within 1e-14 relative).
    Exact runs train one at a time.
    """
    return [model for model, _, _ in _train_runs(d, spec, cfg, runs)]


def _train_runs(d, spec, cfg, runs, theta0=None):
    """(model, pert, last) for each (budget, noise draw) run, in order,
    from `theta0` (zero if None). `pert` is the PerturbationAtEps the run
    trained with. `last` is the exact solver's final
    evaluation, (margins, loss value, loss gradient) at the returned
    theta: the bits `margins` and `aggregate` give there, but for zeros
    in place of X 0's +-0 at a zero start. It is None for sgd_repro runs,
    whose loop forms neither."""
    global TRAIN_CALL_COUNT
    runs = list(runs)
    # a private copy, which the caller cannot write to during training
    start = None if theta0 is None else _vector("theta0", theta0, d.p).copy()
    # every run is checked before any trains
    perts = [_perturbation(d, spec, budget, noise) for budget, noise in runs]
    TRAIN_CALL_COUNT += len(runs)
    # the solvers' finiteness checks report an overflow or NaN as one
    # NumericalError, so numpy does not also warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.solver_mode == "sgd_repro":
            columns = np.zeros((d.p, len(runs))) if start is None else start[:, None]
            thetas, grad_norms = _run_sgd(columns, d, spec, cfg, perts)
            return [
                (_model(theta, cfg.sgd_iterations, norm, spec, cfg, budget, noise), pert, None)
                for theta, norm, (budget, noise), pert in zip(thetas, grad_norms, runs, perts)
            ]
        out = []
        for (budget, noise), pert in zip(runs, perts):
            theta, iters, grad_norm, last = _run_newton(start, d, spec, cfg, pert)
            out.append((_model(theta, iters, grad_norm, spec, cfg, budget, noise), pert, last))
        return out


def _perturbation(d, spec, budget, noise) -> PerturbationAtEps:
    _vector("base_u", noise.base_u, d.p)
    return materialize(noise, spec.zeta, budget.delta, budget.epsilon, spec.lambda_hess)


def _model(theta, iters, grad_norm, spec, cfg, budget, noise) -> PrivateModel:
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


# bytes of the n x K margins buffer that an sgd call allocates once and
# reuses at every step (K = 104 at n = 5000, 26 at n = 20000, 1 from
# n = 262145). Each step streams z twice per block, so wider blocks pay
# for that pass over fewer runs; 20 runs at 20000 x 50 took 1.19, 0.83
# and 0.49 s at 1, 2 and 4 MiB (one BLAS thread, 2-vCPU Xeon)
SGD_BLOCK_BYTES = 4 * 1024 * 1024


def _run_sgd(theta, d, spec, cfg, perts):
    """Step the columns of the p x K start `theta`, one per perturbation,
    in blocks; the final thetas and gradient norms, one per column."""
    width = max(1, SGD_BLOCK_BYTES // (8 * d.n))
    # a block of k columns reads the first n * k entries as its n x k
    # margins, so each block's view is C-ordered
    buf = np.empty(d.n * min(width, len(perts)))
    thetas, grad_norms = [], []
    for first in range(0, len(perts), width):
        cols = slice(first, first + width)
        start = np.ascontiguousarray(theta[:, cols])
        block, norms = _sgd_block(start, d.rows, spec, cfg, perts[cols], first, buf)
        thetas += list(block.T)
        grad_norms += norms
    return thetas, grad_norms


def _sgd_block(theta, z, spec, cfg, perts, first, buf):
    n, k = z.shape[0], theta.shape[1]
    # one ridge and one noise vector per column
    ridge = np.array([cfg.reg_lambda + pert.delta_eps_coeff for pert in perts])
    b = np.stack([pert.b for pert in perts], axis=1)
    m = buf[: n * k].reshape(n, k)
    grad = np.empty_like(theta)

    def gradient(theta):
        # perturbed_objective's gradient, in its order of operations; with
        # one column, numpy's products are the 1-D ones and keep their bits
        np.matmul(z, theta, out=m)
        g = np.matmul(z.T, margin_slopes(spec, m, out=m), out=grad)
        g /= n
        g += (ridge * theta + b) / n
        return g

    lr = cfg.sgd_learning_rate
    for it in range(cfg.sgd_iterations):
        theta = theta - lr * gradient(theta)
        finite = np.isfinite(theta).all(axis=0)
        if not finite.all():
            run = first + int(np.flatnonzero(~finite)[0])
            raise NumericalError(f"non-finite iterate at sgd step {it + 1} of run {run}")
    return theta, [float(np.linalg.norm(g)) for g in gradient(theta).T]


def _run_newton(theta, d, spec, cfg, pert):
    """Newton's theta from `theta` (zero if None), its step count and
    gradient norm, and its last evaluation (margins, loss value, loss
    gradient)."""
    if theta is None:
        # X 0 is +-0 in every row, and every loss gives +-0 margins the
        # same value, slope and curvature, so zeros stand in for the product
        theta, m = np.zeros(d.p), np.zeros(d.n)
    else:
        m = margins(theta, d)
    value, grad, loss = _objective(theta, m, d, spec, cfg, pert)
    gnorm = float(np.linalg.norm(grad))
    ridge_eye = ((cfg.reg_lambda + pert.delta_eps_coeff) / d.n) * np.eye(d.p)
    # `it` is the number of steps accepted so far
    for it in range(cfg.max_exact_iterations + 1):
        if not np.isfinite(value) or not np.isfinite(gnorm):
            raise NumericalError(f"non-finite objective at exact-solver step {it}")
        if gnorm <= cfg.stationarity_tol:
            return theta, it, gnorm, (m, *loss)
        if it == cfg.max_exact_iterations:
            break
        hess = hessian(spec, m, d) + ridge_eye
        step = _newton_step(hess, grad)
        slope = float(grad @ step)
        # Armijo backtracking on the objective value; once value differences
        # fall below float resolution, accept on gradient-norm progress with
        # an ulp-level value slack instead
        t = 1.0
        slack = 8.0 * np.spacing(max(1.0, abs(value)))
        while t >= 1e-14:
            cand = theta + t * step
            cand_m = margins(cand, d)
            cand_value, cand_grad, cand_loss = _objective(cand, cand_m, d, spec, cfg, pert)
            cand_gnorm = float(np.linalg.norm(cand_grad))
            armijo_ok = (
                cand_value <= value + 1e-4 * t * slope
                and (cand_value < value or cand_gnorm < gnorm)
            )
            flat_ok = cand_value <= value + slack and cand_gnorm < 0.9 * gnorm
            if np.isfinite(cand_value) and (armijo_ok or flat_ok):
                theta, m, value, grad, gnorm = cand, cand_m, cand_value, cand_grad, cand_gnorm
                loss = cand_loss
                break
            t *= 0.5
        else:
            break  # no certifiable progress left at float resolution
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
