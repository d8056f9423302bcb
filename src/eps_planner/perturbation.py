"""Calibration and differentiation of the eps-dependent perturbations.

Two terms depend on the privacy budget: the Gaussian linear term
b_eps = sigma(eps) * u and the extra ridge coefficient
Delta_eps = 2 * lambda / eps. With the base vector u held fixed, both are
smooth in eps; this module supplies their values and derivatives. zeta,
lambda_hess and eps must be positive and finite, and delta must lie in
(0, 1); else ValueError names the argument. Each value or derivative is
proportional to its bound constant (zeta or lambda_hess), so where the
formula overflows partway through, the constant times the same formula
at 1.0 is returned if that is finite. One still past the float range is
ValueError naming the constant when the formula at 1.0 stays finite,
else NumericalError naming eps; `materialize` names zeta or eps for the
noise terms sigma * u and sigma' * u the same way. Logarithms are
natural.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .model import NoiseDraw, _positive, _readonly, _vector


def _coefficient(formula, name: str, constant: float, eps: float, what: str) -> float:
    """formula(constant, eps) in Python floats, which raise where numpy
    scalars would warn. Where that leaves the float range, the formula
    is linear in `constant`, so constant * formula(1.0, eps) is returned
    if finite: an intermediate product may overflow though the value
    does not. Past the float range it is ValueError naming the bound
    constant `name` if formula(1.0, eps) is finite, else NumericalError
    naming eps: eps**2 overflows above about 1.3e154 and rounds to 0
    below about 1e-162, and quotients by it overflow below about 1e-154.
    Only that failure path forms the second formula, so every value
    finite at the first keeps its bits."""
    constant, eps = float(constant), float(eps)

    def value(c):
        try:
            return formula(c, eps)
        except (OverflowError, ZeroDivisionError):
            return math.inf

    out = value(constant)
    if math.isfinite(out):
        return out
    unit = value(1.0)
    if math.isfinite(constant * unit):
        return constant * unit
    raise _culprit(name, constant, eps, what, math.isfinite(unit))


def _culprit(name, constant, eps, what: str, unit_finite: bool) -> Exception:
    # the bound constant `name` is named if its terms at 1.0 are finite, else eps
    if unit_finite:
        return ValueError(
            f"{name}={float(constant)!r} is too large: at eps={float(eps)!r} its {what}"
            " leave the float range"
        )
    return NumericalError(f"eps={float(eps)!r} is too extreme: its {what} leave the float range")


def _log_two_over(delta: float) -> float:
    """ln(2/delta), or ValueError naming delta outside (0, 1) or where
    2/delta overflows (delta below about 1.1e-308)."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    ratio = 2.0 / float(delta)
    if ratio == math.inf:
        raise ValueError(f"delta={delta!r} is too small: 2/delta leaves the float range")
    return math.log(ratio)


def delta_coeff(lambda_hess: float, eps: float) -> float:
    """Ridge coefficient Delta_eps = 2 * lambda / eps."""
    _positive("lambda_hess", lambda_hess)
    _positive("eps", eps)
    return _coefficient(lambda lam, e: 2.0 * lam / e, "lambda_hess", lambda_hess, eps, "values")


def delta_coeff_prime(lambda_hess: float, eps: float) -> float:
    """d(Delta_eps)/d(eps) = -2 * lambda / eps^2, negative everywhere."""
    _positive("lambda_hess", lambda_hess)
    _positive("eps", eps)
    return _coefficient(
        lambda lam, e: -2.0 * lam / e**2, "lambda_hess", lambda_hess, eps, "derivatives"
    )


def noise_sigma(zeta: float, delta: float, eps: float) -> float:
    """Noise standard deviation zeta * sqrt(8 ln(2/delta) + 4 eps) / eps."""
    _positive("zeta", zeta)
    _positive("eps", eps)
    a = _log_two_over(delta)
    return _coefficient(
        lambda z, e: z * math.sqrt(8.0 * a + 4.0 * e) / e, "zeta", zeta, eps, "values"
    )


def noise_sigma_prime(zeta: float, delta: float, eps: float) -> float:
    """d(sigma)/d(eps) = -zeta (4 ln(2/delta) + eps) / (eps^2 sqrt(2 ln(2/delta) + eps)).

    sigma is strictly decreasing in eps, so this is negative for every
    valid input. (A published form of this coefficient omits the sign;
    finite differences of noise_sigma confirm the negative one.)
    """
    _positive("zeta", zeta)
    _positive("eps", eps)
    a = _log_two_over(delta)
    return _coefficient(
        lambda z, e: -z * (4.0 * a + e) / (e**2 * math.sqrt(2.0 * a + e)), "zeta", zeta, eps,
        "derivatives",
    )


@dataclass(frozen=True, eq=False)
class PerturbationAtEps:
    """Both perturbations and their eps-derivatives, materialized at one eps.

    b and b_prime are single multiplications of the stored base vector:
    b = sigma * base_u and b_prime = sigma_prime * base_u, bit for bit.
    base_u is carried so downstream consumers can verify that a
    perturbation and a trained model share the same draw. Note that
    recovering u by dividing b / sigma in floating point can be off by
    one ulp; identity checks must use base_u, not the quotient.
    """

    eps: float
    sigma: float
    sigma_prime: float
    delta_eps_coeff: float
    delta_eps_prime: float
    b: np.ndarray
    b_prime: np.ndarray
    base_u: np.ndarray

    def __post_init__(self):
        # a writable array the caller passes in is copied, not frozen in place
        p = len(_vector("b", self.b))
        for name in ("b", "b_prime", "base_u"):
            object.__setattr__(self, name, _readonly(_vector(name, getattr(self, name), p)))


def materialize(
    noise: NoiseDraw, zeta: float, delta: float, eps: float, lambda_hess: float
) -> PerturbationAtEps:
    """Scale a noise draw into the perturbation terms at a given eps.

    Reusing the same NoiseDraw across eps values keeps b(eps) on one
    smooth path: every materialization shares base_u exactly. A finite
    draw scaled out of the float range is ValueError naming zeta if the
    same draw scaled at zeta = 1.0 stays finite, else NumericalError
    naming eps; a draw that is itself not finite is left for the trainer
    to report.
    """
    s = noise_sigma(zeta, delta, eps)
    sp = noise_sigma_prime(zeta, delta, eps)
    with np.errstate(over="ignore"):
        b, b_prime = s * noise.base_u, sp * noise.base_u
    if np.isfinite(noise.base_u).all() and not np.isfinite([b, b_prime]).all():
        # with zeta < 1 the coefficients at 1.0 can overflow; eps is then the culprit
        try:
            with np.errstate(over="ignore"):
                unit = [f(1.0, delta, eps) * noise.base_u for f in (noise_sigma, noise_sigma_prime)]
        except NumericalError:
            unit = [math.inf]
        raise _culprit("zeta", zeta, eps, "noise terms", np.isfinite(unit).all())
    return PerturbationAtEps(
        eps=eps,
        sigma=s,
        sigma_prime=sp,
        delta_eps_coeff=delta_coeff(lambda_hess, eps),
        delta_eps_prime=delta_coeff_prime(lambda_hess, eps),
        b=b,
        b_prime=b_prime,
        base_u=noise.base_u,
    )
