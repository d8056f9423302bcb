"""Calibration and differentiation of the eps-dependent perturbations.

Two terms depend on the privacy budget: the Gaussian linear term
b_eps = sigma(eps) * u and the extra ridge coefficient
Delta_eps = 2 * lambda / eps. With the base vector u held fixed, both are
smooth in eps; this module supplies their values and derivatives.

All logarithms are natural.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import NoiseDraw, _readonly


def _check_domain(zeta: float | None, delta: float | None, eps: float) -> None:
    if zeta is not None and not zeta > 0:
        raise ValueError(f"zeta must be positive, got {zeta}")
    if delta is not None and not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")


def delta_coeff(lambda_hess: float, eps: float) -> float:
    """Ridge coefficient Delta_eps = 2 * lambda / eps."""
    if not lambda_hess > 0:
        raise ValueError(f"lambda_hess must be positive, got {lambda_hess}")
    _check_domain(None, None, eps)
    return 2.0 * lambda_hess / eps


def delta_coeff_prime(lambda_hess: float, eps: float) -> float:
    """d(Delta_eps)/d(eps) = -2 * lambda / eps^2, negative everywhere."""
    if not lambda_hess > 0:
        raise ValueError(f"lambda_hess must be positive, got {lambda_hess}")
    _check_domain(None, None, eps)
    return -2.0 * lambda_hess / eps**2


def noise_sigma(zeta: float, delta: float, eps: float) -> float:
    """Noise standard deviation zeta * sqrt(8 ln(2/delta) + 4 eps) / eps."""
    _check_domain(zeta, delta, eps)
    return zeta * math.sqrt(8.0 * math.log(2.0 / delta) + 4.0 * eps) / eps


def noise_sigma_prime(zeta: float, delta: float, eps: float) -> float:
    """d(sigma)/d(eps) = -zeta (4 ln(2/delta) + eps) / (eps^2 sqrt(2 ln(2/delta) + eps)).

    sigma is strictly decreasing in eps, so this is negative for every
    valid input. (A published form of this coefficient omits the sign;
    finite differences of noise_sigma confirm the negative one.)
    """
    _check_domain(zeta, delta, eps)
    a = math.log(2.0 / delta)
    return -zeta * (4.0 * a + eps) / (eps**2 * math.sqrt(2.0 * a + eps))


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
        for name in ("b", "b_prime", "base_u"):
            object.__setattr__(self, name, np.atleast_1d(_readonly(getattr(self, name))))


def materialize(
    noise: NoiseDraw, zeta: float, delta: float, eps: float, lambda_hess: float
) -> PerturbationAtEps:
    """Scale a noise draw into the perturbation terms at a given eps.

    Reusing the same NoiseDraw across eps values keeps b(eps) on one
    smooth path: every materialization shares base_u exactly.
    """
    s = noise_sigma(zeta, delta, eps)
    sp = noise_sigma_prime(zeta, delta, eps)
    return PerturbationAtEps(
        eps=eps,
        sigma=s,
        sigma_prime=sp,
        delta_eps_coeff=delta_coeff(lambda_hess, eps),
        delta_eps_prime=delta_coeff_prime(lambda_hess, eps),
        b=s * noise.base_u,
        b_prime=sp * noise.base_u,
        base_u=noise.base_u,
    )
