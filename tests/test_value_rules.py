"""Every budget, bound constant and tolerance the library takes is
positive and finite, and every count is an integer at or above its least
value: anything else is a ValueError naming the argument.

One table lists each entry point with each such argument, so an entry
point whose check drifts from the rule, or that drops it, fails here.
"""
import math
import re

import pytest

from eps_planner.data import gen_synthetic
from eps_planner.errors import NumericalError
from eps_planner.experiments import ExperimentConfig
from eps_planner.losses import make_loss_spec
from eps_planner.model import ExtrapolationLine, LossSpec, NoiseDraw, PrivacyBudget
from eps_planner.perturbation import (
    delta_coeff,
    delta_coeff_prime,
    materialize,
    noise_sigma,
    noise_sigma_prime,
)
from eps_planner.sensitivity import error_scale, extrapolate
from eps_planner.trainer import TrainConfig

NOISE = NoiseDraw.generate(3, 0)
LINE = ExtrapolationLine(measure_eps=1.0, base_utility=0.5, slope=-0.1)

# (entry point with the argument, the name its message gives)
POSITIVE = [
    ("PrivacyBudget.epsilon", lambda v: PrivacyBudget(v, 0.1), "epsilon"),
    ("LossSpec.zeta", lambda v: LossSpec("logistic", v, 1.0, 0.0), "zeta"),
    ("LossSpec.lambda_hess", lambda v: LossSpec("logistic", 1.0, v, 0.0), "lambda_hess"),
    ("ExtrapolationLine.measure_eps", lambda v: ExtrapolationLine(v, 0.5, -0.1), "measure_eps"),
    ("TrainConfig.stationarity_tol", lambda v: TrainConfig(stationarity_tol=v),
     "stationarity_tol"),
    ("noise_sigma.zeta", lambda v: noise_sigma(v, 0.1, 1.0), "zeta"),
    ("noise_sigma.eps", lambda v: noise_sigma(1.0, 0.1, v), "eps"),
    ("noise_sigma_prime.zeta", lambda v: noise_sigma_prime(v, 0.1, 1.0), "zeta"),
    ("noise_sigma_prime.eps", lambda v: noise_sigma_prime(1.0, 0.1, v), "eps"),
    ("delta_coeff.lambda_hess", lambda v: delta_coeff(v, 1.0), "lambda_hess"),
    ("delta_coeff.eps", lambda v: delta_coeff(1.0, v), "eps"),
    ("delta_coeff_prime.lambda_hess", lambda v: delta_coeff_prime(v, 1.0), "lambda_hess"),
    ("delta_coeff_prime.eps", lambda v: delta_coeff_prime(1.0, v), "eps"),
    ("materialize.zeta", lambda v: materialize(NOISE, v, 0.1, 1.0, 1.0), "zeta"),
    ("materialize.eps", lambda v: materialize(NOISE, 1.0, 0.1, v, 1.0), "eps"),
    ("materialize.lambda_hess", lambda v: materialize(NOISE, 1.0, 0.1, 1.0, v), "lambda_hess"),
    ("extrapolate.target_eps", lambda v: extrapolate(LINE, v), "target_eps"),
    ("ExperimentConfig.measure_eps_list", lambda v: ExperimentConfig(measure_eps_list=(v,)),
     "each measure_eps_list entry"),
    ("ExperimentConfig.target_grid", lambda v: ExperimentConfig(target_grid=(0.1, v)),
     "each target_grid entry"),
]

# (entry point with the argument, the name its message gives, the least value)
COUNT = [
    ("TrainConfig.max_exact_iterations", lambda v: TrainConfig(max_exact_iterations=v),
     "max_exact_iterations", 0),
    ("ExperimentConfig.repeats", lambda v: ExperimentConfig(repeats=v), "repeats", 1),
    ("ExperimentConfig.base_seed", lambda v: ExperimentConfig(base_seed=v), "base_seed", 0),
    ("ExperimentConfig.sample_grid", lambda v: ExperimentConfig(sample_grid=(100, v)),
     "each sample_grid entry", 1),
    ("NoiseDraw.generate.p", lambda v: NoiseDraw.generate(v, 0), "p", 1),
    ("make_loss_spec.p", lambda v: make_loss_spec("logistic", v, "paper"), "p", 1),
    ("gen_synthetic.n", lambda v: gen_synthetic(v, 3, 1.0, 0), "n", 2),
    ("gen_synthetic.p", lambda v: gen_synthetic(10, v, 1.0, 0), "p", 1),
    ("error_scale.n", lambda v: error_scale(0.1, 0.2, v), "n", 1),
]


@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize(
    "call, name", [row[1:] for row in POSITIVE], ids=[row[0] for row in POSITIVE]
)
def test_positive_and_finite(call, name, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be positive and finite, got "):
        call(value)


@pytest.mark.parametrize("value", [math.inf, math.nan, 2.5, -1, "below"])
@pytest.mark.parametrize(
    "call, name, least", [row[1:] for row in COUNT], ids=[row[0] for row in COUNT]
)
def test_integer_count(call, name, least, value):
    value = least - 1 if value == "below" else value
    message = f"{name} must be an integer >= {least}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("delta", [0.0, 1.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("call", [
    lambda delta: noise_sigma(1.0, delta, 1.0),
    lambda delta: noise_sigma_prime(1.0, delta, 1.0),
    lambda delta: materialize(NOISE, 1.0, delta, 1.0, 1.0),
], ids=["noise_sigma", "noise_sigma_prime", "materialize"])
def test_delta_lies_in_the_unit_interval(call, delta):
    with pytest.raises(ValueError, match=r"^delta must lie in \(0, 1\), got "):
        call(delta)


# finite but too extreme: (call, error, the start of its message). A
# coefficient past the float range names zeta or lambda_hess when 1.0 in
# that constant's place keeps it finite, and eps otherwise.
TOO_EXTREME = [
    ("noise_sigma.zeta", lambda: noise_sigma(1e308, 0.1, 1.0), ValueError, "zeta=1e+308"),
    ("delta_coeff.lambda_hess", lambda: delta_coeff(1e308, 1e-3), ValueError,
     "lambda_hess=1e+308"),
    ("noise_sigma_prime.zeta", lambda: noise_sigma_prime(1e308, 0.1, 1.0), ValueError,
     "zeta=1e+308"),
    ("delta_coeff_prime.lambda_hess", lambda: delta_coeff_prime(1e308, 1.0), ValueError,
     "lambda_hess=1e+308"),
    ("materialize.zeta", lambda: materialize(NOISE, 1e308, 0.1, 1.0, 1.0), ValueError,
     "zeta=1e+308"),
    ("materialize.lambda_hess", lambda: materialize(NOISE, 1.0, 0.1, 1.0, 1e308), ValueError,
     "lambda_hess=1e+308"),
    ("noise_sigma.eps", lambda: noise_sigma(1.0, 0.1, 1e-310), NumericalError, "eps=1e-310"),
    ("delta_coeff.eps", lambda: delta_coeff(1.0, 1e-310), NumericalError, "eps=1e-310"),
]


@pytest.mark.parametrize(
    "call, error, start", [row[1:] for row in TOO_EXTREME], ids=[row[0] for row in TOO_EXTREME]
)
def test_finite_but_too_extreme(call, error, start):
    with pytest.raises(error, match=f"^{re.escape(start)} is too "):
        call()
