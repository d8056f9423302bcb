"""Every budget, bound constant and tolerance the library takes is
positive and finite, every regulariser and separation nonnegative and
finite, every count (seeds included) an integer at or above its least
value, every option one of its listed names, every utility and slope of
a line finite, and every parameter vector, margins vector and array
field a vector (of length p, or n for margins, where it must match the
data): anything else is a ValueError naming the argument.

One table per rule lists each entry point with each such argument, so an
entry point whose check drifts from the rule, or that drops it, fails
here.
"""
import dataclasses
import math
import re

import numpy as np
import pytest

from eps_planner import trainer
from eps_planner.chooser import choose_epsilon
from eps_planner.data import gen_synthetic
from eps_planner.errors import NumericalError
from eps_planner.experiments import ExperimentConfig
from eps_planner.losses import aggregate, hessian, make_loss_spec, margins
from eps_planner.model import (
    ExtrapolationLine,
    LossSpec,
    NoiseDraw,
    PrivacyBudget,
    PrivateModel,
    SensitivityReport,
)
from eps_planner.perturbation import (
    delta_coeff,
    delta_coeff_prime,
    materialize,
    noise_sigma,
    noise_sigma_prime,
)
from eps_planner.sensitivity import error_scale, extrapolate, utility_slope
from eps_planner.trainer import (
    TrainConfig,
    classification_error_rate,
    perturbed_objective,
    train,
    train_many,
    utility,
)

NOISE = NoiseDraw.generate(3, 0)
LINE = ExtrapolationLine(measure_eps=1.0, base_utility=0.5, slope=-0.1)
# a draw whose first entry scales out of the float range before sigma does
WIDE = NoiseDraw(np.array([1e10, 0.0, 0.0]), 0)


def private_model(reg_lambda=0.01, solver_mode="exact", theta=np.zeros(3)):
    return PrivateModel(
        theta=theta, budget=PrivacyBudget(1.0, 0.1), reg_lambda=reg_lambda,
        noise=NOISE, loss=LossSpec("logistic", 1.0, 1.0, 0.0), grad_norm_at_solution=0.0,
        solver_mode=solver_mode, iterations_used=0,
    )


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
    ("NoiseDraw.generate.seed", lambda v: NoiseDraw.generate(3, v), "seed", 0),
    ("NoiseDraw.seed", lambda v: NoiseDraw(np.zeros(3), v), "seed", 0),
    ("gen_synthetic.seed", lambda v: gen_synthetic(10, 2, 1.0, v), "seed", 0),
]

# (entry point with the argument, the name its message gives)
NONNEGATIVE = [
    ("TrainConfig.reg_lambda", lambda v: TrainConfig(reg_lambda=v), "reg_lambda"),
    ("PrivateModel.reg_lambda", lambda v: private_model(reg_lambda=v), "reg_lambda"),
    ("LossSpec.s_third", lambda v: LossSpec("logistic", 1.0, 1.0, v), "s_third"),
    ("gen_synthetic.separation", lambda v: gen_synthetic(10, 2, v, 0), "separation"),
]

# (entry point with the option, what its message calls the option)
ONE_OF = [
    ("TrainConfig.solver_mode", lambda v: TrainConfig(solver_mode=v), "solver mode"),
    ("PrivateModel.solver_mode", lambda v: private_model(solver_mode=v), "solver mode"),
    ("LossSpec.kind", lambda v: LossSpec(v, 1.0, 1.0, 0.0), "loss kind"),
    ("make_loss_spec.mode", lambda v: make_loss_spec("logistic", 3, v), "bounds mode"),
    ("make_loss_spec.kind", lambda v: make_loss_spec(v, 3), "loss kind"),
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


@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
@pytest.mark.parametrize(
    "call, name", [row[1:] for row in NONNEGATIVE], ids=[row[0] for row in NONNEGATIVE]
)
def test_nonnegative_and_finite(call, name, value):
    message = f"^{re.escape(name)} must be nonnegative and finite, got "
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize(
    "call, what", [row[1:] for row in ONE_OF], ids=[row[0] for row in ONE_OF]
)
def test_one_of_the_listed_options(call, what):
    with pytest.raises(ValueError, match=f"^unknown {what} 'bogus'$"):
        call("bogus")


def test_library_defaults_are_the_types_own():
    """ExperimentConfig and make_loss_spec take their defaults from
    TrainConfig and LossSpec, so the three agree."""
    cfg, spec = ExperimentConfig(), make_loss_spec("logistic", 3)
    assert cfg.reg_lambda == TrainConfig().reg_lambda
    own = LossSpec("logistic", 1.0, 1.0, 0.0)
    assert (cfg.huber_h, cfg.smooth_t) == (own.huber_h, own.smooth_t)
    assert (spec.huber_h, spec.smooth_t) == (own.huber_h, own.smooth_t)


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
# coefficient or noise term past the float range names zeta or
# lambda_hess when 1.0 in that constant's place keeps it finite, and eps
# otherwise.
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
    ("materialize.noise_terms.zeta", lambda: materialize(WIDE, 1e300, 0.1, 1.0, 1.0),
     ValueError, "zeta=1e+300"),
    ("materialize.noise_terms.zeta_prime", lambda: materialize(NOISE, 3e307, 0.1, 1.0, 1.0),
     ValueError, "zeta=3e+307"),
    ("materialize.noise_terms.eps", lambda: materialize(WIDE, 1.0, 0.1, 1e-150, 1.0),
     NumericalError, "eps=1e-150"),
    # sigma' overflows at zeta = 1.0 but not at 0.5: eps, not zeta, is named
    ("materialize.noise_terms.eps_small_zeta",
     lambda: materialize(NoiseDraw(np.array([3.0, 0.0, 0.0]), 0), 0.5, 0.1, 1.6e-154, 1.0),
     NumericalError, "eps=1.6e-154"),
]


@pytest.mark.parametrize(
    "call, error, start", [row[1:] for row in TOO_EXTREME], ids=[row[0] for row in TOO_EXTREME]
)
def test_finite_but_too_extreme(call, error, start):
    with pytest.raises(error, match=f"^{re.escape(start)} is too "):
        call()


# (call, its bound constant): each formula overflows partway through,
# though its value is finite
PARTWAY = [
    ("delta_coeff", lambda c: delta_coeff(c, 4.0), 1e308),
    ("delta_coeff_prime", lambda c: delta_coeff_prime(c, 2.0), 1e308),
    ("noise_sigma", lambda c: noise_sigma(c, 0.1, 10.0), 1e308),
    ("noise_sigma_prime", lambda c: noise_sigma_prime(c, 0.1, 1.0), 3e307),
]


@pytest.mark.parametrize(
    "call, constant", [row[1:] for row in PARTWAY], ids=[row[0] for row in PARTWAY]
)
def test_finite_coefficient_is_the_constant_times_the_unit_one(call, constant):
    out = call(constant)
    assert math.isfinite(out)
    assert out == constant * call(1.0)


# a 10 x 3 problem for the vector rule; no case reaches training
D = gen_synthetic(10, 3, 1.0, 0)
SPEC = make_loss_spec("logistic", 3)
BUDGET = PrivacyBudget(1.0, 0.1)
PERT = materialize(NOISE, 1.0, 0.1, 1.0, 1.0)
MODEL = private_model()
ZEROS = np.zeros(D.n)

# (entry point with the vector, the name its message gives, the length
# it must have, or None where any length will do)
VECTOR = [
    ("margins", lambda v: margins(v, D), "theta", 3),
    ("utility", lambda v: utility(v, D, SPEC), "theta", 3),
    ("classification_error_rate", lambda v: classification_error_rate(v, D), "theta", 3),
    ("aggregate", lambda v: aggregate(SPEC, v, D), "margins", 10),
    ("hessian", lambda v: hessian(SPEC, v, D), "margins", 10),
    ("perturbed_objective", lambda v: perturbed_objective(v, ZEROS, D, SPEC, TrainConfig(), PERT),
     "theta", 3),
    ("train.theta0", lambda v: train(D, SPEC, TrainConfig(), BUDGET, NOISE, theta0=v), "theta0", 3),
    ("train_many.noise", lambda v: train_many(D, SPEC, TrainConfig(), [(BUDGET, NoiseDraw(v, 0))]),
     "base_u", 3),
    ("NoiseDraw.base_u", lambda v: NoiseDraw(v, 0), "base_u", None),
    ("PrivateModel.theta", lambda v: private_model(theta=v), "theta", 3),
    ("SensitivityReport.dtheta_deps", lambda v: SensitivityReport(v), "dtheta_deps", None),
    ("PerturbationAtEps.b", lambda v: dataclasses.replace(PERT, b=v), "b", None),
    ("PerturbationAtEps.b_prime", lambda v: dataclasses.replace(PERT, b_prime=v), "b_prime", 3),
    ("PerturbationAtEps.base_u", lambda v: dataclasses.replace(PERT, base_u=v), "base_u", 3),
    ("utility_slope.report", lambda v: utility_slope(MODEL, D, MODEL.loss, SensitivityReport(v)),
     "dtheta_deps", 3),
]
# each entry point gets a 2-d array, and one of the wrong length where it takes a length
NOT_A_VECTOR = [(row[0] + ".2d", row[1], row[2], np.zeros((3, 2))) for row in VECTOR] + [
    (row[0] + ".length", row[1], row[2], np.zeros(row[3] + 1)) for row in VECTOR if row[3]
]


@pytest.mark.parametrize(
    "call, name, value", [row[1:] for row in NOT_A_VECTOR], ids=[row[0] for row in NOT_A_VECTOR]
)
def test_vector(call, name, value):
    """A 2-d theta gave a utility and an error rate, and margins an n x 2
    matrix; the four types built with 2-d fields; utility_slope failed
    inside numpy's matmul on a report of another length."""
    before = trainer.TRAIN_CALL_COUNT
    with pytest.raises(
        ValueError,
        match=f"^{re.escape(name)} must be a vector.*, got shape {re.escape(str(value.shape))}$",
    ):
        call(value)
    assert trainer.TRAIN_CALL_COUNT == before


def test_a_draw_of_another_shape_is_refused_before_training():
    """The draw was built, and train then failed inside numpy with a TypeError."""
    d, spec = gen_synthetic(10, 2, 1.0, 0), make_loss_spec("logistic", 2)
    before = trainer.TRAIN_CALL_COUNT
    with pytest.raises(ValueError, match=r"^base_u must be a vector, got shape \(2, 2\)$"):
        train(d, spec, TrainConfig(), BUDGET, NoiseDraw(np.zeros((2, 2)), 0))
    assert trainer.TRAIN_CALL_COUNT == before


def test_perturbation_of_another_length():
    pert = materialize(NoiseDraw.generate(4, 0), 1.0, 0.1, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"^b must be a vector of length 3, got shape \(4,\)$"):
        perturbed_objective(np.zeros(3), ZEROS, D, SPEC, TrainConfig(), pert)


# (entry point with the value, what its message calls it)
FINITE = [
    ("ExtrapolationLine.base_utility", lambda v: ExtrapolationLine(1.0, v, -0.1), "base_utility"),
    ("ExtrapolationLine.slope", lambda v: ExtrapolationLine(1.0, 0.5, v), "slope"),
    ("choose_epsilon.expected_utility", lambda v: choose_epsilon(LINE, v), "expected utility"),
]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "call, what", [row[1:] for row in FINITE], ids=[row[0] for row in FINITE]
)
def test_finite(call, what, value):
    """A NaN slope was blamed on the target utility; an infinite base
    utility was extrapolated to inf."""
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what} {value} is not finite')}$"):
        call(value)
