"""Objective-perturbation private ERM with single-run budget planning.

Train once at a measuring budget, differentiate the perturbed objective's
minimizer in the budget, and extrapolate the model's utility to any other
budget -- or invert the relationship to pick the budget matching a
utility requirement.
"""

from .chooser import Measurement, PlanResult, choose_epsilon, measure, measure_many, plan
from .data import gen_synthetic, load_dataset, write_csv_dataset
from .errors import (
    DataError,
    EpsPlannerError,
    FlatSlopeError,
    NoiseMismatchError,
    NumericalError,
    UnreachableUtilityError,
    UsageError,
)
from .experiments import (
    ExperimentConfig,
    SyntheticSpec,
    experiment_estimate_vs_actual,
    experiment_measuring_sweep,
    experiment_sample_sweep,
    oracle_compare,
)
from .losses import aggregate, make_loss_spec
from .model import (
    Dataset,
    ExtrapolationLine,
    LossSpec,
    NoiseDraw,
    PrivacyBudget,
    PrivateModel,
    SensitivityReport,
    validate_dataset,
)
from .perturbation import (
    PerturbationAtEps,
    delta_coeff,
    delta_coeff_prime,
    materialize,
    noise_sigma,
    noise_sigma_prime,
)
from .sensitivity import (
    ErrorScale,
    dtheta_deps,
    error_scale,
    extrapolate,
    utility_slope,
)
from .trainer import (
    TrainConfig,
    classification_error_rate,
    perturbed_objective,
    train,
    train_many,
    utility,
)

__version__ = "0.1.0"

__all__ = [
    "Measurement",
    "PlanResult",
    "choose_epsilon",
    "measure",
    "measure_many",
    "plan",
    "gen_synthetic",
    "load_dataset",
    "write_csv_dataset",
    "DataError",
    "EpsPlannerError",
    "FlatSlopeError",
    "NoiseMismatchError",
    "NumericalError",
    "UnreachableUtilityError",
    "UsageError",
    "ExperimentConfig",
    "SyntheticSpec",
    "experiment_estimate_vs_actual",
    "experiment_measuring_sweep",
    "experiment_sample_sweep",
    "oracle_compare",
    "aggregate",
    "make_loss_spec",
    "Dataset",
    "ExtrapolationLine",
    "LossSpec",
    "NoiseDraw",
    "PrivacyBudget",
    "PrivateModel",
    "SensitivityReport",
    "validate_dataset",
    "PerturbationAtEps",
    "delta_coeff",
    "delta_coeff_prime",
    "materialize",
    "noise_sigma",
    "noise_sigma_prime",
    "ErrorScale",
    "dtheta_deps",
    "error_scale",
    "extrapolate",
    "utility_slope",
    "TrainConfig",
    "classification_error_rate",
    "perturbed_objective",
    "train",
    "train_many",
    "utility",
]
