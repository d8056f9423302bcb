"""Round-trip property: dumps then loads reproduces every core type
field for field, floats bit for bit."""

import numpy as np
import pytest

from eps_planner.model import (
    Dataset,
    ExtrapolationLine,
    LossSpec,
    NoiseDraw,
    PrivacyBudget,
    PrivateModel,
    SensitivityReport,
)
from eps_planner.serialize import dumps, loads


def rng():
    return np.random.default_rng(2024)


def sample_objects():
    r = rng()
    budget = PrivacyBudget(epsilon=0.25, delta=1e-3)
    spec = LossSpec(kind="huber_svm", zeta=1.0, lambda_hess=5.0, s_third=0.0, huber_h=0.1)
    noise = NoiseDraw.generate(7, 99)
    yield Dataset(features=r.uniform(-0.3, 0.3, (5, 7)), labels=[1, -1, 1, 1, -1])
    yield budget
    yield spec
    yield noise
    yield PrivateModel(
        theta=r.standard_normal(7),
        budget=budget,
        reg_lambda=0.01,
        noise=noise,
        loss=spec,
        grad_norm_at_solution=3.2e-14,
        solver_mode="exact",
        iterations_used=12,
    )
    yield SensitivityReport(
        dtheta_deps=r.standard_normal(7),
        w_min_eigen_lower=0.004,
        damping_added=0.0025,
    )
    yield SensitivityReport(
        dtheta_deps=r.standard_normal(7),
        w_min_eigen_lower=1e-6,
    )
    yield ExtrapolationLine(measure_eps=0.25, base_utility=0.55, slope=-1.25)


@pytest.mark.parametrize("obj", list(sample_objects()), ids=lambda o: type(o).__name__)
def test_round_trip(obj):
    assert loads(dumps(obj)) == obj


def test_noise_draw_floats_bit_exact():
    nd = NoiseDraw.generate(100, 31337)
    back = loads(dumps(nd))
    assert np.array_equal(back.base_u, nd.base_u)
    assert back.seed == nd.seed


def test_unknown_type_rejected():
    with pytest.raises(TypeError):
        dumps(object())


def test_private_model_dumps_bytes_pinned():
    """The field-driven codec writes the exact text of the hand-written
    per-type encoder it replaced."""
    model = PrivateModel(
        theta=[0.5, -1.25, 3e-17],
        budget=PrivacyBudget(0.25, 1e-3),
        reg_lambda=0.01,
        noise=NoiseDraw(base_u=[0.1, -2.0, 1.5], seed=7),
        loss=LossSpec(kind="logistic", zeta=0.25, lambda_hess=0.25, s_third=0.1),
        grad_norm_at_solution=3.2e-14,
        solver_mode="exact",
        iterations_used=12,
    )
    assert dumps(model) == (
        '{"type": "PrivateModel", "theta": [0.5, -1.25, 3e-17], '
        '"budget": {"type": "PrivacyBudget", "epsilon": 0.25, "delta": 0.001}, '
        '"reg_lambda": 0.01, '
        '"noise": {"type": "NoiseDraw", "base_u": [0.1, -2.0, 1.5], "seed": 7}, '
        '"loss": {"type": "LossSpec", "kind": "logistic", "zeta": 0.25, '
        '"lambda_hess": 0.25, "s_third": 0.1, "huber_h": 0.1, "smooth_t": 0.1}, '
        '"grad_norm_at_solution": 3.2e-14, "solver_mode": "exact", "iterations_used": 12}'
    )


def test_unknown_tag_rejected():
    with pytest.raises(TypeError):
        loads('{"type": "Trace"}')
