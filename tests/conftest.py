import numpy as np
import pytest

from eps_planner.model import Dataset, LossSpec, NoiseDraw
from eps_planner.trainer import TrainConfig


@pytest.fixture
def quad_instance():
    """One-example quadratic problem with closed-form optimum.

    n=1, x=[1], y=+1, Lam=0, lambda_hess=1. At eps the perturbed objective
    (with zero noise) is 0.5*(1-t)^2 + (1/eps) t^2, minimized at
    t = eps/(eps+2); at eps=1 that is 1/3.
    """
    d = Dataset(features=[[1.0]], labels=[1.0])
    spec = LossSpec(kind="quadratic", zeta=2.0, lambda_hess=1.0, s_third=0.0)
    cfg = TrainConfig(reg_lambda=0.0, solver_mode="exact", stationarity_tol=1e-12)
    zero_noise = NoiseDraw(base_u=np.zeros(1), seed=0)
    return d, spec, cfg, zero_noise


def random_unit_ball(rng, p):
    v = rng.standard_normal(p)
    return v * rng.uniform() ** (1.0 / p) / np.linalg.norm(v)


@pytest.fixture
def hessian_builds(monkeypatch):
    """List that records each loss Hessian trainer and sensitivity build:
    one entry per `hessian` call, the only Hessian build."""
    from eps_planner import losses, sensitivity, trainer

    builds = []

    def counting_hessian(spec, theta, d):
        builds.append("hessian")
        return losses.hessian(spec, theta, d)

    for mod in (trainer, sensitivity):
        monkeypatch.setattr(mod, "hessian", counting_hessian)
    return builds


@pytest.fixture
def cho_factor_calls(monkeypatch):
    """List that records the module of each Cholesky factorization that
    trainer and sensitivity run: "trainer" or "sensitivity"."""
    from scipy.linalg import cho_factor

    from eps_planner import sensitivity, trainer

    calls = []

    def counting(site):
        def cho_factor_at_site(a, **kwargs):
            calls.append(site)
            return cho_factor(a, **kwargs)

        return cho_factor_at_site

    for mod, site in ((trainer, "trainer"), (sensitivity, "sensitivity")):
        monkeypatch.setattr(mod, "cho_factor", counting(site))
    return calls
