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
    """List with one entry per `hessian` call that trainer and sensitivity
    make. A call on constant curvature scales the dataset's cached
    X^T X / n and builds nothing; `blocked_builds` counts the builds."""
    from eps_planner import losses, sensitivity, trainer

    builds = []

    def counting_hessian(spec, m, d):
        builds.append("hessian")
        return losses.hessian(spec, m, d)

    for mod in (trainer, sensitivity):
        monkeypatch.setattr(mod, "hessian", counting_hessian)
    return builds


@pytest.fixture
def blocked_builds(monkeypatch):
    """List with one entry per blocked O(n p^2) Hessian build, the work
    `hessian` does unless it scales the dataset's cached X^T X / n."""
    from eps_planner import losses

    builds = []
    blocked = losses._mean_hessian

    def counting(d, curvatures):
        builds.append("blocked")
        return blocked(d, curvatures)

    monkeypatch.setattr(losses, "_mean_hessian", counting)
    return builds


def _record_sites(monkeypatch, name, original, modules):
    """List that records, for each call of `original` through the `name`
    binding of one of `modules`, that module's short name."""
    calls = []

    def counting(site):
        def at_site(*args, **kwargs):
            calls.append(site)
            return original(*args, **kwargs)

        return at_site

    for mod in modules:
        monkeypatch.setattr(mod, name, counting(mod.__name__.rsplit(".", 1)[-1]))
    return calls


@pytest.fixture
def cho_factor_calls(monkeypatch):
    """List that records the module of each Cholesky factorization that
    trainer and sensitivity run: "trainer" or "sensitivity"."""
    from scipy.linalg import cho_factor

    from eps_planner import sensitivity, trainer

    return _record_sites(monkeypatch, "cho_factor", cho_factor, (trainer, sensitivity))


@pytest.fixture
def margins_calls(monkeypatch):
    """List that records the module of each margins computation, X theta,
    that trainer, sensitivity and chooser run."""
    from eps_planner import chooser, losses, sensitivity, trainer

    return _record_sites(monkeypatch, "margins", losses.margins, (trainer, sensitivity, chooser))


@pytest.fixture
def aggregate_calls(monkeypatch):
    """List that records the module of each loss value-and-gradient
    evaluation that trainer, sensitivity and chooser run."""
    from eps_planner import chooser, losses, sensitivity, trainer

    return _record_sites(
        monkeypatch, "aggregate", losses.aggregate, (trainer, sensitivity, chooser)
    )


@pytest.fixture
def sgd_block_widths(monkeypatch):
    """List with the column count of each block the sgd loop steps."""
    from eps_planner import trainer

    widths = []
    block = trainer._sgd_block

    def recording(theta, *args):
        widths.append(theta.shape[1])
        return block(theta, *args)

    monkeypatch.setattr(trainer, "_sgd_block", recording)
    return widths


@pytest.fixture
def three_column_blocks(monkeypatch):
    """A 300 x 6 dataset whose sgd runs step in blocks of 3 columns."""
    from eps_planner import trainer
    from eps_planner.data import gen_synthetic

    d = gen_synthetic(300, 6, 1.5, 12)
    monkeypatch.setattr(trainer, "SGD_BLOCK_BYTES", 3 * 8 * d.n)
    return d
