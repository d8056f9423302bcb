import math

import numpy as np
import pytest
from scipy.optimize import minimize

from eps_planner.data import gen_synthetic
from eps_planner.errors import NumericalError
from eps_planner.losses import aggregate, hessian, make_loss_spec, margins
from eps_planner.model import Dataset, NoiseDraw, PrivacyBudget
from eps_planner.perturbation import materialize
from eps_planner.trainer import (
    TrainConfig,
    classification_error_rate,
    perturbed_objective,
    train,
    utility,
)


class TestTrainConfig:
    def test_sgd_defaults_are_pinned(self):
        cfg = TrainConfig(solver_mode="sgd_repro")
        assert cfg.sgd_iterations == 100
        assert cfg.sgd_learning_rate == 0.01

    def test_reg_default(self):
        assert TrainConfig().reg_lambda == 0.01

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            TrainConfig(solver_mode="adam")

    @pytest.mark.parametrize("reg", [-0.5, float("nan"), float("inf")])
    def test_rejects_bad_reg_lambda(self, reg):
        with pytest.raises(ValueError, match="reg_lambda must be nonnegative and finite"):
            TrainConfig(reg_lambda=reg)


class TestPerturbedObjective:
    def test_zero_point_with_zero_noise(self):
        d = gen_synthetic(40, 3, 1.0, 5)
        spec = make_loss_spec("logistic", 3, "tight")
        cfg = TrainConfig(reg_lambda=0.5)
        pert = materialize(NoiseDraw(np.zeros(3), 0), spec.zeta, 0.1, 1.0, spec.lambda_hess)
        value, grad = perturbed_objective(np.zeros(3), d, spec, cfg, pert)
        L, gradL = aggregate(spec, margins(np.zeros(3), d), d)
        assert value == pytest.approx(L, rel=1e-12)
        np.testing.assert_allclose(grad, gradL, rtol=1e-12)

    def test_quadratic_one_example_minimum(self, quad_instance):
        d, spec, cfg, zero_noise = quad_instance
        pert = materialize(zero_noise, spec.zeta, 0.1, 1.0, spec.lambda_hess)
        # objective 0.5*(1-t)^2 + t^2 has its minimum at t = 1/3
        v_min, g_min = perturbed_objective(np.array([1.0 / 3.0]), d, spec, cfg, pert)
        assert abs(g_min[0]) < 1e-12
        assert v_min == pytest.approx(0.5 * (2.0 / 3.0) ** 2 + 1.0 / 9.0, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        d = gen_synthetic(60, 4, 1.5, 3)
        spec = make_loss_spec("logistic", 4, "paper")
        cfg = TrainConfig(reg_lambda=0.37)
        pert = materialize(NoiseDraw.generate(4, 2), spec.zeta, 1e-2, 0.6, spec.lambda_hess)
        for _ in range(5):
            theta = rng.standard_normal(4)
            _, grad = perturbed_objective(theta, d, spec, cfg, pert)
            h = 1e-6
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                vp, _ = perturbed_objective(theta + e, d, spec, cfg, pert)
                vm, _ = perturbed_objective(theta - e, d, spec, cfg, pert)
                assert (vp - vm) / (2 * h) == pytest.approx(grad[j], rel=1e-6, abs=1e-9)


class TestTrainExact:
    def test_closed_form_quadratic(self, quad_instance):
        d, spec, cfg, zero_noise = quad_instance
        m = train(d, spec, cfg, PrivacyBudget(1.0, 0.1), zero_noise)
        assert m.theta[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert m.grad_norm_at_solution <= 1e-12

    def test_huge_eps_recovers_nonprivate_minimizer(self):
        """At eps=1e9 with a zero base vector the perturbations vanish;
        the solution must match an independent solver on the plain
        regularized objective."""
        d = gen_synthetic(100, 3, 1.0, 17)
        spec = make_loss_spec("logistic", 3, "tight")
        cfg = TrainConfig(reg_lambda=1.0, solver_mode="exact")
        m = train(d, spec, cfg, PrivacyBudget(1e9, 0.5), NoiseDraw(np.zeros(3), 0))

        def objective(t):
            L, g = aggregate(spec, margins(t, d), d)
            reg = cfg.reg_lambda / (2 * d.n)
            return L + reg * t @ t, g + cfg.reg_lambda / d.n * t

        def hess(t):
            return hessian(spec, margins(t, d), d) + cfg.reg_lambda / d.n * np.eye(3)

        ref = minimize(objective, np.zeros(3), jac=True, hess=hess,
                       method="trust-exact", options={"gtol": 1e-12})
        assert np.linalg.norm(m.theta - ref.x) < 1e-6

    def test_deterministic(self):
        d = gen_synthetic(80, 4, 1.0, 23)
        spec = make_loss_spec("logistic", 4, "tight")
        cfg = TrainConfig()
        a = train(d, spec, cfg, PrivacyBudget(0.5, 1e-3), NoiseDraw.generate(4, 9))
        b = train(d, spec, cfg, PrivacyBudget(0.5, 1e-3), NoiseDraw.generate(4, 9))
        assert np.array_equal(a.theta, b.theta)

    def test_two_starts_agree(self):
        d = gen_synthetic(120, 4, 1.0, 29)
        spec = make_loss_spec("logistic", 4, "tight")
        cfg = TrainConfig(stationarity_tol=1e-10)
        noise = NoiseDraw.generate(4, 1)
        a = train(d, spec, cfg, PrivacyBudget(0.3, 1e-3), noise)
        b = train(d, spec, cfg, PrivacyBudget(0.3, 1e-3), noise,
                  theta0=np.full(4, 10.0))
        assert np.linalg.norm(a.theta - b.theta) < 1e-6

    @pytest.mark.parametrize("kind", ["logistic", "huber_svm", "quadratic", "smooth_hinge"])
    def test_reaches_tolerance_all_losses(self, kind):
        d = gen_synthetic(150, 5, 1.5, 31)
        spec = make_loss_spec(kind, 5, "tight")
        cfg = TrainConfig(stationarity_tol=1e-8)
        m = train(d, spec, cfg, PrivacyBudget(0.25, 1e-3), NoiseDraw.generate(5, 4))
        assert m.grad_norm_at_solution <= 1e-8

    def test_gradient_at_solution_evaluated_once(self, monkeypatch):
        """The accepted line-search candidate's gradient is the one
        reported: the margins at the solution reach aggregate once."""
        from eps_planner import trainer

        evaluated = []

        def recording_aggregate(spec, margins_vec, d, **kwargs):
            evaluated.append(np.array(margins_vec))
            return aggregate(spec, margins_vec, d, **kwargs)

        monkeypatch.setattr(trainer, "aggregate", recording_aggregate)
        d = gen_synthetic(150, 5, 1.5, 31)
        spec = make_loss_spec("logistic", 5, "tight")
        cfg = TrainConfig(stationarity_tol=1e-10)
        budget, noise = PrivacyBudget(0.25, 1e-3), NoiseDraw.generate(5, 4)
        m = train(d, spec, cfg, budget, noise)
        assert m.iterations_used > 0
        at_solution = margins(m.theta, d)
        assert sum(np.array_equal(v, at_solution) for v in evaluated) == 1
        pert = materialize(noise, spec.zeta, budget.delta, budget.epsilon, spec.lambda_hess)
        _, grad = perturbed_objective(m.theta, d, spec, cfg, pert, with_value=False)
        assert m.grad_norm_at_solution == float(np.linalg.norm(grad))

    def test_indefinite_newton_matrix_raises(self, monkeypatch):
        """A Newton matrix that does not factor is an error, not a gradient step."""
        from eps_planner import trainer

        monkeypatch.setattr(trainer, "hessian", lambda spec, m, d: -np.eye(d.p))
        d = gen_synthetic(80, 4, 1.0, 23)
        spec = make_loss_spec("logistic", 4, "tight")
        with pytest.raises(
            NumericalError, match=r"Newton matrix is not positive definite \(min eigenvalue -"
        ):
            train(d, spec, TrainConfig(), PrivacyBudget(0.5, 1e-3), NoiseDraw.generate(4, 9))


class TestTrainSgdRepro:
    def test_runs_exactly_100_steps(self):
        d = gen_synthetic(100, 3, 1.0, 2)
        spec = make_loss_spec("logistic", 3, "paper")
        cfg = TrainConfig(solver_mode="sgd_repro")
        m = train(d, spec, cfg, PrivacyBudget(0.1, 1e-3), NoiseDraw.generate(3, 0))
        assert m.iterations_used == 100
        assert m.solver_mode == "sgd_repro"
        assert np.all(np.isfinite(m.theta))

    def test_matches_manual_gradient_steps(self):
        d = gen_synthetic(50, 3, 1.0, 14)
        spec = make_loss_spec("logistic", 3, "tight")
        cfg = TrainConfig(solver_mode="sgd_repro", sgd_iterations=7, sgd_learning_rate=0.05)
        noise = NoiseDraw.generate(3, 6)
        m = train(d, spec, cfg, PrivacyBudget(0.5, 1e-3), noise)
        pert = materialize(noise, spec.zeta, 1e-3, 0.5, spec.lambda_hess)
        theta = np.zeros(3)
        for _ in range(7):
            _, g = perturbed_objective(theta, d, spec, cfg, pert)
            theta = theta - 0.05 * g
        assert np.array_equal(m.theta, theta)

    @pytest.mark.parametrize("kind", ["logistic", "huber_svm", "quadratic", "smooth_hinge"])
    def test_equals_reference_loop_on_full_aggregate(self, kind):
        """Gradient-only steps give the same bits as steps that evaluate
        value and gradient and use the gradient."""
        d = gen_synthetic(300, 6, 1.5, 12)
        spec = make_loss_spec(kind, 6, "tight")
        cfg = TrainConfig(solver_mode="sgd_repro")
        noise = NoiseDraw.generate(6, 4)
        m = train(d, spec, cfg, PrivacyBudget(0.3, 1e-3), noise)
        pert = materialize(noise, spec.zeta, 1e-3, 0.3, spec.lambda_hess)
        ridge = cfg.reg_lambda + pert.delta_eps_coeff
        theta = np.zeros(6)
        for _ in range(cfg.sgd_iterations):
            _, gradL = aggregate(spec, margins(theta, d), d)
            theta = theta - cfg.sgd_learning_rate * (gradL + (ridge * theta + pert.b) / d.n)
        assert np.array_equal(m.theta, theta)

    def test_builds_no_hessian(self, hessian_builds):
        d = gen_synthetic(100, 3, 1.0, 2)
        spec = make_loss_spec("logistic", 3, "tight")
        cfg = TrainConfig(solver_mode="sgd_repro")
        train(d, spec, cfg, PrivacyBudget(0.1, 1e-3), NoiseDraw.generate(3, 0))
        assert hessian_builds == []

    def test_loss_stays_finite_on_normalized_data(self):
        d = gen_synthetic(500, 8, 2.0, 77)
        spec = make_loss_spec("logistic", 8, "paper")
        cfg = TrainConfig(solver_mode="sgd_repro")
        for seed in range(5):
            for eps in (0.05, 0.5, 5.0):
                m = train(d, spec, cfg, PrivacyBudget(eps, 1e-3), NoiseDraw.generate(8, seed))
                assert np.isfinite(utility(m.theta, d, spec))


class TestUtility:
    def test_zero_theta_logistic_is_log2(self):
        d = gen_synthetic(64, 4, 1.0, 8)
        spec = make_loss_spec("logistic", 4, "tight")
        assert utility(np.zeros(4), d, spec) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_equals_aggregate_mean(self):
        rng = np.random.default_rng(55)
        d = gen_synthetic(40, 3, 1.0, 9)
        spec = make_loss_spec("huber_svm", 3, "tight")
        for _ in range(5):
            theta = rng.standard_normal(3)
            assert utility(theta, d, spec) == pytest.approx(
                aggregate(spec, margins(theta, d), d)[0], rel=1e-12
            )

    def test_quadratic_one_example(self, quad_instance):
        d, spec, _, _ = quad_instance
        assert utility(np.array([1.0 / 3.0]), d, spec) == pytest.approx(2.0 / 9.0, rel=1e-12)

    def test_error_rate(self):
        d = Dataset(features=[[1.0], [1.0], [-1.0]], labels=[1, -1, 1])
        assert classification_error_rate(np.array([1.0]), d) == pytest.approx(2.0 / 3.0)

    def test_theta_length_is_checked(self):
        d = Dataset(features=[[1.0, 0.0]], labels=[1])
        spec = make_loss_spec("logistic", 2, "tight")
        with pytest.raises(ValueError, match="theta has length 3, dataset has p=2"):
            utility(np.zeros(3), d, spec)
        with pytest.raises(ValueError, match="theta has length 3, dataset has p=2"):
            classification_error_rate(np.zeros(3), d)


class TestUtilityTrend:
    def test_loss_improves_with_budget_on_average(self):
        """Over 20 seeds, mean exact-mode loss at eps=5 is below the mean
        at eps=0.05: more budget, less perturbation, better fit."""
        d = gen_synthetic(300, 5, 1.5, 40)
        spec = make_loss_spec("logistic", 5, "paper")
        cfg = TrainConfig()
        lo, hi = [], []
        for seed in range(20):
            noise = NoiseDraw.generate(5, 100 + seed)
            m_lo = train(d, spec, cfg, PrivacyBudget(0.05, 1e-3), noise)
            m_hi = train(d, spec, cfg, PrivacyBudget(5.0, 1e-3), noise)
            lo.append(utility(m_lo.theta, d, spec))
            hi.append(utility(m_hi.theta, d, spec))
        assert np.mean(hi) < np.mean(lo)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_detection(self):
        d = gen_synthetic(20, 2, 1.0, 3)
        spec = make_loss_spec("logistic", 2, "tight")
        cfg = TrainConfig(solver_mode="sgd_repro", sgd_learning_rate=1e12, sgd_iterations=100)
        with pytest.raises(NumericalError):
            train(d, spec, cfg, PrivacyBudget(0.05, 1e-3), NoiseDraw.generate(2, 0))
