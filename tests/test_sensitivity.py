from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from eps_planner import losses, sensitivity
from eps_planner.chooser import measure
from eps_planner.data import gen_synthetic
from eps_planner.errors import NoiseMismatchError, NumericalError
from eps_planner.losses import make_loss_spec
from eps_planner.model import (
    Dataset,
    ExtrapolationLine,
    LossSpec,
    NoiseDraw,
    PrivacyBudget,
    PrivateModel,
)
from eps_planner.perturbation import delta_coeff, materialize
from eps_planner.sensitivity import (
    assemble_w,
    dtheta_deps,
    error_scale,
    extrapolate,
    utility_slope,
)
from eps_planner.experiments import ExperimentConfig, SyntheticSpec, oracle_compare
from eps_planner.trainer import TrainConfig, train, utility


def trained_quad(quad_instance, eps=1.0):
    d, spec, cfg, zero_noise = quad_instance
    model = train(d, spec, cfg, PrivacyBudget(eps, 0.1), zero_noise)
    pert = materialize(zero_noise, spec.zeta, 0.1, eps, spec.lambda_hess)
    return d, spec, model, pert


class TestAssembleW:
    def test_quadratic_one_example(self, quad_instance):
        d, spec, model, _ = trained_quad(quad_instance)
        W = assemble_w(model, d, spec)
        np.testing.assert_allclose(W, [[3.0]], rtol=1e-12)

    def test_flat_loss_region_gives_pure_ridge(self):
        """Huber margins beyond 1+h everywhere: the loss Hessian vanishes
        and W is exactly the scaled identity."""
        d = Dataset(features=[[0.5, 0.0], [0.0, 0.4]], labels=[1, 1])
        spec = LossSpec(kind="huber_svm", zeta=1.0, lambda_hess=5.0, s_third=0.0)
        theta = np.array([10.0, 10.0])
        model = PrivateModel(
            theta=theta, budget=PrivacyBudget(2.0, 0.1), reg_lambda=0.3,
            noise=NoiseDraw(np.zeros(2), 0), loss=spec,
            grad_norm_at_solution=0.0, solver_mode="exact", iterations_used=0,
        )
        W = assemble_w(model, d, spec)
        ridge = (0.3 + 2.0 * 5.0 / 2.0) / 2.0
        assert np.array_equal(W, ridge * np.eye(2))

    def test_symmetric_bit_exact(self):
        d = gen_synthetic(100, 6, 1.0, 3)
        spec = make_loss_spec("logistic", 6, "tight")
        cfg = TrainConfig()
        model = train(d, spec, cfg, PrivacyBudget(0.5, 1e-3), NoiseDraw.generate(6, 1))
        W = assemble_w(model, d, spec)
        assert np.array_equal(W, W.T)


def trained_logistic():
    """Exact logistic model, tight bounds, trained at (0.3, 1e-3)."""
    d = gen_synthetic(500, 4, 1.5, 5)
    spec = make_loss_spec("logistic", d.p, "tight")
    model = train(d, spec, TrainConfig(), PrivacyBudget(0.3, 1e-3), NoiseDraw.generate(d.p, 5))
    return d, spec, model


class TestDthetaDeps:
    def test_quadratic_hand_computation(self, quad_instance):
        # W=3, Delta'=-2, theta=1/3, zero noise: v = -(1/3)(-2/3) = 2/9
        d, spec, model, pert = trained_quad(quad_instance)
        report = dtheta_deps(model, d, spec, pert)
        assert report.dtheta_deps[0] == pytest.approx(2.0 / 9.0, rel=1e-12)
        assert report.w_min_eigen_lower > 0
        assert report.damping_added == 0.0

    def test_zero_rhs_gives_zero(self):
        """Symmetric labels put the minimizer at zero; with a zero base
        vector the whole right-hand side vanishes."""
        d = Dataset(features=[[1.0], [1.0]], labels=[1, -1])
        spec = LossSpec(kind="quadratic", zeta=2.0, lambda_hess=1.0, s_third=0.0)
        cfg = TrainConfig(reg_lambda=0.0, solver_mode="exact", stationarity_tol=1e-12)
        zero = NoiseDraw(np.zeros(1), 0)
        model = train(d, spec, cfg, PrivacyBudget(1.0, 0.1), zero)
        assert abs(model.theta[0]) < 1e-14
        pert = materialize(zero, spec.zeta, 0.1, 1.0, spec.lambda_hess)
        report = dtheta_deps(model, d, spec, pert)
        assert np.all(report.dtheta_deps == 0.0)

    def test_matches_retraining_finite_difference(self):
        """Central differences of exact retraining at eps +/- h with the
        same base vector, relative error <= 1e-3."""
        d = gen_synthetic(200, 5, 2.0, 11)
        spec = make_loss_spec("logistic", 5, "tight")
        cfg = TrainConfig(stationarity_tol=1e-12, max_exact_iterations=500)
        noise = NoiseDraw.generate(5, 11)
        eps = 0.25
        model = train(d, spec, cfg, PrivacyBudget(eps, 1e-3), noise)
        pert = materialize(noise, spec.zeta, 1e-3, eps, spec.lambda_hess)
        report = dtheta_deps(model, d, spec, pert)
        h = 1e-4 * eps
        lo = train(d, spec, cfg, PrivacyBudget(eps - h, 1e-3), noise)
        hi = train(d, spec, cfg, PrivacyBudget(eps + h, 1e-3), noise)
        fd = (hi.theta - lo.theta) / (2 * h)
        assert np.linalg.norm(report.dtheta_deps - fd) <= 1e-3 * np.linalg.norm(fd)

    def test_solve_residual_tiny(self):
        d = gen_synthetic(150, 4, 1.0, 19)
        spec = make_loss_spec("logistic", 4, "paper")
        cfg = TrainConfig(stationarity_tol=1e-10)
        noise = NoiseDraw.generate(4, 3)
        model = train(d, spec, cfg, PrivacyBudget(0.4, 1e-3), noise)
        pert = materialize(noise, spec.zeta, 1e-3, 0.4, spec.lambda_hess)
        report = dtheta_deps(model, d, spec, pert)
        W = assemble_w(model, d, spec)
        rhs = -(pert.b_prime + pert.delta_eps_prime * model.theta) / d.n
        resid = np.linalg.norm(W @ report.dtheta_deps - rhs)
        assert resid <= 1e-10 * (1.0 + np.linalg.norm(rhs))

    @pytest.mark.parametrize("solver_mode", ["exact", "sgd_repro"])
    def test_factors_solved_matrix_once(self, monkeypatch, solver_mode):
        """The matrix solved (W exact, W + damping I for sgd_repro) is
        factored once, and that factor, which also proves it positive
        definite, is the one the solve uses."""
        d = gen_synthetic(150, 4, 1.0, 19)
        spec = make_loss_spec("logistic", 4, "tight")
        noise = NoiseDraw.generate(4, 3)
        cfg = TrainConfig(solver_mode=solver_mode)
        model = train(d, spec, cfg, PrivacyBudget(0.4, 1e-3), noise)
        pert = materialize(noise, spec.zeta, 1e-3, 0.4, spec.lambda_hess)
        calls = []

        def counting_cho_factor(a, **kwargs):
            calls.append(a.shape)
            return cho_factor(a, **kwargs)

        monkeypatch.setattr(sensitivity, "cho_factor", counting_cho_factor)
        sgd = solver_mode == "sgd_repro"
        report = dtheta_deps(model, d, spec, pert, allow_nonstationary=sgd)
        assert len(calls) == 1
        assert (report.damping_added > 0) == sgd
        W = assemble_w(model, d, spec) + report.damping_added * np.eye(4)
        rhs = -(pert.b_prime + pert.delta_eps_prime * model.theta) / d.n
        assert np.array_equal(report.dtheta_deps, cho_solve(cho_factor(W, lower=True), rhs))

    def test_rejects_foreign_noise(self, quad_instance):
        d, spec, model, _ = trained_quad(quad_instance)
        other = NoiseDraw(np.ones(1), 5)
        pert = materialize(other, spec.zeta, 0.1, 1.0, spec.lambda_hess)
        with pytest.raises(NoiseMismatchError):
            dtheta_deps(model, d, spec, pert)

    def test_rejects_eps_mismatch(self, quad_instance):
        d, spec, model, _ = trained_quad(quad_instance)
        pert = materialize(model.noise, spec.zeta, 0.1, 2.0, spec.lambda_hess)
        with pytest.raises(NoiseMismatchError):
            dtheta_deps(model, d, spec, pert)

    @pytest.mark.parametrize(
        "zeta, delta, lambda_hess, match",
        [
            (1.0, 1e-9, 0.25, "sigma"),  # another delta
            (5.0, 1e-3, 0.25, "sigma"),  # another gradient bound
            (1.0, 1e-3, 3.0, "Delta_eps"),  # another Hessian bound
        ],
    )
    def test_rejects_perturbation_of_another_budget_or_bound(
        self, zeta, delta, lambda_hess, match
    ):
        """Same eps and draw, but sigma or Delta_eps made from other inputs:
        solving with it would give a wrong slope, so it is refused."""
        d, spec, model = trained_logistic()
        assert (spec.zeta, spec.lambda_hess) == (1.0, 0.25)
        pert = materialize(model.noise, zeta, delta, 0.3, lambda_hess)
        with pytest.raises(NoiseMismatchError, match=match):
            dtheta_deps(model, d, spec, pert)

    def test_rejects_another_loss_spec(self):
        d, spec, model = trained_logistic()
        pert = materialize(model.noise, spec.zeta, 1e-3, 0.3, spec.lambda_hess)
        report = dtheta_deps(model, d, spec, pert)
        other = make_loss_spec("huber_svm", d.p, "tight")
        with pytest.raises(ValueError, match="loss spec"):
            dtheta_deps(model, d, other, pert)
        with pytest.raises(ValueError, match="loss spec"):
            utility_slope(model, d, other, report)
        assert utility_slope(model, d, spec, report) < 0

    def test_sgd_model_needs_override(self):
        d = gen_synthetic(60, 3, 1.0, 7)
        spec = make_loss_spec("logistic", 3, "tight")
        cfg = TrainConfig(solver_mode="sgd_repro")
        noise = NoiseDraw.generate(3, 2)
        model = train(d, spec, cfg, PrivacyBudget(0.5, 1e-3), noise)
        pert = materialize(noise, spec.zeta, 1e-3, 0.5, spec.lambda_hess)
        with pytest.raises(NumericalError, match="sgd_repro"):
            dtheta_deps(model, d, spec, pert)
        report = dtheta_deps(model, d, spec, pert, allow_nonstationary=True)
        assert report.damping_added == (0.01 + delta_coeff(spec.lambda_hess, 0.5)) / d.n

    def test_damping_raises_certified_floor(self, quad_instance):
        d, spec, model, pert = trained_quad(quad_instance)
        plain = dtheta_deps(model, d, spec, pert)
        sgd_model = replace(model, solver_mode="sgd_repro")
        damped = dtheta_deps(sgd_model, d, spec, pert, allow_nonstationary=True)
        # the damping is the ridge (Lam + Delta_eps)/n = (0 + 2)/1
        assert damped.damping_added == 2.0
        assert damped.w_min_eigen_lower == pytest.approx(plain.w_min_eigen_lower + 2.0)
        # (W + damping I) v = rhs: v shrinks as damping grows
        assert abs(damped.dtheta_deps[0]) < abs(plain.dtheta_deps[0])


class TestIndefiniteSystem:
    @pytest.mark.parametrize("solver_mode", ["exact", "sgd_repro"])
    def test_failed_factorization_is_numerical_error(self, monkeypatch, solver_mode):
        """A loss Hessian with an eigenvalue below -2 ridge leaves both W
        and W + damping I indefinite: the factorization that solves the
        system must raise, naming the smallest eigenvalue."""
        d = gen_synthetic(60, 3, 1.0, 7)
        spec = make_loss_spec("logistic", 3, "tight")
        cfg = TrainConfig(solver_mode=solver_mode)
        noise = NoiseDraw.generate(3, 2)
        model = train(d, spec, cfg, PrivacyBudget(0.5, 1e-3), noise)
        pert = materialize(noise, spec.zeta, 1e-3, 0.5, spec.lambda_hess)
        ridge = (cfg.reg_lambda + delta_coeff(spec.lambda_hess, 0.5)) / d.n
        assert -1.0 < -2.0 * ridge
        monkeypatch.setattr(sensitivity, "hessian", lambda spec, m, d: -np.eye(d.p))
        with pytest.raises(NumericalError, match="not positive definite .min eigenvalue"):
            dtheta_deps(model, d, spec, pert, allow_nonstationary=solver_mode == "sgd_repro")


class TestTinyRidge:
    """reg_lambda = 0: only Delta_eps/n keeps W away from the loss Hessian's
    own conditioning, and at large eps that ridge is small. Logistic, p = 10,
    exact solver, seed 0; cond(W) measured 3.6, 15.4 and 32.0."""

    @pytest.mark.parametrize(
        "n,separation,eps,max_cond",
        [(5000, 2.0, 10.0, 10.0), (5000, 6.0, 50.0, 50.0), (20000, 6.0, 200.0, 100.0)],
    )
    def test_solve_stays_conditioned_and_matches_oracle(self, n, separation, eps, max_cond):
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(n, 10, separation), loss_kind="logistic",
            bounds_mode="tight", reg_lambda=0.0, measure_eps_list=(eps,), repeats=1,
            base_seed=0, solver_mode="exact",
        )
        d = gen_synthetic(n, 10, separation, 0)
        spec = make_loss_spec("logistic", 10, "tight")
        tcfg = TrainConfig(reg_lambda=0.0, solver_mode="exact", stationarity_tol=1e-12)
        m = measure(d, spec, tcfg, eps, cfg.delta, 0)
        assert m.model.grad_norm_at_solution <= 1e-12
        assert np.linalg.cond(assemble_w(m.model, d, spec)) < max_cond
        (row,) = oracle_compare(cfg, d=d)
        assert row["slope_rel_err"] <= 1e-6

    def test_largest_point_spans_several_hessian_blocks(self):
        assert gen_synthetic(20000, 10, 6.0, 0).features.nbytes > 3 * losses.HESSIAN_BLOCK_BYTES


class TestUtilitySlope:
    def test_zero_direction_gives_zero(self, quad_instance):
        d, spec, model, pert = trained_quad(quad_instance)
        report = dtheta_deps(model, d, spec, pert)
        zeroed = replace(report, dtheta_deps=np.zeros(1))
        assert utility_slope(model, d, spec, zeroed) == 0.0

    def test_quadratic_hand_computation(self, quad_instance):
        # grad F at 1/3 is -2/3; slope = (-2/3)(2/9) = -4/27
        d, spec, model, pert = trained_quad(quad_instance)
        report = dtheta_deps(model, d, spec, pert)
        slope = utility_slope(model, d, spec, report)
        assert slope == pytest.approx(-4.0 / 27.0, rel=1e-12)

    def test_matches_retraining_finite_difference(self):
        d = gen_synthetic(200, 5, 2.0, 11)
        spec = make_loss_spec("logistic", 5, "tight")
        cfg = TrainConfig(stationarity_tol=1e-12, max_exact_iterations=500)
        noise = NoiseDraw.generate(5, 13)
        eps = 0.25
        model = train(d, spec, cfg, PrivacyBudget(eps, 1e-3), noise)
        pert = materialize(noise, spec.zeta, 1e-3, eps, spec.lambda_hess)
        report = dtheta_deps(model, d, spec, pert)
        slope = utility_slope(model, d, spec, report)
        h = 1e-4 * eps
        lo = train(d, spec, cfg, PrivacyBudget(eps - h, 1e-3), noise)
        hi = train(d, spec, cfg, PrivacyBudget(eps + h, 1e-3), noise)
        fd = (utility(hi.theta, d, spec) - utility(lo.theta, d, spec)) / (2 * h)
        assert slope == pytest.approx(fd, rel=1e-3)

    @pytest.mark.parametrize("kind", ["logistic", "quadratic"])
    @pytest.mark.parametrize("n,p", [(100, 2), (1000, 10)])
    def test_oracle_agreement_across_instances(self, kind, n, p):
        """The module's central property: solve and slope both match the
        retraining oracle at relative 1e-3 across sizes and losses."""
        d = gen_synthetic(n, p, 1.5, seed=n + p)
        spec = make_loss_spec(kind, p, "tight")
        cfg = TrainConfig(stationarity_tol=1e-12, max_exact_iterations=500)
        noise = NoiseDraw.generate(p, 3)
        eps = 0.25
        h = 1e-4 * eps
        model = train(d, spec, cfg, PrivacyBudget(eps, 1e-3), noise)
        pert = materialize(noise, spec.zeta, 1e-3, eps, spec.lambda_hess)
        report = dtheta_deps(model, d, spec, pert)
        slope = utility_slope(model, d, spec, report)
        lo = train(d, spec, cfg, PrivacyBudget(eps - h, 1e-3), noise)
        hi = train(d, spec, cfg, PrivacyBudget(eps + h, 1e-3), noise)
        v_fd = (hi.theta - lo.theta) / (2 * h)
        s_fd = (utility(hi.theta, d, spec) - utility(lo.theta, d, spec)) / (2 * h)
        assert np.linalg.norm(report.dtheta_deps - v_fd) <= 1e-3 * np.linalg.norm(v_fd)
        assert slope == pytest.approx(s_fd, rel=1e-3)

    def test_average_slope_negative_at_small_eps(self):
        """Across 20 draws the mean slope at a small measuring budget is
        negative: loss falls as the budget grows. Per-draw signs vary."""
        d = gen_synthetic(300, 5, 1.5, 41)
        spec = make_loss_spec("logistic", 5, "paper")
        cfg = TrainConfig()
        for eps in (0.1, 0.25):
            slopes = []
            for seed in range(20):
                noise = NoiseDraw.generate(5, 500 + seed)
                model = train(d, spec, cfg, PrivacyBudget(eps, 1e-3), noise)
                pert = materialize(noise, spec.zeta, 1e-3, eps, spec.lambda_hess)
                report = dtheta_deps(model, d, spec, pert)
                slopes.append(utility_slope(model, d, spec, report))
            assert np.mean(slopes) < 0.0


class TestExtrapolate:
    LINE = ExtrapolationLine(measure_eps=1.0, base_utility=0.5, slope=-0.1)

    def test_zero_step(self):
        assert extrapolate(self.LINE, 1.0) == 0.5

    def test_affine_arithmetic(self):
        assert extrapolate(self.LINE, 2.0) == pytest.approx(0.4, rel=1e-15)

    def test_second_differences_vanish(self):
        vals = [extrapolate(self.LINE, t) for t in (1.0, 2.0, 3.0)]
        assert abs((vals[2] - vals[1]) - (vals[1] - vals[0])) < 1e-15

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            extrapolate(self.LINE, 0.0)


class TestErrorScale:
    def test_zero_at_equal_budgets(self):
        assert error_scale(0.3, 0.3, 50).scale == 0.0

    def test_worked_range_endpoint(self):
        # (0.01 - 10)^2 / min(0.01, 10)^3 with n=1: order 1e8
        scale = error_scale(0.01, 10.0, 1).scale
        assert 9.9e7 <= scale <= 1.0e8

    def test_doubling_n_halves_exactly(self):
        a = error_scale(0.1, 0.9, 100).scale
        b = error_scale(0.1, 0.9, 200).scale
        assert b == a / 2.0

    def test_monotone_in_gap_and_n(self):
        scales = [error_scale(0.5, 0.5 + g, 10).scale for g in (0.1, 0.2, 0.4, 0.8)]
        assert all(x < y for x, y in zip(scales, scales[1:]))
        by_n = [error_scale(0.2, 1.0, n).scale for n in (1, 10, 100)]
        assert all(x > y for x, y in zip(by_n, by_n[1:]))

    def test_symmetric_direction_uses_min(self):
        assert error_scale(0.1, 1.0, 5).scale == error_scale(1.0, 0.1, 5).scale

