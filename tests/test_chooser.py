import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from eps_planner import losses, sensitivity, trainer
from eps_planner.chooser import choose_epsilon, measure, measure_many, plan
from eps_planner.data import gen_synthetic
from eps_planner.errors import FlatSlopeError, NumericalError, UnreachableUtilityError
from eps_planner.losses import make_loss_spec
from eps_planner.model import ExtrapolationLine, NoiseDraw, PrivacyBudget
from eps_planner.perturbation import delta_coeff, materialize
from eps_planner.sensitivity import dtheta_deps, error_scale, extrapolate, utility_slope
from eps_planner.trainer import TrainConfig, train, utility


def solved(model, d, pert, damping):
    """cho_solve of W + damping I, W = hess(L) + ((Lam + Delta_eps)/n) I at
    theta_hat, for the solve's right-hand side."""
    eps = model.budget.epsilon
    ridge = (model.reg_lambda + delta_coeff(model.loss.lambda_hess, eps)) / d.n
    W = losses.hessian(model.loss, losses.margins(model.theta, d), d) + ridge * np.eye(d.p)
    rhs = -(pert.b_prime + pert.delta_eps_prime * model.theta) / d.n
    return cho_solve(cho_factor(W + damping * np.eye(d.p), lower=True), rhs)


class TestChooseEpsilon:
    LINE = ExtrapolationLine(measure_eps=1.0, base_utility=0.5, slope=-0.5)

    def test_requesting_measured_utility_returns_measuring_point(self):
        assert choose_epsilon(self.LINE, 0.5) == 1.0

    def test_affine_inversion(self):
        assert choose_epsilon(self.LINE, 0.4) == pytest.approx(1.2, rel=1e-12)

    def test_round_trip_with_extrapolate(self):
        for u in np.linspace(0.05, 0.9, 25):
            eps_hat = choose_epsilon(self.LINE, u)
            assert extrapolate(self.LINE, eps_hat) == pytest.approx(u, abs=1e-9)

    def test_flat_slope_rejected(self):
        flat = ExtrapolationLine(measure_eps=1.0, base_utility=0.5, slope=1e-13)
        with pytest.raises(FlatSlopeError, match="insensitive"):
            choose_epsilon(flat, 0.4)

    def test_flatness_is_relative_to_the_utility(self):
        """A slope of -4e-13 on a utility of 1e-12 has elasticity
        |slope| * eps / F = 0.1, so it is inverted; a slope of -1e-7 on a
        utility of 1e6 has elasticity 1e-13, so it is flat."""
        small = ExtrapolationLine(measure_eps=0.25, base_utility=1e-12, slope=-4e-13)
        assert choose_epsilon(small, 0.95e-12) == pytest.approx(0.375, rel=1e-12)
        large = ExtrapolationLine(measure_eps=1.0, base_utility=1e6, slope=-1e-7)
        with pytest.raises(FlatSlopeError, match="insensitive"):
            choose_epsilon(large, 1e6 - 1)

    def test_unreachable_utility_rejected(self):
        with pytest.raises(UnreachableUtilityError, match="unreachable"):
            choose_epsilon(self.LINE, 1.5)  # would need eps <= 0

    @pytest.mark.parametrize("u", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_utility_rejected(self, u):
        """nan was an UnreachableUtilityError reporting an inversion to eps nan."""
        with pytest.raises(ValueError, match=f"^expected utility {u} is not finite$"):
            choose_epsilon(self.LINE, u)

    def test_infinite_budget_rejected(self):
        """A finite quotient past the float range was returned as eps inf."""
        with pytest.raises(UnreachableUtilityError, match="leaves the float range"):
            choose_epsilon(self.LINE, -1e308)


class TestMeasure:
    @pytest.mark.parametrize("solver_mode", ["exact", "sgd_repro"])
    def test_equals_low_level_sequence(self, solver_mode):
        """measure() is train, materialize, dtheta_deps and utility_slope,
        bit for bit, with the solve damped by (Lam + Delta_eps)/n for
        sgd_repro iterates and undamped for exact ones. dtheta_deps refuses
        an sgd_repro iterate, so its damped report comes from the solve
        measure runs, on margins computed here."""
        d = gen_synthetic(500, 4, 1.5, 2)
        spec = make_loss_spec("logistic", 4, "tight")
        cfg = TrainConfig(reg_lambda=0.01, solver_mode=solver_mode)
        m = measure(d, spec, cfg, 0.3, 1e-3, seed=5)

        sgd = solver_mode == "sgd_repro"
        ridge = (0.01 + delta_coeff(spec.lambda_hess, 0.3)) / d.n
        damping = ridge if sgd else 0.0
        noise = NoiseDraw.generate(4, 5)
        model = train(d, spec, cfg, PrivacyBudget(0.3, 1e-3), noise)
        pert = materialize(noise, spec.zeta, 1e-3, 0.3, spec.lambda_hess)
        if sgd:
            with pytest.raises(NumericalError, match="not stationary; measure gives"):
                dtheta_deps(model, d, spec, pert)
            report = sensitivity._dtheta_deps(model, pert, losses.margins(model.theta, d), d)
        else:
            report = dtheta_deps(model, d, spec, pert)
        slope = utility_slope(model, d, spec, report)

        assert m.model == model
        assert np.array_equal(m.report.dtheta_deps, report.dtheta_deps)
        assert np.array_equal(report.dtheta_deps, solved(model, d, pert, damping))
        # the damping shows in the bits: the other system solves to others
        assert not np.array_equal(report.dtheta_deps, solved(model, d, pert, ridge - damping))
        assert m.line == ExtrapolationLine(0.3, utility(model.theta, d, spec), slope)

    @pytest.mark.parametrize("solver_mode", ["exact", "sgd_repro"])
    def test_materializes_the_perturbation_once(self, solver_mode, monkeypatch):
        """The trainer hands the perturbation its run trained with on to the
        sensitivity solve, which no longer materializes it a second time."""
        calls = []

        def counted(*args):
            calls.append(args)
            return materialize(*args)

        for module in (trainer, sensitivity):
            monkeypatch.setattr(module, "materialize", counted)
        d = gen_synthetic(200, 3, 1.5, 2)
        spec = make_loss_spec("logistic", 3, "tight")
        m = measure(d, spec, TrainConfig(solver_mode=solver_mode), 0.3, 1e-3, seed=5)
        assert calls == [(m.model.noise, spec.zeta, 1e-3, 0.3, spec.lambda_hess)]


def quad_setup():
    """One-example quadratic instance and the line plan(seed=0) will see."""
    from eps_planner.model import Dataset, LossSpec

    d = Dataset(features=[[1.0]], labels=[1.0])
    spec = LossSpec(kind="quadratic", zeta=2.0, lambda_hess=1.0, s_third=0.0)
    cfg = TrainConfig(reg_lambda=0.0, solver_mode="exact", stationarity_tol=1e-12)
    noise = NoiseDraw.generate(1, 0)
    model = train(d, spec, cfg, PrivacyBudget(1.0, 0.1), noise)
    pert = materialize(noise, spec.zeta, 0.1, 1.0, spec.lambda_hess)
    report = dtheta_deps(model, d, spec, pert)
    slope = utility_slope(model, d, spec, report)
    line = ExtrapolationLine(1.0, utility(model.theta, d, spec), slope)
    return d, spec, cfg, line


class TestPlan:
    def test_degenerate_request_returns_measuring_point(self):
        d = gen_synthetic(200, 4, 1.0, 5)
        spec = make_loss_spec("logistic", 4, "tight")
        cfg = TrainConfig()
        m = train(d, spec, cfg, PrivacyBudget(0.5, 1e-3), NoiseDraw.generate(4, 3))
        measured = utility(m.theta, d, spec)
        result = plan(d, spec, cfg, 0.5, 1e-3, measured, seed=3)
        assert result.chosen_eps == pytest.approx(0.5, abs=1e-12)
        assert result.line.base_utility == pytest.approx(measured, rel=1e-12)
        assert result.scale.scale == pytest.approx(0.0, abs=1e-20)

    def test_single_training_run(self):
        d = gen_synthetic(100, 3, 1.0, 6)
        spec = make_loss_spec("logistic", 3, "tight")
        cfg = TrainConfig()
        m = train(d, spec, cfg, PrivacyBudget(0.5, 1e-3), NoiseDraw.generate(3, 1))
        measured = utility(m.theta, d, spec)
        before = trainer.TRAIN_CALL_COUNT
        plan(d, spec, cfg, 0.5, 1e-3, measured, seed=1)
        assert trainer.TRAIN_CALL_COUNT - before == 1

    def test_exact_plan_builds_newton_steps_plus_one_hessians(self, hessian_builds):
        """One Hessian per Newton step (the start point and each accepted
        iterate not yet converged) and one for W: none for line-search
        candidates, the converged point, the final gradient check or the
        utility slope."""
        d = gen_synthetic(2000, 10, 2.0, 0)
        spec = make_loss_spec("logistic", 10, "tight")
        cfg = TrainConfig()
        m = train(d, spec, cfg, PrivacyBudget(0.25, 1e-3), NoiseDraw.generate(10, 0))
        del hessian_builds[:]
        result = plan(d, spec, cfg, 0.25, 1e-3, utility(m.theta, d, spec) - 0.01, seed=0)
        assert result.model.iterations_used >= 3
        assert len(hessian_builds) == result.model.iterations_used + 1

    @pytest.mark.parametrize("kind", ["logistic", "huber_svm", "quadratic", "smooth_hinge"])
    def test_second_plan_serves_constant_curvature_from_gram(self, kind, blocked_builds):
        """Once a dataset's X^T X / n is cached, the theta = 0 start point
        of logistic and smooth_hinge and every quadratic point make no
        blocked build; huber_svm at 0 has curvature 0 and builds as before."""
        d = gen_synthetic(2000, 10, 2.0, 0)
        spec = make_loss_spec(kind, 10, "tight")
        cfg = TrainConfig()
        m = train(d, spec, cfg, PrivacyBudget(0.25, 1e-3), NoiseDraw.generate(10, 0))
        target = utility(m.theta, d, spec) - 0.01
        plan(d, spec, cfg, 0.25, 1e-3, target, seed=0)
        del blocked_builds[:]
        result = plan(d, spec, cfg, 0.25, 1e-3, target, seed=1)
        steps = result.model.iterations_used
        assert steps >= 1
        expected = {"logistic": steps, "smooth_hinge": steps, "quadratic": 0,
                    "huber_svm": steps + 1}
        assert len(blocked_builds) == expected[kind]

    @pytest.mark.parametrize("kind", ["logistic", "huber_svm", "quadratic", "smooth_hinge"])
    def test_exact_plan_computes_margins_once_per_point(
        self, kind, margins_calls, aggregate_calls, hessian_builds
    ):
        """One margins pass per line-search candidate, whose margins the
        next Newton step's Hessian reuses, and none for the theta = 0
        start. The measurement takes the margins, the loss value and its
        gradient at theta_hat from the solver's last evaluation, so W, the
        utility and its gradient need no margins or aggregate call of
        their own."""
        d = gen_synthetic(2000, 10, 2.0, 0)
        spec = make_loss_spec(kind, 10, "tight")
        cfg = TrainConfig()
        m = train(d, spec, cfg, PrivacyBudget(0.25, 1e-3), NoiseDraw.generate(10, 0))
        target = utility(m.theta, d, spec) - 0.01
        for calls in (margins_calls, aggregate_calls, hessian_builds):
            del calls[:]
        result = plan(d, spec, cfg, 0.25, 1e-3, target, seed=0)
        evaluations = aggregate_calls.count("trainer")
        assert evaluations >= result.model.iterations_used + 1
        assert margins_calls.count("trainer") == evaluations - 1
        assert margins_calls.count("chooser") == 0
        assert len(margins_calls) == evaluations - 1
        assert aggregate_calls.count("chooser") == 0
        assert len(aggregate_calls) == evaluations
        assert len(hessian_builds) == result.model.iterations_used + 1

    def test_sgd_measure_computes_margins_once_per_step_and_once_at_theta_hat(
        self, monkeypatch, margins_calls, aggregate_calls
    ):
        slopes_calls = []

        def counting_slopes(spec, m, out=None):
            slopes_calls.append("trainer")
            return losses.margin_slopes(spec, m, out=out)

        monkeypatch.setattr(trainer, "margin_slopes", counting_slopes)
        d = gen_synthetic(500, 4, 1.5, 2)
        spec = make_loss_spec("logistic", 4, "tight")
        cfg = TrainConfig(solver_mode="sgd_repro")
        measure(d, spec, cfg, 0.3, 1e-3, seed=5)
        # each step and the final gradient check: one label-folded margins
        # pass and one slope evaluation inside the sgd loop
        steps = cfg.sgd_iterations + 1
        assert slopes_calls == ["trainer"] * steps
        assert margins_calls == ["chooser"]
        assert aggregate_calls == ["chooser"]

    def test_exact_plan_factors_once_per_newton_step_and_once_for_w(self, cho_factor_calls):
        d = gen_synthetic(2000, 10, 2.0, 0)
        spec = make_loss_spec("logistic", 10, "tight")
        cfg = TrainConfig()
        m = train(d, spec, cfg, PrivacyBudget(0.25, 1e-3), NoiseDraw.generate(10, 0))
        del cho_factor_calls[:]
        result = plan(d, spec, cfg, 0.25, 1e-3, utility(m.theta, d, spec) - 0.01, seed=0)
        assert result.model.iterations_used >= 3
        assert cho_factor_calls.count("trainer") == result.model.iterations_used
        assert cho_factor_calls.count("sensitivity") == 1

    def test_sgd_measure_factors_only_the_damped_system(self, cho_factor_calls):
        d = gen_synthetic(500, 4, 1.5, 2)
        spec = make_loss_spec("logistic", 4, "tight")
        cfg = TrainConfig(solver_mode="sgd_repro")
        m = measure(d, spec, cfg, 0.3, 1e-3, seed=5)
        assert cho_factor_calls == ["sensitivity"]
        pert = materialize(m.model.noise, spec.zeta, 1e-3, 0.3, spec.lambda_hess)
        damping = (cfg.reg_lambda + delta_coeff(spec.lambda_hess, 0.3)) / d.n
        assert np.array_equal(m.report.dtheta_deps, solved(m.model, d, pert, damping))

    def test_deterministic(self):
        d = gen_synthetic(100, 3, 1.0, 6)
        spec = make_loss_spec("logistic", 3, "tight")
        cfg = TrainConfig()
        m = train(d, spec, cfg, PrivacyBudget(0.5, 1e-3), NoiseDraw.generate(3, 1))
        measured = utility(m.theta, d, spec)
        a = plan(d, spec, cfg, 0.5, 1e-3, measured - 0.01, seed=1)
        b = plan(d, spec, cfg, 0.5, 1e-3, measured - 0.01, seed=1)
        assert a.chosen_eps == b.chosen_eps
        assert np.array_equal(a.model.theta, b.model.theta)
        assert a.line == b.line

    def test_lower_loss_request_moves_budget_up(self):
        """With a negative slope, asking for a loss below the measured one
        must choose a larger budget."""
        d = gen_synthetic(2000, 5, 1.0, 0)
        spec = make_loss_spec("logistic", 5, "paper")
        cfg = TrainConfig()
        m = train(d, spec, cfg, PrivacyBudget(0.25, 1e-3), NoiseDraw.generate(5, 0))
        measured = utility(m.theta, d, spec)
        result = plan(d, spec, cfg, 0.25, 1e-3, measured - 0.02, seed=0)
        assert result.line.slope < 0
        assert result.chosen_eps > 0.25

    def test_report_carries_slope(self):
        d, spec, cfg, line = quad_setup()
        result = plan(d, spec, cfg, 1.0, 0.1, line.base_utility, seed=0)
        assert result.line.slope == pytest.approx(line.slope, rel=1e-12)

    def test_magnitude_gap_warns(self):
        # request the value the line predicts at eps=20, an order of
        # magnitude past the measuring point; the gap is a result field,
        # not a Python warning
        d, spec, cfg, line = quad_setup()
        target = extrapolate(line, 20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = plan(d, spec, cfg, 1.0, 0.1, target, seed=0)
        assert result.magnitude_warning
        assert result.chosen_eps == pytest.approx(20.0, rel=1e-9)

    def test_no_warning_in_range(self):
        d, spec, cfg, line = quad_setup()
        target = extrapolate(line, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = plan(d, spec, cfg, 1.0, 0.1, target, seed=0)
        assert not result.magnitude_warning

    def test_scale_attached_for_pair(self):
        d, spec, cfg, line = quad_setup()
        target = extrapolate(line, 2.0)
        result = plan(d, spec, cfg, 1.0, 0.1, target, seed=0)
        assert result.scale.scale == error_scale(1.0, result.chosen_eps, 1).scale
        assert result.scale.scale > 0


class TestMeasureMany:
    """Runs measured together: each is `measure`'s result for its own
    (eps, seed), and `measure` is the one-run case."""

    RUNS = [(0.05, 4), (0.3, 4), (1.0, 9), (0.3, 11), (2.0, 0), (0.1, 23), (0.7, 5)]

    @pytest.mark.parametrize("solver_mode", ["exact", "sgd_repro"])
    @pytest.mark.parametrize("kind", ["logistic", "huber_svm", "quadratic", "smooth_hinge"])
    def test_measure_is_the_one_run_case(self, three_column_blocks, kind, solver_mode):
        d = three_column_blocks
        spec = make_loss_spec(kind, d.p, "tight")
        cfg = TrainConfig(solver_mode=solver_mode)
        assert measure(d, spec, cfg, 0.3, 1e-3, 4) == measure_many(d, spec, cfg, 1e-3, [(0.3, 4)])[0]

    @pytest.mark.parametrize("kind", ["logistic", "huber_svm", "quadratic", "smooth_hinge"])
    def test_exact_runs_equal_measure_bit_for_bit(self, three_column_blocks, kind):
        d = three_column_blocks
        spec = make_loss_spec(kind, d.p, "tight")
        cfg = TrainConfig()
        runs = self.RUNS[:4]
        many = measure_many(d, spec, cfg, 1e-3, runs)
        assert many == [measure(d, spec, cfg, eps, 1e-3, seed) for eps, seed in runs]

    @pytest.mark.parametrize("tol", [1e-8, 10.0])
    @pytest.mark.parametrize("kind", ["logistic", "huber_svm", "quadratic", "smooth_hinge"])
    def test_exact_runs_equal_a_recomputation_at_theta_hat(self, three_column_blocks, kind, tol):
        """The margins, loss value and gradient an exact measurement takes
        from the solver's last evaluation are those that margins and
        aggregate recompute from model.theta, bit for bit. A tolerance of
        10 stops the solver at its zero start, whose margins are zeros
        where X 0 gives +-0."""
        d = three_column_blocks
        spec = make_loss_spec(kind, d.p, "tight")
        for m in measure_many(d, spec, TrainConfig(stationarity_tol=tol), 1e-3, self.RUNS[:3]):
            assert (m.model.iterations_used == 0) == (tol == 10.0)
            at = losses.margins(m.model.theta, d)
            eps = m.line.measure_eps
            pert = materialize(m.model.noise, spec.zeta, 1e-3, eps, spec.lambda_hess)
            report = sensitivity._dtheta_deps(m.model, pert, at, d)
            base_utility, gradF = losses.aggregate(spec, at, d)
            assert np.array_equal(m.report.dtheta_deps, report.dtheta_deps)
            assert m.line == ExtrapolationLine(
                m.model.budget.epsilon, base_utility, float(gradF @ report.dtheta_deps)
            )

    @pytest.mark.parametrize("kind", ["logistic", "huber_svm", "quadratic", "smooth_hinge"])
    def test_sgd_runs_match_measure(self, three_column_blocks, kind):
        d = three_column_blocks
        spec = make_loss_spec(kind, d.p, "tight")
        cfg = TrainConfig(solver_mode="sgd_repro")
        before = trainer.TRAIN_CALL_COUNT
        many = measure_many(d, spec, cfg, 1e-3, self.RUNS)
        assert trainer.TRAIN_CALL_COUNT - before == len(self.RUNS)
        for (eps, seed), m in zip(self.RUNS, many):
            one = measure(d, spec, cfg, eps, 1e-3, seed)
            assert m.model.noise == one.model.noise and m.line.measure_eps == eps
            rel = np.linalg.norm(m.model.theta - one.model.theta) / np.linalg.norm(one.model.theta)
            assert rel <= 1e-14
            assert m.line.base_utility == pytest.approx(one.line.base_utility, rel=1e-12)
            assert m.line.slope == pytest.approx(one.line.slope, rel=1e-10)
