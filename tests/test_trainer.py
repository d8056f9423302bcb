import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

from eps_planner import trainer
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
    train_many,
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

    @pytest.mark.parametrize("field", ["max_exact_iterations", "sgd_iterations"])
    @pytest.mark.parametrize("value", [-3, 2.5, float("nan")])
    def test_rejects_bad_step_counts(self, field, value):
        """A negative count trained nothing and reported it as steps; a
        fractional one failed with a TypeError inside training. The sgd_repro
        count is fixed on the class, so the constructor takes no value for it."""
        if field == "sgd_iterations":
            with pytest.raises(TypeError):
                TrainConfig(**{field: value})
        else:
            with pytest.raises(ValueError, match=f"{field} must be an integer >= 0"):
                TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["max_exact_iterations"])
    def test_zero_steps_allowed(self, field):
        assert getattr(TrainConfig(**{field: 0}), field) == 0

    @pytest.mark.parametrize("field", ["stationarity_tol", "sgd_learning_rate"])
    @pytest.mark.parametrize("value", [0.0, -1e-8, float("inf"), float("nan")])
    def test_rejects_bad_tolerance_and_rate(self, field, value):
        """An infinite tolerance returned theta = 0 as an exact model. The
        sgd_repro rate is fixed on the class, so the constructor takes no
        value for it."""
        if field == "sgd_learning_rate":
            with pytest.raises(TypeError):
                TrainConfig(**{field: value})
        else:
            with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
                TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [("sgd_iterations", 7), ("sgd_learning_rate", 0.05)])
    def test_sgd_schedule_is_not_an_argument(self, field, value):
        """The sgd_repro schedule is the reference protocol's, fixed on the class."""
        with pytest.raises(TypeError):
            TrainConfig(**{field: value})


class TestPerturbedObjective:
    def test_zero_point_with_zero_noise(self):
        d = gen_synthetic(40, 3, 1.0, 5)
        spec = make_loss_spec("logistic", 3, "tight")
        cfg = TrainConfig(reg_lambda=0.5)
        pert = materialize(NoiseDraw(np.zeros(3), 0), spec.zeta, 0.1, 1.0, spec.lambda_hess)
        m = margins(np.zeros(3), d)
        value, grad = perturbed_objective(np.zeros(3), m, d, spec, cfg, pert)
        L, gradL = aggregate(spec, m, d)
        assert value == pytest.approx(L, rel=1e-12)
        np.testing.assert_allclose(grad, gradL, rtol=1e-12)
        message = "theta must be a vector of length 3, got shape (4,)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            perturbed_objective(np.zeros(4), m, d, spec, cfg, pert)

    def test_quadratic_one_example_minimum(self, quad_instance):
        d, spec, cfg, zero_noise = quad_instance
        pert = materialize(zero_noise, spec.zeta, 0.1, 1.0, spec.lambda_hess)
        # objective 0.5*(1-t)^2 + t^2 has its minimum at t = 1/3
        t = np.array([1.0 / 3.0])
        v_min, g_min = perturbed_objective(t, margins(t, d), d, spec, cfg, pert)
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
            _, grad = perturbed_objective(theta, margins(theta, d), d, spec, cfg, pert)
            h = 1e-6
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                tp, tm = theta + e, theta - e
                vp, _ = perturbed_objective(tp, margins(tp, d), d, spec, cfg, pert)
                vm, _ = perturbed_objective(tm, margins(tm, d), d, spec, cfg, pert)
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
        _, grad = perturbed_objective(m.theta, margins(m.theta, d), d, spec, cfg, pert)
        assert m.grad_norm_at_solution == float(np.linalg.norm(grad))

    @pytest.mark.parametrize("kind", ["logistic", "huber_svm", "quadratic", "smooth_hinge"])
    def test_zero_start_equals_the_multiplied_out_zero_start(self, kind):
        """The theta = 0 start takes zeros for its margins, X 0 takes +-0;
        every loss gives both the same bits, and so the same model."""
        d = gen_synthetic(150, 5, 1.5, 31)
        spec = make_loss_spec(kind, 5, "tight")
        args = (d, spec, TrainConfig(), PrivacyBudget(0.25, 1e-3), NoiseDraw.generate(5, 4))
        assert train(*args) == train(*args, theta0=np.zeros(5))

    def test_given_start_takes_its_margins_product(self, margins_calls, aggregate_calls):
        """Only the zero start skips X theta: from a given theta0 every
        evaluation, the start's included, has its own margins pass."""
        d = gen_synthetic(150, 5, 1.5, 31)
        spec = make_loss_spec("logistic", 5, "tight")
        args = (d, spec, TrainConfig(), PrivacyBudget(0.25, 1e-3), NoiseDraw.generate(5, 4))
        m = train(*args, theta0=np.full(5, 0.5))
        assert m.iterations_used > 0
        assert margins_calls == aggregate_calls == ["trainer"] * len(aggregate_calls)
        del margins_calls[:], aggregate_calls[:]
        train(*args)
        assert len(margins_calls) == len(aggregate_calls) - 1

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


@pytest.mark.parametrize("solver", ["exact", "sgd_repro"])
@pytest.mark.parametrize("shape", [(3,), (5, 2)])
def test_theta0_of_another_shape_is_named_before_training(solver, shape):
    """It failed inside numpy's matmul (sgd_repro), or named the margins'
    shape (exact)."""
    d = gen_synthetic(50, 5, 1.5, 31)
    spec = make_loss_spec("logistic", 5, "tight")
    args = (d, spec, TrainConfig(solver_mode=solver), PrivacyBudget(0.5, 1e-3))
    before = trainer.TRAIN_CALL_COUNT
    message = f"theta0 must be a vector of length 5, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        train(*args, NoiseDraw.generate(5, 4), theta0=np.zeros(shape))
    assert trainer.TRAIN_CALL_COUNT == before


class TestNewtonExits:
    """Every way out of the exact solver: tolerance reached within the
    step budget, the budget spent, and no step making certifiable progress."""

    NOT_REACHED = r"exact solver did not reach tolerance 1\.000e-12 \(gradient norm "

    @pytest.fixture
    def problem(self):
        d = gen_synthetic(500, 4, 2.0, 0)
        spec = make_loss_spec("logistic", 4, "tight")
        return d, spec, PrivacyBudget(0.5, 1e-3), NoiseDraw.generate(4, 1)

    def _train(self, problem, theta0=None, **cfg):
        d, spec, budget, noise = problem
        return train(d, spec, TrainConfig(**cfg), budget, noise, theta0=theta0)

    def test_step_budget_equal_to_the_steps_taken_suffices(self, problem):
        free = self._train(problem, stationarity_tol=1e-12)
        assert free.iterations_used == 7
        capped = self._train(
            problem, stationarity_tol=1e-12, max_exact_iterations=free.iterations_used
        )
        assert capped.iterations_used == free.iterations_used
        np.testing.assert_array_equal(capped.theta, free.theta)

    def test_spent_step_budget_raises(self, problem):
        with pytest.raises(NumericalError, match=self.NOT_REACHED):
            self._train(problem, stationarity_tol=1e-12, max_exact_iterations=1)

    def test_zero_steps_at_the_solution_returns_it(self, problem):
        solution = self._train(problem, stationarity_tol=1e-12).theta
        m = self._train(problem, solution, stationarity_tol=1e-12, max_exact_iterations=0)
        assert m.iterations_used == 0
        np.testing.assert_array_equal(m.theta, solution)

    def test_zero_steps_from_zero_raises(self, problem):
        with pytest.raises(NumericalError, match=self.NOT_REACHED):
            self._train(problem, stationarity_tol=1e-12, max_exact_iterations=0)

    def test_no_certifiable_progress_raises(self, problem, hessian_builds):
        """A tolerance below float resolution stops the solver once no
        line-search candidate improves, long before its step budget."""
        with pytest.raises(
            NumericalError, match=r"did not reach tolerance 1\.000e-300 \(gradient norm "
        ):
            self._train(problem, stationarity_tol=1e-300)
        assert len(hessian_builds) < TrainConfig().max_exact_iterations


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
        cfg = TrainConfig(solver_mode="sgd_repro")
        noise = NoiseDraw.generate(3, 6)
        m = train(d, spec, cfg, PrivacyBudget(0.5, 1e-3), noise)
        pert = materialize(noise, spec.zeta, 1e-3, 0.5, spec.lambda_hess)
        theta = np.zeros(3)
        for _ in range(cfg.sgd_iterations):
            _, g = perturbed_objective(theta, margins(theta, d), d, spec, cfg, pert)
            theta = theta - cfg.sgd_learning_rate * g
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

    @pytest.mark.parametrize("kind", ["logistic", "huber_svm", "quadratic", "smooth_hinge"])
    def test_reported_gradient_norm_is_the_objective_gradient(self, kind):
        d = gen_synthetic(300, 6, 1.5, 13)
        spec = make_loss_spec(kind, 6, "tight")
        cfg = TrainConfig(solver_mode="sgd_repro")
        noise = NoiseDraw.generate(6, 2)
        m = train(d, spec, cfg, PrivacyBudget(0.3, 1e-3), noise)
        pert = materialize(noise, spec.zeta, 1e-3, 0.3, spec.lambda_hess)
        _, grad = perturbed_objective(m.theta, margins(m.theta, d), d, spec, cfg, pert)
        assert m.grad_norm_at_solution == np.linalg.norm(grad)

    def test_holds_no_copy_of_the_rows(self):
        """Training reads the dataset's label-folded rows and holds O(n)
        vectors: 169 KB at 20000 x 50, where the rows are 8 MB."""
        d = gen_synthetic(20000, 50, 2.0, 1)
        spec = make_loss_spec("logistic", d.p, "tight")
        cfg = TrainConfig(solver_mode="sgd_repro")
        noise = NoiseDraw.generate(d.p, 0)
        tracemalloc.start()
        try:
            train(d, spec, cfg, PrivacyBudget(0.3, 1e-3), noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * d.n + 64 * 1024

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


class TestTrainMany:
    """Runs stepped together as the columns of one iterate give each run
    its one-run model; a block width of 3 leaves 7 runs a one-column last
    block."""

    EPS = (0.05, 0.3, 1.0, 0.3, 2.0, 0.1, 0.7)
    SEEDS = (4, 4, 9, 11, 0, 23, 5)

    def runs(self, p):
        return [
            (PrivacyBudget(eps, 1e-3), NoiseDraw.generate(p, seed))
            for eps, seed in zip(self.EPS, self.SEEDS)
        ]

    @pytest.mark.parametrize("kind", ["logistic", "huber_svm", "quadratic", "smooth_hinge"])
    def test_each_column_is_its_one_run_model(self, three_column_blocks, kind):
        d = three_column_blocks
        spec = make_loss_spec(kind, d.p, "tight")
        cfg = TrainConfig(solver_mode="sgd_repro")
        runs = self.runs(d.p)
        many = train_many(d, spec, cfg, runs)
        assert len(many) == len(runs)
        for (budget, noise), m in zip(runs, many):
            one = train(d, spec, cfg, budget, noise)
            assert m.budget == budget and m.noise is noise
            assert m.iterations_used == one.iterations_used == cfg.sgd_iterations
            rel = np.linalg.norm(m.theta - one.theta) / np.linalg.norm(one.theta)
            assert rel <= 1e-14
            assert m.grad_norm_at_solution == pytest.approx(one.grad_norm_at_solution, rel=1e-12)

    @pytest.mark.parametrize("kind", ["logistic", "huber_svm", "quadratic", "smooth_hinge"])
    def test_exact_runs_equal_train_bit_for_bit(self, three_column_blocks, kind):
        d = three_column_blocks
        spec = make_loss_spec(kind, d.p, "tight")
        cfg = TrainConfig()
        runs = self.runs(d.p)[:4]
        assert train_many(d, spec, cfg, runs) == [train(d, spec, cfg, *run) for run in runs]

    @pytest.mark.parametrize("solver_mode", ["exact", "sgd_repro"])
    def test_train_call_count_rises_by_the_run_count(self, three_column_blocks, solver_mode):
        d = three_column_blocks
        spec = make_loss_spec("logistic", d.p, "tight")
        before = trainer.TRAIN_CALL_COUNT
        train_many(d, spec, TrainConfig(solver_mode=solver_mode), self.runs(d.p))
        assert trainer.TRAIN_CALL_COUNT - before == len(self.EPS)

    def test_non_finite_iterate_names_step_and_run(self, three_column_blocks):
        """Run 4, in the second block, has an infinite noise vector: its
        first step leaves the iterate infinite."""
        d = three_column_blocks
        spec = make_loss_spec("logistic", d.p, "tight")
        runs = self.runs(d.p)
        runs[4] = (runs[4][0], NoiseDraw(np.full(d.p, np.inf), 0))
        with pytest.raises(NumericalError, match=r"^non-finite iterate at sgd step 1 of run 4$"):
            train_many(d, spec, TrainConfig(solver_mode="sgd_repro"), runs)

    @pytest.mark.parametrize("solver_mode", ["exact", "sgd_repro"])
    def test_noise_length_is_checked_before_training(self, three_column_blocks, solver_mode):
        d = three_column_blocks
        spec = make_loss_spec("logistic", d.p, "tight")
        runs = self.runs(d.p)
        runs[-1] = (runs[-1][0], NoiseDraw.generate(d.p + 1, 0))
        before = trainer.TRAIN_CALL_COUNT
        message = "base_u must be a vector of length 6, got shape (7,)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train_many(d, spec, TrainConfig(solver_mode=solver_mode), runs)
        assert trainer.TRAIN_CALL_COUNT == before

    def test_blocks_follow_the_byte_budget(self, three_column_blocks, sgd_block_widths):
        d = three_column_blocks
        spec = make_loss_spec("logistic", d.p, "tight")
        train_many(d, spec, TrainConfig(solver_mode="sgd_repro"), self.runs(d.p))
        assert sgd_block_widths == [3, 3, 1]

    @pytest.mark.parametrize("kind", ["logistic", "huber_svm", "quadratic", "smooth_hinge"])
    def test_steps_reuse_one_margins_buffer(self, kind):
        """20 runs on 5000 x 10 step as one block and hold one n x 20
        margins buffer that the slopes overwrite, and p x 20 iterates:
        one n x 20 temporary at any step would exceed this. Each column
        is its one-run model."""
        d = gen_synthetic(5000, 10, 2.0, 1)
        spec = make_loss_spec(kind, d.p, "tight")
        cfg = TrainConfig(solver_mode="sgd_repro")
        runs = [(PrivacyBudget(0.05 * (i + 1), 1e-3), NoiseDraw.generate(d.p, i)) for i in range(20)]
        tracemalloc.start()
        try:
            many = train_many(d, spec, cfg, runs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * d.n * len(runs) + 64 * 1024
        for run, m in zip(runs, many):
            one = train(d, spec, cfg, *run)
            assert np.linalg.norm(m.theta - one.theta) <= 1e-14 * np.linalg.norm(one.theta)

    def test_no_runs_train_nothing(self, three_column_blocks):
        d = three_column_blocks
        spec = make_loss_spec("logistic", d.p, "tight")
        assert train_many(d, spec, TrainConfig(solver_mode="sgd_repro"), []) == []


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
        message = f"^{re.escape('theta must be a vector of length 2, got shape (3,)')}$"
        with pytest.raises(ValueError, match=message):
            utility(np.zeros(3), d, spec)
        with pytest.raises(ValueError, match=message):
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

    def test_nonfinite_detection(self):
        d = gen_synthetic(20, 2, 1.0, 3)
        spec = make_loss_spec("logistic", 2, "tight")
        cfg = TrainConfig(solver_mode="sgd_repro")
        noise = NoiseDraw(np.array([np.inf, 0.0]), 0)
        with pytest.raises(NumericalError):
            train(d, spec, cfg, PrivacyBudget(0.05, 1e-3), noise)
