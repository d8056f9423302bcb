from dataclasses import replace

import numpy as np
import pytest

from eps_planner.experiments import (
    ACTUAL_SEED_OFFSET,
    SUBSAMPLE_SEED_OFFSET,
    ExperimentConfig,
    SyntheticSpec,
    experiment_estimate_vs_actual,
    experiment_measuring_sweep,
    experiment_sample_sweep,
    oracle_compare,
    resolve,
)

SMALL = dict(
    synthetic=SyntheticSpec(n=300, p=4, separation=1.5),
    bounds_mode="tight",
    delta=1e-3,
    repeats=3,
    base_seed=5,
)


class TestConfigValidation:
    def test_defaults_follow_protocol(self):
        cfg = ExperimentConfig()
        assert cfg.repeats == 10
        assert cfg.reg_lambda == 0.01
        assert cfg.target_grid[0] == 0.05 and cfg.target_grid[-1] == 1.0

    def test_default_grids(self):
        from eps_planner.experiments import DEFAULT_MEASURING_LOW, DEFAULT_TARGETS_LOW

        assert DEFAULT_MEASURING_LOW == (0.1, 0.25, 0.75)
        assert len(DEFAULT_TARGETS_LOW) == 20

    def test_rejects_unsorted_targets(self):
        with pytest.raises(ValueError, match="sorted"):
            ExperimentConfig(target_grid=(0.5, 0.1))

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            ExperimentConfig(measure_eps_list=(0.0,))

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            ExperimentConfig(repeats=0)

    @pytest.mark.parametrize("repeats", [2.5, "2"])
    def test_rejects_non_integer_repeats(self, repeats):
        with pytest.raises(ValueError, match="repeats must be an integer"):
            ExperimentConfig(repeats=repeats)

    def test_rejects_empty_measuring_list(self):
        """It raised IndexError in the sample sweep and gave an empty
        estimate table."""
        with pytest.raises(ValueError, match="measure_eps_list"):
            ExperimentConfig(measure_eps_list=())

    def test_rejects_empty_target_grid(self):
        """Without it the estimate and sample tables returned no rows,
        after the estimate table had run its measuring trainings."""
        with pytest.raises(ValueError, match="target_grid"):
            ExperimentConfig(target_grid=())

    @pytest.mark.parametrize("base_seed", [-1, 2.5, "3"])
    def test_rejects_bad_base_seed(self, base_seed):
        with pytest.raises(ValueError, match="base_seed must be an integer >= 0"):
            ExperimentConfig(base_seed=base_seed)

    @pytest.mark.parametrize("grid", [(), (100, 200.5), (0, 100)])
    def test_rejects_bad_sample_grid(self, grid):
        with pytest.raises(ValueError, match="sample_grid"):
            ExperimentConfig(sample_grid=grid)

    def test_numpy_integers_are_integers(self):
        cfg = ExperimentConfig(repeats=np.int64(2), sample_grid=tuple(np.array([10, 20])))
        assert cfg.repeats == 2 and cfg.sample_grid == (10, 20)


class TestEstimateVsActual:
    def test_deterministic(self):
        cfg = ExperimentConfig(measure_eps_list=(0.25,), target_grid=(0.2, 0.25, 0.5), **SMALL)
        assert experiment_estimate_vs_actual(cfg) == experiment_estimate_vs_actual(cfg)

    def test_estimated_column_is_affine(self):
        cfg = ExperimentConfig(
            measure_eps_list=(0.25,), target_grid=(0.2, 0.4, 0.6, 0.8), **SMALL
        )
        rows = experiment_estimate_vs_actual(cfg)
        est = [r["estimated_loss"] for r in rows]
        d1 = np.diff(est)
        assert np.all(np.abs(np.diff(d1)) <= 1e-12)

    def test_self_target_matches_measured_mean(self):
        """At the target equal to the measuring point the estimate is the
        repeat-averaged measured utility itself."""
        from eps_planner.chooser import measure
        cfg = ExperimentConfig(measure_eps_list=(0.25,), target_grid=(0.25,), **SMALL)
        d, spec, tcfg = resolve(cfg)
        bases = [
            measure(d, spec, tcfg, 0.25, cfg.delta, cfg.base_seed + r).line.base_utility
            for r in range(cfg.repeats)
        ]
        rows = experiment_estimate_vs_actual(cfg)
        assert rows[0]["estimated_loss"] == pytest.approx(np.mean(bases), rel=1e-12)

    def test_actual_seeds_independent_of_estimates(self):
        cfg = ExperimentConfig(measure_eps_list=(0.25,), target_grid=(0.25,), **SMALL)
        rows = experiment_estimate_vs_actual(cfg)
        # same grid point, same budget: only the seed stream separates the
        # two columns, so they must differ
        assert rows[0]["estimated_loss"] != rows[0]["actual_loss"]

    def test_row_grid_structure(self):
        cfg = ExperimentConfig(
            measure_eps_list=(0.1, 0.25), target_grid=(0.2, 0.4), **SMALL
        )
        rows = experiment_estimate_vs_actual(cfg)
        assert [(r["measure_eps"], r["target_eps"]) for r in rows] == [
            (0.1, 0.2), (0.1, 0.4), (0.25, 0.2), (0.25, 0.4),
        ]


class TestMeasuringSweep:
    def test_two_point_grid_degenerates_to_cross_estimates(self):
        cfg = ExperimentConfig(measure_eps_list=(0.25,), target_grid=(0.2, 0.5), **SMALL)
        sweep = experiment_measuring_sweep(cfg)
        est_cfg = ExperimentConfig(
            measure_eps_list=(0.2, 0.5), target_grid=(0.2, 0.5), **SMALL
        )
        table = experiment_estimate_vs_actual(est_cfg)
        cross = {
            (r["measure_eps"], r["target_eps"]): r["abs_error"] for r in table
        }
        assert sweep[0]["avg_abs_error"] == pytest.approx(cross[(0.2, 0.5)], rel=1e-12)
        assert sweep[1]["avg_abs_error"] == pytest.approx(cross[(0.5, 0.2)], rel=1e-12)

    def test_is_the_off_diagonal_mean_of_the_estimate_table(self):
        """Each measuring eps scores the mean abs_error of the estimate
        table's rows at every other target, on the same seeds."""
        grid = (0.2, 0.35, 0.5, 0.8)
        cfg = ExperimentConfig(measure_eps_list=(0.25,), target_grid=grid, **SMALL)
        sweep = experiment_measuring_sweep(cfg)
        table = experiment_estimate_vs_actual(
            ExperimentConfig(measure_eps_list=grid, target_grid=grid, **SMALL)
        )
        assert [r["measure_eps"] for r in sweep] == list(grid)
        for row in sweep:
            me = row["measure_eps"]
            cross = [r["abs_error"] for r in table if r["measure_eps"] == me != r["target_eps"]]
            assert len(cross) == len(grid) - 1
            assert row["avg_abs_error"] == pytest.approx(np.mean(cross), rel=1e-12)

    def test_one_target_is_value_error_before_training(self, monkeypatch):
        """One target leaves no other grid point to score it against."""
        from eps_planner import experiments, trainer

        def no_training(*args, **kwargs):
            raise AssertionError("trained before rejecting the grid")

        # the module's only training routes
        for name in ("train_many", "measure_many"):
            monkeypatch.setattr(experiments, name, no_training)
        before = trainer.TRAIN_CALL_COUNT
        cfg = ExperimentConfig(target_grid=(0.5,), **SMALL)
        with pytest.raises(ValueError, match="at least 2 targets, got 1"):
            experiment_measuring_sweep(cfg)
        assert trainer.TRAIN_CALL_COUNT == before

    def test_trainings_step_in_column_blocks(self, sgd_block_widths):
        """A 20-target sweep on 5000 x 10 steps its 20 actual and 20
        measuring runs in one block each, one train_many call each: a
        table that falls back to one training per loop, or a block
        budget too small for all 20 columns, fails here, not only as a
        slower table."""
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(n=5000, p=10, separation=2.0),
            measure_eps_list=(0.25,),
            repeats=1,
        )
        assert len(cfg.target_grid) == 20 and cfg.solver_mode == "sgd_repro"
        experiment_measuring_sweep(cfg)
        assert sgd_block_widths == [20, 20]


class TestSampleSweep:
    def test_repeated_grid_gives_identical_rows(self):
        cfg = ExperimentConfig(
            measure_eps_list=(0.25,), target_grid=(0.3, 0.6),
            sample_grid=(100, 100), **SMALL
        )
        rows = experiment_sample_sweep(cfg)
        half = len(rows) // 2
        assert rows[:half] == rows[half:]

    def test_each_block_is_the_estimate_table_on_its_subset(self):
        """The rows for sample count n are the estimate table built on
        the first n rows of the seeded permutation, measured at the
        first measuring eps, with n in place of measure_eps."""
        cfg = ExperimentConfig(
            measure_eps_list=(0.25, 0.5), target_grid=(0.3, 0.6, 0.9),
            sample_grid=(80, 200), **SMALL
        )
        rows = experiment_sample_sweep(cfg)
        d, _, _ = resolve(cfg)
        perm = np.random.default_rng(cfg.base_seed + SUBSAMPLE_SEED_OFFSET).permutation(d.n)
        one = replace(cfg, measure_eps_list=(0.25,))
        expected = []
        for n_sub in cfg.sample_grid:
            for r in experiment_estimate_vs_actual(one, d.subset(perm[:n_sub])):
                expected.append({"n": n_sub, **{k: v for k, v in r.items() if k != "measure_eps"}})
        assert rows == expected
        assert list(rows[0]) == ["n", "target_eps", "estimated_loss", "actual_loss", "abs_error"]

    def test_subsets_are_nested_prefixes(self):
        cfg = ExperimentConfig(sample_grid=(50, 120), **SMALL)
        d, _, _ = resolve(cfg)
        perm = np.random.default_rng(cfg.base_seed + SUBSAMPLE_SEED_OFFSET).permutation(d.n)
        small = d.subset(perm[:50])
        large = d.subset(perm[:120])
        assert np.array_equal(small.features, large.features[:50])

    def test_rejects_oversized_grid(self):
        cfg = ExperimentConfig(sample_grid=(10_000,), **SMALL)
        with pytest.raises(ValueError, match="sample grid"):
            experiment_sample_sweep(cfg)

    def test_default_generator_grows_to_the_largest_sample(self):
        """With no dataset and no synthetic spec, the default generator
        makes max(SyntheticSpec.n, largest sample) rows; an explicit spec
        that is too small is still refused."""
        cfg = ExperimentConfig(repeats=1, target_grid=(0.5,), sample_grid=(100, 6000))
        assert cfg.synthetic is None
        rows = experiment_sample_sweep(cfg)
        assert [r["n"] for r in rows] == [100, 6000]
        assert rows == experiment_sample_sweep(replace(cfg, synthetic=SyntheticSpec(n=6000)))
        small = replace(cfg, synthetic=SyntheticSpec())
        with pytest.raises(ValueError, match="goes up to 6000 but the dataset has n=5000"):
            experiment_sample_sweep(small)

    def test_default_generator_keeps_its_size_for_small_grids(self):
        cfg = ExperimentConfig(sample_grid=(50,), **{**SMALL, "synthetic": None})
        assert resolve(cfg)[0].n == SyntheticSpec.n
        assert experiment_sample_sweep(cfg) == experiment_sample_sweep(
            replace(cfg, synthetic=SyntheticSpec())
        )


class TestOracleCompare:
    def test_quadratic_one_example_closed_form_accuracy(self):
        """On the closed-form instance the minimizer is rational in eps,
        so the finite difference agrees with the solve to ~h^2."""
        from eps_planner.model import Dataset

        d = Dataset(features=[[1.0]], labels=[1.0])
        cfg = ExperimentConfig(
            loss_kind="quadratic", bounds_mode="tight", reg_lambda=0.0,
            delta=0.1, repeats=3, base_seed=0, measure_eps_list=(1.0,),
            solver_mode="exact",
        )
        for r in oracle_compare(cfg, d=d):
            assert r["dtheta_rel_err"] <= 1e-8
            assert r["slope_rel_err"] <= 1e-8

    def test_oracle_agreement_small_logistic(self):
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(n=200, p=5, separation=2.0),
            bounds_mode="tight", delta=1e-3, repeats=2, base_seed=11,
            measure_eps_list=(0.25, 1.0), solver_mode="exact",
        )
        rows = oracle_compare(cfg)
        assert len(rows) == 4
        for r in rows:
            assert r["dtheta_rel_err"] <= 1e-3
            assert r["slope_rel_err"] <= 1e-3

    def test_one_measuring_call_and_one_retraining_call(self, monkeypatch):
        """Every (eps, seed) run is measured by one measure_many call and
        every eps +/- h retraining trained by one train_many call, each
        pair on its measuring run's own draw."""
        from eps_planner import experiments

        calls = {"measure_many": [], "train_many": []}

        def spy(name):
            real = getattr(experiments, name)

            def wrapper(*args):
                calls[name].append(args[-1])
                return real(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(experiments, name, spy(name))
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(n=150, p=3, separation=1.5),
            bounds_mode="tight", delta=1e-3, repeats=2, base_seed=4,
            measure_eps_list=(0.25, 1.0),
        )
        rows = oracle_compare(cfg)
        assert len(rows) == 4
        (measured,), (retrained,) = calls["measure_many"], calls["train_many"]
        assert measured == [(0.25, 4), (0.25, 5), (1.0, 4), (1.0, 5)]
        assert len(retrained) == 8
        for i, ((me, seed), row) in enumerate(zip(measured, rows)):
            (lo, lo_noise), (hi, hi_noise) = retrained[2 * i : 2 * i + 2]
            h = row["fd_step"]
            assert (lo.epsilon, hi.epsilon) == (me - h, me + h)
            assert lo_noise is hi_noise and lo_noise.seed == seed

    def test_halving_step_is_consistent(self):
        """The finite difference moves less than its own distance to the
        analytic value when the step halves: the oracle is converging to
        the implicit-differentiation answer, not away from it."""
        from eps_planner.model import NoiseDraw, PrivacyBudget
        from eps_planner.perturbation import materialize
        from eps_planner.sensitivity import dtheta_deps, utility_slope
        from eps_planner.trainer import TrainConfig, train, utility

        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(n=200, p=5, separation=2.0),
            bounds_mode="tight", delta=1e-3, base_seed=11, solver_mode="exact",
        )
        d, spec, _ = resolve(cfg)
        tcfg = TrainConfig(stationarity_tol=1e-12, max_exact_iterations=500)
        me = 0.25
        noise = NoiseDraw.generate(d.p, 11)
        model = train(d, spec, tcfg, PrivacyBudget(me, cfg.delta), noise)
        pert = materialize(noise, spec.zeta, cfg.delta, me, spec.lambda_hess)
        slope = utility_slope(model, d, spec, dtheta_deps(model, d, spec, pert))

        def fd_slope(h):
            lo = train(d, spec, tcfg, PrivacyBudget(me - h, cfg.delta), noise)
            hi = train(d, spec, tcfg, PrivacyBudget(me + h, cfg.delta), noise)
            return (utility(hi.theta, d, spec) - utility(lo.theta, d, spec)) / (2 * h)

        f1 = fd_slope(1e-4 * me)
        f2 = fd_slope(0.5e-4 * me)
        assert abs(f1 - f2) <= abs(f1 - slope) + 1e-14
