import numpy as np
import pytest

from eps_planner.errors import DataError
from eps_planner.model import (
    Dataset,
    ExtrapolationLine,
    LossSpec,
    NoiseDraw,
    PrivacyBudget,
    PrivateModel,
    SensitivityReport,
    validate_dataset,
)


class TestValidateDataset:
    def test_well_formed(self):
        d = Dataset(features=[[0.6, 0.8, 0.0], [0.0, 0.1, 0.2]], labels=[1, -1])
        assert validate_dataset(d) is d

    def test_invalid_label(self):
        d = Dataset(features=[[0.5]], labels=[0.0])
        with pytest.raises(DataError, match="label"):
            validate_dataset(d)

    def test_norm_above_one(self):
        d = Dataset(features=[[1.0, 1.0]], labels=[1])
        with pytest.raises(DataError, match="norm"):
            validate_dataset(d)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_feature_names_row(self, bad):
        d = Dataset(features=[[0.1, 0.2], [0.3, bad], [5.0, 0.0]], labels=[1, -1, 1])
        with pytest.raises(DataError, match="non-finite feature value at row 1"):
            validate_dataset(d)

    def test_norm_slack_accepted(self):
        d = Dataset(features=[[1.0 + 0.5e-9, 0.0]], labels=[1])
        assert validate_dataset(d) is d

    def test_empty(self):
        with pytest.raises(DataError, match="empty"):
            validate_dataset(Dataset(features=np.zeros((0, 3)), labels=[]))


class TestNoiseDraw:
    def test_same_seed_bit_identical(self):
        a = NoiseDraw.generate(64, 1234)
        b = NoiseDraw.generate(64, 1234)
        assert np.array_equal(a.base_u, b.base_u)
        assert a == b

    def test_different_seeds_differ(self):
        a = NoiseDraw.generate(16, 1)
        b = NoiseDraw.generate(16, 2)
        assert not np.array_equal(a.base_u, b.base_u)

    def test_looks_standard_normal(self):
        u = NoiseDraw.generate(200_000, 99).base_u
        assert abs(u.mean()) < 0.01
        assert abs(u.std() - 1.0) < 0.01

    def test_immutable(self):
        a = NoiseDraw.generate(4, 0)
        with pytest.raises(ValueError):
            a.base_u[0] = 1.0


class TestDomainValidation:
    def test_budget_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            PrivacyBudget(epsilon=0.0, delta=0.1)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, 2.0])
    def test_budget_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError):
            PrivacyBudget(epsilon=1.0, delta=delta)

    def test_loss_spec_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            LossSpec(kind="hinge", zeta=1.0, lambda_hess=1.0, s_third=0.0)

    def test_loss_spec_rejects_bad_huber_h(self):
        with pytest.raises(ValueError, match="huber_h"):
            LossSpec(kind="huber_svm", zeta=1, lambda_hess=1, s_third=0, huber_h=0.0)

    def test_line_rejects_nonpositive_measure(self):
        with pytest.raises(ValueError):
            ExtrapolationLine(measure_eps=0.0, base_utility=0.5, slope=-0.1)


class TestDatasetStorage:
    def test_rows_match_arrays(self):
        d = Dataset(features=[[0.1, 0.2], [0.3, 0.4]], labels=[1, -1])
        assert d.n == 2
        assert d.p == 2
        assert d.labels[1] == -1
        assert np.array_equal(d.features[1], [0.3, 0.4])

    def test_features_read_only(self):
        d = Dataset(features=[[0.1]], labels=[1])
        with pytest.raises(ValueError):
            d.features[0, 0] = 9.0

    def test_subset_keeps_order(self):
        d = Dataset(features=[[0.1], [0.2], [0.3]], labels=[1, -1, 1])
        s = d.subset([2, 0])
        assert np.array_equal(s.features[:, 0], [0.3, 0.1])
        assert np.array_equal(s.labels, [1, 1])


class TestEquality:
    def model(self, **changes):
        fields = dict(
            theta=[0.5, -1.25], budget=PrivacyBudget(0.25, 1e-3), reg_lambda=0.01,
            noise=NoiseDraw(base_u=[0.1, -2.0], seed=7),
            loss=LossSpec(kind="logistic", zeta=1.0, lambda_hess=0.25, s_third=0.1),
            grad_norm_at_solution=3.2e-14, solver_mode="exact", iterations_used=12,
        )
        return PrivateModel(**{**fields, **changes})

    def test_models_differing_only_in_iterations_used(self):
        assert self.model() == self.model()
        assert self.model() != self.model(iterations_used=13)

    def test_arrays_compared_by_value(self):
        assert self.model(theta=np.array([0.5, -1.25])) == self.model()
        assert self.model() != self.model(theta=[0.5, -1.5])
        assert self.model() != self.model(noise=NoiseDraw(base_u=[0.1, -2.0], seed=8))
        assert Dataset([[0.1]], [1]) == Dataset([[0.1]], [1])
        assert Dataset([[0.1]], [1]) != Dataset([[0.1]], [-1])

    def test_other_types_not_equal(self):
        report = SensitivityReport(dtheta_deps=[0.5, -1.25], w_min_eigen_lower=1.0)
        assert report != self.model()
        assert report == SensitivityReport(dtheta_deps=[0.5, -1.25], w_min_eigen_lower=1.0)
        assert report != SensitivityReport(
            dtheta_deps=[0.5, -1.25], w_min_eigen_lower=1.0, damping_added=0.1
        )

    def test_unhashable(self):
        for obj in (self.model(), self.model().noise, Dataset([[0.1]], [1]),
                    SensitivityReport(dtheta_deps=[0.5], w_min_eigen_lower=1.0)):
            with pytest.raises(TypeError):
                hash(obj)
