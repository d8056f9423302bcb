import numpy as np
import pytest

from eps_planner.errors import DataError
from eps_planner.model import (
    Dataset,
    Example,
    ExtrapolationLine,
    LossSpec,
    NoiseDraw,
    PrivacyBudget,
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

    def test_dimension_mismatch(self):
        exs = [Example([0.1, 0.2, 0.3], 1), Example([0.1, 0.2, 0.3, 0.4], -1)]
        with pytest.raises(DataError, match="dimension mismatch"):
            Dataset.from_examples(exs)

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
            Dataset.from_examples([])


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
    def test_examples_view_matches_arrays(self):
        d = Dataset(features=[[0.1, 0.2], [0.3, 0.4]], labels=[1, -1])
        exs = d.examples
        assert len(exs) == d.n == 2
        assert d.p == 2
        assert exs[1].label == -1
        assert np.array_equal(exs[1].features, [0.3, 0.4])

    def test_features_read_only(self):
        d = Dataset(features=[[0.1]], labels=[1])
        with pytest.raises(ValueError):
            d.features[0, 0] = 9.0

    def test_subset_keeps_order(self):
        d = Dataset(features=[[0.1], [0.2], [0.3]], labels=[1, -1, 1])
        s = d.subset([2, 0])
        assert np.array_equal(s.features[:, 0], [0.3, 0.1])
        assert np.array_equal(s.labels, [1, 1])
