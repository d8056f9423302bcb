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

    @pytest.mark.parametrize("feature, label", [(0.0, np.inf), (1e300, 1e10)])
    def test_invalid_label_that_breaks_the_fold(self, feature, label):
        """0 * inf and an overflow in the fold warn of nothing: the label is the error."""
        d = Dataset(features=[[feature]], labels=[label])
        with pytest.raises(DataError, match="^invalid label"):
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

    @pytest.mark.parametrize(
        "shape, labels", [((2, 3, 1), [1, -1]), ((2, 2, 2), [1, -1]), ((2, 3), [[1], [-1]])]
    )
    def test_shapes_are_checked_before_the_fold(self, shape, labels):
        with pytest.raises(DataError, match="^features must be a 2-d matrix and labels a vector$"):
            Dataset(np.full(shape, 0.1), labels)

    def test_rows_and_labels_must_agree(self):
        with pytest.raises(DataError, match=r"^feature rows \(3\) and labels \(2\) disagree$"):
            Dataset(np.zeros((3, 2)), np.ones(2))


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

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="p must be an integer >= 1"):
            NoiseDraw.generate(0, 1)

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

    @pytest.mark.parametrize("eps", [float("inf"), float("nan")])
    def test_budget_rejects_non_finite_epsilon(self, eps):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            PrivacyBudget(epsilon=eps, delta=0.1)

    def test_loss_spec_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            LossSpec(kind="hinge", zeta=1.0, lambda_hess=1.0, s_third=0.0)

    def test_loss_spec_rejects_bad_huber_h(self):
        with pytest.raises(ValueError, match="huber_h"):
            LossSpec(kind="huber_svm", zeta=1, lambda_hess=1, s_third=0, huber_h=0.0)

    @pytest.mark.parametrize("field", ["zeta", "lambda_hess", "s_third"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_loss_spec_rejects_non_finite_constants(self, field, value):
        constants = {"zeta": 1.0, "lambda_hess": 1.0, "s_third": 0.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be .*finite, got {value}$"):
            LossSpec(kind="logistic", **constants)

    @pytest.mark.parametrize("field, value, match", [
        ("solver_mode", "adam", "unknown solver mode 'adam'"),
        ("reg_lambda", -0.1, "reg_lambda must be nonnegative"),
        ("theta", np.zeros(3), r"^theta must be a vector of length 2, got shape \(3,\)$"),
    ])
    def test_model_rejects_bad_fields(self, field, value, match):
        fields = dict(
            theta=np.zeros(2), budget=PrivacyBudget(1.0, 0.1), reg_lambda=0.0,
            noise=NoiseDraw.generate(2, 0),
            loss=LossSpec(kind="logistic", zeta=1.0, lambda_hess=0.25, s_third=0.1),
            grad_norm_at_solution=0.0, solver_mode="exact", iterations_used=0,
        )
        PrivateModel(**fields)
        with pytest.raises(ValueError, match=match):
            PrivateModel(**{**fields, field: value})

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

    def test_callers_view_cannot_change_the_dataset(self):
        """A writable array is copied: before, the dataset adopted it and
        a view taken earlier could still write to it, under the cached
        X^T X / n that a quadratic hessian call serves."""
        from eps_planner import losses

        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 3)) / 10
        y = np.where(rng.standard_normal(50) > 0, 1.0, -1.0)
        view = X[:]
        d = Dataset(X, y)
        spec = LossSpec(kind="quadratic", zeta=2.0, lambda_hess=1.0, s_third=0.0)
        m = losses.margins(np.zeros(3), d)
        before = d.features.copy()
        losses.hessian(spec, m, d)
        view[0, 0] = 5.0
        assert X.flags.writeable and X[0, 0] == 5.0
        assert np.array_equal(d.features, before)
        assert np.array_equal(losses.hessian(spec, m, d), losses._mean_hessian(d, np.ones(d.n)))

    def test_read_only_arrays_are_adopted(self):
        X = np.array([[0.1, 0.2], [0.3, 0.4]])
        y = np.array([1.0, -1.0])
        X.setflags(write=False)
        y.setflags(write=False)
        d = Dataset(X, y)
        # the rows are X folded with y, a new array
        assert d.labels is y and not d.rows.flags.writeable
        s = d.subset([1])
        assert not s.rows.flags.writeable and not s.labels.flags.writeable

    def test_features_unfold_bit_for_bit(self, tmp_path):
        """Signed zeros, subnormals and NaN of either sign come back as
        they went in: on the dataset, on a subset, and through a csv
        round trip of the finite rows."""
        from eps_planner.data import load_dataset, write_csv_dataset

        X = np.array(
            [
                [0.0, -0.0, 0.5],
                [-0.0, 5e-324, -2.5e-310],
                [np.nan, -0.25, 0.0],
                [-np.nan, 1e-310, -0.0],
                [0.6, -0.0, -0.8],
            ]
        )
        y = np.array([1.0, -1.0, -1.0, 1.0, -1.0])

        def bits(a):
            return a.view(np.uint64)

        d = Dataset(X, y)
        assert np.array_equal(bits(d.features), bits(X))
        s = d.subset([4, 2, 1])
        assert np.array_equal(bits(s.features), bits(X[[4, 2, 1]]))
        finite = [0, 1, 4]
        path = str(tmp_path / "d.csv")
        write_csv_dataset(d.subset(finite), path)
        back = load_dataset(path)
        assert np.array_equal(bits(back.features), bits(X[finite]))
        assert np.array_equal(back.labels, y[finite])

    def test_converted_input_is_copied_once(self):
        """A float32 array is converted to a fresh float64 array, which
        nothing else holds, so it is not copied a second time."""
        import tracemalloc

        X = np.full((2000, 50), 0.01, dtype=np.float32)
        tracemalloc.start()
        try:
            d = Dataset(X, np.ones(2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * d.features.nbytes

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
        report = SensitivityReport(dtheta_deps=[0.5, -1.25])
        assert report != self.model()
        assert report == SensitivityReport(dtheta_deps=np.array([0.5, -1.25]))
        assert report != SensitivityReport(dtheta_deps=[0.5, -1.5])
        assert report != SensitivityReport(dtheta_deps=[0.5])

    def test_unhashable(self):
        for obj in (self.model(), self.model().noise, Dataset([[0.1]], [1]),
                    SensitivityReport(dtheta_deps=[0.5])):
            with pytest.raises(TypeError):
                hash(obj)
