import math

import numpy as np
import pytest

from eps_planner.losses import (
    aggregate,
    default_bounds,
    hessian,
    make_loss_spec,
    margin_curvatures,
    margin_slopes,
    margin_values,
    smooth_hinge,
)
from eps_planner.model import Dataset

LOG2 = math.log(2.0)

ALL_KINDS = ("logistic", "huber_svm", "quadratic", "smooth_hinge")


def spec_of(kind):
    return make_loss_spec(kind, p=3, mode="tight")


def one_row(x, y):
    return Dataset(features=[x], labels=[y])


def row_with_margin(margin):
    # unit feature along the first axis: margin equals theta[0]
    return one_row([1.0, 0.0, 0.0], 1), np.array([margin, 0.0, 0.0])


def value(spec, theta, d):
    return aggregate(spec, theta, d, with_hessian=False)[0]


def gradient(spec, theta, d):
    return aggregate(spec, theta, d, with_value=False, with_hessian=False)[1]


class TestLossValue:
    def test_logistic_at_zero_margin(self):
        d, theta = row_with_margin(0.0)
        assert value(spec_of("logistic"), theta, d) == pytest.approx(LOG2, rel=1e-12)

    def test_huber_flat_branch(self):
        d, theta = row_with_margin(1.2)
        assert value(spec_of("huber_svm"), theta, d) == 0.0

    def test_huber_middle_branch(self):
        # (1 + 0.1 - 1.0)^2 / (4 * 0.1)
        d, theta = row_with_margin(1.0)
        assert value(spec_of("huber_svm"), theta, d) == pytest.approx(0.025, rel=1e-12)

    def test_huber_linear_branch(self):
        d, theta = row_with_margin(0.5)
        assert value(spec_of("huber_svm"), theta, d) == pytest.approx(0.5, rel=1e-12)

    def test_logistic_extreme_margins_stay_finite(self):
        d, theta = row_with_margin(-800.0)
        assert value(spec_of("logistic"), theta, d) == pytest.approx(800.0, rel=1e-12)
        d, theta = row_with_margin(800.0)
        assert value(spec_of("logistic"), theta, d) == 0.0


class TestLossEval:
    """Gradient and curvature of one row; with the unit feature of
    row_with_margin the curvature l''(m) is the Hessian's [0, 0] entry."""

    def test_logistic_at_zero_margin(self):
        d, theta = row_with_margin(0.0)
        spec = spec_of("logistic")
        assert gradient(spec, theta, d)[0] == pytest.approx(-0.5, rel=1e-12)
        assert hessian(spec, theta, d)[0, 0] == pytest.approx(0.25, rel=1e-12)

    def test_quadratic_at_minimum(self):
        d, theta = row_with_margin(1.0)
        spec = spec_of("quadratic")
        assert np.allclose(gradient(spec, theta, d), 0.0)
        assert hessian(spec, theta, d)[0, 0] == 1.0

    def test_huber_linear_branch(self):
        d, theta = row_with_margin(0.5)
        spec = spec_of("huber_svm")
        assert gradient(spec, theta, d)[0] == pytest.approx(-1.0, rel=1e-12)
        assert hessian(spec, theta, d)[0, 0] == 0.0

    def test_grad_carries_label_and_features(self):
        spec = spec_of("logistic")
        d = one_row([0.0, 0.6, 0.0], -1)
        theta = np.array([0.0, 0.5, 0.0])
        margin = -0.3
        lprime = 1.0 / (1.0 + math.exp(-margin)) - 1.0
        assert gradient(spec, theta, d)[1] == pytest.approx(lprime * (-1) * 0.6, rel=1e-12)


class TestAggregate:
    def test_single_example_equals_per_example(self):
        """One row: l(m), l'(m) y x and l''(m) x x^T from the margin helpers."""
        spec = spec_of("logistic")
        x = np.array([0.3, -0.4, 0.5])
        d = one_row(x, -1)
        theta = np.array([0.2, 0.1, -0.7])
        m = np.array([-1.0 * float(x @ theta)])
        L, g, H = aggregate(spec, theta, d)
        assert L == pytest.approx(margin_values(spec, m)[0], rel=1e-12)
        np.testing.assert_allclose(g, margin_slopes(spec, m)[0] * -1.0 * x, rtol=1e-12)
        np.testing.assert_allclose(
            H, margin_curvatures(spec, m)[0] * np.outer(x, x), rtol=1e-12
        )

    def test_mean_of_identical_examples(self):
        spec = spec_of("quadratic")
        d = Dataset(features=[[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]], labels=[1, 1])
        theta = np.array([1.0, -1.0, 0.3])
        L, g, H = aggregate(spec, theta, d)
        L1, g1, H1 = aggregate(spec, theta, one_row([0.5, 0.5, 0.0], 1))
        assert L == pytest.approx(L1, rel=1e-12)
        np.testing.assert_allclose(g, g1, rtol=1e-12)

    def test_hessian_matches_finite_differences(self):
        """Entrywise central differences of the mean gradient, 1e-5 abs."""
        rng = np.random.default_rng(42)
        X = rng.standard_normal((50, 4))
        X /= np.linalg.norm(X, axis=1).max()
        y = np.where(rng.uniform(size=50) < 0.5, 1.0, -1.0)
        d = Dataset(X, y)
        spec = spec_of("logistic")
        theta = rng.standard_normal(4) * 0.5
        _, _, H = aggregate(spec, theta, d)
        h = 1e-5
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            _, gp, _ = aggregate(spec, theta + e, d)
            _, gm, _ = aggregate(spec, theta - e, d)
            np.testing.assert_allclose(H[:, j], (gp - gm) / (2 * h), atol=1e-5)

    def test_hessian_symmetric_psd(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 5))
        X /= np.linalg.norm(X, axis=1).max()
        y = np.where(rng.uniform(size=30) < 0.5, 1.0, -1.0)
        d = Dataset(X, y)
        for kind in ALL_KINDS:
            _, _, H = aggregate(spec_of(kind), rng.standard_normal(5), d)
            assert np.array_equal(H, H.T)
            assert np.linalg.eigvalsh(H).min() >= -1e-12

    def test_dimension_mismatch(self):
        d = Dataset(features=[[0.1, 0.2]], labels=[1])
        with pytest.raises(ValueError, match="length"):
            aggregate(spec_of("logistic"), np.zeros(3), d)
        with pytest.raises(ValueError, match="length"):
            hessian(spec_of("logistic"), np.zeros(3), d)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_partial_evaluations_equal_full_triple(self, kind):
        """Skipping the value or the Hessian leaves the other parts'
        bits unchanged; `hessian` alone gives the triple's Hessian."""
        rng = np.random.default_rng(8)
        X = rng.standard_normal((200, 6))
        X /= np.linalg.norm(X, axis=1).max()
        y = np.where(rng.uniform(size=200) < 0.5, 1.0, -1.0)
        d = Dataset(X, y)
        spec = spec_of(kind)
        for scale in (0.3, 3.0):
            theta = scale * rng.standard_normal(6)
            L, g, H = aggregate(spec, theta, d)
            L_vg, g_vg, H_vg = aggregate(spec, theta, d, with_hessian=False)
            L_g, g_g, H_g = aggregate(spec, theta, d, with_value=False, with_hessian=False)
            assert L_vg == L and H_vg is None
            assert L_g is None and H_g is None
            assert np.array_equal(g_vg, g) and np.array_equal(g_g, g)
            assert np.array_equal(hessian(spec, theta, d), H)


class TestDefaultBounds:
    def test_paper_mode_p104(self):
        zeta, lam, _ = default_bounds("logistic", 104, "paper")
        assert zeta == pytest.approx(20.396078054371138, rel=1e-12)
        assert lam == 104.0

    def test_tight_logistic(self):
        zeta, lam, s = default_bounds("logistic", 1, "tight")
        assert (zeta, lam) == (1.0, 0.25)
        assert s == 0.1

    def test_tight_huber(self):
        _, lam, s = default_bounds("huber_svm", 10, "tight", huber_h=0.1)
        assert lam == pytest.approx(5.0)
        assert s == 0.0

    def test_tight_quadratic_caller_zeta(self):
        zeta, lam, _ = default_bounds("quadratic", 4, "tight", quad_zeta=3.5)
        assert (zeta, lam) == (3.5, 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            default_bounds("hinge", 4, "tight")


class TestSmoothHinge:
    def test_at_exponent_zero(self):
        assert smooth_hinge(1.0, 1.0) == pytest.approx(LOG2, rel=1e-12)

    def test_approaches_hinge_flat_side(self):
        assert smooth_hinge(0.01, 2.0) < 1e-40

    def test_approaches_hinge_active_side(self):
        assert smooth_hinge(0.01, 0.0) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            smooth_hinge(0.0, 1.0)


def _sample_row(rng, kind, spec, p=4):
    """Random (theta, one-row dataset) with ||x|| <= 1; Huber margins kept
    >= 1e-3 away from the two curvature kinks."""
    while True:
        x = rng.standard_normal(p)
        x *= rng.uniform(0.3, 1.0) / np.linalg.norm(x)
        y = 1 if rng.uniform() < 0.5 else -1
        theta = rng.standard_normal(p)
        if kind == "huber_svm":
            m = y * float(x @ theta)
            h = spec.huber_h
            if min(abs(m - (1 - h)), abs(m - (1 + h))) < 1e-3:
                continue
        return np.asarray(theta), one_row(x, y)


class TestDerivativeProperties:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(7)
        spec = spec_of(kind)
        for _ in range(100):
            theta, d = _sample_row(rng, kind, spec)
            grad = gradient(spec, theta, d)
            h = 1e-6
            for j in range(len(theta)):
                e = np.zeros_like(theta)
                e[j] = h
                fd = (value(spec, theta + e, d) - value(spec, theta - e, d)) / (2 * h)
                assert fd == pytest.approx(grad[j], rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_hessian_matches_finite_differences(self, kind):
        rng = np.random.default_rng(8)
        spec = spec_of(kind)
        for _ in range(100):
            theta, d = _sample_row(rng, kind, spec)
            H = hessian(spec, theta, d)
            h = 1e-6
            for j in range(len(theta)):
                e = np.zeros_like(theta)
                e[j] = h
                gp = gradient(spec, theta + e, d)
                gm = gradient(spec, theta - e, d)
                np.testing.assert_allclose((gp - gm) / (2 * h), H[:, j], rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_tight_bounds_hold(self, kind):
        """||grad|| <= zeta and l''(m) * ||x||^2 <= lambda_hess under
        ||x|| <= 1 (theta kept in the unit ball for the quadratic case)."""
        rng = np.random.default_rng(9)
        spec = spec_of(kind)
        for _ in range(1000):
            x = rng.standard_normal(3)
            x *= rng.uniform(0.0, 1.0) / np.linalg.norm(x)
            y = 1 if rng.uniform() < 0.5 else -1
            theta = rng.standard_normal(3)
            theta *= rng.uniform(0.0, 1.0) / np.linalg.norm(theta)
            kappa = margin_curvatures(spec, np.array([y * float(x @ theta)]))[0]
            assert np.linalg.norm(gradient(spec, theta, one_row(x, y))) <= spec.zeta + 1e-12
            assert kappa * float(x @ x) <= spec.lambda_hess + 1e-12
            assert kappa >= 0.0
