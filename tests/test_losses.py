import dataclasses
import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from eps_planner import losses
from eps_planner.data import gen_synthetic
from eps_planner.losses import (
    aggregate,
    hessian,
    make_loss_spec,
    margin_curvatures,
    margin_slopes,
    margin_values,
    margins,
)
from eps_planner.model import Dataset, LossSpec

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
    return aggregate(spec, margins(theta, d), d)[0]


def gradient(spec, theta, d):
    return aggregate(spec, margins(theta, d), d)[1]


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

    @pytest.mark.parametrize("h", [1e150, 1e155, 1e300])
    def test_huber_band_at_huge_h_does_not_overflow(self, h):
        """Inside the band the value is at most h, though its square
        (1 + h - m)^2 would overflow: no warning, and the value is finite."""
        spec = LossSpec(kind="huber_svm", zeta=1.0, lambda_hess=1.0, s_third=0.0, huber_h=h)
        m = np.array([1.0 - h, 0.0, 1.0, 1.0 + h])
        values = margin_values(spec, m)
        assert values == pytest.approx([h, h / 4.0, h / 4.0, 0.0], rel=1e-12)

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
        assert hessian(spec, margins(theta, d), d)[0, 0] == pytest.approx(0.25, rel=1e-12)

    def test_quadratic_at_minimum(self):
        d, theta = row_with_margin(1.0)
        spec = spec_of("quadratic")
        assert np.allclose(gradient(spec, theta, d), 0.0)
        assert hessian(spec, margins(theta, d), d)[0, 0] == 1.0

    def test_huber_linear_branch(self):
        d, theta = row_with_margin(0.5)
        spec = spec_of("huber_svm")
        assert gradient(spec, theta, d)[0] == pytest.approx(-1.0, rel=1e-12)
        assert hessian(spec, margins(theta, d), d)[0, 0] == 0.0

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
        L, g = aggregate(spec, margins(theta, d), d)
        H = hessian(spec, margins(theta, d), d)
        assert L == pytest.approx(margin_values(spec, m)[0], rel=1e-12)
        np.testing.assert_allclose(g, margin_slopes(spec, m)[0] * -1.0 * x, rtol=1e-12)
        np.testing.assert_allclose(
            H, margin_curvatures(spec, m)[0] * np.outer(x, x), rtol=1e-12
        )

    def test_mean_of_identical_examples(self):
        spec = spec_of("quadratic")
        d = Dataset(features=[[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]], labels=[1, 1])
        theta = np.array([1.0, -1.0, 0.3])
        L, g = aggregate(spec, margins(theta, d), d)
        d1 = one_row([0.5, 0.5, 0.0], 1)
        L1, g1 = aggregate(spec, margins(theta, d1), d1)
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
        H = hessian(spec, margins(theta, d), d)
        h = 1e-5
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            gp = gradient(spec, theta + e, d)
            gm = gradient(spec, theta - e, d)
            np.testing.assert_allclose(H[:, j], (gp - gm) / (2 * h), atol=1e-5)

    def test_hessian_symmetric_psd(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 5))
        X /= np.linalg.norm(X, axis=1).max()
        y = np.where(rng.uniform(size=30) < 0.5, 1.0, -1.0)
        d = Dataset(X, y)
        for kind in ALL_KINDS:
            H = hessian(spec_of(kind), margins(rng.standard_normal(5), d), d)
            assert np.array_equal(H, H.T)
            assert np.linalg.eigvalsh(H).min() >= -1e-12

    def test_dimension_mismatch(self):
        d = Dataset(features=[[0.1, 0.2]], labels=[1])
        with pytest.raises(ValueError, match="theta has length 3, dataset has p=2"):
            margins(np.zeros(3), d)

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros(6), np.zeros((5, 1)), np.zeros(0)])
    def test_margins_length_must_be_n(self, bad):
        """aggregate and hessian take the margins vector of length n; a
        theta of length p, or any other length or shape, is refused."""
        d = gen_synthetic(5, 3, 1.0, 0)
        for fn in (aggregate, hessian):
            with pytest.raises(ValueError, match="expected length n=5"):
                fn(spec_of("logistic"), bad, d)


def _sigmoid_ld(z):
    """sigmoid in long double, from e^{-|z|} so neither tail overflows."""
    z = np.asarray(z, dtype=np.longdouble)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1, e) / (1 + e)


TAIL_MARGINS = np.array([s * m for m in (0.0, 1.0, 37.0, 40.0, 800.0, 1e4) for s in (1, -1)])


class TestSigmoidKernels:
    """Logistic and smooth_hinge slopes and curvatures stay within 2 ulp
    of a long-double evaluation out to the tails, and never warn."""

    @pytest.mark.parametrize("kind", ("logistic", "smooth_hinge"))
    def test_within_two_ulp_of_long_double(self, kind):
        spec = spec_of(kind)
        m = TAIL_MARGINS
        if kind == "logistic":
            z, scale = -m, 1
        else:  # the same float64 argument the kernel forms
            z, scale = (1.0 - m) / spec.smooth_t, np.longdouble(spec.smooth_t)
        want_slope = -_sigmoid_ld(z)
        want_curv = _sigmoid_ld(z) * _sigmoid_ld(-z) / scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slope = margin_slopes(spec, m)
            curv = margin_curvatures(spec, m)
        for got, want in ((slope, want_slope), (curv, want_curv)):
            ulp = np.spacing(np.abs(want.astype(np.float64)))
            assert np.all(np.abs(got - want) <= 2 * ulp), (got, want)


class TestLogisticSlopeBits:
    """The logistic slope is -sigmoid(-m) formed as -1/(1 + e^m), bit for
    bit, with e^m's overflow to inf giving -0 quietly."""

    MARGINS = np.concatenate(
        [
            np.random.default_rng(0).standard_normal(200_000) * 10.0,
            [s * v for v in (0.0, 5e-324, 1e-300, 745.2, 800.0, np.inf) for s in (1.0, -1.0)],
        ]
    )

    def test_equals_negated_sigmoid_bitwise(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = margin_slopes(spec_of("logistic"), self.MARGINS)
            with np.errstate(over="ignore"):
                want = -1 / (1 + np.exp(self.MARGINS))
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_nan_margin_gives_nan(self):
        got = margin_slopes(spec_of("logistic"), np.array([np.nan, 0.0]))
        assert np.isnan(got[0]) and got[1] == -0.5


class TestSlopeKernels:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("shape", [(1000,), (200, 5)])
    def test_out_may_be_the_margins(self, kind, shape):
        """Slopes written over their own margins, as the sgd step writes
        them, have the bits of slopes into a new array, and the margins
        passed without `out` are left as they were."""
        spec = spec_of(kind)
        m = 3.0 * np.random.default_rng(4).standard_normal(shape)
        m.flat[:4] = (1.0 - spec.huber_h, 1.0 + spec.huber_h, -800.0, 800.0)
        kept = m.copy()
        want = margin_slopes(spec, m)
        buf = m.copy()
        got = margin_slopes(spec, buf, out=buf)
        assert got is buf
        assert got.tobytes() == want.tobytes()
        assert m.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("kind", ("logistic", "smooth_hinge"))
    def test_random_margins_within_three_ulp_of_long_double(self, kind):
        """600k margins whose exponent u, as the kernel forms it, lies in
        |u| <= 709.7, where e^u is finite."""
        spec = spec_of(kind)
        rng = np.random.default_rng(11)
        u = np.concatenate(
            [10.0 * rng.standard_normal(300_000), rng.uniform(-709.7, 709.7, 300_000)]
        )
        if kind == "logistic":
            m = z = u
        else:  # the same float64 argument the kernel forms
            m = 1.0 + spec.smooth_t * u
            z = (m - 1.0) / spec.smooth_t
        keep = np.abs(z) <= 709.7
        m, z = m[keep], z[keep]
        assert m.size > 590_000
        want = -_sigmoid_ld(-z)
        got = margin_slopes(spec, m)
        ulp = np.spacing(np.abs(want.astype(np.float64)))
        assert np.all(np.abs(got - want) <= 3 * ulp)

    def test_huber_nan_margin_gives_nan(self):
        got = margin_slopes(spec_of("huber_svm"), np.array([np.nan, 0.0, 2.0]))
        assert np.isnan(got[0]) and got[1] == -1.0 and got[2] == 0.0


def single_product_hessian(spec, theta, d):
    """The Hessian as one product over all rows, symmetrised."""
    k = margin_curvatures(spec, d.labels * (d.features @ theta))
    H = (d.features * k[:, None]).T @ d.features / d.n
    return 0.5 * (H + H.T)


def spread_theta(p):
    # margins spread over [-5, 5], so huber_svm has rows in and out of its band
    rng = np.random.default_rng(3)
    return 5.0 * rng.standard_normal(p) / math.sqrt(p)


class TestBlockedHessian:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_many_blocks_match_single_product(self, kind, monkeypatch):
        """7-row blocks over 103 rows: 14 full blocks and a partial one."""
        d = gen_synthetic(103, 5, 1.0, 2)
        monkeypatch.setattr(losses, "HESSIAN_BLOCK_BYTES", 7 * 8 * d.p)
        spec = make_loss_spec(kind, d.p, mode="tight")
        theta = spread_theta(d.p)
        if kind == "huber_svm":  # rows in and out of the band: blocks drop some
            k = margin_curvatures(spec, d.labels * (d.features @ theta))
            assert 0 < np.count_nonzero(k) < d.n
        H = hessian(spec, margins(theta, d), d)
        ref = single_product_hessian(spec, theta, d)
        assert np.abs(H - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("block_rows", (7, None))
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_exactly_symmetric_and_accurate(self, kind, block_rows, monkeypatch):
        """7-row blocks or one block: H equals H.T bit for bit and matches
        a long-double single product to 1e-14."""
        d = gen_synthetic(103, 5, 1.0, 2)
        if block_rows is None:
            assert d.features.nbytes <= losses.HESSIAN_BLOCK_BYTES
        else:
            monkeypatch.setattr(losses, "HESSIAN_BLOCK_BYTES", block_rows * 8 * d.p)
        spec = make_loss_spec(kind, d.p, mode="tight")
        theta = spread_theta(d.p)
        H = hessian(spec, margins(theta, d), d)
        np.testing.assert_array_equal(H, H.T)
        k = margin_curvatures(spec, d.labels * (d.features @ theta)).astype(np.longdouble)
        X = d.features.astype(np.longdouble)
        ref = (X * k[:, None]).T @ X / d.n
        assert np.abs(H - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_huber_at_zero_theta_is_zero_matrix(self):
        """Every margin is 0, outside the band: no row is multiplied."""
        d = gen_synthetic(300, 4, 1.5, 7)
        spec = make_loss_spec("huber_svm", d.p, mode="tight")
        np.testing.assert_array_equal(hessian(spec, margins(np.zeros(d.p), d), d), np.zeros((4, 4)))

    @pytest.mark.parametrize("block_rows", (7, 1000))
    def test_nan_curvature_gives_non_finite_hessian(self, block_rows, monkeypatch):
        X = gen_synthetic(103, 5, 1.0, 2).features.copy()
        X[50, 1] = np.nan
        d = Dataset(X, np.ones(103))
        monkeypatch.setattr(losses, "HESSIAN_BLOCK_BYTES", block_rows * 8 * d.p)
        spec = make_loss_spec("logistic", d.p, mode="tight")
        H = hessian(spec, margins(spread_theta(d.p), d), d)
        assert not np.isfinite(H).all()

    def test_extra_memory_is_a_fraction_of_the_features(self):
        """One product over all rows copied X: a peak of 7.85 MiB on 7.63 MiB of features."""
        d = gen_synthetic(20000, 50, 2.0, 1)
        spec = make_loss_spec("logistic", d.p, mode="tight")
        m = margins(np.zeros(d.p), d)
        tracemalloc.start()
        try:
            hessian(spec, m, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d.features.nbytes / 4


class TestFoldedRows:
    """The dataset's label-folded rows give the bits of the formulas on
    features X and labels y: y * (X theta), X^T (l' * y) / n, and the
    Hessians of a dataset whose rows are X."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_equal_the_formulas_on_features_and_labels(self, kind):
        X = gen_synthetic(300, 6, 1.0, 3).features.copy()
        X[:2] = [[0.0, -0.0, 5e-324, -2.5e-310, 0.5, -0.5], [-0.0, 0.0, 0.0, -0.0, 1e-310, 0.0]]
        y = np.where(np.random.default_rng(5).random(300) < 0.5, 1.0, -1.0)
        d, unfolded = Dataset(X, y), Dataset(X, np.ones(300))
        spec = make_loss_spec(kind, d.p, mode="tight")
        for theta in (np.zeros(d.p), spread_theta(d.p)):
            m = margins(theta, d)
            np.testing.assert_array_equal(m, y * (X @ theta))
            L, grad = aggregate(spec, m, d)
            assert L == float(margin_values(spec, m).mean())
            np.testing.assert_array_equal(grad, X.T @ (margin_slopes(spec, m) * y) / d.n)
            np.testing.assert_array_equal(hessian(spec, m, d), hessian(spec, m, unfolded))


def gram_data():
    """3000 x 60: three Hessian row blocks of 1092 rows at the default size."""
    d = gen_synthetic(3000, 60, 2.0, 1)
    assert losses.HESSIAN_BLOCK_BYTES // (8 * d.p) == 1092
    return d


class TestGramPath:
    """Constant curvature c > 0 is served as c * X^T X / n from a cache."""

    @pytest.mark.parametrize("kind, c", [("quadratic", 1.0), ("logistic", 0.25)])
    def test_power_of_four_curvature_is_bit_identical(self, kind, c):
        d = gram_data()
        spec = make_loss_spec(kind, d.p, mode="tight")
        theta = spread_theta(d.p) if kind == "quadratic" else np.zeros(d.p)
        m = margins(theta, d)
        assert (margin_curvatures(spec, m) == c).all()
        H = hessian(spec, m, d)
        np.testing.assert_array_equal(H, losses._mean_hessian(d, np.full(d.n, c)))
        np.testing.assert_array_equal(H, hessian(spec, m, d))

    def test_smooth_hinge_at_zero_matches_blocked_build(self):
        """sigma'(10)/0.1 is no power of four: the product rounds apart."""
        d = gram_data()
        spec = make_loss_spec("smooth_hinge", d.p, mode="tight")
        m = margins(np.zeros(d.p), d)
        ref = losses._mean_hessian(d, margin_curvatures(spec, m))
        H = hessian(spec, m, d)
        np.testing.assert_array_equal(H, H.T)
        assert np.abs(H - ref).max() <= 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("kind", ["logistic", "quadratic"])
    def test_nan_feature_gives_non_finite_hessian(self, kind):
        """A NaN curvature (logistic) takes the blocked build; quadratic's
        curvature is 1 even there, and the NaN reaches it through G."""
        X = gram_data().features.copy()
        X[1500, 7] = np.nan
        d = Dataset(X, np.ones(len(X)))
        spec = make_loss_spec(kind, d.p, mode="tight")
        assert not np.isfinite(hessian(spec, margins(np.zeros(d.p), d), d)).all()

    def test_all_nan_curvatures_are_not_constant(self):
        """NaN equals no value, so every-NaN curvature takes the blocked build."""
        spec = make_loss_spec("logistic", 60, mode="tight")
        assert not np.isfinite(hessian(spec, np.full(3000, np.nan), gram_data())).all()

    def test_gram_is_built_once_and_read_only(self, blocked_builds):
        d = gram_data()
        zero = margins(np.zeros(d.p), d)
        for kind in ("quadratic", "logistic", "quadratic", "smooth_hinge"):
            hessian(make_loss_spec(kind, d.p, mode="tight"), zero, d)
        assert len(blocked_builds) == 1
        G = losses._gram(d)
        assert G is losses._gram(d) and len(blocked_builds) == 1
        assert not G.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            G[0, 0] = 1.0
        # zero curvature (huber_svm at theta = 0) and varying curvature
        # take the blocked build
        hessian(make_loss_spec("huber_svm", d.p, mode="tight"), zero, d)
        hessian(make_loss_spec("logistic", d.p, mode="tight"), margins(spread_theta(d.p), d), d)
        assert len(blocked_builds) == 3

    def test_threads_racing_to_fill_the_cache_get_the_same_bits(self):
        d, ref = gram_data(), losses._mean_hessian(gram_data(), np.full(3000, 0.25))
        spec = make_loss_spec("logistic", d.p, mode="tight")
        zero = margins(np.zeros(d.p), d)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda: results.append(hessian(spec, zero, d)))
                for _ in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8
        for H in results:
            np.testing.assert_array_equal(H, ref)
        np.testing.assert_array_equal(0.25 * losses._gram(d), ref)

    def test_dataset_fields_equality_and_repr_ignore_the_cache(self, blocked_builds):
        d = gram_data()
        twin = Dataset(d.features.copy(), d.labels.copy())
        before = repr(d)
        losses._gram(d)
        assert [f.name for f in dataclasses.fields(d)] == ["rows", "labels"]
        assert repr(d) == before
        assert d == twin and twin == d
        sub = d.subset(range(100))
        assert "_gram" not in vars(sub)
        losses._gram(sub)
        assert len(blocked_builds) == 2


class TestDefaultBounds:
    """The bound constants make_loss_spec fills in."""

    def test_paper_mode_p104(self):
        spec = make_loss_spec("logistic", 104, "paper")
        assert spec.zeta == pytest.approx(20.396078054371138, rel=1e-12)
        assert spec.lambda_hess == 104.0

    def test_tight_logistic(self):
        spec = make_loss_spec("logistic", 1, "tight")
        assert (spec.zeta, spec.lambda_hess) == (1.0, 0.25)
        assert spec.s_third == 0.1

    def test_tight_huber(self):
        spec = make_loss_spec("huber_svm", 10, "tight", huber_h=0.1)
        assert spec.lambda_hess == pytest.approx(5.0)
        assert spec.s_third == 0.0

    def test_tight_quadratic(self):
        # zeta = 2 bounds the gradient whenever ||theta|| <= 1
        spec = make_loss_spec("quadratic", 4, "tight")
        assert (spec.zeta, spec.lambda_hess, spec.s_third) == (2.0, 1.0, 0.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            make_loss_spec("hinge", 4, "tight")

    @pytest.mark.parametrize("mode", ["paper", "tight"])
    @pytest.mark.parametrize("kind,shape,value", [
        ("smooth_hinge", "smooth_t", 0.0),
        ("smooth_hinge", "smooth_t", -1.0),
        ("huber_svm", "huber_h", 0.0),
    ])
    def test_nonpositive_shape_is_value_error(self, mode, kind, shape, value):
        with pytest.raises(ValueError, match=f"{shape} must be positive"):
            make_loss_spec(kind, 4, mode, **{shape: value})


    @pytest.mark.parametrize("mode", ["paper", "tight"])
    @pytest.mark.parametrize("t", [1e-170, 5e-324, 1e155, 1e300])
    def test_smooth_t_out_of_float_range_is_value_error(self, mode, t):
        """smooth_t**2 rounds to 0 below about 1e-162 and overflows above
        about 1.3e154; either way s_third leaves the float range, and the
        error names smooth_t."""
        with pytest.raises(ValueError, match="^" + re.escape(f"smooth_t={t!r} is too extreme: ")):
            make_loss_spec("smooth_hinge", 4, mode, smooth_t=t)

    @pytest.mark.parametrize("h", [1e-320, 5e-324, 1e308])
    def test_huber_h_out_of_float_range_is_value_error(self, h):
        """In tight mode lambda_hess = 1/(2h) is inf or 0 at these h."""
        with pytest.raises(ValueError, match="^" + re.escape(f"huber_h={h!r} is too extreme: ")):
            make_loss_spec("huber_svm", 4, "tight", huber_h=h)

    @pytest.mark.parametrize("kind, shape, value", [
        ("smooth_hinge", "smooth_t", 1e-150),
        ("smooth_hinge", "smooth_t", 1e150),
        ("huber_svm", "huber_h", 1e-300),
        ("huber_svm", "huber_h", 1e300),
    ])
    def test_extreme_finite_constants_keep_their_formulas(self, kind, shape, value):
        spec = make_loss_spec(kind, 4, "tight", **{shape: value})
        if kind == "smooth_hinge":
            assert (spec.s_third, spec.lambda_hess) == (
                losses._LOGISTIC_THIRD / value**2, 1.0 / (4.0 * value)
            )
        else:
            assert spec.lambda_hess == 1.0 / (2.0 * value)


def smooth_hinge_value(t, margin):
    """t * log(1 + e^{(1-margin)/t}) at one margin, via margin_values."""
    spec = LossSpec(kind="smooth_hinge", zeta=1.0, lambda_hess=1.0, s_third=0.0, smooth_t=t)
    return float(margin_values(spec, np.array([margin]))[0])


class TestSmoothHinge:
    def test_at_exponent_zero(self):
        assert smooth_hinge_value(1.0, 1.0) == pytest.approx(LOG2, rel=1e-12)

    def test_approaches_hinge_flat_side(self):
        assert smooth_hinge_value(0.01, 2.0) < 1e-40

    def test_approaches_hinge_active_side(self):
        assert smooth_hinge_value(0.01, 0.0) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError, match="smooth_t must be positive"):
            smooth_hinge_value(0.0, 1.0)


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
            H = hessian(spec, margins(theta, d), d)
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
