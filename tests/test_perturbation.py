import math

import numpy as np
import pytest

from eps_planner.model import NoiseDraw
from eps_planner.perturbation import (
    PerturbationAtEps,
    delta_coeff,
    delta_coeff_prime,
    materialize,
    noise_sigma,
    noise_sigma_prime,
)

LN20 = math.log(20.0)

# frozen from direct evaluation of the calibration formulas at
# (zeta=1, delta=0.1, eps): sigma = sqrt(8 ln 20 + 4 eps) / eps
SIGMA_1 = 5.288275540138952
SIGMA_2 = 2.8269178529111847
SIGMA_PRIME_1 = -4.9100804206109245


class TestDeltaCoeff:
    def test_direct_substitution(self):
        assert delta_coeff(1.0, 2.0) == 1.0

    def test_paper_scale(self):
        assert delta_coeff(104.0, 1.0) == 208.0

    def test_vanishes_for_large_eps(self):
        assert delta_coeff(1.0, 1e6) == pytest.approx(2e-6, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            delta_coeff(0.0, 1.0)
        with pytest.raises(ValueError):
            delta_coeff(1.0, 0.0)


class TestDeltaCoeffPrime:
    def test_analytic_values(self):
        assert delta_coeff_prime(1.0, 1.0) == -2.0
        assert delta_coeff_prime(1.0, 2.0) == -0.5

    def test_matches_finite_difference(self):
        h = 1e-6
        fd = (delta_coeff(3.0, 0.7 + h) - delta_coeff(3.0, 0.7 - h)) / (2 * h)
        assert delta_coeff_prime(3.0, 0.7) == pytest.approx(fd, rel=1e-8)


class TestNoiseSigma:
    def test_frozen_value_eps1(self):
        assert noise_sigma(1.0, 0.1, 1.0) == pytest.approx(SIGMA_1, rel=1e-15)
        assert noise_sigma(1.0, 0.1, 1.0) ** 2 == pytest.approx(8 * LN20 + 4, rel=1e-14)

    def test_linear_in_zeta(self):
        assert noise_sigma(2.0, 0.1, 1.0) == 2.0 * noise_sigma(1.0, 0.1, 1.0)

    def test_frozen_value_eps2(self):
        assert noise_sigma(1.0, 0.1, 2.0) == pytest.approx(SIGMA_2, rel=1e-15)

    def test_strictly_decreasing_in_eps(self):
        eps = np.linspace(0.01, 10, 200)
        vals = [noise_sigma(1.0, 0.1, e) for e in eps]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_validation(self):
        for bad in ((0, 0.1, 1), (1, 0, 1), (1, 1.0, 1), (1, 0.1, 0)):
            with pytest.raises(ValueError):
                noise_sigma(*bad)


class TestNoiseSigmaPrime:
    def test_negative_on_grid(self):
        for delta in (1e-6, 1e-4, 1e-2, 0.1, 0.5):
            for eps in (0.01, 0.25, 1.0, 10.0):
                assert noise_sigma_prime(1.3, delta, eps) < 0.0

    def test_matches_finite_difference(self):
        h = 1e-6
        fd = (noise_sigma(1.0, 0.1, 1.0 + h) - noise_sigma(1.0, 0.1, 1.0 - h)) / (2 * h)
        assert noise_sigma_prime(1.0, 0.1, 1.0) == pytest.approx(fd, rel=1e-6)

    def test_magnitude_is_printed_coefficient(self):
        # (4 ln 20 + 1) / sqrt(2 ln 20 + 1), the published magnitude
        coeff = (4 * LN20 + 1.0) / math.sqrt(2 * LN20 + 1.0)
        assert abs(noise_sigma_prime(1.0, 0.1, 1.0)) == pytest.approx(coeff, rel=1e-15)
        assert noise_sigma_prime(1.0, 0.1, 1.0) == pytest.approx(SIGMA_PRIME_1, rel=1e-15)


class TestMaterialize:
    def test_zero_base_vector(self):
        nd = NoiseDraw(base_u=np.zeros(4), seed=0)
        for eps in (0.1, 1.0, 7.0):
            pert = materialize(nd, 1.0, 0.1, eps, 1.0)
            assert np.all(pert.b == 0.0)
            assert np.all(pert.b_prime == 0.0)

    def test_single_coordinate_composition(self):
        nd = NoiseDraw(base_u=np.ones(1), seed=0)
        pert = materialize(nd, 1.0, 0.1, 1.0, 1.0)
        assert pert.b[0] == pytest.approx(SIGMA_1, rel=1e-15)
        assert pert.b_prime[0] == pytest.approx(SIGMA_PRIME_1, rel=1e-15)

    def test_scaling_identities_bit_exact(self):
        """b and b_prime are single multiplications of the stored base
        vector; recomputing the products reproduces them bit for bit."""
        nd = NoiseDraw.generate(257, 5)
        for eps in (0.5, 2.0):
            pert = materialize(nd, 1.7, 0.05, eps, 3.0)
            assert np.array_equal(pert.b, pert.sigma * nd.base_u)
            assert np.array_equal(pert.b_prime, pert.sigma_prime * nd.base_u)

    def test_shared_base_across_eps_bit_exact(self):
        """The reparameterization contract: materializations at different
        eps from one draw ride the same base vector exactly. (Checked via
        the stored base, not floating division, which can lose an ulp.)"""
        nd = NoiseDraw.generate(100, 21)
        p1 = materialize(nd, 1.0, 0.1, 0.5, 1.0)
        p2 = materialize(nd, 1.0, 0.1, 2.0, 1.0)
        assert np.array_equal(p1.base_u, p2.base_u)
        assert np.array_equal(p1.b, p1.sigma * p2.base_u)
        assert np.array_equal(p2.b, p2.sigma * p1.base_u)

    def test_coefficients_negative(self):
        nd = NoiseDraw.generate(3, 1)
        for eps in (0.05, 0.5, 5.0):
            pert = materialize(nd, 2.0, 1e-3, eps, 4.0)
            assert pert.sigma_prime < 0.0
            assert pert.delta_eps_prime < 0.0


class TestPerturbationArrays:
    def test_caller_arrays_are_copied_not_frozen(self):
        """A view of the caller's array taken before construction cannot
        write through to the perturbation, and the caller's array stays
        writeable."""
        b = np.ones(3)
        view = b[:]
        pert = PerturbationAtEps(1.0, 1.0, -1.0, 1.0, -1.0, b, b.copy(), b.copy())
        view[0] = 7.0
        np.testing.assert_array_equal(pert.b, np.ones(3))
        assert b.flags.writeable
        assert not pert.b.flags.writeable

    def test_materialized_arrays_are_read_only(self):
        pert = materialize(NoiseDraw.generate(4, 2), 1.0, 0.1, 0.5, 1.0)
        for a in (pert.b, pert.b_prime, pert.base_u):
            assert not a.flags.writeable


class TestDistributionalSanity:
    def test_variance_across_seeds(self):
        """Sample variance of each b coordinate over 10,000 fresh seeds
        within 5% of sigma^2 at (zeta=1, delta=0.1, eps=1)."""
        p = 3
        b = np.empty((10_000, p))
        for s in range(10_000):
            pert = materialize(NoiseDraw.generate(p, s), 1.0, 0.1, 1.0, 1.0)
            b[s] = pert.b
        var = b.var(axis=0, ddof=1)
        target = noise_sigma(1.0, 0.1, 1.0) ** 2
        assert np.all(np.abs(var / target - 1.0) <= 0.05)
