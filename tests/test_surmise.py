"""Closed-form reference densities."""

import math

import numpy as np
import pytest
from scipy import integrate

from spacing_lab import ArgumentError, UnsupportedError
from spacing_lab.surmise import (
    gaussian_class_coefficients,
    p1_spacing1_approx,
    poisson_p,
    solve_ansatz,
    wigner_surmise,
)
from spacing_lab import painleve


class TestPoisson:
    def test_value_at_origin(self):
        assert poisson_p(0, 0.0) == 1.0
        assert poisson_p(3, 0.0) == 0.0

    def test_ladder_sums_to_one(self):
        total = sum(poisson_p(n, 2.0) for n in range(51))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("s", [0.3, 1.0, 4.5])
    def test_ladder_sums_to_one_for_any_s(self, s):
        total = sum(poisson_p(n, s) for n in range(80))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_closed_form(self):
        assert poisson_p(2, 1.5) == pytest.approx(
            1.5 ** 2 * math.exp(-1.5) / 2.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ArgumentError):
            poisson_p(-1, 1.0)
        for s in (-1.0, math.nan, math.inf):
            with pytest.raises(ArgumentError):
                poisson_p(1, s)


class TestPowerLawAnsatz:
    def test_beta_zero_is_exponential(self):
        coeffs = solve_ansatz(0.0)
        for s in (0.0, 0.5, 2.0):
            assert coeffs.density(s) == pytest.approx(math.exp(-s), rel=1e-12)

    def test_beta_one_is_classic_surmise(self):
        coeffs = solve_ansatz(1.0)
        for s in (0.2, 1.0, 2.5):
            expected = (math.pi / 2.0) * s * math.exp(-math.pi * s * s / 4.0)
            assert coeffs.density(s) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.7, 1.0, 2.0, 3.3])
    def test_unit_mass_and_mean(self, beta):
        coeffs = solve_ansatz(beta)
        mass, _ = integrate.quad(coeffs.density, 0.0, np.inf)
        mean, _ = integrate.quad(lambda s: s * coeffs.density(s), 0.0, np.inf)
        assert mass == pytest.approx(1.0, abs=1e-10)
        assert mean == pytest.approx(1.0, abs=1e-10)

    def test_beta_domain(self):
        with pytest.raises(ArgumentError):
            solve_ansatz(-1.0)

    def test_s_domain(self):
        for s in (-1.0, math.nan, math.inf):
            with pytest.raises(ArgumentError):
                solve_ansatz(1.0).density(s)


class TestGaussianClass:
    def test_beta_two_coefficients(self):
        c1, c2 = gaussian_class_coefficients(2.0)
        assert c1 == pytest.approx(32.0 / math.pi ** 2, rel=1e-12)
        assert c2 == pytest.approx(4.0 / math.pi, rel=1e-12)

    def test_beta_four_coefficients(self):
        c1, c2 = gaussian_class_coefficients(4.0)
        assert c1 == pytest.approx(2.0 ** 18 / (3.0 ** 6 * math.pi ** 3),
                                   rel=1e-12)
        assert c2 == pytest.approx(64.0 / (9.0 * math.pi), rel=1e-12)

    def test_families_coincide_at_beta_one(self):
        c1, c2 = gaussian_class_coefficients(1.0)
        coeffs = solve_ansatz(1.0)
        assert c1 == pytest.approx(coeffs.c1, rel=1e-12)
        # the power-law family divides its rate by beta + 1
        assert c2 == pytest.approx(coeffs.c2 / 2.0, rel=1e-12)


class TestWignerSurmise:
    def test_beta_one_closed_form(self):
        s = 1.0
        assert wigner_surmise(1, s) == pytest.approx(
            (math.pi / 2.0) * math.exp(-math.pi / 4.0), rel=1e-14)

    def test_peak_location(self):
        peak = math.sqrt(2.0 / math.pi)
        h = 1e-7
        derivative = (wigner_surmise(1, peak + h)
                      - wigner_surmise(1, peak - h)) / (2.0 * h)
        assert abs(derivative) <= 1e-6

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_unit_mass_and_mean(self, beta):
        mass, _ = integrate.quad(lambda s: wigner_surmise(beta, s), 0.0, np.inf)
        mean, _ = integrate.quad(lambda s: s * wigner_surmise(beta, s),
                                 0.0, np.inf)
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert mean == pytest.approx(1.0, abs=1e-12)

    def test_unsupported_beta(self):
        with pytest.raises(UnsupportedError):
            wigner_surmise(3, 1.0)


class TestNextNearestApprox:
    def test_vanishes_at_origin(self):
        assert p1_spacing1_approx(0.0) == 0.0

    def test_unit_mass_mean_two(self):
        mass, _ = integrate.quad(p1_spacing1_approx, 0.0, np.inf)
        mean, _ = integrate.quad(lambda s: s * p1_spacing1_approx(s),
                                 0.0, np.inf)
        assert mass == pytest.approx(1.0, abs=1e-10)
        assert mean == pytest.approx(2.0, abs=1e-10)

    def test_is_half_of_scaled_beta_four(self):
        for s in (0.5, 1.7, 3.0):
            assert p1_spacing1_approx(s) == pytest.approx(
                0.5 * wigner_surmise(4, s / 2.0), rel=1e-14)

    def test_tracks_exact_next_nearest_density(self):
        # approximate by construction; a few percent is the advertised level
        for s in np.arange(0.5, 3.51, 0.25):
            assert abs(p1_spacing1_approx(s)
                       - painleve.p1_gap1(s)) <= 0.05


_SURMISES = {
    "beta1": lambda s: wigner_surmise(1, s),
    "beta2": lambda s: wigner_surmise(2, s),
    "beta4": lambda s: wigner_surmise(4, s),
    "spacing1": p1_spacing1_approx,
}


@pytest.mark.parametrize("name", list(_SURMISES))
class TestArrayRule:
    """The surmises take a float or an array of s, as points.on_points
    sets out, and an array gives a loop of scalar calls bit for bit."""

    def test_array_gives_scalar_loop(self, name):
        fn = _SURMISES[name]
        s = np.array([[0.9, 0.0, 0.0015], [3.7, 0.9, 1.2]])
        out = fn(s)
        assert isinstance(out, np.ndarray) and out.shape == s.shape
        assert out.ravel().tolist() == [fn(float(x)) for x in s.ravel()]

    def test_float_and_zero_d_give_float(self, name):
        fn = _SURMISES[name]
        for s in (0.7, np.float64(0.7), np.array(0.7)):
            assert type(fn(s)) is float
        assert fn(0.0) == fn(np.array(0.0)) == 0.0

    def test_empty_array(self, name):
        out = _SURMISES[name](np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_negative_element_raises(self, name):
        with pytest.raises(ArgumentError):
            _SURMISES[name](np.array([0.5, -0.1]))

    @pytest.mark.parametrize("s", [math.nan, math.inf,
                                   np.array([0.5, math.nan])],
                             ids=["nan", "inf", "array-with-nan"])
    def test_non_finite_raises(self, name, s):
        with pytest.raises(ArgumentError):
            _SURMISES[name](s)
