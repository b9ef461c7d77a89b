"""Gauss-Legendre rules and Nystrom spectra."""

import math

import numpy as np
import pytest

from spacing_lab import ArgumentError, Interval, gauss_legendre, nystrom_spectrum
from spacing_lab.kernels import sine_bulk


class TestInterval:
    def test_length(self):
        assert Interval(-0.5, 1.5).length == 2.0

    def test_degenerate_allowed(self):
        assert Interval(1.0, 1.0).length == 0.0

    def test_reversed_rejected(self):
        with pytest.raises(ArgumentError):
            Interval(1.0, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ArgumentError):
            Interval(0.0, math.inf)

    def test_symmetry(self):
        assert Interval(-2.0, 2.0).is_symmetric()
        assert not Interval(0.0, 2.0).is_symmetric()


class TestGaussLegendre:
    def test_one_point_rule_is_midpoint(self):
        rule = gauss_legendre(1, Interval(-1.0, 1.0))
        assert rule.nodes == pytest.approx([0.0], abs=1e-15)
        assert rule.weights == pytest.approx([2.0], abs=1e-15)

    def test_two_point_rule(self):
        rule = gauss_legendre(2, Interval(-1.0, 1.0))
        r = 1.0 / math.sqrt(3.0)
        assert rule.nodes == pytest.approx([-r, r], abs=1e-15)
        assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_monomial_integral(self):
        rule = gauss_legendre(20, Interval(0.0, 1.0))
        integral = float(np.sum(rule.weights * rule.nodes**5))
        assert integral == pytest.approx(1.0 / 6.0, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
    def test_rule_invariants(self, n):
        interval = Interval(-0.3, 2.1)
        rule = gauss_legendre(n, interval)
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert np.all(rule.nodes > interval.lo) and np.all(rule.nodes < interval.hi)
        assert np.all(rule.weights > 0.0)
        assert np.sum(rule.weights) == pytest.approx(interval.length, rel=1e-13)

    @pytest.mark.parametrize("n", [3, 10, 40])
    def test_polynomial_exactness(self, n):
        # exact through degree 2n - 1
        rng = np.random.default_rng(n)
        interval = Interval(-1.0, 1.5)
        rule = gauss_legendre(n, interval)
        coeffs = rng.uniform(-1.0, 1.0, 2 * n)
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(interval.hi) - poly.integ()(interval.lo)
        approx = float(np.sum(rule.weights * poly(rule.nodes)))
        assert abs(approx - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_cached_reference_rule_is_read_only(self):
        from spacing_lab.quadrature import _reference_rule

        nodes, weights = _reference_rule(12)
        assert _reference_rule(12)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
        rule = gauss_legendre(12, Interval(-1.0, 1.0))
        assert np.array_equal(rule.nodes, nodes)
        rule.nodes[0] = 0.0                    # a rule owns its arrays
        assert nodes[0] != 0.0

    def test_invalid_order(self):
        with pytest.raises(ArgumentError):
            gauss_legendre(0, Interval(0.0, 1.0))

    def test_degenerate_interval(self):
        with pytest.raises(ArgumentError):
            gauss_legendre(4, Interval(1.0, 1.0))


class TestNystromSpectrum:
    def test_zero_length_interval_is_empty_operator(self):
        spectrum = nystrom_spectrum(sine_bulk(), Interval(0.5, 0.5), 50)
        assert spectrum.eigenvalues.size == 0
        assert np.sum(spectrum.eigenvalues) == 0.0

    def test_trace_identity(self):
        # sine kernel diagonal is 1, so the trace equals the interval length
        spectrum = nystrom_spectrum(sine_bulk(), Interval(-1.0, 1.0), 120)
        assert np.sum(spectrum.eigenvalues) == pytest.approx(2.0, abs=1e-10)

    def test_small_interval_trace_dominates(self):
        # as the interval shrinks the operator is rank one to leading order
        spectrum = nystrom_spectrum(sine_bulk(), Interval(-1e-3, 1e-3), 40)
        assert spectrum.eigenvalues[0] == pytest.approx(2e-3, rel=1e-5)

    def test_eigenvalues_descending_in_unit_range(self):
        spectrum = nystrom_spectrum(sine_bulk(), Interval(-2.0, 2.0), 150)
        mu = spectrum.eigenvalues
        assert np.all(np.diff(mu) <= 0.0)
        assert np.all(mu >= 0.0) and np.all(mu <= 1.0 + 1e-10)
