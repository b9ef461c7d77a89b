"""Gauss-Legendre rules and Nystrom spectra."""

import math
from collections import OrderedDict

import numpy as np
import pytest

from spacing_lab import (ArgumentError, Interval, gauss_legendre,
                         nystrom_spectrum, quadrature)
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

    def test_cache_is_bounded(self, monkeypatch):
        # the least recently used order leaves first
        monkeypatch.setattr(quadrature, "_RULES", OrderedDict())
        monkeypatch.setattr(quadrature, "_RULES_KEPT", 3)
        quadrature._prepare_rules([5, 6, 7])
        quadrature._reference_rule(5)
        quadrature._reference_rule(8)
        assert list(quadrature._RULES) == [7, 5, 8]
        # more orders than the cache keeps are left to their reads
        quadrature._prepare_rules([1, 2, 3, 4])
        assert list(quadrature._RULES) == [7, 5, 8]

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


def _one_size_rule(n):
    """The order-n rule by Newton iteration on P_n alone, from the cosine
    guesses, stopping at max |dx| < 1e-15: the classical one-size run."""
    if n == 1:
        return np.array([0.0]), np.array([2.0])

    def legendre(x):
        p_prev, p = np.ones_like(x), x.copy()
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    while True:
        p, dp = legendre(x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    dp = legendre(x)[1]
    return x[::-1], (2.0 / ((1.0 - x * x) * dp * dp))[::-1]


class TestReferenceRules:
    """The rules of a group of orders come from one Newton run; each keeps
    the bits of a run of its order alone."""

    SIZES = list(range(1, 201))

    @pytest.fixture(scope="class")
    def alone(self):
        return {n: _one_size_rule(n) for n in self.SIZES}

    @staticmethod
    def _cold(monkeypatch, sizes):
        monkeypatch.setattr(quadrature, "_RULES", OrderedDict())
        quadrature._prepare_rules(sizes)
        assert sorted(quadrature._RULES) == sorted(sizes)
        return dict(quadrature._RULES)

    def _assert_bits(self, rules, alone):
        for n, (nodes, weights) in rules.items():
            assert nodes.tobytes() == alone[n][0].tobytes(), n
            assert weights.tobytes() == alone[n][1].tobytes(), n

    def test_one_size_runs(self, monkeypatch, alone):
        for n in self.SIZES:
            self._assert_bits(self._cold(monkeypatch, [n]), alone)

    def test_all_sizes_in_one_run(self, monkeypatch, alone):
        self._assert_bits(self._cold(monkeypatch, self.SIZES[::-1]), alone)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_groups(self, monkeypatch, alone, seed):
        order = np.random.default_rng(seed).permutation(self.SIZES).tolist()
        cuts = [0, 7, 30, 31, 90, 200]
        for lo, hi in zip(cuts, cuts[1:]):
            self._assert_bits(self._cold(monkeypatch, order[lo:hi]), alone)
