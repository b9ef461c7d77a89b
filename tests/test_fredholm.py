"""Determinantal route: generating values, gap profiles, parity splits."""

import math
from collections import OrderedDict
from functools import reduce

import numpy as np
import pytest

from spacing_lab import (
    ArgumentError,
    Interval,
    NumericError,
    UnsupportedError,
    fredholm,
    gauss_legendre,
    painleve,
    quadrature,
    routes,
)
from spacing_lab.kernels import (scaled_jets, sine_bulk, sine_even, sine_odd,
                                 spectrum_singularity)
from spacing_lab.quadrature import FredholmSpectrum, nystrom_spectrum


def _manual_spectrum(eigenvalues):
    mu = np.asarray(eigenvalues, dtype=float)
    return FredholmSpectrum(eigenvalues=mu, nodes_used=mu.size)


class TestGeneratingValue:
    def test_xi_zero(self):
        spectrum = nystrom_spectrum(sine_bulk(), Interval(-1.0, 1.0), 80)
        assert fredholm.generating_value(spectrum, 0.0) == 1.0

    def test_single_eigenvalue(self):
        assert fredholm.generating_value(_manual_spectrum([0.5]), 1.0) == 0.5

    def test_xi_domain(self):
        spectrum = _manual_spectrum([0.5])
        with pytest.raises(ArgumentError):
            fredholm.generating_value(spectrum, 1.2)
        with pytest.raises(ArgumentError):
            fredholm.generating_value(spectrum, -0.1)

    def test_decreasing_in_xi(self):
        spectrum = nystrom_spectrum(sine_bulk(), Interval(-0.5, 0.5), 80)
        values = [fredholm.generating_value(spectrum, xi)
                  for xi in np.linspace(0.0, 1.0, 11)]
        assert np.all(np.diff(values) < 0.0)

    def test_against_correlation_series(self):
        # det(1 - K) = sum_k (-1)^k/k! int det[K(x_i, x_j)] dx over J^k,
        # truncated at k = 6; the k-fold integrals use tensor-product
        # Gauss rules and the sine kernel written out directly, so the
        # oracle shares no code with the spectral route
        interval = Interval(-0.5, 0.5)
        total = 1.0
        nodes_for_k = {1: 24, 2: 20, 3: 14, 4: 12, 5: 10, 6: 8}
        for k, m in nodes_for_k.items():
            rule = gauss_legendre(m, interval)
            idx = np.indices((m,) * k).reshape(k, -1)
            pts = rule.nodes[idx]
            wts = np.prod(rule.weights[idx], axis=0)
            mats = np.moveaxis(np.sinc(pts[:, None, :] - pts[None, :, :]), 2, 0)
            term = np.sum(wts * np.linalg.det(mats)) / math.factorial(k)
            total += (-1.0) ** k * term
        direct = fredholm.fredholm_det(sine_bulk(), interval)
        assert abs(total - direct) <= 1e-8


class TestGapN:
    def test_n_zero_equals_generating_value(self):
        spectrum = nystrom_spectrum(sine_bulk(), Interval(-1.0, 1.0), 120)
        profile = fredholm.gap_n(spectrum, 0)
        assert profile == pytest.approx(
            fredholm.generating_value(spectrum, 1.0), abs=1e-15)

    def test_profiles_sum_to_one(self):
        spectrum = nystrom_spectrum(sine_bulk(), Interval(-1.5, 1.5), 140)
        total = sum(fredholm.gap_n(spectrum, n) for n in range(31))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_order_one_against_finite_difference(self):
        # E(1) = -d/dxi prod(1 - xi mu) at xi = 1, by central difference
        # on the product itself
        spectrum = nystrom_spectrum(sine_bulk(), Interval(-1.0, 1.0), 120)
        mu = spectrum.eigenvalues
        h = 1e-5
        product = lambda xi: float(np.prod(1.0 - xi * mu))
        derivative = (product(1.0 + h) - product(1.0 - h)) / (2.0 * h)
        assert fredholm.gap_n(spectrum, 1) == pytest.approx(-derivative,
                                                            abs=1e-7)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_against_polynomial_derivative(self, n):
        # prod(1 - xi mu_j) is a polynomial in xi; its exact derivatives
        # at xi = 1 give an independent route to E(n)
        spectrum = nystrom_spectrum(sine_bulk(), Interval(-1.0, 1.0), 120)
        mu = spectrum.eigenvalues[spectrum.eigenvalues > 1e-15]
        poly = reduce(lambda p, m: p * np.polynomial.Polynomial([1.0, -m]),
                      mu, np.polynomial.Polynomial([1.0]))
        expected = (-1.0) ** n * poly.deriv(n)(1.0) / math.factorial(n)
        assert fredholm.gap_n(spectrum, n) == pytest.approx(expected,
                                                            abs=1e-6)

    def test_forced_level_raises(self):
        # an eigenvalue within _FORCED_LEVEL_GAP of 1 leaves no digit of
        # E(0); E(1) factors it out as an occupied level
        spectrum = _manual_spectrum([1.0 - 1e-15, 0.5])
        with pytest.raises(NumericError, match=r"E\(0\) is forced to 0"):
            fredholm.gap_n(spectrum, 0)
        assert fredholm.gap_n(spectrum, 1) == pytest.approx(0.5, rel=1e-14)

    def test_order_bound(self):
        spectrum = _manual_spectrum([0.5])
        with pytest.raises(UnsupportedError):
            fredholm.gap_n(spectrum, 31)


class TestParitySplit:
    def test_asymmetric_interval_rejected(self):
        with pytest.raises(ArgumentError):
            fredholm.parity_split(Interval(0.0, 1.0))

    def test_small_interval_near_one(self):
        d_plus, d_minus = fredholm.parity_split(Interval(-1e-6, 1e-6))
        assert d_plus == pytest.approx(1.0, abs=1e-5)
        assert d_minus == pytest.approx(1.0, abs=1e-10)

    def test_product_recovers_full_determinant(self):
        # even and odd eigenvalues together are the full sine spectrum,
        # so the split is exact at matched discretization
        iv = Interval(-1.0, 1.0)
        d_plus, d_minus, full = (
            fredholm.generating_value(nystrom_spectrum(kernel, iv, 240), 1.0)
            for kernel in (sine_even(), sine_odd(), sine_bulk()))
        assert d_plus * d_minus == pytest.approx(full, abs=1e-10)

    def test_even_determinant_decreasing(self):
        values = [fredholm.parity_split(Interval(-s, s))[0]
                  for s in np.arange(0.25, 2.01, 0.25)]
        assert np.all(np.diff(values) < 0.0)


class TestGaudinSplit:
    def test_matches_parity_split(self):
        profile = lambda x: fredholm.e2_bulk_det(2.0 * x)
        g_plus, g_minus = fredholm.gaudin_split(profile, 0.5)
        d_plus, d_minus = fredholm.parity_split(Interval(-0.5, 0.5))
        assert g_plus == pytest.approx(d_plus, abs=1e-6)
        assert g_minus == pytest.approx(d_minus, abs=1e-6)

    def test_inconsistent_profile_rejected(self):
        # a profile with convex log cannot be a gap probability
        with pytest.raises(NumericError):
            fredholm.gaudin_split(lambda x: np.exp(x * x), 0.5)

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_non_finite_length_rejected(self, s):
        with pytest.raises(ArgumentError):
            fredholm.gaudin_split(lambda x: fredholm.e2_bulk_det(2.0 * x), s)


class TestConvergedSpectrum:
    @pytest.mark.parametrize("kernel", [sine_bulk(), sine_even(), sine_odd(),
                                        spectrum_singularity()],
                             ids=lambda k: k.variant)
    @pytest.mark.parametrize("length", [0.5, 2.0, 6.0])
    def test_accepted_at_few_nodes(self, kernel, length):
        # exponential convergence: a length-scaled start needs one doubling
        interval = Interval(-length / 2.0, length / 2.0)
        spectrum = fredholm._converged_spectrum(kernel, interval)
        assert spectrum.nodes_used <= 64
        reference = nystrom_spectrum(kernel, interval, 400)
        assert fredholm.generating_value(spectrum, 1.0) == pytest.approx(
            fredholm.generating_value(reference, 1.0), abs=1e-14)

    @pytest.mark.parametrize("length", [52.0, 1000.0])
    def test_doubling_never_exceeds_cap(self, monkeypatch, length):
        # 16 + 2 * 52 = 120 nodes would double past the cap to 1920;
        # 1000 starts beyond it.  A negative tolerance never converges.
        built = []

        def record(kernel, interval, n):
            built.append(n)
            return FredholmSpectrum(eigenvalues=np.zeros(0), nodes_used=n)

        monkeypatch.setattr(fredholm, "nystrom_spectrum", record)
        monkeypatch.setattr(fredholm, "DET_TOL", -1.0)
        with pytest.raises(NumericError):
            fredholm._converged_spectrum(
                sine_bulk(), Interval(-length / 2.0, length / 2.0))
        assert max(built) == fredholm._MAX_NODES
        assert built == sorted(built)

    def test_huge_length_starts_at_the_cap(self):
        # past about 9e307, 2 length overflows to inf; it is capped before
        # the ceiling, so the first rule is the last and no OverflowError
        # escapes
        built = []
        with pytest.raises(NumericError):
            fredholm._node_doubling(
                lambda n, points: [built.append(n) or 0.0 for _ in points],
                [1.7e308], lambda value: value, lambda i: {})
        assert built == [fredholm._MAX_NODES]

    def test_huge_s_raises_numeric_error(self):
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            fredholm.e2_bulk_det(1.7e308)

    @pytest.mark.parametrize("evaluator, s", [
        (fredholm.e1_bulk_det, 6.0), (fredholm.e4_bulk_det, 8.0),
        (fredholm.e2_bulk_det, 12.8)], ids=["E1-6", "E4-8", "E2-12.8"])
    def test_exactly_zero_determinant_raises(self, evaluator, s):
        # an eigenvalue rounds to 1, so det(1 - K) reads 0.0 where E1(0; 6)
        # is 1.410e-43
        with pytest.raises(NumericError, match="exactly 0"):
            evaluator(s)


class TestGapEvaluators:
    def test_values_at_zero(self):
        assert fredholm.e2_bulk_det(0.0) == 1.0
        assert fredholm.e1_bulk_det(0.0) == 1.0
        assert fredholm.e4_bulk_det(0.0) == 1.0

    def test_e4_half_sum_identity(self):
        # E4(0; s) = (E1(0; 2s) + E2(0; 2s)/E1(0; 2s)) / 2 where the right
        # side uses profiles on the doubled interval
        s = 0.8
        e4 = fredholm.e4_bulk_det(s)
        e1 = fredholm.e1_bulk_det(s)
        e2 = fredholm.e2_bulk_det(2.0 * s)
        assert e4 == pytest.approx(0.5 * (e1 + e2 / e1), abs=1e-10)

    def test_e2_frozen_value(self):
        # regression pin for the length-1 sine determinant
        assert fredholm.e2_bulk_det(1.0) == pytest.approx(
            0.17021742137918544, abs=1e-12)

    def test_zero_length_determinant(self):
        assert fredholm.fredholm_det(sine_bulk(), Interval(0.3, 0.3)) == 1.0

    def test_e1_builds_only_the_even_spectrum(self, monkeypatch):
        built = []
        original = fredholm.nystrom_spectrum

        def record(kernel, interval, n):
            built.append(kernel.variant)
            return original(kernel, interval, n)

        monkeypatch.setattr(fredholm, "nystrom_spectrum", record)
        fredholm.e1_bulk_det(np.array([0.5, 1.5]))
        assert built and set(built) == {sine_even().variant}


# (evaluator, exact value at s = 0)
_EVALUATORS = {
    "e2": (fredholm.e2_bulk_det, 1.0),
    "e1": (fredholm.e1_bulk_det, 1.0),
    "e4": (fredholm.e4_bulk_det, 1.0),
    "enn": (fredholm.enn_det, 1.0),
    "en0": (lambda s: fredholm.en_bulk_det(s, 0), 1.0),
    "en2": (lambda s: fredholm.en_bulk_det(s, 2), 0.0),
    "p1": (fredholm.p1_det, 0.0),
    "p2": (fredholm.p2_det, 0.0),
    "p4": (fredholm.p4_det, 0.0),
    "p1gap": (fredholm.p1_gap1_det, 0.0),
    "p2nn": (fredholm.p2_nn_det, 0.0),
}


@pytest.mark.parametrize("name", list(_EVALUATORS))
class TestArrayEvaluators:
    """Every evaluator of s takes an array and gives, bit for bit, the
    floats of a loop of scalar calls; the stencil points below 2h take the
    one-sided branch."""

    def test_unsorted_array_with_repeat(self, name):
        fn, _ = _EVALUATORS[name]
        s = np.array([0.9, 0.0, 0.0015, 0.4, 0.9, 0.002])
        out = fn(s)
        assert isinstance(out, np.ndarray) and out.shape == s.shape
        assert out.tolist() == [fn(float(x)) for x in s]

    def test_two_dimensional_array(self, name):
        fn, _ = _EVALUATORS[name]
        s = np.array([[0.3, 0.0005], [1.1, 0.3]])
        out = fn(s)
        assert out.shape == (2, 2)
        assert out.ravel().tolist() == [fn(float(x)) for x in s.ravel()]

    def test_empty_array(self, name):
        fn, _ = _EVALUATORS[name]
        out = fn(np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_float_and_zero_d_give_float(self, name):
        fn, at_zero = _EVALUATORS[name]
        for s in (0.7, np.float64(0.7), np.array(0.7)):
            assert type(fn(s)) is float
        assert fn(0.0) == fn(np.array(0.0)) == at_zero

    def test_negative_element_raises(self, name):
        fn, _ = _EVALUATORS[name]
        with pytest.raises(ArgumentError):
            fn(np.array([0.5, -0.1]))

    @pytest.mark.parametrize("s", [math.nan, math.inf,
                                   np.array([0.5, math.nan])],
                             ids=["nan", "inf", "array-with-nan"])
    def test_non_finite_raises(self, name, s):
        fn, _ = _EVALUATORS[name]
        with pytest.raises(ArgumentError, match="finite"):
            fn(s)


class TestStencil:
    def test_points_below_two_steps_rejected(self):
        # only the centred stencil is kept, which would ask the profile
        # for a negative argument there
        with pytest.raises(ArgumentError):
            fredholm._stencil(fredholm.e4_bulk_det, np.array([0.5, 0.0015]),
                              2)


# (Jacobi-formula density, its Painleve evaluator, the gap profile whose
# stencil derivative it is, the derivative order)
_DENSITIES = {
    "p1": (fredholm.p1_det, painleve.p1_direct,
           lambda u: fredholm.e1_bulk_det(u / 2.0), 2),
    "p2": (fredholm.p2_det, painleve.p2_direct, fredholm.e2_bulk_det, 2),
    "p4": (fredholm.p4_det, painleve.p4_direct, fredholm.e4_bulk_det, 2),
    "p1gap": (fredholm.p1_gap1_det, painleve.p1_gap1,
              lambda u: 2.0 * fredholm.e4_bulk_det(u / 2.0), 2),
    "p2nn": (fredholm.p2_nn_det, painleve.p2_nn,
             lambda u: -fredholm.enn_det(u), 1),
}


class TestJacobiDensities:
    @pytest.mark.parametrize("s", [0.001, 0.003])
    @pytest.mark.parametrize("name", ["p1", "p2", "p4", "p1gap"])
    def test_small_s_relative_accuracy(self, name, s):
        # p4 ~ s^4 and p1(1; s) ~ s^4 sit far below the 1e-9 roundoff
        # that a stencil of determinants leaves
        density, direct, _, _ = _DENSITIES[name]
        if name == "p1gap" and s == 0.001:
            # the Painleve p1(1; s) adds p1_direct, whose s <= 1e-3 branch
            # is the bare pi^2 s / 6 (off by 1.6e-9 here), to a cancelling
            # D_minus'' term; the reference is p1(1; s) = p4(0; s/2) / 2
            # with p4 = (16 pi^4 / 135) s^4 (1 + O(s^2))
            expected = math.pi ** 4 * s ** 4 / 270.0
        else:
            expected = direct(s)
        assert density(s) == pytest.approx(expected, rel=1e-4)

    @pytest.mark.parametrize("name", list(_DENSITIES))
    def test_agrees_with_stencil_of_gap_profile(self, name):
        density, _, profile, order = _DENSITIES[name]
        grid = np.arange(0.2, 2.001, 0.2)
        stencil = fredholm._stencil(profile, grid, order)
        assert np.max(np.abs(density(grid) - stencil)) <= 5e-9

    def test_doubling_that_cannot_converge_raises(self, monkeypatch):
        # (-3, 3) starts at 16 + 12 nodes, beyond a cap of 20
        monkeypatch.setattr(fredholm, "_MAX_NODES", 20)
        with pytest.raises(NumericError):
            fredholm.p4_det(3.0)

    @pytest.mark.parametrize("kernel", [sine_even(), sine_odd(),
                                        spectrum_singularity()],
                             ids=lambda k: k.variant)
    def test_jets_double_the_rules_of_the_spectrum(self, monkeypatch, kernel):
        # one doubling policy: on (-26, 26) both start at 16 + 2 * 52 nodes
        # and double up to the cap; a negative tolerance never converges
        spectra, jets = [], []

        def spectrum(kernel, interval, n):
            spectra.append(n)
            return FredholmSpectrum(eigenvalues=np.zeros(0), nodes_used=n)

        def jet(kernel, x, n, order):
            jets.extend(n for _ in x)
            return np.zeros((len(x), order + 1))

        monkeypatch.setattr(fredholm, "nystrom_spectrum", spectrum)
        monkeypatch.setattr(fredholm, "_det_jet_stack", jet)
        monkeypatch.setattr(fredholm, "DET_TOL", -1.0)
        with pytest.raises(NumericError):
            fredholm._converged_spectrum(kernel, Interval(-26.0, 26.0))
        with pytest.raises(NumericError):
            fredholm._det_jets(kernel, np.array([26.0]), 2)
        assert spectra == jets == [120, 240, 480, 960, fredholm._MAX_NODES]

    @pytest.mark.parametrize("kernel", [sine_even(), sine_odd()],
                             ids=lambda k: k.variant)
    @pytest.mark.parametrize("x", [0.3, 1.5])
    def test_second_derivative_is_full_jacobi_formula(self, kernel, x):
        # D'' = D [(tr R A')^2 - tr(R A'') - tr(R A' R A')], written out
        # here without the rank-one reduction the evaluator uses
        n = 40
        rule = gauss_legendre(n, Interval(-1.0, 1.0))
        sw = np.sqrt(rule.weights)
        a, a1, a2 = [sw[:, None] * m * sw[None, :]
                     for m in scaled_jets(kernel, rule.nodes, x, 2)]
        r = np.linalg.inv(np.eye(n) - a)
        det = np.linalg.det(np.eye(n) - a)
        ra1 = r @ a1
        full = det * (np.trace(ra1) ** 2 - np.trace(r @ a2)
                      - np.trace(ra1 @ ra1))
        jet = fredholm._det_jet_stack(kernel, np.array([x]), n, 2)[0]
        assert jet[0] == pytest.approx(det, abs=1e-15)
        assert jet[1] == pytest.approx(-det * np.trace(ra1), abs=1e-14)
        assert jet[2] == pytest.approx(full, abs=1e-13)

    @pytest.mark.parametrize("fn", [
        fredholm.p1_det, fredholm.p2_det, fredholm.p4_det,
        fredholm.p1_gap1_det, fredholm.p2_nn_det],
        ids=["p1", "p2", "p4", "p1gap", "p2nn"])
    def test_negative_density_raises(self, monkeypatch, fn):
        # one check serves every Jacobi-jet density: jets with D = 1, D' = 0
        # and D'' = -1 (D' = 1 for p2nn, whose density is -D') make each
        # negative, and D'' = D' = 0 give an exact zero, which passes
        def jets(kernel_spec, half, order):
            row = [[1.0, sign], [1.0, 0.0, -sign]][order - 1]
            return np.tile(row, (len(half), 1))

        sign = 1.0
        monkeypatch.setattr(fredholm, "_det_jets", jets)
        with pytest.raises(NumericError, match="at s = 2 is negative"):
            fn(np.array([2.0, 3.0]))
        sign = 0.0
        assert fn(2.0) == 0.0


class TestSpacingTable:
    def test_column_length_mismatch(self):
        table = fredholm.SpacingTable(s_grid=np.array([0.0, 0.1, 0.2]))
        with pytest.raises(ArgumentError):
            table.add_column("E0", [1.0, 0.9])


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# interval lengths s and 2 s both start these points on rules of one size
_SHARED_GRID = np.linspace(0.02, 0.2, 10)
# and these on rules of pairwise different sizes, in every round
_DISTINCT_GRID = np.array([3.9, 0.3, 2.4, 1.1])


@pytest.fixture()
def stacks(monkeypatch):
    """Every stacked solve of a density: (rule size, points in the stack)."""
    solved = []
    jets = fredholm._det_jet_stack

    def jet_stack(kernel, x, n, order):
        solved.append((n, len(x)))
        return jets(kernel, x, n, order)

    monkeypatch.setattr(fredholm, "_det_jet_stack", jet_stack)
    return solved


@pytest.fixture()
def newton_runs(monkeypatch):
    """The orders of every Newton run, from a cold rule cache."""
    runs = []
    newton = quadrature._newton

    def counting(sizes):
        runs.append(sorted(sizes))
        return newton(sizes)

    monkeypatch.setattr(quadrature, "_RULES", OrderedDict())
    monkeypatch.setattr(quadrature, "_newton", counting)
    return runs


_STACKED = ["p1", "p2", "p4", "p1gap", "p2nn"]     # solved in stacks


@pytest.mark.parametrize("name", list(_EVALUATORS))
class TestBatchedRounds:
    """A call runs its points together, in doubling rounds; each point
    keeps the rule sequence and the floats of a call on it alone."""

    @pytest.mark.parametrize("grid", [_SHARED_GRID, _DISTINCT_GRID],
                             ids=["shared", "distinct"])
    def test_array_matches_one_point_calls(self, name, grid):
        fn, _ = _EVALUATORS[name]
        assert _bits(fn(grid)) == _bits([fn(float(s)) for s in grid])

    def test_first_two_rules_in_one_newton_run(self, name, newton_runs):
        # every point is solved on its first rule and on the doubled one,
        # and on these grids no point needs a third
        fn, _ = _EVALUATORS[name]
        fn(_DISTINCT_GRID)
        assert len(newton_runs) == 1


@pytest.mark.parametrize("name", _STACKED)
class TestDensityStacks:
    """The densities solve the points on one rule size as one stack."""

    def test_one_stack_per_rule_size(self, name, stacks):
        fn, _ = _EVALUATORS[name]
        fn(_SHARED_GRID)
        assert max(k for _, k in stacks) == len(_SHARED_GRID)
        stacks.clear()
        fn(_DISTINCT_GRID)
        assert {k for _, k in stacks} == {1}

    def test_stacks_within_the_byte_budget(self, name, stacks,
                                           monkeypatch):
        # a budget of three 20-node matrices splits the 10 points of the
        # shared grid into stacks of 3, 3, 3 and 1 on rules of <= 20 nodes,
        # and the floats do not move
        fn, _ = _EVALUATORS[name]
        expected = fn(_SHARED_GRID)
        stacks.clear()
        budget = 3 * 8 * 20 * 20
        monkeypatch.setattr(fredholm, "_STACK_BYTES", budget)
        out = fn(_SHARED_GRID)
        assert all(k == 1 or 8 * k * n * n <= budget for n, k in stacks)
        assert any(k > 1 for _, k in stacks)
        assert _bits(out) == _bits(expected)


class TestRuleRounds:
    def test_cold_p0_beta4_runs_one_newton_run(self, newton_runs):
        # det-tables' p0 beta = 4 grid starts its 12 points on 12 rule
        # sizes, and each converges on its first doubled rule: 24 rules
        # from one Newton run, which the odd kernel finds cached
        routes.evaluate("p0", "fredholm", np.arange(0.0, 3.0001, 0.25),
                        beta=4)
        assert len(newton_runs) == 1 and len(newton_runs[0]) == 24

    def test_later_round_rules_in_one_newton_run(self, newton_runs,
                                                 monkeypatch):
        # a negative tolerance takes every point through rounds to the
        # cap: the first two rules in one run, each later round in one
        monkeypatch.setattr(fredholm, "DET_TOL", -1.0)
        with pytest.raises(NumericError):
            fredholm._det_jets(sine_even(), np.array([0.5, 2.0]), 2)
        assert newton_runs[:2] == [[18, 24, 36, 48], [72, 96]]

    def test_zero_length_reads_no_rule(self, newton_runs):
        assert fredholm.fredholm_det(sine_bulk(), Interval(0.5, 0.5)) == 1.0
        assert newton_runs == []

    def test_default_budget_holds_on_a_dense_grid(self, stacks):
        # 200 points of one rule size per round: the 34-node round no
        # longer fits one stack of at most _STACK_BYTES
        fredholm.p1_det(np.linspace(0.001, 0.4, 200))
        assert [n for n, _ in stacks].count(34) > 1
        assert all(k == 1 or 8 * k * n * n <= fredholm._STACK_BYTES
                   for n, k in stacks)
