"""Sigma-form ODE route: series layers, integration, direct densities."""

import hashlib
import math

import numpy as np
import pytest

from spacing_lab import (
    ArgumentError,
    ConsistencyError,
    Interval,
    NumericError,
    UnsupportedError,
    fredholm,
    painleve,
    routes,
)
from spacing_lab._dop853 import Dense
from spacing_lab.kernels import hard_edge_bessel
from spacing_lab.painleve import (
    SIGMA_HARD,
    SIGMA_JMMS,
    SIGMA_NN,
    build_problem,
    integrate,
    series_residual,
)

CANONICAL_PROBLEMS = [
    (SIGMA_JMMS, (1.0,)),
    (SIGMA_HARD, (-0.5, 0.0, 1.0)),
    (SIGMA_HARD, (0.5, 0.0, 1.0)),
    (SIGMA_NN, (1.0, 1.0)),
    (SIGMA_HARD, (-0.5, 2.0, 1.0)),
    (SIGMA_HARD, (0.5, 2.0, 1.0)),
]


class TestSeriesLayer:
    @pytest.mark.parametrize("eq,params", CANONICAL_PROBLEMS,
                             ids=lambda v: str(v))
    def test_residual_at_switch_point(self, eq, params):
        problem = build_problem(eq, params)
        assert series_residual(problem) <= 1e-8

    def test_three_term_boundary_series(self):
        # the first three derived terms alone already satisfy the equation
        # to 1e-8 near zero; the tiny switch point keeps the truncated
        # series inside its own tail bound
        problem = build_problem(SIGMA_HARD, (-0.5, 2.0, 1.0), t_switch=1e-8,
                                n_terms=5)
        assert series_residual(problem, 1e-3) <= 1e-8

    def test_conditioned_origin_degenerates_to_translation_form(self):
        # at a=0 the leading term collapses to the plain bulk one, -xi t/pi
        nn = build_problem(SIGMA_NN, (0.0, 1.0))
        jmms = build_problem(SIGMA_JMMS, (1.0,))
        exp_nn, coeff_nn = nn.series[0]
        exp_j, coeff_j = jmms.series[0]
        assert exp_nn == exp_j == 1
        assert coeff_nn == pytest.approx(coeff_j, rel=1e-13)
        assert coeff_j == pytest.approx(-1.0 / math.pi, rel=1e-13)

    @pytest.mark.parametrize("n_terms", [0, 1, 3, 5, -2, 2.5, None])
    def test_n_terms_domain(self, n_terms):
        # the a = 1 conditioned-origin series leads at x^6
        problem = build_problem(SIGMA_NN, (1.0, 1.0), n_terms=np.int64(6))
        assert problem is build_problem(SIGMA_NN, (1.0, 1.0), n_terms=6)
        with pytest.raises(ArgumentError):
            build_problem(SIGMA_NN, (1.0, 1.0), n_terms=n_terms)
        with pytest.raises(ArgumentError):
            build_problem(problem.equation_id, problem.params,
                          problem.t_switch, n_terms)

    def test_extend_series_preserves_prefix(self):
        problem = build_problem(SIGMA_JMMS, (1.0,), n_terms=30)
        longer = build_problem(problem.equation_id, problem.params,
                               problem.t_switch, 40).series
        assert longer[:len(problem.series)] == problem.series

    def test_t_switch_domain(self):
        with pytest.raises(ArgumentError):
            build_problem(SIGMA_JMMS, (1.0,), t_switch=0.2)
        with pytest.raises(ArgumentError):
            build_problem(SIGMA_JMMS, (1.0,), t_switch=0.0)

    def test_unknown_equation(self):
        with pytest.raises(ArgumentError):
            build_problem("SIGMA_BOGUS", ())

    @pytest.mark.parametrize("eq,params", [
        (SIGMA_JMMS, ()), (SIGMA_HARD, (-0.5, 1.0)), (SIGMA_NN, (1.0,)),
    ], ids=str)
    def test_params_arity(self, eq, params):
        # SIGMA_HARD takes (a, mu, xi); its former (a, xi) form is an error
        with pytest.raises(ArgumentError):
            build_problem(eq, params)

    def test_unsupported_parameters(self):
        with pytest.raises(UnsupportedError):
            build_problem(SIGMA_HARD, (1.5, 0.0, 1.0))
        with pytest.raises(UnsupportedError):
            build_problem(SIGMA_NN, (2.0, 1.0))
        with pytest.raises(UnsupportedError):
            build_problem(SIGMA_HARD, (-0.5, 1.0, 1.0))
        # the mu=2 boundary data is only known at xi=1
        with pytest.raises(UnsupportedError):
            build_problem(SIGMA_HARD, (-0.5, 2.0, 0.5))

    def test_xi_domain(self):
        with pytest.raises(ArgumentError):
            build_problem(SIGMA_JMMS, (1.5,))

    def test_xi_zero_series_vanishes(self):
        problem = build_problem(SIGMA_JMMS, (0.0,))
        assert problem.series == ()
        assert problem.series_value(0.05) == 0.0

    def test_series_value_derivative_orders(self):
        problem = build_problem(SIGMA_JMMS, (1.0,))
        with pytest.raises(ArgumentError):
            problem.series_value(0.05, deriv=3)


class TestIntegration:
    def test_tolerance_refinement(self):
        problem = build_problem(SIGMA_JMMS, (1.0,))
        coarse = integrate(problem, 5.0, tol=1e-10)
        fine = integrate(problem, 5.0, tol=1e-12)
        assert abs(coarse.sigma_at(5.0) - fine.sigma_at(5.0)) <= 1e-9

    def test_hard_edge_defect_window(self):
        # the integrator rejects any step whose defect in the original
        # second-order equation exceeds 100x the tolerance, so a completed
        # long integration is itself the defect certificate
        problem = build_problem(SIGMA_HARD, (-0.5, 0.0, 1.0))
        solution = integrate(problem, 30.0, tol=1e-10)
        assert solution.t_max >= 30.0

    def test_switch_point_halving(self):
        values = []
        for t_switch in (0.1, 0.05):
            problem = build_problem(SIGMA_JMMS, (1.0,), t_switch=t_switch)
            solution = integrate(problem, math.pi, tol=1e-10)
            values.append(math.exp(solution.log_integral_at(math.pi)))
        assert abs(values[0] - values[1]) <= 1e-9

    def test_conditioned_origin_matches_translation_form_at_a_zero(self):
        nn = integrate(build_problem(SIGMA_NN, (0.0, 1.0)), 6.0, tol=1e-10)
        jmms = integrate(build_problem(SIGMA_JMMS, (1.0,)), 6.0, tol=1e-10)
        for t in (0.5, 2.0, 6.0):
            assert abs(nn.sigma_at(t) - jmms.sigma_at(t)) <= 1e-9

    def test_beyond_integrated_range(self):
        problem = build_problem(SIGMA_JMMS, (1.0,))
        solution = integrate(problem, 2.0, tol=1e-10)
        with pytest.raises(ArgumentError):
            solution.sigma_at(3.0)
        with pytest.raises(ArgumentError):
            solution.sigma_at(-1.0)
        with pytest.raises(ArgumentError):
            integrate(problem, 2.0 * painleve._T_BOUND)

    def test_xi_zero_trajectory_stays_zero(self):
        # sigma == 0 solves the equation; the complex step's h^2 term is
        # all that leaves it
        solution = integrate(build_problem(SIGMA_JMMS, (0.0,)), 4.0)
        t = np.linspace(0.0, solution.t_max, 201)
        assert np.max(np.abs(solution.sigma_at(t))) <= 1e-40
        assert np.max(np.abs(solution.log_integral_at(t))) <= 1e-40

    @pytest.mark.parametrize("eq,params", CANONICAL_PROBLEMS, ids=str)
    def test_extension_equals_cold_trajectory(self, eq, params):
        # no step is clipped to a horizon, so a trajectory stepped on after
        # a short request takes the steps a cold integration takes
        painleve.clear_cache()
        warm = painleve._solution(eq, params, 0.5)
        assert painleve._solution(eq, params, 30.0) is warm
        painleve.clear_cache()
        cold = painleve._solution(eq, params, 30.0)
        assert _bits(warm.grid) == _bits(cold.grid)
        t = np.linspace(0.05, cold.t_max, 301)
        for component in range(4):
            assert (_bits(warm._state(t, component))
                    == _bits(cold._state(t, component)))

    def test_creeping_requests_near_the_stiff_frontier(self):
        # the a = -1/2, mu = 2 hard-edge trajectory becomes numerically
        # stiff not far past t = (8.1 pi / 2)^2;
        # each extension steps only to the first step past its request, so
        # every requested s stays reachable
        painleve.clear_cache()
        for s in (3.0, 5.0, 7.0, 7.9, 8.1):
            value = painleve.p1_direct(s)
            assert 0.0 <= value < 1.0


class TestBulkEvaluators:
    def test_boundary_values(self):
        assert painleve.e2_bulk(0.0) == 1.0
        assert painleve.e2_bulk(1.3, xi=0.0) == 1.0
        assert painleve.e1_bulk(0.0) == 1.0
        assert painleve.e4_bulk(0.0) == 1.0

    def test_e2_against_determinant(self):
        assert painleve.e2_bulk(1.0) == pytest.approx(
            fredholm.e2_bulk_det(1.0), abs=1e-8)

    def test_e2_small_s_against_determinant(self):
        # validates the derived series coefficients, not just the leading one
        assert painleve.e2_bulk(0.1) == pytest.approx(
            fredholm.e2_bulk_det(0.1), abs=1e-10)

    def test_e2_partial_xi(self):
        assert painleve.e2_bulk(0.8, xi=0.5) == pytest.approx(
            fredholm.e2_bulk_det(0.8, xi=0.5), abs=1e-8)

    def test_hard_edge_boundary_value(self):
        assert painleve.e2_hard(0.0, -0.5) == 1.0

    def test_hard_edge_reproduces_even_bulk_determinant(self):
        s = 0.5
        value = painleve.e2_hard((math.pi * s) ** 2, -0.5)
        assert value == pytest.approx(fredholm.e1_bulk_det(s), abs=1e-6)

    def test_hard_edge_against_bessel_determinant(self):
        value = painleve.e2_hard(2.0, 0.5)
        det = fredholm.fredholm_det(hard_edge_bessel(0.5), Interval(0.0, 2.0))
        assert value == pytest.approx(det, abs=1e-7)


class TestConditionedOrigin:
    def test_boundary_values(self):
        assert painleve.enn_generating(0.0) == 1.0
        assert painleve.p2_nn(0.0) == 0.0

    def test_generating_value_against_determinant(self):
        assert painleve.enn_generating(0.5) == pytest.approx(
            fredholm.enn_det(0.5), abs=1e-6)

    def test_density_vanishes_quadratically(self):
        # the conditioning eigenvalue repels its neighbour like s^2: the
        # boundary exponent 2a+1 = 3 in sigma leaves s^2 after the 1/s
        lo, hi = 0.02, 0.04
        slope = math.log(painleve.p2_nn(hi) / painleve.p2_nn(lo)) \
            / math.log(hi / lo)
        assert slope == pytest.approx(2.0, abs=0.01)


class TestDirectDensities:
    def test_p1_linear_at_origin(self):
        for s in (1e-4, 2e-3):
            assert painleve.p1_direct(s) / s == pytest.approx(
                math.pi ** 2 / 6.0, abs=1e-4)

    def test_p2_quadratic_at_origin(self):
        # on the series layer p2 = (pi^2/3) s^2 (1 - (2 pi^2/15) s^2 + O(s^4))
        for s in (1e-4, 3e-4):
            expansion = math.pi ** 2 / 3.0 * s * s * (
                1.0 - 2.0 * math.pi ** 2 / 15.0 * s * s)
            assert painleve.p2_direct(s) == pytest.approx(expansion,
                                                          rel=1e-12)

    # p2(0; s) as d^2/ds^2 of the sine-kernel determinant at 40 digits: 48
    # Gauss-Legendre nodes and a numerical second derivative in mpmath
    @pytest.mark.parametrize("s,value", [
        (0.5, 0.59323015852076828542),
        (1.0, 0.90290378958147140942),
        (2.0, 0.081298154149308993746),
        (3.0, 0.00035404533217393095767),
        (4.0, 1.0493860701014180654e-7),
    ])
    def test_p2_against_reference(self, s, value):
        assert painleve.p2_direct(s) == pytest.approx(value, rel=1e-9)

    def test_p4_quartic_at_origin(self):
        lo, hi = 0.02, 0.04
        slope = math.log(painleve.p4_direct(hi) / painleve.p4_direct(lo)) \
            / math.log(hi / lo)
        assert slope == pytest.approx(4.0, abs=0.05)

    def test_densities_nonnegative(self):
        for s in np.arange(0.1, 3.1, 0.3):
            assert painleve.p1_direct(s) >= 0.0
            assert painleve.p2_direct(s) >= 0.0
            assert painleve.p4_direct(s) >= 0.0
            assert painleve.p1_gap1(s) >= 0.0

    def test_gap1_density_below_gap0_at_small_s(self):
        for s in (0.1, 0.3, 0.6):
            assert painleve.p1_gap1(s) < painleve.p1_direct(s)

    def test_negative_argument_rejected(self):
        for fn in (painleve.p1_direct, painleve.p2_direct,
                   painleve.p4_direct, painleve.p2_nn):
            with pytest.raises(ArgumentError):
                fn(-0.5)


class TestFirstDerivativeIdentity:
    def test_residual_vanishes_with_s(self):
        assert abs(painleve.am5_identity_residual(1e-3, -0.5)) <= 1e-10

    @pytest.mark.parametrize("a", [-0.5, 0.5])
    def test_residual_at_unit_argument(self, a):
        assert abs(painleve.am5_identity_residual(1.0, a)) <= 1e-7

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedError):
            painleve.am5_identity_residual(1.0, 1.5)

    def test_s_domain(self):
        for s in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ArgumentError):
                painleve.am5_identity_residual(s, 0.5)


# evaluators as the CLI and verify call them: (name, fn) with a = 1/2 for
# the hard-edge generating value
EVALUATORS = [
    ("e2_bulk", painleve.e2_bulk),
    ("e1_bulk", painleve.e1_bulk),
    ("e4_bulk", painleve.e4_bulk),
    ("e2_hard", lambda s: painleve.e2_hard(s, 0.5)),
    ("enn_generating", painleve.enn_generating),
    ("p1_direct", painleve.p1_direct),
    ("p2_direct", painleve.p2_direct),
    ("p4_direct", painleve.p4_direct),
    ("p1_gap1", painleve.p1_gap1),
    ("p2_nn", painleve.p2_nn),
]
# s = 0, points down to 1e-4, and points on both sides of
# t_switch = 0.1 for every argument map (pi s, 2 pi s, (pi s)^2,
# (pi s / 2)^2, s), unsorted and with a repeat
IDS = [name for name, _ in EVALUATORS]
GRID = np.concatenate(([0.0, 1e-4, 5e-4, 1e-3], np.linspace(0.005, 0.3, 60),
                       [2.0, 0.5, 1.0, 0.5, 1.5]))


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestArrayEvaluation:
    @pytest.mark.parametrize("name,fn", EVALUATORS, ids=IDS)
    def test_array_equals_scalar_loop(self, name, fn):
        painleve.clear_cache()
        values = fn(GRID)
        assert isinstance(values, np.ndarray) and values.shape == GRID.shape
        # the array call fetched each trajectory at the largest argument, so
        # the scalar loop runs on the same trajectories
        assert _bits(values) == _bits([fn(float(s)) for s in GRID])
        grid2d = GRID[:64].reshape(8, 8)
        assert _bits(fn(grid2d)) == _bits(values[:64])

    @pytest.mark.parametrize("name,fn", EVALUATORS, ids=IDS)
    def test_array_extending_the_trajectory(self, name, fn, monkeypatch):
        painleve.clear_cache()
        fn(0.2)                     # every trajectory now ends just past t = 4
        ends = {key: sol.t_max for key, sol in painleve._solutions.items()}
        calls = []
        original = painleve.integrate

        def counted(problem, t_max, *args):
            calls.append(t_max)
            return original(problem, t_max, *args)

        monkeypatch.setattr(painleve, "integrate", counted)
        # s = 3 takes every argument map past those ends, except e2_hard's
        # t = s, which s = 6 takes
        grid = np.linspace(0.0, 6.0 if name == "e2_hard" else 3.0, 31)
        values = fn(grid)
        # the array call stepped each trajectory on in place
        assert calls == []
        assert painleve._solutions.keys() == ends.keys()
        assert all(painleve._solutions[key].t_max > end > 4.0
                   for key, end in ends.items())
        loop = [fn(float(s)) for s in grid]
        assert calls == []
        assert _bits(values) == _bits(loop)

    @pytest.mark.parametrize("name,fn", EVALUATORS, ids=IDS)
    def test_scalar_returns_float(self, name, fn):
        for s in (0.0, 5e-4, 0.7, np.float64(0.7), np.array(0.7)):
            assert type(fn(s)) is float

    @pytest.mark.parametrize("name,fn", EVALUATORS, ids=IDS)
    def test_negative_element_raises(self, name, fn):
        with pytest.raises(ArgumentError):
            fn(np.array([0.5, 1.0, -1e-12, 2.0]))

    @pytest.mark.parametrize("s", [math.nan, math.inf,
                                   np.array([0.5, math.nan])],
                             ids=["nan", "inf", "array-with-nan"])
    @pytest.mark.parametrize("name,fn", EVALUATORS, ids=IDS)
    def test_non_finite_raises(self, name, fn, s):
        with pytest.raises(ArgumentError):
            fn(s)

    def test_empty_array(self):
        assert painleve.e2_bulk(np.array([])).shape == (0,)

    def test_negative_p4_element_raises(self, monkeypatch):
        real = painleve._parity_seconds

        def sunk(x):
            plus, minus = real(x)
            return plus, np.where(np.asarray(x) == 0.8, -100.0, minus)

        monkeypatch.setattr(painleve, "_parity_seconds", sunk)
        assert painleve.p4_direct(0.7) >= 0.0
        with pytest.raises(ConsistencyError) as info:
            painleve.p4_direct(np.array([0.2, 0.7, 0.8, 1.1]))
        assert info.value.context["s"] == 0.8

    def test_state_beyond_range_raises_for_any_element(self):
        solution = integrate(build_problem(SIGMA_JMMS, (1.0,)), 2.0)
        assert solution.sigma_at(np.array([0.05, 1.0, 2.0])).shape == (3,)
        with pytest.raises(ArgumentError):
            solution.sigma_at(np.array([0.05, 1.0, 2.5]))
        with pytest.raises(ArgumentError):
            solution.log_integral_at(np.array([0.05, -1.0]))


# D_plus(s) = E1(0; (-s, s)) and D_minus(s): 40-digit mpmath Nystrom
# determinants of the even and odd sine kernels on (-s, s) (Gauss-Legendre
# on (0, s) with kernel S(x - y) +- S(x + y); 36 and 44 nodes agree to 1e-31)
PARITY_REFERENCE = {
    2.0: (1.6803544612527762341e-6, 6.4914600050593899356e-4),
    3.0: (1.4610669070624701492e-12, 1.2973652214544289072e-8),
    4.0: (9.2577377829229067887e-21, 1.895932302928344418e-15),
}


class TestGaudinRoute:
    """E1, E4 and the beta = 1, 4 densities from the bulk trajectory by
    Gaudin's relation log D_pm = (L -/+ I) / 2."""

    # the hard-edge route read 2.2e-9, 9.2e-7 and 4.2e-4 for E1
    @pytest.mark.parametrize("s,rel", [(2.0, 1e-11), (3.0, 5e-9),
                                       (4.0, 2e-6)])
    def test_e1_against_reference(self, s, rel):
        assert painleve.e1_bulk(s) == pytest.approx(
            PARITY_REFERENCE[s][0], rel=rel, abs=0.0)

    # the hard-edge route read 1.8e-10, 5.0e-8 and 1.7e-5 for E4
    @pytest.mark.parametrize("s,rel", [(2.0, 1e-12), (3.0, 1e-10),
                                       (4.0, 5e-8)])
    def test_e4_against_reference(self, s, rel):
        assert painleve.e4_bulk(s) == pytest.approx(
            0.5 * sum(PARITY_REFERENCE[s]), rel=rel, abs=0.0)

    @pytest.mark.parametrize("fn", [painleve.e1_bulk, painleve.e4_bulk,
                                    painleve.p4_direct],
                             ids=["e1_bulk", "e4_bulk", "p4_direct"])
    def test_range(self, fn):
        # the hard-edge compositions raised from s = 5.26 (E1, E4) and 4.79
        # (p4); the bulk trajectory holds to t = 2 pi 6.2 and then fails
        # its checks before t = 2 pi 6.5
        painleve.clear_cache()
        assert math.isfinite(fn(6.2))
        with pytest.raises(NumericError):
            fn(6.5)
        assert painleve._solutions == {}

    @pytest.mark.parametrize("fn", [painleve.e1_bulk, painleve.e4_bulk,
                                    painleve.p1_direct, painleve.p2_direct,
                                    painleve.p4_direct, painleve.p1_gap1],
                             ids=["e1_bulk", "e4_bulk", "p1_direct",
                                  "p2_direct", "p4_direct", "p1_gap1"])
    def test_one_dense_output_call(self, fn, monkeypatch):
        # the grid has points on the series layer, below the densities'
        # series crossover and on the trajectory past it
        fn(3.0)
        calls = []
        original = Dense.__call__

        def counting(dense, t):
            calls.append(len(t))
            return original(dense, t)

        monkeypatch.setattr(Dense, "__call__", counting)
        fn(np.linspace(0.0, 3.0, 301))
        assert len(calls) == 1

    # measured 6.3e-12, 6.0e-12, 7.1e-10 and 9.6e-10; p4 and p1(1; s)
    # cancel D_plus'' against D_minus'' from O(s) to O(s^4)
    @pytest.mark.parametrize("painleve_fn,det_fn,tol", [
        (painleve.p1_direct, fredholm.p1_det, 5e-11),
        (painleve.p2_direct, fredholm.p2_det, 5e-11),
        (painleve.p4_direct, fredholm.p4_det, 2e-9),
        (painleve.p1_gap1, fredholm.p1_gap1_det, 2e-9),
    ], ids=["p1", "p2", "p4", "p1_gap1"])
    def test_densities_across_the_series_crossover(self, painleve_fn,
                                                   det_fn, tol):
        # t = pi s (p1, p2, p1(1; s)) and 2 pi s (p4) pass t_switch = 0.1
        # and the series crossover t = 1; p2 read 2.4e-10 at s = 0.11 when
        # its numerator came from the trajectory from t_switch on
        s = np.arange(0.01, 0.4, 0.01)
        assert routes.max_relative(painleve_fn(s), det_fn(s)) <= tol

    def test_root_series_squares_to_minus_a(self):
        problem = build_problem(SIGMA_JMMS, (1.0,))
        c, r = problem.x_coefficients, problem._root
        k = np.arange(1, len(c) + 1)
        square = painleve._s_mul(painleve._Series(r, 1),
                                 painleve._Series(r, 1), len(c) - 2)
        minus_a = (1.0 - k / 2.0) * c
        assert np.allclose(square.c[2:], minus_a[3:len(c) - 2], rtol=0.0,
                           atol=1e-15)
        for eq, params in CANONICAL_PROBLEMS[1:]:
            assert build_problem(eq, params)._root is None


def _loop_product(a, b, off_a, off_b, order):
    # the term-by-term product loop: c_k += a_i b_(k-i) for increasing i
    n = order - off_a - off_b + 1
    batch = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    out = np.zeros(batch + (n,))
    for i in range(min(a.shape[-1], n)):
        m = min(b.shape[-1], n - i)
        out[..., i:i + m] += a[..., i, None] * b[..., :m]
    return out


class TestSeriesProduct:
    @pytest.mark.parametrize("shape_a,shape_b,off_a,off_b,order", [
        ((9,), (6,), 0, 1, 12),
        ((4, 9), (6,), -1, 2, 7),
        ((9,), (3, 12), 2, 0, 20),
        ((5, 12), (5, 12), 0, 0, 11),
        ((1, 3), (2, 1), 1, 0, 1),
    ])
    def test_bits_match_loop(self, shape_a, shape_b, off_a, off_b, order):
        # terms spanning 30 decades make the sum sensitive to its order
        rng = np.random.default_rng(len(shape_a) + order)
        a = rng.standard_normal(shape_a) * 10.0 ** rng.integers(-15, 15,
                                                                shape_a)
        b = rng.standard_normal(shape_b) * 10.0 ** rng.integers(-15, 15,
                                                                shape_b)
        a[..., 1] = 0.0
        a[..., -1] = -0.0
        b[..., 0] = -0.0
        got = painleve._s_mul(painleve._Series(a, off_a),
                              painleve._Series(b, off_b), order)
        assert got.off == off_a + off_b
        expected = _loop_product(a, b, off_a, off_b, order)
        assert got.c.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("lead_a,tail_a,lead_b,tail_b", [
        (3, 2, 0, 0), (0, 0, 4, 5), (2, 7, 3, 1), (9, 0, 0, 9), (12, 0, 0, 0),
    ])
    def test_zero_spans_match_loop(self, lead_a, tail_a, lead_b, tail_b):
        # runs of zero coefficients at either end of both factors, signed
        # zeros and a factor with no nonzero coefficient within the order
        rng = np.random.default_rng(lead_a + 10 * lead_b)
        a = rng.standard_normal((3, 12)) * 10.0 ** rng.integers(-9, 9, (3, 12))
        b = rng.standard_normal((3, 10)) * 10.0 ** rng.integers(-9, 9, (3, 10))
        a[:, :lead_a] = -0.0
        a[:, a.shape[1] - tail_a:] = 0.0
        b[:, :lead_b] = 0.0
        b[:, b.shape[1] - tail_b:] = -0.0
        for off_a, off_b, order in ((0, 0, 15), (-1, 2, 9), (1, -2, 30)):
            got = painleve._s_mul(painleve._Series(a, off_a),
                                  painleve._Series(b, off_b), order)
            expected = _loop_product(a, b, off_a, off_b, order)
            assert got.c.tobytes() == expected.tobytes()

    def test_square_matches_loop(self):
        a = np.array([[0.0, 0.0, 3.0, -1e-9, 2e7, 0.0],
                      [0.0, 0.0, 3.0, 4e-9, -2e7, 0.0]])
        series = painleve._Series(a, -1)
        got = painleve._s_mul(series, series, 6)
        assert got.c.tobytes() == _loop_product(a, a, -1, -1, 6).tobytes()


class TestMonomialProduct:
    @pytest.mark.parametrize("shape,off,v,e,order", [
        ((8,), 1, 0.5, -1, 12),        # sigma' from sigma: longer than a
        ((3, 9), -3, 1.0, 2, 5),       # t sigma'': truncated
        ((3, 9), 0, -2.5, 0, 4),
        ((2, 6), -2, 0.5, -1, 1),
        ((2, 6), 2, 3.0, 4, 5),        # nothing within the order
    ])
    def test_bits_match_product_by_monomial(self, shape, off, v, e, order):
        rng = np.random.default_rng(sum(shape) + order)
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
        a[..., 0] = -0.0
        a[..., 2] = 0.0
        a[..., 1] = -5e-324             # times 0.5 underflows to -0.0
        series = painleve._Series(a, off)
        mono = painleve._s_mono(v, e, order)
        got = painleve._s_mul_mono(series, v, e, order)
        for expected in (painleve._s_mul(series, mono, order),
                         painleve._s_mul(mono, series, order)):
            assert got.off == expected.off
            assert got.c.shape == expected.c.shape
            assert got.c.tobytes() == expected.c.tobytes()


def _sqrt_loop(c, off, order):
    # the square-root recurrence run on each series alone
    lead = int(np.argmax(np.abs(c[0]) > 1e-300))
    n = order - (off + lead) // 2 + 1
    out = np.zeros((len(c), n))
    for y, row in zip(out, c):
        rel = np.zeros(2 * n)
        m = min(len(row) - lead, 2 * n)
        rel[:m] = row[lead:lead + m]
        y[0] = np.sqrt(rel[0])
        for k in range(1, n):
            y[k] = (rel[k] - np.dot(y[1:k], y[k - 1:0:-1])) / (2.0 * y[0])
    return out


class TestSquareRoot:
    @pytest.mark.parametrize("off,lead,order", [(0, 0, 30), (1, 1, 20),
                                                (-4, 2, 12)])
    def test_shared_prefixes_equal_row_loop(self, off, lead, order):
        # each row of a batch gets the bits of the recurrence run on it
        # alone; rows differ from row 0 first at different indices: the
        # leading coefficient, the middle, the last used one, only past the
        # used ones, nowhere, and by the sign of a zero
        rng = np.random.default_rng(order)
        width = 2 * order + 8
        base = rng.standard_normal(width) * 10.0 ** rng.integers(-6, 6, width)
        base[:lead] = 0.0
        base[lead] = 2.5
        base[lead + 1:lead + 5] = 0.0   # root coefficients 1..4 are +0.0
        n = order - (off + lead) // 2 + 1
        rows = [base.copy() for _ in range(8)]
        rows[1][lead] = 0.7
        rows[2][lead + 2] = 1.0
        rows[3][lead + n // 2] = 1.0
        rows[4][lead + n - 1] += 1.0
        rows[5][lead + n + 1] = 5.0
        rows[6][lead + 4] = -0.0        # root coefficient 4 is -0.0
        rows[7][lead + 3] = 1.0
        rows[7][lead + 6] = -1.0
        c = np.array(rows)
        got = painleve._s_sqrt(painleve._Series(c, off), order)
        assert got.off == (off + lead) // 2
        assert got.c.tobytes() == _sqrt_loop(c, off, order).tobytes()
        # a batch of one, and rows ahead of row 0
        for batch in (c[3:4], c[::-1]):
            got = painleve._s_sqrt(painleve._Series(batch, off), order)
            assert got.c.tobytes() == _sqrt_loop(batch, off, order).tobytes()


class TestProblemMemo:
    # SHA-256 of x_coefficients recorded before the derivation was batched
    DIGESTS = [
        (SIGMA_JMMS, (1.0,),
         "f009526f9275cef47bf671ddc45eef20e4f814cff6dc8facf17e0eddc8d77ddf"),
        (SIGMA_HARD, (-0.5, 0.0, 1.0),
         "a4f9122150da5a3aa7ec0b4a7b6f77dd37114fe615f463d34078d10e96eddd3c"),
        (SIGMA_HARD, (0.5, 0.0, 1.0),
         "0358a02902a95cb8670cb3faa28b2275a3078aec8b1f73742710e5eea01aa5f4"),
        (SIGMA_HARD, (-0.5, 2.0, 1.0),
         "9350db3981839d89059e9243689c1064fad9397433d77f05ba01f4b17408af6c"),
        (SIGMA_HARD, (0.5, 2.0, 1.0),
         "8ec63e1beadd23ef049293531f1d9378dbc5c408e2f52a22b25cb98cf0bd6c2f"),
        (SIGMA_NN, (0.0, 1.0),
         "f009526f9275cef47bf671ddc45eef20e4f814cff6dc8facf17e0eddc8d77ddf"),
        (SIGMA_NN, (1.0, 1.0),
         "d9aaeb4ca89a6baa7931648123a08be1100ea9fc6afa43d4f6f88ff4ea108600"),
    ]

    # recorded before the monomial shifts, the one-pass first action and the
    # shared square-root prefixes (the 60-order row when the mu = 2 hard-edge
    # id took over the beta = 1 transcendent); xi != 1 makes the SIGMA_NN
    # square root sum terms of mixed size, where the summation order shows
    # in the bits
    MORE_DIGESTS = [
        (SIGMA_JMMS, (0.37,), 44,
         "ef947c313318253655ce2bb82eb4710857b040a7a17aa49ecba8a4c16679be5e"),
        (SIGMA_HARD, (-0.5, 0.0, 0.77), 44,
         "d0ed70e8b78eef520dee71d7b3d5170f1b37e9bc54475576e60618f33a74a5d7"),
        (SIGMA_HARD, (0.5, 0.0, 0.77), 44,
         "67bb91300e78cf569185197d748400b76e185f7b9bb903d9e98be06cd24816f5"),
        (SIGMA_NN, (1.0, 0.3), 44,
         "05285f29509cea81188d441fa181bca6ef1ca10e27448cb7fcf91ef1198296f6"),
        (SIGMA_NN, (1.0, 0.05), 44,
         "56a3e18668f9942006a3977e349912adf4806a68d499bc8ce5992b6de8ea3b91"),
        (SIGMA_NN, (0.0, 0.8), 44,
         "d95a835dfc5dc82f03f9e362601858dcd5e8849ceb97252f6291a48abf71ef7d"),
        (SIGMA_HARD, (-0.5, 2.0, 1.0), 60,
         "c5a04f7fb708989b37e7c0d2e592e32d65a4dbbb98f19e54e198ac6d61f4a700"),
    ]

    @pytest.mark.parametrize("eq,params,digest", DIGESTS,
                             ids=[f"{e}{p}" for e, p, _ in DIGESTS])
    def test_coefficients_unchanged(self, eq, params, digest):
        painleve.clear_cache()
        coeffs = build_problem(eq, params).x_coefficients
        assert hashlib.sha256(coeffs.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "eq,params,n_terms,digest", MORE_DIGESTS,
        ids=[f"{e}{p}-{n}" for e, p, n, _ in MORE_DIGESTS])
    def test_more_coefficients_unchanged(self, eq, params, n_terms, digest):
        painleve.clear_cache()
        coeffs = build_problem(eq, params, n_terms=n_terms).x_coefficients
        assert hashlib.sha256(coeffs.tobytes()).hexdigest() == digest

    def test_memoised_and_read_only(self):
        painleve.clear_cache()
        params = (-0.5, 2.0, 1.0)
        problem = build_problem(SIGMA_HARD, params)
        assert build_problem(SIGMA_HARD, params, 0.1, 44) is problem
        assert build_problem(SIGMA_HARD, params, n_terms=30) is not problem
        with pytest.raises(ValueError):
            problem.x_coefficients[0] = 1.0
        painleve.clear_cache()
        again = build_problem(SIGMA_HARD, params)
        assert again is not problem
        assert np.array_equal(again.x_coefficients, problem.x_coefficients)


def _first_action_loop(c):
    # where the unknown that rows 1 and 2 of c probe first acts, order by
    # order in Python floats: (index, beta, alpha), or None
    tol = painleve._ACTION_TOL * max(1.0, *np.max(np.abs(c), axis=1).tolist())
    for i, (r0, rp, rm) in enumerate(zip(*c.tolist())):
        beta, alpha = (rp - rm) / 2.0, (rp + rm - 2.0 * r0) / 2.0
        if abs(beta) > tol or abs(alpha) > tol:
            return i, beta, alpha
    return None


def _assert_first_action_equals_loop(c, off, order):
    # c: a base row and one probe pair
    got = painleve._first_action(painleve._Series(c, off), order)
    expected = _first_action_loop(c[:, :order - off + 1])
    assert _bits(got or ()) == _bits(expected or ())
    return got


class TestFirstActions:
    PROBLEMS = ([(eq, params, 44) for eq, params, _ in TestProblemMemo.DIGESTS]
                + [row[:3] for row in TestProblemMemo.MORE_DIGESTS
                   if row[2] == 44])
    # the series derived past 44 orders; a test of their own keeps their ids
    # apart from the 44-order rows' where reports cut ids to 100 characters
    LONGER = [row[:3] for row in TestProblemMemo.MORE_DIGESTS if row[2] > 44]

    @pytest.mark.parametrize("eq,params,order", PROBLEMS,
                             ids=[f"{e}{p}-{n}" for e, p, n in PROBLEMS])
    def test_pinned_orders_are_the_resonances(self, eq, params, order):
        self._assert_pinned_orders_are_the_resonances(eq, params, order)

    @pytest.mark.parametrize("eq,params,order", LONGER,
                             ids=[f"{n}-{e}{p}" for e, p, n in LONGER])
    def test_pinned_orders_of_longer_series(self, eq, params, order):
        self._assert_pinned_orders_are_the_resonances(eq, params, order)

    @staticmethod
    def _assert_pinned_orders_are_the_resonances(eq, params, order):
        # replay the derivation, probing c_e and c_(e+1) where the matcher
        # meets c_e: the orders where c_(e+1) acts no later are exactly the
        # pinned ones.  The last two conditioned-origin unknowns at a = 1
        # act only past the series
        par, leading, pinned = painleve._equation_setup(eq, params)
        final = build_problem(eq, params, n_terms=order).x_coefficients
        collisions, silent = set(), set()
        for e in sorted(set(range(1, order + 1)) - set(leading)):
            known = [k < e or k in leading for k in range(1, order + 1)]
            rows = np.repeat(np.where(known, final, 0.0)[None], 5, axis=0)
            rows[1:3, e - 1] = 1.0, -1.0
            if e < order:
                rows[3:, e] = 1.0, -1.0
            R = painleve._residual_series(eq, par, rows, order)
            c = R.c[:, :order - R.off + 1]
            own, later = (_first_action_loop(c[[0, j, j + 1]]) for j in (1, 3))
            if own is None:
                silent.add(e)
            elif later is not None and later[0] <= own[0]:
                collisions.add(e)
        assert collisions == set(pinned)
        nn_a1 = eq == SIGMA_NN and params[0] == 1.0
        assert silent == ({order - 1, order} if nn_a1 else set())

    @pytest.mark.parametrize("seed", range(8))
    def test_thresholds_equal_loop(self, seed):
        # rows whose peaks lie decades apart, and entries spanning 22
        # decades, put actions on both sides of each probe pair's
        # threshold; one row, the base for some seeds, holds a NaN
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((9, 14)) * 10.0 ** rng.uniform(-16, 6, (9, 14))
        c *= 10.0 ** rng.uniform(-8, 8, (9, 1))
        c[:, :2] = 0.0
        c[seed % 5, 2] = np.nan
        for j in (1, 3, 5, 7):
            _assert_first_action_equals_loop(c[[0, j, j + 1]], -2, 9)

    def test_action_at_the_threshold_is_none(self):
        # scale 1, so the threshold is _ACTION_TOL itself: beta equal to it
        # does not act, beta just above it does
        c = np.zeros((3, 6))
        c[0, 1] = painleve._ACTION_TOL
        c[1, 1] = 2.0 * painleve._ACTION_TOL
        assert _assert_first_action_equals_loop(c, 0, 5) is None
        c[1:, 4] = 1.0
        assert _assert_first_action_equals_loop(c, 0, 5)[0] == 4
        c[1, 1] = np.nextafter(2.0 * painleve._ACTION_TOL, 1.0)
        assert _assert_first_action_equals_loop(c, 0, 5)[0] == 1

    def test_one_probe_batch_per_unknown(self, monkeypatch):
        # the a = -1/2, mu = 2 hard-edge series at 44 orders has one leading
        # and one pinned coefficient: 42 unknowns are each probed by one
        # batch of three residuals, and one residual of the result is checked
        shapes, original = [], painleve._residual_series
        monkeypatch.setattr(painleve, "_residual_series", lambda *args: (
            shapes.append(args[2].shape) or original(*args)))
        painleve.clear_cache()
        build_problem(SIGMA_HARD, (-0.5, 2.0, 1.0))
        assert shapes == [(3, 44)] * 42 + [(44,)]


# the hand-written sigma''' and defect of every family, as the route used
# them before each equation was stated once; references for the generic code.
# utilde and vtilde are the beta = 1 and beta = 4 transcendents, which the
# mu = 2 hard-edge equation gives with sigma negated
_REFERENCE = {SIGMA_JMMS: "jmms", SIGMA_HARD: "hard", SIGMA_NN: "nn"}
_EQUATION = {family: eq for eq, family in _REFERENCE.items()}

def _reference_residual_terms(family, par, t, s, sp, spp):
    lead = (t * spp) ** 2
    if family == "jmms":
        A = t * sp - s
        term = 4.0 * A * (A + sp * sp)
        return lead + term, np.maximum(1.0, np.maximum(np.abs(lead),
                                                       np.abs(term)))
    if family == "hard":
        a, mu = par
        t1 = -(mu + a) ** 2 * sp ** 2
        t2 = -sp * (4.0 * sp + 1.0) * (s - t * sp)
        t3 = -mu * (mu + a) / 2.0 * sp - mu * mu / 16.0
        scale = np.maximum(1.0, np.max(np.abs(np.stack(
            np.broadcast_arrays(lead, t1, t2, t3))), axis=0))
        return lead + t1 + t2 + t3, scale
    if family == "nn":
        a = par[0]
        w = a * a - t * sp + s
        wc = np.maximum(w, 0.0)
        term = -4.0 * w * (sp ** 2 - (a - np.sqrt(wc)) ** 2)
        return lead + term, np.maximum(1.0, np.maximum(np.abs(lead),
                                                       np.abs(term)))
    if family == "utilde":
        t1 = -(4.0 * sp ** 2 - sp) * (t * sp - s)
        t2 = -2.25 * sp ** 2 + 1.5 * sp - 0.25
        scale = np.maximum(1.0, np.max(np.abs(np.stack(
            np.broadcast_arrays(lead, t1, t2))), axis=0))
        return lead + t1 + t2, scale
    assert family == "vtilde"
    t1 = -6.25 * sp ** 2 + (sp - 4.0 * sp ** 2) * (t * sp - s)
    t2 = 2.5 * sp - 0.25
    scale = np.maximum(1.0, np.max(np.abs(np.stack(
        np.broadcast_arrays(lead, t1, t2))), axis=0))
    return lead + t1 + t2, scale


def _reference_third_derivative(family, par, t, s, sp, spp):
    if family == "jmms":
        A = t * sp - s
        return (-spp / t - 2.0 * (A + sp * sp) / t
                - 2.0 * A * (t + 2.0 * sp) / (t * t))
    if family == "hard":
        a, mu = par
        brk = (2.0 * (mu + a) ** 2 * sp + (8.0 * sp + 1.0) * (s - t * sp)
               - t * (4.0 * sp ** 2 + sp) + mu * (mu + a) / 2.0)
        return -spp / t + brk / (2.0 * t * t)
    if family == "nn":
        a = par[0]
        w = max(a * a - t * sp + s, 0.0)
        root = math.sqrt(w)
        return (-spp / t - (2.0 / t) * (sp * sp - (a - root) ** 2)
                + 4.0 * w * sp / (t * t) - (2.0 / t) * root * (a - root))
    if family == "utilde":
        brk = ((8.0 * sp - 1.0) * (t * sp - s) + t * (4.0 * sp ** 2 - sp)
               + 4.5 * sp - 1.5)
        return -spp / t + brk / (2.0 * t * t)
    assert family == "vtilde"
    brk = (12.5 * sp - (1.0 - 8.0 * sp) * (t * sp - s)
           - t * (sp - 4.0 * sp ** 2) - 2.5)
    return -spp / t + brk / (2.0 * t * t)


class TestGenericEquation:
    # every canonical (equation, params) pair, and small xi where the states
    # are small and the complex step's h^2 must stay negligible; the mu = 0
    # hard-edge rows at small xi are in a test of their own, whose ids stay
    # apart from the xi = 1 rows' where reports cut ids to 100 characters
    PROBLEMS = [(eq, params) for eq, params, _ in TestProblemMemo.DIGESTS] + [
        (SIGMA_JMMS, (0.05,)), (SIGMA_NN, (0.0, 0.05)), (SIGMA_NN, (1.0, 0.05)),
    ]

    @staticmethod
    def _trajectory_states(problem):
        solution = integrate(problem, 12.0)
        ts = np.linspace(problem.t_switch, 12.0, 150)
        return ts, np.array([solution._state(ts, k) for k in range(3)])

    @staticmethod
    def _arbitrary_states(seed):
        # states of mixed sizes and signs, off any trajectory
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.1, 50.0, 400)
        return t, [rng.standard_normal(400) * 10.0 ** rng.uniform(-3, 3, 400)
                   for _ in range(3)]

    @pytest.mark.parametrize("eq,params", PROBLEMS, ids=str)
    def test_agrees_with_hand_written_forms(self, eq, params):
        self._assert_agrees_with_hand_written_forms(eq, params)

    @pytest.mark.parametrize("a", [-0.5, 0.5], ids=str)
    def test_hard_edge_agrees_at_small_xi(self, a):
        self._assert_agrees_with_hand_written_forms(SIGMA_HARD, (a, 0.0, 0.05))

    def _assert_agrees_with_hand_written_forms(self, eq, params):
        problem = build_problem(eq, params)
        family, par = _REFERENCE[eq], problem._par
        ts, states = self._trajectory_states(problem)
        for t, (s, sp, spp) in zip(ts.tolist(), states.T.tolist()):
            got = painleve._third_derivative(eq, par, t, s, sp, spp)
            ref = _reference_third_derivative(family, par, t, s, sp, spp)
            larger = max(abs(spp / t), abs(ref + spp / t))
            assert abs(got - ref) <= 1e-11 * larger
        got_r, got_scale = painleve._residual_terms(eq, par, ts, *states)
        ref_r, ref_scale = _reference_residual_terms(family, par, ts, *states)
        assert np.all(np.abs(got_scale - ref_scale) <= 1e-11 * ref_scale)
        assert np.all(np.abs(got_r - ref_r) <= 1e-11 * ref_scale)

    @pytest.mark.parametrize("family,par", [
        ("jmms", ()), ("hard", (-0.5, 0.0)), ("hard", (0.5, 2.0)),
        ("nn", (0.0,)), ("nn", (1.0,)),
    ], ids=str)
    def test_defect_scale_at_arbitrary_states(self, family, par):
        # the groups of G cancel each other at these states, so the scale
        # shows the grouping
        t, (s, sp, spp) = self._arbitrary_states(len(family) + len(par))
        if par == (0.0,):
            # at a = 0 the square root drops out, (a - sqrt(w))^2 = w, which
            # holds for w >= 0, as on every trajectory of that family
            s = np.where(s - t * sp < 0.0, 2.0 * t * sp - s, s)
        got_r, got_scale = painleve._residual_terms(_EQUATION[family], par, t,
                                                    s, sp, spp)
        ref_r, ref_scale = _reference_residual_terms(family, par, t, s, sp,
                                                     spp)
        assert np.all(np.abs(got_scale - ref_scale) <= 1e-12 * ref_scale)
        assert np.all(np.abs(got_r - ref_r) <= 1e-12 * ref_scale)

    @pytest.mark.parametrize("family,a", [("utilde", -0.5), ("vtilde", 0.5)],
                             ids=["utilde", "vtilde"])
    def test_tilde_forms_are_negated_mu2_hard_edge(self, family, a):
        # on negated states the beta = 1 and beta = 4 forms leave the
        # residual of the mu = 2 hard-edge equation, and its sigma''' up to
        # the sign: on its own trajectory and off any trajectory
        par = (a, 2.0)
        ts, states = self._trajectory_states(
            build_problem(SIGMA_HARD, (a, 2.0, 1.0)))
        for t, (s, sp, spp) in zip(ts.tolist(), states.T.tolist()):
            got = painleve._third_derivative(SIGMA_HARD, par, t, s, sp, spp)
            ref = -_reference_third_derivative(family, (), t, -s, -sp, -spp)
            larger = max(abs(spp / t), abs(ref + spp / t))
            assert abs(got - ref) <= 1e-11 * larger
        for t, (s, sp, spp) in ((ts, states),
                                self._arbitrary_states(len(family))):
            got_r, got_scale = painleve._residual_terms(SIGMA_HARD, par, t,
                                                        s, sp, spp)
            ref_r, ref_scale = _reference_residual_terms(family, (), t, -s,
                                                         -sp, -spp)
            scale = np.maximum(got_scale, ref_scale)
            assert np.all(np.abs(got_r - ref_r) <= 1e-12 * scale)

    def test_square_root_clamped(self):
        # the conditioned-origin square root reads 0 where w <= 0, with a
        # zero derivative on a complex step
        got = painleve._root(np.array([-1.0, 0.0, 4.0]))
        assert got.tolist() == [0.0, 0.0, 2.0]
        assert painleve._root(complex(-1e-3, 1e-30)) == 0j
        assert painleve._root(complex(4.0, 1e-30)).imag == pytest.approx(
            0.25e-30, rel=1e-15)


class TestSmallArguments:
    @pytest.mark.parametrize("painleve_fn,det_fn", [
        (painleve.p1_direct, fredholm.p1_det),
        (painleve.p1_gap1, fredholm.p1_gap1_det),
        (painleve.p4_direct, fredholm.p4_det),
    ], ids=["p1", "p1_gap1", "p4"])
    def test_densities_match_jacobi_route(self, painleve_fn, det_fn):
        # p1(1; s) ~ s^4 and p4 ~ s^4 cancel a p1 term against D''_-, so
        # every digit of p1's series layer shows in their relative accuracy
        for s in (5e-4, 1e-3):
            assert painleve_fn(s) == pytest.approx(det_fn(s), rel=1e-5)

    def test_one_term_series_at_tiny_xi(self):
        # at xi = 1e-8 the derived series is its leading term alone
        s = np.linspace(0.5, 3.0, 6)
        tiny = painleve.e2_bulk(s, xi=1e-8)
        assert np.all(np.abs(tiny - fredholm.e2_bulk_det(s, xi=1e-8)) <= 1e-12)
        # at a = 0 the conditioned-origin form is the translation form
        assert np.all(np.abs(painleve.enn_generating(s / 2.0, 0.0, 1e-8)
                             - tiny) <= 1e-12)

    def test_failed_extension_drops_the_trajectory(self):
        # SIGMA_NN drifts out of the defect bound near t = 40, so stepping
        # it on to p2_nn(7.5)'s t = 47.1 raises at the first bad step; the
        # trajectory keeps its grid and leaves the cache, and the next
        # request starts cold
        painleve.clear_cache()
        cold = painleve.p2_nn(4.0)
        painleve.clear_cache()
        painleve.p2_nn(3.0)
        solution = painleve._solutions[(SIGMA_NN, (1.0, 1.0))]
        grid, dense = solution.grid, solution._dense
        with pytest.raises(ConsistencyError) as info:
            painleve.p2_nn(7.5)
        context = info.value.context
        assert context["equation"] == SIGMA_NN
        assert context["params"] == (1.0, 1.0)
        assert grid[-1] < context["t"] == solution._stepper.t < 41.0
        assert context["defect"] > context["allowed"] == 1e-8
        assert solution.grid is grid and solution._dense is dense
        assert painleve._solutions == {}
        assert painleve.p2_nn(4.0) == cold
