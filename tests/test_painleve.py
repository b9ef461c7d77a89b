"""Sigma-form ODE route: series layers, integration, direct densities."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from spacing_lab import (
    ArgumentError,
    ConsistencyError,
    DerivationError,
    Interval,
    NumericError,
    UnsupportedError,
    fredholm,
    painleve,
    routes,
)
from spacing_lab.kernels import sine_bulk
from spacing_lab.painleve import (
    SIGMA_HARD,
    SIGMA_JMMS,
    SIGMA_NN,
    build_problem,
    integrate,
    series_residual,
)
from spacing_lab.points import from_parities

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
        problem = painleve._derive_problem(SIGMA_HARD, (-0.5, 2.0, 1.0),
                                           1e-8, 5)
        assert series_residual(
            dataclasses.replace(problem, t_switch=1e-3)) <= 1e-8

    def test_conditioned_origin_degenerates_to_translation_form(self):
        # at a=0 the leading term collapses to the plain bulk one, -xi t/pi
        nn = build_problem(SIGMA_NN, (0.0, 1.0)).x_coefficients
        jmms = build_problem(SIGMA_JMMS, (1.0,)).x_coefficients
        (k_nn, *_), (k_j, *_) = np.flatnonzero(nn), np.flatnonzero(jmms)
        assert k_nn == k_j == 1         # x^2 = t
        coeff_nn, coeff_j = nn[k_nn], jmms[k_j]
        assert coeff_nn == pytest.approx(coeff_j, rel=1e-13)
        assert coeff_j == pytest.approx(-1.0 / math.pi, rel=1e-13)

    def test_extend_series_preserves_prefix(self):
        shorter, longer = (painleve._derive_problem(
            SIGMA_JMMS, (1.0,), painleve.DEFAULT_T_SWITCH, order)
            .x_coefficients for order in (30, 40))
        assert np.array_equal(longer[:30], shorter)

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
        assert not problem.x_coefficients.any()
        assert series_residual(problem) == 0.0


class TestIntegration:
    def test_tolerance_refinement(self, monkeypatch):
        # a step 1e-4^(1/36) = 0.77 times as long leaves sigma where it was
        problem = build_problem(SIGMA_JMMS, (1.0,))
        coarse = integrate(problem, 5.0)
        monkeypatch.setattr(painleve, "_STEP_EPS", 1e-24)
        fine = integrate(problem, 5.0)
        assert len(fine.grid) > len(coarse.grid)
        assert abs(coarse.sigma_at(5.0) - fine.sigma_at(5.0)) <= 1e-9

    def test_hard_edge_defect_window(self):
        # the integrator rejects any step whose defect in the original
        # second-order equation exceeds 100x the tolerance, so a completed
        # long integration is itself the defect certificate
        problem = build_problem(SIGMA_HARD, (-0.5, 0.0, 1.0))
        solution = integrate(problem, 30.0)
        assert solution.t_max >= 30.0

    def test_switch_point_halving(self):
        values = []
        for t_switch in (0.1, 0.05):
            problem = build_problem(SIGMA_JMMS, (1.0,), t_switch=t_switch)
            solution = integrate(problem, math.pi)
            values.append(math.exp(solution.log_integral_at(math.pi)))
        assert abs(values[0] - values[1]) <= 1e-9

    def test_conditioned_origin_matches_translation_form_at_a_zero(self):
        nn = integrate(build_problem(SIGMA_NN, (0.0, 1.0)), 6.0)
        jmms = integrate(build_problem(SIGMA_JMMS, (1.0,)), 6.0)
        for t in (0.5, 2.0, 6.0):
            assert abs(nn.sigma_at(t) - jmms.sigma_at(t)) <= 1e-9

    def test_beyond_integrated_range(self):
        problem = build_problem(SIGMA_JMMS, (1.0,))
        solution = integrate(problem, 2.0)
        with pytest.raises(ArgumentError):
            solution.sigma_at(solution.t_max + 0.5)
        with pytest.raises(ArgumentError):
            solution.sigma_at(-1.0)
        with pytest.raises(ArgumentError):
            integrate(problem, 2.0 * painleve._T_BOUND)

    def test_xi_zero_trajectory_stays_zero(self):
        # sigma == 0 solves the equation; t sigma'' vanishes, and every
        # unknown, whose residual vanishes too, stays 0
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
        for component in range(len(cold._end)):
            assert (_bits(warm._state(t, component))
                    == _bits(cold._state(t, component)))

    def test_creeping_requests_near_the_stiff_frontier(self):
        # the a = -1/2, mu = 2 hard-edge trajectory becomes numerically
        # stiff not far past t = (8.1 pi / 2)^2;
        # each extension steps only to the first step past its request, so
        # every requested s stays reachable
        painleve.clear_cache()
        for s in (3.0, 5.0, 7.0, 7.9, 8.1):
            value = painleve._p1_hard(s)
            assert 0.0 <= value < 1.0


class TestBulkEvaluators:
    def test_boundary_values(self):
        assert painleve.e2_bulk(0.0) == 1.0
        # xi = 0 reaches the generating function through the trajectory
        t = np.array([math.pi * 1.3])
        assert painleve._gap(SIGMA_JMMS, (0.0,), t).tolist() == [1.0]
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
        (value,) = painleve._gap(SIGMA_JMMS, (0.5,), np.array([math.pi * 0.8]))
        assert value == pytest.approx(fredholm.fredholm_det(
            sine_bulk(), Interval(-0.4, 0.4), 0.5), abs=1e-8)

    def test_hard_edge_boundary_value(self):
        assert painleve.e2_hard(0.0, -0.5) == 1.0

    def test_hard_edge_reproduces_even_bulk_determinant(self):
        s = 0.5
        value = painleve.e2_hard((math.pi * s) ** 2, -0.5)
        assert value == pytest.approx(fredholm.e1_bulk_det(s), abs=1e-6)

    def test_hard_edge_against_bessel_determinant(self):
        # at a = +1/2 the Bessel kernel on (0, t) is, in p = sqrt(x), the
        # odd sine kernel on (-sqrt(t)/pi, sqrt(t)/pi)
        value = painleve.e2_hard(2.0, 0.5)
        r = math.sqrt(2.0) / math.pi
        det = fredholm.parity_split(Interval(-r, r))[1]
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

    @pytest.mark.parametrize("fn", [painleve.p1_direct, painleve.p2_direct,
                                    painleve.p4_direct, painleve.p1_gap1,
                                    painleve.p2_nn],
                             ids=["p1_direct", "p2_direct", "p4_direct",
                                  "p1_gap1", "p2_nn"])
    def test_negative_density_element_raises(self, monkeypatch, fn):
        # every density ends in a product with _exp of its points' log
        # integrals: negated from the third point on, it turns s = 0.8 and
        # 1.1 negative, and the one sign rule names the first of them
        real = painleve._exp

        def sunk(v):
            values = real(v)
            return np.where(np.arange(len(values)) >= 2, -values, values)

        monkeypatch.setattr(painleve, "_exp", sunk)
        assert fn(0.7) >= 0.0
        with pytest.raises(NumericError, match="at s = 0.8 is negative") \
                as info:
            fn(np.array([0.2, 0.7, 0.8, 1.1]))
        assert info.value.context["s"] == 0.8

    def test_state_beyond_range_raises_for_any_element(self):
        solution = integrate(build_problem(SIGMA_JMMS, (1.0,)), 2.0)
        assert solution.sigma_at(np.array([0.05, 1.0, 2.0])).shape == (3,)
        with pytest.raises(ArgumentError):
            solution.sigma_at(np.array([0.05, 1.0, solution.t_max + 0.5]))
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

# E2(0; s): 45-digit mpmath Nystrom determinants of the sine kernel on an
# interval of length s (the 56- and 64-node rules agree to 1e-33)
E2_REFERENCE = {
    4.0: 1.09079537795455e-9,
    5.0: 1.5533889914470122e-14,
    6.0: 1.8955373914408391e-20,
    7.0: 1.975570909414167e-27,
    8.0: 1.7552044114683772e-35,
}


class TestReferenceTable:
    """The ODE route against the literals; the route read, relative:
    - E2 at s = 4..8: 2.0e-13, 3.8e-12, 7.8e-11, 1.7e-9, 3.6e-8;
    - D_plus = e2_hard((pi s)^2, -1/2) at s = 2, 3, 4: -2.5e-11, -1.1e-8,
      -4.8e-6; D_minus = e2_hard((pi s)^2, 1/2): 3.3e-14, 8.2e-12, 2.7e-9.
    DOP853 read +2.8e-12, 5.7e-11, 1.2e-9, 2.5e-8, 5.4e-7 (E2), -2.2e-9,
    -9.2e-7, -4.2e-4 (D_plus) and 1.9e-10, 5.1e-8, 1.7e-5 (D_minus).
    The E2 error is the start state's rounding grown by the equation's
    instability: a last-bit change of one component of the state at
    t_switch moved it by up to 4.0e-12, 8.2e-11, 1.7e-9, 3.6e-8 and
    7.7e-7 at s = 4..8, and up to 9e-12 at s = 4 under an earlier step
    rule.  So each E2 bound is 3 x 9e-12 at s = 4, scaled with s as that
    spread is, and admits DOP853's errors; each D_plus and D_minus bound
    is 3x the error above (rounded up) and refuses DOP853's."""

    @pytest.mark.parametrize("s,rel", [(4.0, 2.7e-11), (5.0, 5.5e-10),
                                       (6.0, 1.2e-8), (7.0, 2.5e-7),
                                       (8.0, 5.2e-6)])
    def test_e2_bulk(self, s, rel):
        assert painleve.e2_bulk(s) == pytest.approx(E2_REFERENCE[s], rel=rel,
                                                    abs=0.0)

    @pytest.mark.parametrize("s,rel", [(2.0, 7.5e-11), (3.0, 3.3e-8),
                                       (4.0, 1.5e-5)])
    def test_hard_edge_even(self, s, rel):
        assert painleve.e2_hard((math.pi * s) ** 2, -0.5) == pytest.approx(
            PARITY_REFERENCE[s][0], rel=rel, abs=0.0)

    @pytest.mark.parametrize("s,rel", [(2.0, 1e-13), (3.0, 2.5e-11),
                                       (4.0, 8.1e-9)])
    def test_hard_edge_odd(self, s, rel):
        assert painleve.e2_hard((math.pi * s) ** 2, 0.5) == pytest.approx(
            PARITY_REFERENCE[s][1], rel=rel, abs=0.0)


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

    def test_trajectory_ends_at_40(self):
        # its start's rounding moves E1 by 8% there; the last step is cut
        # to end on it, for a warm trajectory as for a cold one
        painleve.clear_cache()
        assert painleve.e2_bulk(12.7) > 0.0      # t = 39.9
        warm = painleve._solutions[painleve._GAUDIN]
        assert warm.t_max == math.sqrt(40.0) ** 2
        cold = integrate(build_problem(SIGMA_JMMS, (1.0,)), 40.0)
        assert np.array_equal(warm.grid, cold.grid)
        with pytest.raises(ConsistencyError):
            integrate(cold.problem, 40.01)

    @pytest.mark.parametrize("fn", [painleve.e1_bulk, painleve.e4_bulk,
                                    painleve.p4_direct],
                             ids=["e1_bulk", "e4_bulk", "p4_direct"])
    def test_range(self, fn):
        # the hard-edge compositions raised from s = 5.26 (E1, E4) and 4.79
        # (p4); the bulk trajectory ends at t = 40 = 2 pi 6.366
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
        original = painleve._horner

        def counting(pieces, i, u):
            calls.append(np.shape(u))
            return original(pieces, i, u)

        monkeypatch.setattr(painleve, "_horner", counting)
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
        root = painleve._Series(r, 1, len(c) - 2)
        square = root * root
        minus_a = (1.0 - k / 2.0) * c
        assert np.allclose(square.c[2:], minus_a[3:len(c) - 2], rtol=0.0,
                           atol=1e-15)
        for eq, params in CANONICAL_PROBLEMS[1:]:
            assert build_problem(eq, params)._root is None


# each route's D_pm and D_pm'' (points.from_parities)
PARITY_ROUTES = {"fredholm": fredholm._parities,
                 "gaudin": painleve._gaudin_parities,
                 "hard_edge": painleve._hard_parities}


class TestParityIdentities:
    """The five identities of points.PARITY_IDENTITIES, which every route
    shares, so no cross-route criterion would see a wrong one: E1 and E4
    against the 40-digit determinants (the bulk route in TestGaudinRoute),
    each bound 3x the relative error the route read, rounded up:
    - fredholm E1 -8.9e-13, -4.9e-9, +1.2e-6 and E4 +1.2e-13, -3.0e-12,
      +6.5e-9 at s = 2, 3 and 4;
    - hard edge E1 -2.5e-11, -1.1e-8, -4.8e-6 and E4 -3.2e-14, +7.0e-12,
      +2.7e-9;
    and the densities at s = 1e-3 against their leading terms, which every
    route read within 2.4e-6."""

    @pytest.mark.parametrize("route,s,rel", [
        ("fredholm", 2.0, 2.7e-12), ("fredholm", 3.0, 1.5e-8),
        ("fredholm", 4.0, 3.7e-6), ("hard_edge", 2.0, 7.5e-11),
        ("hard_edge", 3.0, 3.2e-8), ("hard_edge", 4.0, 1.5e-5)])
    def test_e1_against_reference(self, route, s, rel):
        assert from_parities("E1", s, PARITY_ROUTES[route]) == pytest.approx(
            PARITY_REFERENCE[s][0], rel=rel, abs=0.0)

    @pytest.mark.parametrize("route,s,rel", [
        ("fredholm", 2.0, 3.6e-13), ("fredholm", 3.0, 9.1e-12),
        ("fredholm", 4.0, 2e-8), ("hard_edge", 2.0, 1e-13),
        ("hard_edge", 3.0, 2.1e-11), ("hard_edge", 4.0, 8.2e-9)])
    def test_e4_against_reference(self, route, s, rel):
        assert from_parities("E4", s, PARITY_ROUTES[route]) == pytest.approx(
            0.5 * sum(PARITY_REFERENCE[s]), rel=rel, abs=0.0)

    # p1 = D_plus''(s/2) / 4, p4 = (D_plus'' + D_minus'')(s) / 2 and
    # p1(1; s) = p4(0; s/2) / 2, each to relative O(s^2)
    @pytest.mark.parametrize("quantity,leading", [
        ("p1", math.pi ** 2 * 1e-3 / 6.0),
        ("p4", 16.0 * math.pi ** 4 * 1e-12 / 135.0),
        ("p1gap", math.pi ** 4 * 1e-12 / 270.0)], ids=["p1", "p4", "p1gap"])
    @pytest.mark.parametrize("route", list(PARITY_ROUTES))
    def test_density_leading_term(self, route, quantity, leading):
        assert from_parities(quantity, 1e-3, PARITY_ROUTES[route]) == \
            pytest.approx(leading, rel=1e-4)

    def test_hard_edge_even_quantities_integrate_only_even_trajectories(
            self, monkeypatch):
        # E1 reads D_plus at mu = 0 and p1 D_plus'' at mu = 2, both a = -1/2
        painleve.clear_cache()
        integrated = []
        original = painleve.integrate

        def record(problem, t_max, *args):
            integrated.append(problem.params)
            return original(problem, t_max, *args)

        monkeypatch.setattr(painleve, "integrate", record)
        grid = np.array([0.5, 1.5])
        from_parities("E1", grid, painleve._hard_parities)
        from_parities("p1", grid, painleve._hard_parities)
        assert integrated == [(-0.5, 0.0, 1.0), (-0.5, 2.0, 1.0)]


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
        got = painleve._s_mul(painleve._Series(a, off_a, order),
                              painleve._Series(b, off_b, order))
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
            got = painleve._s_mul(painleve._Series(a, off_a, order),
                                  painleve._Series(b, off_b, order))
            expected = _loop_product(a, b, off_a, off_b, order)
            assert got.c.tobytes() == expected.tobytes()

    def test_square_matches_loop(self):
        a = np.array([[0.0, 0.0, 3.0, -1e-9, 2e7, 0.0],
                      [0.0, 0.0, 3.0, 4e-9, -2e7, 0.0]])
        series = painleve._Series(a, -1, 6)
        got = painleve._s_mul(series, series)
        assert got.c.tobytes() == _loop_product(a, a, -1, -1, 6).tobytes()


class TestSeriesArithmetic:
    @staticmethod
    def _combinations(x, y):
        # + - and unary - of two series, and of a series with floats
        return (x + y, y + x, x - y, y - x, -x, -y, x + 2.5, x - 2.5,
                2.5 - x, -0.0 - y, x * 3.0, -0.5 * y)

    def test_batch_rows_equal_rows_alone(self):
        # operands of different off, signed zeros and terms spanning 30
        # decades; y's order is below x's, and a result keeps the lower
        rng = np.random.default_rng(17)
        a = rng.standard_normal((3, 9)) * 10.0 ** rng.integers(-15, 15, (3, 9))
        b = rng.standard_normal((3, 5)) * 10.0 ** rng.integers(-15, 15, (3, 5))
        a[:, 1] = -0.0
        a[1, 3] = -a[1, 3]
        b[:, 0] = -0.0
        b[2, 2] = 0.0
        batch = self._combinations(painleve._Series(a, -2, 7),
                                   painleve._Series(b, 1, 6))
        for row in range(3):
            alone = self._combinations(painleve._Series(a[row], -2, 7),
                                       painleve._Series(b[row], 1, 6))
            for got, expected in zip(batch, alone):
                assert (got.off, got.order) == (expected.off, expected.order)
                assert got.c[row].tobytes() == expected.c.tobytes()

    def test_sum_aligns_exponents(self):
        x = painleve._Series([1.0, 2.0, 3.0, 4.0], -1, 3)
        y = painleve._Series([10.0, 20.0, 30.0, 40.0], 1, 3)
        total = x + y - 0.5
        assert (total.off, total.order) == (-1, 3)
        assert total.c.tolist() == [1.0, 1.5, 13.0, 24.0, 30.0]
        assert (0.5 - x).c.tolist() == [-1.0, -1.5, -3.0, -4.0, 0.0]
        short = painleve._Series([1.0], 0, 2)
        assert (short + y).order == (y + short).order == (y * short).order == 2
        assert (y + short).c.tolist() == [1.0, 10.0, 20.0]


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
        # either factor order gives a shifted, scaled copy: every term but
        # a_k v is an exact zero, so coefficient k is a_k * v + 0.0
        series = painleve._Series(a, off, order)
        mono = painleve._Series([v], e, order)
        first, second = mono * series, series * mono
        assert first.off == second.off
        assert first.c.tobytes() == second.c.tobytes()
        n = order - off - e + 1
        if n > 0:
            copy = np.zeros(shape[:-1] + (n,))
            m = min(shape[-1], n)
            copy[..., :m] = a[..., :m] * v + 0.0
            assert first.off == off + e
            assert first.c.shape == copy.shape
            assert first.c.tobytes() == copy.tobytes()


def _sqrt_loop(c, off, order):
    # the square-root recurrence run on each series alone, its sums taken
    # term by term in increasing index from +0.0
    lead = int(np.argmax(np.abs(c[0]) > 1e-300))
    n = order - (off + lead) // 2 + 1
    out = np.zeros((len(c), n))
    for y, row in zip(out, c):
        rel = np.zeros(2 * n)
        m = min(len(row) - lead, 2 * n)
        rel[:m] = row[lead:lead + m]
        y[0] = np.sqrt(rel[0])
        for k in range(1, n):
            total = 0.0
            for i in range(1, k):
                total += y[i] * y[k - i]
            y[k] = (rel[k] - total) / (2.0 * y[0])
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
        got = painleve._s_sqrt(painleve._Series(c, off, order))
        assert got.off == (off + lead) // 2
        assert got.c.tobytes() == _sqrt_loop(c, off, order).tobytes()
        # a batch of one, and rows ahead of row 0
        for batch in (c[3:4], c[::-1]):
            got = painleve._s_sqrt(painleve._Series(batch, off, order))
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
    # in the bits: its two a = 1 rows were recorded again when those sums
    # became term by term, with no BLAS dot, and moved by at most 8.3e-16
    # and 1.6e-14 relative (the second on a coefficient of 5e-19)
    MORE_DIGESTS = [
        (SIGMA_JMMS, (0.37,), 44,
         "ef947c313318253655ce2bb82eb4710857b040a7a17aa49ecba8a4c16679be5e"),
        (SIGMA_HARD, (-0.5, 0.0, 0.77), 44,
         "d0ed70e8b78eef520dee71d7b3d5170f1b37e9bc54475576e60618f33a74a5d7"),
        (SIGMA_HARD, (0.5, 0.0, 0.77), 44,
         "67bb91300e78cf569185197d748400b76e185f7b9bb903d9e98be06cd24816f5"),
        (SIGMA_NN, (1.0, 0.3), 44,
         "800f11032bb383b6c72f9b26080ddd97053ea0fa7923b5067d930c3d83ef61f5"),
        (SIGMA_NN, (1.0, 0.05), 44,
         "2d98a775c0e5ece2c8f1f4d1ae1c75af9ff4861c10a46eee4e40e805a3210d9c"),
        (SIGMA_NN, (0.0, 0.8), 44,
         "d95a835dfc5dc82f03f9e362601858dcd5e8849ceb97252f6291a48abf71ef7d"),
        (SIGMA_HARD, (-0.5, 2.0, 1.0), 60,
         "c5a04f7fb708989b37e7c0d2e592e32d65a4dbbb98f19e54e198ac6d61f4a700"),
    ]

    # SHA-256 of the x^1.. coefficients of sqrt(sigma - t sigma') on the
    # xi = 1 bulk trajectory, recorded when the square root's sums became
    # term by term, with no BLAS dot: the even coefficients from x^18 on moved
    # by up to 6e-12 relative, 9e-21 of the largest
    ROOT_DIGEST = (
        "39319aac3ebf005551b7d0b61a3bd8dda99df0043f852b2401df479c8e1b2e85")

    def test_gaudin_root_unchanged(self):
        painleve.clear_cache()
        root = build_problem(SIGMA_JMMS, (1.0,))._root
        assert hashlib.sha256(root.tobytes()).hexdigest() == self.ROOT_DIGEST

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
        coeffs = painleve._derive_problem(
            eq, params, painleve.DEFAULT_T_SWITCH, n_terms).x_coefficients
        assert hashlib.sha256(coeffs.tobytes()).hexdigest() == digest

    def test_memoised_and_read_only(self, monkeypatch):
        painleve.clear_cache()
        params = (-0.5, 2.0, 1.0)
        problem = build_problem(SIGMA_HARD, params)
        assert build_problem(SIGMA_HARD, params, 0.1) is problem
        # the order is read at call time and keys the memo
        monkeypatch.setattr(painleve, "DEFAULT_ORDER", 30)
        shorter = build_problem(SIGMA_HARD, params)
        assert shorter is not problem and len(shorter.x_coefficients) == 30
        monkeypatch.undo()
        assert build_problem(SIGMA_HARD, params) is problem
        with pytest.raises(ValueError):
            problem.x_coefficients[0] = 1.0
        painleve.clear_cache()
        again = build_problem(SIGMA_HARD, params)
        assert again is not problem
        assert np.array_equal(again.x_coefficients, problem.x_coefficients)


class TestStepDigests:
    """SHA-256 of grid, _pieces and _end of each trajectory verify
    integrates, cold, recorded on the relaxed-series steps before the
    series engine became eager."""

    TRAJECTORIES = [
        (SIGMA_JMMS, (1.0,), 40.0, 30, (
            "4830570d37a98ddc93a8732fc5b85f66c2ac2ae94bd40500d56e37eb9732d7dd",
            "52b2dd578b9a2b024e933b7b47ced54566c2521cb1a4ec5576029235bdc306ce",
            "654f07c56ca8b0a4c7fa9e70afd8851afd57421dd5dd9d35b9b49adb90232fbe")),
        (SIGMA_NN, (1.0, 1.0), 8.0 * math.pi, 11, (
            "3e44ad18ab554037b699db5a8fced3511c86eaac511c69e8460175e48539d67b",
            "65cc0fd04c455b3eee11b2bf7c3ca90f1bc58bbe17f210851f86323da24b62ea",
            "28605719e01a98e7cdbd3ff2e392898fa9517a917159c99e8b2e4b6befecddf8")),
        (SIGMA_HARD, (-0.5, 0.0, 1.0), 4.0 * math.pi ** 2, 6, (
            "c3d8c73d264d6e88fb1bdddc7389925249f955e02a9e23461f77a33b98d20fed",
            "f9571df47c970ea85ace8d6766748cd32389721e61f68ef6b7fc51d9db691e9e",
            "616ef1fbeeedbdfb4ffff6a99ddda38369c30974b99ad35f9c1cb17cbb2ff570")),
        (SIGMA_HARD, (-0.5, 2.0, 1.0), 4.0 * math.pi ** 2, 7, (
            "ec0c9c235fbfaebac6b8234b2c9f851737bbac9f295f42958b3f8047d1444f90",
            "a806ff4c2fbaab70037c7841cd8fcca3a8af7bb5f5b7ffd2a1ee5f68b9d1a029",
            "69169e423e54b0b3aa8f11050afa45609247d228e61f680f2cbaeb3fb69979e2")),
        (SIGMA_HARD, (0.5, 0.0, 1.0), 4.0 * math.pi ** 2, 7, (
            "5e8465f4c08526b7f340c072eca6f1b0832525ce07152a3bf9cd0c8191716d0a",
            "1938b808dc805a69e0ed7534f57c50c479d1241bfb3a7fe5009131dab3d40b1c",
            "1ed82a3a2fc0e5866437b9fc9d87100e69f77f02759295d66f419a5ac068ff7b")),
        (SIGMA_HARD, (0.5, 2.0, 1.0), 4.0 * math.pi ** 2, 6, (
            "f15deea716799ccb8979c3ef98c6b082bc7aa21c8c1d4f8f78d674d103fae7a3",
            "e0b86f02fe763f34eba3f229b2f171dc330e15373743930b8d002c74193a6956",
            "ae81b38dd4279aab1e2771aa7a1b62e195bd77e3c358437c2f3d79c562b0ffc9")),
    ]

    @pytest.mark.parametrize("eq,params,t_max,steps,digests", TRAJECTORIES,
                             ids=[f"{e}{p}" for e, p, *_ in TRAJECTORIES])
    def test_steps_unchanged(self, eq, params, t_max, steps, digests):
        painleve.clear_cache()
        solution = integrate(build_problem(eq, params), t_max)
        assert len(solution.grid) == steps + 1
        got = tuple(hashlib.sha256(np.asarray(a, dtype=float).tobytes())
                    .hexdigest() for a in (solution.grid, solution._pieces,
                                           solution._end))
        assert got == digests

    def test_bulk_steps_through_the_crossing(self):
        # the drifted t sigma'' of the xi = 1 bulk trajectory crosses zero
        # at t = 38.21, where 15 steps shrink to 7.7e-6 in x and grow back
        painleve.clear_cache()
        grid = integrate(build_problem(SIGMA_JMMS, (1.0,)), 40.0).grid
        assert np.count_nonzero((grid > 38.2) & (grid < 39.2)) == 15
        assert np.min(np.diff(np.sqrt(grid))) < 1e-5


class TestSmallXiEdge:
    # below xi of about 1e-9 a linear action falls under _ACTION_TOL: at
    # 1e-9 the a = 1/2 hard-edge series is still derived, at 1e-10 the tail
    # check refuses what is left of it
    DIGEST = "e3a243873776a9ac52f37aa60f4af6cfdd473885c678b76a99cac0a64c9f4e9c"

    def test_derived_at_1e_9(self):
        painleve.clear_cache()
        coeffs = build_problem(SIGMA_HARD, (0.5, 0.0, 1e-9)).x_coefficients
        assert hashlib.sha256(coeffs.tobytes()).hexdigest() == self.DIGEST

    def test_refused_at_1e_10(self):
        painleve.clear_cache()
        with pytest.raises(DerivationError, match="series tail"):
            build_problem(SIGMA_HARD, (0.5, 0.0, 1e-10))


def _first_action_loop(c):
    # where the unknown that rows 1 and 2 of c probe first acts, order by
    # order in Python floats: (index, beta, alpha), or None
    tol = painleve._ACTION_TOL * max(1.0, *np.max(np.abs(c), axis=1).tolist())
    for i, (r0, rp, rm) in enumerate(zip(*c.tolist())):
        beta, alpha = (rp - rm) / 2.0, (rp + rm - 2.0 * r0) / 2.0
        if abs(beta) > tol or abs(alpha) > tol:
            return i, beta, alpha
    return None


def _reference_first_action(R):
    # the probe-batch matcher's first action: R is the residual batch of the
    # base (the unknown at 0) and the probes c = +1 and c = -1, and the
    # threshold is _ACTION_TOL times the largest of 1 and the three rows'
    # peaks; (i, beta, alpha) at the first order index i over it, or None
    c = R.c[:, :R.order - R.off + 1]
    R0, Rp, Rm = c
    tol = painleve._ACTION_TOL * max(1.0, *np.max(np.abs(c), axis=1).tolist())
    beta = (Rp - Rm) / 2.0
    alpha = (Rp + Rm - 2.0 * R0) / 2.0
    acts = np.flatnonzero((np.abs(beta) > tol) | (np.abs(alpha) > tol))
    if len(acts) == 0:
        return None
    i = acts[0]
    return i, beta[i], alpha[i]


def _reference_match(eq, params, order):
    # the probe-batch matcher the recurrence replaced: every unknown probed
    # by the full residual of three rows, the unknown at 0, +1 and -1, the
    # root chosen over the whole base row.  Returns the coefficients and
    # each probed unknown's (e, first action index or None)
    par, leading, pinned = painleve._equation_setup(eq, params)
    coeffs, actions = np.zeros(order), []
    for e, v in leading.items():
        coeffs[e - 1] = v
    for e in range(1, order + 1):
        if e in leading:
            continue
        if e in pinned:
            coeffs[e - 1] = pinned[e]
            continue
        rows = np.repeat(coeffs[None], 3, axis=0)
        rows[:, e - 1] = 0.0, 1.0, -1.0
        R = painleve._residual_series(eq, par, rows)
        action = _reference_first_action(R)
        actions.append((e, None if action is None else int(action[0])))
        if action is None:
            continue
        i, beta, alpha = action
        R0 = R.c[0]
        gamma = R0[i]
        if abs(alpha) <= painleve._ACTION_TOL * max(abs(beta), 1.0):
            coeffs[e - 1] = -gamma / beta
        else:
            disc = max(beta * beta - 4.0 * alpha * gamma, 0.0)
            r1 = (-beta + math.sqrt(disc)) / (2.0 * alpha)
            r2 = (-beta - math.sqrt(disc)) / (2.0 * alpha)
            peak = float(np.max(np.abs(R0)))
            if peak < 1e-12 * max(1.0, peak):
                coeffs[e - 1] = r1 if abs(r1) > abs(r2) else r2
            else:
                coeffs[e - 1] = r1 if abs(r1) < abs(r2) else r2
    return coeffs, actions


def _assert_first_action_equals_loop(c, off, order):
    # c: a base row and one probe pair
    got = _reference_first_action(painleve._Series(c, off, order))
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
        final = painleve._derive_problem(
            eq, params, painleve.DEFAULT_T_SWITCH, order).x_coefficients
        collisions, silent = set(), set()
        for e in sorted(set(range(1, order + 1)) - set(leading)):
            known = [k < e or k in leading for k in range(1, order + 1)]
            rows = np.repeat(np.where(known, final, 0.0)[None], 5, axis=0)
            rows[1:3, e - 1] = 1.0, -1.0
            if e < order:
                rows[3:, e] = 1.0, -1.0
            R = painleve._residual_series(eq, par, rows)
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

    def test_threshold_of_one_order(self):
        # the matcher's threshold is _ACTION_TOL times the largest of 1 and
        # the three residuals at the order probed: on the residual a c_j the
        # unknown acts where a exceeds _ACTION_TOL, not at it, and on 3 + a
        # c_j not at a = 2 _ACTION_TOL.  Orders below the first one probed
        # are not looked at, and the probes leave the unknown at 0
        tol = painleve._ACTION_TOL
        for const, a, acts in ((0.0, tol, False),
                               (0.0, np.nextafter(tol, 1.0), True),
                               (3.0, 2.0 * tol, False), (3.0, 4.0 * tol, True)):
            leaf = painleve._Series(np.zeros(4), 0, 3)
            p = painleve._Pass(leaf * a + const, leaf=leaf)
            assert painleve._first_action(p, 0, 1) is None
            got = painleve._first_action(p, 0, 0)
            assert (got is not None) == acts
            if acts:
                assert got[0] == 0
                assert got[1] == pytest.approx(-const / a, rel=1e-6)
            assert leaf._v == [0.0] * 4

    def test_full_residual_once_and_quadratic_work(self, monkeypatch):
        # the a = -1/2, mu = 2 hard-edge series reads every coefficient of
        # its residual once, for the final check, and the coefficients the
        # derivation computes grow about linearly with the order: each
        # unknown costs one residual coefficient per probe.  Doubling the
        # order takes 1218 to 2418; the probe-batch matcher, which computes
        # every coefficient for every unknown, grows quadratically, from 8692
        # to 35392
        reads, evaluations = [], [0]
        full = painleve._Series.c
        monkeypatch.setattr(painleve._Series, "c", property(
            lambda series: reads.append(series) or full.fget(series)))
        for name in ("_sum", "_scale", "_ddt", "_product", "_square_root"):
            def counted(node, k, rule=getattr(painleve, name)):
                evaluations[0] += 1
                return rule(node, k)
            monkeypatch.setattr(painleve, name, counted)
        counts = {}
        for order in (30, 60):
            monkeypatch.setattr(painleve, "DEFAULT_ORDER", order)
            reads.clear()
            evaluations[0] = 0
            painleve.clear_cache()
            build_problem(SIGMA_HARD, (-0.5, 2.0, 1.0))
            assert len(reads) == 1 and reads[0].order == order
            counts[order] = evaluations[0]
        assert counts[60] <= 3 * counts[30]


class TestReferenceMatcher:
    # the recurrence matcher against the probe-batch matcher it replaced,
    # on every problem with a recorded digest
    PROBLEMS = TestFirstActions.PROBLEMS
    LONGER = TestFirstActions.LONGER

    @pytest.mark.parametrize("eq,params,order", PROBLEMS,
                             ids=[f"{e}{p}-{n}" for e, p, n in PROBLEMS])
    def test_agrees_with_probe_batches(self, eq, params, order, monkeypatch):
        self._assert_agrees(eq, params, order, monkeypatch)

    @pytest.mark.parametrize("eq,params,order", LONGER,
                             ids=[f"{n}-{e}{p}" for e, p, n in LONGER])
    def test_longer_series_agrees(self, eq, params, order, monkeypatch):
        self._assert_agrees(eq, params, order, monkeypatch)

    @staticmethod
    def _assert_agrees(eq, params, order, monkeypatch):
        # the same first-action index for every probed unknown, None for
        # the silent ones, and coefficients within 1e-14 relative
        actions, first = [], painleve._first_action

        def recorded(p, j, lo):
            action = first(p, j, lo)
            actions.append((j + 1, None if action is None else action[0]))
            return action

        monkeypatch.setattr(painleve, "_first_action", recorded)
        got = painleve._derive_problem(
            eq, params, painleve.DEFAULT_T_SWITCH, order).x_coefficients
        expected, expected_actions = _reference_match(eq, params, order)
        assert actions == expected_actions
        assert np.all(np.abs(got - expected) <= 1e-14 * np.abs(expected))


# the hand-written defect of every family, as the route used it before each
# equation was stated once; the reference for the generic code.
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


class TestGenericEquation:
    # every canonical (equation, params) pair, and small xi where the states
    # are small; the mu = 0 hard-edge rows at small xi are in a test of
    # their own, whose ids stay apart from the xi = 1 rows' where reports
    # cut ids to 100 characters
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
        # residual of the mu = 2 hard-edge equation: on its own trajectory
        # and off any trajectory
        par = (a, 2.0)
        ts, states = self._trajectory_states(
            build_problem(SIGMA_HARD, (a, 2.0, 1.0)))
        for t, (s, sp, spp) in ((ts, states),
                                self._arbitrary_states(len(family))):
            got_r, got_scale = painleve._residual_terms(SIGMA_HARD, par, t,
                                                        s, sp, spp)
            ref_r, ref_scale = _reference_residual_terms(family, (), t, -s,
                                                         -sp, -spp)
            scale = np.maximum(got_scale, ref_scale)
            assert np.all(np.abs(got_r - ref_r) <= 1e-12 * scale)

    def test_square_root_clamped(self):
        # the conditioned-origin square root reads 0 where w <= 0
        got = painleve._root(np.array([-1.0, 0.0, 4.0]))
        assert got.tolist() == [0.0, 0.0, 2.0]


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
        tiny = painleve._gap(SIGMA_JMMS, (1e-8,), math.pi * s)
        det = [fredholm.fredholm_det(sine_bulk(), Interval(-x / 2.0, x / 2.0),
                                     1e-8) for x in s.tolist()]
        assert np.all(np.abs(tiny - det) <= 1e-12)
        # at a = 0 the conditioned-origin form is the translation form
        assert np.all(np.abs(painleve._gap(SIGMA_NN, (0.0, 1e-8), math.pi * s)
                             - tiny) <= 1e-12)

    def test_failed_extension_drops_the_trajectory(self):
        # SIGMA_NN drifts out of the defect bound at the step that ends at
        # t = 42.47, so stepping it on to p2_nn(7.5)'s t = 47.1 raises at
        # that step; the trajectory keeps its grid and leaves the cache,
        # and the next request starts cold
        painleve.clear_cache()
        cold = painleve.p2_nn(4.0)
        painleve.clear_cache()
        painleve.p2_nn(3.0)
        solution = painleve._solutions[(SIGMA_NN, (1.0, 1.0))]
        grid, pieces = solution.grid, solution._pieces
        with pytest.raises(ConsistencyError) as info:
            painleve.p2_nn(7.5)
        context = info.value.context
        assert context["equation"] == SIGMA_NN
        assert context["params"] == (1.0, 1.0)
        assert grid[-1] < 41.8 < context["t"] < 42.5
        assert context["defect"] > context["allowed"] == 1e-8
        assert solution.grid is grid and solution._pieces is pieces
        assert painleve._solutions == {}
        assert painleve.p2_nn(4.0) == cold
