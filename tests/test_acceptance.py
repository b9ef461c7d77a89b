"""Acceptance gate: the thirteen cross-route criteria.

Each test runs one criterion from the verification suite and asserts it
passes at its pinned tolerance.  The criteria compare independent routes
(Nystrom determinants, sigma-form transcendents, closed forms, sampling,
deterministic sequences), so a regression in any single route trips at
least one of them.
"""

from spacing_lab import verify


def _assert_criterion(result):
    assert result.passed, str(result)


def test_e2_cross_route_within_1e6():
    # sine-kernel determinants vs the sigma route, E2 and p2 at
    # s = 0.25 .. 2.0, relative gap within 1e-7
    _assert_criterion(verify.check_e2_cross_route())


def test_parity_identities():
    # D+ D- = E2 at 1e-10 on a shared rule; log-derivative split at 1e-6
    _assert_criterion(verify.check_parity_identities())


def test_e1_e4_dual_route_within_1e6():
    # parity determinants vs the bulk transcendent by Gaudin's relation,
    # and as a third column vs the hard-edge transcendents: E1, E4, p1, p4
    # and p1(1; s), relative gap within 1e-7
    _assert_criterion(verify.check_e1_e4_dual_route())


def test_direct_densities_match_stencils_within_1e4():
    # p1, p2, p4 vs 5-point second differences of their gap profiles
    _assert_criterion(verify.check_density_stencils())


def test_surmise_tracks_exact_p1_within_002():
    _assert_criterion(verify.check_surmise_accuracy())


def test_p4_equals_doubled_next_nearest_p1_within_5e4():
    _assert_criterion(verify.check_spacing1_identity())


def test_spacing_ladder_sum_rule_within_2e3():
    # sum over n <= 8 of p2(n;s) reproduces the pair correlation
    _assert_criterion(verify.check_sum_rule())


def test_hard_edge_derivative_identity_within_1e7():
    _assert_criterion(verify.check_am5_identity())


def test_series_layers_leave_residual_below_1e8():
    _assert_criterion(verify.check_series_layers())


def test_montecarlo_histograms_pass_chi_square():
    # 2000 rank-13 spectra, fixed seed; p > 0.01 for both spacing orders
    _assert_criterion(verify.check_montecarlo_histograms())


def test_prime_gaps_track_poisson_within_ks_008():
    _assert_criterion(verify.check_prime_gaps())


def test_nearest_neighbour_routes_agree():
    # Enn and its density p2nn within relative 1e-7 of the sigma route;
    # density mass within 1e-3 of 1
    _assert_criterion(verify.check_nn_routes())


def test_csv_output_is_deterministic():
    _assert_criterion(verify.check_csv_determinism())


def test_registry_lists_all_thirteen_criteria():
    # every check above is reachable through run_all / the CLI verify command
    names = [fn.__name__ for fn in verify.ALL_CRITERIA]
    assert names == [
        "check_e2_cross_route",
        "check_parity_identities",
        "check_e1_e4_dual_route",
        "check_density_stencils",
        "check_surmise_accuracy",
        "check_spacing1_identity",
        "check_sum_rule",
        "check_am5_identity",
        "check_series_layers",
        "check_montecarlo_histograms",
        "check_prime_gaps",
        "check_nn_routes",
        "check_csv_determinism",
    ]
