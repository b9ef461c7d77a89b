"""Work done by the verify criteria: Nystrom rule sizes and trajectory fetches.

The pass/fail of each criterion is tested in test_acceptance.py; these
tests pin how much work the criteria do to reach it.
"""

import pytest

from spacing_lab import (Interval, NumericError, fredholm, kernels, painleve,
                         sequences, verify)
from spacing_lab.cli import main


@pytest.fixture()
def rules(monkeypatch):
    """Every Nystrom rule built: (kernel, interval, nodes)."""
    built = []
    original = fredholm.nystrom_spectrum

    def recording(kernel, interval, n):
        built.append((kernel, interval, n))
        return original(kernel, interval, n)

    monkeypatch.setattr(fredholm, "nystrom_spectrum", recording)
    return built


@pytest.fixture()
def integrations(monkeypatch):
    """painleve.integrate calls, from a cold trajectory cache."""
    calls = []
    original = painleve.integrate

    def counting(problem, t_max, *args, **kwargs):
        calls.append((problem.equation_id, problem.params))
        return original(problem, t_max, *args, **kwargs)

    painleve.clear_cache()
    monkeypatch.setattr(painleve, "integrate", counting)
    yield calls
    painleve.clear_cache()


class TestConvergedRules:
    def test_sum_rule_uses_converged_spectra(self, rules):
        result = verify.check_sum_rule()
        assert result.passed, str(result)
        sizes = {n for *_, n in rules}
        assert not sizes & {240, 320}
        assert result.details["max_nodes"] == max(sizes)

    def test_parity_rule_is_the_converged_count(self, rules, monkeypatch):
        # the product D+ * D- takes the even and odd spectra on the node
        # count at which the full determinant converged
        shared = []
        original = verify.nystrom_spectrum

        def recording(kernel, interval, n):
            shared.append((kernel, interval, n))
            return original(kernel, interval, n)

        monkeypatch.setattr(verify, "nystrom_spectrum", recording)
        result = verify.check_parity_identities()
        assert result.passed, str(result)
        assert not {n for *_, n in rules} & {240, 320}
        expected = []
        for s in (0.5, 1.0):
            iv = Interval(-s, s)
            accepted = fredholm._converged_spectrum(kernels.sine_bulk(), iv)
            n = accepted.nodes_used
            expected += [(kernels.sine_even(), iv, n),
                         (kernels.sine_odd(), iv, n)]
        assert shared == expected
        assert result.details["max_nodes"] == max(n for *_, n in shared)


class TestTrajectoryFetches:
    def test_dual_route_integrates_each_trajectory_once(self, integrations):
        # the painleve columns take the bulk trajectory; the hard-edge
        # column takes the mu = 0 trajectories for E1 and E4 and the mu = 2
        # ones for p1, p4 and p1(1; s)
        verify.run_all(["e1-e4-dual-route"])
        assert sorted(integrations) == [
            (painleve.SIGMA_HARD, (-0.5, 0.0, 1.0)),
            (painleve.SIGMA_HARD, (-0.5, 2.0, 1.0)),
            (painleve.SIGMA_HARD, (0.5, 0.0, 1.0)),
            (painleve.SIGMA_HARD, (0.5, 2.0, 1.0)),
            (painleve.SIGMA_JMMS, (1.0,))]

    def test_full_suite_integration_count(self, integrations):
        results = verify.run_all()
        assert all(r.passed for r in results)
        # six trajectories once each, and csv-determinism's second
        # tabulate integrates the bulk one again from a cold cache
        assert len(set(integrations)) == 6
        assert integrations[6:] == [(painleve.SIGMA_JMMS, (1.0,))]


class TestMutations:
    """Faults the criteria must catch, each with the criterion that
    catches it.  The scaled densities and equations passed verify when the
    criteria compared only E2, E1, E4 and Enn; the conditioned-origin
    fault stopped verify at its first error, and the sieve fault passed
    every criterion before the window's last prime was pinned."""

    @pytest.mark.parametrize("module, name, factor, criterion, row", [
        (fredholm, "p2_det", 2.0, "e2-cross-route", "p0_beta2"),
        (fredholm, "p2_nn_det", 1.5, "nearest-neighbour-routes", "p2nn"),
        (painleve, "p1_gap1", 1.1, "e1-e4-dual-route", "p1gap"),
    ], ids=["p2_det", "p2_nn_det", "p1_gap1"])
    def test_scaled_density(self, monkeypatch, module, name, factor,
                            criterion, row):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, **k: factor * original(*a, **k))
        [result] = verify.run_all([criterion])
        assert not result.passed, str(result)
        assert result.details[f"worst_{row}"] > result.details["tol"]

    def test_jmms_equation_off_by_1e7(self, monkeypatch):
        # the sigma'^2 term of the JMMS G scaled by 1 + 1e-7: E2 and, by
        # Gaudin's relation, E1 leave their determinants
        def g_faulty(par, s, tsp, sp):
            A = tsp - s
            return ((4.0 * (A * (A + (1.0 + 1e-7) * (sp * sp))),),)

        painleve.clear_cache()
        monkeypatch.setitem(painleve._EQUATIONS, painleve.SIGMA_JMMS,
                            (g_faulty, 1))
        try:
            bulk, parity = verify.run_all(["e2-cross-route",
                                           "e1-e4-dual-route"])
        finally:
            painleve.clear_cache()
        assert not bulk.passed, str(bulk)
        assert bulk.details["worst_E2"] > bulk.details["tol"]
        assert not parity.passed, str(parity)
        assert parity.details["worst_E1"] > parity.details["tol"]
        assert parity.details["worst_hard_E1"] <= parity.details["tol"]

    def test_hard_edge_equation_off_by_1e7(self, monkeypatch):
        # the second group of the hard-edge G scaled by 1 + 1e-7: the
        # hard-edge column of the parity rows sees it, and neither the
        # derivative identity nor the series residuals do
        g = painleve._g_hard

        def g_faulty(par, s, tsp, sp):
            first, second, third = g(par, s, tsp, sp)
            return first, tuple((1.0 + 1e-7) * t for t in second), third

        painleve.clear_cache()
        monkeypatch.setitem(painleve._EQUATIONS, painleve.SIGMA_HARD,
                            (g_faulty, 3))
        try:
            result, *blind = verify.run_all([
                "e1-e4-dual-route", "hard-edge-derivative-identity",
                "series-boundary-layers"])
        finally:
            painleve.clear_cache()
        assert all(r.passed for r in blind), [str(r) for r in blind]
        assert not result.passed, str(result)
        tol = result.details["tol"]
        assert result.details["worst_hard_E1"] > tol
        assert all(result.details[f"worst_{row}"] <= tol
                   for row in verify._HARD_EDGE)

    def test_scaled_determinant_after_a_warm_run(self, monkeypatch):
        # determinants solved by one run are not reused by the next, so a
        # fault introduced between two runs in one process still shows
        assert verify.check_density_stencils().passed
        original = fredholm.fredholm_det
        monkeypatch.setattr(fredholm, "fredholm_det",
                            lambda *a, **k: 1.01 * original(*a, **k))
        result = verify.check_density_stencils()
        assert not result.passed, str(result)
        assert result.details["p1"] > result.details["tol"]

    def test_nn_equation_off_by_1e7(self, monkeypatch, capsys):
        # the conditioned-origin G scaled by 1 + 1e-7: its integrator fails
        # at t = 22.58, which fails nearest-neighbour-routes alone (the
        # series residuals stay small), and every other criterion still
        # reports
        g = painleve._g_nn

        def g_faulty(par, s, tsp, sp):
            ((term,),) = g(par, s, tsp, sp)
            return (((1.0 + 1e-7) * term,),)

        painleve.clear_cache()
        monkeypatch.setitem(painleve._EQUATIONS, painleve.SIGMA_NN,
                            (g_faulty, 2))
        try:
            code = main(["verify"])
        finally:
            painleve.clear_cache()
        results = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("[")]
        assert code == 1
        assert len(results) == 13
        [failed] = [line for line in results if line.startswith("[FAIL]")]
        assert failed.startswith(
            "[FAIL] nearest-neighbour-routes: error=StiffnessError: ")
        assert "t=22.58" in failed

    def test_sieve_dropping_a_prime_per_block(self, monkeypatch):
        # both KS distances stay within tol; only the pinned last prime of
        # the window sees the gap, and no other criterion sieves
        original = sequences._sieve_range
        monkeypatch.setattr(sequences, "_sieve_range",
                            lambda lo, hi: original(lo, hi)[1:])
        results = verify.run_all()
        failed = [r for r in results if not r.passed]
        assert [r.name for r in failed] == ["prime-gap-poisson"]
        details = failed[0].details
        assert details["last_prime"] == 1000041719
        assert details["ks_order0"] <= details["tol"]
        assert details["ks_order1"] <= details["tol"]


class TestRaisingCriterion:
    def test_package_error_fails_only_its_criterion(self, monkeypatch):
        def failing(s, a):
            raise NumericError("no residual")

        monkeypatch.setattr(painleve, "am5_identity_residual", failing)
        identity, series = verify.run_all(["hard-edge-derivative-identity",
                                           "series-boundary-layers"])
        assert not identity.passed
        assert identity.details == {"error": "NumericError: no residual"}
        assert series.passed

    def test_other_exceptions_propagate(self, monkeypatch):
        def failing(s, a):
            raise ZeroDivisionError("a bug")

        monkeypatch.setattr(painleve, "am5_identity_residual", failing)
        with pytest.raises(ZeroDivisionError):
            verify.run_all(["hard-edge-derivative-identity"])
