"""Work done by the verify criteria: Nystrom rule sizes and trajectory fetches.

The pass/fail of each criterion is tested in test_acceptance.py; these
tests pin how much work the criteria do to reach it.
"""

import pytest

from spacing_lab import Interval, fredholm, kernels, painleve, verify


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
        # the product D+ * D- takes the parity split on the node count at
        # which the full determinant converged
        splits = []
        original = fredholm.parity_split

        def recording(interval, n_nodes=None):
            splits.append((interval, n_nodes))
            return original(interval, n_nodes)

        monkeypatch.setattr(fredholm, "parity_split", recording)
        result = verify.check_parity_identities()
        assert result.passed, str(result)
        assert not {n for *_, n in rules} & {240, 320}
        shared = [(iv, n) for iv, n in splits if n is not None]
        expected = []
        for s in (0.5, 1.0):
            iv = Interval(-s, s)
            accepted = fredholm._converged_spectrum(kernels.sine_bulk(), iv)
            n = accepted.nodes_used
            expected.append((iv, n))
            assert {(kernels.sine_even(), iv, n),
                    (kernels.sine_odd(), iv, n)} <= set(rules)
        assert shared == expected
        assert result.details["max_nodes"] == max(n for _, n in shared)


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
    """Faults each route criterion must catch; every one of them passed
    verify when the criteria compared only E2, E1, E4 and Enn."""

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
