"""Cross-route validation suite.

Every check here compares independent computational routes (determinantal,
nonlinear-ODE, closed-form, empirical) of the same quantity, with pinned
tolerances.  The CLI `verify` command and the acceptance tests both run
these; each function returns a CriterionResult rather than raising on
disagreement.
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass, field

import numpy as np

from . import fredholm, kernels, montecarlo, painleve, routes, sequences
from .errors import ArgumentError, SpacingLabError
from .quadrature import Interval, gauss_legendre, nystrom_spectrum

_MC_SEED = 42


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def __str__(self):
        flag = "PASS" if self.passed else "FAIL"
        parts = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{flag}] {self.name}: {parts}"


# every criterion, in definition order, which is the order run_all runs
ALL_CRITERIA = []


def _criterion(name):
    """Register a check under the name its result prints.  The check
    returns (passed, details); the registered function returns the
    CriterionResult (failing, with ``error`` its one detail, where the
    check raises a SpacingLabError), carries the name as ``criterion``
    and is appended to ALL_CRITERIA."""
    def register(check):
        @functools.wraps(check)
        def run() -> CriterionResult:
            try:
                passed, details = check()
            except SpacingLabError as exc:
                return CriterionResult(
                    name, False, {"error": f"{type(exc).__name__}: {exc}"})
            return CriterionResult(name, passed, details)

        run.criterion = name
        ALL_CRITERIA.append(run)
        return run

    return register


def _fmt(x):
    return float(f"{x:.3g}")


_ROUTE_GRID = np.arange(0.25, 2.01, 0.25)
_ROUTE_TOL = 1e-7

# A third column for the rows whose painleve column comes from the bulk
# trajectory by Gaudin's relation: the same quantity from the hard-edge
# transcendents, so that a fault in their equations still shows.
_HARD_EDGE = {"E1": painleve._e1_hard, "E4": painleve._e4_hard,
              "p0_beta1": painleve._p1_hard, "p0_beta4": painleve._p4_hard,
              "p1gap": painleve._p1_gap1_hard}


def _route_agreement(*rows):
    """The fredholm and painleve columns of each row, a (quantity,
    keywords) pair of the route table, on one grid: their worst relative
    gap per row against one tol, and that of the fredholm and hard-edge
    columns (``hard_<row>``) where _HARD_EDGE has one."""
    worst = {}
    for quantity, keywords in rows:
        label = quantity + "".join(f"_{k}{v}" for k, v in keywords.items())
        det = routes.evaluate(quantity, "fredholm", _ROUTE_GRID, **keywords)
        worst[label] = routes.max_relative(
            det, routes.evaluate(quantity, "painleve", _ROUTE_GRID,
                                 **keywords))
        if label in _HARD_EDGE:
            worst[f"hard_{label}"] = routes.max_relative(
                det, _HARD_EDGE[label](_ROUTE_GRID))
    return (all(gap <= _ROUTE_TOL for gap in worst.values()),
            {f"worst_{k}": _fmt(v) for k, v in worst.items()}
            | {"tol": _ROUTE_TOL})


@_criterion("e2-cross-route")
def check_e2_cross_route():
    """Sine-kernel determinants vs the JMMS transcendent: E2 and p2."""
    return _route_agreement(("E2", {}), ("p0", {"beta": 2}))


@_criterion("parity-identities")
def check_parity_identities():
    """D+ * D- = E2 at 1e-10 (shared rule); log-split recovery at 1e-6.

    The shared rule has the node count at which the full sine-kernel
    determinant on the interval converges."""
    tol_product, tol_split = 1e-10, 1e-6
    worst_product = worst_split = 0.0
    max_nodes = 0
    for s in (0.5, 1.0):
        iv = Interval(-s, s)
        full = fredholm._converged_spectrum(kernels.sine_bulk(), iv)
        n = full.nodes_used
        max_nodes = max(max_nodes, n)
        d_plus, d_minus = (
            fredholm.generating_value(nystrom_spectrum(k, iv, n), 1.0)
            for k in (kernels.sine_even(), kernels.sine_odd()))
        e2 = fredholm.generating_value(full, 1.0)
        worst_product = max(worst_product, abs(d_plus * d_minus - e2))
        g_plus, g_minus = fredholm.gaudin_split(
            lambda x: fredholm.e2_bulk_det(2.0 * x), s)
        converged = fredholm.parity_split(iv)
        worst_split = max(worst_split, abs(g_plus - converged[0]),
                          abs(g_minus - converged[1]))
    ok = worst_product <= tol_product and worst_split <= tol_split
    return (ok,
            {"worst_product": _fmt(worst_product), "tol_product": tol_product,
             "worst_split": _fmt(worst_split), "tol_split": tol_split,
             "max_nodes": max_nodes})


@_criterion("e1-e4-dual-route")
def check_e1_e4_dual_route():
    """Parity determinants vs the bulk transcendent by Gaudin's relation
    and vs the hard-edge transcendents: E1, E4, p1, p4 and the
    next-nearest spacing p1(1; s)."""
    return _route_agreement(("E1", {}), ("E4", {}), ("p0", {"beta": 1}),
                            ("p0", {"beta": 4}), ("p1gap", {}))


@_criterion("density-stencils")
def check_density_stencils():
    """The painleve p0 columns, beta = 1, 2, 4, against 5-point second
    differences of gap profiles."""
    tol = 1e-4
    grid = np.arange(0.2, 2.01, 0.2)
    profiles = {1: lambda u: fredholm.e1_bulk_det(u / 2.0),
                2: fredholm.e2_bulk_det, 4: fredholm.e4_bulk_det}
    worst = {f"p{beta}": float(np.max(np.abs(
        routes.evaluate("p0", "painleve", grid, beta=beta)
        - fredholm._stencil(profile, grid, 2))))
        for beta, profile in profiles.items()}
    ok = all(v <= tol for v in worst.values())
    return ok, {k: _fmt(v) for k, v in worst.items()} | {"tol": tol}


@_criterion("surmise-accuracy")
def check_surmise_accuracy():
    """|p1 - beta=1 surmise| <= 0.02 on [0, 3]."""
    tol = 0.02
    grid = np.arange(0.0, 3.0001, 0.01)
    worst = float(np.max(np.abs(routes.evaluate("p0", "painleve", grid)
                                - routes.evaluate("p0", "surmise", grid))))
    return worst <= tol, {"worst": _fmt(worst), "tol": tol}


@_criterion("spacing1-identity")
def check_spacing1_identity():
    """p4(0;s) = 2 p1(1;2s) with p1(1;.) from the parity determinants."""
    tol = 5e-4
    grid = np.array([0.4, 0.7, 1.0])
    det_p1_gap1 = fredholm.p1_gap1_det(2.0 * grid)
    worst = float(np.max(np.abs(painleve.p4_direct(grid) - 2.0 * det_p1_gap1)))
    return worst <= tol, {"worst": _fmt(worst), "tol": tol}


@_criterion("spacing-sum-rule")
def check_sum_rule():
    """sum_{n<=8} p2(n;s) equals 1 - sinc^2(pi s) within 2e-3 on [0.1, 2].

    Each gap profile comes from the spectrum at which det(1 - K) converges
    on its interval."""
    tol = 2e-3
    weights = np.array([(9 - j) * (10 - j) / 2.0 for j in range(9)])
    nodes = []

    def cumulative(u: np.ndarray) -> np.ndarray:
        spectra = fredholm._converged_spectra(
            kernels.sine_bulk(), [Interval(-x / 2.0, x / 2.0)
                                  for x in u.tolist()])
        nodes.extend(spectrum.nodes_used for spectrum in spectra)
        return np.array([sum(w * fredholm.gap_n(spectrum, j)
                             for j, w in enumerate(weights))
                         for spectrum in spectra])

    grid = np.arange(0.1, 2.001, 0.1)
    target = 1.0 - np.sinc(grid) ** 2     # np.sinc(x) = sin(pi x)/(pi x)
    worst = float(np.max(np.abs(fredholm._stencil(cumulative, grid, 2)
                                - target)))
    return (worst <= tol,
            {"worst": _fmt(worst), "tol": tol, "max_nodes": max(nodes)})


@_criterion("hard-edge-derivative-identity")
def check_am5_identity():
    """Hard-edge derivative identity residual <= 1e-7 at s=1, both orders."""
    tol = 1e-7
    worst = max(abs(painleve.am5_identity_residual(1.0, a))
                for a in (-0.5, 0.5))
    return worst <= tol, {"worst": _fmt(worst), "tol": tol}


@_criterion("series-boundary-layers")
def check_series_layers():
    """Each boundary series leaves relative ODE residual <= 1e-8 at t_switch."""
    tol = 1e-8
    cases = [
        (painleve.SIGMA_JMMS, (1.0,)),
        (painleve.SIGMA_HARD, (-0.5, 0.0, 1.0)),
        (painleve.SIGMA_HARD, (0.5, 0.0, 1.0)),
        (painleve.SIGMA_NN, (1.0, 1.0)),
        (painleve.SIGMA_HARD, (-0.5, 2.0, 1.0)),
        (painleve.SIGMA_HARD, (0.5, 2.0, 1.0)),
    ]
    worst = max(painleve.series_residual(painleve.build_problem(eq, params))
                for eq, params in cases)
    return worst <= tol, {"worst": _fmt(worst), "tol": tol}


@_criterion("montecarlo-central-spacings")
def check_montecarlo_histograms():
    """2000 rank-13 spectra: central spacings match the exact densities."""
    p_floor = 0.01
    unfolded = montecarlo.unfold(
        montecarlo.sample_ensemble(13, 2000, _MC_SEED))
    pooled = montecarlo.central_spacings(unfolded, 0).ravel()
    skipped = montecarlo.central_spacings(unfolded, 1).ravel()
    h0 = montecarlo.build_histogram(
        pooled, 0.1, Interval(0.0, float(np.max(pooled)) + 0.1))
    h1 = montecarlo.build_histogram(
        skipped, 0.1, Interval(0.0, float(np.max(skipped)) + 0.1))
    _, p0, _ = montecarlo.chi_square_test(
        h0, lambda s: routes.evaluate("p0", "painleve", s))
    _, p1, _ = montecarlo.chi_square_test(
        h1, lambda s: routes.evaluate("p1gap", "painleve", s))
    return (p0 > p_floor and p1 > p_floor,
            {"p_order0": _fmt(p0), "p_order1": _fmt(p1), "p_floor": p_floor})


@_criterion("prime-gap-poisson")
def check_prime_gaps():
    """2000 primes from 1e9+7: gap histograms within KS 0.08 of the model."""
    tol, last_prime = 0.08, 1000041709  # its 2000th by Miller-Rabin too
    window = sequences.primes_from(10 ** 9 + 7, 2000)
    ks0 = sequences.histogram_ks_distance(
        sequences.prime_spacing_histogram(window, 0),
        lambda s: 1.0 - np.exp(-s))
    ks1 = sequences.histogram_ks_distance(
        sequences.prime_spacing_histogram(window, 1),
        lambda s: 1.0 - (1.0 + s) * np.exp(-s))
    last = int(window.primes[-1])       # a dropped or extra prime moves it
    return (ks0 <= tol and ks1 <= tol and last == last_prime,
            {"ks_order0": _fmt(ks0), "ks_order1": _fmt(ks1), "tol": tol,
             "last_prime": last})


@_criterion("nearest-neighbour-routes")
def check_nn_routes():
    """Conditioned-origin gap and density: determinant vs sigma route;
    density mass 1."""
    tol_mass = 1e-3
    ok, details = _route_agreement(("Enn", {}), ("p2nn", {}))
    rule = gauss_legendre(40, Interval(0.0, 4.0))
    mass = float(np.dot(rule.weights,
                        routes.evaluate("p2nn", "painleve", rule.nodes)))
    ok = ok and abs(mass - 1.0) <= tol_mass
    return (ok, details | {"mass": float(f"{mass:.6f}"),
                           "tol_mass": tol_mass})


@_criterion("csv-determinism")
def check_csv_determinism():
    """Identical options yield byte-identical CSV output, the second
    tabulate's Painleve columns from a cold trajectory cache."""
    from . import cli

    def write_once(writer, argv):
        buf = io.StringIO()
        writer(cli.parse_args(argv), buf)
        return buf.getvalue()

    def tabulate_once():
        return write_once(cli.write_tabulate, [
            "tabulate", "--quantity", "E2", "--method", "all",
            "--s-max", "1.0", "--s-step", "0.25"])

    def sample_once():
        return write_once(cli.write_sample, [
            "sample", "--n", "13", "--reps", "64", "--seed", "7"])

    same_sample = sample_once() == sample_once()
    first = tabulate_once()     # warm after the criteria run before it
    painleve.clear_cache()      # the second integrates from a cold cache
    ok = same_sample and first == tabulate_once()
    return ok, {"bit_identical": ok}


def run_all(names=None):
    """Run the full suite (or the named subset) and return the results.

    Subset names are the criterion names the results print; hyphens and
    underscores are interchangeable.  An unknown name raises ArgumentError.
    """
    if names is None:
        return [fn() for fn in ALL_CRITERIA]
    wanted = {str(n).replace("_", "-") for n in names}
    unknown = wanted - {fn.criterion for fn in ALL_CRITERIA}
    if unknown:
        raise ArgumentError(
            f"unknown criteria: {', '.join(sorted(unknown))}; known: "
            + ", ".join(fn.criterion for fn in ALL_CRITERIA))
    return [fn() for fn in ALL_CRITERIA if fn.criterion in wanted]
