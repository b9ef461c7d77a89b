"""Command-line surface: tabulation, sampling, sequence statistics, verify.

Every command writes CSV with '#'-prefixed metadata lines (command line,
package and library versions, seeds, tolerances; never timestamps) so that
identical configs produce bit-identical files.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 data or numeric error.

`tabulate` fills each column with one call of a library evaluator on the
whole grid, the one the route table in `routes` names for it.  `sample`
alone runs a pool: forked processes, sized by --workers.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, montecarlo, painleve, routes, sequences
from . import verify as verify_mod
from .errors import ArgumentError, SpacingLabError, UnsupportedError
from .fredholm import SpacingTable
from .quadrature import Interval


@dataclass
class RunConfig:
    """One resolved command invocation; field relevance depends on command."""

    command: str
    quantity: str = "E2"
    method: str = "all"
    s_min: float = 0.0
    s_max: float = 2.0
    s_step: float = 0.05
    beta: int = 1
    n: int = 0                      # gap order (tabulate En) or rank (sample)
    order: int = 0                  # spacing order for sample/primes
    reps: int = 2000
    seed: int = 42
    start: int = 10 ** 9 + 7
    count: int = 2000
    bin_width: float | None = None
    raw: bool = False
    zeros_path: str | None = None
    output_path: str | None = None
    workers: int | None = None
    det_tol: float = routes.DET_TOL
    only: tuple = ()


def _pool_size(config: RunConfig) -> int:
    if config.workers is not None:
        if config.workers < 1:
            raise ArgumentError(f"--workers must be >= 1, got {config.workers}")
        return config.workers
    return os.cpu_count() or 1


def _base_metadata(command_line: str) -> dict:
    return {
        "command": command_line,
        "package": f"spacing-lab {__version__}",
        "numpy": np.__version__,
    }


# ---------------------------------------------------------------------------
# tabulate

def _tabulate_command_line(config: RunConfig) -> str:
    extra = {"p0": f" --beta {config.beta}",
             "En": f" --n {config.n}"}.get(config.quantity, "")
    return (f"spacing-lab tabulate --quantity {config.quantity}{extra} "
            f"--method {config.method} --s-min {config.s_min:g} "
            f"--s-max {config.s_max:g} --s-step {config.s_step:g}")


def write_tabulate(config: RunConfig, stream):
    """Write the tabulate CSV; returns (table, pairwise max deviations)."""
    # nan fails every comparison, so each check below also refuses it
    if not 0.0 <= config.s_min < math.inf:
        raise ArgumentError(
            f"--s-min must be finite and >= 0, got {config.s_min}")
    if not 0.0 < config.s_step < math.inf:
        raise ArgumentError(
            f"--s-step must be finite and > 0, got {config.s_step}")
    if not config.s_min <= config.s_max < math.inf:
        raise ArgumentError(
            f"--s-max must be finite and >= --s-min, got {config.s_max}")
    if not 0.0 < config.det_tol < math.inf:
        raise ArgumentError(
            f"--det-tol must be finite and > 0, got {config.det_tol}")
    if config.quantity == "p0" and config.beta not in (1, 2, 4):
        raise ArgumentError(f"--beta must be 1, 2 or 4, got {config.beta}")
    if config.quantity == "En" and config.n < 0:
        raise ArgumentError(f"--n must be >= 0, got {config.n}")
    # the last point passes --s-max by at most rounding (1e-9 of a step)
    n_points = math.floor((config.s_max - config.s_min) / config.s_step
                          + 1e-9) + 1
    grid = config.s_min + config.s_step * np.arange(n_points)
    methods = routes.methods_for(config.quantity, config.method, config.n)

    metadata = _base_metadata(_tabulate_command_line(config))
    metadata["det_tol"] = f"{config.det_tol:g}"
    table = SpacingTable(s_grid=grid, metadata=metadata)

    columns = {m: routes.evaluate(config.quantity, m, grid, beta=config.beta,
                                  n=config.n, tol=config.det_tol)
               for m in methods}
    for method, values in columns.items():
        table.add_column(f"{config.quantity}_{method}", values)
    deviations = {(a, b): float(np.max(np.abs(columns[a] - columns[b])))
                  for a, b in itertools.combinations(methods, 2)}
    table.to_csv(stream)
    return table, deviations


# ---------------------------------------------------------------------------
# sample / primes / zeros histogram CSVs

def _write_histogram_csv(stream, metadata: dict, hist, overlays: dict):
    """bin_left,bin_right,count,density plus one column per overlay curve."""
    hist.to_csv(stream, metadata, overlays)


def write_sample(config: RunConfig, stream):
    """Ensemble central-spacing histogram with exact and surmise overlays."""
    montecarlo.check_rank(config.n, config.order)
    width = config.bin_width if config.bin_width is not None else 0.1
    montecarlo.check_bin_width(width)
    spectra = montecarlo.sample_ensemble(config.n, config.reps, config.seed,
                                         workers=_pool_size(config))
    spacings = montecarlo.central_spacings(montecarlo.unfold(spectra),
                                           config.order).ravel()
    hist = montecarlo.build_histogram(
        spacings, width, Interval(0.0, float(np.max(spacings)) + width))
    quantity = "p0" if config.order == 0 else "p1gap"    # p0 at beta = 1
    overlays = {"exact": routes.evaluate(quantity, "painleve", hist.centers),
                "surmise": routes.evaluate(quantity, "surmise", hist.centers)}
    metadata = _base_metadata(
        f"spacing-lab sample --n {config.n} --reps {config.reps} "
        f"--seed {config.seed} --order {config.order} --bin-width {width:g}")
    metadata["seed"] = config.seed
    metadata["overflow"] = hist.overflow
    _write_histogram_csv(stream, metadata, hist, overlays)


def write_primes(config: RunConfig, stream):
    """Prime-gap histogram in s-units (or the raw window with --raw)."""
    if config.order not in (0, 1):
        raise ArgumentError(f"--order must be 0 or 1, got {config.order}")
    if config.bin_width is not None and not config.raw:
        montecarlo.check_bin_width(config.bin_width)
    window = sequences.primes_from(config.start, config.count)
    command = (f"spacing-lab primes --start {config.start} "
               f"--count {config.count} --order {config.order}"
               + (" --raw" if config.raw else ""))
    metadata = _base_metadata(command)
    if config.raw:
        window.to_csv(stream, metadata)
        return
    hist = sequences.prime_spacing_histogram(window, config.order,
                                             config.bin_width)
    # order 1 is the gamma(2) density s e^-s
    poisson = np.exp(-hist.centers) * (hist.centers if config.order else 1.0)
    metadata["bin_width"] = f"{hist.bin_width:.17g}"
    metadata["overflow"] = hist.overflow
    _write_histogram_csv(stream, metadata, hist, {"poisson": poisson})


def write_zeros(config: RunConfig, stream):
    """Nearest-neighbour statistic of unfolded zero ordinates vs both laws."""
    data = sequences.load_zeros(config.zeros_path)
    unfolded = sequences.unfold_zeros(data)
    stats = sequences.nn_statistic(unfolded)
    width = config.bin_width if config.bin_width is not None else 0.1
    hist = montecarlo.build_histogram(
        stats, width, Interval(0.0, float(np.max(stats)) + width))
    ks_exact = sequences.ks_distance(
        stats, lambda s: 1.0 - painleve.enn_generating(s))
    ks_poisson = sequences.ks_distance(
        stats, lambda s: 1.0 - np.exp(-2.0 * s))
    overlays = {"exact": painleve.p2_nn(hist.centers),
                "poisson": sequences.poisson_nn_density(hist.centers)}
    metadata = _base_metadata(
        f"spacing-lab zeros --file {config.zeros_path} --bin-width {width:g}")
    metadata["ordinates"] = len(data.ordinates)
    metadata["ks_exact"] = f"{ks_exact:.6f}"
    metadata["ks_poisson"] = f"{ks_poisson:.6f}"
    _write_histogram_csv(stream, metadata, hist, overlays)


# ---------------------------------------------------------------------------
# dispatch

def run(config: RunConfig) -> int:
    """Execute one config; returns the process exit code."""
    if config.command == "verify":
        results = verify_mod.run_all(config.only or None)
        for result in results:
            print(result)
        failed = sum(not r.passed for r in results)
        print(f"{len(results) - failed}/{len(results)} criteria passed")
        return 1 if failed else 0

    writers = {"tabulate": write_tabulate, "sample": write_sample,
               "primes": write_primes, "zeros": write_zeros}
    writer = writers[config.command]
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as stream:
            outcome = writer(config, stream)
    else:
        outcome = writer(config, sys.stdout)
    if config.command == "tabulate":
        table, deviations = outcome
        q = config.quantity
        for (m_i, m_j), delta in deviations.items():
            relative = routes.max_relative(table.columns[f"{q}_{m_i}"],
                                           table.columns[f"{q}_{m_j}"])
            print(f"max |{q}_{m_i} - {q}_{m_j}| = {delta:.3g}, "
                  f"relative {relative:.3g}", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spacing-lab",
        description="Eigenvalue spacing distributions by independent routes: "
                    "operator determinants, nonlinear ODEs, closed-form "
                    "surmises, and sampled or number-theoretic spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    by_methods = {}
    for q in routes.QUANTITIES:
        by_methods.setdefault(routes.methods_for(q), []).append(q)
    supported = "; ".join(f"{'/'.join(qs)}: {', '.join(ms)}"
                          for ms, qs in by_methods.items())
    tab = sub.add_parser(
        "tabulate", help="tabulate a quantity over an s grid as CSV",
        description="Columns are named <quantity>_<method>.  Supported "
                    f"methods per quantity: {supported}.  p0 takes --beta; "
                    "En takes --n (painleve only at n=0).")
    tab.add_argument("--quantity", choices=routes.QUANTITIES, default="E2")
    tab.add_argument("--method", choices=(*routes.METHODS, "all"),
                     default="all")
    tab.add_argument("--s-min", type=float, default=0.0)
    tab.add_argument("--s-max", type=float, default=2.0)
    tab.add_argument("--s-step", type=float, default=0.05)
    tab.add_argument("--beta", type=int, choices=(1, 2, 4), default=1,
                     help="spacing-density symmetry class for p0")
    tab.add_argument("--n", type=int, default=0,
                     help="gap order for the En quantity")
    tab.add_argument("--det-tol", type=float, default=routes.DET_TOL,
                     help="determinant convergence tolerance")

    smp = sub.add_parser(
        "sample", help="histogram central spacings of sampled spectra")
    smp.add_argument("--n", type=int, default=13, help="matrix rank (odd)")
    smp.add_argument("--reps", type=int, default=2000)
    smp.add_argument("--seed", type=int, default=42)
    smp.add_argument("--order", type=int, choices=(0, 1), default=0,
                     help="0: adjacent central gaps; 1: span skipping one")
    smp.add_argument("--bin-width", type=float, default=None)

    prm = sub.add_parser(
        "primes", help="histogram prime gaps in rescaled units")
    prm.add_argument("--start", type=int, default=10 ** 9 + 7)
    prm.add_argument("--count", type=int, default=2000)
    prm.add_argument("--order", type=int, choices=(0, 1), default=0)
    prm.add_argument("--bin-width", type=float, default=None)
    prm.add_argument("--raw", action="store_true",
                     help="emit the prime window (index,prime,gap) instead")

    zrs = sub.add_parser(
        "zeros", help="nearest-neighbour statistic of unfolded zeta zeros")
    zrs.add_argument("--file", required=True, dest="zeros_path",
                     help="ascending ordinates, one per line, '#' comments")
    zrs.add_argument("--bin-width", type=float, default=None)

    ver = sub.add_parser(
        "verify", help="run the cross-route validation suite")
    ver.add_argument("--only", nargs="*", default=(),
                     help="criterion labels to run (default: all)")

    for p in (tab, smp, prm, zrs):
        p.add_argument("-o", "--output", dest="output_path", default=None)
        p.add_argument("--workers", type=int, default=None,
                       help="size of sample's pool of forked processes (at "
                            "most one per usable CPU); no other command "
                            "uses it; default: processor count")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    fields = {k: v for k, v in vars(args).items() if v is not None}
    fields.setdefault("only", ())
    config = RunConfig(**{k: v for k, v in fields.items()
                          if k in RunConfig.__dataclass_fields__})
    try:
        return run(config)
    except (ArgumentError, UnsupportedError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (SpacingLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
