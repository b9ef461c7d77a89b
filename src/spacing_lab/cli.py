"""Command-line surface: tabulation, sampling, sequence statistics, verify.

The argparse parser is the one statement of every option: `main` parses
argv with it and each writer reads the resulting Namespace (`parse_args`
gives the same Namespace to library callers).  Every command writes CSV
with '#'-prefixed metadata lines (command line, package and library
versions, seeds, tolerances; never timestamps) so that identical options
produce bit-identical files.  The `# command:` line is rendered from the
subcommand's own options, so running it again writes the same bytes; it
leaves out -o/--output and --workers, which change nothing written.  Exit
codes: 0 success, 1 verification failure, 2 usage error, 3 data or numeric
error.

`tabulate` fills each column with one call of a library evaluator on the
whole grid, the one the route table in `routes` names for it.  `sample`
and `primes` honour --workers: above 1, each does the first block of its
work itself (replicas, or integers to sieve) and forks a child for each
other block.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import shlex
import sys

import numpy as np

from . import __version__, fredholm, montecarlo, routes, sequences
from . import verify as verify_mod
from .errors import ArgumentError, SpacingLabError, UnsupportedError
from .fredholm import SpacingTable
from .quadrature import Interval

# options that change nothing a command writes, left out of `# command:`
_UNRECORDED = ("output", "workers")


def _pool_size(args) -> int:
    """--workers, by default the processor count."""
    return (os.cpu_count() or 1) if args.workers is None else args.workers


def command_line(args) -> str:
    """The `spacing-lab` invocation that writes what ``args`` writes: each
    option of the subcommand in declaration order with its value (floats
    by repr, a flag only when set, None left out), shell-quoted."""
    words = ["spacing-lab", args.command]
    for action in _parsers()[1][args.command]._actions:
        value = getattr(args, action.dest, None)
        if (not action.option_strings or action.dest in _UNRECORDED
                or value is None or value is False):
            continue
        words.append(action.option_strings[-1])
        if action.nargs != 0:
            words.append(repr(value) if isinstance(value, float)
                         else str(value))
    return shlex.join(words)


def _base_metadata(args) -> dict:
    return {
        "command": command_line(args),
        "package": f"spacing-lab {__version__}",
        "numpy": np.__version__,
    }


# ---------------------------------------------------------------------------
# tabulate

def write_tabulate(args, stream):
    """Write the tabulate CSV; returns the table and, for each pair of its
    methods, (max absolute, max relative deviation) between their columns."""
    # nan fails every comparison, so each check below also refuses it
    if not 0.0 <= args.s_min < math.inf:
        raise ArgumentError(
            f"--s-min must be finite and >= 0, got {args.s_min}")
    if not 0.0 < args.s_step < math.inf:
        raise ArgumentError(
            f"--s-step must be finite and > 0, got {args.s_step}")
    if not args.s_min <= args.s_max < math.inf:
        raise ArgumentError(
            f"--s-max must be finite and >= --s-min, got {args.s_max}")
    if args.quantity == "En" and args.n < 0:
        raise ArgumentError(f"--n must be >= 0, got {args.n}")
    # the last point passes --s-max by at most rounding (1e-9 of a step)
    span = (args.s_max - args.s_min) / args.s_step + 1e-9
    if span >= montecarlo.MAX_POINTS:
        raise ArgumentError(f"--s-step {args.s_step!r} would give more than "
                            f"{montecarlo.MAX_POINTS} grid points")
    n_points = math.floor(span) + 1
    grid = args.s_min + args.s_step * np.arange(n_points)
    methods = routes.methods_for(args.quantity, args.method, args.n)

    metadata = _base_metadata(args)
    metadata["det_tol"] = f"{fredholm.DET_TOL:g}"
    table = SpacingTable(s_grid=grid, metadata=metadata)

    columns = {m: routes.evaluate(args.quantity, m, grid, beta=args.beta,
                                  n=args.n)
               for m in methods}
    for method, values in columns.items():
        table.add_column(f"{args.quantity}_{method}", values)
    deviations = {(a, b): (float(np.max(np.abs(columns[a] - columns[b]))),
                           routes.max_relative(columns[a], columns[b]))
                  for a, b in itertools.combinations(methods, 2)}
    table.to_csv(stream)
    return table, deviations


# ---------------------------------------------------------------------------
# sample / primes / zeros histogram CSVs

def _write_histogram_csv(stream, metadata: dict, hist, overlays: dict):
    """bin_left,bin_right,count,density plus one column per overlay curve."""
    hist.to_csv(stream, metadata, overlays)


def write_sample(args, stream):
    """Ensemble central-spacing histogram with exact and surmise overlays."""
    montecarlo.check_rank(args.n, args.order)
    width = args.bin_width
    montecarlo.check_bin_width(width)
    spectra = montecarlo.sample_ensemble(args.n, args.reps, args.seed,
                                         workers=_pool_size(args))
    spacings = montecarlo.central_spacings(montecarlo.unfold(spectra),
                                           args.order).ravel()
    hist = montecarlo.build_histogram(
        spacings, width, Interval(0.0, float(np.max(spacings)) + width))
    quantity = "p0" if args.order == 0 else "p1gap"    # p0 at beta = 1
    overlays = {"exact": routes.evaluate(quantity, "painleve", hist.centers),
                "surmise": routes.evaluate(quantity, "surmise", hist.centers)}
    metadata = _base_metadata(args)
    metadata["seed"] = args.seed
    metadata["overflow"] = hist.overflow
    _write_histogram_csv(stream, metadata, hist, overlays)


def write_primes(args, stream):
    """Prime-gap histogram in s-units (or the raw window with --raw)."""
    if args.bin_width is not None and not args.raw:
        montecarlo.check_bin_width(args.bin_width)
    window = sequences.primes_from(args.start, args.count,
                                   workers=_pool_size(args))
    metadata = _base_metadata(args)
    if args.raw:
        window.to_csv(stream, metadata)
        return
    hist = sequences.prime_spacing_histogram(window, args.order,
                                             args.bin_width)
    # order 1 is the gamma(2) density s e^-s
    poisson = np.exp(-hist.centers) * (hist.centers if args.order else 1.0)
    metadata["bin_width"] = f"{hist.bin_width:.17g}"
    metadata["overflow"] = hist.overflow
    _write_histogram_csv(stream, metadata, hist, {"poisson": poisson})


def write_zeros(args, stream):
    """Nearest-neighbour statistic of unfolded zero ordinates vs both laws."""
    data = sequences.load_zeros(args.file)
    unfolded = sequences.unfold_zeros(data)
    stats = sequences.nn_statistic(unfolded)
    width = args.bin_width
    hist = montecarlo.build_histogram(
        stats, width, Interval(0.0, float(np.max(stats)) + width))
    ks_exact = sequences.ks_distance(
        stats, lambda s: 1.0 - routes.evaluate("Enn", "painleve", s))
    ks_poisson = sequences.ks_distance(
        stats, lambda s: 1.0 - np.exp(-2.0 * s))
    overlays = {"exact": routes.evaluate("p2nn", "painleve", hist.centers),
                "poisson": sequences.poisson_nn_density(hist.centers)}
    metadata = _base_metadata(args)
    metadata["ordinates"] = len(data.ordinates)
    metadata["ordinates_sha256"] = data.sha256
    metadata["ks_exact"] = f"{ks_exact:.6f}"
    metadata["ks_poisson"] = f"{ks_poisson:.6f}"
    _write_histogram_csv(stream, metadata, hist, overlays)


# ---------------------------------------------------------------------------
# dispatch

def run(args) -> int:
    """Execute one parsed command; returns the process exit code."""
    if args.command == "verify":
        results = verify_mod.run_all(args.only or None)
        for result in results:
            print(result)
        failed = sum(not r.passed for r in results)
        print(f"{len(results) - failed}/{len(results)} criteria passed")
        return 1 if failed else 0

    writers = {"tabulate": write_tabulate, "sample": write_sample,
               "primes": write_primes, "zeros": write_zeros}
    # csvio.write_csv opens an -o path only once the table is computed, so
    # a command that fails leaves an existing file as it was
    outcome = writers[args.command](args, args.output or sys.stdout)
    if args.command == "tabulate":
        _, deviations = outcome
        q = args.quantity
        for (m_i, m_j), (delta, relative) in deviations.items():
            print(f"max |{q}_{m_i} - {q}_{m_j}| = {delta:.3g}, "
                  f"relative {relative:.3g}", file=sys.stderr)
    return 0


@functools.cache
def _parsers():
    """The `spacing-lab` parser and its subcommand parsers by name, built
    once per process."""
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
    tab.add_argument("--beta", type=int, choices=routes.BETAS, default=1,
                     help="spacing-density symmetry class for p0")
    tab.add_argument("--n", type=int, default=0,
                     help="gap order for the En quantity")

    smp = sub.add_parser(
        "sample", help="histogram central spacings of sampled spectra")
    smp.add_argument("--n", type=int, default=13, help="matrix rank (odd)")
    smp.add_argument("--reps", type=int, default=2000)
    smp.add_argument("--seed", type=int, default=42)
    smp.add_argument("--order", type=int, choices=(0, 1), default=0,
                     help="0: adjacent central gaps; 1: span skipping one")
    smp.add_argument("--bin-width", type=float, default=0.1)

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
    zrs.add_argument("--file", required=True,
                     help="ascending ordinates, one per line, '#' comments")
    zrs.add_argument("--bin-width", type=float, default=0.1)

    ver = sub.add_parser(
        "verify", help="run the cross-route validation suite")
    ver.add_argument("--only", nargs="*", default=(),
                     help="criterion labels to run (default: all)")

    for p in (tab, smp, prm, zrs):
        p.add_argument("-o", "--output", default=None)
        p.add_argument("--workers", type=int, default=None,
                       help="processes sample draws in and primes sieves "
                            "in, this one and forked children (at most one "
                            "per usable CPU); tabulate and zeros ignore it; "
                            "default: processor count")
    return parser, sub.choices


def parse_args(argv=None) -> argparse.Namespace:
    """The options of one `spacing-lab` command line, as `main` reads them;
    ArgumentError for a --workers below 1."""
    args = _parsers()[0].parse_args(argv)
    workers = getattr(args, "workers", None)
    if workers is not None and workers < 1:
        raise ArgumentError(f"--workers must be >= 1, got {workers}")
    return args


def main(argv=None) -> int:
    try:
        return run(parse_args(argv))
    except (ArgumentError, UnsupportedError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (SpacingLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
