"""The four workloads: the commands of one round and the checks on their output.

Each workload is a list of ``Op`` (one ``spacing-lab`` command line each)
plus a check over the files and stdout those commands produced.  Checks run
in the benchmark process after the round, outside the timed region, and
compare against ``reference`` (computations made apart from spacing_lab) or
against properties the method must have.  A check returns the names of the
operations whose output it found wrong, with how many of each operation's
units failed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

CRITERIA = 13                   # criteria in ``spacing-lab verify``
DET_GRID = (0.0, 3.0, 0.25)     # s-min, s-max, s-step of det-tables
ODE_GRID = (0.0, 4.0, 0.001)
P1GAP_S_MAX = 6.0               # p1gap needs [0, 6] to hold its mean-2 tail
SAMPLE_RANK, SAMPLE_REPS, SAMPLE_WORKERS = 13, 20000, 2
PRIME_COUNT = 10 ** 6
PRIME_BASE = 10 ** 11           # window starts are drawn from [1e11, 2e11)

DET_TOL = 1e-9                  # reference determinant vs a tabulated column
MASS_TOL = 1e-4                 # unit mass / unit mean of density columns
LADDER_TOL = 1e-4               # sum_n E(n; s) = 1 with n <= 5 on [0, 3]
MEAN_COUNT_TOL = 1e-3           # sum_n n E(n; s) = s with n <= 5 on [0, 3]
SPACING_MEAN_TOL = 0.05         # rank-13 bias is 1.5-2.2 %
PRIME_GAP_TOL = 0.05


@dataclass
class Op:
    """One command: the ``units`` operations it counts as, the exit codes
    that leave output to check, and its output size by kind in ``work``."""

    name: str
    argv: list
    units: int = 1
    exits: tuple = (0,)
    work: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list
    untimed: list
    check: object       # (workload, out dir, records) -> {op name: failed units}


def _grid_args(s_min, s_max, step):
    return ["--s-min", repr(s_min), "--s-max", repr(s_max),
            "--s-step", repr(step)]


def _points(s_min, s_max, step):
    return int(round((s_max - s_min) / step)) + 1


def _tabulate(name, quantity, method, grid, out, extra=()):
    return Op(name, ["tabulate", "--quantity", quantity, *extra,
                     "--method", method, *_grid_args(*grid),
                     "--workers", "1", "-o", str(out / f"{name}.csv")],
              work={"values": _points(*grid)})


def prime_start(seed: int) -> int:
    """Odd start of the prime window for a seed, in [1e11, 2e11)."""
    rng = np.random.default_rng(seed)
    return (PRIME_BASE + int(rng.integers(0, PRIME_BASE))) | 1


def build(name: str, seed: int, out: Path) -> Workload:
    if name == "det-tables":
        ops = [_tabulate("p0-beta4", "p0", "fredholm", DET_GRID, out,
                         ("--beta", "4"))]
        ops += [_tabulate(f"En-{n}", "En", "fredholm", DET_GRID, out,
                          ("--n", str(n))) for n in range(6)]
        return Workload(name, ops, [], _check_det_tables)
    if name == "ode-tables":
        columns = [("E2", ()), ("E1", ()), ("E4", ()), ("Enn", ()),
                   ("p0", ("--beta", "1")), ("p0", ("--beta", "2")),
                   ("p0", ("--beta", "4")), ("p1gap", ()), ("p2nn", ())]
        ops = []
        for quantity, extra in columns:
            grid = ((0.0, P1GAP_S_MAX, ODE_GRID[2]) if quantity == "p1gap"
                    else ODE_GRID)
            label = quantity + (f"-beta{extra[1]}" if extra else "")
            ops.append(_tabulate(label, quantity, "painleve", grid, out, extra))
        return Workload(name, ops, [], _check_ode_tables)
    if name == "sampled-spectra":
        start = prime_start(seed)

        def sample(order, workers, label):
            return Op(label, ["sample", "--n", str(SAMPLE_RANK),
                              "--reps", str(SAMPLE_REPS), "--seed", str(seed),
                              "--order", str(order), "--workers", str(workers),
                              "-o", str(out / f"{label}.csv")],
                      work={"spectra": SAMPLE_REPS})

        def primes(label, raw):
            return Op(label, ["primes", "--start", str(start),
                              "--count", str(PRIME_COUNT),
                              *(["--raw"] if raw else []),
                              "-o", str(out / f"{label}.csv")],
                      work={"primes": PRIME_COUNT})

        ops = [sample(0, SAMPLE_WORKERS, "sample-order0"),
               sample(1, SAMPLE_WORKERS, "sample-order1"),
               primes("primes-hist", False), primes("primes-raw", True)]
        return Workload(name, ops, [sample(1, 1, "sample-order1-workers1")],
                        _check_sampled_spectra)
    if name == "verify-suite":
        # exit 1 means some criteria failed; the check counts which
        return Workload(name, [Op("verify", ["verify"], units=CRITERIA,
                                  exits=(0, 1))], [], _check_verify)
    raise KeyError(name)


NAMES = ("det-tables", "ode-tables", "sampled-spectra", "verify-suite")


# ---------------------------------------------------------------------------
# reading outputs

def _read_csv(path):
    """(metadata dict, header list, float array) of a '#'-commented CSV."""
    metadata, header = {}, None
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                metadata[key.strip()] = value.strip()
            elif header is None:
                header = line.strip().split(",")
                break
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    return metadata, header, data


def _column(op, out):
    _, _, data = _read_csv(out / f"{op.name}.csv")
    return data[:, 0], data[:, 1]


def _argv_value(op, flag):
    return op.argv[op.argv.index(flag) + 1]


# ---------------------------------------------------------------------------
# checks

def _check_det_tables(workload, out, records):
    failed = set()
    p0 = workload.ops[0]
    s, p = _column(p0, out)
    mass, mean = np.trapezoid(p, s), np.trapezoid(s * p, s)
    if abs(mass - 1.0) > MASS_TOL or abs(mean - 1.0) > MASS_TOL:
        failed.add(p0.name)
    ladder = workload.ops[1:]
    columns = [_column(op, out)[1] for op in ladder]
    s = _column(ladder[0], out)[0]
    e0 = np.array([reference.gap_probability("E2", float(x)) for x in s])
    if np.max(np.abs(columns[0] - e0)) > DET_TOL:
        failed.add(ladder[0].name)
    total = np.sum(columns, axis=0)
    count = np.sum([n * c for n, c in enumerate(columns)], axis=0)
    if (np.max(np.abs(total - 1.0)) > LADDER_TOL
            or np.max(np.abs(count - s)) > MEAN_COUNT_TOL):
        failed.update(op.name for op in ladder)
    return dict.fromkeys(failed, 1)


def _check_ode_tables(workload, out, records):
    failed = set()
    for op in workload.ops:
        quantity = _argv_value(op, "--quantity")
        s, values = _column(op, out)
        if quantity in ("E2", "E1", "E4", "Enn"):
            # the reference on every 0.25, where the grid has a point
            pick = np.flatnonzero(np.isclose(s * 4.0, np.round(s * 4.0)))
            expected = [reference.gap_probability(quantity, float(s[i]))
                        for i in pick]
            if np.max(np.abs(values[pick] - expected)) > DET_TOL:
                failed.add(op.name)
            continue
        mass = np.trapezoid(values, s)
        mean = np.trapezoid(s * values, s)
        target_mean = {"p0": 1.0, "p1gap": 2.0}.get(quantity)
        if abs(mass - 1.0) > MASS_TOL or (
                target_mean is not None
                and abs(mean - target_mean) > MASS_TOL * target_mean):
            failed.add(op.name)
    return dict.fromkeys(failed, 1)


def _check_sampled_spectra(workload, out, records):
    failed = set()
    sample0, sample1, hist, raw = workload.ops
    for op, order, per_replica in ((sample0, 0, 2), (sample1, 1, 1)):
        metadata, header, data = _read_csv(out / f"{op.name}.csv")
        counts = data[:, header.index("count")]
        centers = 0.5 * (data[:, 0] + data[:, 1])
        mean = float(np.sum(counts * centers) / np.sum(counts))
        if (int(counts.sum()) + int(metadata["overflow"])
                != per_replica * SAMPLE_REPS
                or abs(mean - (order + 1)) > SPACING_MEAN_TOL * (order + 1)):
            failed.add(op.name)
    pooled = (out / f"{sample1.name}.csv").read_bytes()
    serial = (out / f"{workload.untimed[0].name}.csv").read_bytes()
    if pooled != serial:
        failed.add(sample1.name)

    start = int(_argv_value(raw, "--start"))
    metadata, header, data = _read_csv(out / f"{hist.name}.csv")
    if (int(data[:, header.index("count")].sum()) + int(metadata["overflow"])
            != PRIME_COUNT - 1):
        failed.add(hist.name)
    _, _, window = _read_csv(out / f"{raw.name}.csv")
    window = window.astype(np.int64)
    primes, gaps = window[:, 1], window[:, 2]
    expected = reference.primes_between(start, int(primes[-1]))
    mean_gap = (primes[-1] - primes[0]) / (len(primes) - 1)
    if (not np.array_equal(window[:, 0], np.arange(PRIME_COUNT))
            or not np.array_equal(primes, expected)
            or not np.array_equal(gaps, np.append(np.diff(primes), 0))
            or abs(mean_gap / math.log(start) - 1.0) > PRIME_GAP_TOL):
        failed.add(raw.name)
    return dict.fromkeys(failed, 1)


_RESULT_LINE = re.compile(r"^\[(PASS|FAIL)\] ([\w-]+):", re.M)


def _check_verify(workload, out, records):
    """Each criterion is one operation: count FAIL lines, or all if it broke."""
    op = workload.ops[0]
    record = records[op.name]
    results = _RESULT_LINE.findall(record["stdout"])
    failed = sum(flag == "FAIL" for flag, _ in results)
    if len(results) != CRITERIA or record["exit"] != (1 if failed else 0):
        failed = CRITERIA
    return {op.name: failed} if failed else {}
