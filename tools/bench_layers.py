"""Layer figures of the det-tables, ode-tables and verify-suite benchmark
workloads.

    python3 tools/bench_layers.py [--rounds 11] [--root .] [--out .]

Each round runs the commands of one workload, as bench/workloads.py builds
them, through spacing_lab.cli.main in a fresh interpreter with one BLAS
thread, importing spacing_lab from ROOT/src, so the Gauss rule cache and
the Painleve caches start cold as they do for a command-line user.  One
more round per workload counts the work of the determinant and ODE layers
instead of timing the commands.  The script writes BENCH_<workload>.json
into OUT with

* run_s: the median and quartiles of the commands' wall time over the
  timed rounds, and each round's figure;
* counts, which machine load cannot move: Newton runs and the reference
  rules they computed, LAPACK solves (one eigvalsh for a spectrum, one det
  and one inverse for a stack of density matrices), the Nystrom matrices
  solved and their nodes, boundary-series derivations, integrations and
  Taylor steps (each _taylor_step call, those that extend a trajectory
  included);
* layer_s: the seconds the counting round spent inside the series
  derivation (_derive_problem) and the Taylor steps (_taylor_step).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy

TOOLS = Path(__file__).resolve().parent
WORKLOADS = ("det-tables", "ode-tables", "verify-suite")
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}


def _replace(original, wrapper):
    """Put wrapper in place of original in every spacing_lab module."""
    for name, module in list(sys.modules.items()):
        if name == "spacing_lab" or name.startswith("spacing_lab."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def _count_solver(counts, fn, matrices):
    """fn counting one solve of the k n-node matrices (n, k) =
    matrices(*args); a solve of k = 0 matrices reads no rule."""
    def counted(*args):
        n, k = matrices(*args)
        counts["solves"] += int(k > 0)
        counts["matrices_solved"] += k
        counts["nodes"] += n * k
        return fn(*args)
    _replace(fn, counted)


def _count_calls(counts, fn, key, seconds=None):
    """fn counting its calls, and timing them into seconds[key]."""
    def counted(*args):
        counts[key] += 1
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            if seconds is not None:
                seconds[key] += time.perf_counter() - start
    _replace(fn, counted)


def _install_counters(counts, seconds):
    """Count Newton runs, rules, solves, matrices and nodes, derivations,
    integrations and Taylor steps; time the derivations and the steps."""
    from spacing_lab import fredholm, painleve, quadrature

    _count_calls(counts, painleve._derive_problem, "derivations", seconds)
    _count_calls(counts, painleve.integrate, "integrations")
    _count_calls(counts, painleve._taylor_step, "taylor_steps", seconds)

    _count_solver(counts, quadrature.nystrom_spectrum,
                  lambda kernel, interval, n: (n, int(interval.length > 0.0)))
    _count_solver(counts, fredholm._det_jet_stack,
                  lambda kernel, x, n, order: (n, len(x)))
    newton = quadrature._newton

    def counted_newton(sizes):
        counts["newton_runs"] += 1
        counts["rules_computed"] += len(sizes)
        return newton(sizes)
    _replace(newton, counted_newton)


def child(spec_path: str) -> int:
    """One round: run the commands of the spec, write their figures."""
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    from spacing_lab import cli

    counts, seconds = Counter(), Counter()
    if spec["count"]:
        _install_counters(counts, seconds)
    exits = []
    start = time.perf_counter()
    for argv in spec["commands"]:
        with contextlib.redirect_stdout(io.StringIO()):
            exits.append(cli.main(argv))
    run_s = time.perf_counter() - start
    Path(spec["result"]).write_text(json.dumps(
        {"run_s": run_s, "exits": exits, "counts": dict(counts),
         "layer_s": dict(seconds)}),
        encoding="utf-8")
    return 0


def _round(root: Path, commands, count: bool, scratch: Path) -> dict:
    spec = scratch / "spec.json"
    result = scratch / "result.json"
    spec.write_text(json.dumps({"commands": commands, "count": count,
                                "result": str(result)}), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(CHILD_ENV, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--child", str(spec)], env=env, check=True)
    return json.loads(result.read_text(encoding="utf-8"))


def measure(root: Path, workload: str, rounds: int) -> dict:
    sys.path.insert(0, str(root / "bench"))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        ops = workloads.build(workload, 1, scratch).ops
        commands = [op.argv for op in ops]
        counted = _round(root, commands, True, scratch)
        timed = [_round(root, commands, False, scratch)
                 for _ in range(rounds)]
    for result in (counted, *timed):
        for op, code in zip(ops, result["exits"]):
            if code not in op.exits:
                raise SystemExit(f"{workload}: {op.name} exited {code}")
    run_s = [r["run_s"] for r in timed]
    q1, median, q3 = statistics.quantiles(run_s, n=4, method="inclusive")
    return {"workload": workload, "rounds": rounds,
            "run_s": {"median": median, "q1": q1, "q3": q3,
                      "rounds": run_s},
            "counts": counted["counts"],
            "layer_s": counted["layer_s"],
            "machine": {"python": platform.python_version(),
                        "numpy": numpy.__version__,
                        "cpus": os.cpu_count()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=11)
    parser.add_argument("--root", type=Path, default=TOOLS.parent,
                        help="source checkout whose src/ and bench/ run")
    parser.add_argument("--out", type=Path, default=Path("."))
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="one workload (repeatable); default all")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args.child)
    if args.rounds < 2:
        parser.error("--rounds must be >= 2 for quartiles")
    for workload in args.workload or WORKLOADS:
        figures = measure(args.root.resolve(), workload, args.rounds)
        path = args.out / f"BENCH_{workload}.json"
        path.write_text(json.dumps(figures, indent=2) + "\n",
                        encoding="utf-8")
        print(f"{path}: run_s median {figures['run_s']['median']:.4f} "
              f"[{figures['run_s']['q1']:.4f}, {figures['run_s']['q3']:.4f}]"
              f", counts {figures['counts']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
