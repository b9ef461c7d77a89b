"""Benchmark of spacing-lab: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload det-tables --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; spacing_lab is imported from its
``src``.  Each round runs the workload's commands in a fresh interpreter
(``round.py``) and rounds repeat while another one fits in ``--seconds``;
at least one always runs.  Outputs are checked after each round, outside
the timed region.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``run_s``, ``peak_rss_mb``), medians over the run.  With ``--trace 1``
untraced and traced rounds alternate, and the metrics are the per-layer
figures of the traced rounds, the command throughputs of the untraced ones,
the import split from ``python -X importtime``, and the tracing overhead.
See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3           # extra fresh-interpreter imports for setup_s
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 150
# one BLAS thread: the machines this runs on are small and shared, and the
# Nystrom matrices (at most 1600 x 1600) gain little from BLAS threads
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("SPACING_LAB_THREADS", "PYTHONPATH")}
    env.update(CHILD_ENV, PYTHONPATH=str(ROOT / "src"))
    return env


def _run_round(workload, trace: bool, commands=True) -> dict:
    """One fresh interpreter; returns round.py's result.  Without commands
    it only imports spacing_lab, which times one more set-up."""
    spec_path = OUT / f"spec-{workload.name}.json"
    result_path = OUT / f"result-{workload.name}.json"
    spec = {"root": str(ROOT), "trace": trace,
            "trace_path": str(OUT / f"trace-{workload.name}.json"),
            "timed": [op.argv for op in workload.ops] if commands else [],
            "untimed": [op.argv for op in workload.untimed] if commands else []}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, str(BENCH / "round.py"),
                           str(spec_path), str(result_path)],
                          env=_child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"a round of {workload.name} exited with "
                           f"{proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _import_split() -> dict:
    """Cumulative import seconds of the modules that pull in scipy."""
    samples = {"painleve": [], "montecarlo": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import spacing_lab"], env=_child_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        for line in proc.stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] in (
                    f"spacing_lab.{m}" for m in samples):
                samples[fields[2].split(".")[1]].append(int(fields[1]) * 1e-6)
    return {f"import.{m}_s": statistics.median(v) for m, v in samples.items()}


def _score(workload, result) -> tuple:
    """(attempted, failed) for one round; an operation fails when its command
    breaks or its output fails a check."""
    ops = workload.ops + workload.untimed
    records = dict(zip([op.name for op in ops],
                       result["timed"] + result["untimed"]))
    attempted = sum(op.units for op in workload.ops)
    broken = [op for op in ops if records[op.name]["exit"] not in op.exits]
    if broken:                  # no output to check: every operation failed
        for op in broken:
            print(f"{op.name}: exit {records[op.name]['exit']}\n"
                  f"{records[op.name]['error'] or ''}", file=sys.stderr)
        return attempted, attempted
    try:
        wrong = workload.check(workload, OUT, records)
    except (OSError, ValueError, KeyError, IndexError):   # unreadable output
        traceback.print_exc()
        wrong = {op.name: op.units for op in workload.ops}
    for name, units in wrong.items():
        print(f"{name}: {units} operation(s) failed their check",
              file=sys.stderr)
    return attempted, sum(wrong.values())


def _op_seconds(workload, result, kind) -> float:
    return sum(r["seconds"] for op, r in zip(workload.ops, result["timed"])
               if kind in op.work)


def _rates(workload, rounds) -> dict:
    """Throughput of each command kind the workload runs, untraced rounds."""
    rates = {}
    for kind in ("values", "spectra", "primes"):
        amount = sum(op.work.get(kind, 0) for op in workload.ops)
        if amount:
            rates[f"{kind}_per_s"] = amount / statistics.median(
                _op_seconds(workload, r, kind) for r in rounds)
    return rates


def _layers(rounds, overhead_s) -> dict:
    """Per-layer metrics: the median of each figure over the traced rounds."""
    def per_round(layers):
        calls, self_s, counts = (layers["calls"], layers["self_s"],
                                 layers["counts"])
        spectra = calls.get("quadrature.nystrom_spectrum", 0)
        dets = calls.get("fredholm.converged_spectrum", 0)
        values = counts.get("tabulated_values", 0)
        out = {}
        for name in ("quadrature.gauss_legendre", "quadrature.nystrom_spectrum",
                     "fredholm.gap_n", "painleve.build_problem",
                     "painleve.integrate", "painleve.eval"):
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in ("kernels.kernel_matrix", "montecarlo.sample_ensemble",
                     "montecarlo.unfold", "montecarlo.chi_square_test",
                     "sequences.primes_from"):
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["quadrature.nodes_per_spectrum"] = (
            counts.get("nodes", 0) / spectra if spectra else 0.0)
        out["quadrature.matrix_mb"] = counts.get("matrix_bytes", 0) / 1e6
        out["fredholm.spectra_per_det"] = (
            counts.get("spectra_in_det", 0) / dets if dets else 0.0)
        out["fredholm.spectra_per_value"] = (
            counts.get("spectra_in_tabulate", 0) / values if values else 0.0)
        for name, key in (("kernels.entries", "kernel_entries"),
                          ("painleve.steps", "steps"),
                          ("montecarlo.spectra", "spectra"),
                          ("sequences.numbers_sieved", "numbers_sieved")):
            out[name] = counts.get(key, 0)
        out["cli.csv_s"] = self_s.get("cli.csv", 0.0)
        out.update((f"{name}_s", seconds)           # inclusive, per criterion
                   for name, seconds in layers["total_s"].items()
                   if name.startswith("verify."))
        return out

    figures = [per_round(r["layers"]) for r in rounds]
    merged = {}
    for k in figures[0]:
        values = [f[k] for f in figures]
        exact = all(isinstance(v, int) for v in values)     # counts stay whole
        merged[k] = (statistics.median_low if exact else statistics.median)(values)
    merged["trace.overhead_s"] = overhead_s
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "spacing_lab" / "__init__.py").is_file():
        print(f"no spacing_lab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = workloads.build(args.workload, args.seed, OUT)
    trace = bool(args.trace)

    setup = [] if trace else [
        _run_round(workload, False, commands=False)["import_s"]
        for _ in range(SETUP_REPEATS)]
    plain, traced = [], []
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        for is_traced in ((False, True) if trace else (False,)):
            result = _run_round(workload, is_traced)
            (traced if is_traced else plain).append(result)
            a, f = _score(workload, result)
            attempted, failed = attempted + a, failed + f
        elapsed = time.perf_counter() - begin
        if elapsed * (1 + 1 / len(plain)) > args.seconds:
            break

    def run_s(rounds):
        return statistics.median(sum(r["seconds"] for r in rd["timed"])
                                 for rd in rounds)

    if trace:
        metrics = _layers(traced, run_s(traced) - run_s(plain))
        metrics.update(_rates(workload, plain))
        metrics.update(_import_split())
    else:
        metrics = {
            "setup_s": statistics.median(setup + [r["import_s"] for r in plain]),
            "run_s": run_s(plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    declared = declared["per_layer" if trace else "end_to_end"]
    unknown = set(metrics) - {m["name"] for m in declared}
    if unknown:
        print(f"metrics missing from BENCHMARK.json: {sorted(unknown)}",
              file=sys.stderr)
        return 1
    # a layer the workload never calls reads 0
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0),
                                "unit": m["unit"]} for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
