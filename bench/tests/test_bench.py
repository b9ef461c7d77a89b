"""Tests of the benchmark itself.

    python3 -m pytest bench/tests

The emission test runs every workload once untraced and once traced
(a few minutes on two CPUs).
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import workloads  # noqa: E402


def test_reference_determinant_matches_small_s_expansion():
    s = 0.05
    assert abs(reference.gap_probability("E2", s)
               - reference.e2_small_s(s)) <= 1e-13


def test_reference_sieve_matches_trial_division():
    lo, hi = 10 ** 6 - 200, 10 ** 6 + 200
    expected = [n for n in range(lo, hi + 1)
                if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert reference.primes_between(lo, hi).tolist() == expected
    assert reference.primes_between(0, 20).tolist() == [2, 3, 5, 7, 11, 13,
                                                        17, 19]


def test_seed_sets_prime_start_and_sample_seed():
    first = workloads.build("sampled-spectra", 3, Path("out"))
    again = workloads.build("sampled-spectra", 3, Path("out"))
    other = workloads.build("sampled-spectra", 4, Path("out"))
    assert [op.argv for op in first.ops] == [op.argv for op in again.ops]
    assert [op.argv for op in first.ops] != [op.argv for op in other.ops]
    start = workloads.prime_start(3)
    assert 10 ** 11 <= start < 2 * 10 ** 11 and start % 2 == 1


# per-layer metric prefixes that must read above 0 on each workload
CALLED = {
    "det-tables": ("import.", "quadrature.", "kernels.", "fredholm.",
                   "cli.csv_s", "values_per_s"),
    "ode-tables": ("import.", "painleve.", "cli.csv_s", "values_per_s"),
    "sampled-spectra": ("import.", "painleve.build_problem", "painleve.eval",
                        "montecarlo.sample_ensemble", "montecarlo.unfold",
                        "montecarlo.spectra", "sequences.", "cli.csv_s",
                        "spectra_per_s", "primes_per_s"),
    "verify-suite": ("import.", "quadrature.", "kernels.", "fredholm.gap_n",
                     "fredholm.spectra_per_det", "painleve.", "montecarlo.",
                     "sequences.", "verify."),
}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_one_run_emits_every_declared_metric(workload):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        names = {m["name"]: m["unit"] for m in declared[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
        must_move = (tuple(names) if trace == 0 else CALLED[workload])
        idle = [k for k, v in result["metrics"].items()
                if k.startswith(must_move) and not v["value"] > 0]
        assert not idle, idle
