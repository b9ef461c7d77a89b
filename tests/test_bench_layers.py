"""tools/bench_layers.py: the counts it writes for a cold det-tables round."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_det_tables_counts(tmp_path):
    # 7 commands on 13 points: 24 Gauss rules from 1 Newton run, and 192
    # Nystrom matrices, one a solve: no two p0 points share a rule size,
    # and the En spectra go one at a time
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench_layers.py"),
                    "--workload", "det-tables", "--rounds", "2",
                    "--out", str(tmp_path)], check=True,
                   stdout=subprocess.DEVNULL)
    figures = json.loads((tmp_path / "BENCH_det-tables.json").read_text())
    counts = figures["counts"]
    assert (counts["newton_runs"], counts["rules_computed"]) == (1, 24)
    assert (counts["matrices_solved"], counts["nodes"]) == (192, 5832)
    assert counts["solves"] == 192
    run_s = figures["run_s"]
    assert len(run_s["rounds"]) == 2
    assert run_s["q1"] <= run_s["median"] <= run_s["q3"]
