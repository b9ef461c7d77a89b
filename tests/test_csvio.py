"""The block CSV writer against row-by-row formatting."""

import io

import numpy as np
import pytest

from spacing_lab import Interval, csvio, fredholm
from spacing_lab.montecarlo import build_histogram


def _row_by_row(metadata, names, columns):
    # the per-row f-string formatting the block writer replaced
    lines = [f"# {k}: {v}\n" for k, v in metadata.items()]
    lines.append(",".join(names) + "\n")
    for row in zip(*columns):
        lines.append(",".join(f"{v:.17g}" for v in row) + "\n")
    return "".join(lines)


@pytest.fixture(params=[7, csvio.BLOCK_ROWS])
def block_rows(request, monkeypatch):
    monkeypatch.setattr(csvio, "BLOCK_ROWS", request.param)


def test_histogram_with_overlays(block_rows):
    rng = np.random.default_rng(5)
    hist = build_histogram(rng.exponential(1.0, 5000), 0.1,
                           Interval(0.0, 3.0))
    assert hist.counts.dtype.kind == "i" and hist.overflow > 0
    overlays = {"exact": np.exp(-hist.centers),
                "surmise": [float(c) ** 2 / 3.0 for c in hist.centers]}
    metadata = {"seed": 5, "overflow": hist.overflow}
    out = io.StringIO()
    hist.to_csv(out, metadata, overlays)
    expected = _row_by_row(
        metadata, ["bin_left", "bin_right", "count", "density", *overlays],
        [hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts, hist.density,
         *(np.asarray(v, dtype=float) for v in overlays.values())])
    assert out.getvalue() == expected
    first_count = out.getvalue().splitlines()[3].split(",")[2]
    assert first_count == str(int(hist.counts[0]))


def test_spacing_table(block_rows):
    grid = np.linspace(0.0, 3.0, 31)
    table = fredholm.SpacingTable(s_grid=grid, metadata={"method": "unit"})
    table.add_column("a", np.sin(grid) * 1e-300)
    table.add_column("b", np.concatenate(([-0.0, np.inf, np.nan],
                                          np.exp(-grid[3:] ** 2))))
    expected = _row_by_row(table.metadata, ["s", "a", "b"],
                           [grid, table.columns["a"], table.columns["b"]])
    assert table.to_csv_text() == expected


def test_integer_columns_stay_exact(block_rows):
    big = np.array([2 ** 62 + 1, 3, 2 ** 63 - 1], dtype=np.int64)
    out = io.StringIO()
    csvio.write_csv(out, ["i", "v"], [np.arange(3), big], ["%d", "%d"])
    assert out.getvalue() == "i,v\n" + "".join(
        f"{i},{int(v)}\n" for i, v in enumerate(big))
