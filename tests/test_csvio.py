"""The block CSV writer against row-by-row formatting."""

import io
import tracemalloc

import numpy as np
import pytest

from spacing_lab import ArgumentError, Interval, csvio, fredholm, sequences
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
    out = io.StringIO()
    table.to_csv(out)
    assert out.getvalue() == expected


def test_integer_columns_stay_exact(block_rows):
    big = np.array([2 ** 62 + 1, 3, 2 ** 63 - 1], dtype=np.int64)
    out = io.StringIO()
    csvio.write_csv(out, ["i", "v"], [np.arange(3), big])
    assert out.getvalue() == "i,v\n" + "".join(
        f"{i},{int(v)}\n" for i, v in enumerate(big))


def _by_percent(names, columns, formats):
    # each value through Python's own % with the format its column's type
    # picks: %d for integers, %.17g for floats
    lines = [",".join(names) + "\n"]
    for row in zip(*(list(c) if isinstance(c, range) else c.tolist()
                     for c in columns)):
        lines.append(",".join(f % v for f, v in zip(formats, row)) + "\n")
    return "".join(lines)


_POWERS = [10 ** k + d for k in range(19) for d in (-1, 0)]
_HISTOGRAM_COUNTS = np.random.default_rng(3).integers(0, 10 ** 6, 40)
_TABLES = {
    "int64-edges": (
        ["value", "negated"],
        [np.array([0, -1, *_POWERS, 2 ** 63 - 1, -(2 ** 63 - 1), -2 ** 63],
                  dtype=np.int64),
         np.array([0, 1, *(-p for p in _POWERS), -(2 ** 63 - 1), 2 ** 63 - 1,
                   -2 ** 63], dtype=np.int64)],
        ["%d", "%d"]),
    "uint64-edges": (
        ["value"],
        [np.array([0, 9, 10 ** 19 - 1, 10 ** 19, 2 ** 63, 2 ** 64 - 1],
                  dtype=np.uint64)],
        ["%d"]),
    "range-offset": (
        ["index", "square"],
        [range(9_990, 10_050, 3), np.arange(9_990, 10_050, 3) ** 2],
        ["%d", "%d"]),
    "no-rows": (["index", "x"], [range(0), np.array([])], ["%d", "%.17g"]),
    "histogram": (
        ["bin_left", "bin_right", "count", "density"],
        [np.linspace(0.0, 4.0, 41)[:-1], np.linspace(0.0, 4.0, 41)[1:],
         _HISTOGRAM_COUNTS, _HISTOGRAM_COUNTS / _HISTOGRAM_COUNTS.sum() / 0.1],
        ["%.17g", "%.17g", "%d", "%.17g"]),
    "float-edges": (
        ["x", "index"],
        [np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324,
                   -1.2345678901234567e-308, -1.7976931348623157e308, 0.1,
                   1e16, 123456789012345678.0, -2.5, 1.0]),
         np.arange(12)],
        ["%.17g", "%d"]),
}


@pytest.mark.parametrize("table", _TABLES.values(), ids=_TABLES)
def test_every_value_as_percent_formats_it(block_rows, table):
    names, columns, formats = table
    out = io.StringIO()
    csvio.write_csv(out, names, columns)
    assert out.getvalue() == _by_percent(names, columns, formats)


def _hard_floats():
    """Floats whose %.17g a vectorised formatter can get wrong: random bit
    patterns (subnormals, both signs), powers of ten and their neighbours
    one ulp away, powers of two, exact rounding ties, and the edges."""
    bits = np.random.default_rng(34).integers(0, 2 ** 64, 200_000,
                                              dtype=np.uint64)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    ties = 1.0 + np.arange(1, 2 ** 17, 2) * 2.0 ** -17  # 1.0000076293945312|5
    edges = np.array([5e-324, 0.0, -0.0, np.inf, -np.inf, np.nan])
    near = [np.nextafter(tens, np.inf), tens, np.nextafter(tens, -np.inf)]
    return np.concatenate([bits.view(np.float64), *near, *(-v for v in near),
                           twos, -twos, ties, edges])


def test_every_float_as_percent_formats_it(block_rows):
    # 32 columns, so 7-row blocks still pass many values at a time
    values = _hard_floats()
    columns = list(np.resize(values, (32, -(-len(values) // 32))))
    out = io.StringIO()
    csvio.write_csv(out, [f"x{j}" for j in range(32)], columns)
    lines = out.getvalue().splitlines()
    fields = [field for line in lines[1:] for field in line.split(",")]
    values = np.transpose(columns).ravel().tolist()
    wrong = [(v, f) for v, f in zip(values, fields) if f != "%.17g" % v]
    assert len(fields) == len(values) and wrong == []


def _assert_refused_before_writing(tmp_path, write):
    # nothing reaches a stream, and no file is made at a path
    out = io.StringIO()
    with pytest.raises(ArgumentError):
        write(out)
    assert out.getvalue() == ""
    with pytest.raises(ArgumentError):
        write(str(tmp_path / "refused.csv"))
    assert not (tmp_path / "refused.csv").exists()


@pytest.mark.parametrize("column", [
    np.arange(3) + 1j, np.array(["a", "b", "c"]),
    np.array([1, "b", 2.0], dtype=object), np.ones((3, 2)), np.float64(3.0)],
    ids=["complex", "str", "object", "2-d", "0-d"])
def test_unknown_column_type_is_refused(tmp_path, column):
    _assert_refused_before_writing(tmp_path, lambda stream: csvio.write_csv(
        stream, ["i", "x"], [range(3), column], {"seed": 1}))


def test_name_count_must_match_columns(tmp_path):
    _assert_refused_before_writing(tmp_path, lambda stream: csvio.write_csv(
        stream, ["a", "b", "c"], [np.arange(2), np.arange(2.0)]))


def test_unequal_columns_are_refused(tmp_path):
    hist = build_histogram(np.linspace(0.05, 0.95, 10), 0.1,
                           Interval(0.0, 1.0))
    overlays = {"exact": np.ones(len(hist.counts) - 1)}
    _assert_refused_before_writing(
        tmp_path, lambda stream: hist.to_csv(stream, {"seed": 1}, overlays))
    _assert_refused_before_writing(tmp_path, lambda stream: csvio.write_csv(
        stream, ["index", "x"], [range(4), np.arange(3.0)]))


class _Discard:
    def write(self, text):
        return len(text)


def _peak_bytes_writing(window):
    gaps = np.append(np.diff(window.primes), 0)
    columns = [range(len(gaps)), window.primes, gaps]
    tracemalloc.start()
    try:
        csvio.write_csv(_Discard(), ["index", "prime", "gap"], columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_is_bounded_by_a_block():
    # ten times the rows may not double the peak: only a block is rendered
    start = 10 ** 11 + 3
    small = _peak_bytes_writing(sequences.primes_from(start, 20_000))
    large = _peak_bytes_writing(sequences.primes_from(start, 200_000))
    assert large < 2 * small
