"""The one CSV writer behind every table the package emits.

A file is '#'-prefixed metadata lines, a header, then one row per index
of equal-length columns.  Rows are %-formatted a block at a time, with one
format string per block, which writes the same bytes as formatting each
value on its own but keeps Python's per-value work out of long tables.
"""

from __future__ import annotations

import numpy as np

BLOCK_ROWS = 1 << 14        # rows formatted per write


def write_csv(stream, names, columns, formats, metadata=None) -> None:
    """Write ``columns`` under the header ``names``, after ``metadata``.

    A column is an array, or a ``range`` (an index column that is never
    materialised).  ``formats`` holds one %-format per column: ``%.17g``
    round-trips a float, ``%d`` writes an integer.  Integer columns reach
    the format as Python ints, so they stay exact at any size.  ``stream``
    is a text stream, or a path that is opened and closed here.
    """
    if isinstance(stream, (str, bytes)):
        with open(stream, "w", encoding="utf-8") as handle:
            write_csv(handle, names, columns, formats, metadata)
        return
    for key, value in (metadata or {}).items():
        stream.write(f"# {key}: {value}\n")
    stream.write(",".join(names) + "\n")
    columns = [c if isinstance(c, range) else np.asarray(c) for c in columns]
    width = len(columns)
    row = ",".join(formats) + "\n"
    n_rows = len(columns[0])
    for lo in range(0, n_rows, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n_rows)
        flat = [None] * ((hi - lo) * width)
        for j, column in enumerate(columns):
            part = column[lo:hi]
            flat[j::width] = part if isinstance(part, range) else part.tolist()
        stream.write(row * (hi - lo) % tuple(flat))
