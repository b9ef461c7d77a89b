"""The one CSV writer behind every table the package emits.

A file is '#'-prefixed metadata lines, a header, then one row per index
of equal-length columns.  Rows are rendered a block at a time into one
byte array: each value into a fixed-width field padded with spaces, then
a ',' or a newline.  No rendered value contains a space, so dropping every
space gives the block's rows, which go out in one write.  A column's
dtype picks its rendering: integers exactly, four digits per table lookup,
and floats by one %.17g format of the whole block, so no value is
formatted by a Python call of its own.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError

BLOCK_ROWS = 1 << 14        # rows rendered per write
_BASE = 10 ** 4             # an integer is rendered in groups of 4 digits
_SPACE = ord(" ")
_FLOAT_WIDTH = 24           # %.17g is at most 24 characters, and no space


def _group_table(zero: bytes) -> np.ndarray:
    """The 4 ASCII digits of each group value 0 .. _BASE - 1 as a uint32
    word: first with leading zeros as spaces (``zero`` for the value 0),
    the leading group of a number; then, from index _BASE on, with all
    four digits, a group below a nonzero one."""
    value = np.arange(_BASE, dtype=np.uint16)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits = (value // place % 10 + ord("0")).astype(np.uint8)
    leading = np.where(value < place, np.uint8(_SPACE), digits)
    leading[0] = np.frombuffer(zero, np.uint8)
    return np.concatenate((leading, digits)).view(np.uint32).ravel()


_UNITS = _group_table(b"   0")     # the last group: 0 is written "0"
_UPPER = _group_table(b"    ")     # a group above it: 0 is left out


def _integer_width(values: np.ndarray) -> int:
    """Bytes that fit every value right-aligned: a sign byte if any value
    is negative, then the digits of the largest magnitude rounded up to
    whole groups."""
    low, high = int(values.min()), int(values.max())
    return (low < 0) + 4 * -(-len(str(max(high, -low))) // 4)


def _render_integers(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``values`` right-aligned into the byte rows of ``out``, whose
    width comes from _integer_width."""
    sign = out.shape[1] % 4
    if values.dtype.kind == "u":
        magnitude = values.astype(np.uint64)
    else:
        values = values.astype(np.int64)
        if sign:
            out[:, 0] = np.where(values < 0, ord("-"), _SPACE)
        # abs(-2**63) wraps to -2**63, whose uint64 view is 2**63
        magnitude = np.abs(values).view(np.uint64)
    words = out[:, sign:].view(np.uint32)
    base = np.uint64(_BASE)
    for k in range(words.shape[1]):             # the units group first
        high = magnitude // base
        group = magnitude - high * base
        group += (high > 0) * base
        # mode="clip" (a no-op: group < 2 * _BASE) writes to out unbuffered
        np.take(_UPPER if k else _UNITS, group, out=words[:, -1 - k],
                mode="clip")
        magnitude = high


def _render_floats(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``values`` by %.17g, left-aligned, into the 24-byte rows of
    ``out``."""
    text = f"%-{_FLOAT_WIDTH}.17g" * len(values) % tuple(values.tolist())
    out[:] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(out.shape)


def _field(column):
    """The (width, render) functions that write ``column``, by its type."""
    if isinstance(column, range):
        return _integer_width, _render_integers
    if column.ndim == 1 and column.dtype.kind in "biu":
        return _integer_width, _render_integers
    if column.ndim == 1 and column.dtype.kind == "f":
        return (lambda values: _FLOAT_WIDTH), _render_floats
    raise ArgumentError(f"cannot write a {column.ndim}-d {column.dtype} "
                        "column: a column is 1-d, of integers or floats")


def _materialised(part):
    """A block of a column as an array (a range block as int64)."""
    if isinstance(part, range):
        return np.arange(part.start, part.stop, part.step, dtype=np.int64)
    return part


def write_csv(stream, names, columns, metadata=None) -> None:
    """Write ``columns`` under the header ``names``, after ``metadata``.

    A column is an array, or a ``range`` (an index column that is never
    materialised).  Its type picks its rendering: an integer column is
    written exactly at any 64-bit value, a float column by ``%.17g``, which
    round-trips it.  Any other type, a column of other than one dimension,
    a name count other than the column count and columns of unequal
    lengths are refused before anything is written.  ``stream`` is a text
    stream, or a path that is opened and closed here.
    """
    columns = [c if isinstance(c, range) else np.asarray(c) for c in columns]
    fields = [_field(c) for c in columns]
    if len(names) != len(columns):
        raise ArgumentError(f"{len(names)} names for {len(columns)} columns")
    lengths = sorted({len(c) for c in columns})
    if len(lengths) > 1:
        raise ArgumentError(f"columns of unequal lengths {lengths}")
    if isinstance(stream, (str, bytes)):
        with open(stream, "w", encoding="utf-8") as handle:
            write_csv(handle, names, columns, metadata)
        return
    for key, value in (metadata or {}).items():
        stream.write(f"# {key}: {value}\n")
    stream.write(",".join(names) + "\n")
    n_rows = len(columns[0])
    for lo in range(0, n_rows, BLOCK_ROWS):
        parts = [_materialised(c[lo:lo + BLOCK_ROWS]) for c in columns]
        widths = [width(part) for (width, _), part in zip(fields, parts)]
        body = np.empty((len(parts[0]), sum(widths) + len(widths)), np.uint8)
        at = 0
        for (_, render), part, width in zip(fields, parts, widths):
            render(part, body[:, at:at + width])
            body[:, at + width] = ord(",")
            at += width + 1
        body[:, -1] = ord("\n")
        stream.write(body.tobytes().translate(None, b" ").decode("ascii"))
