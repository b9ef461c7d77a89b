"""The one CSV writer behind every table the package emits.

A file is '#'-prefixed metadata lines, a header, then one row per index
of equal-length columns.  Rows are rendered a block at a time into one
byte array: each value into a fixed-width field padded with spaces, then
a ',' or a newline.  No rendered value contains a space, so dropping every
space gives the block's rows, which go out in one write.  A column's
dtype picks its rendering, and no finite value off a rounding tie is
formatted by a Python call of its own:

* an integer exactly, four digits per lookup in a table of 4-byte words;
* a float as %.17g would write it, by numpy arithmetic over all the float
  columns of a block at once.  Its 17 significant digits D are the
  product |x| 10^(16 - E) rounded, taken in double-double arithmetic from
  10^(16 - E) held as an exact hi + lo pair; E is floor(log10 |x|),
  checked against the digits near a power of ten.  D is written by the
  integer table and laid out in a 24-byte field as a few 64-bit words: a
  sign, then d.ddd...e±XX, or fixed notation for -4 <= E < 17, without
  trailing zeros or a bare point, and spaces where no character goes.
  A value within 1e-6 of a rounding tie, which the double-double cannot
  settle, and inf and nan are formatted by Python's %.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ArgumentError

BLOCK_ROWS = 1 << 14        # rows rendered per write
_BASE = 10 ** 4             # an integer is rendered in groups of 4 digits
_SPACE = ord(" ")
_FLOAT_WIDTH = 24           # %.17g is at most 24 characters, and no space
# floats per pass of the kernel: passes of 2^12 took 40% longer (malloc
# maps their larger temporaries afresh), whole blocks 2 MB more memory
_FLOAT_CHUNK = 1 << 11
_TIE = 1e-6                 # this close to a rounding tie, % formats a float
_SPLIT = 2.0 ** 27 + 1      # Dekker's splitter for doubles
_SPACES = np.uint64(0x2020202020202020)
_ZEROS = np.uint64(0x3030303030303030)


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


def _words(value: int) -> list:
    """The three little-endian 64-bit words of a 24-byte integer."""
    return [value >> 64 * k & (1 << 64) - 1 for k in range(3)]


@functools.cache
def _exponent(E: int) -> tuple:
    """What the fields of floats of decimal exponent E share: 10^(16 - E)
    as (hi + lo) 2^s, hi split in halves for exact products, and the
    layout of the field (see _float_fields)."""
    num, den = (10 ** (16 - E), 1) if E <= 16 else (1, 10 ** (E - 16))
    s = num.bit_length() - den.bit_length()
    num, den = num << max(-s, 0), den << max(s, 0)     # a ratio in (1/2, 2)
    hi = num / den                          # int / int is correctly rounded
    lo = (num * 2 ** 53 - int(hi * 2 ** 53) * den) / (den * 2 ** 53)
    hi_high = _SPLIT * hi - (_SPLIT * hi - hi)
    # digits before the point, and the byte shift of the ones after it
    if -4 <= E < 0:         # "0.000" right-aligned in bytes 1-5
        before, shift, fill = 0, 6, " " + ("0." + "0" * (-E - 1)).rjust(5)
    else:
        before, shift = (E + 1 if 0 <= E < 17 else 1), 2
        fill = " " * (before + 1) + "."
    suffix = b"" if -4 <= E < 17 else b"e%+03d" % E     # from byte 19
    layout = [*_words((1 << 8 * before) - 1), shift,
              *_words(int.from_bytes(fill.encode().ljust(24), "little")),
              int.from_bytes(suffix, "little") << 24, before]
    return (hi, hi_high, hi - hi_high, lo, s), layout


@functools.lru_cache(maxsize=64)
def _exponent_tables(low: int, present: bytes) -> tuple:
    """_exponent of low, low + 1, ... as a (5, n) float and a (9, n) uint64
    table, a column per exponent; zeros for each one not ``present``."""
    rows = [_exponent(low + k) if p else ((0,) * 5, (0,) * 9)
            for k, p in enumerate(present)]
    return (np.array([scale for scale, _ in rows]).T.copy(),
            np.array([layout for _, layout in rows], np.uint64).T.copy())


def _per_value(E: np.ndarray, part: int) -> np.ndarray:
    """Table ``part`` of _exponent_tables, a column per value of E."""
    low = int(E.min())
    present = np.bincount(E - low).astype(bool).tobytes()
    return np.take(_exponent_tables(low, present)[part], E - low, axis=1)


def _rounded(m, e2, E):
    """D, the integer nearest y = m 2^e2 10^(16 - E), and g in [0, 1) with
    y = D + g - 1/2.  y is a double-double product, exact to about 1e-14."""
    hi, hi_high, hi_low, lo, s = _per_value(E, 0)
    c = _SPLIT * m
    m_high = c - (c - m)
    m_low = m - m_high
    p = m * hi                              # Dekker: p + err = m hi exactly
    err = (((m_high * hi_high - p) + m_high * hi_low + m_low * hi_high)
           + m_low * hi_low)
    t = e2 + s.astype(np.int32)
    r = np.ldexp(err + m * lo, t) + 0.5     # p 2^t is an integer above 2^53
    floor = np.floor(r)
    return np.ldexp(p, t).astype(np.int64) + floor.astype(np.int64), r - floor


@functools.cache
def _keep_masks() -> np.ndarray:
    """(3, 25): column K holds the words of 24 bytes that leave bytes
    below K as they are and make the others spaces (under &)."""
    bits = np.maximum(64 * np.arange(1, 4)[:, None] - 8 * np.arange(25), 0)
    return ~np.uint64(0) >> bits.astype(np.uint64) | _SPACES


def _shifted(words: np.ndarray, by) -> np.ndarray:
    """The (3, n) words of 24-byte strings, each moved ``by`` bits up."""
    out = words << by
    out[1:] |= words[:-1] >> (np.uint64(64) - by)
    return out


def _float_fields(x: np.ndarray, out: np.ndarray) -> None:
    """Write the fields of ``x`` into the (len(x), 3) uint64 rows of
    ``out``.

    A field is a sign byte, then for -4 <= E < 0 "0.000" right-aligned in
    bytes 1-5 and the digits from byte 6; otherwise the digits before the
    point from byte 1, the point, the digits after it, and from byte 19 the
    exponent suffix.  Digits past the last nonzero one after the point,
    and the point when none is left, become spaces.
    """
    n = len(x)
    a = np.abs(x)
    finite = a < np.inf
    live = finite & (a > 0)
    a = np.where(live, a, 2.0)      # off a power of ten: no second pass
    m, e2 = np.frexp(a)
    E = np.floor(np.log10(a)).astype(np.int64)
    D, g = _rounded(m, e2, E)
    # y < 1e16 where c <= 1e16 and y >= 1e17 where c > 1e17: log10 can miss
    # E by one within an ulp of a power of ten
    c = D + (g >= 0.5)
    near = np.flatnonzero((c <= 10 ** 16) | (c >= 10 ** 17))
    if len(near):
        E[near] += ((c[near] > 10 ** 17).astype(np.int64)
                    - (c[near] <= 10 ** 16))
        D[near], g[near] = _rounded(m[near], e2[near], E[near])
        top = near[D[near] == 10 ** 17]     # y rounded up to a power of ten
        D[top] = 10 ** 16
        E[top] += 1
    D *= live                       # 0 is written "0"
    # the digits: D // 10 in two words of two 4-digit groups, then the units
    Q = D // 10
    units = D - 10 * Q
    high = Q // 10 ** 8
    low = Q - high * 10 ** 8
    groups = np.empty((2, n, 2), np.int64)
    for k, half in enumerate((high, low)):
        np.floor_divide(half, _BASE, out=groups[k, :, 0])
        np.subtract(half, groups[k, :, 0] * _BASE, out=groups[k, :, 1])
    P = np.empty((3, n), np.uint64)
    P[:2] = np.take(_UPPER[_BASE:], groups).view(np.uint64)[..., 0]
    P[2] = units.view(np.uint64) + np.uint64(ord("0"))
    # significant digits: past the last nonzero byte of P ^ "000..." (each
    # byte 0-9, so the float's exponent finds it)
    low_word, high_word = (P[:2] ^ _ZEROS).astype(np.float64)
    last = (np.frexp(high_word * 2.0 ** 64 + low_word)[1] + 7) >> 3
    digits = np.where(units > 0, 17, last)
    layout = _per_value(E, 1)
    whole = P & layout[:3]          # the digits before the point
    before, shift = layout[8].view(np.int64), layout[3]
    end = np.where(digits > before, digits + shift.view(np.int64), before + 1)
    F = (_shifted(whole, np.uint64(8))
         | _shifted(P ^ whole, shift << np.uint64(3)) | layout[4:7])
    F &= np.take(_keep_masks(), end, axis=1)
    F[2] |= layout[7]
    F[0] += np.signbit(x) * np.uint64(ord("-") - _SPACE)
    out[:] = F.T
    slow = np.flatnonzero(~finite | (np.abs(g - 0.5) > 0.5 - _TIE))
    if len(slow):
        text = f"%-{_FLOAT_WIDTH}.17g" * len(slow) % tuple(x[slow].tolist())
        out[slow] = np.frombuffer(text.encode("ascii"), np.uint64).reshape(
            -1, 3)


def _render_floats(values: np.ndarray) -> np.ndarray:
    """The (len(values), 24) bytes of the fields of ``values``: each
    %.17g of its value, with spaces where no character goes."""
    values = np.asarray(values, np.float64)
    words = np.empty((len(values), 3), np.uint64)
    for lo in range(0, len(values), _FLOAT_CHUNK):
        chunk = slice(lo, lo + _FLOAT_CHUNK)
        _float_fields(values[chunk], words[chunk])
    return words.view(np.uint8)


def _is_float(column) -> bool:
    """Whether ``column`` is written as floats rather than integers."""
    if isinstance(column, range):
        return False
    if column.ndim == 1 and column.dtype.kind in "biuf":
        return column.dtype.kind == "f"
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
    floats = [_is_float(c) for c in columns]
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
        rows = len(parts[0])
        if any(floats):
            text = _render_floats(np.concatenate(
                [part for part, f in zip(parts, floats) if f]))
        widths = [_FLOAT_WIDTH if f else _integer_width(part)
                  for part, f in zip(parts, floats)]
        body = np.empty((rows, sum(widths) + len(widths)), np.uint8)
        at = 0
        for part, f, width in zip(parts, floats, widths):
            if f:
                body[:, at:at + width], text = text[:rows], text[rows:]
            else:
                _render_integers(part, body[:, at:at + width])
            body[:, at + width] = ord(",")
            at += width + 1
        body[:, -1] = ord("\n")
        stream.write(body.tobytes().translate(None, b" ").decode("ascii"))
