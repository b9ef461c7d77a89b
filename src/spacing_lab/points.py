"""The argument rule of every evaluator of s, on every route.

An evaluator takes a float s (and returns a float) or an array of s (and
returns an array of its shape).  At s = 0 it gives the quantity's exact
limit, the other points reach its body as one flat array, and a negative
or non-finite s raises ArgumentError.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError


def on_points(s, at_zero, fn):
    """at_zero where s == 0 and fn(array of the other s) elsewhere."""
    s = np.asarray(s, dtype=float)
    flat = s.ravel()
    bad = ~(np.isfinite(flat) & (flat >= 0.0))
    if bad.any():
        raise ArgumentError(f"s must be finite and >= 0, got {flat[bad][0]}")
    out = np.full(flat.shape, at_zero)
    live = np.flatnonzero(flat)
    if len(live):
        out[live] = fn(flat[live])
    return float(out[0]) if s.ndim == 0 else out.reshape(s.shape)
