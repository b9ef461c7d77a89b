"""The argument rule of every evaluator of s, the sign rule of every
density, and the parity identities of the beta = 1 and 4 statistics.

An evaluator takes a float s (and returns a float) or an array of s (and
returns an array of its shape).  At s = 0 it gives the quantity's exact
limit, the other points reach its body as one flat array, and a negative
or non-finite s raises ArgumentError.  A density that comes out negative
raises NumericError (on_density).

E1, E4, p1, p4 and p1(1; s) are compositions of the even and odd
sine-kernel determinants D_plus and D_minus on (-x, x) (Forrester,
Log-Gases and Random Matrices, 2010, ch. 9): PARITY_IDENTITIES states
each once, and from_parities builds it from any route's D_pm and D_pm''.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError, NumericError


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


def on_density(s, fn):
    """on_points(s, 0.0, fn) for a density.  A negative value lies below
    its route's absolute accuracy, where its sign is noise, and raises
    NumericError naming the first such s."""
    def checked(v):
        values = fn(v)
        bad = np.flatnonzero(values < 0.0)
        if len(bad):
            at, value = float(v[bad[0]]), float(values[bad[0]])
            raise NumericError(
                f"density {value:.3g} at s = {at:g} is negative: below the "
                "route's absolute accuracy",
                context={"s": at, "value": value})
        return values
    return on_points(s, 0.0, checked)


# quantity: (x per s, weight, signs, order): weight times the sum over the
# signs (1 even, -1 odd) of D_sign, or D_sign'' at order 2, at x
PARITY_IDENTITIES = {
    "E1": (1.0, 1.0, (1,), 0),          # E1(0; (-s, s)) = D_plus(s)
    "E4": (1.0, 0.5, (1, -1), 0),       # E4(0; (-s/2, s/2)) = (D+ + D-)(s)/2
    "p1": (0.5, 0.25, (1,), 2),         # p1(0; s) = D_plus''(s/2) / 4
    "p4": (1.0, 0.5, (1, -1), 2),       # p4(0; s) = (D+'' + D-'')(s) / 2
    "p1gap": (0.5, 0.25, (1, -1), 2),   # p1(1; s) = (D+'' + D-'')(s/2) / 4
}


def from_parities(quantity, s, parities):
    """The quantity of PARITY_IDENTITIES at s, from a route's
    parities(x, order, signs): D_sign or D_sign'' on (-x, x) at each x of
    a 1-D array, one array per sign asked for.  Only the parities the
    quantity reads are asked for, and a density obeys on_density."""
    scale, weight, signs, order = PARITY_IDENTITIES[quantity]

    def composed(v):
        first, *rest = parities(v * scale, order, signs)
        return weight * (first + rest[0] if rest else first)

    return on_density(s, composed) if order else on_points(s, 1.0, composed)
