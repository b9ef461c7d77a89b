"""The route table: the library evaluator behind each (quantity, method).

`tabulate` fills column ``<quantity>_<method>`` from it and `verify`
compares fredholm with painleve entries through it.  An entry takes an
array of s and the keywords ``beta`` and ``n``, and looks its evaluator up
on the module when called, so a replaced module attribute (a test double,
a tracer) is the one that runs.  Each route runs at its module's stated
tolerance (fredholm.DET_TOL, painleve.DEFAULT_TOL).
"""

from __future__ import annotations

import numpy as np

from . import fredholm, painleve, surmise
from .errors import UnsupportedError

QUANTITIES = ("E2", "E1", "E4", "Enn", "p0", "p1gap", "p2nn", "En")
METHODS = ("fredholm", "painleve", "surmise")
BETAS = (1, 2, 4)                       # the p0 columns

_COLUMNS = {
    ("E2", "fredholm"): lambda s, **_: fredholm.e2_bulk_det(s),
    ("E2", "painleve"): lambda s, **_: painleve.e2_bulk(s),
    ("E1", "fredholm"): lambda s, **_: fredholm.e1_bulk_det(s),
    ("E1", "painleve"): lambda s, **_: painleve.e1_bulk(s),
    ("E4", "fredholm"): lambda s, **_: fredholm.e4_bulk_det(s),
    ("E4", "painleve"): lambda s, **_: painleve.e4_bulk(s),
    ("Enn", "fredholm"): lambda s, **_: fredholm.enn_det(s),
    ("Enn", "painleve"): lambda s, **_: painleve.enn_generating(s),
    ("p0", "fredholm"): lambda s, beta, **_: {
        1: fredholm.p1_det, 2: fredholm.p2_det,
        4: fredholm.p4_det}[beta](s),
    ("p0", "painleve"): lambda s, beta, **_: {
        1: painleve.p1_direct, 2: painleve.p2_direct,
        4: painleve.p4_direct}[beta](s),
    ("p0", "surmise"): lambda s, beta, **_: surmise.wigner_surmise(beta, s),
    ("p1gap", "fredholm"): lambda s, **_: fredholm.p1_gap1_det(s),
    ("p1gap", "painleve"): lambda s, **_: painleve.p1_gap1(s),
    ("p1gap", "surmise"): lambda s, **_: surmise.p1_spacing1_approx(s),
    ("p2nn", "fredholm"): lambda s, **_: fredholm.p2_nn_det(s),
    ("p2nn", "painleve"): lambda s, **_: painleve.p2_nn(s),
    ("En", "fredholm"): lambda s, n, **_: fredholm.en_bulk_det(s, n),
    ("En", "painleve"): lambda s, **_: painleve.e2_bulk(s),     # n = 0 only
}


def methods_for(quantity: str, method: str = "all", n: int = 0) -> tuple:
    """The methods that produce ``quantity`` (all of them, in METHODS
    order, for ``method="all"``); UnsupportedError for one that cannot."""
    supported = ("fredholm",) if quantity == "En" and n > 0 else tuple(
        m for m in METHODS if (quantity, m) in _COLUMNS)
    if method == "all":
        return supported
    if method not in supported:
        raise UnsupportedError(
            f"method {method!r} cannot produce {quantity!r}"
            + (f" at n={n}" if quantity == "En" else "")
            + f"; available: {', '.join(supported)}")
    return (method,)


def evaluate(quantity: str, method: str, s, *, beta: int = 1,
             n: int = 0) -> np.ndarray:
    """The column ``<quantity>_<method>`` on the array of s."""
    methods_for(quantity, method, n)    # painleve En holds at n = 0 only
    if quantity == "p0" and beta not in BETAS:
        raise UnsupportedError(
            f"p0 is defined for beta in {set(BETAS)}, got {beta}")
    return _COLUMNS[(quantity, method)](s, beta=beta, n=n)


def max_relative(a, b) -> float:
    """max |a - b| / max(|a|, |b|) over the points where the denominator is
    > 0 (0 when there are none)."""
    scale = np.maximum(np.abs(a), np.abs(b))
    live = scale > 0.0
    if not live.any():
        return 0.0
    return float(np.max(np.abs(a - b)[live] / scale[live]))
