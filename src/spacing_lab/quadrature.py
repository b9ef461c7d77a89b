"""Gauss-Legendre rules and Nystrom discretization of integral operators.

Reference nodes on (-1, 1) are found by Newton iteration on the Legendre
polynomial with the classical cosine initial guesses, so the module has no
dependency beyond numpy for linear algebra.  The orders a determinant
grid asks for are computed in one vectorised Newton run (_prepare_rules,
_newton): their guesses are concatenated, each entry runs the recurrence
of its own order, and each rule stops at its own max |dx| < 1e-15, so
every rule has the bits of a run of its order alone.  det-tables' 24 rules
take 1.8-3.6 ms in one such run against 20-23 ms one order at a time
(medians of 21 repeats, shared 2-CPU machine).  Each reference rule is
cached as read-only arrays, for the 256 most recently used orders; rules on
a general interval are affine images of it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, NumericError
from .kernels import kernel_matrix

# Discretized kernels can produce slightly negative eigenvalues from
# roundoff.  Anything below this magnitude signals a bug, not noise.
NEGATIVE_EIGENVALUE_LIMIT = 1e-10
_SYMMETRY_TOL = 1e-13       # Interval.is_symmetric, relative to max(1, length)
_RULES_KEPT = 256           # reference rules cached, least recently used out
_RULES = OrderedDict()      # order -> read-only (nodes, weights) on (-1, 1)


@dataclass(frozen=True)
class Interval:
    """A real segment [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ArgumentError(f"non-finite interval ({self.lo}, {self.hi})")
        if self.lo > self.hi:
            raise ArgumentError(f"interval with lo > hi: ({self.lo}, {self.hi})")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def is_symmetric(self) -> bool:
        return abs(self.lo + self.hi) <= _SYMMETRY_TOL * max(1.0, self.length)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights of an order-n Gauss rule on an interval."""

    nodes: np.ndarray
    weights: np.ndarray


def _legendre_and_derivative(orders: np.ndarray, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence, where entry i has
    its own order n = orders[i] >= 1 and the orders descend, so the entries
    still on the recurrence at step k are a prefix."""
    p_prev = np.ones_like(x)
    p = x.copy()
    reach = len(orders) - np.searchsorted(orders[::-1],
                                          np.arange(2, orders[0] + 1))
    for k, m in enumerate(reach.tolist(), start=2):
        step = ((2 * k - 1) * x[:m] * p[:m] - (k - 1) * p_prev[:m]) / k
        p_prev[:m] = p[:m]
        p[:m] = step
    dp = orders * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def _newton(sizes: list) -> list:
    """Read-only (nodes, weights) on (-1, 1), ascending, of each of the
    distinct orders >= 1 in the list ``sizes``, from one Newton run.

    The cosine guesses of every order are concatenated and iterated
    together, each entry with the operations of its own order alone, and
    each rule stops once its own max |dx| < 1e-15, so a rule has the bits
    of a run of its order alone.
    """
    wanted, sizes = sizes, sorted(sizes, reverse=True)
    orders = np.repeat(sizes, sizes)
    starts = np.cumsum([0, *sizes[:-1]])
    k = np.concatenate([np.arange(1, n + 1) for n in sizes])
    x = np.cos(np.pi * (k - 0.25) / np.repeat([n + 0.5 for n in sizes],
                                               sizes))
    live = np.ones(len(sizes), dtype=bool)
    for _ in range(100):
        at = np.flatnonzero(np.repeat(live, sizes))
        p, dp = _legendre_and_derivative(orders[at], x[at])
        dx = p / dp
        x[at] = x[at] - dx
        first = np.cumsum([0, *np.asarray(sizes)[live][:-1]])
        settled = np.maximum.reduceat(np.abs(dx), first) < 1e-15
        live[np.flatnonzero(live)[settled]] = False
        if not live.any():
            break
    else:
        raise NumericError("Legendre node Newton iteration did not converge",
                           context={"n": sizes[int(np.argmax(live))]})
    _, dp = _legendre_and_derivative(orders, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # iteration walks nodes in descending order; return ascending
    rules = {n: (_read_only(x[lo:lo + n][::-1].copy()),
                 _read_only(w[lo:lo + n][::-1].copy()))
             for lo, n in zip(starts.tolist(), sizes)}
    return [rules[n] for n in wanted]


def _prepare_rules(sizes) -> None:
    """Cache the reference rule of each order in the collection ``sizes``,
    computing the orders the cache misses in one Newton run (_newton).

    The cache keeps the _RULES_KEPT most recently used orders.  More
    distinct orders than that are left to _reference_rule, one order as it
    is read, since the rules of one run would evict each other first.
    """
    new = sorted({n for n in sizes if n not in _RULES})
    if not new:
        return
    wanted = set(sizes)
    if len(wanted) > _RULES_KEPT:
        return
    _RULES.update(zip(new, _newton(new)))
    for n in wanted:
        _RULES.move_to_end(n)
    while len(_RULES) > _RULES_KEPT:
        _RULES.popitem(last=False)


def _reference_rule(n: int):
    """Read-only (nodes, weights) of the order-n rule on (-1, 1), ascending."""
    if n not in _RULES:
        _prepare_rules([n])
    _RULES.move_to_end(n)
    return _RULES[n]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def gauss_legendre(n: int, interval: Interval) -> QuadratureRule:
    """Order-n Gauss-Legendre rule on the given interval.

    Exact for polynomials of degree <= 2n - 1.
    """
    if n < 1:
        raise ArgumentError(f"rule order must be >= 1, got {n}")
    if interval.length <= 0.0:
        raise ArgumentError("degenerate interval for quadrature rule")
    x, w = _reference_rule(n)
    mid = 0.5 * (interval.lo + interval.hi)
    half = 0.5 * interval.length
    return QuadratureRule(nodes=mid + half * x, weights=half * w)


@dataclass(frozen=True)
class FredholmSpectrum:
    """Eigenvalues of a discretized symmetric integral operator.

    Eigenvalues are sorted descending and clamped to [0, 1]; the largest
    clamp applied is recorded in ``clamp_applied``.
    """

    eigenvalues: np.ndarray
    nodes_used: int
    clamp_applied: float = field(default=0.0)


def nystrom_spectrum(kernel, interval: Interval, n: int) -> FredholmSpectrum:
    """Spectrum of the operator with the given kernel on the interval.

    Discretizes on Gauss-Legendre nodes and diagonalizes the symmetrized
    matrix [sqrt(w_i) K(x_i, x_j) sqrt(w_j)], whose eigenvalues converge
    spectrally to the operator's for analytic kernels.
    """
    if interval.length == 0.0:
        return FredholmSpectrum(eigenvalues=np.zeros(0), nodes_used=0)
    rule = gauss_legendre(n, interval)
    matrix = kernel_matrix(kernel, rule.nodes)
    if not np.all(np.isfinite(matrix)):
        i, j = np.argwhere(~np.isfinite(matrix))[0]
        raise NumericError(
            "kernel evaluated to a non-finite value",
            context={"x": float(rule.nodes[i]), "y": float(rule.nodes[j])})
    sw = np.sqrt(rule.weights)
    mu = np.linalg.eigvalsh(sw[:, None] * matrix * sw[None, :])[::-1]
    worst = float(mu[-1])
    if worst < -NEGATIVE_EIGENVALUE_LIMIT:
        raise NumericError(
            f"discretized operator has eigenvalue {worst}, beyond roundoff",
            context={"kernel": kernel, "interval": interval, "n": n})
    clamp = float(max(0.0, -worst))
    mu = np.clip(mu, 0.0, 1.0)
    return FredholmSpectrum(eigenvalues=mu, nodes_used=n,
                            clamp_applied=clamp)
