"""Gauss-Legendre rules and Nystrom discretization of integral operators.

Reference nodes on (-1, 1) are found by Newton iteration on the Legendre
polynomial with the classical cosine initial guesses, so the module has no
dependency beyond numpy for linear algebra.  Each reference rule is computed
once per order and cached as read-only arrays; rules on a general interval
are affine images of it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, NumericError
from .kernels import kernel_matrix

# Discretized kernels can produce slightly negative eigenvalues from
# roundoff.  Anything below this magnitude signals a bug, not noise.
NEGATIVE_EIGENVALUE_LIMIT = 1e-10
_SYMMETRY_TOL = 1e-13       # Interval.is_symmetric, relative to max(1, length)


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


def _legendre_and_derivative(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@functools.lru_cache(maxsize=256)
def _reference_rule(n: int):
    """Read-only (nodes, weights) of the order-n rule on (-1, 1), ascending."""
    if n == 1:
        return _read_only(np.array([0.0])), _read_only(np.array([2.0]))
    k = np.arange(1, n + 1)
    x = np.cos(np.pi * (k - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_derivative(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise NumericError("Legendre node Newton iteration did not converge",
                           context={"n": n})
    _, dp = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # iteration walks nodes in descending order; return ascending
    return _read_only(x[::-1].copy()), _read_only(w[::-1].copy())


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
