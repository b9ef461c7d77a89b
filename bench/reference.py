"""Reference computations made apart from spacing_lab, for output checks.

Nothing here imports spacing_lab: the kernels are written from their
formulas with numpy's sinc, the quadrature is numpy's Gauss-Legendre rule,
the determinant is an LU determinant rather than a product over
eigenvalues, and the sieve is a plain odds-only sieve.
"""

from __future__ import annotations

import math

import numpy as np

NODES = 96      # Gauss-Legendre nodes; enough for intervals up to length 8


def _sine(x, y):
    return np.sinc(x - y)               # np.sinc(z) = sin(pi z) / (pi z)


def _even(x, y):
    return 0.5 * (np.sinc(x - y) + np.sinc(x + y))


def _odd(x, y):
    return 0.5 * (np.sinc(x - y) - np.sinc(x + y))


def _conditioned(x, y):
    return np.sinc(x - y) - np.sinc(x) * np.sinc(y)


KERNELS = {"sine": _sine, "even": _even, "odd": _odd,
           "conditioned": _conditioned}


def nystrom_det(kernel: str, lo: float, hi: float) -> float:
    """det(1 - K) on (lo, hi) from a Gauss-Legendre Nystrom matrix."""
    if hi <= lo:
        return 1.0
    x, w = np.polynomial.legendre.leggauss(NODES)
    x = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    sw = np.sqrt(0.5 * (hi - lo) * w)
    k = KERNELS[kernel](x[:, None], x[None, :])
    return float(np.linalg.det(np.eye(NODES) - sw[:, None] * k * sw[None, :]))


def gap_probability(quantity: str, s: float) -> float:
    """The tabulate quantities E2, E1, E4 and Enn at s, in the CLI's conventions."""
    if quantity == "E2":
        return nystrom_det("sine", -s / 2, s / 2)
    if quantity == "E1":
        return nystrom_det("even", -s, s)
    if quantity == "E4":
        return 0.5 * (nystrom_det("even", -s, s) + nystrom_det("odd", -s, s))
    if quantity == "Enn":
        return nystrom_det("conditioned", -s, s)
    raise ValueError(f"no reference for {quantity!r}")


def e2_small_s(s: float) -> float:
    """Small-s expansion of E2(0; s) through s^8."""
    p2 = math.pi ** 2
    return (1.0 - s + p2 * s ** 4 / 36.0 - p2 ** 2 * s ** 6 / 675.0
            + p2 ** 3 * s ** 8 / 17640.0)


def primes_between(lo: int, hi: int) -> np.ndarray:
    """All primes p with lo <= p <= hi, by an odds-only sieve of [lo, hi]."""
    root = math.isqrt(hi)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p::p] = False
    base = np.flatnonzero(small)
    first = lo | 1                      # odd numbers first, first + 2, ...
    flags = np.ones((hi - first) // 2 + 1, dtype=bool)
    for p in base[base > 2].tolist():
        start = max(p * p, -(-first // p) * p)
        if start % 2 == 0:
            start += p
        flags[(start - first) // 2::p] = False
    found = first + 2 * np.flatnonzero(flags).astype(np.int64)
    if lo <= 2 <= hi:
        found = np.concatenate(([2], found[found > 2]))
    return found[found >= 2]
