"""Closed-form reference spacing densities.

Two small-matrix families live here.  The power-law ansatz
p(s) = c1 s^beta exp(-c2 s^(beta+1)/(beta+1)) is solved for any beta > -1;
it reproduces the exponential law at beta = 0 and the classic beta = 1
surmise.  The beta = 2 and beta = 4 closed forms have a Gaussian tail
instead (they come from the 2x2 ensembles directly, not from the power-law
ansatz), so they are generated by a separate coefficient rule; beta = 1 is
the case where the two families coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, UnsupportedError
from .points import on_points


def poisson_p(n: int, s):
    """Poisson spacing ladder s^n e^{-s} / n! at a float or an array of s."""
    if n < 0:
        raise ArgumentError(f"n must be >= 0, got {n}")
    return on_points(s, 1.0 if n == 0 else 0.0, lambda v: np.array([math.exp(
        n * math.log(x) - x - math.lgamma(n + 1)) for x in v.tolist()]))


@dataclass(frozen=True)
class SurmiseCoefficients:
    """Normalization pair for p(s) = c1 s^beta exp(-c2 s^(beta+1)/(beta+1)).

    Both the integral and the mean of the density are 1 by construction.
    """

    beta: float
    c1: float
    c2: float

    def density(self, s):
        """p at a float or an array of s, as wigner_surmise takes them."""
        c1, c2, beta = self.c1, self.c2, self.beta
        return on_points(s, c1 if beta == 0.0 else 0.0, lambda v: np.array(
            [c1 * x ** beta * math.exp(-c2 * x ** (beta + 1.0) / (beta + 1.0))
             for x in v.tolist()]))


def solve_ansatz(beta: float) -> SurmiseCoefficients:
    """Coefficients of the power-law repulsion ansatz with unit mass and mean.

    Closing the two moment conditions in Gamma functions gives
    c1 = c2 = (beta+1) * Gamma(1 + 1/(beta+1))^(beta+1).
    """
    if beta <= -1.0:
        raise ArgumentError(f"beta must exceed -1, got {beta}")
    q = beta + 1.0
    c = q * math.gamma(1.0 + 1.0 / q) ** q
    return SurmiseCoefficients(beta=float(beta), c1=c, c2=c)


def gaussian_class_coefficients(beta: float):
    """(c1, c2) of the Gaussian-tail family p = c1 s^beta exp(-c2 s^2).

    Unit mass and unit mean force c2 = (Gamma((beta+2)/2)/Gamma((beta+1)/2))^2
    and c1 = 2 Gamma((beta+2)/2)^(beta+1) / Gamma((beta+1)/2)^(beta+2).
    """
    if beta <= -1.0:
        raise ArgumentError(f"beta must exceed -1, got {beta}")
    top = math.gamma((beta + 2.0) / 2.0)
    bot = math.gamma((beta + 1.0) / 2.0)
    return 2.0 * top ** (beta + 1.0) / bot ** (beta + 2.0), (top / bot) ** 2


def wigner_surmise(beta: int, s):
    """The 2x2-ensemble spacing density for beta in {1, 2, 4}.

    beta=1: (pi/2) s exp(-pi s^2/4); beta=2: (32/pi^2) s^2 exp(-4 s^2/pi);
    beta=4: (2^18/3^6 pi^3) s^4 exp(-64 s^2/(9 pi)).  Takes a float or an
    array of s, as points.on_points sets out; Python's own pow and exp are
    applied point by point, so an array gives a scalar loop's floats.
    """
    if beta not in (1, 2, 4):
        raise UnsupportedError(f"surmise defined for beta in {{1,2,4}}, got {beta}")
    c1, c2 = gaussian_class_coefficients(float(beta))
    return on_points(s, 0.0, lambda v: np.array(
        [c1 * x ** beta * math.exp(-c2 * x * x) for x in v.tolist()]))


def p1_spacing1_approx(s):
    """Surmise stand-in for the beta=1 next-nearest spacing: (1/2) p4(0; s/2).

    Takes a float or an array of s, as wigner_surmise does."""
    return on_points(s, 0.0, lambda v: 0.5 * wigner_surmise(4, v / 2.0))
