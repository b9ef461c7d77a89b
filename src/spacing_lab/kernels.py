"""Closed-form kernels: the sine family and the spectrum singularity.

All supported kernels are built from the cardinal sine, so every
evaluation is cancellation-free: sinc gets a 4-term Taylor branch near 0.
The hard-edge Bessel kernels of order a = -1/2 and +1/2 on (0, t) are the
even and odd sine kernels on (-sqrt(t)/pi, sqrt(t)/pi) in p = sqrt(x), so
their determinants are those of SineEven and SineOdd.

Conventions (mean spacing 1 in the bulk):
  SineBulk(x, y)             = sinc(pi (x - y))
  SineEven/Odd(x, y)         = (sinc(pi (x - y)) +/- sinc(pi (x + y))) / 2
  SpectrumSingularity(x, y)  = sinc(pi (x - y)) - sinc(pi x) sinc(pi y),
                               the bulk conditioned on an eigenvalue at 0
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedError

SINE_BULK = "SineBulk"
SINE_EVEN = "SineEven"
SINE_ODD = "SineOdd"
SPECTRUM_SINGULARITY = "SpectrumSingularity"

# both sinc branches agree to ~1e-12 at this threshold (scaled variables)
_SINC_SWITCH = 1e-4
# both branches of cos z - sinc z are within ~1e-14 relative here; below
# it the direct difference loses about eps / z^2, the 4-term series less
_COS_MINUS_SINC_SWITCH = 0.1


@dataclass(frozen=True)
class KernelSpec:
    variant: str

    def __post_init__(self):
        if self.variant not in (SINE_BULK, SINE_EVEN, SINE_ODD,
                                SPECTRUM_SINGULARITY):
            raise UnsupportedError(f"unknown kernel variant {self.variant!r}")


def sine_bulk() -> KernelSpec:
    return KernelSpec(SINE_BULK)


def sine_even() -> KernelSpec:
    return KernelSpec(SINE_EVEN)


def sine_odd() -> KernelSpec:
    return KernelSpec(SINE_ODD)


def spectrum_singularity() -> KernelSpec:
    return KernelSpec(SPECTRUM_SINGULARITY)


def sinc(z):
    """sin(z)/z with its removable singularity filled in: sin z / z is
    taken everywhere else, and the Taylor branch only on the entries with
    |z| < _SINC_SWITCH."""
    z = np.asarray(z, dtype=float)
    if not z.ndim:
        return float(sinc(z[None])[0])
    small = np.abs(z) < _SINC_SWITCH
    out = np.where(small, 1.0, z)
    np.divide(np.sin(out), out, out=out)
    if small.any():
        z2 = z[small] * z[small]
        out[small] = (1.0 - z2 / 6.0 + z2 * z2 / 120.0
                      - z2 * z2 * z2 / 5040.0)
    return out


# an overflowing argument gives inf or nan without a warning: the caller's
# non-finite check (nystrom_spectrum, fredholm._det_jet_stack) reports it as
# the one error
_QUIET = np.errstate(over="ignore", invalid="ignore")


@_QUIET
def _eval_array(spec: KernelSpec, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if spec.variant == SINE_BULK:
        return sinc(np.pi * (x - y))
    if spec.variant == SINE_EVEN:
        return 0.5 * (sinc(np.pi * (x - y)) + sinc(np.pi * (x + y)))
    if spec.variant == SINE_ODD:
        return 0.5 * (sinc(np.pi * (x - y)) - sinc(np.pi * (x + y)))
    return sinc(np.pi * (x - y)) - sinc(np.pi * x) * sinc(np.pi * y)


def kernel_matrix(spec: KernelSpec, nodes: np.ndarray) -> np.ndarray:
    """Dense symmetric matrix [K(x_i, x_j)] over a node set."""
    x = np.asarray(nodes, dtype=float)
    return _eval_array(spec, x[:, None], x[None, :])


def _scaled_sinc_jet(s: np.ndarray, d: np.ndarray, order: int) -> list:
    """s sinc(pi s d) = sin(pi s d)/(pi d) (s where d = 0) and its first
    ``order`` derivatives in s: cos(pi s d), then -pi d sin(pi s d)."""
    z = np.pi * s * d
    sin = np.sin(z)
    zero = d == 0.0
    jet = [np.where(zero, s, sin / (np.pi * np.where(zero, 1.0, d)))]
    if order >= 1:
        jet.append(np.cos(z))
    if order >= 2:
        jet.append(-np.pi * d * sin)
    return jet


def _cos_minus_sinc(z: np.ndarray) -> np.ndarray:
    """cos z - sinc z = z d/dz sinc z, by its Taylor series near 0 where
    the difference cancels."""
    small = np.abs(z) < _COS_MINUS_SINC_SWITCH
    z2 = z * z
    taylor = z2 * (-1.0 / 3.0 + z2 * (1.0 / 30.0 + z2 * (-1.0 / 840.0
                                                         + z2 / 45360.0)))
    return np.where(small, taylor, np.cos(z) - sinc(z))


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.outer of the last axes, over any leading ones."""
    return a[..., :, None] * b[..., None, :]


@_QUIET
def scaled_jets(spec: KernelSpec, t: np.ndarray, s,
                order: int) -> list:
    """[s K(s t_i, s t_j)] over reference nodes t and its first ``order``
    derivatives in s, in closed form.

    This is the Nystrom matrix of the kernel on (-s, s) with the rule put
    on (-1, 1), before the weights.  For an array of s each entry is the
    stack of these matrices over s, with the bits of a call at that s
    alone.  Implemented for the parity sine kernels up to order 2 and for
    SpectrumSingularity up to order 1.  The first derivative of a parity
    kernel is rank one: cos a_i cos a_j (even) or sin a_i sin a_j (odd)
    with a = pi s t.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    matrix_s = s[..., None, None]
    if spec.variant in (SINE_EVEN, SINE_ODD) and order <= 2:
        sign = 1.0 if spec.variant == SINE_EVEN else -1.0
        minus = _scaled_sinc_jet(matrix_s, t[:, None] - t[None, :], order)
        plus = _scaled_sinc_jet(matrix_s, t[:, None] + t[None, :], order)
        return [0.5 * (m + sign * p) for m, p in zip(minus, plus)]
    if spec.variant == SPECTRUM_SINGULARITY and order <= 1:
        # s sinc(pi s t_i) sinc(pi s t_j), whose s-derivative is
        # sinc_i sinc_j + g_i sinc_j + sinc_i g_j with g = cos - sinc at
        # z = pi s t
        z = np.pi * s[..., None] * t
        c = sinc(z)
        jet = _scaled_sinc_jet(matrix_s, t[:, None] - t[None, :], order)
        jet[0] = jet[0] - matrix_s * _outer(c, c)
        if order == 1:
            g = _cos_minus_sinc(z)
            jet[1] = jet[1] - (_outer(c, c) + _outer(g, c) + _outer(c, g))
        return jet
    raise UnsupportedError(
        f"no closed-form s-derivatives of order {order} for {spec}")
