"""Gap probabilities and spacing densities from operator spectra.

This is the determinantal route: every quantity here comes from eigenvalues
mu_j of a kernel restricted to an interval, through det(1 - xi K) and its
xi-derivatives.  Interval conventions differ per statistic and are stated on
each function; the Interval argument of the underlying spectrum is always
the ground truth.

The evaluators of s (E2, E1, E4, Enn, En and the spacing densities p1, p2,
p4, p1(1; s) and the conditioned nearest-neighbour density) take a float
or an array of s, as points.on_points sets out.  Each point of a call is
solved on its own converged rule and nothing is kept between calls, so an
array gives the floats of a loop of scalar calls.  Every rule is converged
to the one absolute tolerance DET_TOL, read at call time.

The densities are exact s-derivatives of determinants by Jacobi's formula:
the Gauss rule sits on (-1, 1), the matrix A(x) = x sqrt(w_i w_j)
K(x t_i, x t_j) of the kernel on (-x, x) has closed-form x-derivatives
(kernels.scaled_jets), and with R = (1 - A)^-1,

    D' = -D tr(R A'),   D'' = D [(tr R A')^2 - tr(R A'') - tr(R A' R A')],

where for the parity kernels A' is rank one and D'' = -D tr(R A'').  Each
point costs one inverse per rule: it doubles its own rule until D and its
derivatives settle, or raises NumericError.
One table of 5-point stencils serves the centred differences of a profile
at points (_stencil, which verify compares the densities against) and the
grid second differences of gaudin_split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .csvio import write_csv
from .errors import ArgumentError, NumericError, UnsupportedError
from .points import on_points
from .quadrature import (FredholmSpectrum, Interval, gauss_legendre,
                         nystrom_spectrum)

_EIGENVALUE_FLOOR = 1e-16     # product truncation point
_FORCED_LEVEL_GAP = 1e-14     # 1 - mu below this: level treated as occupied
_MAX_GAP_ORDER = 30
_MAX_NODES = 1600
DET_TOL = 1e-10               # node-doubling tolerance of every determinant
_STENCIL_H = 1e-3             # step of the point stencils (_stencil)
_GAUDIN_STEP = 1e-2           # largest grid step of gaudin_split


def generating_value(spectrum: FredholmSpectrum, xi: float) -> float:
    """det(1 - xi K) = prod_j (1 - xi mu_j) over the retained spectrum."""
    if not 0.0 <= xi <= 1.0:
        raise ArgumentError(f"xi must lie in [0, 1], got {xi}")
    mu = spectrum.eigenvalues
    mu = mu[mu > _EIGENVALUE_FLOOR]
    return float(np.prod(1.0 - xi * mu))


def gap_n(spectrum: FredholmSpectrum, n: int) -> float:
    """E(n) = (-1)^n/n! d^n/dxi^n det(1 - xi K) at xi = 1, the probability
    that the interval holds exactly n eigenvalues.

    Evaluated as prod(1 - mu) * e_n(mu/(1 - mu)) with e_n the elementary
    symmetric function, built by the ascending recurrence (no derivatives,
    no alternating sums).  Eigenvalues within _FORCED_LEVEL_GAP of 1 are
    factored out as forced occupied levels, since their ratio overflows;
    NumericError where n is below their count, as E(n) then reads 0 and
    no digit of it is left.
    """
    if n < 0:
        raise ArgumentError(f"gap order must be >= 0, got {n}")
    if n > _MAX_GAP_ORDER:
        raise UnsupportedError(
            f"gap order {n} beyond documented stability bound {_MAX_GAP_ORDER}")
    mu = spectrum.eigenvalues
    mu = mu[mu > _EIGENVALUE_FLOOR]
    forced = mu > 1.0 - _FORCED_LEVEL_GAP
    n_forced = int(np.count_nonzero(forced))
    if n < n_forced:
        raise NumericError(
            f"gap probability E({n}) is forced to 0: an eigenvalue rounded "
            "to 1", context={"n": n, "forced_levels": n_forced})
    free = mu[~forced]
    prefactor = float(np.prod(mu[forced])) * float(np.prod(1.0 - free))
    ratios = free / (1.0 - free)
    k = n - n_forced
    e = np.zeros(k + 1)
    e[0] = 1.0
    for r in ratios:
        top = min(k, len(e) - 1)
        for j in range(top, 0, -1):
            e[j] += r * e[j - 1]
    return prefactor * float(e[k])


def _node_doubling(build, length: float, context: dict,
                   measure=lambda built: built):
    """build(n) on the first rule whose measure moves by at most DET_TOL.

    Convergence is exponential in the node count for the analytic kernels
    (Bornemann, Math. Comp. 79, 2010), and the number of eigenvalues that
    matter grows like the length of the interval, so the first rule has
    16 + ceil(2 length) nodes; each next one doubles it.  The measure is a
    float or an array, compared entry by entry.  No rule exceeds
    _MAX_NODES, and 2 length is capped there before its ceiling, which an
    infinite length would overflow; a rule there that still moves raises
    NumericError.
    """
    n = min(16 + math.ceil(min(2.0 * length, _MAX_NODES)), _MAX_NODES)
    prev = measure(build(n))
    while n < _MAX_NODES:
        n = min(2 * n, _MAX_NODES)
        built = build(n)
        cur = measure(built)
        if np.max(np.abs(cur - prev)) <= DET_TOL:
            return built
        prev = cur
    raise NumericError("determinant did not converge under node doubling",
                       context=context)


def _converged_spectrum(kernel_spec, interval: Interval) -> FredholmSpectrum:
    """The spectrum of the first doubled rule on which det(1 - K) moves by
    at most DET_TOL."""
    return _node_doubling(
        lambda n: nystrom_spectrum(kernel_spec, interval, n),
        interval.length,
        {"kernel": kernel_spec, "interval": interval},
        lambda spec: generating_value(spec, 1.0))


def fredholm_det(kernel_spec, interval: Interval, xi: float = 1.0) -> float:
    """Converged det(1 - xi K) on the interval.

    Raises NumericError where it is exactly 0: an eigenvalue rounded to 1
    left no digit of a determinant that is positive.
    """
    if interval.length == 0.0:
        return 1.0
    det = generating_value(_converged_spectrum(kernel_spec, interval), xi)
    if det == 0.0:
        raise NumericError("determinant is exactly 0: an eigenvalue rounded "
                           "to 1", context={"kernel": kernel_spec,
                                            "interval": interval})
    return det


def parity_split(interval: Interval):
    """(D_plus, D_minus): determinants of the even and odd sine components.

    The interval must be symmetric about 0.  D_plus * D_minus equals the
    full sine-kernel determinant on the same interval.
    """
    if not interval.is_symmetric():
        raise ArgumentError(f"parity split needs (-s, s), got {interval}")
    return (fredholm_det(kernels.sine_even(), interval),
            fredholm_det(kernels.sine_odd(), interval))


def gaudin_split(e2_profile, s: float):
    """(D_plus, D_minus) recovered from an E2 profile alone.

    Splits log E2(s) as (1/2) log E2 -/+ (1/2) int_0^s sqrt(-(log E2)'')
    (minus branch is D_plus: the even determinant is the smaller one).
    ``e2_profile`` maps an array of x to E2 on each (-x, x) and is called
    once, on a grid over [0, s] of an even number of steps <= _GAUDIN_STEP.
    """
    if not math.isfinite(s):
        raise ArgumentError(f"s must be finite, got {s}")
    if s <= 0.0:
        return 1.0, 1.0
    m = max(4, int(np.ceil(s / _GAUDIN_STEP)))
    if m % 2:
        m += 1
    h = s / m
    x = np.linspace(0.0, s, m + 1)
    values = np.asarray(e2_profile(x), dtype=float)
    if np.any(values <= 0.0):
        raise NumericError("E2 profile must be positive for the log split")
    logE = np.log(values)
    curv = _second_derivative(logE, h)
    g = -curv
    if np.min(g) < -1e-9:
        raise NumericError(
            "profile has -(log E2)'' < 0 beyond tolerance; inconsistent input",
            context={"min": float(np.min(g)), "s": s})
    g = np.clip(g, 0.0, None)
    root = np.sqrt(g)
    # composite Simpson over the uniform grid
    integral = (h / 3.0) * (root[0] + root[-1] + 4.0 * np.sum(root[1:-1:2])
                            + 2.0 * np.sum(root[2:-2:2]))
    half_log = 0.5 * logE[-1]
    return float(np.exp(half_log - 0.5 * integral)), \
        float(np.exp(half_log + 0.5 * integral))


def _dets(kernel_spec, half) -> np.ndarray:
    """Converged det(1 - K) on (-x, x) at each x of a 1-D array, each
    point solved on its own rule."""
    return np.array([fredholm_det(kernel_spec, Interval(-x, x))
                     for x in half.tolist()])


def e2_bulk_det(s):
    """E2(0; interval of length s) from the sine-kernel determinant."""
    return on_points(s, 1.0, lambda v: _dets(kernels.sine_bulk(), v / 2.0))


def e1_bulk_det(s):
    """E1(0; (-s, s)) = D_plus(s): only the even spectrum is built."""
    return on_points(s, 1.0, lambda v: _dets(kernels.sine_even(), v))


def e4_bulk_det(s):
    """E4(0; (-s/2, s/2)) = (D_plus(s) + D_minus(s)) / 2.

    The parity determinants are taken on (-s, s): a length-s gap of the
    symplectic ensemble corresponds to a length-2s parity-constrained gap
    of the orthogonal one.
    """
    return on_points(s, 1.0, lambda v: 0.5 * (
        _dets(kernels.sine_even(), v) + _dets(kernels.sine_odd(), v)))


def enn_det(s):
    """Probability of no eigenvalue within distance s of a conditioned one.

    Determinant of the spectrum-singularity kernel (a = 1) on (-s, s).
    """
    return on_points(s, 1.0, lambda v: _dets(
        kernels.spectrum_singularity(), v))


def en_bulk_det(s, n: int):
    """E2(n; interval of length s), exactly n eigenvalues, from gap_n."""
    if n < 0:
        raise ArgumentError(f"gap order must be >= 0, got {n}")
    return on_points(s, 1.0 if n == 0 else 0.0, lambda v: np.array([
        gap_n(_converged_spectrum(kernels.sine_bulk(),
                                  Interval(-x / 2.0, x / 2.0)), n)
        for x in v.tolist()]))


# Spacing densities from exact s-derivatives of determinants (Jacobi's
# formula); each is exactly 0 at s = 0.

def _det_jet(kernel_spec, x: float, n: int, order: int) -> np.ndarray:
    """(D, D', D'')[:order + 1] in x of D(x) = det(1 - K) on (-x, x), on the
    n-node rule put on (-1, 1).

    With A the weighted matrix of x K(x t_i, x t_j) and R = (1 - A)^-1,
    D' = -D tr(R A') and D'' = D [(tr R A')^2 - tr(R A'') - tr(R A' R A')].
    """
    rule = gauss_legendre(n, Interval(-1.0, 1.0))
    sw = np.sqrt(rule.weights)
    jets = kernels.scaled_jets(kernel_spec, rule.nodes, x, order)
    if not all(np.isfinite(m).all() for m in jets):
        raise NumericError("kernel evaluated to a non-finite value",
                           context={"kernel": kernel_spec, "x": x})
    a, *derivs = [sw[:, None] * m * sw[None, :] for m in jets]
    m = np.eye(n) - a
    det = np.linalg.det(m)
    r = np.linalg.inv(m)
    # R and the A^(k) are symmetric, so tr(R A^(k)) sums their product.
    # The A' that kernels.scaled_jets gives at order 2 is rank one, where
    # (tr R A')^2 = tr(R A' R A') cancels exactly, so D'' = -D tr(R A'').
    return np.array([det, *(-det * np.sum(r * d) for d in derivs)])


def _det_jets(kernel_spec, half: np.ndarray, order: int) -> np.ndarray:
    """Rows _det_jet(kernel_spec, x, n, order) at each x of a 1-D array.

    Each point doubles its own rule by _node_doubling until every entry of
    its row moves by at most DET_TOL, so a row never depends on the other
    points of the call.
    """
    return np.array([
        _node_doubling(lambda n: _det_jet(kernel_spec, x, n, order),
                       Interval(-x, x).length,
                       {"kernel": kernel_spec, "x": x})
        for x in half.tolist()]).reshape(-1, order + 1)


def _parity_jets(half: np.ndarray):
    """(D, D', D'') of the even and of the odd sine kernel on (-x, x), each
    a tuple of arrays over the x of a 1-D array."""
    return (tuple(_det_jets(kernels.sine_even(), half, 2).T),
            tuple(_det_jets(kernels.sine_odd(), half, 2).T))


def _density(s, fn):
    """on_points(s, 0.0, fn) for a density.  A negative value lies below
    the determinant's absolute accuracy, where its sign is noise, and
    raises NumericError."""
    def checked(v):
        values = fn(v)
        bad = np.flatnonzero(values < 0.0)
        if len(bad):
            at, value = float(v[bad[0]]), float(values[bad[0]])
            raise NumericError(
                f"density {value:.3g} at s = {at:g} is negative: below the "
                "determinant's absolute accuracy",
                context={"s": at, "value": value})
        return values
    return on_points(s, 0.0, checked)


def p1_det(s):
    """p1(0; s) = d^2/ds^2 D_plus(s/2) = D_plus''(s/2) / 4."""
    return _density(s, lambda v: 0.25 * _det_jets(
        kernels.sine_even(), v / 2.0, 2)[:, 2])


def p2_det(s):
    """p2(0; s) = d^2/ds^2 E2(0; s), with E2(0; s) = D_plus D_minus (s/2)."""
    def density(v):
        (dp, dp1, dp2), (dm, dm1, dm2) = _parity_jets(v / 2.0)
        return 0.25 * (dp2 * dm + 2.0 * dp1 * dm1 + dp * dm2)
    return _density(s, density)


def p4_det(s):
    """p4(0; s) = d^2/ds^2 E4(0; s) = (D_plus'' + D_minus'')(s) / 2."""
    def density(v):
        (_, _, dp2), (_, _, dm2) = _parity_jets(v)
        return 0.5 * (dp2 + dm2)
    return _density(s, density)


def p1_gap1_det(s):
    """Next-nearest beta=1 density p1(1; s) = d^2/ds^2 [2 E1(0;s) + E1(1;s)],
    the second derivative of D_plus(s/2) + D_minus(s/2) = 2 E4(0; s/2)."""
    def density(v):
        (_, _, dp2), (_, _, dm2) = _parity_jets(v / 2.0)
        return 0.25 * (dp2 + dm2)
    return _density(s, density)


def p2_nn_det(s):
    """Nearest-neighbour density about a conditioned eigenvalue, -d/ds of
    enn_det."""
    return _density(s, lambda v: -_det_jets(
        kernels.spectrum_singularity(), v, 1)[:, 1])


# ---------------------------------------------------------------------------
# spacing tables and numerical second derivatives

# The 5-point stencils as (offsets, weights), the weights over 12 h^order:
# the centred rows of orders 1 and 2, and the one-sided rows of order 2 at
# an end point and next to it (mirrored, offsets negated, at the right end).
_STENCILS = {
    (1, "centred"): ((-2, -1, 1, 2), (1, -8, 8, -1)),
    (2, "centred"): ((-2, -1, 0, 1, 2), (-1, 16, -30, 16, -1)),
    (2, "end"): ((0, 1, 2, 3, 4), (35, -104, 114, -56, 11)),
    (2, "next-to-end"): ((-1, 0, 1, 2, 3), (11, -20, 6, 4, -1)),
}


def _weighted_sum(weights, columns):
    """sum_j weights[j] columns[j], taken term by term from the left."""
    total = weights[0] * columns[0]
    for w, column in zip(weights[1:], columns[1:]):
        total = total + w * column
    return total


def _second_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """5-point second differences, one-sided at both ends."""
    f = np.asarray(values, dtype=float)
    if len(f) < 5:
        raise ArgumentError("need at least 5 grid values for the stencil")
    last = len(f) - 1
    out = np.empty_like(f)
    for at, sign, row in ((np.arange(2, last - 1), 1, "centred"),
                          (0, 1, "end"), (1, 1, "next-to-end"),
                          (last, -1, "end"), (last - 1, -1, "next-to-end")):
        offsets, weights = _STENCILS[2, row]
        out[at] = _weighted_sum(weights, [f[at + sign * o] for o in offsets])
    return out / (12 * h * h)


def _stencil(profile, s: np.ndarray, order: int) -> np.ndarray:
    """Centred 5-point derivative of the given order of profile, on the
    step h = _STENCIL_H, at each s >= 2h of a 1-D array, so that profile is
    never asked for a negative argument.

    ``profile`` maps an array of arguments to their values and is called
    once, on every point.
    """
    h = _STENCIL_H
    if (s < 2.0 * h).any():
        raise ArgumentError(f"stencil points need s >= {2.0 * h:g}")
    offsets, weights = _STENCILS[order, "centred"]
    points = s[:, None] + np.array(offsets) * h
    v = profile(points.ravel()).reshape(points.shape)
    return _weighted_sum(weights, v.T) / (12 * h * h if order == 2 else 12 * h)


@dataclass
class SpacingTable:
    """An s-grid with one named column per (quantity, method) pair."""

    s_grid: np.ndarray
    columns: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.s_grid = np.asarray(self.s_grid, dtype=float)

    def add_column(self, name: str, values):
        values = np.asarray(values, dtype=float)
        if values.shape != self.s_grid.shape:
            raise ArgumentError(
                f"column {name!r} has length {len(values)}, grid has "
                f"{len(self.s_grid)}")
        self.columns[name] = values

    def to_csv(self, stream) -> None:
        """17-significant-digit CSV with '#'-prefixed metadata lines."""
        write_csv(stream, ["s", *self.columns],
                  [self.s_grid, *self.columns.values()], self.metadata)

