"""Gap probabilities and spacing densities from operator spectra.

This is the determinantal route: every quantity here comes from eigenvalues
mu_j of a kernel restricted to an interval, through det(1 - xi K) and its
xi-derivatives.  Interval conventions differ per statistic and are stated on
each function; the Interval argument of the underlying spectrum is always
the ground truth.

The evaluators of s (E2, E1, E4, Enn, En and the spacing densities p1, p2,
p4, p1(1; s) and the conditioned nearest-neighbour density) take a float
or an array of s, as points.on_points sets out, and every density obeys
points.on_density.  E1, E4, p1, p4 and p1(1; s) are the parity identities
of points.PARITY_IDENTITIES, on the even and odd determinants and their
second derivatives (_parities).  A call runs all its points together, in
node-doubling rounds (_node_doubling): the first two Gauss rules of every
point, which each point always solves on, come from one Newton run, and so
do a later round's.  The densities solve the
points that share a rule size as one stack of at most _STACK_BYTES per
matrix array, by one det and one inverse (_det_jet_stack).  The gap
probabilities solve one point and one matrix at a time
(_converged_spectrum, quadrature.nystrom_spectrum), the units whose calls
bench/tracing.py counts.  Each point still doubles its own rule until it
settles, and a stacked LAPACK call gives each matrix the bits of its own
call, so an array gives the floats of a loop of scalar calls; fredholm_det
is _dets on one point.  Nothing but the reference rules is kept between
calls.  Every rule is converged to the one absolute tolerance DET_TOL,
read at call time.  On a shared 2-CPU machine a cold det-tables round
(7 commands on 13 points) makes 1 Newton run for its 24 rules, where a run
per rule made 24, and its commands take 0.048 s against 0.059 s (medians
of 10 alternated bench/run.py pairs).

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
from .points import from_parities, on_density, on_points
from .quadrature import (FredholmSpectrum, Interval, _prepare_rules,
                         gauss_legendre, nystrom_spectrum)

_EIGENVALUE_FLOOR = 1e-16     # product truncation point
_FORCED_LEVEL_GAP = 1e-14     # 1 - mu below this: level treated as occupied
_MAX_GAP_ORDER = 30
_MAX_NODES = 1600
DET_TOL = 1e-10               # node-doubling tolerance of every determinant
_STENCIL_H = 1e-3             # step of the point stencils (_stencil)
_GAUDIN_STEP = 1e-2           # largest grid step of gaudin_split
# most bytes of one stacked matrix array, unless a single matrix is larger;
# at 1 MiB the stacks' temporaries left verify's peak RSS 0.4 MB higher,
# and no grid ran faster
_STACK_BYTES = 1 << 18


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


def _first_size(length: float) -> int:
    """Nodes of the first rule of a point: 16 + ceil(2 length), with
    2 length capped at _MAX_NODES before its ceiling, which an infinite
    length would overflow, and the count capped there too."""
    return min(16 + math.ceil(min(2.0 * length, _MAX_NODES)), _MAX_NODES)


def _first_rules(lengths) -> list:
    """The first rule size of each point of positive length and its double:
    node doubling solves every such point on both.  A point of length 0 is
    left out: its spectrum is empty and reads no rule."""
    firsts = [_first_size(length) for length in lengths if length > 0.0]
    return firsts + [min(2 * n, _MAX_NODES) for n in firsts]


def _node_doubling(solve, lengths, measure, context) -> list:
    """For each point, solve's result on the first of its rules on which
    the measure moves by at most DET_TOL, as a list over the points.

    Convergence is exponential in the node count for the analytic kernels
    (Bornemann, Math. Comp. 79, 2010), and the number of eigenvalues that
    matter grows like the length of the interval, so point i starts on
    _first_size(lengths[i]) nodes and each next rule doubles it.  No rule
    exceeds _MAX_NODES; a point whose rule there still moves raises
    NumericError with context(i).

    The points run together, in rounds.  The first two rules of every
    point come from one Newton run (_first_rules), and any later round's
    from one more.  solve(n, points) gives the results of a list of points
    on the n-node rule, as one stack of at most _STACK_BYTES per matrix
    array.  A point's rules and results do not depend on the other points,
    so a call gives the floats of a loop of one-point calls.  The measure
    of a result is a float or an array, compared entry by entry.
    """
    sizes = [_first_size(length) for length in lengths]
    rules = _first_rules(lengths)
    prev = [None] * len(sizes)
    done = [None] * len(sizes)
    pending = list(range(len(sizes)))
    while pending:
        _prepare_rules(rules)
        by_size = {}
        for i in pending:
            by_size.setdefault(sizes[i], []).append(i)
        pending = []
        for n in sorted(by_size):
            points = by_size[n]
            step = max(1, _STACK_BYTES // (8 * n * n))
            for lo in range(0, len(points), step):
                stack = points[lo:lo + step]
                for i, built in zip(stack, solve(n, stack)):
                    cur = measure(built)
                    if (prev[i] is not None
                            and np.abs(cur - prev[i]).max() <= DET_TOL):
                        done[i] = built
                        continue
                    if n == _MAX_NODES:
                        raise NumericError(
                            "determinant did not converge under node "
                            "doubling", context=context(i))
                    prev[i] = cur
                    sizes[i] = min(2 * n, _MAX_NODES)
                    pending.append(i)
        pending.sort()
        rules = [sizes[i] for i in pending if lengths[i] > 0.0]
    return done


def _converged_spectrum(kernel_spec, interval: Interval) -> FredholmSpectrum:
    """The spectrum of the first doubled rule on which det(1 - K) moves by
    at most DET_TOL."""
    return _node_doubling(
        lambda n, points: [nystrom_spectrum(kernel_spec, interval, n)],
        [interval.length], lambda spec: generating_value(spec, 1.0),
        lambda i: {"kernel": kernel_spec, "interval": interval})[0]


def _converged_spectra(kernel_spec, intervals: list) -> list:
    """_converged_spectrum on each interval of a list, after caching the
    first two rules of all of them in one Newton run.

    Each point is one _converged_spectrum call and each of its rules one
    nystrom_spectrum call, not a stack: bench/tracing.py counts spectra,
    nodes and kernel entries per call of those two functions.
    """
    _prepare_rules(_first_rules([interval.length for interval in intervals]))
    return [_converged_spectrum(kernel_spec, interval)
            for interval in intervals]


def _dets(kernel_spec, intervals: list, xi: float = 1.0) -> np.ndarray:
    """Converged det(1 - xi K) on each interval of a list.

    Raises NumericError where one is exactly 0: an eigenvalue rounded to 1
    left no digit of a determinant that is positive.
    """
    dets = np.array([generating_value(spectrum, xi) for spectrum
                     in _converged_spectra(kernel_spec, intervals)])
    zero = np.flatnonzero(dets == 0.0)
    if len(zero):
        raise NumericError("determinant is exactly 0: an eigenvalue rounded "
                           "to 1", context={"kernel": kernel_spec,
                                            "interval": intervals[zero[0]]})
    return dets


def fredholm_det(kernel_spec, interval: Interval, xi: float = 1.0) -> float:
    """Converged det(1 - xi K) on the interval: _dets on one interval."""
    return float(_dets(kernel_spec, [interval], xi)[0])


def _symmetric(half: np.ndarray) -> list:
    """(-x, x) for each x of a 1-D array."""
    return [Interval(-x, x) for x in half.tolist()]


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


def e2_bulk_det(s):
    """E2(0; interval of length s) from the sine-kernel determinant."""
    return on_points(s, 1.0, lambda v: _dets(kernels.sine_bulk(),
                                             _symmetric(v / 2.0)))


def _parities(x: np.ndarray, order: int, signs) -> list:
    """D_sign of the sine kernel on (-x, x), or D_sign'' at order 2, at
    each x of a 1-D array for each sign asked for (points.from_parities),
    from the spectra or Jacobi jets of that sign's parity kernel alone."""
    kernel = {1: kernels.sine_even, -1: kernels.sine_odd}
    if order == 0:
        return [_dets(kernel[sign](), _symmetric(x)) for sign in signs]
    return [_det_jets(kernel[sign](), x, 2)[:, 2] for sign in signs]


def e1_bulk_det(s):
    """E1(0; (-s, s)) = D_plus(s): only the even spectrum is built."""
    return from_parities("E1", s, _parities)


def e4_bulk_det(s):
    """E4(0; (-s/2, s/2)) = (D_plus(s) + D_minus(s)) / 2.

    The parity determinants are taken on (-s, s): a length-s gap of the
    symplectic ensemble corresponds to a length-2s parity-constrained gap
    of the orthogonal one.
    """
    return from_parities("E4", s, _parities)


def enn_det(s):
    """Probability of no eigenvalue within distance s of a conditioned one.

    Determinant of the spectrum-singularity kernel (a = 1) on (-s, s).
    """
    return on_points(s, 1.0, lambda v: _dets(
        kernels.spectrum_singularity(), _symmetric(v)))


def en_bulk_det(s, n: int):
    """E2(n; interval of length s), exactly n eigenvalues, from gap_n."""
    if n < 0:
        raise ArgumentError(f"gap order must be >= 0, got {n}")
    return on_points(s, 1.0 if n == 0 else 0.0, lambda v: np.array([
        gap_n(spectrum, n) for spectrum in _converged_spectra(
            kernels.sine_bulk(), _symmetric(v / 2.0))]))


# Spacing densities from exact s-derivatives of determinants (Jacobi's
# formula); each is exactly 0 at s = 0.

def _det_jet_stack(kernel_spec, x: np.ndarray, n: int,
                   order: int) -> np.ndarray:
    """Rows (D, D', D'')[:order + 1] in x of D(x) = det(1 - K) on (-x, x),
    at each x of a 1-D array, on the n-node rule put on (-1, 1): one
    stacked det and one stacked inverse.

    With A the weighted matrix of x K(x t_i, x t_j) and R = (1 - A)^-1,
    D' = -D tr(R A') and D'' = D [(tr R A')^2 - tr(R A'') - tr(R A' R A')].
    """
    rule = gauss_legendre(n, Interval(-1.0, 1.0))
    sw = np.sqrt(rule.weights)
    jets = kernels.scaled_jets(kernel_spec, rule.nodes, x, order)
    finite = np.logical_and.reduce([np.isfinite(m).all(axis=(1, 2))
                                    for m in jets])
    if not finite.all():
        raise NumericError("kernel evaluated to a non-finite value",
                           context={"kernel": kernel_spec,
                                    "x": float(x[np.argmin(finite)])})
    a, *derivs = [sw[:, None] * m * sw[None, :] for m in jets]
    m = np.eye(n) - a
    det = np.linalg.det(m)
    r = np.linalg.inv(m)
    # R and the A^(k) are symmetric, so tr(R A^(k)) sums their product,
    # over each matrix as one row of n * n entries.  The A' that
    # kernels.scaled_jets gives at order 2 is rank one, where
    # (tr R A')^2 = tr(R A' R A') cancels exactly, so D'' = -D tr(R A'').
    return np.stack([det, *(-det * np.sum((r * d).reshape(len(x), n * n),
                                          axis=1) for d in derivs)], axis=1)


def _det_jets(kernel_spec, half: np.ndarray, order: int) -> np.ndarray:
    """Rows (D, D', D'')[:order + 1] of _det_jet_stack at each x of a 1-D
    array, each on the first of its doubled rules on which every entry of
    its row moves by at most DET_TOL (_node_doubling)."""
    return np.array(_node_doubling(
        lambda n, points: _det_jet_stack(kernel_spec, half[points], n, order),
        [2.0 * x for x in half.tolist()], lambda row: row,
        lambda i: {"kernel": kernel_spec, "x": float(half[i])})
    ).reshape(-1, order + 1)


def p1_det(s):
    """p1(0; s) = d^2/ds^2 D_plus(s/2) = D_plus''(s/2) / 4: only the even
    jets are solved."""
    return from_parities("p1", s, _parities)


def p2_det(s):
    """p2(0; s) = d^2/ds^2 E2(0; s), with E2(0; s) = D_plus D_minus (s/2)."""
    def density(v):
        (dp, dp1, dp2), (dm, dm1, dm2) = (
            _det_jets(kernel, v / 2.0, 2).T
            for kernel in (kernels.sine_even(), kernels.sine_odd()))
        return 0.25 * (dp2 * dm + 2.0 * dp1 * dm1 + dp * dm2)
    return on_density(s, density)


def p4_det(s):
    """p4(0; s) = d^2/ds^2 E4(0; s) = (D_plus'' + D_minus'')(s) / 2."""
    return from_parities("p4", s, _parities)


def p1_gap1_det(s):
    """Next-nearest beta=1 density p1(1; s) = d^2/ds^2 [2 E1(0;s) + E1(1;s)],
    the second derivative of D_plus(s/2) + D_minus(s/2) = 2 E4(0; s/2)."""
    return from_parities("p1gap", s, _parities)


def p2_nn_det(s):
    """Nearest-neighbour density about a conditioned eigenvalue, -d/ds of
    enn_det."""
    return on_density(s, lambda v: -_det_jets(
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

