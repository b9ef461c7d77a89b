"""Nonlinear-ODE route to gap probabilities and spacing densities.

Every quantity here is an exp(int sigma(t)/t dt) representation built from a
sigma-form equation: quadratic in sigma'', with a power-series boundary layer
at t = 0 and adaptive integration beyond it.  There are three equations,
one id each: SIGMA_JMMS (bulk gap; at xi = 1 its trajectory carries every
beta = 1, 2 and 4 gap probability and spacing density, beta = 1 and 4
through Gaudin's relation for the parity determinants), SIGMA_HARD (hard
edge; its trajectories are kept as an independent check of the beta = 1
and 4 columns, which verify compares with the determinants) and SIGMA_NN
(conditioned origin).  Three layers:

1. series: sigma = sum c_k x^k with x = sqrt(t), coefficients derived by
   substituting the ansatz into the ODE and matching orders, one unknown at
   a time.  The resonant orders, where the next unknown acts on the
   residual no later than this one, so that matching cannot determine it,
   are pinned from the closed forms in _equation_setup; every pinned value
   is cross-checked against the determinantal route by the test suite.
   Every other unknown is probed by one pair, c = +1 and c = -1: the two
   residuals and the base's are evaluated as one batch of three series,
   each with the bits it would get alone, and the unknown solves the
   residual at the first order where it acts (one that acts at no order of
   the series stays 0).  Products by a monomial are shifted, scaled copies
   with the bits of the general product.  Derived problems are memoised
   until clear_cache().
2. integration: every equation reads (t sigma'')^2 + G(A, sigma') = 0 with
   A = t sigma' - sigma, and _EQUATIONS states each G once, run on series
   (the residual), floats (the defect) and complex numbers: sigma''' =
   -sigma''/t - (t G_A + G_sigma')/(2 t^2) takes its directional derivative
   by a complex step.  The third-order system, with the log-integral as a
   fourth component (and on the xi = 1 bulk trajectory the integral of
   sqrt(sigma - t sigma')/t, Gaudin's split, as a fifth, its series the
   square root of the -A series), is stepped on from t_switch as far as
   requests need by the package's DOP853 (_dop853, which gives the bits of
   SciPy's DOP853 and OdeSolution), and the ORIGINAL quadratic equation is
   monitored as a defect at accepted steps.
3. evaluators: E and p compositions with frozen argument calibrations
   (upper limit pi*s for the bulk two-point gap, 2*pi*s for the parity
   determinants on (-s, s) and the conditioned nearest-neighbour gap, the
   hard-edge variable used as is).  Each takes a float or an array of s;
   an array is served by one trajectory fetch, one series evaluation and
   one dense-output call, and gets the floats a loop of scalar calls would
   get.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._dop853 import DOP853, Dense
from .errors import (ArgumentError, ConsistencyError, DerivationError,
                     StiffnessError, UnsupportedError)
from .points import on_points

SIGMA_JMMS = "SIGMA_JMMS"  # bulk two-point generating sigma, params (xi,)
SIGMA_HARD = "SIGMA_HARD"  # hard-edge sigma, params (a, mu, xi)
SIGMA_NN = "SIGMA_NN"      # conditioned-origin sigma, params (a, xi)
_GAUDIN = (SIGMA_JMMS, (1.0,))  # the trajectory that carries Gaudin's split

DEFAULT_T_SWITCH = 0.1
DEFAULT_ORDER = 44
DEFAULT_TOL = 1e-10
_DEFECT_FACTOR = 100.0
_TOL_SAFETY = 100.0     # internal solver tolerance = tol / _TOL_SAFETY
_MIN_SOLVER_TOL = 1e-13
_ACTION_TOL = 1e-10     # smallest linearized action considered nonzero
_TRUNCATED_TOP = 6      # top residual orders the final check skips
_STEP = 1e-30           # complex step of sigma'''; its h^2 is negligible
_T_BOUND = 1e6          # the stepper's bound, past any request


# ---------------------------------------------------------------------------
# truncated power series in x = sqrt(t); c[..., i] is the coefficient of
# x^(off + i), off may be negative.  Leading axes of c hold a batch of series
# that share off and length; every operation acts on each series of the batch
# with the arithmetic, in the order, it would use on that series alone.

class _Series:
    __slots__ = ("c", "off")

    def __init__(self, c, off=0):
        self.c = np.asarray(c, dtype=float)
        self.off = int(off)


def _zeros(a, b, n):
    batch = a.c.shape[:-1]
    if b.c.shape[:-1] != batch:
        batch = np.broadcast_shapes(batch, b.c.shape[:-1])
    return np.zeros(batch + (n,))


def _s_add(a, b, order):
    off = min(a.off, b.off)
    out = _zeros(a, b, order - off + 1)
    for s in (a, b):
        i = s.off - off
        m = min(s.c.shape[-1], out.shape[-1] - i)
        if m > 0:
            out[..., i:i + m] += s.c[..., :m]
    return _Series(out, off)


def _s_scale(a, v):
    return _Series(a.c * v, a.off)


def _s_mul(a, b, order):
    """Truncated product, summed over the first factor's coefficients in
    increasing order from +0.0.

    Row i of a strided view of the zero-padded second factor holds b
    shifted right by i, so one product gives every term a_i b_(k-i) and
    one reduction over the row axis sums them.  That axis is not the
    innermost one, so the sum runs in sequence over i, as a loop would.
    Out-of-range and zero terms add a zero to an accumulator that, starting
    at +0.0, never holds -0.0, so every series of a batch gets the bits it
    would get alone."""
    off = a.off + b.off
    n = order - off + 1
    if n <= 0:
        return _Series(np.zeros(1), order)
    ac = a.c[..., :n]
    na = ac.shape[-1]
    m = min(b.c.shape[-1], n)
    padded = np.zeros(b.c.shape[:-1] + (na - 1 + n,))
    padded[..., na - 1:na - 1 + m] = b.c[..., :m]
    # shifted[..., i, k] = padded[..., na - 1 - i + k]
    step = padded.strides[-1]
    shifted = np.ndarray(padded.shape[:-1] + (na, n), padded.dtype, padded,
                         (na - 1) * step, padded.strides[:-1] + (-step, step))
    out = np.add.reduce(ac[..., None] * shifted, axis=-2, initial=0.0)
    return _Series(out, off)


def _s_mono(v, e, order):
    return _Series(np.concatenate(([v], np.zeros(max(0, order - e)))), e)


def _s_mul_mono(a, v, e, order):
    """a times the monomial v x^e, with the bits of _s_mul by
    _s_mono(v, e, order) in either factor order.

    Every term of that product but a_k v is a finite coefficient times an
    exact zero, and its sum starts at +0.0, so coefficient k is
    a_k * v + 0.0: a shifted, scaled copy whose -0.0 products read +0.0."""
    off = a.off + e
    n = order - off + 1
    if n <= 0:
        return _Series(np.zeros(1), order)
    m = min(a.c.shape[-1], n)
    out = np.zeros(a.c.shape[:-1] + (n,))
    out[..., :m] = a.c[..., :m] * v + 0.0
    return _Series(out, off)


def _s_dx(a):
    return _Series(a.c * (a.off + np.arange(a.c.shape[-1])), a.off - 1)


def _s_coeff(a, e):
    i = e - a.off
    return a.c[..., i] if 0 <= i < a.c.shape[-1] else 0.0


def _s_sqrt(a, order):
    """Series square root; the leading term must sit at an even exponent,
    the same one for every series of a batch."""
    c = a.c.reshape(-1, a.c.shape[-1])
    live = np.abs(c) > 1e-300
    if not np.all(np.any(live, axis=1)):
        raise DerivationError("square root of a vanishing series")
    leads = np.argmax(live, axis=1)
    lead = int(leads[0])
    e0 = a.off + lead
    if np.any(leads != lead):
        raise DerivationError("series sqrt of a batch with different "
                              "leading exponents")
    if e0 % 2 != 0 or np.any(c[:, lead] <= 0.0):
        raise DerivationError(
            f"series sqrt needs a positive coefficient at an even exponent, "
            f"found exponent {e0}")
    off = e0 // 2
    n = order - off + 1
    y = np.zeros((len(c), n))
    y[:, 0] = np.sqrt(c[:, lead])
    rel = np.zeros((len(c), n))
    m = min(c.shape[1] - lead, n)
    rel[:, :m] = c[:, lead:lead + m]
    for yr, rr in zip(y, rel):
        twice_root = 2.0 * yr[0]
        for k in range(1, n):       # np.dot per series keeps its bits
            yr[k] = (rr[k] - np.dot(yr[1:k], yr[k - 1:0:-1])) / twice_root
    return _Series(y.reshape(a.c.shape[:-1] + (n,)), off)


def _sigma_series(coeffs, order):
    """sigma, sigma', sigma'' as x-series; derivatives are with respect to t."""
    pad = np.zeros(coeffs.shape[:-1] + (max(0, order - coeffs.shape[-1]),))
    sig = _Series(np.concatenate((coeffs, pad), axis=-1), 1)
    d1 = _s_mul_mono(_s_dx(sig), 0.5, -1, order)
    d2 = _s_mul_mono(_s_dx(d1), 0.5, -1, order)
    return sig, d1, d2


# ---------------------------------------------------------------------------
# equations: (t sigma'')^2 + G(A, sigma') = 0 with A = t sigma' - sigma,
# each G stated once in (sigma, t sigma', sigma') as groups of terms.
# The series residual adds the terms one at a time in the order written (the
# derived coefficients' bits depend on it); the defect's scale is the largest
# of 1, the lead and each group.

class _Truncated:
    """A _Series with its truncation order, so that + - * and _root act on
    it; a float operand is the constant series."""

    __slots__ = ("s", "order")

    def __init__(self, s, order):
        self.s = s
        self.order = order

    def _series(self, v):
        return v.s if isinstance(v, _Truncated) else _s_mono(v, 0, self.order)

    def _new(self, s):
        return _Truncated(s, self.order)

    def __add__(self, v):
        return self._new(_s_add(self.s, self._series(v), self.order))

    def __sub__(self, v):
        return self + -self._new(self._series(v))

    def __rsub__(self, v):
        return self._new(self._series(v)) + -self

    def __neg__(self):
        return self._new(_s_scale(self.s, -1.0))

    def __mul__(self, v):
        if isinstance(v, _Truncated):
            return self._new(_s_mul(self.s, v.s, self.order))
        return self._new(_s_scale(self.s, v))

    __rmul__ = __mul__


def _root(w):
    """Square root; on floats and complex steps it reads 0, with a zero
    derivative, where w <= 0."""
    if isinstance(w, _Truncated):
        return w._new(_s_sqrt(w.s, w.order))
    if isinstance(w, complex):
        return cmath.sqrt(w) if w.real > 0.0 else 0j
    return np.sqrt(np.maximum(w, 0.0))


def _g_jmms(par, s, tsp, sp):
    A = tsp - s
    return ((4.0 * (A * (A + sp * sp)),),)


def _g_hard(par, s, tsp, sp):
    a, mu = par
    return ((-(mu + a) ** 2 * (sp * sp),),
            (-(sp * (4.0 * sp + 1.0) * (s - tsp)),),
            (-mu * (mu + a) / 2.0 * sp, -mu * mu / 16.0))


def _g_nn(par, s, tsp, sp):
    a = par[0]
    w = a * a - tsp + s
    if a == 0.0:
        shifted2 = w                          # (a - sqrt(w))^2 = w
    else:
        shifted = a - _root(w)
        shifted2 = shifted * shifted
    return ((4.0 * (-w * (sp * sp - shifted2)),),)


# each equation id: (its G, the number of params it takes)
_EQUATIONS = {SIGMA_JMMS: (_g_jmms, 1), SIGMA_HARD: (_g_hard, 3),
              SIGMA_NN: (_g_nn, 2)}
EQUATION_IDS = tuple(_EQUATIONS)


def _residual_series(equation_id, par, coeffs, order):
    S, Sp, Spp = _sigma_series(coeffs, order)
    tSpp = _s_mul_mono(Spp, 1.0, 2, order)
    r = _Truncated(_s_mul(tSpp, tSpp, order), order)
    tSp = _s_mul_mono(Sp, 1.0, 2, order)
    g = _EQUATIONS[equation_id][0]
    for group in g(par, *(_Truncated(v, order) for v in (S, tSp, Sp))):
        for term in group:
            r = r + term
    return r.s


def _residual_terms(equation_id, par, t, s, sp, spp):
    """(residual, scale) of the undifferentiated equation; vectorized."""
    parts = [(t * spp) ** 2]
    g = _EQUATIONS[equation_id][0]
    parts += [sum(group) for group in g(par, s, t * sp, sp)]
    scale = np.max(np.abs(np.stack(np.broadcast_arrays(1.0, *parts))), axis=0)
    return sum(parts), scale


def _third_derivative(equation_id, par, t, s, sp, spp):
    """sigma''' = -sigma''/t - (t G_A + G_sigma')/(2 t^2), from d/dt of the
    equation with sigma'' divided out.  The directional derivative is
    Im G / h with A stepped by i h t and sigma' by i h, t sigma' held real:
    a complex step, free of cancellation."""
    dg, g = 0.0, _EQUATIONS[equation_id][0]
    for group in g(par, complex(s, -_STEP * t), t * sp, complex(sp, _STEP)):
        for term in group:
            dg += term.imag
    return -spp / t - dg / (2.0 * _STEP * t * t)


# ---------------------------------------------------------------------------
# coefficient matching

def _first_action(R, order):
    """Where one probed unknown first acts: R is the residual batch of the
    base (the unknown at 0) and the probes c = +1 and c = -1.

    Returns (i, beta, alpha) at the first index i of R's orders up to order
    where the linear action beta or the quadratic action alpha exceeds
    _ACTION_TOL times the largest of 1 and the three rows' peaks, or None
    where the unknown acts at no such order."""
    c = R.c[:, :order - R.off + 1]
    R0, Rp, Rm = c
    # Python's max, from 1.0 on, skips a NaN peak
    tol = _ACTION_TOL * max(1.0, *np.max(np.abs(c), axis=1).tolist())
    beta = (Rp - Rm) / 2.0
    alpha = (Rp + Rm - 2.0 * R0) / 2.0
    acts = np.flatnonzero((np.abs(beta) > tol) | (np.abs(alpha) > tol))
    if len(acts) == 0:
        return None
    i = acts[0]
    return i, beta[i], alpha[i]


def _match_coefficients(equation_id, par, leading, order, pinned):
    """Derive x-coefficients 1..order from the leading data, one unknown at
    a time in increasing order.

    A resonant unknown takes its pinned value.  Every other unknown c_e is
    probed with one batch of three residuals, c_e = 0, +1 and -1, which
    gives the first order where c_e acts and its linear and quadratic
    action there; c_e solves the residual at that order.  Of the two roots
    of a quadratic action the one of smaller magnitude is taken, or, over a
    base residual that vanishes exactly, the larger (the zero branch's
    escape root).  An unknown that acts at no order up to order stays 0.
    """
    coeffs = np.zeros(order)
    for e, v in leading.items():
        coeffs[e - 1] = v
    for e in range(1, order + 1):
        if e in leading:
            continue
        if e in pinned:
            coeffs[e - 1] = pinned[e]
            continue
        rows = np.repeat(coeffs[None], 3, axis=0)
        rows[:, e - 1] = 0.0, 1.0, -1.0
        R = _residual_series(equation_id, par, rows, order)
        action = _first_action(R, order)
        if action is None:
            continue
        i, beta, alpha = action
        R0 = R.c[0]
        gamma = R0[i]
        if abs(alpha) <= _ACTION_TOL * max(abs(beta), 1.0):
            coeffs[e - 1] = -gamma / beta
        else:
            disc = max(beta * beta - 4.0 * alpha * gamma, 0.0)
            r1 = (-beta + math.sqrt(disc)) / (2.0 * alpha)
            r2 = (-beta - math.sqrt(disc)) / (2.0 * alpha)
            peak = float(np.max(np.abs(R0)))
            if peak < 1e-12 * max(1.0, peak):         # exact base
                coeffs[e - 1] = r1 if abs(r1) > abs(r2) else r2
            else:
                coeffs[e - 1] = r1 if abs(r1) < abs(r2) else r2
    resid = _residual_series(equation_id, par, coeffs, order)
    upto = order - _TRUNCATED_TOP
    tail = np.array([_s_coeff(resid, d) for d in range(resid.off, upto)])
    scale = max(1.0, float(np.max(np.abs(resid.c))) if len(resid.c) else 0.0)
    if len(tail) and np.max(np.abs(tail)) > 1e-8 * scale:
        raise DerivationError(
            f"series for {equation_id} {par} leaves residual "
            f"{np.max(np.abs(tail)):.2e} (scale {scale:.2e}); "
            "inconsistent leading data")
    return coeffs


def _equation_setup(equation_id, params):
    """(equation params, leading coeffs, pinned resonant coeffs).

    Three equations, one id each: SIGMA_JMMS (xi), SIGMA_HARD (a, mu, xi)
    with a = +-1/2 and mu in {0, 2} (mu = 2 at xi = 1 only), and SIGMA_NN
    (a, xi) with a in {0, 1}.  Exponents are in x = sqrt(t).
    The pinned orders are the resonances, where c_(e+1) acts on the
    residual no later than c_e, so that matching cannot determine c_e;
    their values are closed forms, which the matcher takes as given.  The
    test suite replays each derivation to check that the pinned orders are
    exactly the resonant ones, and exercises each value against the
    determinantal route.
    """
    if equation_id not in _EQUATIONS:
        raise ArgumentError(f"unknown equation id {equation_id!r}")
    arity = _EQUATIONS[equation_id][1]
    if len(params) != arity:
        raise ArgumentError(
            f"{equation_id} takes {arity} params, got {tuple(params)}")
    if equation_id == SIGMA_JMMS:
        (xi,) = params
        _check_xi(xi)
        return (), {2: -xi / math.pi}, {}
    if equation_id == SIGMA_HARD:
        a, mu, xi = params
        _check_xi(xi)
        if a not in (-0.5, 0.5):
            raise UnsupportedError(f"hard-edge order a must be +-1/2, got {a}")
        if mu not in (0.0, 2.0):
            raise UnsupportedError(f"only mu in {{0, 2}} implemented, got {mu}")
        if mu == 0.0:
            if a == -0.5:
                return (a, 0.0), {1: -xi / math.pi}, {}
            return (a, 0.0), {3: -xi / (3.0 * math.pi)}, {}
        if xi != 1.0:
            raise UnsupportedError("mu=2 boundary data is available at xi=1 only")
        if a == -0.5:
            return (a, 2.0), {2: -1.0 / 3.0}, {5: -8.0 / (135.0 * math.pi)}
        return (a, 2.0), {2: -1.0 / 5.0}, {7: -8.0 / (23625.0 * math.pi)}
    a, xi = params                                      # SIGMA_NN
    _check_xi(xi)
    if a not in (0.0, 1.0):
        raise UnsupportedError(f"conditioned-origin order a must be 0 or 1, got {a}")
    exp_x = int(2 * (2 * a + 1))
    coeff = -xi * 2.0 * 0.25 ** (2 * a + 1) / (
        math.gamma(0.5 + a) * math.gamma(1.5 + a))
    return (a,), {exp_x: coeff}, {}


def _check_xi(xi):
    if not 0.0 <= xi <= 1.0:
        raise ArgumentError(f"xi must lie in [0, 1], got {xi}")


# ---------------------------------------------------------------------------
# problems and solutions

@dataclass(frozen=True)
class PainleveProblem:
    """One sigma-form equation with its derived boundary-layer series."""

    equation_id: str
    params: tuple
    t_switch: float
    x_coefficients: np.ndarray = field(compare=False, repr=False)  # read-only
    _par: tuple = field(compare=False, repr=False)
    # x-coefficients from x^1 of sqrt(sigma - t sigma') on the xi = 1 bulk
    # trajectory, whose integral is Gaudin's split; None on any other
    _root: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def series(self):
        """((exponent in t as Fraction, coefficient), ...), nonzero terms."""
        return tuple((Fraction(k, 2), float(c))
                     for k, c in enumerate(self.x_coefficients, 1) if c != 0.0)

    def series_value(self, t, deriv=0):
        """Series sigma (deriv 0..2) or int_0^t sigma/tau dtau (deriv=-1).

        t is a float (a float is returned) or an array of t >= 0."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise ArgumentError(f"t must be >= 0, got {t[t < 0.0].flat[0]}")
        values = _x_sum(self.x_coefficients, t, deriv)
        return float(values) if values.ndim == 0 else values

    def _series_component(self, t, component):
        """State component from the series layer at an array of t >= 0."""
        if component == _ROOT_INTEGRAL:
            return _x_sum(self._root, t, -1)
        return _x_sum(self.x_coefficients, t, _SERIES_DERIV[component])


def _x_sum(c, t, deriv):
    """sum_k c_k x^k with x = sqrt(t), c from x^1 on (deriv 0), its first
    and second t-derivatives (1, 2) or its int_0^t ./tau dtau (-1)."""
    x = np.sqrt(t)[..., None]
    k = np.arange(1, len(c) + 1, dtype=float)
    if deriv == 0:
        terms = c * x ** k
    elif deriv == 1:
        terms = c * (k / 2.0) * x ** (k - 2)
    elif deriv == 2:
        terms = c * (k / 2.0) * ((k - 2) / 2.0) * x ** (k - 4)
    elif deriv == -1:
        terms = c * x ** k / (k / 2.0)
    else:
        raise ArgumentError(f"unsupported derivative order {deriv}")
    return np.sum(terms, axis=-1)


# derived problems and trajectories, shared by every caller and extended in
# place
_problems: dict = {}
_solutions: dict = {}


def build_problem(equation_id, params=(), t_switch=DEFAULT_T_SWITCH,
                  n_terms=DEFAULT_ORDER):
    """Derive the boundary series and package it with its equation.

    n_terms is an integer no smaller than the largest leading exponent.
    Memoised on (equation_id, params, t_switch, n_terms) until
    clear_cache(): repeated calls return the same problem, whose
    x_coefficients array is read-only.
    """
    if not 0.0 < t_switch <= 0.1:
        raise ArgumentError(f"t_switch must lie in (0, 0.1], got {t_switch}")
    if not isinstance(n_terms, numbers.Integral):
        raise ArgumentError(f"n_terms must be an integer, got {n_terms!r}")
    params = tuple(float(p) for p in params)
    n_terms = int(n_terms)
    key = (equation_id, params, float(t_switch), n_terms)
    problem = _problems.get(key)
    if problem is None:
        problem = _problems[key] = _derive_problem(
            equation_id, params, t_switch, n_terms)
    return problem


def _derive_problem(equation_id, params, t_switch, n_terms):
    par, leading, pinned = _equation_setup(equation_id, params)
    if n_terms < max(leading):
        raise ArgumentError(
            f"{equation_id} {params} needs n_terms >= {max(leading)}, its "
            f"leading exponent, got {n_terms}")
    if all(v == 0.0 for v in leading.values()):        # xi = 0: sigma == 0
        coeffs = np.zeros(n_terms)
    else:
        coeffs = _match_coefficients(equation_id, par, leading, n_terms,
                                     pinned)
        _check_tail(coeffs, t_switch)
    coeffs.setflags(write=False)
    root = None
    if (equation_id, params) == _GAUDIN and n_terms >= 4:
        # sigma - t sigma' = -A = sum (1 - k/2) c_k x^k, led by x^4 / pi^2;
        # the root's x^k takes -A's x^(k+2), so it stops at x^(n_terms - 2)
        k = np.arange(1, n_terms + 1)
        root = np.zeros(n_terms)
        root[1:n_terms - 2] = _s_sqrt(_Series((1.0 - k / 2.0) * coeffs, 1),
                                      n_terms - 2).c
        root.setflags(write=False)
    return PainleveProblem(equation_id=equation_id, params=params,
                           t_switch=float(t_switch), x_coefficients=coeffs,
                           _par=par, _root=root)


def _check_tail(coeffs, t_switch):
    x = math.sqrt(t_switch)
    k = np.arange(1, len(coeffs) + 1, dtype=float)
    terms = np.abs(coeffs) * x ** k
    nz = np.nonzero(terms > 0.0)[0]
    if len(nz) < 2:             # a lone leading term has no tail
        return
    if terms[nz[-1]] > 1e-12 * terms[nz[0]]:
        raise DerivationError(
            f"series tail {terms[nz[-1]]:.2e} at t_switch={t_switch} exceeds "
            f"1e-12 of the leading term {terms[nz[0]]:.2e}; extend the series "
            "or lower t_switch")


def series_residual(problem: PainleveProblem, t=None) -> float:
    """Relative defect of the truncated series in its own equation at t."""
    t = problem.t_switch if t is None else float(t)
    r, scale = _residual_terms(problem.equation_id, problem._par, t,
                               *(problem.series_value(t, d) for d in range(3)))
    return float(abs(r) / scale)


_SERIES_DERIV = {0: 0, 1: 1, 2: 2, 3: -1}    # state component -> deriv
_ROOT_INTEGRAL = 4      # the state component int sqrt(sigma - t sigma')/t


@dataclass(eq=False)
class PainleveSolution:
    """Dense (sigma, sigma', sigma'', int sigma/t dt) on [t_switch, t_max],
    and int sqrt(sigma - t sigma')/t dt on the xi = 1 bulk trajectory."""

    problem: PainleveProblem
    tol: float
    _stepper: DOP853 = field(repr=False)
    _dense: Dense = field(repr=False)

    @property
    def grid(self):
        """t_switch and every accepted step after it."""
        return self._dense.ts

    @property
    def t_max(self):
        return float(self._dense.t_max)

    def _extend(self, t_needed):
        """Step on to the first accepted step at or past t_needed, with the
        steps a cold integration takes; each step's defect must stay within
        integrate's bound.  A failure raises at the first bad step and
        leaves grid and dense output as they were."""
        if t_needed > _T_BOUND:
            raise ArgumentError(f"t={t_needed} beyond the bound {_T_BOUND:g}")
        stepper, problem = self._stepper, self.problem
        allowed = _DEFECT_FACTOR * self.tol
        ts, Fs, y_olds = [], [], []
        while stepper.t < t_needed:
            message = stepper.step()
            if stepper.status == "failed":
                raise StiffnessError(
                    f"integrator failed for {problem.equation_id} "
                    f"{problem.params} at t={stepper.t:.6g}: {message}")
            t, y = stepper.t, stepper.y
            defect, scale = _residual_terms(problem.equation_id, problem._par,
                                            t, *y[:3])
            rel = float(abs(defect) / scale)
            if rel > allowed:
                raise ConsistencyError(
                    "branch drift: equation defect exceeded tolerance",
                    context={"equation": problem.equation_id,
                             "params": problem.params, "t": float(t),
                             "defect": rel, "allowed": allowed})
            ts.append(t)
            Fs.append(stepper.dense_output())
            y_olds.append(stepper.y_old)
        self._dense = self._dense.extended(ts, Fs, y_olds)

    def _state(self, t, component):
        """One state component (an int) at a float t (a float is returned)
        or at an array of t, or several (a tuple), stacked on a leading
        axis: the series layer up to t_switch, the dense output of the
        integrator beyond it, each called once for all its points."""
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        if (flat < 0.0).any():
            raise ArgumentError(f"t must be >= 0, got {flat[flat < 0.0][0]}")
        beyond = flat > self.t_max
        if beyond.any():
            raise ArgumentError(f"t={flat[beyond][0]} past t_max={self.t_max}")
        components = component if isinstance(component, tuple) else (
            component,)
        out = np.empty((len(components), len(flat)))
        series = flat <= self.problem.t_switch
        n_series = np.count_nonzero(series)
        if n_series:
            for row, k in zip(out, components):
                row[series] = self.problem._series_component(flat[series], k)
        if n_series < len(flat):
            dense = ~series
            out[:, dense] = self._dense(flat[dense])[list(components)]
        if isinstance(component, tuple):
            return out.reshape((len(components),) + t.shape)
        return float(out[0, 0]) if t.ndim == 0 else out[0].reshape(t.shape)

    def sigma_at(self, t):
        return self._state(t, 0)

    def log_integral_at(self, t):
        """int_0^t sigma(tau)/tau dtau, series layer included."""
        return self._state(t, 3)


def integrate(problem: PainleveProblem, t_max: float,
              tol: float = DEFAULT_TOL) -> PainleveSolution:
    """Integrate the differentiated system from t_switch to its first
    accepted step at or past t_max; no step is cut short to end there.

    State is [sigma, sigma', sigma'', int_0^t sigma/tau dtau], and on the
    xi = 1 bulk trajectory int_0^t sqrt(sigma - tau sigma')/tau dtau; the
    undifferentiated equation is checked at every accepted step and must
    stay within _DEFECT_FACTOR * tol of zero relative to its largest term.
    The solver runs at tol / _TOL_SAFETY internally: global error grows
    with the number of steps, so the delivered trajectory needs headroom
    against the defect bound it is contractually held to.
    """
    ts = problem.t_switch
    if t_max <= ts:
        raise ArgumentError(f"t_max={t_max} must exceed t_switch={ts}")
    rhs, y0 = _system(problem)
    solver_tol = max(tol / _TOL_SAFETY, _MIN_SOLVER_TOL)
    stepper = DOP853(rhs, ts, y0, _T_BOUND, rtol=solver_tol, atol=solver_tol)
    solution = PainleveSolution(problem, tol, stepper,
                                Dense.start(ts, len(y0)))
    solution._extend(t_max)
    return solution


def _system(problem):
    """(rhs, y0) of the differentiated first-order system at t_switch."""
    equation_id, par = problem.equation_id, problem._par
    gaudin = problem._root is not None
    y0 = [float(problem._series_component(np.asarray(problem.t_switch), k))
          for k in range(5 if gaudin else 4)]

    def rhs(t, y):
        t = float(t)
        s, sp, spp, *_ = y.tolist()
        f = [sp, spp, _third_derivative(equation_id, par, t, s, sp, spp),
             s / t]
        if gaudin:
            w = s - t * sp
            if not w > 0.0:
                raise ConsistencyError(
                    "Gaudin's relation needs sigma - t sigma' > 0",
                    context={"equation": equation_id,
                             "params": problem.params, "t": t, "value": w})
            f.append(math.sqrt(w) / t)
        return f

    return rhs, y0


# ---------------------------------------------------------------------------
# shared trajectory cache

def _solution(equation_id, params, t) -> PainleveSolution:
    """The cached trajectory covering every argument in t (and t = 4)."""
    t_needed = float(np.max(t))
    key = (equation_id, tuple(float(p) for p in params))
    sol = _solutions.get(key)
    if sol is None:
        sol = _solutions[key] = integrate(
            build_problem(equation_id, params), max(4.0, t_needed))
    elif sol.t_max < t_needed:
        try:
            sol._extend(t_needed)
        except (StiffnessError, ConsistencyError):
            del _solutions[key]     # its stepper is past its grid
            raise
    return sol


def clear_cache():
    """Forget every derived problem and integrated trajectory."""
    _problems.clear()
    _solutions.clear()


# ---------------------------------------------------------------------------
# evaluators

# Each evaluator takes a float or an array of s, as points.on_points sets
# out.  For an array the trajectory is fetched once, at the largest
# argument, and the series layer and the dense output are each evaluated
# once over all points.  Python's own float pow and exp are kept element
# by element where numpy's differ in the last bit, so an array gives
# exactly the floats a loop of scalar calls gives.

def _squared(v):
    return np.array([x ** 2 for x in v.tolist()])


def _exp(v):
    return np.array([math.exp(x) for x in v.tolist()])


def _gap(equation_id, params, t):
    """exp int_0^t sigma/u du at each t."""
    return _exp(_solution(equation_id, params, t).log_integral_at(t))


def e2_bulk(s, xi: float = 1.0):
    """E2(0; interval of length s) as exp int_0^{pi s} sigma/u du.

    The upper limit pi*s (argument = pi * interval length) is the frozen
    calibration against the determinantal route.
    """
    _check_xi(xi)
    return on_points(s, 1.0, lambda v: 1.0 if xi == 0.0
                     else _gap(SIGMA_JMMS, (xi,), math.pi * v))


def e2_hard(s, a: float, xi: float = 1.0):
    """Hard-edge gap generating value exp int_0^s u(t;a;xi)/t dt on (0, s)."""
    _check_xi(xi)
    return on_points(s, 1.0, lambda v: 1.0 if xi == 0.0
                     else _gap(SIGMA_HARD, (a, 0.0, xi), v))


def enn_generating(s, a: float = 1.0, xi: float = 1.0):
    """Conditioned-origin gap generating value on (-s, s).

    exp int_0^{2 pi s} sigma_a/t dt; the 2*pi*s upper limit (argument =
    pi * interval length, the interval having length 2s) is the frozen
    calibration, consistent with e2_bulk.
    """
    _check_xi(xi)
    return on_points(s, 1.0, lambda v: 1.0 if xi == 0.0
                     else _gap(SIGMA_NN, (a, xi), 2.0 * math.pi * v))


def p2_nn(s):
    """Nearest-neighbour spacing density about a conditioned eigenvalue.

    -dE/ds of enn_generating at a = xi = 1: -sigma_a(2 pi s)/s times the
    generating value (the chain-rule factor 2*pi combines with the 1/(2*pi*s)
    of the inner logarithmic derivative to leave 1/s).
    """
    def density(v):
        T = 2.0 * math.pi * v
        sol = _solution(SIGMA_NN, (1.0, 1.0), T)
        return -sol.sigma_at(T) / v * _exp(sol.log_integral_at(T))

    return on_points(s, 0.0, density)


# Up to this t the densities take their numerator, T^2 G''/G for G =
# exp(w int_0^T u/t dt), from the x-series instead of the trajectory: its
# leading orders cancel, which costs the trajectory's value digits as T
# falls, while the series loses digits to truncation as T grows (3e-14 in
# sigma and 2e-12 in sigma'' at t = 1, 4e-9 in sigma'' at 1.5).  Measured
# worst relative gap of p4_direct to p4_det on s = 0.01 .. 0.6 (step 0.002)
# by crossover: 1.3e-9 at 0.8, 7.1e-10 at 0.9 and 1.0, 4.4e-10 at 1.05,
# 4.3e-9 at 1.2 and 2.0e-7 at 1.5.
_SERIES_DENSITY_T = 1.0


def _series_numerator(u, weight, lead, T):
    """w^2 u^2 + w (T u' - u) at each T of an array, from the x-coefficients
    u (from x^1 on) of a sigma-like function, summed from x^lead on: its
    lower orders cancel to roundoff."""
    n = len(u)
    k = np.arange(1, n + 1)
    wu = _Series(weight * u, 1)
    series = _s_add(_s_mul(wu, wu, n),
                    _Series(weight * (k / 2.0 - 1.0) * u, 1), n)
    return np.sum(series.c[lead - series.off:] * np.sqrt(T)[:, None]
                  ** np.arange(lead, n + 1), axis=-1)


def p2_direct(s):
    """Spacing density p2(0; s) = d^2/ds^2 E2(0; s) = E2 (sigma^2 + T sigma'
    - sigma) / s^2, T = pi s, on e2_bulk's trajectory.  Up to
    _SERIES_DENSITY_T the numerator, O(T^4) against sigma^2's T^2, is summed
    from the series from x^8 on, where its x^4 and x^6 coefficients cancel
    to roundoff."""
    def density(v):
        T = math.pi * v
        sol = _solution(*_GAUDIN, T)
        sigma, sp, L = sol._state(T, (0, 1, 3))
        num = sigma * sigma + T * sp - sigma
        low = T <= _SERIES_DENSITY_T
        num[low] = _series_numerator(sol.problem.x_coefficients, 1.0, 8,
                                     T[low])
        return num / (v * v) * _exp(L)

    return on_points(s, 0.0, density)


# The parity determinants D_plus and D_minus of the sine kernel on (-x, x)
# from the bulk trajectory by Gaudin's relation: with T = 2 pi x, L its
# log-integral and I = int_0^T R/t dt, R = sqrt(sigma - t sigma'),
#     log D_pm(x) = (L -/+ I) / 2 = (1/2) int_0^T u_pm/t dt,  u_pm = sigma -/+ R.
# E1 = D_plus(s), E4 = (D_plus + D_minus)(s) / 2, and the densities are
# second x-derivatives D'' = D (2 pi / T)^2 (u^2/4 + (T u' - u)/2).

def _parity_gaps(x):
    """(D_plus, D_minus) at each x of an array."""
    T = 2.0 * math.pi * x
    L, I = _solution(*_GAUDIN, T)._state(T, (3, _ROOT_INTEGRAL))
    return _exp(0.5 * (L - I)), _exp(0.5 * (L + I))


def _parity_seconds(x):
    """(D_plus'', D_minus'') at each x of an array.  Past _SERIES_DENSITY_T
    they come from one dense-output call; up to it, from the series of
    sigma and R, L and I included, which keeps the digits that p4 and p1gap
    lose where D_plus'' and D_minus'' cancel.  The numerators are summed
    from x^6 on: the x^4 terms of u_plus^2/4 and (T u_plus' - u_plus)/2
    cancel, and u_minus is O(T^3) though sigma and R are O(T)."""
    T = 2.0 * math.pi * x
    sol = _solution(*_GAUDIN, T)
    problem = sol.problem
    low = T <= _SERIES_DENSITY_T
    high = ~low
    L, I = np.empty(T.shape), np.empty(T.shape)
    L[low] = problem._series_component(T[low], 3)
    I[low] = problem._series_component(T[low], _ROOT_INTEGRAL)
    t = T[high]
    sigma, sp, spp, L[high], I[high] = sol._state(
        t, (0, 1, 2, 3, _ROOT_INTEGRAL))
    A = t * sp - sigma
    R = np.sqrt(-A)
    dR = -t * t * spp / (2.0 * R) - R     # T R' - R, with R' = -T sigma''/2R
    seconds = []
    for sign in (-1.0, 1.0):
        num = np.empty(T.shape)
        u = sigma + sign * R
        num[high] = 0.25 * u * u + 0.5 * (A + sign * dR)
        num[low] = _series_numerator(
            problem.x_coefficients + sign * problem._root, 0.5, 6, T[low])
        seconds.append(_exp(0.5 * (L + sign * I))
                       * (2.0 * math.pi / T) ** 2 * num)
    return tuple(seconds)


def e1_bulk(s):
    """E1(0; (-s, s)) = D_plus(s), by Gaudin's relation on the bulk
    trajectory."""
    return on_points(s, 1.0, lambda v: _parity_gaps(v)[0])


def e4_bulk(s):
    """E4(0; (-s/2, s/2)) = (D_plus(s) + D_minus(s)) / 2: a length-s gap of
    the symplectic ensemble is a length-2s parity gap of the orthogonal one."""
    def average(v):
        plus, minus = _parity_gaps(v)
        return 0.5 * (plus + minus)

    return on_points(s, 1.0, average)


def p1_direct(s):
    """Spacing density p1(0; s) = D_plus''(s/2) / 4."""
    return on_points(s, 0.0, lambda v: 0.25 * _parity_seconds(v / 2.0)[0])


def p4_direct(s):
    """Spacing density p4(0; s) = (D_plus'' + D_minus'')(s) / 2."""
    def density(v):
        plus, minus = _parity_seconds(v)
        value = 0.5 * (plus + minus)
        negative = value < -1e-9
        if negative.any():
            raise ConsistencyError(
                "p4 composition produced a negative density",
                context={"s": float(v[negative][0]),
                         "value": float(value[negative][0])})
        return np.where(value < 0.0, 0.0, value)

    return on_points(s, 0.0, density)


def p1_gap1(s):
    """Density of the distance between next-nearest beta=1 neighbours.

    p1(1; s) = d^2/ds^2 [2 E1(0;s) + E1(1;s)] = (D_plus'' + D_minus'')(s/2)
    / 4 through the parity identities.
    """
    def density(v):
        plus, minus = _parity_seconds(v / 2.0)
        return 0.25 * (plus + minus)

    return on_points(s, 0.0, density)


# The same five columns from the hard-edge transcendents, which verify
# compares with the determinants so that SIGMA_HARD stays checked.

def _e1_hard(s):
    """E1(0; (-s, s)) through the hard-edge a=-1/2 transcendent."""
    return on_points(
        s, 1.0, lambda v: e2_hard(_squared(math.pi * v), -0.5, 1.0))


def _e4_hard(s):
    """E4(0; (-s/2, s/2)) as the average of the two hard-edge exponentials."""
    def average(v):
        t = _squared(math.pi * v)
        return 0.5 * (e2_hard(t, -0.5, 1.0) + e2_hard(t, 0.5, 1.0))

    return on_points(s, 1.0, average)


def _p1_hard(s):
    """p1(0; s) = -(2 sigma(T) / s) exp int_0^T sigma/t dt with T = (pi s /
    2)^2 and sigma the hard-edge transcendent at a = -1/2, mu = 2, xi = 1."""
    def density(v):
        T = _squared(math.pi * v / 2.0)
        sol = _solution(SIGMA_HARD, (-0.5, 2.0, 1.0), T)
        return -2.0 * sol.sigma_at(T) / v * _exp(sol.log_integral_at(T))

    return on_points(s, 0.0, density)


def _dminus_second(u):
    """Second derivative of the odd-parity determinant profile at u.

    -(4 pi^2 u / 3)(sigma(T) + 1) exp int_0^T sigma/t dt with T = (pi u)^2
    and sigma the hard-edge transcendent at a = 1/2, mu = 2, xi = 1.
    """
    def second(w):
        T = _squared(math.pi * w)
        sol = _solution(SIGMA_HARD, (0.5, 2.0, 1.0), T)
        return -(4.0 * math.pi ** 2 * w / 3.0) * (sol.sigma_at(T) + 1.0) * \
            _exp(sol.log_integral_at(T))

    return on_points(u, 0.0, second)


def _p4_hard(s):
    """p4(0; s) = 2 p1(0; 2s) + (1/2) D''_-(s)."""
    return on_points(s, 0.0, lambda v: 2.0 * _p1_hard(2.0 * v)
                     + 0.5 * _dminus_second(v))


def _p1_gap1_hard(s):
    """p1(1; s) = p1(0; s) + (1/4) D''_-(s/2)."""
    return on_points(
        s, 0.0, lambda v: _p1_hard(v) + 0.25 * _dminus_second(v / 2.0))


def am5_identity_residual(s: float, a: float) -> float:
    """Residual of the hard-edge first-derivative identity at xi = 1.

    Left side: -(d/ds) exp int_0^s u|_{mu=0}/t dt.  Right side:
    s^a / (2^{2a+2} Gamma(a+1) Gamma(a+2)) * exp int_0^s u|_{mu=2}/t dt.
    Both exponentials come from SIGMA_HARD trajectories; the mu=2 one is
    the trajectory _p1_hard (a = -1/2) or _dminus_second (a = 1/2) steps
    on.
    """
    if a not in (-0.5, 0.5):
        raise UnsupportedError(f"identity implemented for a = +-1/2, got {a}")
    if not (math.isfinite(s) and s > 0.0):
        raise ArgumentError(f"s must be finite and > 0, got {s}")
    sol0 = _solution(SIGMA_HARD, (a, 0.0, 1.0), s)
    lhs = -sol0.sigma_at(s) / s * math.exp(sol0.log_integral_at(s))
    sol2 = _solution(SIGMA_HARD, (a, 2.0, 1.0), s)
    prefactor = s ** a / (2.0 ** (2 * a + 2) * math.gamma(a + 1.0)
                          * math.gamma(a + 2.0))
    rhs = prefactor * math.exp(sol2.log_integral_at(s))
    return lhs - rhs
