"""Nonlinear-ODE route to gap probabilities and spacing densities.

Every quantity here is an exp(int sigma(t)/t dt) representation built from a
sigma-form equation: quadratic in sigma'', with a power-series boundary layer
at t = 0 and Taylor steps beyond it.  There are three equations, one id
each: SIGMA_JMMS (bulk gap; at xi = 1 its trajectory carries every beta = 1,
2 and 4 gap probability and spacing density, beta = 1 and 4 through
Gaudin's relation for the parity determinants), SIGMA_HARD (hard edge; its
trajectories are kept as an independent check of the beta = 1 and 4
columns, which verify compares with the determinants) and SIGMA_NN
(conditioned origin).  Every equation reads (t sigma'')^2 + G = 0 with G a
function of (sigma, t sigma', sigma'), and _EQUATIONS states each G once,
run by the same operators on series (the residual) and on floats (the
defect).  Three layers:

1. series: sigma = sum c_k x^k with x = sqrt(t), derived by matching
   orders one unknown at a time (_match_coefficients), each probe one eager
   pass over the residual's graph (_Pass) from the entries it reaches; the
   resonant orders take closed forms (_equation_setup).  Derived problems
   are memoised until clear_cache().
2. Taylor steps in x (Jorba and Zou, Experiment. Math. 14, 2005): from
   t_switch on, sigma(x0 + lam u) = sum c_k u^k on the same G, lam the step
   before; the state at x0 fixes c0, c1 and c2, and each later c_k solves
   residual order k - 2 in one eager pass, on a graph each problem builds
   once (_taylor_step).  A step is a fixed fraction of the radius its
   last two coefficients show.  Each step's u-polynomials of sigma, sigma',
   sigma'', int sigma/t dt = 2 int sigma/x dx and, on the xi = 1 bulk
   trajectory, Gaudin's split int sqrt(sigma - t sigma')/t dt are the dense
   output, and the equation's defect is checked at every step end.  Steps
   in t would stall: the branch point at t = 0 caps their radius at about t.
3. evaluators: E and p compositions with frozen argument calibrations
   (upper limit pi*s for the bulk two-point gap, 2*pi*s for the parity
   determinants on (-s, s) and the conditioned nearest-neighbour gap, the
   hard-edge variable used as is).  Each takes a float or an array of s;
   an array is served by one trajectory fetch, one series evaluation and
   one dense-output pass, and gets the floats a loop of scalar calls would
   get.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add, mul

import numpy as np

from .errors import (ArgumentError, ConsistencyError, DerivationError,
                     StiffnessError, UnsupportedError)
from .points import on_points

SIGMA_JMMS = "SIGMA_JMMS"  # bulk two-point generating sigma, params (xi,)
SIGMA_HARD = "SIGMA_HARD"  # hard-edge sigma, params (a, mu, xi)
SIGMA_NN = "SIGMA_NN"      # conditioned-origin sigma, params (a, xi)
_GAUDIN = (SIGMA_JMMS, (1.0,))  # the trajectory that carries Gaudin's split

DEFAULT_T_SWITCH = 0.1
DEFAULT_ORDER = 44      # x-coefficients every boundary series is derived to
DEFECT_TOL = 1e-8       # every step end's relative defect is within it
_STEP_ORDER = 36        # u-coefficients c_0..c_P of every Taylor step
_STEP_EPS = 1e-20       # a step is _STEP_EPS^(1/P) of the series' radius
_ACTION_TOL = 1e-10     # smallest linearized action considered nonzero
_TRUNCATED_TOP = 6      # top residual orders the final check skips
_T_BOUND = 1e6          # no trajectory is stepped past it on request
_GAUDIN_T_END = 40.0    # where the xi = 1 bulk trajectory ends (_extend)


# ---------------------------------------------------------------------------
# truncated power series in x = sqrt(t), evaluated eagerly: coefficient k,
# of x^(off + k), is rule(node, k), read from its operands' lists and its
# own.  Terms past x^order are dropped; a result keeps the lower order of
# its operands.  A coefficient is a float, or an array over a batch, in
# Python's arithmetic: a series of a batch gets the bits it would get alone,
# and every sum runs in increasing index from +0.0, with no BLAS.

class _Series:
    """A leaf of the coefficients c, or a node of n coefficients from rule
    over the (series, d) of: coefficient k reads theirs up to k + d, past a
    product's other factor's leading zeros _z.  + - * take a series or a
    float, the constant series (a float may stand left of - and *)."""
    __slots__ = ("off", "order", "_n", "_v", "_z", "_rule", "_args", "_of",
                 "_shape")

    def __init__(self, c, off, order, rule=None, args=(), n=0, of=()):
        self.off, self.order, self._rule, self._args = int(off), order, \
            rule, args
        self._v, self._n, self._of, self._z = [], n, of, 0
        self._shape = np.broadcast_shapes(*(s._shape for s, _ in of))
        if rule is None:
            c = np.asarray(c, dtype=float)
            self._n, self._shape = c.shape[-1], c.shape[:-1]
            self._v = c.tolist() if c.ndim == 1 else list(
                np.moveaxis(c, -1, 0))

    @property
    def c(self):
        out = np.zeros(self._shape + (self._n,))
        for k, x in enumerate(_Pass(self).fill(self._n - 1)[:self._n]):
            out[..., k] = x
        return out

    def __add__(self, v):
        """Coefficient k sums the operands' from +0.0, left to right: a left
        sum by its terms (a sum never holds -0.0), a series times a float as
        (series, float)."""
        def term(s):
            return s._args if s._rule is _scale else (s, None)

        if not isinstance(v, _Series):
            v = _Series([v], 0, self.order)
        terms = [t[:2] for t in self._args] if self._rule is _sum else [
            term(self)]
        terms.append(term(v))
        off = min(s.off for s, _ in terms)
        order = min(s.order for s, _ in terms)
        return _Series((), off, order, _sum,
                       [(s, f, off - s.off) for s, f in terms],
                       order - off + 1, [(s, off - s.off) for s, _ in terms])

    def __neg__(self):
        return self * -1.0

    def __sub__(self, v):
        return self + -v

    def __rsub__(self, v):
        return _Series([v], 0, self.order) + -self

    def __mul__(self, v):
        if isinstance(v, _Series):
            return _s_mul(self, v)
        return _Series((), self.off, self.order, _scale, (self, v), self._n,
                       ((self, 0),))

    __rmul__ = __mul__


class _Pass:
    """The roots' graph in topological order: fill(i) computes each node up
    to the entries the first root's coefficient i reads, and write(j, value)
    sets the leaf's coefficient j and drops each node's entries from the
    first one it reaches, both by the index shifts d (plan)."""

    def __init__(self, *roots, leaf=None):
        self.roots, self.leaf, order = roots, leaf, []

        def visit(node):
            if node is not leaf and node not in order:
                for s, _ in node._of:
                    visit(s)
                order.append(node)

        for root in roots:
            visit(root)
        self._nodes = [s for s in order if s._rule]
        self.plan(0)

    def plan(self, j, fit=False):
        """Drops for writes at the leaf's j, and fills; fit first sets each
        product's factors' _z to the zeros they hold below the first entry
        such a write reaches, and says whether every later j leaves them."""
        reach, ahead, settled = {self.leaf: j}, dict.fromkeys(self.roots, 0), \
            True
        for node in self._nodes:
            if fit and node._rule is _product:
                for s, _ in node._of:
                    lead = next((i for i, x in enumerate(s._v) if x != 0.0),
                                len(s._v))
                    s._z = min(lead, reach.get(s, math.inf))
                    settled &= lead == s._z < len(s._v)
                (a, _), (b, _) = node._of
                node._of = (a, -b._z), (b, -a._z)
            reach[node] = min(reach.get(s, math.inf) - d for s, d in node._of)
        for node in reversed(self._nodes):
            for s, d in node._of:
                ahead[s] = max(ahead.get(s, -math.inf), ahead[node] + d)
        self._fills = [(s, s._v, s._rule, s._n, ahead[s] + 1)
                       for s in self._nodes]
        self._drops = [(s._v, reach[s] - j) for s in self._nodes
                       if reach[s] < math.inf]
        return settled

    def fill(self, i):
        """The first root's coefficients, 0..i at least."""
        for node, v, rule, n, ahead in self._fills:
            top = i + ahead
            for k in range(len(v), n if top > n else top):
                v.append(rule(node, k))
        return self.roots[0]._v

    def write(self, j, value):
        self.leaf._v[j] = value
        for v, lag in self._drops:
            del v[j + lag if j + lag > 0 else 0:]


def _sum(node, k):
    v = 0.0
    for s, f, d in node._args:
        if 0 <= k + d < s._n:
            v = v + (s._v[k + d] if f is None else s._v[k + d] * f)
    return v


def _scale(node, k):
    a, v = node._args
    return a._v[k] * v


def _product(node, k):
    a, b = node._args
    lo, hi = k - b._n + 1, k - b._z
    lo, hi = a._z if lo < a._z else lo, a._n - 1 if hi >= a._n else hi
    v, bv, i = 0.0, b._v, k - lo
    for x in a._v[lo:hi + 1]:
        v = v + x * bv[i]
        i -= 1
    return v


def _s_mul(a, b):
    """Coefficient k sums a_i b_(k-i) in increasing i from +0.0, past each
    factor's leading zeros: an exact-zero term leaves such a sum as it is,
    so a monomial factor gives a shifted, scaled copy, a_i v + 0.0."""
    off, order = a.off + b.off, min(a.order, b.order)
    if order < off:
        return _Series(np.zeros(1), order, order)
    return _Series((), off, order, _product, (a, b), order - off + 1,
                   ((a, 0), (b, 0)))


def _ddt(node, k):
    a = node._args
    return a._v[k] * (a.off + k) * 0.5 + 0.0 if k < a._n else 0.0


def _s_ddt(a, shift):
    """x^shift d/dt, d/dt = d/dx / (2x): the bits of the monomials x^shift
    and 1/(2x) times the x-derivative."""
    off = a.off - 2 + shift
    return _Series((), off, a.order, _ddt, a, a.order - off + 1, ((a, 0),))


# rules on a series in u from u^0 on, with x = x0 + lam u and (x0, lam) a
# cell the step graph shares

def _dx(node, k):
    a, (_, lam) = node._args
    return a._v[k + 1] * (k + 1) / lam


def _half_x(node, k):
    a, (x0, lam) = node._args
    v = x0 * a._v[k]
    if k:
        v = v + lam * a._v[k - 1]
    return 0.5 * v


def _over_2x(node, k):
    """q = a / 2x: q_k = (a_k / 2 - lam q_(k-1)) / x0, from 2 x q = a."""
    a, (x0, lam) = node._args
    v = 0.5 * a._v[k]
    if k:
        v = v - lam * node._v[k - 1]
    return v / x0


def _s_step(rule, a, at):
    """d/dx (_dx), x/2 times (_half_x) or 1/2x times (_over_2x) a series in
    u, truncated at a's order, one less for d/dx."""
    order = a.order - 1 if rule is _dx else a.order
    return _Series((), 0, order, rule, (a, at), order + 1,
                   ((a, int(rule is _dx)),))


def _square_root(node, k):
    a, lead = node._args
    w = a._v[lead + k] if lead + k < a._n else 0.0
    if k == 0:
        if not np.all(w > 0.0):
            raise DerivationError(f"series sqrt needs a positive x^"
                                  f"{a.off + lead}, the same for a batch")
        return np.sqrt(w) if isinstance(w, np.ndarray) else math.sqrt(w)
    y = node._v
    return (w - reduce(add, map(mul, y[1:k], reversed(y[1:k])), 0.0)) / (
        2.0 * y[0])


def _s_sqrt(a):
    """Series square root, summed as a product is, from a's first nonzero
    term, which must lie at an even exponent: the rule refuses a leading
    coefficient that is not positive whenever it is computed."""
    fill = _Pass(a).fill
    live = (k for k in range(a._n) if np.any(np.abs(fill(k)[k]) > 1e-300))
    lead = next(live, None)
    if lead is None or (a.off + lead) % 2:
        raise DerivationError(
            "series sqrt needs a nonzero series led by an even exponent")
    e0 = a.off + lead
    return _Series((), e0 // 2, a.order, _square_root, (a, lead),
                   a.order - e0 // 2 + 1, ((a, lead),))


# ---------------------------------------------------------------------------
# equations: (t sigma'')^2 + G(A, sigma') = 0 with A = t sigma' - sigma,
# each G stated once in (sigma, t sigma', sigma') as groups of terms.
# The series residual adds the terms one at a time in the order written (the
# derived coefficients' bits depend on it); the defect's scale is the largest
# of 1, the lead and each group.

def _root(w):
    """Square root; on floats it reads 0 where w <= 0."""
    if isinstance(w, _Series):
        return _s_sqrt(w)
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


def _residual(equation_id, par, s, tsp, sp, t_spp):
    """(t sigma'')^2 + G(sigma, t sigma', sigma') on series."""
    r = t_spp * t_spp
    for group in _EQUATIONS[equation_id][0](par, s, tsp, sp):
        for term in group:
            r = r + term
    return r


def _residual_series(equation_id, par, sigma):
    """The residual series of sigma: a series from x^1 on, or its
    x-coefficients (a batch on leading axes)."""
    if not isinstance(sigma, _Series):
        sigma = _Series(sigma, 1, sigma.shape[-1])
    sp = _s_ddt(sigma, 0)               # sigma', and t sigma', t sigma''
    return _residual(equation_id, par, sigma, _s_ddt(sigma, 2), sp,
                     _s_ddt(sp, 2))


def _residual_terms(equation_id, par, t, s, sp, spp):
    """(residual, scale) of the undifferentiated equation; vectorized."""
    parts = [(t * spp) ** 2]
    g = _EQUATIONS[equation_id][0]
    parts += [sum(group) for group in g(par, s, t * sp, sp)]
    scale = np.max(np.abs(np.stack(np.broadcast_arrays(1.0, *parts))), axis=0)
    return sum(parts), scale


# ---------------------------------------------------------------------------
# coefficient matching

def _first_action(p, j, lo):
    """(order index, root) where the unknown j of p's leaf first acts on p's
    residual from index lo on, or None.  Each order is probed with it at +1,
    -1 and 0 (where it is left), every later unknown at 0; it acts where its
    linear or quadratic action exceeds _ACTION_TOL times the largest of 1
    and the three residuals.  Of two roots the smaller is taken, or over a
    base residual that vanishes exactly up to that order the larger."""
    for i in range(lo, p.roots[0]._n):
        Rp, Rm, R0 = (p.write(j, v) or p.fill(i)[i] for v in (1., -1., 0.))
        beta = (Rp - Rm) / 2.0
        alpha = (Rp + Rm - 2.0 * R0) / 2.0
        # Python's max, from 1.0 on, skips a NaN
        tol = _ACTION_TOL * max(1.0, abs(R0), abs(Rp), abs(Rm))
        if abs(beta) > tol or abs(alpha) > tol:
            break
    else:
        return None
    if abs(alpha) <= _ACTION_TOL * max(abs(beta), 1.0):
        return i, -R0 / beta
    disc = math.sqrt(max(beta * beta - 4.0 * alpha * R0, 0.0))
    r1, r2 = (-beta + disc) / (2.0 * alpha), (-beta - disc) / (2.0 * alpha)
    peak = float(np.max(np.abs(p.roots[0]._v[:i + 1])))
    exact = peak < 1e-12 * max(1.0, peak)
    return i, r1 if (abs(r1) > abs(r2) if exact else abs(r1) < abs(r2)) else r2


def _match_coefficients(equation_id, par, leading, order, pinned):
    """Derive x-coefficients 1..order from the leading data, one unknown at
    a time in increasing order.  A resonant unknown takes its pinned value;
    every other one solves the residual at the first order where it acts
    (_first_action), from the order after the last unknown's on (one acting
    no later would make that one resonant), or stays 0.  Every coefficient
    of the residual is then checked."""
    sig = _Series([leading.get(e + 1, 0.0) for e in range(order)], 1, order)
    r = _residual_series(equation_id, par, sig)
    p = _Pass(r, leaf=sig)
    last, fitted = -1, False        # order index of the last action
    for j in range(order):
        fitted = fitted or p.plan(j, fit=True)
        if j + 1 in pinned:
            p.write(j, pinned[j + 1])
        elif j + 1 not in leading:
            action = _first_action(p, j, last + 1)
            if action is not None:
                last, root = action
                p.write(j, root)
    c = r.c
    tail = c[:max(0, order - _TRUNCATED_TOP - r.off)]
    scale = max(1.0, float(np.max(np.abs(c))))
    if len(tail) and np.max(np.abs(tail)) > 1e-8 * scale:
        raise DerivationError(
            f"series for {equation_id} {par} leaves residual "
            f"{np.max(np.abs(tail)):.2e} (scale {scale:.2e}); "
            "inconsistent leading data")
    return np.array(sig._v)


def _equation_setup(equation_id, params):
    """(equation params, leading coeffs, pinned resonant coeffs).

    Three equations, one id each: SIGMA_JMMS (xi), SIGMA_HARD (a, mu, xi)
    with a = +-1/2 and mu in {0, 2} (mu = 2 at xi = 1 only), and SIGMA_NN
    (a, xi) with a in {0, 1}.  Exponents are in x = sqrt(t).
    The pinned orders are the resonances, where c_(e+1) acts on the
    residual no later than c_e, so that matching cannot determine c_e;
    their values are closed forms, which the matcher takes as given.
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
    # on the same trajectory, the x-coefficients of the density numerators
    # (_numerator) of p2 from x^8 and of D_plus and D_minus from x^6
    _numerators: tuple = field(default=(), compare=False, repr=False)
    # the Taylor-step graph of each row count, built at the first step
    _steps: dict = field(default_factory=dict, compare=False, repr=False)

    def _series_component(self, t, component):
        """State component from the series layer at an array of t >= 0."""
        if component == _ROOT_INTEGRAL:
            return _x_sum(self._root, t, -1)
        return _x_sum(self.x_coefficients, t, _SERIES_DERIV[component])


def _x_sum(c, t, deriv):
    """sum_k c_k x^k with x = sqrt(t), c from x^1 on (deriv 0), its first
    and second t-derivatives (1, 2), x-derivatives ("x", "xx") or its
    int_0^t ./tau dtau (-1)."""
    x = np.sqrt(t)[..., None]
    k = np.arange(1, len(c) + 1, dtype=float)
    if deriv == 0:
        terms = c * x ** k
    elif deriv == "x":
        terms = c * k * x ** (k - 1)
    elif deriv == "xx":
        terms = c * (k * (k - 1)) * x ** (k - 2)
    elif deriv == 1:
        terms = c * (k / 2.0) * x ** (k - 2)
    elif deriv == 2:
        terms = c * (k / 2.0) * ((k - 2) / 2.0) * x ** (k - 4)
    else:
        terms = c * x ** k / (k / 2.0)
    return np.sum(terms, axis=-1)


# derived problems and trajectories, shared by every caller and extended in
# place
_problems: dict = {}
_solutions: dict = {}


def build_problem(equation_id, params=(), t_switch=DEFAULT_T_SWITCH):
    """Derive the boundary series, to DEFAULT_ORDER x-coefficients, and
    package it with its equation.

    Memoised on (equation_id, params, t_switch, DEFAULT_ORDER) until
    clear_cache(): repeated calls return the same problem, whose
    x_coefficients array is read-only.
    """
    if not 0.0 < t_switch <= 0.1:
        raise ArgumentError(f"t_switch must lie in (0, 0.1], got {t_switch}")
    params = tuple(float(p) for p in params)
    key = (equation_id, params, float(t_switch), DEFAULT_ORDER)
    problem = _problems.get(key)
    if problem is None:
        problem = _problems[key] = _derive_problem(
            equation_id, params, t_switch, DEFAULT_ORDER)
    return problem


def _derive_problem(equation_id, params, t_switch, order):
    par, leading, pinned = _equation_setup(equation_id, params)
    if all(v == 0.0 for v in leading.values()):        # xi = 0: sigma == 0
        coeffs = np.zeros(order)
    else:
        coeffs = _match_coefficients(equation_id, par, leading, order,
                                     pinned)
        _check_tail(coeffs, t_switch)
    coeffs.setflags(write=False)
    root, numerators = None, ()
    if (equation_id, params) == _GAUDIN:
        # sigma - t sigma' = -A = sum (1 - k/2) c_k x^k, led by x^4 / pi^2;
        # the root's x^k takes -A's x^(k+2), so it stops at x^(order - 2)
        k = np.arange(1, order + 1)
        root = np.zeros(order)
        root[1:order - 2] = _s_sqrt(
            _Series((1.0 - k / 2.0) * coeffs, 1, order - 2)).c
        root.setflags(write=False)
        numerators = (_numerator(coeffs, 1.0, 8),
                      _numerator(coeffs - root, 0.5, 6),
                      _numerator(coeffs + root, 0.5, 6))
    return PainleveProblem(equation_id=equation_id, params=params,
                           t_switch=float(t_switch), x_coefficients=coeffs,
                           _par=par, _root=root, _numerators=numerators)


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


def series_residual(problem: PainleveProblem) -> float:
    """Relative defect of the truncated series in its own equation at
    t_switch."""
    t = problem.t_switch
    r, scale = _residual_terms(
        problem.equation_id, problem._par, t,
        *(float(_x_sum(problem.x_coefficients, t, d)) for d in range(3)))
    return float(abs(r) / scale)


_SERIES_DERIV = {0: 0, 1: 1, 2: 2, 3: -1}    # state component -> deriv
_ROOT_INTEGRAL = 4      # the state component int sqrt(sigma - t sigma')/t


@dataclass(eq=False)
class PainleveSolution:
    """(sigma, sigma', sigma'', int sigma/t dt) on [0, t_max], and int
    sqrt(sigma - t sigma')/t dt on the xi = 1 bulk trajectory: the series
    layer up to t_switch, a Taylor step's u-polynomials after it."""

    problem: PainleveProblem
    grid: np.ndarray        # t_switch and the t of every step end
    _x: np.ndarray = field(repr=False)      # sqrt(t) at each grid point
    _lam: np.ndarray = field(repr=False)    # lam of each step and the next
    # (u-power, row, step): sigma, sigma_x, sigma_xx, L[, I] in u
    _pieces: np.ndarray = field(repr=False)
    _end: list = field(repr=False)          # the rows' values at grid[-1]

    @property
    def t_max(self):
        return float(self.grid[-1])

    def _extend(self, t_needed):
        """Step on to the first step end at or past t_needed, with the steps
        a cold integration takes; each step end's defect must stay within
        integrate's bound.  A failure raises at the first bad step and
        leaves the solution as it was."""
        if t_needed > _T_BOUND:
            raise ArgumentError(f"t={t_needed} beyond the bound {_T_BOUND:g}")
        problem = self.problem
        # on the xi = 1 bulk trajectory the start's rounding grows as e^t
        # (at large t the linearized equation reads eta'' = eta) and moves
        # E1 by 2.5% at t = 39 and 8% at 40: its last step ends at t = 40
        x_end = math.inf if problem._root is None else math.sqrt(
            _GAUDIN_T_END)
        if t_needed > x_end * x_end:
            raise ConsistencyError(
                f"the xi = 1 bulk trajectory ends at t = {_GAUDIN_T_END:g}",
                context={"equation": problem.equation_id, "t": t_needed})
        x, lam = float(self._x[-1]), float(self._lam[-1])
        state, t = self._end, self.t_max
        xs, hs, pieces = [], [], []
        while t < t_needed:
            h, coef = _taylor_step(problem, x, lam, state)
            if x + h > x_end:
                h = x_end - x
            state = _horner(coef[..., None], 0, h / lam).tolist()
            x, lam = x + h, h
            t = x * x
            s = state[0]
            sp, spp = _t_form(x, *state[1:3])
            defect, scale = _residual_terms(problem.equation_id,
                                            problem._par, t, s, sp, spp)
            rel = float(abs(defect) / scale)
            if not rel <= DEFECT_TOL:
                raise ConsistencyError(
                    "branch drift: equation defect exceeded tolerance",
                    context={"equation": problem.equation_id,
                             "params": problem.params, "t": t,
                             "defect": rel, "allowed": DEFECT_TOL})
            w = s - t * sp
            if len(state) > _ROOT_INTEGRAL and not w > 0.0:
                raise ConsistencyError(
                    "Gaudin's relation needs sigma - t sigma' > 0",
                    context={"equation": problem.equation_id,
                             "params": problem.params, "t": t, "value": w})
            xs.append(x)
            hs.append(h)
            pieces.append(coef)
        if xs:
            xs = np.array(xs)
            self.grid = np.concatenate((self.grid, xs * xs))
            self._x = np.concatenate((self._x, xs))
            self._lam = np.concatenate((self._lam, hs))
            self._pieces = np.concatenate(
                (self._pieces, np.stack(pieces, axis=-1)), axis=-1)
            self._end = state

    def _dense(self, t, components):
        """The components (a list) at an array of t past t_switch, from the
        rows they need of their steps' u-polynomials, in one Horner pass."""
        x = np.sqrt(t)
        i = np.searchsorted(self._x[1:-1], x, side="right")
        rows = sorted({*components, *(1 for k in components if k == 2)})
        v = dict(zip(rows, _horner(self._pieces[:, rows], i,
                                   (x - self._x[i]) / self._lam[i])))
        if 1 in v:          # v[2] is read only where it was asked for
            v[1], v[2] = _t_form(x, v[1], v.get(2, 0.0))
        return [v[k] for k in components]

    def _state(self, t, component):
        """One state component (an int) at a float t (a float is returned)
        or at an array of t, or several (a tuple), stacked on a leading
        axis: the series layer up to t_switch, the steps beyond it, each
        called once for all its points."""
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
            out[:, dense] = self._dense(flat[dense], list(components))
        if isinstance(component, tuple):
            return out.reshape((len(components),) + t.shape)
        return float(out[0, 0]) if t.ndim == 0 else out[0].reshape(t.shape)

    def sigma_at(self, t):
        return self._state(t, 0)

    def log_integral_at(self, t):
        """int_0^t sigma(tau)/tau dtau, series layer included."""
        return self._state(t, 3)


def integrate(problem: PainleveProblem, t_max: float) -> PainleveSolution:
    """Step from t_switch to the first step end at or past t_max; no step
    is cut short to end there, but the xi = 1 bulk trajectory's last.

    The components are [sigma, sigma', sigma'', int_0^t sigma/tau dtau],
    and on the xi = 1 bulk trajectory int_0^t sqrt(sigma - tau sigma')/tau
    dtau; the steps carry sigma_x and sigma_xx for sigma' and sigma''.  The
    equation is checked at every step end and must stay within DEFECT_TOL
    of zero relative to its largest term.
    """
    ts = problem.t_switch
    if t_max <= ts:
        raise ArgumentError(f"t_max={t_max} must exceed t_switch={ts}")
    n = 5 if problem._root is not None else 4
    x0 = math.sqrt(ts)
    c = problem.x_coefficients
    rows = [float(_x_sum(c, ts, d)) for d in (0, "x", "xx")] + [
        float(problem._series_component(ts, j)) for j in range(3, n)]
    solution = PainleveSolution(
        problem, np.array([ts]), np.array([x0]), np.array([x0]),
        np.zeros((_STEP_ORDER + 1, n, 0)), rows)
    solution._extend(t_max)
    return solution


def _t_form(x, sx, sxx):
    """(sigma', sigma'') from (sigma_x, sigma_xx) at x: sigma' = sigma_x / 2x
    has a pole at x = 0 where sigma_x(0) != 0, which caps the radius of its
    own u-series at x0, so it is formed at the point."""
    return sx / (2.0 * x), (sxx - sx / x) / (4.0 * x * x)


def _horner(pieces, i, u):
    """sum_k pieces[k, :, i] u^k by Horner's rule, elementwise: (row, point)
    for an array of steps i and of u, each power read by one flat take."""
    flat = pieces.reshape(len(pieces), -1)
    at = np.add.outer(np.arange(pieces.shape[1]) * pieces.shape[2], i)
    acc = flat[-1].take(at)
    for a in flat[-2::-1]:
        acc *= u
        acc += a.take(at)
    return acc


def _taylor_step(problem, x0, lam, state):
    """One step from x0 with the state (sigma, sigma_x, sigma_xx, L[, I])
    there: (h, the (u-power, row) coefficients in u = (x - x0) / lam).

    sigma = sum c_k u^k takes c0, c1 and c2 from the state, written with x0
    and lam into the problem's step graph; c_k for k >= 3 acts on residual
    order k - 2 only through (t sigma'')^2, no G reading sigma'', with the
    slope 2 (t sigma'')_0 k (k - 1) / (4 lam^2).  Where t sigma'' vanishes
    no c_k acts: the step keeps c0 + c1 u + c2 u^2, which solves the
    equation where G vanishes with it (sigma == 0 at xi = 0, sigma = -xi t /
    pi at a tiny xi), and the defect check at its end refuses it anywhere
    else.  h = lam rho _STEP_EPS^(1/P), rho the radius in u that c_(P-1)
    and c_P show, and on the xi = 1 bulk trajectory the last two of
    sqrt(sigma - t sigma'), so a step stays short of a zero of its argument
    (no radius keeps lam)."""
    s0, sx0, sxx0 = state[:3]
    leaf = [s0, lam * sx0, 0.5 * lam * lam * sxx0] + [0.0] * (_STEP_ORDER - 2)
    n = len(state)
    if n not in problem._steps:     # a square root takes its lead from leaf
        at, c = [x0, lam], _Series(leaf, 0, _STEP_ORDER)
        sx = _s_step(_dx, c, at)                # d sigma / dx
        dsdt = _s_step(_over_2x, sx, at)        # sigma' = sigma_x / 2x
        t_spp = _s_step(_half_x, _s_step(_dx, dsdt, at), at)  # t sigma''
        tsp = _s_step(_half_x, sx, at)          # t sigma' = x sigma_x / 2
        rows = [c, sx, _s_step(_dx, sx, at), _s_step(_over_2x, c, at)]
        if n > _ROOT_INTEGRAL:                  # sqrt(sigma - t sigma') / 2x
            rows.append(_s_step(_over_2x, _s_sqrt(c - tsp), at))
        r = _residual(problem.equation_id, problem._par, c, tsp, dsdt, t_spp)
        problem._steps[n] = at, c, t_spp, _Pass(r, leaf=c), _Pass(*rows,
                                                                 leaf=c)
    at, c, t_spp, p, filled = problem._steps[n]
    at[:], c._v[:] = (x0, lam), leaf
    for v, _ in p._drops + filled._drops:
        del v[:]
    lead = p.fill(0) and t_spp._v[0]
    # t sigma'' = (sigma_xx - sigma_x / x) / 4; zero to _ACTION_TOL of its
    # terms, no c_k acts, and the step keeps the quadratic
    if abs(lead) > _ACTION_TOL * 0.25 * (abs(sxx0) + abs(sx0 / x0)):
        slope = lead / (2.0 * lam * lam)
        for k in range(3, _STEP_ORDER + 1):
            p.write(k, -p.fill(k - 2)[k - 2] / (slope * (k * (k - 1))))
    filled.fill(_STEP_ORDER)
    radial = [c._v] + [row._args[0]._v for row in filled.roots[4:]]
    top = max(abs(v[k]) ** (1.0 / k) for v in radial
              for k in (len(v) - 2, len(v) - 1))
    h = lam if top == 0.0 else lam * _STEP_EPS ** (1.0 / _STEP_ORDER) / top
    if not (math.isfinite(h) and x0 + h > x0):
        raise StiffnessError(
            f"Taylor step of {problem.equation_id} {problem.params} at "
            f"t={x0 * x0:.6g} is {h:.3g}")
    coef = np.zeros((len(state), _STEP_ORDER + 1))
    for row, series in zip(coef, filled.roots):
        row[:series._n] = series._v
    # int sigma/t dt = int 4 (sigma / 2x) dx, its u^(k+1) 4 lam q_k / (k + 1)
    for row, v in zip(coef[3:], state[3:]):
        row[1:] = 4.0 * lam * row[:-1] / np.arange(1, _STEP_ORDER + 1)
        row[0] = v
    return h, coef.T


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
            del _solutions[key]     # the next request starts cold
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


def e2_bulk(s):
    """E2(0; interval of length s) as exp int_0^{pi s} sigma/u du.

    The upper limit pi*s (argument = pi * interval length) is the frozen
    calibration against the determinantal route.
    """
    return on_points(s, 1.0, lambda v: _gap(SIGMA_JMMS, (1.0,), math.pi * v))


def e2_hard(s, a: float):
    """Hard-edge gap probability exp int_0^s u(t;a)/t dt on (0, s)."""
    return on_points(s, 1.0, lambda v: _gap(SIGMA_HARD, (a, 0.0, 1.0), v))


def enn_generating(s):
    """Conditioned-origin gap probability on (-s, s).

    exp int_0^{2 pi s} sigma_1/t dt; the 2*pi*s upper limit (argument =
    pi * interval length, the interval having length 2s) is the frozen
    calibration, consistent with e2_bulk.
    """
    return on_points(s, 1.0, lambda v: _gap(SIGMA_NN, (1.0, 1.0),
                                            2.0 * math.pi * v))


def p2_nn(s):
    """Nearest-neighbour spacing density about a conditioned eigenvalue.

    -dE/ds of enn_generating: -sigma_1(2 pi s)/s times the gap
    probability (the chain-rule factor 2*pi combines with the 1/(2*pi*s)
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
# by crossover: 2.4e-10 at every crossover from 0.5 to 1.0, 4.4e-10 at
# 1.05, 4.3e-9 at 1.2 and 2.0e-7 at 1.5.
_SERIES_DENSITY_T = 1.0


def _numerator(u, weight, lead):
    """The x-coefficients from x^lead on of w^2 u^2 + w (T u' - u), from
    the x-coefficients u (from x^1 on) of a sigma-like function: its lower
    orders cancel to roundoff."""
    n = len(u)
    k = np.arange(1, n + 1)
    wu = _Series(weight * u, 1, n)
    series = wu * wu + _Series(weight * (k / 2.0 - 1.0) * u, 1, n)
    return series.c[lead - series.off:]


def _numerator_sum(c, lead, T):
    """sum_k c_k x^(lead + k) at each T of an array, x = sqrt(T)."""
    return np.sum(c * np.sqrt(T)[:, None] ** np.arange(lead, lead + len(c)),
                  axis=-1)


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
        num[low] = _numerator_sum(sol.problem._numerators[0], 8, T[low])
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
    they come from one dense-output pass; up to it, from the series of
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
    for sign, c in zip((-1.0, 1.0), problem._numerators[1:]):
        num = np.empty(T.shape)
        u = sigma + sign * R
        num[high] = 0.25 * u * u + 0.5 * (A + sign * dR)
        num[low] = _numerator_sum(c, 6, T[low])
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
        s, 1.0, lambda v: e2_hard(_squared(math.pi * v), -0.5))


def _e4_hard(s):
    """E4(0; (-s/2, s/2)) as the average of the two hard-edge exponentials."""
    def average(v):
        t = _squared(math.pi * v)
        return 0.5 * (e2_hard(t, -0.5) + e2_hard(t, 0.5))

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
