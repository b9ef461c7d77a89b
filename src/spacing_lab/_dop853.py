"""Dormand-Prince 8(5,3) steps with dense output, for a real state.

A port of SciPy 1.17.1's DOP853 solver (Hairer, Norsett and Wanner,
Solving Ordinary Differential Equations I, Sec. II.10) cut to what
the Painleve route uses: a real 1-D state, scalar rtol and atol, steps
forward from t0 with no bound, no max_step and no given first step.
Every operation is SciPy's, in SciPy's order (the initial-step rule, the
stage sums np.dot(K[:s].T, a[:s]) * h, the 5th/3rd-order error norm and
step control, the interpolant's F and its alternating x / (1 - x) Horner
evaluation), so each accepted step and each dense value carries the bits
SciPy's gives.  The test suite drives both side by side.

Dense holds the interpolants of many steps as stacked arrays and evaluates
any number of points in one vectorised pass, each point on the piece that
SciPy's OdeSolution picks (a point on a step boundary takes the left one).
"""

from __future__ import annotations

import numpy as np

from . import _dop853_coefficients as _c

SAFETY = 0.9            # times the asymptotic step-size estimate
MIN_FACTOR = 0.2        # largest decrease of the step size
MAX_FACTOR = 10         # largest increase of the step size
_ERROR_ORDER = 7        # of the error estimate
_EXPONENT = -1 / (_ERROR_ORDER + 1)
_N = _c.N_STAGES

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


class DOP853:
    """One trajectory of y' = fun(t, y) forward from (t0, y0).

    fun returns an array_like of y's shape.  After each step(), status is
    'running' or 'failed' (the step size fell below ten spacings of floats
    at t, and step() returned why); t and y are those of the last accepted
    step."""

    A = _c.A[:_N, :_N]
    B = _c.B
    C = _c.C[:_N]
    E3 = _c.E3
    E5 = _c.E5
    D = _c.D
    A_EXTRA = _c.A[_N + 1:]
    C_EXTRA = _c.C[_N + 1:]

    def __init__(self, fun, t0, y0, rtol, atol):
        y0 = np.asarray(y0).astype(float, copy=False)
        if y0.ndim != 1 or not np.isfinite(y0).all():
            raise ValueError("y0 must be a finite 1-D state")
        if rtol < 100 * np.finfo(float).eps or atol < 0:
            raise ValueError(f"rtol={rtol} or atol={atol} out of range")
        self.fun = lambda t, y: np.asarray(fun(t, y), dtype=float)
        self.t, self.y = t0, y0
        self.rtol, self.atol = rtol, atol
        self.status = "running"
        self.t_old = self.y_old = self.h_previous = None
        self.f = self.fun(t0, y0)
        self.h_abs = self._initial_step()
        self.K_extended = np.empty((_c.N_STAGES_EXTENDED, len(y0)))
        self.K = self.K_extended[:_N + 1]

    def _initial_step(self):
        """Hairer-Norsett-Wanner's first-step estimate, Sec. II.4."""
        t0, y0, f0 = self.t, self.y, self.f
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        f1 = self.fun(t0 + h0, y0 + h0 * f0)
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / (_ERROR_ORDER + 1))
        return min(100 * h0, h1)

    def _error_norm(self, h, scale):
        err5 = np.dot(self.K.T, self.E5) / scale
        err3 = np.dot(self.K.T, self.E3) / scale
        err5_norm_2 = np.linalg.norm(err5) ** 2
        err3_norm_2 = np.linalg.norm(err3) ** 2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))

    def step(self):
        """Take one accepted step; returns None, or why the step failed."""
        if self.status != "running":
            raise RuntimeError("step on a failed stepper")
        t, y, K = self.t, self.y, self.K
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = min_step if self.h_abs < min_step else self.h_abs
        rejected = False
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return TOO_SMALL_STEP
            t_new = t + h_abs
            h = t_new - t
            h_abs = np.abs(h)

            K[0] = self.f
            for s, (a, c) in enumerate(zip(self.A[1:], self.C[1:]), start=1):
                dy = np.dot(K[:s].T, a[:s]) * h
                K[s] = self.fun(t + c * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, self.B)
            f_new = self.fun(t + h, y_new)
            K[-1] = f_new

            scale = (self.atol
                     + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol)
            error_norm = self._error_norm(h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** _EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _EXPONENT)
            rejected = True
        self.h_previous, self.y_old, self.t_old = h, y, t
        self.t, self.y, self.h_abs, self.f = t_new, y_new, h_abs, f_new
        return None

    def dense_output(self):
        """The last step's interpolant coefficients F, shape (7, n): with
        x = (t - t_old) / (t - t_old of the step), the state is y_old +
        x (F0 + (1 - x) (F1 + x (F2 + ...))).  Costs three more stages."""
        K, h = self.K_extended, self.h_previous
        for s, (a, c) in enumerate(zip(self.A_EXTRA, self.C_EXTRA),
                                   start=_N + 1):
            dy = np.dot(K[:s].T, a[:s]) * h
            K[s] = self.fun(self.t_old + c * h, self.y_old + dy)
        F = np.empty((_c.INTERPOLATOR_POWER, len(self.y)))
        f_old = K[0]
        delta_y = self.y - self.y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (self.f + f_old)
        F[3:] = h * np.dot(self.D, K)
        return F


class Dense:
    """Interpolants of consecutive steps: piece i covers [ts[i], ts[i + 1]]
    with coefficients F[i] and base state y_old[i]."""

    def __init__(self, ts, F, y_old):
        self.ts, self.F, self.y_old = ts, F, y_old

    @classmethod
    def start(cls, t0, n):
        """No piece yet, for a state of n components from t0."""
        return cls(np.array([float(t0)]),
                   np.empty((0, _c.INTERPOLATOR_POWER, n)), np.empty((0, n)))

    @property
    def t_max(self):
        return self.ts[-1]

    def extended(self, ts, F, y_old):
        """A new Dense with the steps to ts (ascending, past t_max) after
        these, each with its F and y_old."""
        return Dense(np.concatenate((self.ts, ts)),
                     np.concatenate((self.F, np.array(F))),
                     np.concatenate((self.y_old, np.array(y_old))))

    def __call__(self, t):
        """The state at a float t, shape (n,), or at each point of a 1-D
        array t, shape (n, len(t)); a point on a step boundary takes the
        piece to its left."""
        t = np.asarray(t, dtype=float)
        points = t.reshape(-1)
        ts, last = self.ts, len(self.F) - 1
        piece = np.clip(np.searchsorted(ts, points, side="left") - 1, 0, last)
        t_old = ts[piece]
        x = ((points - t_old) / (ts[piece + 1] - t_old))[:, None]
        F = self.F[piece]
        y = np.zeros((len(points), F.shape[-1]))
        for i in range(F.shape[1]):
            y += F[:, -1 - i]
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += self.y_old[piece]
        return y[0] if t.ndim == 0 else y.T
