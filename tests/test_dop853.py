"""The in-package DOP853 against SciPy's: same steps, same dense values, same
failures, bit for bit."""

import numpy as np
import pytest
from scipy.integrate import DOP853 as ScipyDOP853
from scipy.integrate import OdeSolution

from spacing_lab import _dop853, painleve
from spacing_lab.painleve import SIGMA_HARD, SIGMA_JMMS, SIGMA_NN

# one trajectory per equation id, SIGMA_HARD at mu = 0 and mu = 2
PROBLEMS = [
    (SIGMA_JMMS, (1.0,)),
    (SIGMA_HARD, (-0.5, 0.0, 1.0)),
    (SIGMA_HARD, (-0.5, 2.0, 1.0)),
    (SIGMA_NN, (1.0, 1.0)),
]
T_END = 4.0


def _pair(fun, t0, y0, tol):
    # SciPy's stepper with a bound that neither stepper comes near, where
    # it neither clips a step nor finishes
    return (_dop853.DOP853(fun, t0, y0, rtol=tol, atol=tol),
            ScipyDOP853(fun, t0, y0, painleve._T_BOUND, rtol=tol, atol=tol))


@pytest.mark.parametrize("eq,params", PROBLEMS, ids=str)
def test_steps_and_dense_output_equal_scipy(eq, params):
    problem = painleve.build_problem(eq, params)
    rhs, y0 = painleve._system(problem)
    tol = max(painleve.DEFAULT_TOL / painleve._TOL_SAFETY,
              painleve._MIN_SOLVER_TOL)
    ours, theirs = _pair(rhs, problem.t_switch, y0, tol)
    ts, Fs, y_olds, pieces = [problem.t_switch], [], [], []
    while theirs.t < T_END:
        assert ours.step() is None and theirs.step() is None
        assert ours.t == theirs.t
        assert np.array_equal(ours.y, theirs.y)
        piece = theirs.dense_output()
        F = ours.dense_output()
        assert np.array_equal(F, piece.F)
        ts.append(ours.t)
        Fs.append(F)
        y_olds.append(ours.y_old)
        pieces.append(piece)
    assert ours.status == theirs.status == "running"

    dense = _dop853.Dense.start(problem.t_switch, len(y0)).extended(
        ts[1:], Fs, y_olds)
    reference = OdeSolution(ts, pieces)
    rng = np.random.default_rng(7)
    grid = np.array(ts)
    t_max = ts[-1]
    for t in (rng.uniform(ts[0], t_max, 500), grid, rng.permutation(grid)):
        assert np.array_equal(dense(t), reference(t))
    middle = float(rng.uniform(ts[0], t_max))
    for t in (t_max, ts[0], ts[len(ts) // 2], middle):
        assert np.array_equal(dense(t), reference(t))


def test_dense_takes_scipys_piece_on_every_boundary():
    # unrelated random pieces, so that the two pieces at a boundary differ
    # there and only the piece OdeSolution takes gives its value
    from scipy.integrate._ivp.rk import Dop853DenseOutput

    rng = np.random.default_rng(11)
    ts = np.cumsum(rng.uniform(0.1, 1.0, 9))
    F = rng.standard_normal((8, 7, 3))
    y_old = rng.standard_normal((8, 3)) * 10.0 ** rng.integers(-20, 5, (8, 3))
    dense = _dop853.Dense(ts, F, y_old)
    reference = OdeSolution(ts, [Dop853DenseOutput(ts[i], ts[i + 1],
                                                   y_old[i], F[i])
                                 for i in range(8)])
    points = np.concatenate((ts, rng.uniform(ts[0], ts[-1], 100)))
    assert np.array_equal(dense(points), reference(points))
    for t in ts:
        assert np.array_equal(dense(t), reference(t))


@pytest.mark.parametrize("fun", [
    lambda t, y: y * y,         # blows up at t = 1
], ids=["underflow"])
def test_status_and_message_equal_scipy(fun):
    ours, theirs = _pair(fun, 0.0, [1.0], 1e-10)
    while theirs.status == "running":
        message = ours.step()
        assert message == theirs.step()
        assert ours.status == theirs.status
        assert ours.t == theirs.t and np.array_equal(ours.y, theirs.y)
    assert ours.status == "failed"
    assert message == ScipyDOP853.TOO_SMALL_STEP
    with pytest.raises(RuntimeError):
        ours.step()
