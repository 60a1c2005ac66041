"""The time steppers read d(t) and d'(t) once per grid, in one stacked call.

Matrix recovery's data path and rate are marked array-safe, so the discrete
engine reads d at every grid time and backward Euler reads d' at every step
time in one call each.  Wrapped in unmarked lambdas, the same maps are read
row by row; both ways must give the same trajectory to the bit.
"""

import numpy as np
import pytest

import tvland as tv
from tvland.problem import _is_stackable

FIELDS = ("times", "states", "kkt_stationarity", "feasibility", "sigma_min", "step_norm")


def _matrec(consistent):
    p = tv.make_matrix_recovery(consistent, alpha=0.5)
    return p, tv.matrix_recovery_state(p, tv.problem.THE_SPURIOUS_FACTOR, 0.0)


def _row_by_row(p):
    """``p`` with its data path and rate in unmarked lambdas."""
    return p.replace(data_path=lambda t: p.data_path(t), data_rate=lambda t: p.data_rate(t))


def _run(engine, p, x0, steps):
    if engine == "discrete":
        return tv.discrete_trajectory(p, x0, steps)
    return tv.backward_euler_trajectory(p, x0, p.horizon / steps)


@pytest.mark.parametrize("consistent", [True, False], ids=["consistent", "raw"])
@pytest.mark.parametrize("steps", [50, 2000])
@pytest.mark.parametrize("engine", ["discrete", "backward-euler"])
def test_stacked_data_gives_the_row_by_row_trajectory(engine, steps, consistent):
    p, x0 = _matrec(consistent)
    q = _row_by_row(p)
    assert _is_stackable(p.data_path) and _is_stackable(p.data_rate)
    assert not (_is_stackable(q.data_path) or _is_stackable(q.data_rate))
    stacked, rows = _run(engine, p, x0, steps), _run(engine, q, x0, steps)
    for name in FIELDS:
        assert np.array_equal(getattr(stacked, name), getattr(rows, name)), name


@pytest.mark.parametrize("consistent", [True, False], ids=["consistent", "raw"])
def test_stacked_data_rate_rows_are_the_point_values(consistent):
    p, _ = _matrec(consistent)
    grid = np.linspace(0.0, p.horizon, 2001)
    drawn = np.random.default_rng(0).uniform(0.0, p.horizon, 200)
    for times in (grid, drawn):
        stacked = tv.problem.each_row(p.data_rate, times)
        assert stacked.shape == (len(times), 4)
        assert np.array_equal(stacked, [p.data_rate(t) for t in times.tolist()])
    if not consistent:
        assert not stacked[:, 2].any()
