"""Backward Euler's Python-float steps on one-dimensional landscapes.

An unconstrained n = 1 problem that carries a landscape (example1, damped)
is stepped in Python floats; the same problem without its landscape takes
the numpy array path.  Both must give the same bits, and the same errors
where a coarse grid stalls.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import tvland as tv
import tvland.ode as ode_module
from test_discrete import count_calls, counting


def _example1(alpha, beta):
    return tv.make_example1(beta, alpha=alpha)[0]


def _damped(omega, lam):
    return tv.problem._translated_quartic(10.0, 1.0, omega, lam, "damped")


#: (problem, dt) cases that complete: both classify regimes on the classify
#: grid, the 2 x 2 sweep cells and (0.6, 12) on the sweep grid, coarse grids
#: that do not stall, and the damped scenario.
COMPLETE = {
    **{f"ex1-{a}-{b}-dt1e-3": (lambda a=a, b=b: _example1(a, b), 1e-3)
       for a, b in ((0.4, 10.0), (0.2, 5.0))},
    **{f"ex1-{a}-{b}-dt4e-3": (lambda a=a, b=b: _example1(a, b), 4e-3)
       for a, b in ((0.2, 5.0), (0.2, 10.0), (0.4, 5.0), (0.4, 10.0), (0.6, 12.0))},
    "ex1-0.4-10-N50": (lambda: _example1(0.4, 10.0), 50),
    "ex1-0.2-5-N10": (lambda: _example1(0.2, 5.0), 10),
    **{f"damped-{om}-{lam}-N{n}": (lambda om=om, lam=lam: _damped(om, lam), n)
       for om, lam in ((2.0, 0.3), (1.0, 0.1)) for n in (50, 2000)},
}

#: Coarse example1 grids on which the implicit solve stalls (ROADMAP item 8).
STALLING = {"ex1-0.4-10-N10": (0.4, 10.0, 10), "ex1-0.4-10-N20": (0.4, 10.0, 20),
            "ex1-0.2-5-N20": (0.2, 5.0, 20), "ex1-0.2-5-N50": (0.2, 5.0, 50)}


def _dt(p, step):
    """An int ``step`` is a step count N, a float one a step size."""
    return p.horizon / step if isinstance(step, int) else step


def _arrays(p):
    """``p`` without its landscape: backward Euler steps it in numpy arrays."""
    return p.replace(landscape=None)


@pytest.mark.parametrize("case", list(COMPLETE))
def test_float_steps_are_the_array_steps(case):
    make, step = COMPLETE[case]
    p = make()
    dt = _dt(p, step)
    fl = tv.backward_euler_trajectory(p, np.array([-2.0]), dt)
    ar = tv.backward_euler_trajectory(_arrays(p), np.array([-2.0]), dt)
    for name in ("times", "states", "kkt_stationarity", "feasibility", "sigma_min",
                 "step_norm"):
        assert np.array_equal(getattr(fl, name), getattr(ar, name)), name


@pytest.mark.parametrize("case", list(STALLING))
def test_stalling_grids_raise_the_same_error(case):
    alpha, beta, n = STALLING[case]
    p = _example1(alpha, beta)
    errors = []
    for q in (p, _arrays(p)):
        with pytest.raises(tv.ImplicitSolveError) as info:
            tv.backward_euler_trajectory(q, np.array([-2.0]), p.horizon / n)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert "Newton damping stalled" in errors[0][1]


def test_zero_iteration_matrix_is_a_singular_system():
    # at y = s(t), g'' = -4, so alpha = 1 and dt = 1/4 make 1 - dt J = 0
    # exactly: the float path refuses the division as the array path
    # refuses the singular inverse, with the same message, also where g''
    # returns numpy scalars (no divide-by-zero warning)
    p, t, dt = _example1(1.0, 10.0), 0.5, 0.25
    point = p.landscape.point_derivatives()
    quartic = p.landscape.g
    numpy_quartic = dataclasses.replace(quartic, d2g=lambda y: np.float64(quartic.d2g(y)))
    numpy_point = p.landscape._replace(g=numpy_quartic).point_derivatives()
    y = float(p.landscape.shift(t))
    assert point[1](y, t) == -4.0
    messages = []
    for y_prev, start, pt in ((1.0, y, point), (1.0, y, numpy_point),
                              (np.array([1.0]), np.array([y]), None)):
        with warnings.catch_warnings(), pytest.raises(tv.ImplicitSolveError) as info:
            warnings.simplefilter("error")
            ode_module._implicit_step(p, y_prev, t, dt, None, start, pt)
        messages.append(str(info.value))
    assert messages == [f"singular Newton system at t = {t:.6g}"] * 3


@pytest.mark.parametrize("make", [lambda: _example1(0.4, 10.0), lambda: _damped(2.0, 0.3)],
                         ids=["example1", "damped"])
def test_landscape_steps_call_no_array_map(make, monkeypatch):
    # a guard: stepping example1 or damped evaluates neither the field
    # Jacobian nor the per-point gradient; the stacked diagnostics call stays
    p = make()
    q, calls = counting(p, "grad_objective", "hess_objective")
    jac = count_calls(monkeypatch, ode_module, "field_jacobian")
    tv.backward_euler_trajectory(q, np.array([-2.0]), 4e-3, check_x0=False)
    assert not jac
    assert calls["grad_objective"] == calls["hess_objective"] == 0


def test_replaced_gradient_takes_the_array_path():
    # a replace that swaps the gradient keeps the landscape, whose g' no
    # longer is the gradient's: backward Euler steps the replaced map
    p = _example1(0.4, 10.0)
    q = p.replace(grad_objective=lambda x, t: 3.0 * p.grad_objective(x, t))
    assert not tv.problem.steps_on_landscape(q)
    runs = [tv.backward_euler_trajectory(r, np.array([-2.0]), 1e-2, check_x0=False)
            for r in (p, q, _arrays(q))]
    assert np.array_equal(runs[1].states, runs[2].states)
    assert not np.array_equal(runs[1].states, runs[0].states)


def test_landscape_problems_step_on_the_landscape():
    assert tv.problem.steps_on_landscape(_example1(0.4, 10.0))
    assert tv.problem.steps_on_landscape(_damped(2.0, 0.3))
    p = _example1(0.4, 10.0)
    assert not tv.problem.steps_on_landscape(p.replace(hess_objective=lambda x, t: p.hess_objective(x, t)))
    assert not tv.problem.steps_on_landscape(_arrays(p))


def test_matrix_recovery_stays_on_arrays(monkeypatch):
    p = tv.make_matrix_recovery(True, alpha=0.5)
    x0 = tv.matrix_recovery_state(p, tv.problem.THE_SPURIOUS_FACTOR, 0.0)
    q, calls = counting(p, "grad_objective")
    jac = count_calls(monkeypatch, ode_module, "field_jacobian")
    tv.backward_euler_trajectory(q, x0, p.horizon / 200)
    assert jac
    assert calls["grad_objective"] > 200


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, 0.0, -1e-3])
def test_dt_must_be_positive_and_finite(dt):
    p = _example1(0.4, 10.0)
    with pytest.raises(ValueError, match=r"dt must be positive and finite, got"):
        tv.backward_euler_trajectory(p, np.array([-2.0]), dt)
