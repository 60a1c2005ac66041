"""Backward Euler's Python-float steps on one-dimensional landscapes.

An unconstrained problem whose gradient and Hessian carry float forms
(example1, damped) is stepped in Python floats; the same problem with plain
wrappers of both maps takes the numpy array path.  Both must give the same
bits, and the same errors where a coarse grid stalls.
"""

import warnings

import numpy as np
import pytest

import tvland as tv
import tvland.ode as ode_module
from test_discrete import count_calls, counting
from tvland.problem import point_form


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
    """``p`` with plain wrappers of its gradient and Hessian.

    The wrappers carry no float form, so backward Euler steps the problem
    in numpy arrays.
    """
    grad, hess = p.grad_objective, p.hess_objective
    q = p.replace(grad_objective=lambda x, t: grad(x, t), hess_objective=lambda x, t: hess(x, t))
    assert point_form(q.grad_objective) is None and point_form(q.hess_objective) is None
    return q


@pytest.mark.parametrize("case", list(COMPLETE))
def test_float_steps_are_the_array_steps(case):
    make, step = COMPLETE[case]
    p = make()
    assert point_form(p.grad_objective) and point_form(p.hess_objective)
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
    point = (point_form(p.grad_objective), point_form(p.hess_objective))
    numpy_point = (point[0], lambda y, t: np.float64(point[1](y, t)))
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
    # a replace that swaps the gradient drops its float form, while the
    # landscape and the Hessian's form stay: backward Euler steps the
    # replaced map
    p = _example1(0.4, 10.0)
    q = p.replace(grad_objective=lambda x, t: 3.0 * p.grad_objective(x, t))
    assert point_form(q.grad_objective) is None and point_form(q.hess_objective)
    runs = [tv.backward_euler_trajectory(r, np.array([-2.0]), 1e-2, check_x0=False)
            for r in (p, q, _arrays(q))]
    assert np.array_equal(runs[1].states, runs[2].states)
    assert not np.array_equal(runs[1].states, runs[0].states)


def test_landscape_problems_step_on_the_landscape(monkeypatch):
    # the float forms of example1's and damped's maps return floats with
    # the bits of the maps; with either map replaced, the field Jacobian of
    # the array path forms the iteration matrix
    jac = count_calls(monkeypatch, ode_module, "field_jacobian")
    for p in (_example1(0.4, 10.0), _damped(2.0, 0.3)):
        grad, hess = point_form(p.grad_objective), point_form(p.hess_objective)
        for y in (-2.5, -0.375, 0.1, 3.0):
            for t in (0.0, 0.7, 2.0, p.horizon):
                assert isinstance(grad(y, t), float) and isinstance(hess(y, t), float)
                assert grad(y, t) == p.grad_objective(np.array([y]), t).item()
                assert hess(y, t) == p.hess_objective(np.array([y]), t).item()
        tv.backward_euler_trajectory(p, np.array([-2.0]), 4e-3, check_x0=False)
        assert not jac
        for name in ("grad_objective", "hess_objective"):
            q = p.replace(**{name: (lambda f: lambda x, t: f(x, t))(getattr(p, name))})
            tv.backward_euler_trajectory(q, np.array([-2.0]), 4e-3, check_x0=False)
            assert jac, (p.name, name)
            jac.clear()


def test_damped_float_forms_are_python_floats():
    # the damping factor e^(-lam t) is numpy's, read back as a float, so
    # damped's objective and float forms return floats, not numpy scalars
    p = _damped(2.0, 0.3)
    grad, hess = point_form(p.grad_objective), point_form(p.hess_objective)
    for y, t in ((-2.5, 0.0), (0.1, 0.7), (3.0, p.horizon)):
        assert type(p.objective(np.array([y]), t)) is float
        assert type(grad(y, t)) is float and type(hess(y, t)) is float


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
