"""Integrators for the tracking ODE and the frozen-time flow.

The implicit (backward Euler) integrator mirrors the limit construction the
discrete engine approximates (on maps with float forms, in Python floats
with the bits of numpy); the adaptive explicit integrator serves as a
high-accuracy reference oracle for convergence studies.  Only that oracle
uses scipy (``solve_ivp``), imported on its first call; the frozen-time
flows run a Dormand-Prince stepper written here on numpy alone.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .discrete import check_local_solution, discrete_trajectory, extrapolated_start
from .errors import ImplicitSolveError, StiffnessError, TvlandError
from .geometry import (_norm, field_jacobian, geometry, lagrangian_hessian, newton_kkt,
                       ode_rhs, positive_definite_on_kernel, trajectory_with_diagnostics)
from .problem import (ProblemDef, Trajectory, each_row, has_stacked_gradient, point_form,
                      start_vector)

REFERENCE_REL_TOL = 1e-9
_BE_RESID_TOL = 1e-10
_BE_MAX_NEWTON = 60
#: A simplified-Newton iteration whose residual exceeds this fraction of the
#: previous one marks the iteration matrix as stale.  A start leaves a
#: residual a few decades above the tolerance (the explicit predictor) or
#: near it (an extrapolated start), so a weaker contraction costs more
#: iterations than re-evaluating the matrix.
_BE_CONTRACTION = 1e-3


def _implicit_step(p: ProblemDef, y_prev, t: float, dt: float, M_inv,
                   start=None, point=None, rate=None) -> tuple:
    """Solve y = y_prev + dt * rhs(y, t) by simplified Newton: ``(y, M_inv)``.

    From ``start`` (default: the explicit Euler predictor, which costs one
    field evaluation), iterate y <- y - M_inv r(y) on the residual
    r(y) = y - y_prev - dt rhs(y, t), formed directly as
    (y - y_prev) + (dt / alpha) grad f(y, t) from one gradient call (``t`` a
    float); for m > 0 the gradient is projected by P(y) and theta(y) (dt
    d'(t)) is subtracted, d'(t) being ``rate`` when the caller holds it and
    read once per step otherwise.  ``M_inv`` is the
    inverse of dr/dy = I - dt J(y), J the field Jacobian
    (:func:`~tvland.geometry.field_jacobian`), possibly from an earlier step
    (None: not evaluated yet).  When an iteration fails to bring the
    residual below :data:`_BE_CONTRACTION` times the previous one, its
    iterate is kept only if the residual fell; the matrix is then
    re-evaluated at the current iterate and a Newton step, halved while the
    residual grows, is taken.  Given ``point`` (the float forms of f' and f'',
    :func:`~tvland.problem.point_form`), y, r and M_inv = 1 / (1 + dt
    f''(y, t) / alpha) are Python floats, with the bits of the array
    iteration (f'' passes through ``float``: 1 / 0 raises, never warns).
    """
    h = dt / p.alpha
    if point is not None:
        grad, hess = point
        norm, product = (lambda r: math.sqrt(r * r)), operator.mul  # _norm's bits

        def matrix(y):
            return 1.0 / (1.0 - dt * (-float(hess(y, t)) / p.alpha))
    else:
        grad, norm, product = p.grad_objective, _norm, operator.matmul

        def matrix(y):
            return np.linalg.inv(np.eye(p.n) - dt * field_jacobian(p, y, t))
    if p.m:
        rate = dt * np.asarray(p.data_rate(t) if rate is None else rate, dtype=float)

        def resid(y):
            geom = geometry(p, y)
            r = (y - y_prev) + h * geom.project(grad(y, t)) - geom.theta @ rate
            return r, norm(r)
    else:
        def resid(y):
            r = (y - y_prev) + h * grad(y, t)  # rhs = -grad / alpha
            return r, norm(r)

    if start is None:  # the explicit predictor y_prev + dt rhs(y_prev, t)
        start = (y_prev - resid(y_prev)[0] if p.m
                 else y_prev + dt * (-grad(y_prev, t) / p.alpha))
    y = start
    r, rnorm = resid(y)
    for _ in range(_BE_MAX_NEWTON):
        if rnorm <= _BE_RESID_TOL:
            return y, M_inv
        if M_inv is not None:
            y_new = y - product(M_inv, r)
            r_new, rn = resid(y_new)
            stale = rn > _BE_CONTRACTION * rnorm
            if rn < rnorm:
                y, r, rnorm = y_new, r_new, rn
            if not stale or rnorm <= _BE_RESID_TOL:
                continue
        try:
            M_inv = matrix(y)
        except (np.linalg.LinAlgError, ZeroDivisionError) as exc:
            raise ImplicitSolveError(f"singular Newton system at t = {t:.6g}") from exc
        delta = -product(M_inv, r)
        # damp by half while the residual grows
        lam = 1.0
        for _ in range(40):
            y_new = y + lam * delta
            r_new, rn = resid(y_new)
            if rn < rnorm:
                break
            lam *= 0.5
        else:
            raise ImplicitSolveError(
                f"Newton damping stalled at t = {t:.6g}, residual {rnorm:.3e}")
        y, r, rnorm = y_new, r_new, rn
    raise ImplicitSolveError(
        f"implicit step at t = {t:.6g} stopped at residual {rnorm:.3e}")


def backward_euler_trajectory(p: ProblemDef, x0: np.ndarray, dt: float,
                              check_x0: bool = True) -> Trajectory:
    """Integrate the tracking ODE with implicit Euler steps of size ~dt (finite, > 0).

    The grid is snapped to N = round(T / dt) even steps so the final point
    lands exactly on the horizon.  Each step solves the implicit equation
    y_k = y_{k-1} + dt rhs(y_k, t_k) to residual :data:`_BE_RESID_TOL` by
    simplified Newton (:func:`_implicit_step`), started at the cubic
    extrapolation of the last four states while the trajectory is smooth
    (:func:`~tvland.discrete.extrapolated_start`) and at the explicit Euler
    predictor otherwise.  The iteration matrix, from the exact Jacobian of
    the field, is inverted and reused across steps until an iteration with
    it stops contracting the residual.  The matrix lives in this call only,
    so every run of a trajectory is the same.  For m > 0, d'(t) at the N
    step times comes from one stacked call (:func:`~tvland.problem.each_row`).
    An unconstrained problem whose gradient and Hessian both carry float
    forms (:func:`~tvland.problem.point_form`: example1, damped) steps in
    Python floats, bit for bit as in arrays; a map swapped in by
    ``ProblemDef.replace`` carries none and is stepped in arrays.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    x0 = start_vector(p, x0)
    if check_x0:
        check_local_solution(p, x0)
    n_steps = max(1, round(p.horizon / dt))
    dte = p.horizon / n_steps
    times = np.linspace(0.0, p.horizon, n_steps + 1)
    states = np.empty((n_steps + 1, p.n))
    states[0] = x0
    M_inv = None
    forms = (point_form(p.grad_objective), point_form(p.hess_objective))
    point = None if p.m or None in forms else forms
    rates = each_row(p.data_rate, times[1:]) if p.m else itertools.repeat(None)
    for k, (t, rate) in enumerate(zip(times.tolist()[1:], rates), start=1):
        y_prev, start = states[k - 1], extrapolated_start(states, k)
        if point is not None:
            y_prev, start = y_prev.item(), start if start is None else start.item()
        states[k], M_inv = _implicit_step(p, y_prev, t, dte, M_inv, start, point, rate)
    return trajectory_with_diagnostics(p, times, states)


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call.

    scipy takes about half a second to import and only the reference
    integrator needs it, so no other command pays for it.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _reference_solution(p: ProblemDef, x0: np.ndarray, rel_tol: float):
    """Dense adaptive Runge-Kutta solution of the tracking ODE on [0, T], for a
    finite ``rel_tol`` at least 100 eps (scipy would raise a smaller one)."""
    floor = 100 * np.finfo(float).eps
    if not floor <= rel_tol < np.inf:  # NaN fails
        raise ValueError(f"rel_tol must be finite and at least {floor:.3g}, got {rel_tol}")
    sol = solve_ivp(
        lambda t, y: ode_rhs(p, y, t),
        (0.0, p.horizon),
        start_vector(p, x0),
        method="RK45",
        rtol=rel_tol,
        atol=rel_tol * 1e-2,
        dense_output=True,
    )
    if not sol.success:
        raise StiffnessError(f"reference integration failed: {sol.message}")
    return sol


def integrate_reference(p: ProblemDef, x0: np.ndarray, rel_tol: float = REFERENCE_REL_TOL,
                        n_samples: int = 512) -> Trajectory:
    """High-accuracy explicit reference trajectory, sampled on a uniform grid.

    The underlying integrator is adaptive with local error control at
    ``rel_tol`` (finite, at least 100 eps); the returned trajectory holds
    ``n_samples + 1`` evenly spaced points of its dense output.
    """
    sol = _reference_solution(p, x0, rel_tol)
    times = np.linspace(0.0, p.horizon, n_samples + 1)
    states = sol.sol(times).T
    return trajectory_with_diagnostics(p, times, states)


def _polish_limit(p: ProblemDef, y0: np.ndarray, t: float, tol: float,
                  d: np.ndarray | None = None, reach: float = 0.05) -> np.ndarray | None:
    """The strict local minimum near ``y0`` that Newton finds, or None.

    This is the one test of a strict local minimizer: flow limits and catalog
    entries pass it alike.  One :func:`~tvland.geometry.newton_kkt` run from
    ``y0`` (30 iterations, tolerance 1e-3 alpha tol: |field| <= 1e-3 tol for
    m = 0), for m > 0 on the leaf h = ``d`` (default h(y0), the leaf a flow
    through y0 keeps; catalogs pass d(t)).  Accepts a converged point within
    ``reach`` (1 + |y0|) of ``y0`` where, for m > 0, the frozen field vanishes
    too (|field| <= 1e-3 tol; under moving data it is theta d' != 0 at
    every KKT point) and the Lagrangian Hessian is positive definite on
    ker J (a saddle is not the flow limit of a generic start).  A singular
    KKT solve finds no sink; an exception of the problem's callables is raised.
    """
    y0 = np.array(y0, dtype=float)
    if p.m and d is None:
        d = p.constraints(y0)
    res = newton_kkt(p, y0, t, tol=1e-3 * p.alpha * tol, max_iter=30, d=d)
    y = res.x
    if res.status != "converged" or _norm(y - y0) > reach * (1.0 + _norm(y0)):
        return None
    geom = geometry(p, y, J=res.jacobian)
    if p.m and _norm(ode_rhs(p, y, t, geom)) > 1e-3 * tol:
        return None
    M = lagrangian_hessian(p, y, t, res.multipliers)
    return y if positive_definite_on_kernel(M, geom.jacobian) else None


def _polish_limits(p: ProblemDef, Y0: np.ndarray, times, tol: float) -> list:
    """:func:`_polish_limit` of each lane: row ``Y0[k]`` at time ``times[k]``.

    Returns one entry per lane: the sink, None when Newton finds none, or
    the exception (of :data:`_LANE_FAILURES`) that failed the lane.
    """
    found: list = []
    for y0, t in zip(Y0, np.asarray(times, dtype=float).tolist()):
        try:
            found.append(_polish_limit(p, y0, t, tol))
        except _LANE_FAILURES as exc:
            found.append(exc)
    return found


def _switch_speed(tol: float) -> float:
    """Crossing speed under which Newton refinement of the limit is attempted."""
    return max(1e-4, 10.0 * tol)


#: Default speed under which a frozen-time flow counts as converged.
_FLOW_TOL = 1e-8


def frozen_time_flow(p: ProblemDef, x: np.ndarray, t: float,
                     s_max: float | None = None,
                     tol: float = _FLOW_TOL) -> tuple[np.ndarray, bool]:
    """Integrate the time-frozen dynamics until the velocity drops below tol.

    The flow is dx/ds = -eta(x, t)/alpha + theta(x) d'(t), the tracking ODE's
    field (:func:`~tvland.geometry.ode_rhs`) with t held fixed, from a start
    ``x`` of shape (n,), run until |dx/ds| <= tol (converged) or s reaches
    ``s_max`` (default 100 alpha; not converged).  Once the velocity is
    moderately small the nearby KKT point on the flow's leaf is refined by
    Newton (:func:`_polish_limit`) and returned, provided it is a strict
    local minimum where the field vanishes; flows stalling near saddles or
    under moving data (where the frozen field has no equilibria at all) run
    out their budget and report ``converged = False``.  This is the one-lane
    case of :func:`frozen_time_flows`, which gives the stopping rules.
    """
    limits, converged = frozen_time_flows(p, start_vector(p, x)[None], t, s_max, tol)
    return limits[0], bool(converged[0])


#: Step control of the frozen-time flow: scipy's RK45 at these tolerances.
_FLOW_RTOL = 1e-8
_FLOW_ATOL = 1e-11
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0

#: The Dormand-Prince 5(4) pair (Hairer, Norsett & Wanner I, Table II.5.2),
#: laid out as scipy's RK45 holds it: stage matrix ``_DP_A`` (row i gives
#: stage i), fifth-order weights ``_DP_B`` and the error weights ``_DP_E``
#: over the six stages and the FSAL stage.  The error is fourth order.
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_ERR_EXPONENT = -1.0 / 5

#: Exceptions of a field evaluation or polish that fail only the lane of
#: :func:`frozen_time_flows` they arise in; they are raised (or absorbed by
#: ``lane_errors``) once every lane has finished.
_LANE_FAILURES = (TvlandError, ValueError, ArithmeticError)


def _rms(a: np.ndarray) -> np.ndarray:
    """Row-wise RMS norm, as scipy's step control measures errors."""
    return np.linalg.norm(a, axis=1) / a.shape[1] ** 0.5


def _field_rows(p: ProblemDef, Y: np.ndarray, T: np.ndarray,
                stacked: bool) -> tuple[np.ndarray, dict]:
    """Frozen-field rows at the states ``Y`` (L, n), row k at time ``T[k]``.

    One gradient call on the whole stack when ``stacked``
    (:func:`~tvland.problem.has_stacked_gradient`); a stacked call that
    raises is repeated row by row, so that only a raising row fails, and an
    unstacked problem is evaluated row by row.  Both ways give the same
    bits.  Returns ``(F, failed)``; ``failed`` maps each row whose
    evaluation raised to its exception, and its row of F is NaN.
    """
    if stacked and len(Y):
        try:
            return -np.asarray(p.grad_objective(Y, T[:, None]), dtype=float) / p.alpha, {}
        except _LANE_FAILURES:
            pass  # repeat row by row, so that only a raising row fails
    F = np.full(Y.shape, np.nan)
    failed = {}
    for k, t in enumerate(T.tolist()):
        try:
            F[k] = ode_rhs(p, Y[k], t)
        except _LANE_FAILURES as exc:
            failed[k] = exc
    return F, failed


def frozen_time_flows(p: ProblemDef, X: np.ndarray, times,
                      s_max: float | None = None, tol: float = _FLOW_TOL,
                      lane_errors: tuple = ()) -> tuple[np.ndarray, np.ndarray]:
    """Frozen-time flows from many starts at once: ``(limits, converged)``.

    Lane i is the flow of :func:`frozen_time_flow` from row ``X[i]`` of the
    (lanes, n) array ``X`` at time ``times[i]`` (a scalar time applies to
    every lane), run for at most ``s_max`` (default 100 alpha).  One
    Dormand-Prince 5(4) stepper advances all lanes together with scipy's
    RK45 control (rtol 1e-8, atol 1e-11, its initial-step rule, an adaptive
    step per lane).  Each stage evaluates the field of all live lanes in one
    gradient call, each lane at its own time, when the problem is
    unconstrained and its gradient is marked array-safe
    (:func:`~tvland.problem.has_stacked_gradient`); a stacked call that
    raises is repeated lane by lane, and every other problem is evaluated
    lane by lane.  Both ways give the same bits.

    A lane whose start speed is at most ``tol`` returns its start,
    converged.  Any other lane steps until an accepted step is slower than
    its switch speed: max(1e-4, 10 tol), or half the start speed when the
    start is already slower than that.  There the lane converges to the
    strict local minimum that :func:`_polish_limit` accepts, or to its state
    when its speed is at most ``tol``.  Otherwise (a saddle shoulder) it halves
    its switch speed, below its current speed, and creeps on; once the
    switch speed falls to ``tol`` it stops.  A lane that stops so, or
    spends ``s_max``, is not converged and reports its last state.

    A lane whose field or polish raises keeps that exception; a
    non-finite stage or a step under the minimum gives it a
    :class:`~tvland.errors.StiffnessError`.  Once every lane has finished,
    the exception of the first failed lane whose type is not in
    ``lane_errors`` is raised; lanes failed with those types read not
    converged with a NaN limit.
    """
    if s_max is None:
        s_max = 100.0 * p.alpha
    if not (math.isfinite(tol) and tol > 0.0 and math.isfinite(s_max) and s_max > 0.0):
        raise ValueError(f"tol and s_max must be positive and finite, got {tol} and {s_max}")
    n = p.n
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n:
        raise ValueError(f"X must have shape (lanes, {n}), got {X.shape}")
    times = np.broadcast_to(np.asarray(times, dtype=float), (len(X),))
    stacked = has_stacked_gradient(p)
    A, B, E = _DP_A, _DP_B, _DP_E
    limits = np.full(X.shape, np.nan)
    converged = np.zeros(len(X), dtype=bool)
    errors: dict[int, Exception] = {}  # lane -> the exception that failed it

    def field_values(lanes, Y, ok):
        """Field rows of ``lanes`` at ``Y``; clears ``ok`` where a lane fails."""
        if ok.all() and np.isfinite(Y).all():
            F, failed = _field_rows(p, Y, times[lanes], stacked)
            if not failed and np.isfinite(F).all():
                return F  # every lane live and finite: no masked writes
            live = np.arange(len(Y))
        else:
            ok &= np.isfinite(Y).all(axis=1)
            live = np.flatnonzero(ok)
            F = np.zeros_like(Y)
            F[live], failed = _field_rows(p, Y[live], times[lanes[live]], stacked)
        for i, exc in failed.items():
            errors[lanes[live[i]]] = exc
            ok[live[i]] = False
        bad = ~np.isfinite(F).all(axis=1)
        F[bad] = 0.0
        ok &= ~bad
        return F

    ok = np.ones(len(X), dtype=bool)  # the lane has not failed
    f = field_values(np.arange(len(X)), X, ok)
    speed = np.linalg.norm(f, axis=1)
    settled = ok & (speed <= tol)
    limits[settled], converged[settled] = X[settled], True
    switch = np.where(speed <= _switch_speed(tol), 0.5 * speed, _switch_speed(tol))
    lanes = np.flatnonzero(ok & ~settled)
    y, f, switch = X[lanes], f[lanes], switch[lanes]

    # scipy's initial step (Hairer, Norsett & Wanner, Sec. II.4)
    scale = _FLOW_ATOL + np.abs(y) * _FLOW_RTOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, s_max)
    ok = np.ones(len(lanes), dtype=bool)
    d2 = _rms((field_values(lanes, y + h0[:, None] * f, ok) - f) / scale) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.maximum(d1, d2)) ** -_ERR_EXPONENT)
    h = np.minimum(np.minimum(100.0 * h0, h1), s_max)
    s = np.zeros(len(lanes))
    retry = np.zeros(len(lanes), dtype=bool)  # the current step was rejected

    while lanes.size:
        min_step = 10.0 * np.abs(np.nextafter(s, np.inf) - s)
        h = np.where(retry, h, np.maximum(h, min_step))
        ok &= h >= min_step
        s_new = np.minimum(s + h, s_max)
        h = s_new - s
        K = np.empty((len(lanes), n, 7))
        K[..., 0] = f
        for st in range(1, 6):
            K[..., st] = field_values(lanes, y + (K[..., :st] @ A[st, :st]) * h[:, None], ok)
        y_new = y + h[:, None] * (K[..., :6] @ B)
        K[..., 6] = field_values(lanes, y_new, ok)
        scale = _FLOW_ATOL + np.maximum(np.abs(y), np.abs(y_new)) * _FLOW_RTOL
        err = _rms((K @ E) * h[:, None] / scale)

        accept = ok & (err < 1.0)
        grow = _SAFETY * np.power(err, _ERR_EXPONENT, out=np.full_like(err, np.inf),
                                  where=err > 0.0)
        factor = np.where(accept, np.minimum(_MAX_FACTOR, grow), np.maximum(_MIN_FACTOR, grow))
        factor = np.where(accept & retry, np.minimum(1.0, factor), factor)
        h = h * factor
        retry = ~accept
        y = np.where(accept[:, None], y_new, y)
        f = np.where(accept[:, None], K[..., 6], f)
        s = np.where(accept, s_new, s)

        speed = np.linalg.norm(f, axis=1)
        settled = np.zeros(len(lanes), dtype=bool)
        stalled = ok & (s >= s_max)
        polish = np.flatnonzero(accept & (speed <= switch))
        found = _polish_limits(p, y[polish], times[lanes[polish]], tol) if polish.size else []
        for k, limit in zip(polish, found):
            if isinstance(limit, Exception):
                errors[lanes[k]] = limit
                ok[k] = False
                continue
            if limit is None and speed[k] > tol:
                # near-stationary but not a sink: creep on below this speed
                switch[k] = 0.5 * min(switch[k], speed[k])
                stalled[k] |= switch[k] <= tol
                continue
            limits[lanes[k]] = y[k] if limit is None else limit
            converged[lanes[k]] = settled[k] = True
        stalled &= ok & ~settled
        limits[lanes[stalled]] = y[stalled]
        keep = ok & ~(settled | stalled)
        lanes, y, f, s, h, retry, ok, switch = (
            a[keep] for a in (lanes, y, f, s, h, retry, ok, switch))

    # a lane left without a limit failed: by its own exception, or by a
    # non-finite stage or a step under the minimum
    for i in np.flatnonzero(np.isnan(limits).any(axis=1)):
        exc = errors.get(i) or StiffnessError(
            f"frozen-time flow at t = {times[i]:.6g} failed: non-finite field "
            "value or step size under the minimum")
        if not isinstance(exc, lane_errors):
            raise exc
    return limits, converged


@dataclass
class ConvergenceRow:
    """Sup-norm grid errors of both engines against the reference solution."""

    dt: float
    n_steps: int
    sup_err_discrete: float
    sup_err_backward_euler: float


def convergence_study(p: ProblemDef, x0: np.ndarray, dts,
                      check_x0: bool = True) -> list[ConvergenceRow]:
    """Grid errors of the discrete and implicit engines for each step size.

    ``dts`` must be sorted in decreasing order, each dividing the horizon
    evenly within rounding.  Errors are sup over grid points of the distance
    to the dense reference solution at :data:`REFERENCE_REL_TOL`.
    """
    dts = list(dts)
    if any(dts[i] <= dts[i + 1] for i in range(len(dts) - 1)):
        raise ValueError("dts must be strictly decreasing")
    sol = _reference_solution(p, x0, REFERENCE_REL_TOL)
    rows = []
    for dt in dts:
        n_steps = max(1, round(p.horizon / dt))
        traj_d = discrete_trajectory(p, x0, n_steps, check_x0=check_x0)
        traj_b = backward_euler_trajectory(p, x0, p.horizon / n_steps, check_x0=check_x0)
        ref = sol.sol(traj_d.times).T
        err_d = float(np.max(np.linalg.norm(traj_d.states - ref, axis=1)))
        err_b = float(np.max(np.linalg.norm(traj_b.states - ref, axis=1)))
        rows.append(ConvergenceRow(p.horizon / n_steps, n_steps, err_d, err_b))
    return rows
