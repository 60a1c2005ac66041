"""Discrete local trajectories via sequential proximally regularized solves.

Each step solves

    minimize    F(x) = f(x, t_{k+1}) + alpha |x - x_k|^2 / (2 dt)
    subject to  h(x) = d(t_{k+1})

to the KKT point reachable from the warm start x_k by descent, which makes
trajectories deterministic.  Newton's method on the KKT system
(:func:`~tvland.geometry.newton_kkt`) starts at the cubic extrapolation of
the last four states (:func:`extrapolated_start`) while the trajectory is
smooth, and otherwise at x_k restored onto the new leaf.  Its point is kept
if it passes the stop test, does not raise F above the restored warm start,
and has a Lagrangian Hessian of F positive definite on ker J.  A rejected
Newton point, such as a saddle of F, hands over to projected-gradient
descent on F from the restored warm start, with Armijo backtracking and
feasibility restoration, which goes on to a minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InitializationError, StepSolveError
from .geometry import (GeometryResult, _norm, geometry, kkt_residual,
                       lagrangian_hessian, newton_kkt, positive_definite_on_kernel,
                       require_regular, trajectory_with_diagnostics)
from .problem import ProblemDef, Trajectory, _vdot, each_row, start_vector

#: Inner-solver tolerances: far below the acceptance tolerances of the
#: simulation studies built on top.
STATIONARITY_TOL = 1e-9
FEASIBILITY_TOL = 1e-9

#: Tolerance for the "x0 is a local solution at t = 0" precondition.
INIT_TOL = 1e-6

_MAX_ITER = 10_000
_NEWTON_MAX_ITER = 10
_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5
#: Relative floating point resolution assumed for values of F.
_F_RESOLUTION = 4e-12
#: Steps are extrapolated only while |second difference| <= this ratio times
#: |first difference| of the last states.
_SMOOTH_RATIO = 0.05
#: Applied to the last four states y_{k-4}, ..., y_{k-1}, its rows give the
#: cubic start, the last first difference and the last second difference.
_START_ROWS = np.array([[-1.0, 4.0, -6.0, 4.0],
                        [0.0, 0.0, -1.0, 1.0],
                        [0.0, 1.0, -2.0, 1.0]])


def extrapolated_start(states: np.ndarray, k: int) -> Optional[np.ndarray]:
    """Start for the solve of step k from the accepted ``states[:k]``, or None.

    The cubic through the last four states, 4 y_{k-1} - 6 y_{k-2} + 4 y_{k-3}
    - y_{k-4} (starting values from past steps, Hairer & Wanner II, Sec.
    IV.8).  None before four states exist, or where the last steps are not
    smooth, |y_{k-1} - 2 y_{k-2} + y_{k-3}| > :data:`_SMOOTH_RATIO`
    |y_{k-1} - y_{k-2}|: on a coarse grid the extrapolation may then start the
    solve near another root, so the caller keeps its own start.  The start
    and both differences come from one product with :data:`_START_ROWS`, and
    the smoothness test compares their squared norms.
    """
    if k < 4:
        return None
    q = _START_ROWS @ states[k - 4:k]
    # its diagonal holds |d1|^2 and |d2|^2; a product this small keeps the interpreter lock
    gram = q[1:] @ q[1:].T
    if gram[1, 1] > _SMOOTH_RATIO ** 2 * gram[0, 0]:
        return None
    return q[0]


def _restore_feasibility(p: ProblemDef, x: np.ndarray, d_target: np.ndarray,
                         feas_tol: float, theta: Optional[np.ndarray] = None,
                         h: Optional[np.ndarray] = None) -> np.ndarray:
    """Newton iteration on h(x) = d_target with minimum-norm (lstsq) steps.

    Given ``theta``, the pseudo-inverse map at a nearby point, steps use it
    instead (a chord iteration) for as long as each halves the residual.
    ``h`` is h(x) at the start, if already evaluated.
    """
    if p.m == 0:
        return x
    r_prev = np.inf
    for _ in range(31):
        r = (p.constraints(x) if h is None else h) - d_target
        h = None  # the given h(x) serves the first residual only
        r_norm = _norm(r)
        if r_norm <= feas_tol:
            return x
        if theta is None or r_norm > 0.5 * r_prev:
            theta = None
            step, _, _, sv = np.linalg.lstsq(np.asarray(p.jacobian(x), dtype=float), r,
                                             rcond=None)
            require_regular(float(sv[-1]), x)
        else:
            step = theta @ r
        x = x - step
        r_prev = r_norm
    raise StepSolveError(f"feasibility restoration stalled at |h - d| = {r_norm:.3e}")


@dataclass(frozen=True)
class _Subproblem:
    """F(y) = f(y, t) + w |y - x_prev|^2 / 2 s.t. h(y) = d, with w = alpha/dt."""

    p: ProblemDef
    x_prev: np.ndarray
    t: float
    w: float
    d: Optional[np.ndarray]
    stat_tol: float
    feas_tol: float

    def value(self, y: np.ndarray) -> float:
        step = y - self.x_prev
        return self.p.objective(y, self.t) + 0.5 * self.w * float(_vdot(step, step))

    def proj_grad(self, y: np.ndarray, geom: GeometryResult,
                  g: Optional[np.ndarray] = None) -> np.ndarray:
        """P(y) grad F(y); ``g`` is grad F(y) if already evaluated."""
        if g is None:
            g = (np.asarray(self.p.grad_objective(y, self.t), dtype=float)
                 + self.w * (y - self.x_prev))
        return geom.project(g) if self.p.m else g


def _newton_point(sp: _Subproblem, x: np.ndarray, start: np.ndarray,
                  geom_prev: Optional[GeometryResult], max_iter: int):
    """Safeguarded Newton-KKT from ``start``: ``(found, iterations)``, found
    being ``(y, geometry at y, h(y))``, or None when Newton fails or a
    safeguard rejects y; the descent safeguard compares y with the feasible
    x.  The geometry and the tests at y reuse Newton's J, h and grad F at y."""
    res = newton_kkt(sp.p, start, sp.t, prox=(sp.x_prev, sp.w), max_iter=max_iter,
                     tol=min(sp.stat_tol, sp.feas_tol), geom=geom_prev, d=sp.d)
    if res.status != "converged":
        return None, res.iterations
    y, geom = res.x, geometry(sp.p, res.x, J=res.jacobian)
    # newton_kkt checked |h(y) - d| <= feas_tol.  F(y) may exceed F(x) by
    # rounding and by what x's own infeasibility (<= feas_tol) is worth.
    f_x = sp.value(x)
    slack = _F_RESOLUTION * max(abs(f_x), 1.0) + _norm(res.multipliers) * sp.feas_tol
    M = res.hessian
    if M is None:
        M = lagrangian_hessian(sp.p, y, sp.t, res.multipliers, sp.w)
    ok = (_norm(sp.proj_grad(y, geom, res.gradient)) <= sp.stat_tol
          and sp.value(y) <= f_x + slack
          and positive_definite_on_kernel(M, geom.jacobian))
    return ((y, geom, res.h) if ok else None), res.iterations


def _projected_gradient(sp: _Subproblem, x: np.ndarray, max_iter: int):
    """Projected-gradient descent on F from the feasible x: ``(x, geometry at
    x, h(x))`` at the first iterate passing the stop test, None after
    ``max_iter``."""
    p = sp.p
    geom = None  # geometry at x, carried over when the line search computed it
    for _ in range(max_iter):
        if geom is None:
            geom = geometry(p, x)
            eta_a = sp.proj_grad(x, geom)
        gnorm = _norm(eta_a)
        if gnorm <= sp.stat_tol:
            h = p.constraints(x) if p.m else None
            if h is None or _norm(h - sp.d) <= sp.feas_tol:
                return x, geom, h

        f0 = sp.value(x)
        gg = float(_vdot(eta_a, eta_a))
        s = 1.0 / sp.w
        for _ in range(80):
            x_trial = x - s * eta_a
            if p.m:
                x_trial = _restore_feasibility(p, x_trial, sp.d, sp.feas_tol)
            predicted = _ARMIJO_C * s * gg
            if predicted >= _F_RESOLUTION * max(abs(f0), 1.0):
                if sp.value(x_trial) <= f0 - predicted:
                    geom_t = eta_t = None
                    break
            else:
                # The Armijo decrease is below the floating point resolution
                # of F, where the objective test admits noise-driven
                # expanding steps; accept only on gradient contraction.
                geom_t = geometry(p, x_trial)
                eta_t = sp.proj_grad(x_trial, geom_t)
                if _norm(eta_t) < 0.9 * gnorm:
                    break
            s *= _ARMIJO_SHRINK
        else:
            raise StepSolveError(
                f"line search stalled at t = {sp.t:.6g} with |proj grad| = {gnorm:.3e}")
        x, geom, eta_a = x_trial, geom_t, eta_t
    return None


def _check_dt(p: ProblemDef, dt: float) -> None:
    """Raise ValueError unless dt is positive, finite and not degenerate for the horizon."""
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if dt < 1e-12 * p.horizon:
        raise ValueError(f"dt = {dt} is degenerate for horizon {p.horizon}")


def regularized_step(p: ProblemDef, x_prev: np.ndarray, t_next: float, dt: float,
                     stat_tol: float = STATIONARITY_TOL,
                     feas_tol: float = FEASIBILITY_TOL,
                     max_iter: int = _MAX_ITER, *,
                     return_geometry: bool = False,
                     geom_prev: Optional[GeometryResult] = None,
                     start: Optional[np.ndarray] = None,
                     h_prev: Optional[np.ndarray] = None,
                     _d: Optional[np.ndarray] = None
                     ) -> np.ndarray | tuple[np.ndarray, GeometryResult, Optional[np.ndarray]]:
    """Solve one proximally regularized problem to a KKT point.

    Returns x with the projected gradient of the augmented objective below
    ``stat_tol`` and the constraint violation below ``feas_tol``; with
    ``return_geometry``, the triple ``(x, geometry(p, x), h(x))`` (h None
    for m = 0), as the solver evaluated them at x for its stopping test.
    ``geom_prev`` and ``h_prev`` are the geometry and h at ``x_prev``, if
    known.  Newton starts at ``start`` when given (such as
    :func:`extrapolated_start`), else at ``x_prev`` restored onto the new
    leaf.  ``max_iter`` bounds the Newton and projected-gradient iterations
    together.  ``_d`` is private to :func:`discrete_trajectory`: d(t_next)
    from its grid stack, for a step whose x_prev and dt it has checked.

    Raises
    ------
    StepSolveError
        If the inner solver does not reach tolerance within ``max_iter``.
    SingularConstraintError
        If the constraint Jacobian degenerates along the way.
    """
    if _d is None:
        x_prev = np.asarray(x_prev, dtype=float)
        if not np.all(np.isfinite(x_prev)):
            raise ValueError("x_prev must be finite")
        _check_dt(p, dt)
        _d = p.data_path(t_next) if p.m else None

    sp = _Subproblem(p, x_prev, t_next, p.alpha / dt, _d, stat_tol, feas_tol)
    theta_prev = None if geom_prev is None else geom_prev.theta
    x = _restore_feasibility(p, x_prev.copy(), sp.d, feas_tol, theta_prev, h_prev)
    found, used = _newton_point(sp, x, x if start is None else start, geom_prev,
                                min(_NEWTON_MAX_ITER, max_iter))
    found = found or _projected_gradient(sp, x, max_iter - used)
    if found is None:
        raise StepSolveError(
            f"inner solver exceeded {max_iter} iterations at t = {t_next:.6g}")
    return found if return_geometry else found[0]


def check_local_solution(p: ProblemDef, x0: np.ndarray) -> None:
    """Raise InitializationError unless x0 is a KKT point of p at t = 0, to :data:`INIT_TOL`."""
    res = kkt_residual(p, np.asarray(x0, dtype=float), 0.0)
    if not (res.stationarity <= INIT_TOL and res.feasibility <= INIT_TOL):  # NaN fails
        raise InitializationError(
            f"x0 is not a local solution at t = 0: stationarity = {res.stationarity:.3e}, "
            f"feasibility = {res.feasibility:.3e} (tol {INIT_TOL:g})")


def discrete_trajectory(p: ProblemDef, x0: np.ndarray, steps: int,
                        stat_tol: float = STATIONARITY_TOL,
                        feas_tol: float = FEASIBILITY_TOL,
                        check_x0: bool = True) -> Trajectory:
    """Discrete local trajectory on the even grid t_k = k T / steps.

    ``x0`` must be a local solution of the problem at t = 0 (checked against
    :data:`INIT_TOL` unless ``check_x0`` is False, which drops the guarantee
    that the trajectory approximates the tracking ODE).  Each step starts
    Newton at :func:`extrapolated_start` of the states before it, if any.
    d(t) is read once, at all grid times in one stacked call
    (:func:`~tvland.problem.each_row`), for the steps and the diagnostics.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    x0 = start_vector(p, x0)
    if check_x0:
        check_local_solution(p, x0)

    dt = p.horizon / steps
    times = np.linspace(0.0, p.horizon, steps + 1)
    states = np.empty((steps + 1, p.n))
    states[0] = x0
    _check_dt(p, dt)
    # The steps skip regularized_step's checks: dt is checked above, and x0
    # by start_vector, while a step accepts only finite states (a non-finite
    # entry makes its stop test's residual non-finite).
    data = each_row(p.data_path, times) if p.m else np.empty((steps + 1, 0))
    geom = h = None  # the geometry and h at the last state, once a step computed them
    for k in range(1, steps + 1):
        states[k], geom, h = regularized_step(p, states[k - 1], times[k], dt,
                                              stat_tol, feas_tol, return_geometry=True,
                                              geom_prev=geom, start=extrapolated_start(states, k),
                                              h_prev=h, _d=data[k])
    return trajectory_with_diagnostics(p, times, states, _d=data)
