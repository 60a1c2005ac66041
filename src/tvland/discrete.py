"""Discrete local trajectories via sequential proximally regularized solves.

Each step solves

    minimize    f(x, t_{k+1}) + alpha |x - x_k|^2 / (2 dt)
    subject to  h(x) = d(t_{k+1})

to a KKT point, warm-started at x_k, using projected-gradient descent on the
augmented objective with a Newton feasibility-restoration step after each
accepted gradient step.  The warm start pins down which KKT point is
returned when the regularized problem has several (the one reachable from
x_k by descent), making trajectories deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import InitializationError, StepSolveError
from .geometry import GeometryResult, geometry, kkt_residual, trajectory_with_diagnostics
from .problem import ProblemDef, Trajectory

#: Inner-solver tolerances: far below the acceptance tolerances of the
#: simulation studies built on top.
STATIONARITY_TOL = 1e-9
FEASIBILITY_TOL = 1e-9

#: Tolerance for the "x0 is a local solution at t = 0" precondition.
INIT_TOL = 1e-6

_MAX_ITER = 10_000
_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5


def _restore_feasibility(p: ProblemDef, x: np.ndarray, d_target: np.ndarray,
                         feas_tol: float) -> np.ndarray:
    """Newton iteration on h(x) = d_target using the pseudo-inverse map."""
    if p.m == 0:
        return x
    for _ in range(30):
        r = p.constraints(x) - d_target
        if np.linalg.norm(r) <= feas_tol:
            return x
        geom = geometry(p, x)
        x = x - geom.theta @ r
    r = p.constraints(x) - d_target
    if np.linalg.norm(r) <= feas_tol:
        return x
    raise StepSolveError(
        f"feasibility restoration stalled at |h - d| = {np.linalg.norm(r):.3e}")


def regularized_step(p: ProblemDef, x_prev: np.ndarray, t_next: float, dt: float,
                     stat_tol: float = STATIONARITY_TOL,
                     feas_tol: float = FEASIBILITY_TOL,
                     max_iter: int = _MAX_ITER, *,
                     return_geometry: bool = False
                     ) -> np.ndarray | tuple[np.ndarray, GeometryResult]:
    """Solve one proximally regularized problem to a KKT point.

    Returns x with the projected gradient of the augmented objective below
    ``stat_tol`` and the constraint violation below ``feas_tol``; with
    ``return_geometry``, the pair ``(x, geometry(p, x))``, the geometry being
    the one the solver computed at x for its stopping test.

    Raises
    ------
    StepSolveError
        If the inner solver does not reach tolerance within ``max_iter``.
    SingularConstraintError
        If the constraint Jacobian degenerates along the way.
    """
    x_prev = np.asarray(x_prev, dtype=float)
    if not np.all(np.isfinite(x_prev)):
        raise ValueError("x_prev must be finite")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if dt < 1e-12 * p.horizon:
        raise ValueError(f"dt = {dt} is degenerate for horizon {p.horizon}")

    alpha = p.alpha
    d_target = p.data_path(t_next) if p.m else None
    inv_2dt = alpha / (2.0 * dt)

    def f_aug(y):
        return p.objective(y, t_next) + inv_2dt * float(np.dot(y - x_prev, y - x_prev))

    def proj_grad_aug(y, geom):
        ga = np.asarray(p.grad_objective(y, t_next), dtype=float) + (alpha / dt) * (y - x_prev)
        return geom.projector @ ga if p.m else ga

    x = _restore_feasibility(p, x_prev.copy(), d_target, feas_tol) if p.m else x_prev.copy()
    s0 = dt / alpha
    geom = None  # geometry at x, carried over when the line search computed it
    for _ in range(max_iter):
        if geom is None:
            geom = geometry(p, x)
            eta_a = proj_grad_aug(x, geom)
        gnorm = np.linalg.norm(eta_a)
        if gnorm <= stat_tol:
            if p.m == 0 or np.linalg.norm(p.constraints(x) - d_target) <= feas_tol:
                return (x, geom) if return_geometry else x

        f0 = f_aug(x)
        gg = float(np.dot(eta_a, eta_a))
        s = s0
        accepted = False
        for _ in range(80):
            x_trial = x - s * eta_a
            if p.m:
                x_trial = _restore_feasibility(p, x_trial, d_target, feas_tol)
            predicted = _ARMIJO_C * s * gg
            if predicted >= 4e-12 * max(abs(f0), 1.0):
                if f_aug(x_trial) <= f0 - predicted:
                    geom_t = eta_t = None
                    accepted = True
                    break
            else:
                # The Armijo decrease is below the floating point resolution
                # of f_aug, where the objective test admits noise-driven
                # expanding steps; accept only on gradient contraction.
                geom_t = geometry(p, x_trial)
                eta_t = proj_grad_aug(x_trial, geom_t)
                if np.linalg.norm(eta_t) < 0.9 * gnorm:
                    accepted = True
                    break
            s *= _ARMIJO_SHRINK
        if not accepted:
            raise StepSolveError(
                f"line search stalled at t = {t_next:.6g} with |proj grad| = {gnorm:.3e}")
        x, geom, eta_a = x_trial, geom_t, eta_t

    raise StepSolveError(
        f"inner solver exceeded {max_iter} iterations at t = {t_next:.6g}")


def check_local_solution(p: ProblemDef, x0: np.ndarray, t: float = 0.0,
                         tol: float = INIT_TOL) -> None:
    """Raise InitializationError unless x0 is a KKT point of p at time t."""
    res = kkt_residual(p, np.asarray(x0, dtype=float), t)
    if res.stationarity > tol or res.feasibility > tol:
        raise InitializationError(
            f"x0 is not a local solution at t = {t:g}: stationarity = "
            f"{res.stationarity:.3e}, feasibility = {res.feasibility:.3e} (tol {tol:g})")


def discrete_trajectory(p: ProblemDef, x0: np.ndarray, steps: int,
                        stat_tol: float = STATIONARITY_TOL,
                        feas_tol: float = FEASIBILITY_TOL,
                        check_x0: bool = True) -> Trajectory:
    """Discrete local trajectory on the even grid t_k = k T / steps.

    ``x0`` must be a local solution of the problem at t = 0 (checked against
    :data:`INIT_TOL` unless ``check_x0`` is False, which drops the guarantee
    that the trajectory approximates the tracking ODE).
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (p.n,):
        raise ValueError(f"x0 must have shape ({p.n},), got {x0.shape}")
    if check_x0:
        check_local_solution(p, x0)

    dt = p.horizon / steps
    times = np.linspace(0.0, p.horizon, steps + 1)
    states = np.empty((steps + 1, p.n))
    geoms = [None] * (steps + 1)
    states[0] = x0
    for k in range(1, steps + 1):
        states[k], geoms[k] = regularized_step(p, states[k - 1], times[k], dt,
                                               stat_tol, feas_tol, return_geometry=True)
    return trajectory_with_diagnostics(p, times, states, geoms)
