"""Projection algebra of the constraint manifold and KKT diagnostics.

For a full-row-rank constraint Jacobian J(x) the tangent projector and the
pseudo-inverse column map are

    P(x)     = I - J^T (J J^T)^(-1) J
    theta(x) = J^T (J J^T)^(-1)

and the tracking dynamics follow

    x' = -eta(x, t) / alpha + theta(x) d'(t),
    eta(x, t) = P(x) grad f(x, t).

Both come from one thin singular value decomposition J = U S V^T (V has
orthonormal columns spanning the row space of J):

    P(x)     = I - V V^T
    theta(x) = V S^(-1) U^T

and S also gives the conditioning sigma_min(J) = S[-1].  Neither J J^T nor
an inverse of it is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import SingularConstraintError
from .problem import ProblemDef, Trajectory, has_stacked_gradient

#: Below this smallest singular value of J the constraints are treated as
#: degenerate (non-singularity assumption violated).
SINGULARITY_TOL = 1e-8


@dataclass(frozen=True)
class GeometryResult:
    """Projector, pseudo-inverse map and conditioning at a point."""

    projector: np.ndarray  # (n, n)
    theta: np.ndarray      # (n, m)
    sigma_min: float
    jacobian: np.ndarray   # (m, n), the J(x) the other fields come from


def geometry(p: ProblemDef, x: np.ndarray, c_tol: float = SINGULARITY_TOL) -> GeometryResult:
    """Compute P(x), theta(x) and sigma_min(J(x)).

    For unconstrained problems (m = 0) the projector is the identity, theta
    is an empty (n, 0) matrix and sigma_min is reported as +inf.

    Raises
    ------
    SingularConstraintError
        If sigma_min(J(x)) < c_tol.
    """
    n = p.n
    if p.m == 0:
        return GeometryResult(np.eye(n), np.zeros((n, 0)), np.inf, np.zeros((0, n)))
    J = np.asarray(p.jacobian(x), dtype=float)
    U, S, Vt = np.linalg.svd(J, full_matrices=False)
    sigma = float(S[-1])
    if sigma < c_tol:
        raise SingularConstraintError(
            f"sigma_min(J) = {sigma:.3e} < {c_tol:.1e} at x = {np.asarray(x)!r}")
    P = np.eye(n) - Vt.T @ Vt
    theta = (Vt.T / S) @ U.T
    return GeometryResult(P, theta, sigma, J)


def eta(p: ProblemDef, x: np.ndarray, t: float,
        geom: Optional[GeometryResult] = None) -> np.ndarray:
    """Projected gradient P(x) grad f(x, t); lies in the kernel of J(x)."""
    grad = np.asarray(p.grad_objective(x, t), dtype=float)
    if p.m == 0:
        return grad
    if geom is None:
        geom = geometry(p, x)
    return geom.projector @ grad


def ode_rhs(p: ProblemDef, x: np.ndarray, t: float,
            geom: Optional[GeometryResult] = None) -> np.ndarray:
    """Right-hand side -eta(x, t)/alpha + theta(x) d'(t) of the tracking ODE."""
    grad = np.asarray(p.grad_objective(x, t), dtype=float)
    if p.m == 0:
        return -grad / p.alpha
    if geom is None:
        geom = geometry(p, x)
    e = geom.projector @ grad
    return -e / p.alpha + geom.theta @ np.asarray(p.data_rate(t), dtype=float)


class KKTResidual(NamedTuple):
    stationarity: float
    feasibility: float
    multipliers: np.ndarray


def kkt_residual(p: ProblemDef, x: np.ndarray, t: float,
                 geom: Optional[GeometryResult] = None) -> KKTResidual:
    """Stationarity and feasibility residuals with least-squares multipliers.

    The multipliers solve (J J^T) mu = -J grad f, so the stationarity norm
    |grad f + J^T mu| coincides with |eta(x, t)| up to roundoff.
    """
    grad = np.asarray(p.grad_objective(x, t), dtype=float)
    if p.m == 0:
        return KKTResidual(float(np.linalg.norm(grad)), 0.0, np.zeros(0))
    if geom is None:
        geom = geometry(p, x)
    mu = -(geom.theta.T @ grad)
    stat = float(np.linalg.norm(grad + geom.jacobian.T @ mu))
    feas = float(np.linalg.norm(p.constraints(x) - p.data_path(t)))
    return KKTResidual(stat, feas, mu)


def trajectory_with_diagnostics(p: ProblemDef, times: np.ndarray,
                                states: np.ndarray,
                                geoms: Optional[Sequence[Optional[GeometryResult]]] = None
                                ) -> Trajectory:
    """Assemble a Trajectory, filling per-point KKT and step diagnostics.

    ``geoms``, when given, holds the :func:`geometry` of each state as an
    engine already computed it, or None where it must be computed here.
    Without ``geoms``, an unconstrained problem with an array-safe gradient
    gets all its diagnostics from one stacked gradient call, with the same
    bits as the per-point loop.
    """
    times = np.asarray(times, dtype=float)
    states = np.atleast_2d(np.asarray(states, dtype=float))
    k = len(times)
    if geoms is None and has_stacked_gradient(p):
        grads = np.asarray(p.grad_objective(states, times[:, None]), dtype=float)
        steps = np.zeros(k)
        steps[1:] = np.linalg.norm(np.diff(states, axis=0), axis=1)
        return Trajectory(times, states, np.linalg.norm(grads, axis=1),
                          np.zeros(k), np.full(k, np.inf), steps)
    diag = np.empty((k, 4))
    for i in range(k):
        geom = None if geoms is None else geoms[i]
        if geom is None:
            geom = geometry(p, states[i])
        res = kkt_residual(p, states[i], times[i], geom)
        step = 0.0 if i == 0 else float(np.linalg.norm(states[i] - states[i - 1]))
        diag[i] = (res.stationarity, res.feasibility, geom.sigma_min, step)
    return Trajectory(times, states, diag[:, 0], diag[:, 1], diag[:, 2], diag[:, 3])
