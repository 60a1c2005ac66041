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

:func:`newton_kkt` is the one Newton iteration on the KKT system
grad f + w (x - x_prev) + J^T mu = 0, h(x) = d(t) that the discrete engine
(w = alpha/dt), the KKT refinement and the catalog polish (w = 0) share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import SingularConstraintError
from .problem import (ProblemDef, Trajectory, _central_difference,
                      has_stacked_gradient)

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


def require_regular(sigma: float, x: np.ndarray, c_tol: float = SINGULARITY_TOL) -> None:
    """Raise SingularConstraintError if sigma = sigma_min(J(x)) < c_tol."""
    if sigma < c_tol:
        raise SingularConstraintError(
            f"sigma_min(J) = {sigma:.3e} < {c_tol:.1e} at x = {np.asarray(x)!r}")


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
    require_regular(sigma, x, c_tol)
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
        return KKTResidual(_norm(grad), 0.0, np.zeros(0))
    if geom is None:
        geom = geometry(p, x)
    mu = -(geom.theta.T @ grad)
    stat = _norm(grad + geom.jacobian.T @ mu)
    feas = _norm(p.constraints(x) - p.data_path(t))
    return KKTResidual(stat, feas, mu)


def objective_hessian(p: ProblemDef, x: np.ndarray, t: float) -> np.ndarray:
    """hess f(x, t), by central differences of grad_objective when p has none."""
    if p.hess_objective is not None:
        return np.asarray(p.hess_objective(x, t), dtype=float)
    return _central_difference(lambda y: p.grad_objective(y, t), x)


def constraint_hessians(p: ProblemDef, x: np.ndarray) -> np.ndarray:
    """The (m, n, n) stack of H_i(x), by differences of jacobian when p has none."""
    if p.constraint_hessians is not None:
        return np.asarray(p.constraint_hessians(x), dtype=float)
    return _central_difference(p.jacobian, x)


def weighted_constraint_hessian(H: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i w_i H_i accumulated in index order, for a stack H of H_i (m > 0)."""
    return np.add.reduce(w[:, None, None] * H, axis=0)


def lagrangian_hessian(p: ProblemDef, x: np.ndarray, t: float, mu: np.ndarray,
                       w: float = 0.0, H: Optional[np.ndarray] = None) -> np.ndarray:
    """hess f(x, t) + sum_i mu_i H_i(x) + w I, each term only where nonzero.

    ``H`` is the :func:`constraint_hessians` stack at x, if already fetched.
    """
    M = objective_hessian(p, x, t)
    if p.m:
        if H is None:
            H = constraint_hessians(p, x)
        M = M + weighted_constraint_hessian(H, mu)
    if w:
        M = M + w * np.eye(p.n)
    return M


def data_jacobian(p: ProblemDef, x: np.ndarray, t: float,
                  geom: GeometryResult, H: Optional[np.ndarray] = None) -> np.ndarray:
    """K2 = d/dx [theta(x) d'(t)] = P (w . H) - theta N_v at any x, given its geometry.

    Here w = (J J^T)^(-1) d', v = theta d' and N_v has rows (H_i v)^T.
    ``H`` is the :func:`constraint_hessians` stack at x, if already fetched.
    """
    dd = np.asarray(p.data_rate(t), dtype=float)
    if p.m == 0 or not np.any(dd):
        return np.zeros((p.n, p.n))
    if H is None:
        H = constraint_hessians(p, x)
    J = geom.jacobian
    w = np.linalg.solve(J @ J.T, dd)
    v = geom.theta @ dd
    return geom.projector @ weighted_constraint_hessian(H, w) - geom.theta @ (H @ v)


def field_jacobian(p: ProblemDef, x: np.ndarray, t: float) -> np.ndarray:
    """Jacobian of :func:`ode_rhs` in x at any point, KKT or not.

    It is -(P M - theta N_eta) / alpha + K2 (:func:`data_jacobian`), with
    M = hess f + mu . H for the least-squares multipliers mu and N_eta the
    rows (H_i eta)^T; at a KKT point eta = 0 leaves K1 + K2.  For m = 0 it
    is -hess f / alpha.  The constraint Hessians are fetched once.
    """
    x = np.asarray(x, dtype=float)
    if p.m == 0:
        return -objective_hessian(p, x, t) / p.alpha
    geom = geometry(p, x)
    grad = np.asarray(p.grad_objective(x, t), dtype=float)
    H = constraint_hessians(p, x)
    M = lagrangian_hessian(p, x, t, -(geom.theta.T @ grad), H=H)
    N_eta = H @ (geom.projector @ grad)
    return (-(geom.projector @ M - geom.theta @ N_eta) / p.alpha
            + data_jacobian(p, x, t, geom, H))


def positive_definite_on_kernel(M: np.ndarray, J: np.ndarray) -> bool:
    """Whether the symmetric matrix M is positive definite on ker J.

    A Cholesky factorization of M itself settles it when M is positive
    definite on the whole space; otherwise the reduced matrix W^T M W on an
    orthonormal basis W of ker J is factored (:func:`_reduced_positive_definite`).
    """
    return _cholesky_succeeds(M) or (J.shape[0] > 0 and _reduced_positive_definite(M, J))


def kernel_basis(J: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ker J, as columns, from the full SVD of J."""
    return np.linalg.svd(J)[2][J.shape[0]:].T


def _reduced_positive_definite(M: np.ndarray, J: np.ndarray) -> bool:
    W = kernel_basis(J)
    return _cholesky_succeeds(W.T @ M @ W)


def _cholesky_succeeds(A: np.ndarray) -> bool:
    """Whether A has a finite Cholesky factor (a NaN in A does not raise)."""
    try:
        return bool(np.isfinite(np.linalg.cholesky(A)).all())
    except np.linalg.LinAlgError:
        return False


class NewtonKKT(NamedTuple):
    """Outcome of :func:`newton_kkt`.

    ``status`` is ``"converged"`` (both residuals within tol at ``x``),
    ``"singular"`` (the KKT matrix could not be factored), ``"max_step"``
    (the next step was longer than ``max_step`` and was not taken) or
    ``"max_iter"``.  ``iterations`` counts residual evaluations.
    ``hessian`` is the Lagrangian Hessian of F last formed (at the start of
    the last step), None when no step was started.
    """

    x: np.ndarray
    multipliers: np.ndarray
    status: str
    iterations: int
    hessian: Optional[np.ndarray]


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, the same bits as np.linalg.norm."""
    return math.sqrt(v.dot(v))


def newton_kkt(p: ProblemDef, x: np.ndarray, t: float,
               prox: Optional[tuple[np.ndarray, float]] = None,
               max_step: Optional[float] = None, tol: float = 1e-10,
               max_iter: int = 50,
               geom: Optional[GeometryResult] = None,
               d: Optional[np.ndarray] = None) -> NewtonKKT:
    """Newton's method on the KKT system of the time-t problem from x.

    Solves grad F + J^T mu = 0, h(x) = d(t) for the objective
    F = f(., t) + w |. - x_prev|^2 / 2, with ``prox = (x_prev, w)``
    (F = f without it).  Each iteration solves

        [[hess F + mu . H,  J^T],  [dx ]     [grad F + J^T mu]
         [J,                0  ]]  [dmu] = - [h(x) - d(t)    ]

    and stops once both residual norms are at most ``tol``.  The multipliers
    start as the least-squares fit -theta^T grad F(x), theta taken from
    ``geom`` (the geometry of a nearby point) or else computed at x.  ``d``
    is d(t) when the caller already holds it (m > 0).  No step is damped or
    checked for descent: callers that need a particular KKT point apply
    their own safeguards.

    Raises
    ------
    SingularConstraintError
        If the start multipliers need the geometry at a degenerate J.
    """
    n, m = p.n, p.m
    x = np.asarray(x, dtype=float).copy()
    x_prev, w = prox if prox is not None else (None, 0.0)

    def grad_F(y):
        g = np.asarray(p.grad_objective(y, t), dtype=float)
        return g + w * (y - x_prev) if prox is not None else g

    grad = grad_F(x)
    mu = np.zeros(0)
    r_feas = np.zeros(0)
    M = None
    if m:
        mu = -((geom or geometry(p, x)).theta.T @ grad)
        if d is None:
            d = p.data_path(t)
        KKT = np.zeros((n + m, n + m))
    for it in range(1, max_iter + 1):
        if m:
            J = np.asarray(p.jacobian(x), dtype=float)
            r_stat = grad + J.T @ mu
            r_feas = p.constraints(x) - d
        else:
            r_stat = grad
        if _norm(r_stat) <= tol and _norm(r_feas) <= tol:
            return NewtonKKT(x, mu, "converged", it, M)
        M = lagrangian_hessian(p, x, t, mu, w)
        if m:
            KKT[:n, :n] = M
            KKT[:n, n:] = J.T
            KKT[n:, :n] = J
            rhs = -np.concatenate([r_stat, r_feas])
        else:
            KKT = M
            rhs = -r_stat
        try:
            delta = np.linalg.solve(KKT, rhs)
        except np.linalg.LinAlgError:
            return NewtonKKT(x, mu, "singular", it, M)
        if max_step is not None and _norm(delta[:n]) > max_step:
            return NewtonKKT(x, mu, "max_step", it, M)
        x = x + delta[:n]
        if m:
            mu = mu + delta[n:]
        grad = grad_F(x)
    return NewtonKKT(x, mu, "max_iter", max_iter, M)


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
        step = 0.0 if i == 0 else _norm(states[i] - states[i - 1])
        diag[i] = (res.stationarity, res.feasibility, geom.sigma_min, step)
    return Trajectory(times, states, diag[:, 0], diag[:, 1], diag[:, 2], diag[:, 3])
