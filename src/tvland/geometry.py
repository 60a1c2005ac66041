"""Projection algebra of the constraint manifold and KKT diagnostics.

For a full-row-rank constraint Jacobian J(x) the tangent projector and the
pseudo-inverse column map are

    P(x)     = I - J^T (J J^T)^(-1) J
    theta(x) = J^T (J J^T)^(-1)

and the tracking dynamics follow

    x' = -eta(x, t) / alpha + theta(x) d'(t),
    eta(x, t) = P(x) grad f(x, t).

Both come from one linear solve with the Gram matrix J J^T: A = (J J^T)^(-1) J
gives theta = A^T and P g = g - J^T (A g); the n x n matrix P is formed only
where a caller reads it.  Since the singular values of theta are the
reciprocals of those of J, 1 / |A|_F <= sigma_min(J), which certifies
regularity without a decomposition; only a point the bound cannot clear
takes a thin SVD of J, which decides whether J is degenerate.  The
conditioning sigma_min(J) is computed only where a caller asks for it.

:func:`newton_kkt` is the one Newton iteration on the KKT system
grad f + w (x - x_prev) + J^T mu = 0, h(x) = d(t) that the discrete engine
(w = alpha/dt), the KKT refinement and the strict-minimum test of flow
limits and catalog entries (w = 0) share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import SingularConstraintError
from .problem import ProblemDef, Trajectory, _central_difference, _vdot, each_row

#: Below this smallest singular value of J the constraints are treated as
#: degenerate (non-singularity assumption violated).
SINGULARITY_TOL = 1e-8


#: The solve form serves only points where |J|_F^2 |A|_F^2, an upper bound on
#: the condition number of J J^T, is at most this, so that the Gram solve
#: loses at most six of the sixteen digits; other points take the SVD.
_GRAM_COND_MAX = 1e6
#: Relative room the bound 1 / |A|_F must leave above SINGULARITY_TOL, far
#: above the rounding of |A|_F under _GRAM_COND_MAX, so that the bound never
#: clears a J whose SVD would put sigma_min below SINGULARITY_TOL.
_BOUND_ROOM = 1e-6


@dataclass(frozen=True)
class GeometryResult:
    """Pseudo-inverse map at a point, with the J it comes from.

    The projector is applied to a vector by :meth:`project` and formed as
    the n x n matrix ``projector`` only when read.  ``sigma_min`` is
    computed from a thin SVD of ``jacobian`` at each access (+inf for
    m = 0); the geometry itself never needs it.
    """

    theta: np.ndarray      # (n, m)
    jacobian: np.ndarray   # (m, n), the J(x) theta comes from
    #: Right singular vectors V^T of J where the thin SVD decided the point,
    #: else None (theta^T = A and P = I - J^T A).
    svd_rows: Optional[np.ndarray] = None

    @cached_property
    def projector(self) -> np.ndarray:
        """P = I - J^T A, or I - V V^T where the SVD decided the point (n, n)."""
        n = self.jacobian.shape[1]
        if self.svd_rows is None:
            return np.eye(n) - self.jacobian.T @ self.theta.T
        return np.eye(n) - self.svd_rows.T @ self.svd_rows

    def project(self, g: np.ndarray) -> np.ndarray:
        """P g, as g - J^T (A g) without forming P where the solve served."""
        if self.svd_rows is None:
            return g - self.jacobian.T @ (self.theta.T @ g)
        return self.projector @ g

    @property
    def sigma_min(self) -> float:
        if self.jacobian.shape[0] == 0:
            return math.inf
        return float(np.linalg.svd(self.jacobian, compute_uv=False)[-1])


def require_regular(sigma: float, x: np.ndarray) -> None:
    """Raise SingularConstraintError if sigma = sigma_min(J(x)) < SINGULARITY_TOL."""
    if sigma < SINGULARITY_TOL:
        raise SingularConstraintError(
            f"sigma_min(J) = {sigma:.3e} < {SINGULARITY_TOL:.1e} at x = {np.asarray(x)!r}")


def _certified_solve(J: np.ndarray) -> Optional[np.ndarray]:
    """A = (J J^T)^(-1) J if 1 / |A|_F <= sigma_min(J) clears SINGULARITY_TOL, else None.

    None also where J is not finite, J J^T cannot be factored or J is too
    ill-conditioned for the solve (:data:`_GRAM_COND_MAX`).  The products
    are of Python floats, so that no overflow warns.
    """
    j2 = float(_vdot(J, J))
    if not j2 < math.inf:  # a NaN or inf in J
        return None
    try:
        A = np.linalg.solve(J @ J.T, J)
    except np.linalg.LinAlgError:
        return None
    a2 = float(_vdot(A, A))
    # written so that a NaN fails both tests
    if a2 * j2 <= _GRAM_COND_MAX and SINGULARITY_TOL * SINGULARITY_TOL * a2 <= 1.0 - _BOUND_ROOM:
        return A
    return None


def geometry(p: ProblemDef, x: np.ndarray, J: Optional[np.ndarray] = None) -> GeometryResult:
    """Compute theta(x) (and with it P(x)), after checking sigma_min(J(x)) >= SINGULARITY_TOL.

    ``J`` is J(x) when the caller already holds it.  A = (J J^T)^(-1) J
    comes from one solve where its norm certifies the point
    (:func:`_certified_solve`).  Any other point, a non-finite J included,
    takes a thin SVD of J, which decides with :func:`require_regular` and
    gives P and theta.  For unconstrained problems (m = 0) the projector is
    the identity and theta is an empty (n, 0) matrix.

    Raises
    ------
    SingularConstraintError
        If sigma_min(J(x)) < SINGULARITY_TOL.
    """
    n = p.n
    if p.m == 0:
        return GeometryResult(np.zeros((n, 0)), np.zeros((0, n)))
    if J is None:
        J = np.asarray(p.jacobian(x), dtype=float)
    A = _certified_solve(J)
    if A is not None:
        return GeometryResult(A.T, J)
    U, S, Vt = np.linalg.svd(J, full_matrices=False)
    require_regular(float(S[-1]), x)
    return GeometryResult((Vt.T / S) @ U.T, J, Vt)


def eta(p: ProblemDef, x: np.ndarray, t: float) -> np.ndarray:
    """Projected gradient P(x) grad f(x, t); lies in the kernel of J(x)."""
    grad = np.asarray(p.grad_objective(x, t), dtype=float)
    return geometry(p, x).project(grad) if p.m else grad


def ode_rhs(p: ProblemDef, x: np.ndarray, t: float,
            geom: Optional[GeometryResult] = None) -> np.ndarray:
    """Right-hand side -eta(x, t)/alpha + theta(x) d'(t) of the tracking ODE."""
    grad = np.asarray(p.grad_objective(x, t), dtype=float)
    if p.m == 0:
        return -grad / p.alpha
    if geom is None:
        geom = geometry(p, x)
    return -geom.project(grad) / p.alpha + geom.theta @ np.asarray(p.data_rate(t), dtype=float)


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
    w is added to the diagonal of a fresh matrix.
    """
    M = objective_hessian(p, x, t)
    if p.m:
        if H is None:
            H = constraint_hessians(p, x)
        M = M + weighted_constraint_hessian(H, mu)
    elif w:
        M = M.copy()  # not the problem's own array
    if w:
        M.flat[::p.n + 1] += w
    return M


def data_jacobian(p: ProblemDef, x: np.ndarray, t: float,
                  geom: GeometryResult, H: Optional[np.ndarray] = None) -> np.ndarray:
    """K2 = d/dx [theta(x) d'(t)] = P (w . H) - theta N_v at any x, given its geometry.

    Here v = theta d', w = (J J^T)^(-1) d' = theta^T v (as (J J^T)^(-1) =
    theta^T theta) and N_v has rows (H_i v)^T.
    ``H`` is the :func:`constraint_hessians` stack at x, if already fetched.
    """
    dd = np.asarray(p.data_rate(t), dtype=float)
    if p.m == 0 or not np.any(dd):
        return np.zeros((p.n, p.n))
    if H is None:
        H = constraint_hessians(p, x)
    v = geom.theta @ dd
    w = geom.theta.T @ v
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
    ``"singular"`` (the KKT matrix could not be factored or gave a
    non-finite step, as a NaN Hessian does) or ``"max_iter"``.
    ``iterations`` counts residual evaluations.  ``hessian`` is the Lagrangian Hessian of F last formed (at the start of
    the last step), None when no step was started.  ``jacobian``, ``h`` and
    ``gradient`` are J(x), h(x) and grad F(x) as evaluated at the returned
    ``x``; J and h are None for m = 0 and after ``"max_iter"``, which
    returns an x they were not evaluated at.
    """

    x: np.ndarray
    multipliers: np.ndarray
    status: str
    iterations: int
    hessian: Optional[np.ndarray]
    jacobian: Optional[np.ndarray]
    h: Optional[np.ndarray]
    gradient: np.ndarray


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, the same bits as np.linalg.norm on a contiguous one.

    ``np.vdot`` keeps the interpreter lock, while ``ndarray.dot`` (and so
    ``np.linalg.norm`` of a vector) releases and retakes it at every call,
    which makes threads running small products hand it back and forth.
    """
    return math.sqrt(_vdot(v, v))


def newton_kkt(p: ProblemDef, x: np.ndarray, t: float,
               prox: Optional[tuple[np.ndarray, float]] = None,
               tol: float = 1e-10, max_iter: int = 50,
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
    replaces d(t) as the leaf value to reach (m > 0): d(t) when the caller
    already holds it, or another leaf such as the one a flow preserves.  No
    step is damped or checked for descent: callers that need a particular
    KKT point apply their own safeguards.

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
    M = J = h = None
    if m:
        mu = -((geom or geometry(p, x)).theta.T @ grad)
        if d is None:
            d = p.data_path(t)
        KKT = np.zeros((n + m, n + m))
    for it in range(1, max_iter + 1):
        if m:
            J = np.asarray(p.jacobian(x), dtype=float)
            h = p.constraints(x)
            r_stat = grad + J.T @ mu
            r_feas = h - d
        else:
            r_stat = grad
        if _norm(r_stat) <= tol and _norm(r_feas) <= tol:
            return NewtonKKT(x, mu, "converged", it, M, J, h, grad)
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
            delta = None
        # a NaN or inf entry makes delta . delta non-finite
        if delta is None or not math.isfinite(_vdot(delta, delta)):
            return NewtonKKT(x, mu, "singular", it, M, J, h, grad)
        x = x + delta[:n]
        if m:
            mu = mu + delta[n:]
        grad = grad_F(x)
    return NewtonKKT(x, mu, "max_iter", max_iter, M, None, None, grad)


def trajectory_with_diagnostics(p: ProblemDef, times: np.ndarray,
                                states: np.ndarray, *,
                                _d: Optional[np.ndarray] = None) -> Trajectory:
    """Assemble a Trajectory, filling per-point KKT and step diagnostics.

    One pass over stacks: the gradients (L, n), and for m > 0 the Jacobians
    (L, m, n), constraint values and data d(t) (L, m), each from one call of
    a map marked array-safe (:func:`~tvland.problem.each_row`) and row by
    row otherwise, with the same bits.  The least-squares multipliers come
    from one batched solve of J J^T mu = -J grad f, stationarity and
    feasibility from row norms, and sigma_min from one stacked SVD of the
    Jacobians.  ``_d`` is private to the discrete engine: the stack of d at
    ``times`` that its steps read.

    Raises
    ------
    SingularConstraintError
        At the first state whose sigma_min(J) is below
        :data:`SINGULARITY_TOL`.
    """
    times = np.asarray(times, dtype=float)
    states = np.atleast_2d(np.asarray(states, dtype=float))
    k = len(times)
    grads = each_row(p.grad_objective, states, times)
    steps = np.zeros(k)
    steps[1:] = np.linalg.norm(np.diff(states, axis=0), axis=1)
    if p.m == 0:
        return Trajectory(times, states, np.linalg.norm(grads, axis=1),
                          np.zeros(k), np.full(k, np.inf), steps)
    J = each_row(p.jacobian, states)
    sigma = np.linalg.svd(J, compute_uv=False)[:, -1]
    bad = np.flatnonzero(sigma < SINGULARITY_TOL)
    if bad.size:
        require_regular(sigma[bad[0]], states[bad[0]])
    Jt = J.transpose(0, 2, 1)
    mu = -np.linalg.solve(J @ Jt, J @ grads[:, :, None])
    stat = np.linalg.norm(grads + (Jt @ mu)[..., 0], axis=1)
    h = each_row(p.constraints, states)
    feas = np.linalg.norm(h - (each_row(p.data_path, times) if _d is None else _d), axis=1)
    return Trajectory(times, states, stat, feas, sigma, steps)
