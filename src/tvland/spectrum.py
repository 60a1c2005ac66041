"""Jacobians of the tracking dynamics along KKT trajectories and their spectra.

At a KKT point z with multipliers mu, the Jacobian of the data-frozen part
of the dynamics is

    K1 = -(1/alpha) P(z) (hess f(z) + sum_i mu_i H_i(z))

whose spectrum splits into m zero eigenvalues and, under the second-order
sufficient condition, n - m eigenvalues with negative real part.  The moving
data contributes

    K2 = d/dz [theta(z) d'(t)]    (d'(t) held fixed)

(:func:`~tvland.geometry.data_jacobian`), which may push eigenvalues of
K1 + K2, the field's Jacobian there, across the imaginary axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EigenConvergenceError, StepSolveError
from .geometry import (data_jacobian, geometry, kernel_basis, kkt_residual,
                       lagrangian_hessian, newton_kkt, trajectory_with_diagnostics)
from .problem import ProblemDef, Trajectory, start_vector


def _kkt_hessian(p: ProblemDef, z: np.ndarray, t: float):
    """Geometry at z and hess f + mu . H there, mu the least-squares multipliers."""
    z = np.asarray(z, dtype=float)
    geom = geometry(p, z)
    return geom, lagrangian_hessian(p, z, t, kkt_residual(p, z, t, geom).multipliers)


def invariant_jacobian(p: ProblemDef, z: np.ndarray, t: float) -> np.ndarray:
    """Jacobian of the data-frozen dynamics at a KKT point z.

    Returns -(1/alpha) P(z) (hess f(z, t) + mu . H(z)) with mu the
    least-squares multipliers at z.  The rows of J(z) annihilate it from the
    left: J(z) @ invariant_jacobian = 0.
    """
    geom, M = _kkt_hessian(p, z, t)
    return -(geom.projector @ M) / p.alpha


def variant_jacobian(p: ProblemDef, z: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Decomposition (K1, K2) of the full Jacobian of the tracking dynamics.

    K1 is :func:`invariant_jacobian`; K2 is the derivative of the
    data-variation term theta(z) d'(t) (:func:`~tvland.geometry.data_jacobian`).
    For unconstrained problems (or frozen data) K2 = 0.
    """
    geom, M = _kkt_hessian(p, z, t)
    K1 = -(geom.projector @ M) / p.alpha
    K2 = data_jacobian(p, np.asarray(z, dtype=float), t, geom)
    return K1, K2


@dataclass
class SpectrumReport:
    """Eigenvalues with counts classified by real part.

    ``n_zero``/``n_neg``/``n_pos`` partition the spectrum by the sign of the
    real part against the relative threshold ``zero_tol * scale`` (so they
    always sum to n); ``n_zero_modulus`` additionally counts eigenvalues that
    are zero in modulus, distinguishing genuinely null directions from purely
    rotational ones.
    """

    eigenvalues: np.ndarray
    zero_tol: float
    scale: float
    n_zero: int = field(init=False)
    n_neg: int = field(init=False)
    n_pos: int = field(init=False)
    n_zero_modulus: int = field(init=False)

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues)
        thr = self.zero_tol * self.scale
        self.n_zero = int(np.sum(np.abs(lam.real) <= thr))
        self.n_neg = int(np.sum(lam.real < -thr))
        self.n_pos = int(np.sum(lam.real > thr))
        self.n_zero_modulus = int(np.sum(np.abs(lam) <= thr))

    @property
    def max_real(self) -> float:
        return float(np.max(self.eigenvalues.real))


def eigen_report(M: np.ndarray, zero_tol: float = 1e-8) -> SpectrumReport:
    """Full nonsymmetric spectrum of M with relative zero thresholding.

    The classification threshold is ``zero_tol * max(1, |M|_2)``.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError(f"M must be square, got {M.shape}")
    if n > 64:
        raise ValueError("matrices beyond 64 x 64 are out of scope")
    scale = max(1.0, float(np.linalg.norm(M, 2)))
    try:
        lam = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    return SpectrumReport(np.sort_complex(lam), zero_tol, scale)


@dataclass
class SpectrumSample:
    """Spectrum of K1 + K2 at one trajectory time."""

    time: float
    report: SpectrumReport

    @property
    def max_real(self) -> float:
        return self.report.max_real

    @property
    def unstable(self) -> bool:
        return self.report.n_pos > 0


def spectrum_along_trajectory(p: ProblemDef, ztraj: Trajectory,
                              zero_tol: float = 1e-8) -> list[SpectrumSample]:
    """Per-time spectrum of K1 + K2 along a KKT trajectory.

    Samples with ``n_pos > 0`` flag times where the data variation makes the
    linearized tracking dynamics unstable (a potential escape opening).
    """
    out = []
    for t, z in zip(ztraj.times, ztraj.states):
        K1, K2 = variant_jacobian(p, z, float(t))
        out.append(SpectrumSample(float(t), eigen_report(K1 + K2, zero_tol)))
    return out


def tangent_hessian_eigenvalues(p: ProblemDef, x: np.ndarray, t: float) -> np.ndarray:
    """Eigenvalues of the Lagrangian Hessian restricted to the tangent space.

    Positive definiteness of this reduced matrix is the second-order
    sufficient condition for a strict local minimum on the constraint
    manifold.  For m = 0 this is simply the spectrum of hess f.
    """
    geom, M = _kkt_hessian(p, x, t)
    if p.m == 0:
        return np.linalg.eigvalsh(0.5 * (M + M.T))
    W = kernel_basis(geom.jacobian)
    red = W.T @ M @ W
    return np.linalg.eigvalsh(0.5 * (red + red.T))


def kkt_refine(p: ProblemDef, x: np.ndarray, t: float,
               tol: float = 1e-10, max_newton: int = 50) -> np.ndarray:
    """Newton-refine x to a KKT point of the problem at time t.

    Solves grad f + J^T mu = 0, h = d(t) from the given (near-KKT) point by
    :func:`~tvland.geometry.newton_kkt`.

    Raises
    ------
    StepSolveError
        If the Newton iteration stalls or meets a singular KKT system.
    """
    res = newton_kkt(p, x, t, tol=tol, max_iter=max_newton)
    if res.status == "singular":
        raise StepSolveError(f"singular KKT system at t = {t:g}")
    if res.status != "converged":
        raise StepSolveError(f"KKT refinement stalled at t = {t:g}")
    return res.x


def kkt_track(p: ProblemDef, x0: np.ndarray, times: np.ndarray,
              tol: float = 1e-10, max_newton: int = 50) -> Trajectory:
    """Continue a KKT point along the time grid by Newton on the KKT system.

    Starting from the KKT point ``x0`` at ``times[0] = 0``, each subsequent
    time solves grad f + J^T mu = 0, h = d(t) warm-started at the previous
    point.  Useful for following a local-minimum trajectory to feed
    :func:`spectrum_along_trajectory`.  The grid must resolve the
    trajectory's motion: a per-step shift beyond the local Newton basin hops
    to a different stationary branch.
    """
    times = np.asarray(times, dtype=float)
    x = start_vector(p, x0)
    states = np.empty((len(times), p.n))
    for i, t in enumerate(times):
        x = kkt_refine(p, x, float(t), tol=tol, max_newton=max_newton)
        states[i] = x
    return trajectory_with_diagnostics(p, times, states)
