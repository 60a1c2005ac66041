"""Trajectory classification by region-of-attraction membership.

A trajectory is non-spurious when, from some cutoff time onward, every
sampled state lies in the basin of a global minimizer of the frozen-time
landscape.  Basins are probed by integrating the frozen-time flow to its
limit and matching that limit against a catalog of known minimizers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .discrete import _restore_feasibility
from .errors import SingularConstraintError, StepSolveError
from .geometry import has_hessians, kkt_residual, newton_kkt
from .ode import frozen_time_flow, frozen_time_flows
from .problem import MinimizerCatalog, ProblemDef, Trajectory
from .spectrum import tangent_hessian_eigenvalues

#: Distance under which a flow limit is identified with a catalog entry, and
#: under which multistart limits are merged into one cluster.  Minimizers of
#: the shipped scenarios are separated by at least 1.
MEMBERSHIP_TOL = 1e-4
CLUSTER_RADIUS = 1e-4

#: Smallest tangent-Hessian eigenvalue accepted as a strict local minimum.
SOSC_TOL = 1e-8

#: Stationarity/feasibility bound every catalog entry must satisfy.
CATALOG_KKT_TOL = 1e-6


class Verdict(enum.Enum):
    NON_SPURIOUS = "non-spurious"
    SPURIOUS = "spurious"
    UNRESOLVED = "unresolved"


def _match_catalog(catalog: MinimizerCatalog, limit: np.ndarray, converged: bool,
                   tol: float) -> tuple[Optional[int], str]:
    """Catalog id within ``tol`` of a flow limit (modulo the equivalence).

    Returns ``(id, "member")``, or ``(None, reason)`` with reason
    ``"flow_not_converged"`` or ``"no_catalog_match"``.
    """
    if not converged:
        return None, "flow_not_converged"
    if len(catalog) == 0:
        return None, "no_catalog_match"
    candidates = [limit]
    if catalog.equivalence is not None:
        candidates.append(np.asarray(catalog.equivalence(limit), dtype=float))
    dists = np.full(len(catalog), np.inf)
    for c in candidates:
        dists = np.minimum(dists, np.linalg.norm(catalog.minimizers - c, axis=1))
    best = int(np.argmin(dists))
    if dists[best] > tol:
        return None, "no_catalog_match"
    return best, "member"


def attraction_membership(p: ProblemDef, x: np.ndarray, t: float,
                          catalog: MinimizerCatalog,
                          tol: float = MEMBERSHIP_TOL) -> Optional[int]:
    """Catalog id of the minimizer whose basin contains x at time t.

    Runs the frozen-time flow from x; returns the index of the catalog entry
    within ``tol`` of the flow limit (modulo the catalog equivalence), or
    None when the flow does not settle or its limit matches no entry.
    """
    limit, converged = frozen_time_flow(p, x, t)
    return _match_catalog(catalog, limit, converged, tol)[0]


@dataclass
class MembershipRecord:
    """One membership check.

    ``reason`` says why ``member`` is what it is: ``"member"`` (a catalog
    entry matched), ``"flow_not_converged"`` (the frozen-time flow did not
    settle) or ``"no_catalog_match"`` (its limit matched no catalog entry).
    """

    time: float
    member: Optional[int]
    is_global: bool
    reason: str


@dataclass
class ClassificationResult:
    verdict: Verdict
    t_bar: float
    records: list[MembershipRecord]


def classify_trajectory(p: ProblemDef, traj: Trajectory,
                        catalog_builder: Callable[[float], MinimizerCatalog],
                        t_bar: float,
                        tol: float = MEMBERSHIP_TOL,
                        max_checks: int = 200) -> ClassificationResult:
    """Classify a trajectory as spurious / non-spurious on [t_bar, T].

    Membership is evaluated at every grid time >= t_bar, subsampled evenly
    to at most ``max_checks`` checks.  The verdict is NON_SPURIOUS when every
    check lands in a global basin, SPURIOUS when some check lands in a
    non-global basin, and UNRESOLVED otherwise.

    The catalogs are built first, one per check in time order (a tracking
    builder continues each catalog from the previous one); then the
    membership flows of all checks run as one batch of
    :func:`~tvland.ode.frozen_time_flows`.  Each record carries the
    membership of :func:`attraction_membership` and its reason.
    """
    if not 0 <= t_bar < p.horizon:
        raise ValueError(f"t_bar must lie in [0, T), got {t_bar}")
    if max_checks < 1:
        raise ValueError(f"max_checks must be at least 1, got {max_checks}")
    idx = np.nonzero(traj.times >= t_bar - 1e-12)[0]
    if idx.size > max_checks:
        sel = np.unique(np.linspace(0, idx.size - 1, max_checks).round().astype(int))
        idx = idx[sel]
    times = [float(traj.times[i]) for i in idx]
    catalogs = [catalog_builder(t) for t in times]
    limits, converged = frozen_time_flows(p, traj.states[idx], times)
    records = []
    for t, catalog, limit, conv in zip(times, catalogs, limits, converged):
        member, reason = _match_catalog(catalog, limit, conv, tol)
        is_global = member is not None and member in catalog.global_ids
        records.append(MembershipRecord(t, member, is_global, reason))
    if any(r.member is not None and not r.is_global for r in records):
        verdict = Verdict.SPURIOUS
    elif any(r.member is None for r in records):
        verdict = Verdict.UNRESOLVED
    else:
        verdict = Verdict.NON_SPURIOUS
    return ClassificationResult(verdict, t_bar, records)


def _polish_minimizer(p: ProblemDef, x: np.ndarray, t: float) -> np.ndarray:
    """Newton-sharpen a flow limit onto the KKT set of the time-t problem.

    Constrained flow limits drift off the target leaf by the integration
    tolerance (leaf-normal directions are neutrally stable); the KKT
    refinement pins them back.  Best effort: the unrefined point is returned
    when second derivatives are unavailable or Newton leaves the vicinity
    (for m = 0, Newton keeps its last iterate before a step longer than 1).
    """
    if not has_hessians(p):
        return x
    if p.m == 0:
        return newton_kkt(p, x, t, max_step=1.0, tol=1e-12, max_iter=25).x
    try:
        res = newton_kkt(p, x, t)
    except (SingularConstraintError, np.linalg.LinAlgError):
        return x
    near = np.linalg.norm(res.x - x) <= 0.05 * (1.0 + np.linalg.norm(x))
    return res.x if res.status == "converged" and near else x


def _is_strict_minimizer(p: ProblemDef, x: np.ndarray, t: float) -> bool:
    """The catalog entry test: KKT residuals within bound and SOSC holds."""
    res = kkt_residual(p, x, t)
    if res.stationarity > CATALOG_KKT_TOL or res.feasibility > CATALOG_KKT_TOL:
        return False
    eigs = tangent_hessian_eigenvalues(p, x, t)
    return not (eigs.size and eigs[0] <= SOSC_TOL)


def _assemble_catalog(p: ProblemDef, t: float, reps: list[np.ndarray],
                      equivalence, dropped: int) -> MinimizerCatalog:
    """Catalog of ``reps`` sorted lexicographically, with their global ids."""
    if not reps:
        return MinimizerCatalog(t, np.zeros((0, p.n)), [], np.zeros(0),
                                equivalence, dropped)
    reps = sorted(reps, key=lambda r: tuple(r))
    minimizers = np.vstack(reps)
    values = np.array([p.objective(m, t) for m in minimizers])
    fmin = values.min()
    global_ids = [i for i, v in enumerate(values) if v <= fmin + 1e-9 * (1 + abs(fmin))]
    return MinimizerCatalog(t, minimizers, global_ids, values, equivalence, dropped)


def build_catalog(p: ProblemDef, t: float, starts: int, seed: int, box,
                  equivalence: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                  cluster_radius: float = CLUSTER_RADIUS) -> MinimizerCatalog:
    """Catalog the frozen-time local minimizers found by multistart flows.

    Flows start from ``starts`` uniform samples of ``box = (lo, hi)``
    (finite, lo <= hi; deterministic in ``seed``), each first restored onto
    the time-t leaf when m > 0, and run as one batch of
    :func:`~tvland.ode.frozen_time_flows`.  Limits are clustered within
    ``cluster_radius`` and each polished cluster representative is kept when
    its KKT residuals are within ``CATALOG_KKT_TOL`` and the
    tangent-restricted Lagrangian Hessian is positive definite.  Starts whose
    restoration or flow raises, flows that fail to settle, and clusters
    failing the test are dropped and counted in ``catalog.dropped``.
    """
    if starts < 1:
        raise ValueError("starts must be at least 1")
    lo = np.broadcast_to(np.asarray(box[0], dtype=float), (p.n,)).copy()
    hi = np.broadcast_to(np.asarray(box[1], dtype=float), (p.n,)).copy()
    if not (np.isfinite(lo).all() and np.isfinite(hi).all() and (lo <= hi).all()):
        raise ValueError(f"box bounds must be finite with lo <= hi, got {box}")
    rng = np.random.default_rng(seed)
    points = lo + (hi - lo) * rng.random((starts, p.n))

    dropped = 0
    if p.m:
        # flows preserve h(x), so starts must sit on the time-t leaf
        d_target = p.data_path(t)
        feasible = []
        for x0 in points:
            try:
                feasible.append(_restore_feasibility(p, x0, d_target, 1e-10))
            except (SingularConstraintError, StepSolveError):
                dropped += 1
        points = np.array(feasible).reshape(-1, p.n)
    limits, converged = frozen_time_flows(
        p, points, t, lane_errors=(SingularConstraintError, StepSolveError))
    dropped += int(np.count_nonzero(~converged))

    clusters: list[list[np.ndarray]] = []
    for lim in limits[converged]:
        for members in clusters:
            if np.linalg.norm(lim - members[0]) <= cluster_radius:
                members.append(lim)
                break
        else:
            clusters.append([lim])

    reps = []
    for members in clusters:
        rep = _polish_minimizer(p, np.mean(members, axis=0), t)
        if _is_strict_minimizer(p, rep, t):
            reps.append(rep)
        else:
            dropped += len(members)
    return _assemble_catalog(p, t, reps, equivalence, dropped)


def multistart_builder(p: ProblemDef, box, starts: int = 64, seed: int = 0,
                       equivalence=None) -> Callable[[float], MinimizerCatalog]:
    """Catalog builder running a fresh multistart search at every time."""
    return lambda t: build_catalog(p, t, starts, seed, box, equivalence)


def _continue_catalog(p: ProblemDef, prev: MinimizerCatalog,
                      t: float) -> Optional[MinimizerCatalog]:
    """Continue every entry of ``prev`` to time t, or None when one is lost.

    Each entry is Newton-continued by :func:`_polish_minimizer`; a continued
    point failing the catalog entry test is re-flowed from the old entry
    instead.  None means a flow did not settle.
    """
    reps: list[np.ndarray] = []
    for x_old in prev.minimizers:
        rep = _polish_minimizer(p, x_old, t)
        try:
            continued = _is_strict_minimizer(p, rep, t)
        except SingularConstraintError:
            continued = False
        if not continued:
            try:
                limit, converged = frozen_time_flow(p, x_old, t)
            except SingularConstraintError:
                converged = False
            if not converged:
                return None
            rep = _polish_minimizer(p, limit, t)
        # a vanished well drops into a neighboring basin; merge
        if all(np.linalg.norm(rep - r) > CLUSTER_RADIUS for r in reps):
            reps.append(rep)
    return _assemble_catalog(p, t, reps, prev.equivalence, 0)


def tracking_builder(p: ProblemDef, box, starts: int = 64, seed: int = 0,
                     equivalence=None) -> Callable[[float], MinimizerCatalog]:
    """Catalog builder that multistarts once, then continues minimizers in t.

    The first requested time pays for a full multistart.  Later times
    continue each known minimizer from its previous location by a Newton
    step (:func:`_polish_minimizer`, :func:`~tvland.geometry.newton_kkt`
    on the KKT system) and keep the continued point when it passes
    the test :func:`build_catalog` applies to its entries (KKT residuals
    within ``CATALOG_KKT_TOL``, tangent Hessian eigenvalues above
    ``SOSC_TOL``).  A point failing it is replaced by the polished limit of
    the frozen-time flow from the previous location, and a flow that does
    not settle triggers a fresh multistart, as does an empty previous
    catalog.  Suited to landscapes whose minimizer count is stable over the
    horizon; use :func:`multistart_builder` otherwise.
    """
    state: dict = {"catalog": None}

    def build(t: float) -> MinimizerCatalog:
        prev = state["catalog"]
        cat = None
        if prev is not None and len(prev):
            cat = _continue_catalog(p, prev, t)
        if cat is None:
            cat = build_catalog(p, t, starts, seed, box, equivalence)
        state["catalog"] = cat
        return cat

    return build
