"""Trajectory classification by region-of-attraction membership.

A trajectory is non-spurious when, from some cutoff time onward, every
sampled state lies in the basin of a global minimizer of the frozen-time
landscape.  Basins are probed by integrating the frozen-time flow to its
limit and matching that limit against a catalog of known minimizers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .discrete import _restore_feasibility
from .errors import SingularConstraintError, StepSolveError
from .geometry import _norm
from .ode import _FLOW_TOL, _polish_limit, frozen_time_flow, frozen_time_flows
from .problem import MinimizerCatalog, ProblemDef, Trajectory

#: Distance under which a flow limit is identified with a catalog entry, and
#: under which multistart limits are merged into one cluster.  Minimizers of
#: the shipped scenarios are separated by at least 1.
MEMBERSHIP_TOL = 1e-4


class Verdict(enum.Enum):
    NON_SPURIOUS = "non-spurious"
    SPURIOUS = "spurious"
    UNRESOLVED = "unresolved"


def _match_catalog(p: ProblemDef, catalog: MinimizerCatalog, limit: np.ndarray,
                   converged: bool) -> tuple[Optional[int], str]:
    """Catalog id within :data:`MEMBERSHIP_TOL` of a flow limit (modulo ``p.equivalence``).

    Returns ``(id, "member")``, or ``(None, reason)`` with reason
    ``"flow_not_converged"`` or ``"no_catalog_match"``.
    """
    if not converged:
        return None, "flow_not_converged"
    if len(catalog) == 0:
        return None, "no_catalog_match"
    dists = np.linalg.norm(catalog.minimizers - limit, axis=1)
    if p.equivalence is not None:
        twin = np.linalg.norm(catalog.minimizers - p.equivalence(limit), axis=1)
        dists = np.minimum(dists, twin)
    best = int(np.argmin(dists))
    if dists[best] > MEMBERSHIP_TOL:
        return None, "no_catalog_match"
    return best, "member"


def attraction_membership(p: ProblemDef, x: np.ndarray, t: float,
                          catalog: MinimizerCatalog) -> Optional[int]:
    """Catalog id of the minimizer whose basin contains x at time t.

    Runs the frozen-time flow from x; returns the index of the catalog entry
    within :data:`MEMBERSHIP_TOL` of the flow limit (modulo ``p.equivalence``), or
    None when the flow does not settle or its limit matches no entry.
    """
    limit, converged = frozen_time_flow(p, x, t)
    return _match_catalog(p, catalog, limit, converged)[0]


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
                        max_checks: int = 200) -> ClassificationResult:
    """Classify a trajectory as spurious / non-spurious on [t_bar, T].

    Membership is evaluated at every grid time >= t_bar, subsampled evenly
    to at most ``max_checks`` checks.  The verdict is NON_SPURIOUS when every
    check lands in a global basin, SPURIOUS when some check lands in a
    non-global basin, and UNRESOLVED otherwise.

    The catalogs are built first, one per check in time order (a tracking
    builder translates the first catalog or continues the previous one);
    then the membership flows of all checks run as one batch of
    :func:`~tvland.ode.frozen_time_flows`.  Each record carries the
    membership of :func:`attraction_membership` and its reason.
    """
    if not 0 <= t_bar < p.horizon:
        raise ValueError(f"t_bar must lie in [0, T), got {t_bar}")
    if max_checks < 1:
        raise ValueError(f"max_checks must be at least 1, got {max_checks}")
    idx = np.nonzero(traj.times >= t_bar - 1e-12)[0]
    if idx.size > max_checks:
        sel = np.linspace(0, idx.size - 1, max_checks).round().astype(int)
        idx = idx[sel[np.diff(sel, prepend=-1) != 0]]  # sorted: drop repeats
    times = [float(traj.times[i]) for i in idx]
    catalogs = [catalog_builder(t) for t in times]
    limits, converged = frozen_time_flows(p, traj.states[idx], times)
    records = []
    for t, catalog, limit, conv in zip(times, catalogs, limits, converged):
        member, reason = _match_catalog(p, catalog, limit, conv)
        is_global = member is not None and member in catalog.global_ids
        records.append(MembershipRecord(t, member, is_global, reason))
    if any(r.member is not None and not r.is_global for r in records):
        verdict = Verdict.SPURIOUS
    elif any(r.member is None for r in records):
        verdict = Verdict.UNRESOLVED
    else:
        verdict = Verdict.NON_SPURIOUS
    return ClassificationResult(verdict, t_bar, records)


def _assemble_catalog(p: ProblemDef, t: float, reps: list[np.ndarray],
                      dropped: int) -> MinimizerCatalog:
    """Catalog of ``reps`` sorted lexicographically, with their global ids."""
    if not reps:
        return MinimizerCatalog(t, np.zeros((0, p.n)), [], np.zeros(0), dropped)
    reps = sorted(reps, key=lambda r: tuple(r))
    minimizers = np.vstack(reps)
    values = np.array([p.objective(m, t) for m in minimizers])
    fmin = values.min()
    global_ids = [i for i, v in enumerate(values) if v <= fmin + 1e-9 * (1 + abs(fmin))]
    return MinimizerCatalog(t, minimizers, global_ids, values, dropped)


def build_catalog(p: ProblemDef, t: float, starts: int, seed: int, box) -> MinimizerCatalog:
    """Catalog the frozen-time local minimizers found by multistart flows.

    Flows start from ``starts`` uniform samples of ``box = (lo, hi)``
    (lo <= hi with a finite width hi - lo; deterministic in ``seed``), each
    first restored onto the time-t leaf when m > 0, and run as one batch of
    :func:`~tvland.ode.frozen_time_flows`.  Limits are clustered within
    :data:`MEMBERSHIP_TOL`, and a cluster is kept as the point that
    :func:`~tvland.ode._polish_limit`, the flows' own strict-minimum test,
    finds from its mean on the leaf h = d(t).  Starts whose restoration or
    flow raises, flows that fail to settle, and clusters failing the test
    are dropped and counted in ``catalog.dropped``.
    """
    if starts < 1:
        raise ValueError("starts must be at least 1")
    lo = np.broadcast_to(np.asarray(box[0], dtype=float), (p.n,)).copy()
    hi = np.broadcast_to(np.asarray(box[1], dtype=float), (p.n,)).copy()
    # in Python floats, whose overflow gives inf without a numpy warning
    if not all(a <= b and math.isfinite(b - a) for a, b in zip(lo.tolist(), hi.tolist())):
        raise ValueError(f"box bounds must have lo <= hi and a finite width hi - lo, got {box}")
    rng = np.random.default_rng(seed)
    points = lo + (hi - lo) * rng.random((starts, p.n))

    dropped = 0
    d = p.data_path(t)
    if p.m:
        # flows preserve h(x), so starts must sit on the time-t leaf
        feasible = []
        for x0 in points:
            try:
                feasible.append(_restore_feasibility(p, x0, d, 1e-10))
            except (SingularConstraintError, StepSolveError):
                dropped += 1
        points = np.array(feasible).reshape(-1, p.n)
    limits, converged = frozen_time_flows(
        p, points, t, lane_errors=(SingularConstraintError, StepSolveError))
    dropped += int(np.count_nonzero(~converged))

    clusters: list[list[np.ndarray]] = []
    for lim in limits[converged]:
        for members in clusters:
            if _norm(lim - members[0]) <= MEMBERSHIP_TOL:
                members.append(lim)
                break
        else:
            clusters.append([lim])

    reps = []
    for members in clusters:
        rep = _polish_limit(p, np.mean(members, axis=0), t, _FLOW_TOL, d=d)
        if rep is None:
            dropped += len(members)
        else:
            reps.append(rep)
    return _assemble_catalog(p, t, reps, dropped)


def multistart_builder(p: ProblemDef, box, starts: int = 64,
                       seed: int = 0) -> Callable[[float], MinimizerCatalog]:
    """Catalog builder running a fresh multistart search at every time."""
    return lambda t: build_catalog(p, t, starts, seed, box)


def _continue_catalog(p: ProblemDef, prev: MinimizerCatalog,
                      t: float) -> Optional[MinimizerCatalog]:
    """Continue every entry of ``prev`` to time t, or None when one is lost.

    Each entry is Newton-continued by :func:`~tvland.ode._polish_limit` on
    the leaf h = d(t), within 1 + |x| of it; an entry it does not continue
    is re-flowed from its old location instead, and the flow's limit is
    already polished.  None means a flow did not settle or two entries
    continued to one point: a well vanished, and the one it drained into
    need not be the only new minimizer, so the landscape is searched afresh.
    """
    d = p.data_path(t)
    reps: list[np.ndarray] = []
    for x_old in prev.minimizers:
        try:
            rep = _polish_limit(p, x_old, t, _FLOW_TOL, d=d, reach=1.0)
            converged = rep is not None
            if not converged:
                rep, converged = frozen_time_flow(p, x_old, t)
        except SingularConstraintError:
            converged = False
        if not converged or any(_norm(rep - r) <= MEMBERSHIP_TOL for r in reps):
            return None
        reps.append(rep)
    return _assemble_catalog(p, t, reps, 0)


def tracking_builder(p: ProblemDef, box, starts: int = 64, seed: int = 0,
                     catalog: Optional[MinimizerCatalog] = None
                     ) -> Callable[[float], MinimizerCatalog]:
    """Catalog builder that multistarts once, then follows the minimizers in t.

    The first requested time t0 pays for a full multistart
    (:func:`build_catalog` with ``box``, ``starts`` and ``seed``).  When
    ``p`` carries a landscape, f(x, t) = g(x - s(t)), every later time t is
    answered by that catalog translated by s(t) - s(t0): the frozen-time
    minimizers move with s while their values, their lexicographic order and
    so the global ids stay the same.  A translate is kept only where
    |grad f(x, t)| <= alpha :data:`~tvland.ode._FLOW_TOL` at every entry x;
    at the first miss (a ``replace`` swapped f) the run drops the landscape
    and continues as below.

    Otherwise later times continue each known minimizer from its previous
    location (:func:`_continue_catalog`): Newton on the KKT system finds
    the nearby point that passes the test :func:`build_catalog` applies to
    its entries (:func:`~tvland.ode._polish_limit`).  An entry it does not
    continue is replaced by the limit of the frozen-time flow from its
    previous location.  A flow that does not settle and two entries that
    continue to one point (which would shrink the catalog) trigger a fresh
    multistart.

    On either path an empty catalog triggers a fresh multistart, and a
    catalog that did not come from one has ``dropped`` = 0.  Suited to
    landscapes whose minimizer count is stable over the horizon; use
    :func:`multistart_builder` otherwise.

    A given ``catalog``, one of g at t0 = 0, replaces the first multistart.
    Every shift s has s(0) = 0, so f(., 0) = g for every problem that
    translates g: a sweep searches g once and each cell translates that
    catalog to its own s.  It is refused unless ``p`` carries a landscape
    and ``catalog.anchor_time == 0``.
    """
    if catalog is not None:
        if p.landscape is None:
            raise ValueError(f"a given catalog needs a problem with a landscape, not {p.name!r}")
        if catalog.anchor_time != 0.0:
            raise ValueError(f"a given catalog must be anchored at t = 0, "
                             f"got {catalog.anchor_time}")
    state: dict = {"catalog": catalog, "landscape": p.landscape}

    def build(t: float) -> MinimizerCatalog:
        prev, ls = state["catalog"], state["landscape"]
        cat = None
        if prev is not None and len(prev):
            if ls is not None:  # prev is the first catalog, at t0
                delta = ls.shift(t) - ls.shift(prev.anchor_time)
                cat = replace(prev, anchor_time=t, minimizers=prev.minimizers + delta,
                              dropped=0)
                if all(_norm(p.grad_objective(x, t)) <= p.alpha * _FLOW_TOL
                       for x in cat.minimizers):
                    return cat
                state["landscape"] = None
            cat = _continue_catalog(p, prev, t)
        if cat is None:
            cat = build_catalog(p, t, starts, seed, box)
        state["catalog"] = cat
        return cat

    return build
