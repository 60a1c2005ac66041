"""Closed-form sufficient (and necessary) conditions for escape of spurious minima.

Two checkers are provided.  The one-dimensional checker evaluates the three
inequalities guaranteeing that the oscillating landscape g(x - beta sin t)
has no spurious trajectories; its constants are the maximal slope C on
[y1, y3], the two barrier points m1 < y1 < m2 where g' equals -alpha beta,
and the phase window [t1, t2] where cos t = -C/(alpha beta).  The
multi-dimensional checker bounds gradient fluctuations around the spurious
minima of a general landscape through the constants C1 (largest gradient
norm on balls of radius R) and C2 (smallest inward slope on their spheres).

All extremal constants are computed by dense (quasi-random) sampling plus
local refinement; doubling the sampling budget moves them by well under the
reporting tolerance on the shipped scenarios.  The one-dimensional
refinements are written here on the standard library: a golden-section
search for maxima and a transcription of scipy's bisection for roots, which
gives scipy's floats without importing it.  scipy is loaded only by the
multi-dimensional checker, for its quasi-random samples and SLSQP
refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import _norm
from .problem import Scalar1DFunction, _is_stackable, _stackable, _vdot

_DENSE_SAMPLES = 10_000
#: Absolute and relative tolerances in y of the golden-section search and of
#: bisection (the relative one is scipy's default for bisection).
_XTOL = 1e-12
_RTOL = 4.0 * np.finfo(float).eps
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class Prop1Report:
    """Constants and verdicts of the one-dimensional escape condition."""

    alpha: float
    beta: float
    C: float
    m1: Optional[float] = None
    m2: Optional[float] = None
    t1: Optional[float] = None
    t2: Optional[float] = None
    cond1: Optional[bool] = None
    cond2: Optional[bool] = None
    cond3: Optional[bool] = None
    satisfied: Optional[bool] = None


@dataclass
class Thm3Report:
    """Constants and verdicts of the multi-dimensional escape condition."""

    alpha: float
    beta: float
    omega: float
    lam: float
    R: float
    C1: float
    C2: float
    cond1: bool
    cond2: bool
    necessary_ok: bool
    satisfied: bool


def _golden_max(fn, lo: float, hi: float) -> float:
    """Largest value of ``fn`` that a golden-section search on [lo, hi] finds.

    Kiefer's search: two interior points split the bracket in the golden
    ratio, the side beyond the worse one is dropped, and one new point is
    evaluated per step until hi - lo <= _XTOL + _RTOL max(|lo|, |hi|).  The
    relative term ends brackets far from 0, where _XTOL is below the float
    spacing; a NaN value only shrinks the bracket, so the search still ends.
    """
    if not math.isfinite(hi - lo):
        raise ValueError(f"bounds must be finite, got [{lo}, {hi}]")
    a, b = float(lo), float(hi)
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > _XTOL + _RTOL * max(abs(a), abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
    return max(fc, fd)


def _bisect(f, a: float, b: float) -> float:
    """Root of ``f`` in [a, b] by bisection, as scipy's ``optimize.bisect``.

    A transcription of scipy's C routine at ``xtol`` = _XTOL and its default
    relative tolerance (4 eps) and iteration cap (100): ``f`` is called with
    Python floats in the same order, so the root is scipy's.  Raises
    ValueError when f(a) and f(b) have the same sign or f returns NaN, and
    RuntimeError when the bracket is still wider than the tolerance after
    100 halvings.
    """
    def value(x):
        fx = f(x)
        if np.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xa, xb = float(a), float(b)
    fa = value(xa)
    fb = value(xb)
    if fa * fb > 0:
        raise ValueError("f(a) and f(b) must have different signs")
    if fa == 0:
        return xa
    if fb == 0:
        return xb
    dm = xb - xa
    for _ in range(100):
        dm *= 0.5
        xm = xa + dm
        fm = value(xm)
        if fm * fa >= 0:
            xa = xm
        if fm == 0 or abs(dm) < _XTOL + _RTOL * abs(xm):
            return xm
    raise RuntimeError("Failed to converge after 100 iterations.")


def _grid_values(fn, ys: np.ndarray) -> np.ndarray:
    """``fn`` at every point of the 1-D grid ``ys``.

    One call on the whole grid when ``fn`` is marked array-safe
    (:func:`~tvland.problem._stackable`), one call per point otherwise; the
    mark promises the same bits either way.
    """
    if _is_stackable(fn):
        return np.asarray(fn(ys), dtype=float)
    return np.array([fn(y) for y in ys])


def _line_max(fn, lo: float, hi: float, samples: int = _DENSE_SAMPLES) -> float:
    """max of fn on [lo, hi] by dense sampling plus golden-section refinement.

    The grid includes both ends, so an endpoint maximum is a grid value; an
    interior one is refined on the four grid cells around the best point,
    where the value is second-order insensitive to the argmax's last digits.
    """
    ys = np.linspace(lo, hi, samples)
    vals = _grid_values(fn, ys)
    i = int(np.argmax(vals))
    refined = _golden_max(fn, ys[max(0, i - 2)], ys[min(samples - 1, i + 2)])
    return max(float(vals[i]), float(refined))


def _max_slope(sf: Scalar1DFunction, samples: int = _DENSE_SAMPLES) -> float:
    """max of g' on [y1, y3]."""
    return _line_max(sf.dg, sf.y1, sf.y3, samples)


def _barrier_left(sf: Scalar1DFunction, level: float) -> Optional[float]:
    """Root of g' = level on (-inf, y1], bracket grown geometrically; None if none is found."""
    fn = lambda y: sf.dg(y) - level
    width = 1.0
    for _ in range(60):
        lo = sf.y1 - width
        if fn(lo) < 0.0:
            return _bisect(fn, lo, sf.y1)
        width *= 2.0
    return None


def _barrier_right(sf: Scalar1DFunction, level: float) -> Optional[float]:
    """First root of g' = level on [y1, y3] (g' > 0 beyond y3), or None.

    The first grid point where g' - level is zero, or the first grid cell
    over which it changes sign (then refined by bisection), whichever comes
    first.
    """
    zz = np.linspace(sf.y1, sf.y3, 2 * _DENSE_SAMPLES + 1)
    vals = _grid_values(sf.dg, zz) - level
    zero = vals == 0.0
    cross = np.sign(vals[:-1]) * np.sign(vals[1:]) < 0
    hits = np.flatnonzero(zero | np.append(cross, False))
    if hits.size == 0:
        return None
    j = hits[0]
    if zero[j]:
        return float(zz[j])
    return _bisect(lambda y: sf.dg(y) - level, zz[j], zz[j + 1])


def prop1_check(sf: Scalar1DFunction, alpha: float, beta: float) -> Prop1Report:
    """Evaluate the three escape inequalities for g(x - beta sin t).

    1. alpha beta >= C,
    2. barrier points m1 < y1 < m2 with g'(m1) = g'(m2) = -alpha beta exist,
    3. -C/alpha (t2 - t1) - beta (sin t2 - sin t1) + m1 >= m2.

    m1, m2, t1 and t2 are reported only when both barrier points exist
    (t1 and t2 also need alpha beta >= C); a missing constant makes the
    conditions that need it false.
    """
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise ValueError(f"alpha and beta must be positive and finite, got {alpha}, {beta}")
    report = Prop1Report(alpha=alpha, beta=beta, C=_max_slope(sf))
    level = -alpha * beta
    m1 = _barrier_left(sf, level)
    m2 = None if m1 is None else _barrier_right(sf, level)
    report.cond1 = alpha * beta >= report.C
    report.cond2 = m2 is not None
    report.cond3 = False
    if report.cond2:
        report.m1, report.m2 = m1, m2
        ratio = report.C / (alpha * beta)
        if ratio <= 1.0:
            report.t1 = float(np.arccos(-ratio))
            report.t2 = 2.0 * np.pi - report.t1
            lhs = (-report.C / alpha * (report.t2 - report.t1)
                   - beta * (np.sin(report.t2) - np.sin(report.t1)) + m1)
            report.cond3 = bool(lhs >= m2)
    report.satisfied = bool(report.cond1 and report.cond2 and report.cond3)
    return report


@dataclass
class RegionResult:
    """Grid of prop1 verdicts over (alpha, beta) pairs."""

    alphas: np.ndarray
    betas: np.ndarray
    satisfied: np.ndarray  # (len(alphas), len(betas)) bool
    failed: np.ndarray     # cells where the checker itself errored


def prop1_region(sf: Scalar1DFunction, alpha_grid, beta_grid) -> RegionResult:
    """prop1_check verdict for every (alpha, beta) grid cell.

    Cell-level errors map to an unsatisfied cell with its ``failed`` flag
    set; they never abort the scan.
    """
    alphas = np.asarray(list(alpha_grid), dtype=float)
    betas = np.asarray(list(beta_grid), dtype=float)
    if not (np.all((alphas > 0) & (alphas < np.inf)) and np.all((betas > 0) & (betas < np.inf))):
        raise ValueError("grids must be positive and finite")
    sat = np.zeros((alphas.size, betas.size), dtype=bool)
    failed = np.zeros_like(sat)
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            try:
                sat[i, j] = prop1_check(sf, a, b).satisfied
            except Exception:
                failed[i, j] = True
    return RegionResult(alphas, betas, sat, failed)


def _sobol_directions(n: int, count: int, seed: int, extra: int = 0):
    """``count`` quasi-random unit directions in R^n, and ``extra`` further coordinates.

    One scrambled Sobol sequence of dimension n + extra: its first n
    coordinates are mapped through the inverse Gaussian CDF and normalised,
    the remaining ``extra`` are returned as they are.
    """
    from scipy.special import ndtri
    from scipy.stats import qmc  # slow to import; only n >= 2 samples need it

    u = qmc.Sobol(d=n + extra, scramble=True, seed=seed).random(count)
    gauss = ndtri(np.clip(u[:, :n], 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(gauss, axis=1)
    norms[norms == 0] = 1.0
    return gauss / norms[:, None], u[:, n:]


def _ball_samples(center: np.ndarray, R: float, count: int, seed: int) -> np.ndarray:
    """Quasi-random points filling the ball B(center, R)."""
    n = center.size
    dirs, u = _sobol_directions(n, count, seed, extra=1)
    return center + dirs * (R * u[:, 0] ** (1.0 / n))[:, None]


def _sphere_samples(n: int, count: int, seed: int) -> np.ndarray:
    """Quasi-random points on the unit sphere of R^n."""
    return _sobol_directions(n, count, seed)[0]


def line_form(sf: Scalar1DFunction):
    """A scalar landscape and its gradient as functions of y in R^1.

    make_damped_sinusoid takes both, thm3_check the gradient.  The gradient
    also takes an (L, 1) stack, marked array-safe when ``sf.dg`` is.
    """
    def grad(y):
        if getattr(y, "ndim", 1) == 2:  # a stack of points
            return sf.dg(y)
        return np.array([sf.dg(y[0])])

    if _is_stackable(sf.dg):
        _stackable(grad)
    return (lambda y: sf.g(y[0])), grad


def thm3_check(grad_g, minima, R: float, alpha: float, beta: float,
               omega: float, lam: float,
               ball_samples: int = 8192,
               sphere_samples: int = 1024,
               seed: int = 0) -> Thm3Report:
    """Evaluate the multi-dimensional escape condition around spurious minima.

    ``grad_g`` is the gradient of a landscape g and ``minima`` lists the
    spurious local minimizers y_i of g.  The constants

        C1 = max over union of B(y_i, R) of |grad g|,
        C2 = min over unit d and i of <grad g(y_i - R d), d>,

    feed the two inequalities

        2 alpha omega (beta e^(-lam pi / (2 omega)) - R) / pi > C1,
        alpha beta e^(-lam R alpha / (C1 + alpha beta omega))
            sqrt(lam^2 + omega^2) < C2,

    and the necessary condition alpha beta sqrt(omega^2 + lam^2) >= -C2.
    The one-dimensional case is handled exactly (two directions, dense line
    search, one call of ``grad_g`` on the stack (L, 1) of all line points
    when ``grad_g`` is marked array-safe) and reads neither sample count;
    higher dimensions take ``ball_samples`` and ``sphere_samples`` Sobol'
    points (powers of 2 keep them balanced) with local refinement.  The
    refined iterate is projected onto the ball (or the unit sphere) and used
    whatever the optimizer's status; it can only improve on the sampled
    extremum.
    """
    if not 0 < R < math.inf:
        raise ValueError(f"R must be positive and finite, got {R}")
    if not (0 < alpha < math.inf and 0 < beta < math.inf and 0 < omega < math.inf
            and 0 <= lam < math.inf):
        raise ValueError("need finite alpha, beta, omega > 0 and finite lam >= 0")
    minima = [np.atleast_1d(np.asarray(y, dtype=float)) for y in minima]
    if not minima:
        raise ValueError("minima must be nonempty")
    n = minima[0].size

    C1 = -np.inf
    C2 = np.inf
    if n == 1:
        def slope(z):
            """g' at the point z, or along the 1-D array z (marked grad_g only)."""
            if np.ndim(z):
                return np.asarray(grad_g(z[:, None]), dtype=float)[:, 0]
            return float(np.atleast_1d(grad_g(np.array([z])))[0])

        def abs_slope(z):
            return abs(slope(z))

        if _is_stackable(grad_g):
            _stackable(abs_slope)
        for y in minima:
            y0 = float(y[0])
            C1 = max(C1, _line_max(abs_slope, y0 - R, y0 + R))
            C2 = min(C2, -slope(y0 + R), slope(y0 - R))
    else:
        for k, y in enumerate(minima):
            pts = _ball_samples(y, R, ball_samples, seed + k)
            norms = np.array([_norm(grad_g(pt)) for pt in pts])
            best = pts[int(np.argmax(norms))]
            C1 = max(C1, float(norms.max()), _refine_ball_max(grad_g, y, R, best))
            dirs = _sphere_samples(n, sphere_samples, seed + 17 * (k + 1))
            vals = np.array([float(_vdot(grad_g(y - R * d), d)) for d in dirs])
            dbest = dirs[int(np.argmin(vals))]
            C2 = min(C2, float(vals.min()), _refine_sphere_min(grad_g, y, R, dbest))

    lhs1 = 2.0 * alpha * omega * (beta * np.exp(-lam * np.pi / (2 * omega)) - R) / np.pi
    lhs2 = alpha * beta * np.exp(-lam * R * alpha / (C1 + alpha * beta * omega)) \
        * np.sqrt(lam * lam + omega * omega)
    cond1 = bool(lhs1 > C1)
    cond2 = bool(lhs2 < C2)
    necessary_ok = bool(alpha * beta * np.sqrt(omega * omega + lam * lam) >= -C2)
    return Thm3Report(alpha=alpha, beta=beta, omega=omega, lam=lam, R=R,
                      C1=float(C1), C2=float(C2), cond1=cond1, cond2=cond2,
                      necessary_ok=necessary_ok,
                      satisfied=bool(cond1 and cond2))


def _refine_ball_max(grad_g, center: np.ndarray, R: float, x0: np.ndarray) -> float:
    """|grad g| at an SLSQP local maximiser of |grad g| on B(center, R).

    The iterate is used whatever the optimizer's status (SLSQP may stop with
    a non-success status next to the optimum), projected onto the ball so
    the value is one attained there.  A non-finite iterate gives -inf, so
    the caller keeps its sampled maximum.
    """
    from scipy import optimize  # slow to import; only n >= 2 refines

    res = optimize.minimize(
        lambda x: -float(_vdot(grad_g(x), grad_g(x))),
        x0, method="SLSQP",
        constraints=[{"type": "ineq",
                      "fun": lambda x: R * R - float(_vdot(x - center, x - center))}],
        options={"maxiter": 200, "ftol": 1e-14})
    x = res.x
    if not np.all(np.isfinite(x)):
        return -np.inf
    offset = x - center
    dist = _norm(offset)
    if dist > R:
        x = center + offset * (R / dist)
    return _norm(grad_g(x))


def _refine_sphere_min(grad_g, center: np.ndarray, R: float, d0: np.ndarray) -> float:
    """<grad g(center - R d), d> at an SLSQP local minimiser over unit d.

    The iterate is used whatever the optimizer's status and normalised onto
    the unit sphere before evaluation.  A non-finite or zero iterate gives
    +inf, so the caller keeps its sampled minimum.
    """
    from scipy import optimize  # slow to import; only n >= 2 refines

    res = optimize.minimize(
        lambda d: float(_vdot(grad_g(center - R * d), d)),
        d0, method="SLSQP",
        constraints=[{"type": "eq",
                      "fun": lambda d: float(_vdot(d, d)) - 1.0}],
        options={"maxiter": 200, "ftol": 1e-14})
    length = _norm(res.x)
    if not np.isfinite(length) or length == 0.0:
        return np.inf
    d = res.x / length
    return float(_vdot(grad_g(center - R * d), d))
