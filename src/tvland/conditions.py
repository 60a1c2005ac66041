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
refinements (a bounded Brent search and bisection) are transcriptions of
scipy's, so they give scipy's floats without importing it; scipy is loaded
only by the multi-dimensional checker, for its quasi-random samples and
SLSQP refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import RootBracketError
from .problem import Scalar1DFunction, _is_stackable, _stackable

_DENSE_SAMPLES = 10_000
#: Absolute tolerance in y of the bounded Brent search and of bisection.
_XTOL = 1e-12


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


def _fminbound(func, x1, x2, maxfun: int = 500):
    """Smallest value of ``func`` that a bounded Brent search on [x1, x2] finds.

    A transcription of scipy's ``minimize_scalar(method="bounded")`` (Brent's
    fmin: parabolic steps guarded by golden sections) at ``xatol`` = _XTOL,
    without its status reporting; it performs the same floating-point
    operations in the same order, so it returns scipy's value.
    """
    if not (np.isfinite(x1) and np.isfinite(x2)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if x1 > x2:
        raise ValueError("The lower bound exceeds the upper bound.")
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + _XTOL / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + _XTOL / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return fx


def _bisect(f, a: float, b: float) -> float:
    """Root of ``f`` in [a, b] by bisection, as scipy's ``optimize.bisect``.

    A transcription of scipy's C routine at ``xtol`` = _XTOL and its default
    relative tolerance (4 eps) and iteration cap (100): ``f`` is called with
    Python floats in the same order, so the root is scipy's.  Raises
    ValueError when f(a) and f(b) have the same sign or f returns NaN, and
    RuntimeError when the bracket is still wider than the tolerance after
    100 halvings.
    """
    rtol = 4.0 * np.finfo(float).eps

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
        if fm == 0 or abs(dm) < _XTOL + rtol * abs(xm):
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
    """max of fn on [lo, hi] by dense sampling plus bounded Brent refinement."""
    ys = np.linspace(lo, hi, samples)
    vals = _grid_values(fn, ys)
    i = int(np.argmax(vals))
    refined = _fminbound(lambda y: -fn(y), ys[max(0, i - 2)], ys[min(samples - 1, i + 2)])
    return max(float(vals[i]), float(-refined))


def _max_slope(sf: Scalar1DFunction, samples: int = _DENSE_SAMPLES) -> float:
    """max of g' on [y1, y3]."""
    return _line_max(sf.dg, sf.y1, sf.y3, samples)


def _barrier_left(sf: Scalar1DFunction, level: float) -> float:
    """Root of g' = level on (-inf, y1], bracket grown geometrically."""
    fn = lambda y: sf.dg(y) - level
    width = 1.0
    for _ in range(60):
        lo = sf.y1 - width
        if fn(lo) < 0.0:
            return _bisect(fn, lo, sf.y1)
        width *= 2.0
    raise RootBracketError(f"g' never reaches {level:g} left of y1")


def _barrier_right(sf: Scalar1DFunction, level: float) -> float:
    """First root of g' = level on [y1, y3] (g' > 0 beyond y3).

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
        raise RootBracketError(f"g' never reaches {level:g} right of y1")
    j = hits[0]
    if zero[j]:
        return float(zz[j])
    return _bisect(lambda y: sf.dg(y) - level, zz[j], zz[j + 1])


def prop1_constants(sf: Scalar1DFunction, alpha: float, beta: float) -> Prop1Report:
    """Compute C, m1, m2, t1, t2 for the one-dimensional condition.

    Raises RootBracketError when the barrier points m1/m2 do not exist
    (g' never reaches -alpha beta), in which case the second condition of
    the checker is false and the constants are absent.
    """
    return _with_barriers(sf, Prop1Report(alpha=alpha, beta=beta, C=_max_slope(sf)))


def _with_barriers(sf: Scalar1DFunction, report: Prop1Report) -> Prop1Report:
    """``report``, which holds alpha, beta and C, with m1, m2, t1 and t2 set.

    Raises RootBracketError, leaving ``report`` as it was, when m1 or m2
    does not exist.
    """
    alpha, beta = report.alpha, report.beta
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    level = -alpha * beta
    report.m1, report.m2 = _barrier_left(sf, level), _barrier_right(sf, level)
    ratio = report.C / (alpha * beta)
    if ratio <= 1.0:
        report.t1 = float(np.arccos(-ratio))
        report.t2 = 2.0 * np.pi - report.t1
    return report


def prop1_check(sf: Scalar1DFunction, alpha: float, beta: float) -> Prop1Report:
    """Evaluate the three escape inequalities for g(x - beta sin t).

    1. alpha beta >= C,
    2. barrier points m1 < y1 < m2 with g'(m1) = g'(m2) = -alpha beta exist,
    3. -C/alpha (t2 - t1) - beta (sin t2 - sin t1) + m1 >= m2.

    A missing constant forces the dependent condition false rather than
    raising.
    """
    report = Prop1Report(alpha=alpha, beta=beta, C=_max_slope(sf))
    try:
        _with_barriers(sf, report)
    except RootBracketError:
        pass  # no barrier points: cond2 and cond3 are false
    report.cond1 = alpha * beta >= report.C
    report.cond2 = report.m1 is not None and report.m2 is not None
    if report.cond2 and report.t1 is not None:
        lhs = (-report.C / alpha * (report.t2 - report.t1)
               - beta * (np.sin(report.t2) - np.sin(report.t1)) + report.m1)
        report.cond3 = bool(lhs >= report.m2)
    else:
        report.cond3 = False
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
    if np.any(alphas <= 0) or np.any(betas <= 0):
        raise ValueError("grids must be positive")
    sat = np.zeros((alphas.size, betas.size), dtype=bool)
    failed = np.zeros_like(sat)
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            try:
                sat[i, j] = prop1_check(sf, a, b).satisfied
            except Exception:
                failed[i, j] = True
    return RegionResult(alphas, betas, sat, failed)


def _ball_samples(center: np.ndarray, R: float, count: int, seed: int) -> np.ndarray:
    """Quasi-random points filling the ball B(center, R)."""
    from scipy.stats import qmc  # slow to import; only n >= 2 samples need it

    n = center.size
    sob = qmc.Sobol(d=n + 1, scramble=True, seed=seed)
    u = sob.random(count)
    gauss = _inverse_gauss(u[:, :n])
    norms = np.linalg.norm(gauss, axis=1)
    norms[norms == 0] = 1.0
    radii = R * u[:, n] ** (1.0 / n)
    return center + (gauss / norms[:, None]) * radii[:, None]


def _sphere_samples(n: int, count: int, seed: int) -> np.ndarray:
    from scipy.stats import qmc  # slow to import; only n >= 2 samples need it

    sob = qmc.Sobol(d=n, scramble=True, seed=seed)
    gauss = _inverse_gauss(sob.random(count))
    norms = np.linalg.norm(gauss, axis=1)
    norms[norms == 0] = 1.0
    return gauss / norms[:, None]


def _inverse_gauss(u: np.ndarray) -> np.ndarray:
    from scipy.special import ndtri

    return ndtri(np.clip(u, 1e-12, 1 - 1e-12))


def thm3_check(g, grad_g, minima, R: float, alpha: float, beta: float,
               omega: float, lam: float,
               ball_samples: int = _DENSE_SAMPLES,
               sphere_samples: int = 1000,
               seed: int = 0) -> Thm3Report:
    """Evaluate the multi-dimensional escape condition around spurious minima.

    ``minima`` lists the spurious local minimizers y_i of g.  The constants

        C1 = max over union of B(y_i, R) of |grad g|,
        C2 = min over unit d and i of <grad g(y_i - R d), d>,

    feed the two inequalities

        2 alpha omega (beta e^(-lam pi / (2 omega)) - R) / pi > C1,
        alpha beta e^(-lam R alpha / (C1 + alpha beta omega))
            sqrt(lam^2 + omega^2) < C2,

    and the necessary condition alpha beta sqrt(omega^2 + lam^2) >= -C2.
    The one-dimensional case is handled exactly (two directions, dense line
    search, one call of ``grad_g`` on the stack (L, 1) of all line points
    when ``grad_g`` is marked array-safe); higher dimensions use
    quasi-random sampling with local refinement.  The refined iterate is
    projected onto the ball (or the unit sphere) and used whatever the
    optimizer's status; it can only improve on the sampled extremum.
    """
    if not 0 < R < math.inf:
        raise ValueError(f"R must be positive and finite, got {R}")
    if alpha <= 0 or beta <= 0 or omega <= 0 or lam < 0:
        raise ValueError("need alpha, beta, omega > 0 and lam >= 0")
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

        def squared_slope(z):
            s = slope(z)
            return s * s

        if _is_stackable(grad_g):
            _stackable(squared_slope)
        for y in minima:
            y0 = float(y[0])
            # sqrt(s * s) == |s| in binary64, so the squared slope gives |g'|
            C1 = max(C1, math.sqrt(_line_max(squared_slope, y0 - R, y0 + R)))
            C2 = min(C2, -slope(y0 + R), slope(y0 - R))
    else:
        for k, y in enumerate(minima):
            pts = _ball_samples(y, R, ball_samples, seed + k)
            norms = np.array([np.linalg.norm(grad_g(pt)) for pt in pts])
            best = pts[int(np.argmax(norms))]
            C1 = max(C1, float(norms.max()), _refine_ball_max(grad_g, y, R, best))
            dirs = _sphere_samples(n, sphere_samples, seed + 17 * (k + 1))
            vals = np.array([float(np.dot(grad_g(y - R * d), d)) for d in dirs])
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
        lambda x: -float(np.dot(grad_g(x), grad_g(x))),
        x0, method="SLSQP",
        constraints=[{"type": "ineq",
                      "fun": lambda x: R * R - float(np.dot(x - center, x - center))}],
        options={"maxiter": 200, "ftol": 1e-14})
    x = res.x
    if not np.all(np.isfinite(x)):
        return -np.inf
    offset = x - center
    dist = float(np.linalg.norm(offset))
    if dist > R:
        x = center + offset * (R / dist)
    return float(np.linalg.norm(grad_g(x)))


def _refine_sphere_min(grad_g, center: np.ndarray, R: float, d0: np.ndarray) -> float:
    """<grad g(center - R d), d> at an SLSQP local minimiser over unit d.

    The iterate is used whatever the optimizer's status and normalised onto
    the unit sphere before evaluation.  A non-finite or zero iterate gives
    +inf, so the caller keeps its sampled minimum.
    """
    from scipy import optimize  # slow to import; only n >= 2 refines

    res = optimize.minimize(
        lambda d: float(np.dot(grad_g(center - R * d), d)),
        d0, method="SLSQP",
        constraints=[{"type": "eq",
                      "fun": lambda d: float(np.dot(d, d)) - 1.0}],
        options={"maxiter": 200, "ftol": 1e-14})
    length = float(np.linalg.norm(res.x))
    if not np.isfinite(length) or length == 0.0:
        return np.inf
    d = res.x / length
    return float(np.dot(grad_g(center - R * d), d))
