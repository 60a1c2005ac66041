"""Time-varying problem definitions and the shipped scenarios.

A problem is

    minimize    f(x, t)
    subject to  h_i(x) = d_i(t),   i = 1..m,   t in [0, T]

with a regularization weight ``alpha`` that couples consecutive solutions of
the sequentially solved (proximally regularized) problem.  Scenario
constructors return immutable :class:`ProblemDef` objects whose evaluation
maps are pure, so problems are safe to share across workers.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

Vector = np.ndarray
Matrix = np.ndarray

#: np.vdot's C function, without the __array_function__ dispatch np.vdot
#: adds to every call (np.vdot itself where numpy does not expose it).  Like
#: np.vdot, and unlike ndarray.dot, it keeps the interpreter lock.
_vdot = getattr(np.vdot, "_implementation", np.vdot)


@dataclass(frozen=True)
class ProblemDef:
    """A time-varying equality-constrained problem.

    Attributes
    ----------
    n, m : int
        State dimension and constraint count (``m`` may be 0).
    objective, grad_objective : callable
        ``f(x, t)`` and its gradient in ``x``.
    constraints, jacobian : callable
        ``h(x)`` (m-vector) and its Jacobian (m x n).
    data_path, data_rate : callable
        ``d(t)`` and its derivative (m-vectors).
    horizon : float
        Final time ``T`` of the model window ``[0, T]``.
    alpha : float
        Proximal regularization weight, > 0.
    hess_objective, constraint_hessians : callable, optional
        Second derivatives; where one is absent, central differences of
        ``grad_objective`` or ``jacobian`` stand in for it.  Backward Euler
        steps in floats when m = 0 and ``grad_objective`` and
        ``hess_objective`` both carry float forms (:func:`point_form`).
    landscape : Landscape, optional
        The scalar g and s(t) of f(x, t) = g(x - s(t)) (example1, damped).
        :func:`~tvland.classify.tracking_builder` translates its first
        catalog by s(t) - s(t0) and keeps a translate only where
        ``grad_objective`` vanishes at every entry.
    search_box : (lo, hi), optional
        Bounds, on every coordinate, of a box holding the frozen-time
        minimizers over [0, T]: the CLI's default catalog multistart box.
    equivalence : callable, optional
        An involution mapping a minimizer to its symmetric twin (matrec's
        sign flip X <-> -X); basin membership identifies points modulo it.
        A ``replace`` that changes f or h must drop it.
    """

    n: int
    m: int
    objective: Callable[[Vector, float], float]
    grad_objective: Callable[[Vector, float], Vector]
    constraints: Callable[[Vector], Vector]
    jacobian: Callable[[Vector], Matrix]
    data_path: Callable[[float], Vector]
    data_rate: Callable[[float], Vector]
    horizon: float
    alpha: float
    hess_objective: Optional[Callable[[Vector, float], Matrix]] = None
    constraint_hessians: Optional[Callable[[Vector], Sequence[Matrix]]] = None
    name: str = ""
    landscape: Optional["Landscape"] = None
    search_box: Optional[tuple[float, float]] = None
    equivalence: Optional[Callable[[Vector], Vector]] = None

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if not 0 <= self.m <= self.n:
            raise ValueError(f"m must satisfy 0 <= m <= n, got m={self.m}, n={self.n}")

    def replace(self, **changes) -> "ProblemDef":
        """Return a copy with the given fields replaced (e.g. ``alpha``)."""
        return dataclasses.replace(self, **changes)


def start_vector(p: ProblemDef, x0) -> np.ndarray:
    """``x0`` as a float array; raises ValueError unless it is finite of shape (p.n,)."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (p.n,):
        raise ValueError(f"x0 must have shape ({p.n},), got {x0.shape}")
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {x0}")
    return x0


def freeze_data(p: ProblemDef, t0: float) -> ProblemDef:
    """Freeze the data path of ``p`` at time ``t0`` (d constant, d-dot = 0)."""
    d0 = np.array(p.data_path(t0), dtype=float, copy=True)
    zero = np.zeros_like(d0)
    return p.replace(
        data_path=lambda t: d0.copy(),
        data_rate=lambda t: zero.copy(),
        name=p.name + f"[frozen@t={t0:g}]",
    )


@dataclass
class Trajectory:
    """A time grid with states and per-step diagnostics.

    ``kkt_stationarity`` and ``feasibility`` are measured against the
    un-regularized problem at the grid time; ``sigma_min`` is the smallest
    singular value of the constraint Jacobian (infinity when m = 0) and
    ``step_norm[k]`` is ``|x_k - x_{k-1}|`` (0 at k = 0).
    """

    times: np.ndarray
    states: np.ndarray
    kkt_stationarity: np.ndarray
    feasibility: np.ndarray
    sigma_min: np.ndarray
    step_norm: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("times and states must have equal length")
        if self.times[0] != 0.0:
            raise ValueError("trajectory must start at t = 0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        for name in ("kkt_stationarity", "feasibility", "sigma_min", "step_norm"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape[0] != self.times.shape[0]:
                raise ValueError(f"{name} must have one entry per grid time")
            setattr(self, name, arr)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass
class MinimizerCatalog:
    """Known local minimizers of the frozen-time problem at ``anchor_time``.

    ``global_ids`` indexes the entries attaining the least objective value.
    """

    anchor_time: float
    minimizers: np.ndarray  # (k, n)
    global_ids: list[int]
    objective_values: np.ndarray  # (k,)
    dropped: int = 0

    def __post_init__(self):
        self.minimizers = np.atleast_2d(np.asarray(self.minimizers, dtype=float))
        if len(self.minimizers) and not self.global_ids:
            raise ValueError("nonempty catalog must have at least one global id")

    def __len__(self) -> int:
        return 0 if self.minimizers.size == 0 else len(self.minimizers)


@dataclass(frozen=True)
class Scalar1DFunction:
    """A scalar landscape with exactly three stationary points y1 < y2 < y3.

    y1 and y3 are local minima with g(y1) > g(y3) (so y3 is global) and y2 is
    a local maximum.  ``dg`` and ``d2g`` take and return Python floats in the
    float forms of a translated problem's maps (:func:`point_form`).
    """

    g: Callable[[float], float]
    dg: Callable[[float], float]
    d2g: Callable[[float], float]
    stationary_points: tuple[float, float, float]

    @property
    def y1(self) -> float:
        return self.stationary_points[0]

    @property
    def y2(self) -> float:
        return self.stationary_points[1]

    @property
    def y3(self) -> float:
        return self.stationary_points[2]


class Landscape(NamedTuple):
    """A scalar landscape g translated by s(t) = beta e^(-lam t) sin(omega t)."""

    g: Scalar1DFunction
    beta: float
    omega: float
    lam: float

    def shift(self, t: float) -> float:
        """s(t), by :func:`_shift`."""
        return _shift(self.beta, self.omega, self.lam)(t)


#: Attribute marking a callable that also accepts a stack of points.
_STACKABLE = "_tvland_stackable"


def _stackable(fn):
    """Mark ``fn`` as array-safe.

    A marked problem map takes either what it takes per point (``x`` of
    shape (n,), a scalar ``t``) or a stack (``x`` of shape (L, n), ``t`` of
    shape (L, 1)) and returns the stack of its per-point results, each row
    bit for bit the per-point result: a gradient returns (L, n), a Jacobian
    (L, m, n), constraint values, data d(t) and its rate d'(t) (L, m).  A
    marked derivative ``dg`` of a :class:`Scalar1DFunction` takes a float or
    an array of floats and returns, entry by entry, bit for bit its value at
    each float.  The mark lives on the callable, so ``ProblemDef.replace``
    with another map drops it.
    """
    setattr(fn, _STACKABLE, True)
    return fn


def _is_stackable(fn) -> bool:
    """Whether ``fn`` carries the array-safe mark of :func:`_stackable`."""
    return getattr(fn, _STACKABLE, False)


def each_row(fn, *args) -> np.ndarray:
    """A problem map at each row of ``args``, as one stacked float array.

    ``args`` are (L, n) state stacks and (L,) time vectors, in the order
    ``fn`` takes them.  A map marked array-safe (:func:`_stackable`) gets
    them in one call, each time vector as an (L, 1) column; any other map
    is called row by row, with one state and one time per call.
    """
    if _is_stackable(fn):
        return np.asarray(fn(*(a[:, None] if a.ndim == 1 else a for a in args)), dtype=float)
    return np.array([fn(*row) for row in zip(*args)], dtype=float)


def has_stacked_gradient(p: "ProblemDef") -> bool:
    """Whether the frozen-time field of ``p`` can be evaluated on stacks.

    True for unconstrained problems whose gradient is marked array-safe.
    """
    return p.m == 0 and _is_stackable(p.grad_objective)


#: Attribute holding the float form of a per-point map of an n = 1 problem.
_POINT = "_tvland_point"


def point_form(fn):
    """The float form of an n = 1 problem's gradient or Hessian ``fn``, or None.

    The form maps floats y and t to the one entry of ``fn(np.array([y]), t)``,
    bit for bit, as a float.  Like the array-safe mark it lives on the
    callable, so ``ProblemDef.replace`` with another map drops it.
    """
    return getattr(fn, _POINT, None)


# ---------------------------------------------------------------------------
# Scenario: oscillating quartic (one-dimensional, unconstrained)
# ---------------------------------------------------------------------------

def _quartic(y):
    return 0.25 * y**4 + 0.125 * y**3 - 2.0 * y**2 - 1.5 * y + 8.0


@_stackable
def _quartic_d1(y):
    # products, not powers: numpy's array ``power`` rounds y**3 differently
    # from scalar ``pow`` for a few percent of inputs, while products round
    # the same for scalars, single points and stacks
    return y * y * y + 0.375 * (y * y) - 4.0 * y - 1.5


def _quartic_d2(y):
    return 3.0 * y**2 + 0.75 * y - 4.0


#: The quartic with its stationary points: spurious minimum -2, maximum -3/8,
#: global minimum 2.  Its ``dg`` is marked array-safe.
QUARTIC = Scalar1DFunction(g=_quartic, dg=_quartic_d1, d2g=_quartic_d2,
                           stationary_points=(-2.0, -0.375, 2.0))


_EMPTY = np.zeros(0)


def _unconstrained(n: int, **fields) -> ProblemDef:
    """A problem on R^n with m = 0; ``fields`` are its other ProblemDef fields."""
    empty_jac = np.zeros((0, n))
    return ProblemDef(n=n, m=0, constraints=lambda x: _EMPTY, jacobian=lambda x: empty_jac,
                      constraint_hessians=lambda x: (), data_path=lambda t: _EMPTY,
                      data_rate=lambda t: _EMPTY, **fields)


def _shift(beta: float, omega: float, lam: float, sin=np.sin) -> Callable:
    """s(t) = beta e^(-lam t) sin(omega t) at a float t, or at an (L, 1) time column.

    ``sin`` is the sine it calls: ``np.sin`` takes both, ``math.sin`` (the
    same bits on a float, without numpy-scalar arithmetic) a float only; with
    ``math.sin`` the factor e^(-lam t) is numpy's, read back as a float
    (``math.exp`` differs from it in the last bit at some t).
    example1's beta sin t (lam = 0, omega = 1) skips the exact factors e^(-0 t) = 1 and 1 t.
    """
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if not (0 < omega < math.inf and 0 <= lam < math.inf):
        raise ValueError(f"need finite omega > 0 and lam >= 0, got omega={omega}, lam={lam}")
    b, exp = float(beta), np.exp  # bound here: each call saves two lookups
    if lam == 0 and omega == 1:
        return lambda t: b * sin(t)
    if sin is math.sin:
        return lambda t: b * float(exp(-lam * t)) * sin(omega * t)
    return lambda t: b * exp(-lam * t) * sin(omega * t)


def _translated_quartic(beta: float, alpha: float, omega: float, lam: float,
                        name: str) -> ProblemDef:
    """f(x, t) = g(x - s(t)) on [0, 2 pi / omega] for the quartic g and s of :func:`_shift`.

    The problem carries its :class:`Landscape`; its gradient is marked array-safe,
    and its gradient and Hessian carry their float forms (:func:`point_form`).
    One point is evaluated in Python floats, a stack in numpy arrays, with
    the same bits (``math.sin`` and ``np.sin`` agree on these floats).
    """
    landscape = Landscape(QUARTIC, float(beta), omega, lam)
    s, s_point = _shift(beta, omega, lam), _shift(beta, omega, lam, math.sin)
    dg, d2g = QUARTIC.dg, QUARTIC.d2g

    def objective(x, t):
        return _quartic(x.item(0) - s_point(t))

    def grad_point(y, t):
        return dg(y - s_point(t))

    def hess_point(y, t):
        return d2g(y - s_point(t))

    @_stackable
    def grad(x, t):
        if getattr(x, "ndim", 1) == 2:  # a stack of points, one time per row
            return _quartic_d1(x - s(t))
        return np.array([grad_point(x.item(0), t)])

    def hess(x, t):
        return np.array([[hess_point(x.item(0), t)]])

    setattr(grad, _POINT, grad_point)
    setattr(hess, _POINT, hess_point)
    return _unconstrained(1, objective=objective, grad_objective=grad, hess_objective=hess,
                          horizon=2.0 * np.pi / omega, alpha=alpha, name=name,
                          landscape=landscape,
                          # the quartic's minima move by up to beta
                          search_box=(-(beta + 6.0), beta + 6.0))


def make_example1(beta: float, alpha: float = 1.0) -> tuple[ProblemDef, Scalar1DFunction]:
    """Oscillating double-well scenario: f(x, t) = g(x - beta sin t) on [0, 2 pi].

    The landscape keeps the spurious minimum -2 of the quartic g (:data:`QUARTIC`)
    at -2 + beta sin t at all times.
    """
    return _translated_quartic(beta, alpha, 1.0, 0.0, "example1"), QUARTIC


# ---------------------------------------------------------------------------
# Scenario: rank-one matrix recovery with a moving target (n = 6, m = 4)
# ---------------------------------------------------------------------------

_SQ3 = np.sqrt(3.0)
_SQ2 = np.sqrt(2.0)

SENSING_MATRICES = (
    np.array([[1.0, 0.0], [0.0, 0.5]]),
    np.array([[0.0, _SQ3 / 2], [_SQ3 / 2, 0.0]]),
    np.array([[1.0, -1.0 / _SQ2], [1.0 / _SQ2, 0.0]]),
    np.array([[0.0, 0.0], [0.0, _SQ3 / 2]]),
)

# symmetrized sensing matrices A_i + A_i^T used by gradients and Hessians,
# stacked (4, 2, 2) so that one matmul applies all four
_SYM = np.array([a + a.T for a in SENSING_MATRICES])


def matrix_recovery_target(t) -> np.ndarray:
    """Rank-one factor Z(t) tracked by the globally optimal solution.

    For an (L, 1) time column, the (L, 2) stack of Z at each time.
    """
    z = (0.8 + 0.2 * np.cos(t), 0.2 * np.sin(t))
    return np.hstack(z) if np.ndim(t) == 2 else np.array(z)


def _target_rate(t) -> np.ndarray:
    """Z'(t); for an (L, 1) time column, the (L, 2) stack of Z' at each time."""
    dz = (-0.2 * np.sin(t), 0.2 * np.cos(t))
    return np.hstack(dz) if np.ndim(t) == 2 else np.array(dz)


def _measure(X: np.ndarray) -> np.ndarray:
    """<A_i, X X^T> for each sensing matrix (uses the symmetrized form).

    For a stack X of shape (L, 2), the (L, 4) rows of each X's measurements,
    by the same products in the same order as for one X.
    """
    if X.ndim == 2:
        return 0.5 * ((_SYM @ X[:, None, :, None])[..., 0] @ X[:, :, None])[..., 0]
    return 0.5 * ((_SYM @ X) @ X)


def make_matrix_recovery(consistent_data: bool = True, alpha: float = 0.1) -> ProblemDef:
    """Dynamic rank-one sensing in equality form over x = (X in R^2, eps in R^4).

        minimize sum_i eps_i^2   s.t.  <A_i, X X^T> - eps_i = d_i(t)

    With ``consistent_data`` the measurement path is d(t) = h((Z(t), 0)), so
    the moving factor Z(t) is exactly feasible with zero slack.  Otherwise
    d(t) is the same moving path with its third measurement set to 0, under
    which Z(t) is not feasible with zero slack (the third sensing matrix has
    a nonzero diagonal).
    """

    def objective(x, t):
        return float(_vdot(x[2:], x[2:]))

    @_stackable
    def grad(x, t):
        g = np.zeros(x.shape)
        g[..., 2:] = 2.0 * x[..., 2:]
        return g

    _HESS_F = np.diag([0.0, 0.0, 2.0, 2.0, 2.0, 2.0])

    def hess(x, t):
        return _HESS_F.copy()

    @_stackable
    def constraints(x):
        return _measure(x[..., :2]) - x[..., 2:]

    _JAC_SLACK = np.hstack([np.zeros((4, 2)), -np.eye(4)])

    @_stackable
    def jac(x):
        if x.ndim == 2:  # a stack: the products of _measure's stacked form
            J = np.repeat(_JAC_SLACK[None], len(x), axis=0)
            J[..., :2] = (_SYM @ x[:, None, :2, None])[..., 0]
            return J
        J = _JAC_SLACK.copy()
        J[:, :2] = _SYM @ x[:2]
        return J

    _CHESS = []
    for S in _SYM:
        H = np.zeros((6, 6))
        H[:2, :2] = S
        _CHESS.append(H)
    _CHESS = tuple(_CHESS)

    def constraint_hessians(x):
        return _CHESS

    @_stackable
    def data_path(t):
        d = _measure(matrix_recovery_target(t))
        if not consistent_data:
            d[..., 2] = 0.0
        return d

    @_stackable
    def data_rate(t):
        Z, dZ = matrix_recovery_target(t), _target_rate(t)
        if Z.ndim == 2:  # a stack: the products of one time, batched
            r = ((_SYM @ Z[:, None, :, None])[..., 0] @ dZ[:, :, None])[..., 0]
        else:
            r = (_SYM @ Z) @ dZ
        if not consistent_data:
            r[..., 2] = 0.0
        return r

    return ProblemDef(
        n=6,
        m=4,
        objective=objective,
        grad_objective=grad,
        hess_objective=hess,
        constraints=constraints,
        jacobian=jac,
        constraint_hessians=constraint_hessians,
        data_path=data_path,
        data_rate=data_rate,
        horizon=2.0 * np.pi,
        alpha=alpha,
        name="matrec" if consistent_data else "matrec-raw",
        search_box=(-16.0, 16.0),
        equivalence=matrix_recovery_sign_flip,
    )


def matrix_recovery_state(p: ProblemDef, X, t: float = 0.0) -> np.ndarray:
    """Lift a factor X to the feasible state (X, eps) at time t.

    The slack block absorbs the measurement residual, so the returned point
    satisfies the constraints of ``p`` at time t exactly.
    """
    X = np.asarray(X, dtype=float)
    eps = _measure(X) - p.data_path(t)
    return np.concatenate([X, eps])


def matrix_recovery_global_state(t: float) -> np.ndarray:
    """The zero-slack state (Z(t), 0) on the globally optimal trajectory."""
    return np.concatenate([matrix_recovery_target(t), np.zeros(4)])


def matrix_recovery_sign_flip(x: np.ndarray) -> np.ndarray:
    """Sign symmetry X <-> -X of the factorization (slack unchanged)."""
    out = np.array(x, dtype=float, copy=True)
    out[:2] = -out[:2]
    return out


THE_SPURIOUS_FACTOR = np.array([0.0, 1.0 / _SQ2])


# ---------------------------------------------------------------------------
# Scenario: damped sinusoidal translation of a general landscape
# ---------------------------------------------------------------------------

def make_damped_sinusoid(
    g: Callable[[Vector], float],
    grad_g: Callable[[Vector], Vector],
    beta: float,
    omega: float,
    lam: float,
    u,
    hess_g: Optional[Callable[[Vector], Matrix]] = None,
    alpha: float = 1.0,
) -> ProblemDef:
    """Unconstrained f(x, t) = g(x - beta e^(-lam t) sin(omega t) u) on [0, 2 pi / omega].

    ``u`` must be a unit vector; ``lam = 0`` gives the undamped special case
    (with n = 1, omega = 1, u = (1,) this reduces to the example1 form).
    The gradient is marked array-safe when ``grad_g`` is.
    """
    u = np.asarray(u, dtype=float)
    if abs(math.sqrt(_vdot(u, u)) - 1.0) > 1e-12:
        raise ValueError("u must be a unit vector (within 1e-12)")
    s = _shift(beta, omega, lam)

    def shift(t):
        return s(t) * u

    def objective(x, t):
        return g(x - shift(t))

    def grad(x, t):
        return np.asarray(grad_g(x - shift(t)), dtype=float)

    if _is_stackable(grad_g):  # the shift broadcasts over a (L, 1) time column
        _stackable(grad)
    hess = None
    if hess_g is not None:
        def hess(x, t):
            return np.asarray(hess_g(x - shift(t)), dtype=float)

    return _unconstrained(u.size, objective=objective, grad_objective=grad, hess_objective=hess,
                          horizon=2.0 * np.pi / omega, alpha=alpha, name="damped")


# ---------------------------------------------------------------------------
# Derivative validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    """Finite-difference consistency report for a ProblemDef.

    Deviations are max over samples of elementwise |fd - analytic| /
    (1 + |analytic|); a check passes when its deviation is below ``tol``.
    ``hess_deviation`` compares ``hess_objective`` with differences of
    ``grad_objective`` and ``constraint_hessian_deviation`` compares
    ``constraint_hessians`` with differences of ``jacobian``; both are 0
    when the map is absent.  ``stack_deviation`` is the largest |stacked -
    per-point| over stacked calls of the maps marked array-safe (0 when none
    is) and passes only at exactly 0, since the stacked and lane-by-lane
    flows and diagnostics must agree bit for bit.
    """

    samples: int
    seed: int
    tol: float
    grad_deviation: float
    jacobian_deviation: float
    data_rate_deviation: float
    hess_deviation: float
    constraint_hessian_deviation: float
    stack_deviation: float
    grad_ok: bool = field(init=False)
    jacobian_ok: bool = field(init=False)
    data_rate_ok: bool = field(init=False)
    hess_ok: bool = field(init=False)
    constraint_hessians_ok: bool = field(init=False)
    stack_ok: bool = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        self.grad_ok = self.grad_deviation <= self.tol
        self.jacobian_ok = self.jacobian_deviation <= self.tol
        self.data_rate_ok = self.data_rate_deviation <= self.tol
        self.hess_ok = self.hess_deviation <= self.tol
        self.constraint_hessians_ok = self.constraint_hessian_deviation <= self.tol
        self.stack_ok = self.stack_deviation == 0.0
        self.passed = (self.grad_ok and self.jacobian_ok and self.data_rate_ok
                       and self.hess_ok and self.constraint_hessians_ok
                       and self.stack_ok)


def _rel_dev(fd: np.ndarray, an: np.ndarray) -> float:
    if fd.size == 0:
        return 0.0
    return float(np.max(np.abs(fd - an) / (1.0 + np.abs(an))))


def _central_difference(fn, x: np.ndarray) -> np.ndarray:
    """Central differences of ``fn`` at x with step 1e-6 (1 + |x|), one
    trailing axis per coordinate."""
    h = 1e-6 * (1.0 + math.sqrt(_vdot(x, x)))
    cols = []
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        cols.append((np.asarray(fn(x + e), dtype=float)
                     - np.asarray(fn(x - e), dtype=float)) / (2 * h))
    return np.stack(cols, axis=-1)


def validate_problem(p: ProblemDef, samples: int = 20, seed: int = 0) -> ValidationReport:
    """Check analytic derivatives against central finite differences.

    Draws ``samples`` random (x, t) points (deterministic in ``seed``) and
    reports the worst relative deviation of grad_objective, jacobian,
    data_rate, hess_objective and constraint_hessians from finite
    differences of their parent maps.  Each map marked array-safe is also
    called once on the stack of all sample points and compared with its
    per-point values.  Deviations above 1e-5 are reported, never raised.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    dev_g = dev_j = dev_d = dev_h = dev_ch = 0.0
    xs, ts = np.empty((samples, p.n)), np.empty(samples)
    for i in range(samples):
        x = xs[i] = rng.standard_normal(p.n)
        t = ts[i] = rng.uniform(0.0, p.horizon)

        fd_grad = _central_difference(lambda y: p.objective(y, t), x)
        dev_g = max(dev_g, _rel_dev(fd_grad, np.asarray(p.grad_objective(x, t))))
        if p.hess_objective is not None:
            fd_hess = _central_difference(lambda y: p.grad_objective(y, t), x)
            dev_h = max(dev_h, _rel_dev(fd_hess, np.asarray(p.hess_objective(x, t))))

        if p.m > 0:
            fd_jac = _central_difference(p.constraints, x)
            dev_j = max(dev_j, _rel_dev(fd_jac, np.asarray(p.jacobian(x))))
            if p.constraint_hessians is not None:
                fd_ch = _central_difference(p.jacobian, x)
                an_ch = np.asarray(p.constraint_hessians(x), dtype=float)
                dev_ch = max(dev_ch, _rel_dev(fd_ch, an_ch))

            ht = 1e-6 * (1.0 + abs(t))
            fd_rate = (p.data_path(t + ht) - p.data_path(t - ht)) / (2 * ht)
            dev_d = max(dev_d, _rel_dev(fd_rate, np.asarray(p.data_rate(t))))

    dev_s = 0.0
    for fn, args in ((p.grad_objective, (xs, ts)), (p.jacobian, (xs,)),
                     (p.constraints, (xs,)), (p.data_path, (ts,)), (p.data_rate, (ts,))):
        if _is_stackable(fn):
            stacked = each_row(fn, *args)
            rows = np.array([fn(*row) for row in zip(*args)], dtype=float)
            dev_s = max(dev_s, float(np.abs(stacked - rows).max(initial=0.0))
                        if stacked.shape == rows.shape else np.inf)

    return ValidationReport(samples=samples, seed=seed, tol=1e-5,
                            grad_deviation=dev_g, jacobian_deviation=dev_j,
                            data_rate_deviation=dev_d, hess_deviation=dev_h,
                            constraint_hessian_deviation=dev_ch,
                            stack_deviation=dev_s)
