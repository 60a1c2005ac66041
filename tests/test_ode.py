import dataclasses
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import tvland as tv
import tvland.ode as ode_module
from conftest import linear_constraint_problem
from test_discrete import count_calls, counting, scalar_quadratic, spurious_matrec


def _max_step_residual(p, traj):
    """Largest |y_k - y_{k-1} - dt rhs(y_k, t_k)| over the steps of ``traj``."""
    dt = traj.times[1] - traj.times[0]
    return max(np.linalg.norm(traj.states[k] - traj.states[k - 1]
                              - dt * tv.ode_rhs(p, traj.states[k], traj.times[k]))
               for k in range(1, len(traj)))


class TestBackwardEuler:
    def test_linear_closed_form(self):
        # y_k = y_{k-1} / (1 + dt/alpha) exactly for f = x^2/2
        p = scalar_quadratic(alpha=1.0)
        dt = 0.125
        traj = tv.backward_euler_trajectory(p, np.array([1.0]), dt, check_x0=False)
        ks = np.arange(len(traj))
        assert np.allclose(traj.states[:, 0], 1.0 / (1 + dt) ** ks, atol=1e-9)

    def test_single_step_horizon(self):
        p = scalar_quadratic(alpha=0.7)
        traj = tv.backward_euler_trajectory(p, np.array([1.0]), p.horizon,
                                            check_x0=False)
        assert len(traj) == 2
        assert traj.states[-1, 0] == pytest.approx(1.0 / (1 + p.horizon / 0.7), abs=1e-9)

    def test_example1_escapes(self, be_traj_04_10):
        # escaping regime: the final state clears the barrier near 0.84
        assert be_traj_04_10.final_state[0] > 0.84

    @pytest.mark.parametrize("beta, alpha, final", [(10.0, 0.4, 1.2832869669016653),
                                                    (5.0, 0.2, -2.1370886855096063)])
    def test_classify_regimes_keep_their_final_states(self, beta, alpha, final):
        # the final states of the two classify regimes at dt = 1e-3; each step
        # stops at residual 1e-10, so the rounding of the residual and of the
        # start may move them, by far less than 1e-8
        p, _ = tv.make_example1(beta, alpha=alpha)
        traj = tv.backward_euler_trajectory(p, np.array([-2.0]), 1e-3)
        assert abs(traj.final_state[0] - final) <= 1e-8

    def test_grid_lands_on_horizon(self, ex1_04_10, be_traj_04_10):
        p, _ = ex1_04_10
        assert be_traj_04_10.times[-1] == pytest.approx(p.horizon, abs=1e-12)

    def test_rejects_non_kkt_start(self, ex1_04_10):
        p, _ = ex1_04_10
        with pytest.raises(tv.InitializationError):
            tv.backward_euler_trajectory(p, np.array([0.5]), 1e-2)

    def test_inner_residual_below_tolerance(self, ex1_04_10):
        pe, _ = ex1_04_10
        pm, xm = _matrec_spurious()
        for p, x0, dt in ((pe, np.array([-2.0]), 5e-2), (pm, xm, pm.horizon / 400)):
            assert _max_step_residual(p, tv.backward_euler_trajectory(p, x0, dt)) <= 1e-10

    @pytest.mark.parametrize("alpha, consistent, n_steps",
                             [(0.05, True, 10), (0.1, False, 10), (0.5, True, 20)])
    def test_coarse_constrained_grids_complete(self, alpha, consistent, n_steps):
        # matrix recovery (m = 4) from the lifted spurious start on coarse
        # grids, where full Newton steps raise the residual: halving the
        # step still brings every step to the tolerance
        p = tv.make_matrix_recovery(consistent, alpha=alpha)
        x0 = tv.matrix_recovery_state(p, tv.problem.THE_SPURIOUS_FACTOR, 0.0)
        traj = tv.backward_euler_trajectory(p, x0, p.horizon / n_steps)
        assert len(traj) == n_steps + 1
        assert _max_step_residual(p, traj) <= 1e-10

    def test_iteration_matrix_reused_across_steps(self, monkeypatch):
        # simplified Newton: the field Jacobian is re-evaluated only when an
        # iteration with it stops contracting; each field evaluation is one
        # gradient call
        p, x0 = _matrec_spurious()
        q, calls = counting(p, "grad_objective")
        jac = count_calls(monkeypatch, ode_module, "field_jacobian")
        n_steps = 2000
        tv.backward_euler_trajectory(q, x0, p.horizon / n_steps)
        assert calls["grad_objective"] <= 6 * n_steps
        assert 1 <= len(jac) <= n_steps // 10

    @pytest.mark.parametrize("stale", ["zero", "wrong_sign"])
    def test_stale_matrix_is_refreshed(self, stale, monkeypatch):
        p, x0 = _matrec_spurious()
        dt = p.horizon / 200
        t = dt
        if stale == "zero":
            M_stale = np.zeros((p.n, p.n))  # no progress at all
        else:
            M_stale = -np.eye(p.n)  # the residual grows
        refreshes = []
        jac = ode_module.field_jacobian

        def counted_jac(*args, **kwargs):
            refreshes.append(1)
            return jac(*args, **kwargs)

        monkeypatch.setattr(ode_module, "field_jacobian", counted_jac)
        y, M_inv = ode_module._implicit_step(p, x0, t, dt, M_stale)
        assert refreshes
        assert not np.array_equal(M_inv, M_stale)
        resid = y - x0 - dt * tv.ode_rhs(p, y, t)
        assert np.linalg.norm(resid) <= 1e-10
        y_fresh, _ = ode_module._implicit_step(p, x0, t, dt, None)
        assert np.linalg.norm(y - y_fresh) <= 1e-9

    def test_reruns_are_bit_identical(self):
        p, x0 = _matrec_spurious()
        a = tv.backward_euler_trajectory(p, x0, p.horizon / 300)
        b = tv.backward_euler_trajectory(p, x0, p.horizon / 300)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.kkt_stationarity, b.kkt_stationarity)

    @pytest.mark.parametrize("case", ["matrec", "example1"])
    def test_field_evaluations_per_step(self, case):
        # from the extrapolated start most steps take one or two field
        # evaluations, one gradient call each; the explicit predictor needed
        # about four.  example1 steps in Python floats, where a field
        # evaluation is one call of its landscape's g'
        if case == "matrec":
            p, x0 = _matrec_spurious()
            dt = p.horizon / 2000
            q, calls = counting(p, "grad_objective")
        else:
            p, _ = tv.make_example1(10.0, alpha=0.4)
            x0, dt = np.array([-2.0]), 1e-3
            g, calls = p.landscape.g, Counter()

            def dg(y):
                calls["grad_objective"] += 1
                return g.dg(y)

            q = p.replace(landscape=p.landscape._replace(g=dataclasses.replace(g, dg=dg)))
        traj = tv.backward_euler_trajectory(q, x0, dt)
        assert len(traj) - 1 <= calls["grad_objective"] <= 2.5 * (len(traj) - 1)

    def test_data_rate_once_per_step(self, monkeypatch):
        # the track-matrec run with an unmarked d'(t): it is read row by row
        # once per step time, and each evaluation of the iteration matrix
        # once more; its final state stays within 1e-8 of the one the
        # residual through ode_rhs reached
        p, x0 = _matrec_spurious()
        q, calls = counting(p.replace(data_rate=lambda t: p.data_rate(t)), "data_rate")
        refreshes = count_calls(monkeypatch, ode_module, "field_jacobian")
        traj = tv.backward_euler_trajectory(q, x0, p.horizon / 2000)
        assert calls["data_rate"] == 2000 + len(refreshes)
        want = [0.9965484983401073, -0.014446169898173834, -0.0038592669902334717,
                -0.026760381136802097, -0.0044691424314446445, 0.0010563352504675387]
        assert np.abs(traj.final_state - want).max() <= 1e-8

    def test_marked_data_rate_once_per_grid(self, monkeypatch):
        # matrix recovery's d'(t) is array-safe: one stacked call reads it at
        # all step times, so per point only the iteration-matrix refreshes
        # read it
        p, x0 = _matrec_spurious()
        q, calls = counting(p, "data_rate")
        refreshes = count_calls(monkeypatch, ode_module, "field_jacobian")
        tv.backward_euler_trajectory(q, x0, p.horizon / 2000)
        assert refreshes
        assert calls["data_rate"] == len(refreshes)


def _matrec_spurious():
    """Matrix recovery (alpha 0.5) from the lifted spurious factor at t = 0."""
    p = tv.make_matrix_recovery(True, alpha=0.5)
    return p, tv.matrix_recovery_state(p, tv.problem.THE_SPURIOUS_FACTOR, 0.0)


class TestExtrapolatedStart:
    def test_exact_on_cubics(self):
        s = 0.01 * np.arange(6.0)
        states = np.stack([s ** 3 - 2.0 * s, 0.5 * s ** 2 + 1.0], axis=1)
        for i in range(4, 6):
            assert np.allclose(tv.discrete.extrapolated_start(states, i), states[i])

    def test_needs_four_smooth_states(self):
        smooth = np.linspace(0.0, 1.0, 5)[:, None]
        assert tv.discrete.extrapolated_start(smooth, 3) is None
        kinked = smooth.copy()
        kinked[3] += 0.1  # second difference 0.1 against a step of 0.35
        assert tv.discrete.extrapolated_start(kinked, 4) is None

    @pytest.mark.parametrize("d2", [0.049, 0.051])
    def test_guard_at_the_smoothness_ratio(self, d2):
        # last first difference 1 and second difference d2, ratio 0.05
        states = np.array([[0.0], [1.0 + d2], [2.0], [3.0]])
        start = tv.discrete.extrapolated_start(states, 4)
        assert (start is None) == (d2 > tv.discrete._SMOOTH_RATIO)

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_gram_test_takes_the_two_dot_decision(self, n):
        # the smoothness test reads |d1|^2 and |d2|^2 off the diagonal of one
        # small product; on smooth histories near the ratio and on kinked
        # ones it decides as d2.dot(d2) > ratio^2 d1.dot(d1) did, and returns
        # the first row of the start product
        rng = np.random.default_rng(n)
        rows, ratio = tv.discrete._START_ROWS, tv.discrete._SMOOTH_RATIO
        decisions = set()
        for i in range(4000):
            scale = 10.0 ** rng.uniform(-6, 6)
            if i % 2:  # a quadratic whose second difference is near ratio * step
                k = np.arange(4.0)[:, None]
                step = rng.normal(size=n) * scale
                curve = step * ratio * rng.uniform(0.5, 1.5, size=n) * rng.choice([-1, 1], n)
                states = rng.normal(size=n) * scale + step * k + 0.5 * curve * k * k
            else:
                states = rng.normal(size=(4, n)) * scale
            y, d1, d2 = rows @ states
            start = tv.discrete.extrapolated_start(states, 4)
            kinked = d2.dot(d2) > ratio ** 2 * d1.dot(d1)
            assert (start is None) == kinked
            assert kinked or np.array_equal(start, y)
            decisions.add(kinked)
        assert decisions == {True, False}

    def test_matrix_start_is_the_cubic(self):
        # one product with the start rows gives 4 (y1 + y3) - 6 y2 - y4 to
        # rounding: 16 ulps of the largest |y_i| bound both evaluations
        rng = np.random.default_rng(4)
        for _ in range(200):
            c = rng.normal(size=(4, 3)) * 10.0 ** rng.uniform(-3, 3, size=3)
            s = 10.0 ** rng.uniform(-4, -1) * np.arange(5.0)[:, None] + rng.uniform(-5, 5)
            states = c[0] + c[1] * s + c[2] * s ** 2 + c[3] * s ** 3
            y4, y3, y2, y1 = states[:4]
            start = tv.discrete.extrapolated_start(states, 4)
            if start is None:
                continue
            want = 4.0 * (y1 + y3) - 6.0 * y2 - y4
            assert (np.abs(start - want) <= 16 * np.spacing(np.abs(states[:4]).max(axis=0))).all()

    @pytest.mark.parametrize("engine", ["discrete", "backward-euler"])
    @pytest.mark.parametrize("scenario", ["ex1-0.4-10", "ex1-0.2-5", "ex1-0.05-10",
                                          "ex1-1-3", "matrec-0.05", "matrec-0.5",
                                          "matrec-1"])
    def test_coarse_grids_reach_the_same_roots(self, engine, scenario, monkeypatch):
        # coarse steps are not smooth, so the guard keeps each engine's own
        # start there and the steps reach the roots they reach without
        # extrapolation
        name, *params = scenario.split("-")
        if name == "ex1":
            alpha, beta = map(float, params)
            p, _ = tv.make_example1(beta, alpha=alpha)
            x0, grids = np.array([-2.0]), (10, 20, 50)
        else:
            p, x0 = spurious_matrec(float(params[0]))
            grids = (20, 50)

        def run(n_steps):
            if engine == "discrete":
                return tv.discrete_trajectory(p, x0, n_steps).states
            return tv.backward_euler_trajectory(p, x0, p.horizon / n_steps).states

        forced = {}
        with monkeypatch.context() as m:
            m.setattr(tv.discrete, "extrapolated_start", lambda states, k: None)
            m.setattr(ode_module, "extrapolated_start", lambda states, k: None)
            for n in grids:
                try:
                    forced[n] = run(n)
                except tv.TvlandError:
                    pass  # no root reached without extrapolation: nothing to match
        assert forced
        for n, states in forced.items():
            assert np.abs(run(n) - states).max() <= 1e-6, n


class TestReferenceIntegrator:
    def test_exponential_decay(self):
        p = scalar_quadratic(alpha=1.0)
        traj = tv.integrate_reference(p, np.array([1.0]), n_samples=100)
        i = np.searchsorted(traj.times, 1.0)
        assert traj.times[i] == pytest.approx(1.0)
        assert traj.states[i, 0] == pytest.approx(np.exp(-1.0), abs=1e-8)

    def test_static_landscape_equilibrium(self):
        # beta -> 0 limit is a static landscape: the minimizer never moves;
        # realized by freezing the time argument through a tiny beta
        p, _ = tv.make_example1(1e-12, alpha=0.4)
        traj = tv.integrate_reference(p, np.array([2.0]), n_samples=50)
        assert np.abs(traj.states[:, 0] - 2.0).max() < 1e-8

    def test_manifold_tracking_feasibility(self, matrec):
        z0 = tv.matrix_recovery_global_state(0.0)
        traj = tv.integrate_reference(matrec, z0, rel_tol=1e-9, n_samples=64)
        assert traj.feasibility.max() <= 1e-6

    def test_rhs_tangency_along_solution(self, matrec):
        z0 = tv.matrix_recovery_global_state(0.0)
        traj = tv.integrate_reference(matrec, z0, rel_tol=1e-9, n_samples=32)
        for t, x in zip(traj.times[::8], traj.states[::8]):
            J = matrec.jacobian(x)
            gap = J @ tv.ode_rhs(matrec, x, float(t)) - matrec.data_rate(float(t))
            assert np.linalg.norm(gap) <= 1e-6

    def test_finite_time_blowup_reports_stiffness(self):
        # f = -x^4 drives x' = 4 x^3 / alpha: finite-time escape collapses
        # the adaptive step
        p = tv.ProblemDef(
            n=1, m=0,
            objective=lambda x, t: -float(x[0] ** 4),
            grad_objective=lambda x, t: np.array([-4.0 * x[0] ** 3]),
            constraints=lambda x: np.zeros(0),
            jacobian=lambda x: np.zeros((0, 1)),
            data_path=lambda t: np.zeros(0),
            data_rate=lambda t: np.zeros(0),
            horizon=10.0,
            alpha=1.0,
        )
        with pytest.raises(tv.StiffnessError):
            tv.integrate_reference(p, np.array([1.0]), n_samples=16)


#: Every engine that takes a start vector, as run(p, x0).
ENGINES = pytest.mark.parametrize("run", [
    lambda p, x: tv.frozen_time_flow(p, x, 0.0),
    lambda p, x: tv.backward_euler_trajectory(p, x, 0.1),
    lambda p, x: tv.integrate_reference(p, x, n_samples=4),
    lambda p, x: tv.kkt_track(p, x, np.linspace(0.0, p.horizon, 3)),
    lambda p, x: tv.discrete_trajectory(p, x, 4),
], ids=["frozen_time_flow", "backward_euler", "reference", "kkt_track", "discrete"])


@ENGINES
def test_start_of_the_wrong_length_refused(ex1_04_10, run):
    # example1 reads only x[0]; a longer start must not pass, nor become
    # several flow lanes
    p, _ = ex1_04_10
    with pytest.raises(ValueError, match=r"x0 must have shape \(1,\), got \(2,\)"):
        run(p, np.array([-2.0, 5.0]))


@ENGINES
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("case", ["example1", "matrec"])
def test_non_finite_start_refused(case, value, run, ex1_04_10, matrec):
    # refused before any evaluation, not as a solver failure downstream
    p = ex1_04_10[0] if case == "example1" else matrec
    x0 = np.zeros(p.n)
    x0[0] = value
    with pytest.raises(ValueError, match="x0 must be finite"):
        run(p, x0)


class TestFrozenTimeFlow:
    def test_fixed_point(self, ex1_04_10):
        p, _ = ex1_04_10
        limit, converged = tv.frozen_time_flow(p, np.array([-2.0]), 0.0)
        assert converged
        assert limit[0] == pytest.approx(-2.0, abs=1e-6)

    def test_descent_into_global_basin(self, ex1_04_10):
        # g' < 0 on (-3/8, 2): the flow from 0 descends monotonically to 2
        p, _ = ex1_04_10
        limit, converged = tv.frozen_time_flow(p, np.array([0.0]), 0.0)
        assert converged
        assert limit[0] == pytest.approx(2.0, abs=1e-6)

    def test_descent_from_right(self, ex1_04_10):
        # g' > 0 on (2, inf): the flow from 3 descends to 2
        p, _ = ex1_04_10
        limit, converged = tv.frozen_time_flow(p, np.array([3.0]), 0.0)
        assert converged
        assert limit[0] == pytest.approx(2.0, abs=1e-6)

    def test_objective_never_increases_unconstrained(self, ex1_04_10):
        p, _ = ex1_04_10
        t = 1.0
        x = np.array([-4.0])
        f_prev = p.objective(x, t)
        # follow the flow in stages; each stage must not increase f(., t)
        for s in (0.05, 0.1, 0.2, 0.4):
            limit, _ = tv.frozen_time_flow(p, x, t, s_max=s, tol=1e-14)
            f_now = p.objective(limit, t)
            assert f_now <= f_prev + 1e-10
            f_prev = f_now

    def test_shoulder_creeps_on_to_the_sink(self):
        # x' = -(1e3 x^2 + 1e-5)(x + 1): from 1 the flow slows to speed 1e-5
        # at the shoulder x = 0, where the sink check fails, and creeps on
        # to the sink at -1.  It stops unsettled at the shoulder when tol
        # leaves no room to creep, or when the budget runs out there.
        def grad(x, t):
            return np.array([(1e3 * x[0] ** 2 + 1e-5) * (x[0] + 1.0)])

        p = tv.ProblemDef(
            n=1, m=0,
            objective=lambda x, t: float(250.0 * x[0] ** 4 + 1e3 / 3 * x[0] ** 3
                                         + 5e-6 * x[0] ** 2 + 1e-5 * x[0]),
            grad_objective=grad,
            constraints=lambda x: np.zeros(0),
            jacobian=lambda x: np.zeros((0, 1)),
            data_path=lambda t: np.zeros(0),
            data_rate=lambda t: np.zeros(0),
            horizon=1.0,
            alpha=1.0,
        )
        x0 = np.array([1.0])
        limit, converged = tv.frozen_time_flow(p, x0, 0.0)
        assert converged and abs(limit[0] + 1.0) <= 1e-10
        for options in ({"tol": 9e-6}, {"s_max": 20.0}):
            limit, converged = tv.frozen_time_flow(p, x0, 0.0, **options)
            assert not converged and abs(limit[0]) <= 1e-4

    def test_budget_exhaustion_reports_not_converged(self, matrec):
        # moving data: the frozen field has no equilibria, so no convergence
        z = tv.matrix_recovery_global_state(0.0)
        limit, converged = tv.frozen_time_flow(matrec, z, 0.0, s_max=1.0)
        assert not converged

    def test_static_data_constrained_fixed_point(self, matrec):
        frozen = tv.freeze_data(matrec, 0.0)
        z = tv.matrix_recovery_global_state(0.0)
        limit, converged = tv.frozen_time_flow(frozen, z, 0.0)
        assert converged
        assert np.linalg.norm(limit - z) < 1e-8

    def test_constrained_limit_ignores_start_rounding(self):
        # the frozen field is neutral along the leaf normals, where its
        # Jacobian is singular up to rounding; minimum-norm Newton steps keep
        # that rounding out of the limit
        frozen = tv.freeze_data(tv.make_matrix_recovery(True, 1.0), 0.0)
        rng = np.random.default_rng(11)
        for sign in (1.0, -1.0):
            for _ in range(3):
                f = sign * tv.matrix_recovery_target(0.0) + 0.05 * rng.standard_normal(2)
                x = tv.matrix_recovery_state(frozen, f, 0.0)
                x_moved = x.copy()
                x_moved[0] += 1e-15
                a, conv_a = tv.frozen_time_flow(frozen, x, 0.0)
                b, conv_b = tv.frozen_time_flow(frozen, x_moved, 0.0)
                assert conv_a and conv_b
                assert np.abs(a - b).max() <= 1e-10


def _shoulder_grad(x, t):
    """x' = -(1e3 x^2 + 1e-5)(x + 1) in products, so it is array-safe."""
    return (1e3 * (x * x) + 1e-5) * (x + 1.0)


def _shoulder_problem():
    """The flow of test_shoulder_creeps_on_to_the_sink, its gradient marked."""
    from tvland.problem import _stackable

    return tv.ProblemDef(
        n=1, m=0,
        objective=lambda x, t: float(250.0 * x[0] ** 4 + 1e3 / 3 * x[0] ** 3
                                     + 5e-6 * x[0] ** 2 + 1e-5 * x[0]),
        grad_objective=_stackable(lambda x, t: _shoulder_grad(x, t)),
        constraints=lambda x: np.zeros(0),
        jacobian=lambda x: np.zeros((0, 1)),
        data_path=lambda t: np.zeros(0),
        data_rate=lambda t: np.zeros(0),
        horizon=1.0,
        alpha=1.0,
    )


def _reference_flows(p, X, times):
    """Frozen-time flows by scipy's solve_ivp, independent of the batch stepper.

    RK45 (rtol 1e-8, atol 1e-11) runs to s = 100 alpha or until the speed
    first falls through the switch speed 1e-4; there the limit is the sink
    the Newton check accepts.  Flows that get slow away from a sink, or
    never get slow, read not converged with their last state.
    """
    tol = ode_module._FLOW_TOL
    switch = ode_module._switch_speed(tol)
    limits, converged = [], []
    for x, t in zip(X, times):
        def field(y, t=float(t)):
            return tv.ode_rhs(p, y, t)

        def slow(s, y):
            return np.linalg.norm(field(y)) - switch

        slow.terminal, slow.direction = True, -1
        sol = solve_ivp(lambda s, y: field(y), (0.0, 100.0 * p.alpha), np.asarray(x, float),
                        method="RK45", rtol=1e-8, atol=1e-11, events=slow)
        y = sol.y[:, -1]
        limit = ode_module._polish_limit(p, y, float(t), tol) if sol.status == 1 else None
        limits.append(y if limit is None else limit)
        converged.append(limit is not None)
    return np.array(limits), np.array(converged)


class TestFrozenTimeFlows:
    def test_tableau_is_scipys_rk45(self):
        # the stepper holds its own copy of the Dormand-Prince pair so that
        # it does not import scipy; the copy must be scipy's, bit for bit
        from scipy.integrate import RK45

        for ours, theirs in ((ode_module._DP_A, RK45.A), (ode_module._DP_B, RK45.B),
                             (ode_module._DP_E, RK45.E)):
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()
        assert ode_module._ERR_EXPONENT == -1 / (RK45.error_estimator_order + 1)

    def test_matches_scalar_across_box_and_times(self, ex1_04_10):
        # one batch mixing starts over the whole box with several frozen times
        p, _ = ex1_04_10
        starts = np.linspace(-16.0, 16.0, 23)
        times = np.repeat([0.0, 1.3, 2.9, 4.4, 5.8], starts.size)
        X = np.tile(starts, 5)[:, None]
        limits, converged = ode_module.frozen_time_flows(p, X, times)
        want_limits, want_conv = _reference_flows(p, X, times)
        assert np.array_equal(converged, want_conv)
        assert converged.all()
        assert np.abs(limits - want_limits).max() <= 1e-8

    def test_scalar_time_applies_to_every_lane(self, ex1_04_10):
        p, _ = ex1_04_10
        X = np.array([[-5.0], [0.0], [3.0]])
        limits, converged = ode_module.frozen_time_flows(p, X, 0.0)
        assert converged.all()
        assert limits[:, 0] == pytest.approx([-2.0, 2.0, 2.0], abs=1e-8)

    def test_starts_of_the_wrong_width_refused(self, ex1_04_10):
        # a (1, 2) batch for n = 1 must not become two lanes
        p, _ = ex1_04_10
        with pytest.raises(ValueError, match=r"X must have shape \(lanes, 1\)"):
            ode_module.frozen_time_flows(p, np.array([[1.0, 2.0]]), 0.0)

    def test_matches_scalar_on_frozen_matrix_recovery(self, matrec):
        # the polish holds each limit on its flow's leaf, here h = d(0)
        frozen = tv.freeze_data(matrec, 0.0)
        rng = np.random.default_rng(5)
        X = np.array([tv.matrix_recovery_state(frozen, f, 0.0)
                      for f in rng.uniform(-2.0, 2.0, (8, 2))])
        limits, converged = ode_module.frozen_time_flows(frozen, X, 0.0)
        want_limits, want_conv = _reference_flows(frozen, X, np.zeros(len(X)))
        assert np.array_equal(converged, want_conv)
        assert converged.all()
        assert np.abs(limits - want_limits).max() <= 1e-8
        d0 = frozen.data_path(0.0)
        for limit in limits:
            assert np.linalg.norm(frozen.constraints(limit) - d0) <= 1e-8

    def test_moving_data_lane_spends_budget_without_rerun(self, matrec):
        # no equilibria under moving data: the lane spends s_max and is
        # reported not converged with its last state
        z = tv.matrix_recovery_global_state(0.0)
        limits, converged = ode_module.frozen_time_flows(matrec, z[None, :], 0.0)
        want, want_conv = _reference_flows(matrec, z[None, :], [0.0])
        assert converged.tolist() == want_conv.tolist() == [False]
        assert np.abs(limits[0] - want[0]).max() <= 1e-8

    def test_moving_data_kkt_point_is_no_sink(self, matrec):
        # Z(0) is a KKT point of the time-0 problem, but under moving data
        # the frozen field there is theta d' != 0, so the polish finds no sink
        z = tv.matrix_recovery_global_state(0.0)
        assert tv.kkt_residual(matrec, z, 0.0).stationarity <= 1e-10
        assert np.linalg.norm(tv.ode_rhs(matrec, z, 0.0)) > 1e-3
        assert ode_module._polish_limit(matrec, z, 0.0, ode_module._FLOW_TOL) is None

    def test_raising_lane_leaves_the_others(self, ex1_04_10):
        # the gradient raises beyond |x| = 100, as a degenerate constraint
        # or a failed inner solve would
        p, _ = ex1_04_10

        def grad(x, t):
            if x[0] > 100.0:
                raise tv.SingularConstraintError("outside the model")
            if x[0] < -100.0:
                raise tv.StepSolveError("outside the model")
            return ex1_04_10[0].grad_objective(x, t)

        p = p.replace(grad_objective=grad)
        X = np.array([[-5.0], [200.0], [3.0], [-200.0]])
        # the first failed lane's exception propagates...
        with pytest.raises(tv.SingularConstraintError):
            ode_module.frozen_time_flows(p, X, 0.0)
        with pytest.raises(tv.StepSolveError):
            ode_module.frozen_time_flows(p, X[::-1], 0.0)
        # ...unless lane_errors names its type
        with pytest.raises(tv.StepSolveError):
            ode_module.frozen_time_flows(p, X, 0.0, lane_errors=(tv.SingularConstraintError,))
        limits, converged = ode_module.frozen_time_flows(
            p, X, 0.0, lane_errors=(tv.SingularConstraintError, tv.StepSolveError))
        assert converged.tolist() == [True, False, True, False]
        assert np.isnan(limits[[1, 3]]).all()
        want_limits, want_conv = _reference_flows(p, X[[0, 2]], np.zeros(2))
        assert want_conv.all()
        assert np.abs(limits[[0, 2]] - want_limits).max() <= 1e-8

    def test_stacked_field_equals_lane_loop(self, ex1_04_10):
        # example1's gradient is marked array-safe, so each stage evaluates
        # all lanes in one call; an unmarked wrapper takes the lane loop.
        # Box starts at several times, plus starts whose field overflows
        # (in a stage, and at the start itself).
        p, _ = ex1_04_10
        lanes = p.replace(grad_objective=lambda x, t: p.grad_objective(x, t))
        starts = np.linspace(-16.0, 16.0, 23)
        times = np.append(np.repeat([0.0, 1.3, 2.9, 4.4, 5.8], starts.size), [0.7, 0.7])
        X = np.append(np.tile(starts, 5), [4e102, 1e103])[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            got = ode_module.frozen_time_flows(p, X, times, lane_errors=(tv.StiffnessError,))
            want = ode_module.frozen_time_flows(lanes, X, times,
                                                lane_errors=(tv.StiffnessError,))
        assert np.array_equal(got[0], want[0], equal_nan=True)
        assert np.array_equal(got[1], want[1])
        assert got[1][:-2].all() and not got[1][-2:].any()

    def test_raising_stacked_call_falls_back_to_lanes(self, ex1_04_10):
        # a marked gradient that raises on any stack holding x > 100: that
        # evaluation is repeated lane by lane, so only the raising lane fails
        from tvland.problem import _stackable

        p, _ = ex1_04_10

        def grad(x, t):
            if np.any(np.asarray(x) > 100.0):
                raise tv.SingularConstraintError("outside the model")
            return p.grad_objective(x, t)

        marked = p.replace(grad_objective=_stackable(lambda x, t: grad(x, t)))
        unmarked = p.replace(grad_objective=lambda x, t: grad(x, t))
        X = np.array([[-5.0], [200.0], [3.0]])
        errors = (tv.SingularConstraintError,)
        limits, converged = ode_module.frozen_time_flows(marked, X, 0.0, lane_errors=errors)
        want_limits, want_conv = ode_module.frozen_time_flows(unmarked, X, 0.0,
                                                              lane_errors=errors)
        assert converged.tolist() == [True, False, True]
        assert np.array_equal(converged, want_conv)
        assert np.array_equal(limits, want_limits, equal_nan=True)

    @pytest.mark.parametrize("scenario", ["shoulder", "matrec"])
    def test_same_step_polishes_equal_one_lane_runs(self, scenario, monkeypatch):
        # lanes that reach their switch speed in the same step are handed
        # to one _polish_limits call, which polishes each lane on its own:
        # on the shoulder problem at the shoulder (rejected, the lanes creep
        # on) and at the sink, and on frozen matrix recovery (repeated
        # starts, n = 6).  Each row equals a one-lane run and the unmarked
        # lane loop.
        if scenario == "shoulder":
            p = _shoulder_problem()
            X = np.linspace(-3.0, 3.0, 21)[:, None]
            unmarked = p.replace(grad_objective=lambda x, t: _shoulder_grad(x, t))
        else:  # constrained: always the lane loop
            p = unmarked = tv.freeze_data(tv.make_matrix_recovery(True, 1.0), 0.0)
            rng = np.random.default_rng(5)
            X = np.repeat([tv.matrix_recovery_state(p, f, 0.0)
                           for f in rng.uniform(-2.0, 2.0, (3, 2))], 2, axis=0)
        batches = []
        polish = ode_module._polish_limits

        def spy(p, Y, times, tol):
            found = polish(p, Y, times, tol)
            batches.append(["rejected" if f is None else "sink" for f in found])
            return found

        monkeypatch.setattr(ode_module, "_polish_limits", spy)
        limits, converged = ode_module.frozen_time_flows(p, X, 0.0)
        assert converged.all()
        if scenario == "shoulder":
            assert any(len(b) >= 3 and "rejected" in b for b in batches)
            assert any(b.count("sink") >= 2 for b in batches)
        else:
            assert min(map(len, batches)) >= 2
        want = ode_module.frozen_time_flows(unmarked, X, 0.0)
        assert np.array_equal(limits, want[0]) and np.array_equal(converged, want[1])
        for x, limit in zip(X, limits):
            one, conv = tv.frozen_time_flow(p, x, 0.0)
            assert conv and np.array_equal(one, limit)

    def test_raising_stacked_field_in_a_polish_fails_its_lane(self, ex1_04_10):
        # a marked gradient that raises on any point within 1e-9 of the
        # sink 2 at t = 0, which only Newton iterates reach: each lane is
        # polished on its own, so only the lanes heading to 2 fail, and the
        # flow batch repeats a raising stacked field lane by lane
        from tvland.problem import _stackable

        p, _ = ex1_04_10

        def grad(x, t):
            if np.any(np.abs(np.asarray(x) - 2.0) < 1e-9):
                raise tv.SingularConstraintError("at the sink")
            return p.grad_objective(x, t)

        marked = p.replace(grad_objective=_stackable(lambda x, t: grad(x, t)))
        unmarked = p.replace(grad_objective=lambda x, t: grad(x, t))
        tol = ode_module._FLOW_TOL
        Y0 = np.array([[2.0 + 1e-6], [-2.0 + 1e-6], [2.0 - 2e-6], [-2.0 - 1e-6]])
        found = ode_module._polish_limits(marked, Y0, np.zeros(4), tol)
        want = ode_module._polish_limits(unmarked, Y0, np.zeros(4), tol)
        for k in (0, 2):
            assert isinstance(found[k], tv.SingularConstraintError)
            assert isinstance(want[k], tv.SingularConstraintError)
            with pytest.raises(tv.SingularConstraintError):
                ode_module._polish_limit(marked, Y0[k], 0.0, tol)
        for k in (1, 3):
            assert abs(found[k][0] + 2.0) <= 1e-12
            assert np.array_equal(found[k], want[k])
            assert np.array_equal(found[k], ode_module._polish_limit(marked, Y0[k], 0.0, tol))
        # and in a flow batch, where the lanes settle at both sinks
        X = np.array([[3.0], [-3.0], [0.5], [-5.0]])
        errors = (tv.SingularConstraintError,)
        limits, converged = ode_module.frozen_time_flows(marked, X, 0.0, lane_errors=errors)
        want_limits, want_conv = ode_module.frozen_time_flows(unmarked, X, 0.0,
                                                              lane_errors=errors)
        assert converged.tolist() == want_conv.tolist() == [False, True, False, True]
        assert np.array_equal(limits, want_limits, equal_nan=True)

    def test_raising_lane_is_polished_once(self, ex1_04_10):
        # the lanes of the test above with an unmarked gradient that counts
        # its calls: a polish of four lanes makes the calls of four one-lane
        # polishes, so a raising lane is not run a second time
        p, _ = ex1_04_10
        calls = []

        def grad(x, t):
            calls.append(x)
            if abs(x[0] - 2.0) < 1e-9:
                raise tv.SingularConstraintError("at the sink")
            return p.grad_objective(x, t)

        q = p.replace(grad_objective=grad)
        tol = ode_module._FLOW_TOL
        Y0 = np.array([[2.0 + 1e-6], [-2.0 + 1e-6], [2.0 - 2e-6], [-2.0 - 1e-6]])
        ode_module._polish_limits(q, Y0, np.zeros(4), tol)
        in_batch, one_lane = len(calls), 0
        for y0 in Y0:
            calls.clear()
            try:
                ode_module._polish_limit(q, y0, 0.0, tol)
            except tv.SingularConstraintError:
                pass
            one_lane += len(calls)
        assert in_batch == one_lane

    def test_raising_stacked_solve_rejects_its_lane(self, ex1_04_10):
        # a NaN Hessian near -2 leaves the Newton iterates of that lane NaN,
        # so it does not converge and finds no sink; the other lanes, each
        # polished on its own, still reach 2
        p, _ = ex1_04_10

        def hess(x, t):
            return np.full((1, 1), np.nan) if x[0] < -1.9 else p.hess_objective(x, t)

        q = p.replace(hess_objective=hess)
        Y0 = np.array([[2.0 + 1e-6], [-2.0 + 1e-6], [2.0 - 2e-6]])
        tol = ode_module._FLOW_TOL
        with np.errstate(invalid="ignore"):
            found = ode_module._polish_limits(q, Y0, np.zeros(3), tol)
            assert ode_module._polish_limit(q, Y0[1], 0.0, tol) is None
        assert found[1] is None
        for k in (0, 2):
            assert np.array_equal(found[k], ode_module._polish_limit(q, Y0[k], 0.0, tol))
            assert abs(found[k][0] - 2.0) <= 1e-12

    def test_nan_hessian_at_the_limit_finds_no_sink(self, ex1_04_10):
        # a NaN Hessian near the sink 2: the lane that starts exactly there
        # has converged at once, and its second-order test cannot factor the
        # Hessian; that lane finds no sink and the others reach -2
        p, _ = ex1_04_10

        def hess(x, t):
            return np.full((1, 1), np.nan) if abs(x[0] - 2.0) < 0.1 else p.hess_objective(x, t)

        q = p.replace(hess_objective=hess)
        Y0 = np.array([[-2.0 + 1e-6], [2.0], [-2.0 - 1e-6]])
        tol = ode_module._FLOW_TOL
        found = ode_module._polish_limits(q, Y0, np.zeros(3), tol)
        assert found[1] is None
        assert ode_module._polish_limit(q, Y0[1], 0.0, tol) is None
        for k in (0, 2):
            assert abs(found[k][0] + 2.0) <= 1e-12
            assert np.array_equal(found[k], ode_module._polish_limit(q, Y0[k], 0.0, tol))

    def test_raising_one_lane_polish_runs_once(self, ex1_04_10):
        # a one-lane polish keeps the exception of its one run: the field at
        # the start, then the raise at the Newton point near the sink 2
        p, _ = ex1_04_10
        calls = []

        def grad(x, t):
            calls.append(x)
            if abs(x[0] - 2.0) < 1e-9:
                raise ValueError("gradient fails at the limit")
            return p.grad_objective(x, t)

        q = p.replace(grad_objective=grad)
        found = ode_module._polish_limits(q, np.array([[2.0 + 1e-6]]), [0.0],
                                          ode_module._FLOW_TOL)
        assert isinstance(found[0], ValueError)
        assert len(calls) == 2

    def test_lanes_below_switch_speed(self, ex1_04_10):
        # at the minimizer (speed 0: its start is its limit) and beside the
        # sinks (tol < speed < 1e-4), next to a lane from the box
        p, _ = ex1_04_10
        X = np.array([[-2.0], [2.0 + 1e-6], [2.0 - 1e-6], [-2.0 + 1e-6], [0.0]])
        limits, converged = ode_module.frozen_time_flows(p, X, 0.0)
        assert converged.all()
        assert limits[0, 0] == -2.0
        assert np.abs(limits[1:4, 0] - [2.0, 2.0, -2.0]).max() <= 1e-10
        want_limits, _ = _reference_flows(p, X[4:], [0.0])
        assert np.abs(limits[4] - want_limits[0]).max() <= 1e-8
        for x, sink in zip(X[1:4], [2.0, 2.0, -2.0]):  # and one lane at a time
            limit, conv = tv.frozen_time_flow(p, x, 0.0)
            assert conv and abs(limit[0] - sink) <= 1e-10

    def test_no_lanes(self, ex1_04_10):
        p, _ = ex1_04_10
        limits, converged = ode_module.frozen_time_flows(p, np.zeros((0, 1)), 0.0)
        assert limits.shape == (0, 1)
        assert converged.shape == (0,)


class TestConvergenceStudy:
    def test_quadratic_first_order(self):
        p = scalar_quadratic(alpha=1.0)
        rows = tv.convergence_study(p, np.array([1.0]), [0.05, 0.025, 0.0125],
                                    check_x0=False)
        for a, b in zip(rows, rows[1:]):
            assert 1.5 <= a.sup_err_discrete / b.sup_err_discrete <= 2.5
            assert 1.5 <= a.sup_err_backward_euler / b.sup_err_backward_euler <= 2.5

    def test_unconstrained_engines_solve_same_equation(self, ex1_04_10):
        # for m = 0 the regularized-step KKT equation IS the implicit Euler
        # equation, so the engines disagree only by inner-solver tolerance
        p, _ = ex1_04_10
        n = 628
        td = tv.discrete_trajectory(p, np.array([-2.0]), n)
        tb = tv.backward_euler_trajectory(p, np.array([-2.0]), p.horizon / n)
        assert np.abs(td.states - tb.states).max() <= 1e-6

    def test_discrete_and_implicit_coincide_linear_data(self):
        # f quadratic, h linear, d linear: identical implicit equations
        J = np.array([[1.0, 0.0]])
        p = linear_constraint_problem(
            J, alpha=0.5,
            d_of_t=lambda t: np.array([t]),
            d_rate=lambda t: np.array([1.0]))
        x0 = np.array([0.0, 0.0])  # KKT at t=0: grad f = 0, feasible
        n = 16
        td = tv.discrete_trajectory(p, x0, n)
        tb = tv.backward_euler_trajectory(p, x0, p.horizon / n)
        assert np.abs(td.states - tb.states).max() < 1e-12

    def test_matrix_recovery_first_order(self, matrec):
        p = matrec.replace(alpha=0.2)
        x0 = tv.matrix_recovery_global_state(0.0)
        rows = tv.convergence_study(p, x0, [8e-2, 4e-2, 2e-2])
        for a, b in zip(rows, rows[1:]):
            assert a.sup_err_discrete / b.sup_err_discrete >= 1.5
            assert a.sup_err_backward_euler / b.sup_err_backward_euler >= 1.5

    def test_example1_errors_decrease(self, ex1_04_10):
        p, _ = ex1_04_10
        rows = tv.convergence_study(p, np.array([-2.0]), [4e-3, 2e-3, 1e-3])
        errs_d = [r.sup_err_discrete for r in rows]
        errs_b = [r.sup_err_backward_euler for r in rows]
        assert errs_d[0] > errs_d[1] > errs_d[2]
        assert errs_b[0] > errs_b[1] > errs_b[2]

    def test_rejects_unsorted_dts(self, ex1_04_10):
        p, _ = ex1_04_10
        with pytest.raises(ValueError):
            tv.convergence_study(p, np.array([-2.0]), [1e-3, 2e-3])
