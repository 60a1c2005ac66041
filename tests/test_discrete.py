import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tvland as tv


def scalar_quadratic(alpha=1.0):
    """f = x^2/2, unconstrained: the proximal step has a closed form."""
    return tv.ProblemDef(
        n=1, m=0,
        objective=lambda x, t: 0.5 * float(x[0] * x[0]),
        grad_objective=lambda x, t: np.array([x[0]]),
        hess_objective=lambda x, t: np.array([[1.0]]),
        constraints=lambda x: np.zeros(0),
        jacobian=lambda x: np.zeros((0, 1)),
        constraint_hessians=lambda x: (),
        data_path=lambda t: np.zeros(0),
        data_rate=lambda t: np.zeros(0),
        horizon=1.0,
        alpha=alpha,
    )


def double_well(alpha=0.5):
    """f = x^4/4 - x^2/2, unconstrained: wells at +-1, a maximum at 0."""
    return tv.ProblemDef(
        n=1, m=0,
        objective=lambda x, t: float(0.25 * x[0] ** 4 - 0.5 * x[0] ** 2),
        grad_objective=lambda x, t: np.array([x[0] ** 3 - x[0]]),
        hess_objective=lambda x, t: np.array([[3.0 * x[0] ** 2 - 1.0]]),
        constraints=lambda x: np.zeros(0),
        jacobian=lambda x: np.zeros((0, 1)),
        constraint_hessians=lambda x: (),
        data_path=lambda t: np.zeros(0),
        data_rate=lambda t: np.zeros(0),
        horizon=1.0,
        alpha=alpha,
    )


def spurious_matrec(alpha):
    p = tv.make_matrix_recovery(True, alpha=alpha)
    return p, tv.matrix_recovery_state(p, tv.problem.THE_SPURIOUS_FACTOR, 0.0)


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call."""
    calls = []
    orig = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def counting(p, *names):
    """``(q, calls)``: p with the maps ``names`` counting their per-point calls.

    Each wrapper keeps the attributes of the map it wraps (the array-safe
    mark, the float form), so a stacked call (the trajectory diagnostics, a
    grid's d(t) or d'(t)) stays one call and is not counted, and example1
    still steps in floats on its forms, which are not counted.
    """
    calls = Counter()

    def wrap(name):
        fn = getattr(p, name)

        @functools.wraps(fn)
        def counted(*args):
            if np.ndim(args[0]) < 2:
                calls[name] += 1
            return fn(*args)

        return counted

    return p.replace(**{name: wrap(name) for name in names}), calls


def reject_newton(monkeypatch):
    """Make every regularized step reject its Newton point, as a saddle would."""
    monkeypatch.setattr(tv.discrete, "_newton_point", lambda *args: (None, 0))


class TestRegularizedStep:
    @given(x_prev=st.floats(-5, 5), dt=st.floats(1e-3, 0.5),
           alpha=st.floats(0.05, 5))
    @settings(max_examples=60, deadline=None)
    def test_quadratic_closed_form(self, x_prev, dt, alpha):
        # minimizer of x^2/2 + alpha (x - x_prev)^2 / (2 dt) is x_prev/(1 + dt/alpha)
        p = scalar_quadratic(alpha)
        got = tv.regularized_step(p, np.array([x_prev]), 0.5, dt)
        assert got[0] == pytest.approx(x_prev / (1 + dt / alpha), abs=1e-8)

    def test_example1_first_step_is_small(self, ex1_04_10):
        p, _ = ex1_04_10
        dt = 1e-3
        x1 = tv.regularized_step(p, np.array([-2.0]), dt, dt)
        assert abs(x1[0] - (-2.0)) <= 0.05

    def test_matrix_recovery_feasibility(self, matrec):
        z = tv.matrix_recovery_global_state(0.0)
        x1 = tv.regularized_step(matrec, z, 1e-3, 1e-3)
        feas = np.linalg.norm(matrec.constraints(x1) - matrec.data_path(1e-3))
        assert feas <= 1e-9

    def test_augmented_kkt_tolerance(self, ex1_04_10):
        p, _ = ex1_04_10
        dt = 1e-2
        x_prev = np.array([-2.0])
        x1 = tv.regularized_step(p, x_prev, dt, dt)
        ga = p.grad_objective(x1, dt) + p.alpha * (x1 - x_prev) / dt
        assert np.linalg.norm(ga) <= 1e-9

    def test_rejects_bad_dt(self, ex1_04_10):
        p, _ = ex1_04_10
        for dt in (np.nan, np.inf, 0.0, -0.1):
            with pytest.raises(ValueError, match=f"dt must be positive and finite, got {dt}"):
                tv.regularized_step(p, np.array([-2.0]), 0.1, dt)
        with pytest.raises(ValueError, match="degenerate"):
            tv.regularized_step(p, np.array([-2.0]), 0.1, 1e-14 * p.horizon)

    @pytest.mark.parametrize("scenario, x_prev", [
        ("example1", np.array([np.nan])),
        ("example1", np.array([np.inf])),
        ("example1", np.array([[-2.0]])),
        ("example1", -2.0),
        ("matrec", np.zeros(5)),
    ], ids=["nan", "inf", "column", "scalar", "matrec-short"])
    def test_rejects_non_finite_x_prev(self, ex1_04_10, matrec, scenario, x_prev):
        p = ex1_04_10[0] if scenario == "example1" else matrec
        with pytest.raises(ValueError, match=r"^x_prev must be finite of shape \(%d,\)" % p.n):
            tv.regularized_step(p, x_prev, 0.1, 1e-3)

    def test_budget_exhaustion_raises(self, ex1_04_10):
        p, _ = ex1_04_10
        with pytest.raises(tv.StepSolveError):
            tv.regularized_step(p, np.array([-2.0]), 1.0, 1.0, max_iter=1)


class TestDiscreteTrajectory:
    def test_single_step_shape(self):
        p, _ = tv.make_example1(3.0, alpha=0.5)
        traj = tv.discrete_trajectory(p, np.array([2.0]), 1)
        assert len(traj) == 2
        assert traj.states[0, 0] == 2.0
        assert traj.times[-1] == pytest.approx(p.horizon)

    def test_rejects_zero_steps(self, ex1_04_10):
        with pytest.raises(ValueError, match="steps must be at least 1"):
            tv.discrete_trajectory(ex1_04_10[0], np.array([-2.0]), 0)

    def test_rejects_non_stationary_start(self):
        p, _ = tv.make_example1(3.0, alpha=0.5)
        with pytest.raises(tv.InitializationError):
            tv.discrete_trajectory(p, np.array([1.0]), 4)

    def test_nan_start_is_not_a_local_solution(self):
        # NaN residuals fail the check instead of passing every comparison
        p, _ = tv.make_example1(10.0, alpha=0.4)
        with pytest.raises(tv.InitializationError, match="stationarity = nan"):
            tv.check_local_solution(p, np.array([np.nan]))

    def test_check_can_be_disabled(self):
        p = scalar_quadratic()
        traj = tv.discrete_trajectory(p, np.array([1.0]), 8, check_x0=False)
        ks = np.arange(9)
        closed = 1.0 / (1 + (1.0 / 8)) ** ks
        assert np.allclose(traj.states[:, 0], closed, atol=1e-8)

    def test_feasibility_along_trajectory(self, matrec):
        x0 = tv.matrix_recovery_global_state(0.0)
        traj = tv.discrete_trajectory(matrec, x0, 16)
        assert traj.feasibility.max() <= 1e-9
        assert np.all(traj.sigma_min >= 1.0 - 1e-9)

    @pytest.mark.parametrize("engine", ["discrete", "backward-euler"])
    def test_reused_geometry_gives_fresh_diagnostics(self, engine):
        # each engine fills its diagnostics by the stacked pass over its
        # states; they must equal diagnostics computed afresh from the states
        p = tv.make_matrix_recovery(True, alpha=0.5)
        x0 = tv.matrix_recovery_state(p, tv.problem.THE_SPURIOUS_FACTOR, 0.0)
        if engine == "discrete":
            traj = tv.discrete_trajectory(p, x0, 200)
        else:
            traj = tv.backward_euler_trajectory(p, x0, p.horizon / 200)
        fresh = tv.trajectory_with_diagnostics(p, traj.times, traj.states)
        for name in ("kkt_stationarity", "feasibility", "sigma_min", "step_norm"):
            assert np.array_equal(getattr(traj, name), getattr(fresh, name)), name

    def test_step_returns_geometry_at_solution(self):
        p = tv.make_matrix_recovery(True, alpha=0.5)
        x0 = tv.matrix_recovery_state(p, tv.problem.THE_SPURIOUS_FACTOR, 0.0)
        x, geom, h = tv.regularized_step(p, x0, 0.01, 0.01, return_geometry=True)
        assert np.array_equal(x, tv.regularized_step(p, x0, 0.01, 0.01))
        assert np.array_equal(h, p.constraints(x))
        fresh = tv.geometry.geometry(p, x)
        assert np.array_equal(geom.projector, fresh.projector)
        assert np.array_equal(geom.theta, fresh.theta)
        assert np.array_equal(geom.jacobian, fresh.jacobian)

    def test_determinism(self, ex1_04_10):
        p, _ = ex1_04_10
        a = tv.discrete_trajectory(p, np.array([-2.0]), 50)
        b = tv.discrete_trajectory(p, np.array([-2.0]), 50)
        assert np.array_equal(a.states, b.states)

    def test_step_bound_uniform_in_dt(self, ex1_04_10):
        # step norms scale linearly with dt: max step/dt stays within a
        # factor-2 band across halvings
        p, _ = ex1_04_10
        ratios = []
        for n in (157, 314, 628):
            traj = tv.discrete_trajectory(p, np.array([-2.0]), n)
            dt = p.horizon / n
            ratios.append(traj.step_norm[1:].max() / dt)
        for a, b in zip(ratios, ratios[1:]):
            assert 0.5 <= a / b <= 2.0

    def test_diagnostics_recorded(self, ex1_04_10):
        p, _ = ex1_04_10
        traj = tv.discrete_trajectory(p, np.array([-2.0]), 10)
        assert traj.step_norm[0] == 0.0
        assert np.all(traj.step_norm[1:] > 0)
        # the tracked point lags the moving minimizer, so stationarity of the
        # un-regularized problem is nonzero but modest
        assert traj.kkt_stationarity[1:].max() > 0


class TestNewtonEngine:
    """The Newton-KKT solver of each step, its safeguards and its fallback."""

    def test_matches_projected_gradient_on_matrec(self, monkeypatch):
        # the track-matrec workload: alpha 0.5, 2000 steps from the spurious
        # start; rejecting every Newton point forces the projected-gradient path
        p, x0 = spurious_matrec(0.5)
        fallbacks = count_calls(monkeypatch, tv.discrete, "_projected_gradient")
        newton = tv.discrete_trajectory(p, x0, 2000)
        assert not fallbacks
        reject_newton(monkeypatch)
        forced = tv.discrete_trajectory(p, x0, 2000)
        assert len(fallbacks) == 2000
        assert np.abs(newton.states - forced.states).max() <= 1e-8

    def test_kkt_evaluations_per_step(self, monkeypatch):
        # the track-matrec run: Newton from the extrapolated start needs one
        # step, two KKT residual evaluations, where the restored warm start
        # needed about three
        p, x0 = spurious_matrec(0.5)
        iterations = []
        newton_kkt = tv.discrete.newton_kkt

        def counted(*args, **kwargs):
            res = newton_kkt(*args, **kwargs)
            iterations.append(res.iterations)
            return res

        monkeypatch.setattr(tv.discrete, "newton_kkt", counted)
        tv.discrete_trajectory(p, x0, 2000)
        assert len(iterations) == 2000
        assert sum(iterations) <= 2.5 * 2000

    def test_data_path_once_per_grid_time(self):
        # an unmarked d(t) is read row by row once per grid time, for the
        # steps (Newton is handed the subproblem's) and the diagnostics
        # alike; x0's check adds one
        p, x0 = spurious_matrec(0.5)
        calls = []

        def data_path(t):
            calls.append(t)
            return p.data_path(t)

        tv.discrete_trajectory(p.replace(data_path=data_path), x0, 50)
        assert len(calls) == 50 + 2

    def test_each_point_evaluated_once(self):
        # the track-matrec run keeps its final state to the bit.  A step
        # evaluates J and grad F at Newton's two iterates, whose last the
        # acceptance tests reuse, and h four times: twice restoring the
        # warm start, whose first residual reuses the accepted h of the step
        # before, and twice in Newton.  x0's check and the first steps, which
        # start from the restored warm start, add the rest.
        p, x0 = spurious_matrec(0.5)
        q, calls = counting(p, "jacobian", "grad_objective", "constraints")
        traj = tv.discrete_trajectory(q, x0, 2000)
        assert [v.hex() for v in traj.final_state] == [
            "0x1.fee95d1da30eep-1", "-0x1.fb5bd76b225e1p-7", "-0x1.0e7c0701b56f9p-8",
            "-0x1.b673966ce44a5p-6", "-0x1.165710d21fd42p-8", "0x1.b3670ef291a39p-13"]
        assert calls == {"jacobian": 2 * 2000 + 7, "grad_objective": 2 * 2000 + 4,
                         "constraints": 4 * 2000 + 5}

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2, 0.5, 1.0])
    def test_matches_projected_gradient_across_alpha(self, alpha, monkeypatch):
        # dt = 1e-2, both paths solved to 1e-10: near the spurious start the
        # tangent saddle amplifies the projected-gradient path's own stopping
        # error, to 9e-9 at alpha 0.05 under the default 1e-9
        p, x0 = spurious_matrec(alpha)
        steps = round(p.horizon / 1e-2)
        reduced = count_calls(monkeypatch, tv.geometry, "_reduced_positive_definite")
        fallbacks = count_calls(monkeypatch, tv.discrete, "_projected_gradient")
        newton = tv.discrete_trajectory(p, x0, steps, 1e-10, 1e-10)
        if alpha == 0.05:
            # alpha/dt = 5: the Lagrangian Hessian is indefinite on the
            # whole space somewhere, so Cholesky alone does not settle it
            assert reduced or fallbacks
        reject_newton(monkeypatch)
        forced = tv.discrete_trajectory(p, x0, steps, 1e-10, 1e-10)
        assert np.abs(newton.states - forced.states).max() <= 1e-8

    @pytest.mark.parametrize("missing", ["hess_objective", "constraint_hessians"])
    def test_missing_hessians_are_differenced(self, missing, monkeypatch):
        # central differences of grad_objective / jacobian stand in for the
        # missing map, and Newton runs on them
        p, x0 = spurious_matrec(0.5)
        newton = count_calls(monkeypatch, tv.discrete, "newton_kkt")
        fallbacks = count_calls(monkeypatch, tv.discrete, "_projected_gradient")
        x = tv.regularized_step(p.replace(**{missing: None}), x0, 0.01, 0.01)
        assert len(newton) == 1 and not fallbacks
        assert np.abs(x - tv.regularized_step(p, x0, 0.01, 0.01)).max() <= 1e-8

    def test_negative_curvature_start_rejected(self, monkeypatch):
        # F = f + (x - 0.1)^2 / 4 has F'' < 0 at the warm start 0.1; Newton
        # climbs to the local maximum of F near -0.1, descent reaches the
        # minimum near 0.75
        p = double_well(alpha=0.5)
        x_prev = np.array([0.1])
        raw = tv.geometry.newton_kkt(p, x_prev, 1.0, prox=(x_prev, 0.5))
        assert raw.status == "converged"
        assert raw.x[0] == pytest.approx(-0.102, abs=1e-3)
        got = tv.regularized_step(p, x_prev, 1.0, 1.0)
        reject_newton(monkeypatch)
        forced = tv.regularized_step(p, x_prev, 1.0, 1.0)
        assert np.array_equal(got, forced)
        assert got[0] == pytest.approx(0.7525, abs=1e-3)

    def test_descent_test_alone_rejects_the_maximum(self, monkeypatch):
        monkeypatch.setattr(tv.discrete, "positive_definite_on_kernel", lambda M, J: True)
        got = tv.regularized_step(double_well(alpha=0.5), np.array([0.1]), 1.0, 1.0)
        assert got[0] == pytest.approx(0.7525, abs=1e-3)

    def test_curvature_test_alone_rejects_a_stationary_start(self, monkeypatch):
        # x_prev = 0 is a maximum of F: Newton stops there at once with F
        # unchanged, so only the curvature test sends the step to the fallback
        fallbacks = count_calls(monkeypatch, tv.discrete, "_projected_gradient")
        got = tv.regularized_step(double_well(alpha=0.5), np.array([0.0]), 1.0, 1.0)
        assert len(fallbacks) == 1 and got[0] == 0.0

    def test_budget_counts_newton_iterations(self):
        # at the maximum x_prev = 0 Newton spends one iteration before the
        # curvature test rejects its point, and the fallback needs one more
        p = double_well(alpha=0.5)
        with pytest.raises(tv.StepSolveError, match="exceeded 1 iterations"):
            tv.regularized_step(p, np.array([0.0]), 1.0, 1.0, max_iter=1)
        assert tv.regularized_step(p, np.array([0.0]), 1.0, 1.0, max_iter=2)[0] == 0.0


class TestRestoration:
    def test_minimum_norm_steps(self, matrec):
        # from a point off the leaf the restored point differs from it by a
        # vector in the row space of J (to first order)
        z = tv.matrix_recovery_global_state(0.3)
        d = matrec.data_path(0.31)
        x = tv.discrete._restore_feasibility(matrec, z, d, 1e-12)
        assert np.linalg.norm(matrec.constraints(x) - d) <= 1e-12
        P = tv.geometry.geometry(matrec, z).projector
        assert np.linalg.norm(P @ (x - z)) <= 1e-3 * np.linalg.norm(x - z)

    def test_chord_steps(self, matrec):
        z = tv.matrix_recovery_global_state(0.3)
        d = matrec.data_path(0.31)
        theta = tv.geometry.geometry(matrec, z).theta
        newton = tv.discrete._restore_feasibility(matrec, z, d, 1e-12)
        chord = tv.discrete._restore_feasibility(matrec, z, d, 1e-12, theta)
        # another point of the leaf, off by the square of the step
        assert np.linalg.norm(matrec.constraints(chord) - d) <= 1e-12
        assert np.linalg.norm(chord - newton) <= np.linalg.norm(newton - z) ** 2
        # a map that does not contract the residual hands over to lstsq steps
        bad = tv.discrete._restore_feasibility(matrec, z, d, 1e-12, -theta)
        assert np.linalg.norm(matrec.constraints(bad) - d) <= 1e-12

    def test_singular_jacobian_raises(self):
        # h(x) = x0^2 / 2 has J = 0 at x0 = 0
        p = tv.ProblemDef(
            n=2, m=1, objective=lambda x, t: 0.0,
            grad_objective=lambda x, t: np.zeros(2),
            constraints=lambda x: np.array([0.5 * x[0] ** 2]),
            jacobian=lambda x: np.array([[x[0], 0.0]]),
            data_path=lambda t: np.array([1.0]), data_rate=lambda t: np.zeros(1),
            horizon=1.0, alpha=1.0)
        with pytest.raises(tv.SingularConstraintError):
            tv.discrete._restore_feasibility(p, np.zeros(2), np.array([1.0]), 1e-9)
