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
        with pytest.raises(ValueError):
            tv.regularized_step(p, np.array([-2.0]), 0.1, 0.0)
        with pytest.raises(ValueError):
            tv.regularized_step(p, np.array([-2.0]), 0.1, 1e-14 * p.horizon)

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

    def test_rejects_non_stationary_start(self):
        p, _ = tv.make_example1(3.0, alpha=0.5)
        with pytest.raises(tv.InitializationError):
            tv.discrete_trajectory(p, np.array([1.0]), 4)

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

    def test_reused_geometry_gives_fresh_diagnostics(self):
        # the engine hands its last geometry of each step to the diagnostics;
        # they must equal diagnostics computed from scratch at the states
        p = tv.make_matrix_recovery(True, alpha=0.5)
        x0 = tv.matrix_recovery_state(p, tv.problem.THE_SPURIOUS_FACTOR, 0.0)
        traj = tv.discrete_trajectory(p, x0, 200)
        fresh = tv.trajectory_with_diagnostics(p, traj.times, traj.states)
        for name in ("kkt_stationarity", "feasibility", "sigma_min", "step_norm"):
            assert np.array_equal(getattr(traj, name), getattr(fresh, name)), name

    def test_step_returns_geometry_at_solution(self):
        p = tv.make_matrix_recovery(True, alpha=0.5)
        x0 = tv.matrix_recovery_state(p, tv.problem.THE_SPURIOUS_FACTOR, 0.0)
        x, geom = tv.regularized_step(p, x0, 0.01, 0.01, return_geometry=True)
        assert np.array_equal(x, tv.regularized_step(p, x0, 0.01, 0.01))
        fresh = tv.geometry(p, x)
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
