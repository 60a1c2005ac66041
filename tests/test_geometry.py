import numpy as np
import pytest

import tvland as tv
from conftest import linear_constraint_problem


def random_full_rank_problem(rng, n_max=8):
    """A tiny constrained problem with a random well-conditioned Jacobian."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, n + 1))
    while True:
        J = rng.standard_normal((m, n))
        if np.linalg.svd(J, compute_uv=False)[-1] > 1e-3:
            return linear_constraint_problem(J)


class TestGeometry:
    def test_unconstrained_projector_is_identity(self, ex1_04_10):
        p, _ = ex1_04_10
        geom = tv.geometry(p, np.array([0.3]))
        assert np.array_equal(geom.projector, np.eye(1))
        assert geom.theta.shape == (1, 0)
        assert geom.sigma_min == np.inf

    def test_axis_aligned_constraint(self):
        p = linear_constraint_problem(np.array([[1.0, 0.0]]))
        geom = tv.geometry(p, np.zeros(2))
        assert np.allclose(geom.projector, np.diag([0.0, 1.0]), atol=1e-14)
        assert np.allclose(geom.theta, np.array([[1.0], [0.0]]), atol=1e-14)
        assert geom.sigma_min == pytest.approx(1.0)

    def test_matrix_recovery_pseudoinverse_residual(self, matrec):
        z = tv.matrix_recovery_global_state(0.0)
        geom = tv.geometry(matrec, z)
        J = matrec.jacobian(z)
        assert np.abs(J @ geom.theta - np.eye(4)).max() < 1e-10

    def test_projector_identities_random(self):
        # spec-level property: 100 random full-rank Jacobians, tol 1e-10
        rng = np.random.default_rng(2024)
        for _ in range(100):
            p = random_full_rank_problem(rng)
            x = rng.standard_normal(p.n)
            geom = tv.geometry(p, x)
            P = geom.projector
            J = p.jacobian(x)
            assert np.abs(P - P.T).max() < 1e-10
            assert np.abs(P @ P - P).max() < 1e-10
            assert np.abs(J @ P).max() < 1e-10
            assert np.abs(J @ geom.theta - np.eye(p.m)).max() < 1e-10

    def test_singular_jacobian_raises(self):
        p = linear_constraint_problem(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(tv.SingularConstraintError):
            tv.geometry(p, np.zeros(2))


class TestEta:
    def test_stationary_point_gives_zero(self, ex1_04_10):
        p, _ = ex1_04_10
        assert tv.eta(p, np.array([2.0]), 0.0)[0] == 0.0

    def test_projection_kills_constrained_coordinate(self):
        # h(x) = x1, f = x1 + x2 -> eta = (0, 1)
        J = np.array([[1.0, 0.0]])
        p = linear_constraint_problem(J).replace(
            objective=lambda x, t: float(x[0] + x[1]),
            grad_objective=lambda x, t: np.array([1.0, 1.0]),
        )
        assert np.allclose(tv.eta(p, np.zeros(2), 0.0), [0.0, 1.0], atol=1e-14)

    def test_matrix_recovery_zero_slack(self, matrec):
        z = tv.matrix_recovery_global_state(0.0)
        assert np.linalg.norm(tv.eta(matrec, z, 0.0)) < 1e-14

    def test_orthogonal_to_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = random_full_rank_problem(rng)
            grad = rng.standard_normal(p.n)
            q = p.replace(grad_objective=lambda x, t, g=grad: g)
            x = rng.standard_normal(p.n)
            e = tv.eta(q, x, 0.0)
            J = q.jacobian(x)
            for row in J:
                bound = 1e-10 * max(np.linalg.norm(e) * np.linalg.norm(row), 1e-30)
                assert abs(np.dot(e, row)) <= max(bound, 1e-12)


class TestOdeRhs:
    def test_stationary_at_zero_phase(self, ex1_04_10):
        p, _ = ex1_04_10
        assert tv.ode_rhs(p, np.array([2.0]), 0.0)[0] == 0.0

    def test_separable_linear_case(self):
        # n=2, h(x)=x1, d(t)=t, f=|x|^2/2, alpha=1 -> rhs = (1, -x2)
        J = np.array([[1.0, 0.0]])
        p = linear_constraint_problem(
            J, alpha=1.0,
            d_of_t=lambda t: np.array([t]),
            d_rate=lambda t: np.array([1.0]))
        x = np.array([0.7, -1.3])
        assert np.allclose(tv.ode_rhs(p, x, 0.5), [1.0, 1.3], atol=1e-14)

    def test_matrix_recovery_tangency_with_fd_rate(self, matrec):
        # J rhs must equal the finite-difference derivative of d
        z = tv.matrix_recovery_global_state(0.0)
        rhs = tv.ode_rhs(matrec, z, 0.0)
        J = matrec.jacobian(z)
        h = 1e-6
        dd_fd = (matrec.data_path(h) - matrec.data_path(-h)) / (2 * h)
        assert np.linalg.norm(J @ rhs - dd_fd) <= 1e-8

    def test_tangency_at_random_feasible_points(self, matrec):
        rng = np.random.default_rng(5)
        for _ in range(100):
            X = rng.standard_normal(2) * 1.5
            t = rng.uniform(0, 2 * np.pi)
            x = tv.matrix_recovery_state(matrec, X, t)
            rhs = tv.ode_rhs(matrec, x, t)
            J = matrec.jacobian(x)
            assert np.linalg.norm(J @ rhs - matrec.data_rate(t)) <= 1e-8


class TestKKTResidual:
    def test_unconstrained_stationary(self, ex1_04_10):
        p, _ = ex1_04_10
        res = tv.kkt_residual(p, np.array([-2.0]), 0.0)
        assert res.stationarity == 0.0
        assert res.feasibility == 0.0
        assert res.multipliers.size == 0

    def test_hand_computed_multiplier(self):
        # h(x)=x1, f=x1+x2, d=0, x=(0,0): mu=-1, stationarity = |(0,1)| = 1
        J = np.array([[1.0, 0.0]])
        p = linear_constraint_problem(J).replace(
            objective=lambda x, t: float(x[0] + x[1]),
            grad_objective=lambda x, t: np.array([1.0, 1.0]),
        )
        res = tv.kkt_residual(p, np.zeros(2), 0.0)
        assert res.multipliers[0] == pytest.approx(-1.0)
        assert res.stationarity == pytest.approx(1.0)
        assert res.feasibility == 0.0

    def test_matrix_recovery_global(self, matrec):
        z = tv.matrix_recovery_global_state(0.0)
        res = tv.kkt_residual(matrec, z, 0.0)
        assert res.stationarity < 1e-14
        assert res.feasibility < 1e-14
        assert np.allclose(res.multipliers, 0.0, atol=1e-14)

    def test_stationarity_equals_eta_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = random_full_rank_problem(rng)
            grad = rng.standard_normal(p.n)
            q = p.replace(grad_objective=lambda x, t, g=grad: g)
            x = rng.standard_normal(p.n)
            res = tv.kkt_residual(q, x, 0.0)
            assert res.stationarity == pytest.approx(
                np.linalg.norm(tv.eta(q, x, 0.0)), abs=1e-12)


class TestTrajectoryDiagnostics:
    def test_stacked_diagnostics_equal_point_loop(self, ex1_04_10, be_traj_04_10):
        # example1 fills the diagnostics from one stacked gradient call; an
        # unmarked wrapper takes the per-point loop
        p, _ = ex1_04_10
        lanes = p.replace(grad_objective=lambda x, t: p.grad_objective(x, t))
        traj = be_traj_04_10
        a = tv.trajectory_with_diagnostics(p, traj.times, traj.states)
        b = tv.trajectory_with_diagnostics(lanes, traj.times, traj.states)
        for name in ("kkt_stationarity", "feasibility", "sigma_min", "step_norm"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.step_norm[0] == 0.0
        assert np.all(a.sigma_min == np.inf)
