import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    def test_package_exposes_the_module(self):
        # tvland.geometry is the module, not its function of the same name
        assert tv.geometry.trajectory_with_diagnostics is tv.trajectory_with_diagnostics

    def test_unconstrained_projector_is_identity(self, ex1_04_10):
        p, _ = ex1_04_10
        geom = tv.geometry.geometry(p, np.array([0.3]))
        assert np.array_equal(geom.projector, np.eye(1))
        assert geom.theta.shape == (1, 0)
        assert geom.sigma_min == np.inf

    def test_axis_aligned_constraint(self):
        p = linear_constraint_problem(np.array([[1.0, 0.0]]))
        geom = tv.geometry.geometry(p, np.zeros(2))
        assert np.allclose(geom.projector, np.diag([0.0, 1.0]), atol=1e-14)
        assert np.allclose(geom.theta, np.array([[1.0], [0.0]]), atol=1e-14)
        assert geom.sigma_min == pytest.approx(1.0)

    def test_matrix_recovery_pseudoinverse_residual(self, matrec):
        z = tv.matrix_recovery_global_state(0.0)
        geom = tv.geometry.geometry(matrec, z)
        J = matrec.jacobian(z)
        assert np.abs(J @ geom.theta - np.eye(4)).max() < 1e-10

    def test_projector_identities_random(self):
        # spec-level property: 100 random full-rank Jacobians, tol 1e-10
        rng = np.random.default_rng(2024)
        for _ in range(100):
            p = random_full_rank_problem(rng)
            x = rng.standard_normal(p.n)
            geom = tv.geometry.geometry(p, x)
            P = geom.projector
            J = p.jacobian(x)
            assert np.abs(P - P.T).max() < 1e-10
            assert np.abs(P @ P - P).max() < 1e-10
            assert np.abs(J @ P).max() < 1e-10
            assert np.abs(J @ geom.theta - np.eye(p.m)).max() < 1e-10

    def test_singular_jacobian_raises(self):
        p = linear_constraint_problem(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(tv.SingularConstraintError):
            tv.geometry.geometry(p, np.zeros(2))


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


def _svd_form(J):
    """P and theta from a thin SVD of J, after the regularity check: the
    geometry as it was before the Gram solve."""
    U, S, Vt = np.linalg.svd(J, full_matrices=False)
    tv.geometry.require_regular(float(S[-1]), np.zeros(J.shape[1]))
    return np.eye(J.shape[1]) - Vt.T @ Vt, (Vt.T / S) @ U.T


@st.composite
def row_scaled_jacobians(draw):
    """A random m x n Jacobian (m <= n <= 8), its rows scaled by up to 1e-4 to
    1e2 each, so that both the Gram solve and the SVD fallback are taken."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** np.array(draw(st.lists(st.floats(-4.0, 2.0), min_size=m, max_size=m)))
    return scales[:, None] * rng.standard_normal((m, n))


class TestSolveForm:
    @given(row_scaled_jacobians())
    def test_agrees_with_the_svd_form(self, J):
        S = np.linalg.svd(J, compute_uv=False)
        if S[-1] < tv.geometry.SINGULARITY_TOL:
            return  # test_raises_exactly_below_the_tolerance covers it
        geom = tv.geometry.geometry(linear_constraint_problem(J), np.zeros(J.shape[1]))
        P, theta = _svd_form(J)
        tol = 1e-12 * (1.0 + S[0] / S[-1])  # 1e-12 (1 + |J| |J^+|)
        assert np.abs(geom.projector - P).max() <= tol
        # theta is measured against |J^+| = 1 / sigma_min
        assert np.abs(geom.theta - theta).max() * S[-1] <= tol
        assert geom.sigma_min == S[-1]

    @given(row_scaled_jacobians(), st.floats(0.5, 2.0))
    def test_raises_exactly_below_the_tolerance(self, J, r):
        # J scaled so that sigma_min is r times the tolerance
        c_tol = tv.geometry.SINGULARITY_TOL
        J = J * (r * c_tol / np.linalg.svd(J, compute_uv=False)[-1])
        below = np.linalg.svd(J, full_matrices=False)[1][-1] < c_tol
        p = linear_constraint_problem(J)
        if below:
            with pytest.raises(tv.SingularConstraintError, match="sigma_min"):
                tv.geometry.geometry(p, np.zeros(J.shape[1]))
        else:
            tv.geometry.geometry(p, np.zeros(J.shape[1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_jacobian_meets_the_svd_form(self, bad):
        # the SVD decides a non-finite J as it always did: a NaN fails to
        # converge, an inf gives a NaN theta
        J = np.array([[1.0, 0.0, 2.0], [0.0, bad, 1.0]])
        p = linear_constraint_problem(J)
        try:
            want = _svd_form(J)
        except np.linalg.LinAlgError as exc:
            with pytest.raises(type(exc), match=str(exc)):
                tv.geometry.geometry(p, np.zeros(3))
            return
        geom = tv.geometry.geometry(p, np.zeros(3))
        assert np.array_equal(geom.projector, want[0], equal_nan=True)
        assert np.array_equal(geom.theta, want[1], equal_nan=True)

    def test_projects_where_the_svd_decides(self):
        # regular (sigma_min = 1e-4) but conditioned past _GRAM_COND_MAX
        J = np.array([[1.0, 0.0, 0.0], [0.0, 1e-4, 0.0]])
        geom = tv.geometry.geometry(linear_constraint_problem(J), np.zeros(3))
        assert geom.svd_rows is not None
        g = np.array([0.3, -1.2, 2.5])
        assert np.array_equal(geom.project(g), geom.projector @ g)
        assert np.abs(J @ geom.project(g)).max() <= 1e-12

    def test_data_jacobian_keeps_its_value(self):
        # w = theta^T theta d' stands in for the solve (J J^T) w = d'
        p = circle_tracking_toy()
        for x, t in (([1.0, 0.2], 0.3), ([-0.4, 0.9], 2.0)):
            x = np.array(x)
            geom = tv.geometry.geometry(p, x)
            J, dd = geom.jacobian, p.data_rate(t)
            w = np.linalg.solve(J @ J.T, dd)
            H = tv.geometry.constraint_hessians(p, x)
            want = (geom.projector @ tv.geometry.weighted_constraint_hessian(H, w)
                    - geom.theta @ (H @ (geom.theta @ dd)))
            assert np.allclose(tv.geometry.data_jacobian(p, x, t, geom), want,
                               rtol=0.0, atol=1e-14)


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


    @pytest.mark.parametrize("consistent", [True, False])
    def test_constrained_diagnostics_equal_row_calls(self, consistent):
        # matrix recovery fills its diagnostics from one call per map; the
        # maps wrapped in unmarked lambdas are called row by row, with the
        # same bits
        p = tv.make_matrix_recovery(consistent, alpha=0.5)
        lanes = p.replace(**{name: (lambda f: lambda *a: f(*a))(getattr(p, name))
                             for name in ("grad_objective", "jacobian", "constraints",
                                          "data_path")})
        rng = np.random.default_rng(5)
        times = np.linspace(0.0, p.horizon, 41)
        states = rng.standard_normal((41, 6))
        a = tv.trajectory_with_diagnostics(p, times, states)
        b = tv.trajectory_with_diagnostics(lanes, times, states)
        for name in ("kkt_stationarity", "feasibility", "sigma_min", "step_norm"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_stacked_pass_matches_the_point_loop(self):
        # the per-point loop the stacked pass replaced: geometry, kkt_residual
        # and the step norm at each state, equal within rounding
        p = tv.make_matrix_recovery(True, alpha=0.5)
        rng = np.random.default_rng(6)
        times = np.linspace(0.0, p.horizon, 33)
        states = rng.standard_normal((33, 6)) * 2.0
        traj = tv.trajectory_with_diagnostics(p, times, states)
        for i, (t, x) in enumerate(zip(times, states)):
            res = tv.kkt_residual(p, x, t)
            assert traj.kkt_stationarity[i] == pytest.approx(res.stationarity, rel=1e-12, abs=1e-14)
            assert traj.feasibility[i] == pytest.approx(res.feasibility, rel=1e-12, abs=1e-14)
            assert traj.sigma_min[i] == pytest.approx(tv.geometry.geometry(p, x).sigma_min,
                                                      rel=1e-14)
            step = 0.0 if i == 0 else np.linalg.norm(x - states[i - 1])
            assert traj.step_norm[i] == pytest.approx(step, rel=1e-15)

    def test_degenerate_state_raises(self):
        # J = x^T vanishes at the origin: the pass names the first such state
        p = circle_tracking_toy()
        states = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(tv.SingularConstraintError, match=r"x = array\(\[0\., 0\.\]\)"):
            tv.trajectory_with_diagnostics(p, np.arange(3.0), states)


def _old_kkt_refine(p, x, t, tol=1e-10, max_newton=50):
    """The KKT refinement loop as it was before the shared Newton kernel."""
    n, m = p.n, p.m
    x = np.asarray(x, dtype=float).copy()
    mu = tv.kkt_residual(p, x, t).multipliers
    for _ in range(max_newton):
        grad = np.asarray(p.grad_objective(x, t), dtype=float)
        if m:
            J = np.asarray(p.jacobian(x), dtype=float)
            r_stat = grad + J.T @ mu
            r_feas = p.constraints(x) - p.data_path(t)
        else:
            r_stat = grad
            r_feas = np.zeros(0)
        if np.linalg.norm(r_stat) <= tol and np.linalg.norm(r_feas) <= tol:
            return x
        M = np.asarray(p.hess_objective(x, t), dtype=float)
        if m:
            Mw = np.zeros((n, n))
            for wi, Hi in zip(mu, p.constraint_hessians(x)):
                if wi != 0.0:
                    Mw = Mw + wi * np.asarray(Hi, dtype=float)
            M = M + Mw
            KKT = np.zeros((n + m, n + m))
            KKT[:n, :n] = M
            KKT[:n, n:] = J.T
            KKT[n:, :n] = J
            rhs = -np.concatenate([r_stat, r_feas])
        else:
            KKT = M
            rhs = -r_stat
        delta = np.linalg.solve(KKT, rhs)
        x = x + delta[:n]
        if m:
            mu = mu + delta[n:]
    raise tv.StepSolveError("stalled")


def circle_tracking_toy():
    """n = 2, m = 1: a point on a circle of moving radius, pulled to (2, 0)."""
    return tv.ProblemDef(
        n=2, m=1,
        objective=lambda x, t: 0.5 * float((x[0] - 2.0) ** 2 + x[1] ** 2),
        grad_objective=lambda x, t: np.array([x[0] - 2.0, x[1]]),
        hess_objective=lambda x, t: np.eye(2),
        constraints=lambda x: np.array([0.5 * float(x @ x)]),
        jacobian=lambda x: np.asarray(x, dtype=float)[None, :],
        constraint_hessians=lambda x: (np.eye(2),),
        data_path=lambda t: np.array([0.5 + 0.3 * np.sin(t)]),
        data_rate=lambda t: np.array([0.3 * np.cos(t)]),
        horizon=2 * np.pi,
        alpha=1.0,
    )


@given(st.lists(st.floats(-1e150, 1e150), max_size=10))
def test_norm_has_the_bits_of_numpy(values):
    # the hot paths take _norm for np.linalg.norm of a vector, so the two
    # must agree bit for bit
    v = np.array(values, dtype=float)
    assert tv.geometry._norm(v).hex() == float(np.linalg.norm(v)).hex()


@pytest.mark.parametrize("n", range(1, 11))
def test_norm_bits_on_contiguous_and_strided_vectors(n):
    # contiguous vectors get np.linalg.norm's bits.  np.linalg.norm copies a
    # strided view to a contiguous array first, whose dot sums in another
    # order from n = 4 on; there _norm keeps the bits of sqrt(v.dot(v))
    rng = np.random.default_rng(n)
    for _ in range(2000):
        v = rng.standard_normal(2 * n) * 10.0 ** rng.uniform(-7, 7)
        contiguous, strided = v[:n], v[::2]
        assert tv.geometry._norm(contiguous) == np.linalg.norm(contiguous)
        assert tv.geometry._norm(strided) == math.sqrt(strided.dot(strided))


class TestNewtonKKT:
    def test_kkt_track_keeps_its_bits(self, matrec, ex1_04_10):
        # the inputs of the spectrum tests: kkt_refine on the shared kernel
        # returns exactly what its own Newton loop returned
        cases = [(matrec, tv.matrix_recovery_global_state(0.0), np.linspace(0.0, 2 * np.pi, 33)),
                 (ex1_04_10[0], np.array([2.0]), np.linspace(0.0, 2 * np.pi, 129)),
                 (circle_tracking_toy(), np.array([1.0, 0.1]), np.linspace(0.0, 2 * np.pi, 17))]
        for p, x0, times in cases:
            traj = tv.kkt_track(p, x0, times)
            x = x0
            for t, got in zip(times, traj.states):
                x = _old_kkt_refine(p, x, float(t))
                assert np.array_equal(got, x)

    def test_statuses(self, ex1_04_10):
        from tvland.geometry import newton_kkt
        p, _ = ex1_04_10
        res = newton_kkt(p, np.array([2.3]), 0.0)
        assert res.status == "converged"
        assert res.x[0] == pytest.approx(2.0, abs=1e-10)
        assert res.hessian.shape == (1, 1)
        # a start at a minimizer converges without forming a Hessian
        at_min = newton_kkt(p, res.x, 0.0)
        assert (at_min.status, at_min.iterations, at_min.hessian) == ("converged", 1, None)
        assert newton_kkt(p, np.array([2.3]), 0.0, max_iter=1).status == "max_iter"

    def test_proximal_term(self):
        # min x^2/2 + w (x - x_prev)^2 / 2 is x_prev w / (1 + w): one step
        from tvland.geometry import newton_kkt
        from test_discrete import scalar_quadratic
        res = newton_kkt(scalar_quadratic(), np.array([1.0]), 0.0,
                         prox=(np.array([1.0]), 3.0))
        assert res.status == "converged" and res.iterations == 2
        assert res.x[0] == pytest.approx(0.75, abs=1e-15)
        assert res.hessian[0, 0] == 4.0

    def test_singular_kkt_matrix(self):
        from tvland.geometry import newton_kkt
        flat = tv.ProblemDef(
            n=1, m=0, objective=lambda x, t: float(x[0]),
            grad_objective=lambda x, t: np.array([1.0]),
            hess_objective=lambda x, t: np.zeros((1, 1)),
            constraints=lambda x: np.zeros(0), jacobian=lambda x: np.zeros((0, 1)),
            data_path=lambda t: np.zeros(0), data_rate=lambda t: np.zeros(0),
            horizon=1.0, alpha=1.0)
        assert newton_kkt(flat, np.array([0.0]), 0.0).status == "singular"
        with pytest.raises(tv.StepSolveError):
            tv.kkt_refine(flat, np.array([0.0]), 0.0)

    def test_non_finite_step_stops_as_singular(self, ex1_04_10):
        # a NaN Hessian below -1.9 makes the first step NaN: Newton stops
        # there instead of iterating on NaN until max_iter
        from tvland.geometry import newton_kkt
        p, _ = ex1_04_10

        def hess(x, t):
            return np.full((1, 1), np.nan) if x[0] < -1.9 else p.hess_objective(x, t)

        q = p.replace(hess_objective=hess)
        res = newton_kkt(q, np.array([-2.0 + 1e-6]), 0.0, tol=4e-12, max_iter=30)
        assert res.status == "singular"
        assert res.iterations <= 2
        assert np.isfinite(res.x).all()


class TestPositiveDefiniteOnKernel:
    def test_full_space_positive_definite(self):
        from tvland.geometry import positive_definite_on_kernel
        assert positive_definite_on_kernel(np.diag([1.0, 2.0]), np.zeros((0, 2)))
        assert positive_definite_on_kernel(np.diag([1.0, 2.0]), np.array([[1.0, 0.0]]))

    def test_reduced_test_when_cholesky_fails(self, monkeypatch):
        mod = tv.geometry
        calls = []
        orig = mod._reduced_positive_definite
        monkeypatch.setattr(mod, "_reduced_positive_definite",
                            lambda M, J: calls.append(1) or orig(M, J))
        M = np.diag([-5.0, 1.0, 2.0])
        # negative only along e0, which J = e0^T removes from the kernel
        assert mod.positive_definite_on_kernel(M, np.array([[1.0, 0.0, 0.0]]))
        # negative along e0, which lies in the kernel of J = e1^T
        assert not mod.positive_definite_on_kernel(M, np.array([[0.0, 1.0, 0.0]]))
        assert len(calls) == 2
        # unconstrained: there is no kernel to reduce to
        assert not mod.positive_definite_on_kernel(M, np.zeros((0, 3)))
        assert len(calls) == 2

    def test_nan_is_not_positive_definite(self):
        from tvland.geometry import positive_definite_on_kernel
        M = np.full((2, 2), np.nan)
        assert not positive_definite_on_kernel(M, np.zeros((0, 2)))
        assert not positive_definite_on_kernel(M, np.array([[1.0, 0.0]]))
