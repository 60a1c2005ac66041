import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tvland as tv
from tvland.conditions import line_form
from tvland.problem import each_row


class TestExample1:
    def test_stationary_points_of_g(self, ex1_04_10):
        _, sf = ex1_04_10
        # exact arithmetic: g'(y) = y^3 + 3/8 y^2 - 4y - 3/2
        assert sf.dg(-2.0) == 0.0
        assert sf.dg(-0.375) == pytest.approx(0.0, abs=1e-15)
        assert sf.dg(2.0) == 0.0

    def test_well_depths(self, ex1_04_10):
        _, sf = ex1_04_10
        assert sf.g(-2.0) == pytest.approx(6.0)
        assert sf.g(2.0) == pytest.approx(2.0)
        assert sf.g(sf.y1) > sf.g(sf.y3)

    def test_curvatures(self, ex1_04_10):
        _, sf = ex1_04_10
        assert sf.d2g(sf.y1) > 0
        assert sf.d2g(sf.y2) < 0
        assert sf.d2g(sf.y3) > 0

    def test_zero_phase(self, ex1_04_10):
        p, sf = ex1_04_10
        for x in (-3.0, 0.5, 4.0):
            assert p.objective(np.array([x]), 0.0) == sf.g(x)

    def test_carries_its_landscape(self, ex1_04_10, matrec):
        p, sf = ex1_04_10
        assert p.landscape == (sf, 10.0, 1.0, 0.0)
        assert matrec.landscape is None
        g, dg = line_form(sf)
        assert tv.make_damped_sinusoid(g, dg, 1.0, 1.0, 0.0, [1.0]).landscape is None

    @pytest.mark.parametrize("omega, lam", [(1.0, 0.0), (2.0, 0.3)])
    def test_landscape_shift_translates_f(self, omega, lam):
        # f(x + s(t), t) = g(x): the catalog of a translated landscape moves by s
        p = tv.problem._translated_quartic(3.0, 1.0, omega, lam, "damped")
        for t in (0.0, 0.4, 2.5):
            s = p.landscape.shift(t)
            assert s == pytest.approx(3.0 * np.exp(-lam * t) * np.sin(omega * t), abs=1e-15)
            for x in (-2.0, 0.3, 2.0):
                assert p.objective(np.array([x + s]), t) == pytest.approx(
                    p.landscape.g.g(x), rel=1e-13)

    def test_dimensions_and_horizon(self, ex1_04_10):
        p, _ = ex1_04_10
        assert p.n == 1 and p.m == 0
        assert p.horizon == pytest.approx(2 * np.pi)
        assert p.alpha == 0.4

    @given(x=st.floats(-5, 5), t=st.floats(0, 2 * np.pi))
    @settings(max_examples=50, deadline=None)
    def test_translation_identity(self, x, t):
        # f(x + beta sin t, t) = g(x) for all x, t
        p, sf = tv.make_example1(7.5, alpha=0.3)
        shifted = np.array([x + 7.5 * np.sin(t)])
        assert p.objective(shifted, t) == pytest.approx(sf.g(x), rel=1e-12, abs=1e-9)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            tv.make_example1(0.0)

    @pytest.mark.parametrize("beta, omega, lam", [
        (np.nan, 1.0, 0.0), (np.inf, 1.0, 0.0), (10.0, np.nan, 0.1), (10.0, np.inf, 0.1),
        (10.0, 2.0, np.nan), (10.0, 2.0, np.inf)])
    def test_rejects_non_finite_shift(self, beta, omega, lam):
        with pytest.raises(ValueError, match="finite"):
            tv.problem._translated_quartic(beta, 1.0, omega, lam, "q")

    def test_purity(self, ex1_04_10):
        p, _ = ex1_04_10
        x = np.array([0.7])
        assert p.objective(x, 1.3) == p.objective(x, 1.3)
        assert np.array_equal(p.grad_objective(x, 1.3), p.grad_objective(x, 1.3))


    def test_stacked_gradient_equals_rows(self, ex1_04_10):
        # one call on an (L, n) stack with (L, 1) times returns the per-point
        # rows bit for bit, and those equal g' evaluated on Python floats
        p, sf = ex1_04_10
        assert tv.problem.has_stacked_gradient(p)
        rng = np.random.default_rng(8)
        X = rng.uniform(-20.0, 20.0, (500, p.n))
        T = rng.uniform(0.0, 2 * np.pi, (500, 1))
        G = p.grad_objective(X, T)
        assert G.shape == X.shape
        rows = np.array([p.grad_objective(x, float(t[0])) for x, t in zip(X, T)])
        assert np.array_equal(G, rows)
        scalar = [sf.dg(float(y)) for y in (X - 10.0 * np.sin(T))[:, 0]]
        assert np.array_equal(G[:, 0], scalar)

    @pytest.mark.parametrize("N", [1571, 6283])
    @pytest.mark.parametrize("omega, lam", [(1.0, 0.0), (2.0, 0.1)], ids=["example1", "damped"])
    def test_point_maps_equal_stacked_rows(self, omega, lam, N):
        # one point is evaluated in Python floats with math.sin; on the time
        # grids of dt 4e-3 and 1e-3 its gradient equals the stacked rows, and
        # its objective and Hessian equal the quartic evaluated in numpy
        # scalars at the stacked shift np.sin gives, bit for bit
        p = tv.problem._translated_quartic(10.0, 0.4, omega, lam, "q")
        T = np.linspace(0.0, 2 * np.pi, N + 1)
        X = np.random.default_rng(N).uniform(-16.0, 16.0, (N + 1, 1))
        shift = p.landscape.shift(T[:, None])[:, 0]
        assert np.array_equal(each_row(p.grad_objective, X, T),
                              [p.grad_objective(x, t) for x, t in zip(X, T)])
        Y = X[:, 0] - shift  # numpy scalars, as the per-point maps used before
        assert [p.objective(x, t) for x, t in zip(X, T)] == [p.landscape.g.g(y) for y in Y]
        assert [p.hess_objective(x, t)[0, 0] for x, t in zip(X, T)] == \
            [p.landscape.g.d2g(y) for y in Y]
        assert [p.grad_objective(x, t)[0] for x, t in zip(X, T)] == \
            [p.landscape.g.dg(y) for y in Y]

    def test_replaced_gradient_drops_the_mark(self, ex1_04_10, matrec):
        p, _ = ex1_04_10
        assert tv.problem.has_stacked_gradient(p.replace(alpha=1.0))
        wrapped = p.replace(grad_objective=lambda x, t: p.grad_objective(x, t))
        assert not tv.problem.has_stacked_gradient(wrapped)
        # the matrix-recovery maps are array-safe, but its field needs J
        assert tv.problem._is_stackable(matrec.grad_objective)
        assert not tv.problem.has_stacked_gradient(matrec)


class TestMatrixRecovery:
    def test_consistent_data_at_zero(self, matrec):
        d0 = matrec.data_path(0.0)
        assert d0[0] == pytest.approx(1.0)
        assert d0[1] == pytest.approx(0.0)
        assert d0[3] == pytest.approx(0.0)

    def test_global_trajectory_exactly_feasible(self, matrec):
        for t in np.linspace(0.0, 2 * np.pi, 17):
            z = tv.matrix_recovery_global_state(t)
            h = matrec.constraints(z)
            assert np.allclose(h, matrec.data_path(t), atol=1e-14)

    def test_zero_slack_objective(self, matrec):
        z = tv.matrix_recovery_global_state(0.0)
        assert matrec.objective(z, 0.0) == 0.0

    def test_licq_lower_bound(self, matrec):
        # each constraint row carries a -1 in its own slack column, so the
        # Gram matrix is (rows of S_i X) Gram + identity: sigma_min >= 1
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.standard_normal(6) * 2.0
            J = matrec.jacobian(x)
            assert np.linalg.svd(J, compute_uv=False)[-1] >= 1.0 - 1e-12

    def test_inconsistent_mode_third_component(self):
        praw = tv.make_matrix_recovery(False, alpha=1.0)
        for t in (0.0, 1.0, 2.5):
            assert praw.data_path(t)[2] == 0.0
        # the printed data leave the stated global factor infeasible at zero slack
        z = tv.matrix_recovery_global_state(0.5)
        assert np.linalg.norm(praw.constraints(z) - praw.data_path(0.5)) > 0.1

    def test_spurious_point_is_kkt(self, matrec):
        x = tv.matrix_recovery_state(matrec, tv.problem.THE_SPURIOUS_FACTOR, 0.0)
        res = tv.kkt_residual(matrec, x, 0.0)
        assert res.stationarity < 1e-12
        assert res.feasibility < 1e-14

    @pytest.mark.parametrize("consistent", [True, False])
    def test_stacked_maps_match_loop_reference(self, consistent):
        # constraints, jacobian and data_rate apply the stacked (4, 2, 2)
        # sensing matrices in one matmul; compare with one matrix at a time
        from tvland.problem import _SYM, _target_rate

        p = tv.make_matrix_recovery(consistent, alpha=0.5)
        rng = np.random.default_rng(17)
        for _ in range(50):
            x = rng.standard_normal(6) * 1.5
            t = rng.uniform(0.0, 2 * np.pi)
            X = x[:2]
            h_ref = np.array([0.5 * X @ S @ X for S in _SYM]) - x[2:]
            J_ref = np.zeros((4, 6))
            for i, S in enumerate(_SYM):
                J_ref[i, :2] = S @ X
                J_ref[i, 2 + i] = -1.0
            z, zd = tv.matrix_recovery_target(t), _target_rate(t)
            rate_ref = np.array([zd @ S @ z for S in _SYM])
            if not consistent:
                rate_ref[2] = 0.0  # the printed data fix d_3 = 0
            for got, ref in ((p.constraints(x), h_ref), (p.jacobian(x), J_ref),
                             (p.data_rate(t), rate_ref)):
                assert got.shape == ref.shape
                assert np.all(np.abs(got - ref) <= 1e-15 * (1.0 + np.abs(ref)))
        assert tv.validate_problem(p, samples=20, seed=3).passed

    @pytest.mark.parametrize("consistent", [True, False])
    @given(rows=st.lists(st.tuples(st.floats(0.0, 2 * np.pi),
                                   st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6)),
                         min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_stacked_maps_equal_point_calls(self, consistent, rows):
        # the four maps marked array-safe return, on a stack, the per-point
        # bits: the trajectory diagnostics take either form
        from tvland.problem import _is_stackable, each_row

        p = tv.make_matrix_recovery(consistent, alpha=0.5)
        T = np.array([t for t, _ in rows])
        X = np.array([x for _, x in rows])
        for fn, args in ((p.grad_objective, (X, T)), (p.jacobian, (X,)),
                         (p.constraints, (X,)), (p.data_path, (T,))):
            assert _is_stackable(fn)
            stacked = each_row(fn, *args)
            points = np.array([fn(*row) for row in zip(*(a.tolist() if a.ndim == 1 else a
                                                           for a in args))])
            assert stacked.shape == points.shape
            assert np.array_equal(stacked, points)

    def test_sign_flip_involution(self):
        x = np.array([0.3, -0.4, 1.0, 2.0, 3.0, 4.0])
        y = tv.matrix_recovery_sign_flip(x)
        assert np.allclose(y[:2], -x[:2])
        assert np.allclose(y[2:], x[2:])
        assert np.allclose(tv.matrix_recovery_sign_flip(y), x)

    @pytest.mark.parametrize("consistent", [True, False])
    def test_carries_sign_flip_and_search_box(self, consistent):
        p = tv.make_matrix_recovery(consistent)
        assert p.equivalence is tv.matrix_recovery_sign_flip
        assert p.search_box == (-16.0, 16.0)

    def test_freeze_data_keeps_search_box_and_equivalence(self, matrec, ex1_04_10):
        for p in (matrec, ex1_04_10[0]):
            frozen = tv.freeze_data(p, 0.7)
            assert frozen.search_box == p.search_box
            assert frozen.equivalence is p.equivalence


class TestDampedSinusoid:
    @staticmethod
    def _quartic_parts():
        _, sf = tv.make_example1(1.0)
        return line_form(sf)

    def test_zero_phase(self):
        g, dg = self._quartic_parts()
        p = tv.make_damped_sinusoid(g, dg, beta=3.0, omega=2.0, lam=0.5, u=[1.0])
        x = np.array([1.2])
        assert p.objective(x, 0.0) == pytest.approx(g(x))

    def test_reduces_to_example1(self):
        g, dg = self._quartic_parts()
        p1, sf = tv.make_example1(10.0)
        hess_g = lambda y: np.array([[sf.d2g(y[0])]])
        for lam in (1e-12, 0.0):
            p = tv.make_damped_sinusoid(g, dg, beta=10.0, omega=1.0, lam=lam, u=[1.0],
                                        hess_g=hess_g)
            for t in (0.3, 1.7, 4.0):
                x = np.array([0.8])
                assert p.objective(x, t) == pytest.approx(p1.objective(x, t), rel=1e-9)
        # at lam = 0 the shift is beta sin t, bit for bit
        rng = np.random.default_rng(4)
        xs, ts = rng.uniform(-15.0, 15.0, (500, 1)), rng.uniform(0.0, 2 * np.pi, 500)
        for x, t in zip(xs, ts):
            assert p.objective(x, t) == p1.objective(x, t)
            assert np.array_equal(p.grad_objective(x, t), p1.grad_objective(x, t))
            assert np.array_equal(p.hess_objective(x, t), p1.hess_objective(x, t))
        assert np.array_equal(each_row(p.grad_objective, xs, ts),
                              each_row(p1.grad_objective, xs, ts))

    def test_gradient_is_translated(self):
        g, dg = self._quartic_parts()
        beta, omega, lam = 2.0, 3.0, 0.7
        p = tv.make_damped_sinusoid(g, dg, beta=beta, omega=omega, lam=lam, u=[1.0])
        for t in (0.0, 0.9, 2.0):
            x = np.array([1.1])
            shift = beta * np.exp(-lam * t) * np.sin(omega * t)
            assert p.grad_objective(x, t)[0] == pytest.approx(
                dg(np.array([x[0] - shift]))[0], rel=1e-12)

    def test_rejects_non_unit_direction(self):
        g, dg = self._quartic_parts()
        with pytest.raises(ValueError):
            tv.make_damped_sinusoid(g, dg, beta=1.0, omega=1.0, lam=0.0, u=[1.0, 1.0])

    def test_multidimensional(self):
        u = np.array([3.0, 4.0]) / 5.0
        g = lambda y: float(y @ y)
        dg = lambda y: 2.0 * y
        p = tv.make_damped_sinusoid(g, dg, beta=1.0, omega=1.0, lam=0.0, u=u)
        assert p.n == 2 and p.m == 0
        x = np.array([0.5, -0.5])
        shift = np.sin(1.0) * u
        assert p.objective(x, 1.0) == pytest.approx(g(x - shift))


class TestValidation:
    def test_example1_passes(self):
        p, _ = tv.make_example1(10.0, alpha=0.4)
        rep = tv.validate_problem(p, samples=20, seed=0)
        assert rep.passed
        assert rep.grad_deviation < 1e-5

    def test_matrix_recovery_passes(self, matrec):
        rep = tv.validate_problem(matrec, samples=20, seed=1)
        assert rep.passed
        assert rep.jacobian_deviation < 1e-5
        assert rep.data_rate_deviation < 1e-5

    def test_corrupted_gradient_fails(self):
        p, _ = tv.make_example1(10.0, alpha=0.4)
        bad = p.replace(grad_objective=lambda x, t: np.zeros(1))
        rep = tv.validate_problem(bad, samples=20, seed=0)
        assert not rep.passed
        assert not rep.grad_ok

    def test_corrupted_hessian_fails(self):
        p, _ = tv.make_example1(10.0, alpha=0.4)
        bad = p.replace(hess_objective=lambda x, t: np.zeros((1, 1)))
        rep = tv.validate_problem(bad, samples=20, seed=0)
        assert not rep.passed
        assert not rep.hess_ok
        assert rep.grad_ok and rep.stack_ok

    def test_hessians_checked(self, ex1_04_10, matrec):
        rep = tv.validate_problem(ex1_04_10[0], samples=20, seed=0)
        assert 0.0 < rep.hess_deviation < 1e-5
        rep = tv.validate_problem(matrec, samples=20, seed=1)
        assert 0.0 < rep.hess_deviation < 1e-5
        assert 0.0 < rep.constraint_hessian_deviation < 1e-5

    def test_corrupted_constraint_hessians_fail(self, matrec):
        good = matrec.constraint_hessians(np.zeros(6))
        bad = matrec.replace(constraint_hessians=lambda x: good[:3] + (-good[3],))
        rep = tv.validate_problem(bad, samples=20, seed=1)
        assert not rep.passed
        assert not rep.constraint_hessians_ok
        assert rep.jacobian_ok and rep.hess_ok

    def test_stacked_gradient_must_equal_rows(self, ex1_04_10):
        # a gradient marked array-safe whose stacked rows are one ulp off
        from tvland.problem import _stackable

        p, _ = ex1_04_10

        def grad(x, t):
            g = p.grad_objective(x, t)
            return np.nextafter(g, np.inf) if np.ndim(x) == 2 else g

        rep = tv.validate_problem(p.replace(grad_objective=_stackable(grad)),
                                  samples=20, seed=0)
        assert rep.grad_ok
        assert not rep.stack_ok
        assert not rep.passed
        assert tv.validate_problem(p, samples=20, seed=0).stack_deviation == 0.0

    def test_stacked_jacobian_must_equal_rows(self, matrec):
        # a marked Jacobian whose stacked rows are one ulp off fails the check
        from tvland.problem import _stackable

        def jac(x):
            J = matrec.jacobian(x)
            return np.nextafter(J, np.inf) if np.ndim(x) == 2 else J

        rep = tv.validate_problem(matrec.replace(jacobian=_stackable(jac)), samples=10, seed=0)
        assert rep.jacobian_ok
        assert not rep.stack_ok
        assert tv.validate_problem(matrec, samples=10, seed=0).stack_ok

    def test_deterministic_in_seed(self, matrec):
        a = tv.validate_problem(matrec, samples=10, seed=42)
        b = tv.validate_problem(matrec, samples=10, seed=42)
        assert a.grad_deviation == b.grad_deviation
        assert a.jacobian_deviation == b.jacobian_deviation

    def test_rejects_bad_sample_count(self, matrec):
        with pytest.raises(ValueError):
            tv.validate_problem(matrec, samples=0)


class TestProblemDefInvariants:
    def test_field_validation(self):
        p, _ = tv.make_example1(1.0)
        with pytest.raises(ValueError):
            p.replace(alpha=0.0)
        with pytest.raises(ValueError):
            p.replace(horizon=-1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="alpha must be positive and finite"):
                p.replace(alpha=bad)
            with pytest.raises(ValueError, match="horizon must be positive and finite"):
                p.replace(horizon=bad)
        with pytest.raises(ValueError):
            p.replace(m=3)  # m > n

    def test_freeze_data(self, matrec):
        frozen = tv.freeze_data(matrec, 0.7)
        d = matrec.data_path(0.7)
        for t in (0.0, 1.0, 5.0):
            assert np.allclose(frozen.data_path(t), d)
            assert np.allclose(frozen.data_rate(t), 0.0)


class TestTrajectoryType:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            tv.Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)),
                          np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            tv.Trajectory(np.array([0.5, 1.0]), np.zeros((2, 1)),
                          np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            tv.Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)),
                          np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2))
