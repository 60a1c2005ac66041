import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tvland as tv
from conftest import linear_constraint_problem


def fd_jacobian_of_rhs(p, z, t, h=1e-6):
    """Central finite-difference Jacobian of x -> ode_rhs(p, x, t)."""
    n = z.size
    out = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        out[:, j] = (tv.ode_rhs(p, z + e, t) - tv.ode_rhs(p, z - e, t)) / (2 * h)
    return out


class TestInvariantJacobian:
    def test_example1_scalar_value(self):
        # -g''(2)/alpha with g''(2) = 9.5 and alpha = 0.4
        p, _ = tv.make_example1(10.0, alpha=0.4)
        J = tv.invariant_jacobian(p, np.array([2.0]), 0.0)
        assert J.shape == (1, 1)
        assert J[0, 0] == pytest.approx(-23.75, abs=1e-12)

    def test_matrix_recovery_eigen_counts(self, matrec):
        z = tv.matrix_recovery_global_state(0.0)
        rep = tv.eigen_report(tv.invariant_jacobian(matrec, z, 0.0))
        assert (rep.n_zero, rep.n_neg, rep.n_pos) == (4, 2, 0)

    def test_rows_annihilate_from_left(self, matrec):
        # J(z) J_p = 0: the dynamics' Jacobian maps into the tangent space
        rng = np.random.default_rng(0)
        for _ in range(10):
            X = rng.standard_normal(2)
            t = rng.uniform(0, 2 * np.pi)
            z = tv.matrix_recovery_state(matrec, X, t)
            Jp = tv.invariant_jacobian(matrec, z, t)
            J = matrec.jacobian(z)
            assert np.abs(J @ Jp).max() < 1e-9

    def test_missing_hessian_is_differenced(self, matrec):
        # off the zero-slack trajectory, so that the multipliers weight the
        # constraint Hessians
        z = tv.matrix_recovery_state(matrec, np.array([0.9, 0.3]), 0.4)
        bare = matrec.replace(hess_objective=None, constraint_hessians=None)
        want = tv.invariant_jacobian(matrec, z, 0.4)
        assert np.abs(tv.invariant_jacobian(bare, z, 0.4) - want).max() <= 1e-6

    def test_counts_at_cataloged_minima(self, ex1_04_10):
        # unconstrained SOSC minima: no zero eigenvalues, all negative
        p, _ = ex1_04_10
        cat = tv.build_catalog(p, 0.9, starts=32, seed=0, box=(-14.0, 14.0))
        assert len(cat) == 2
        for z in cat.minimizers:
            rep = tv.eigen_report(tv.invariant_jacobian(p, z, 0.9))
            assert (rep.n_zero, rep.n_neg, rep.n_pos) == (0, 1, 0)


def _off_kkt_problems():
    """Problems with points that are not KKT points, for the field Jacobian."""
    quartic = tv.problem.QUARTIC
    damped = tv.make_damped_sinusoid(
        lambda y: quartic.g(y[0]) + y[1] ** 2,
        lambda y: np.array([quartic.dg(y[0]), 2.0 * y[1]]),
        beta=3.0, omega=1.5, lam=0.2, u=[0.6, 0.8], alpha=0.7)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(2)
    moving = linear_constraint_problem(rng.standard_normal((2, 5)), alpha=0.6,
                                       d_of_t=lambda t: np.sin(t) * c,
                                       d_rate=lambda t: np.cos(t) * c)
    return [tv.make_matrix_recovery(True, alpha=0.5),
            tv.make_matrix_recovery(False, alpha=0.3),
            tv.make_example1(10.0, alpha=0.4)[0], damped, moving]


class TestFieldJacobian:
    @pytest.mark.parametrize("k", range(5), ids=["matrec", "matrec-raw", "example1",
                                                  "damped-no-hess", "random-linear"])
    def test_matches_central_differences(self, k):
        p = _off_kkt_problems()[k]
        rng = np.random.default_rng(k)
        for _ in range(5):
            x = 2.0 * rng.standard_normal(p.n)
            t = float(rng.uniform(0.0, p.horizon))
            assert tv.kkt_residual(p, x, t).stationarity > 1e-3
            F = fd_jacobian_of_rhs(p, x, t)
            got = tv.geometry.field_jacobian(p, x, t)
            assert np.abs(got - F).max() <= 1e-6 * max(1.0, np.abs(F).max())

    def test_equals_k1_plus_k2_at_kkt_points(self, matrec):
        for t in np.linspace(0.0, 2 * np.pi, 10):
            z = tv.matrix_recovery_global_state(t)
            K1, K2 = tv.variant_jacobian(matrec, z, float(t))
            got = tv.geometry.field_jacobian(matrec, z, float(t))
            assert np.abs(K1 + K2 - got).max() <= 1e-9

    def test_differences_the_jacobian_once(self, matrec):
        # without constraint Hessians the stack is differenced from 2n
        # Jacobians once, on top of the one the geometry takes: 1 + 12
        calls = []

        def counted_jacobian(x):
            calls.append(1)
            return matrec.jacobian(x)

        p = matrec.replace(constraint_hessians=None, jacobian=counted_jacobian)
        x = np.linspace(-1.0, 1.0, p.n)
        got = tv.geometry.field_jacobian(p, x, 0.7)
        assert len(calls) == 1 + 2 * p.n
        assert np.abs(got - tv.geometry.field_jacobian(matrec, x, 0.7)).max() <= 1e-6


class TestVariantJacobian:
    def test_zero_data_rate_gives_zero_k2(self, matrec):
        frozen = tv.freeze_data(matrec, 0.3)
        z = tv.matrix_recovery_state(frozen, np.array([0.9, 0.1]), 0.3)
        _, K2 = tv.variant_jacobian(frozen, z, 0.3)
        assert np.all(K2 == 0.0)

    def test_unconstrained_k2_is_zero(self, ex1_04_10):
        p, _ = ex1_04_10
        _, K2 = tv.variant_jacobian(p, np.array([2.0]), 0.0)
        assert np.all(K2 == 0.0)

    def test_matches_fd_jacobian_at_global_trajectory(self, matrec):
        for t in np.linspace(0.0, 2 * np.pi, 10):
            z = tv.matrix_recovery_global_state(t)
            K1, K2 = tv.variant_jacobian(matrec, z, float(t))
            F = fd_jacobian_of_rhs(matrec, z, float(t))
            rel = np.abs(K1 + K2 - F).max() / max(1.0, np.abs(F).max())
            assert rel <= 1e-5

    def test_k1_equals_invariant_jacobian(self, matrec):
        z = tv.matrix_recovery_global_state(1.1)
        K1, _ = tv.variant_jacobian(matrec, z, 1.1)
        assert np.array_equal(K1, tv.invariant_jacobian(matrec, z, 1.1))

    def test_k2_linear_in_data_rate(self, matrec):
        z = tv.matrix_recovery_global_state(0.7)
        _, K2 = tv.variant_jacobian(matrec, z, 0.7)
        doubled = matrec.replace(
            data_rate=lambda t: 2.0 * matrec.data_rate(t))
        _, K2d = tv.variant_jacobian(doubled, z, 0.7)
        assert np.abs(K2d - 2.0 * K2).max() <= 1e-10


class TestEigenReport:
    def test_diagonal(self):
        rep = tv.eigen_report(np.diag([-1.0, 0.0, 2.0]))
        assert (rep.n_neg, rep.n_zero, rep.n_pos) == (1, 1, 1)
        assert rep.n_zero + rep.n_neg + rep.n_pos == 3

    def test_rotation_block(self):
        # purely imaginary pair: zero real parts but nonzero modulus
        rep = tv.eigen_report(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert (rep.n_neg, rep.n_pos, rep.n_zero) == (0, 0, 2)
        assert rep.n_zero_modulus == 0

    def test_scalar_example1(self):
        p, _ = tv.make_example1(10.0, alpha=0.4)
        rep = tv.eigen_report(tv.invariant_jacobian(p, np.array([2.0]), 0.0))
        assert rep.eigenvalues[0] == pytest.approx(-23.75, abs=1e-9)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_diagonal_counts_match_signs(self, diag):
        M = np.diag(diag)
        rep = tv.eigen_report(M)
        thr = 1e-8 * max(1.0, np.abs(diag).max(initial=0.0))
        assert rep.n_neg == sum(1 for v in diag if v < -thr)
        assert rep.n_pos == sum(1 for v in diag if v > thr)
        assert rep.n_zero == len(diag) - rep.n_neg - rep.n_pos

    def test_relative_threshold_scales(self):
        # a zero eigenvalue of a large-norm matrix still counts as zero
        M = np.diag([1e9, 1e-3])
        rep = tv.eigen_report(M)
        assert rep.n_zero == 1 and rep.n_pos == 1

    def test_rejects_nonsquare_and_oversize(self):
        with pytest.raises(ValueError):
            tv.eigen_report(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            tv.eigen_report(np.zeros((65, 65)))


class TestSpectrumAlongTrajectory:
    def test_static_data_stays_stable(self, matrec):
        frozen = tv.freeze_data(matrec, 0.0)
        z = tv.matrix_recovery_global_state(0.0)
        times = np.linspace(0.0, 2.0, 5)
        ztraj = tv.kkt_track(frozen, z, times)
        samples = tv.spectrum_along_trajectory(frozen, ztraj)
        for s in samples:
            assert s.max_real <= 1e-10
            assert not s.unstable

    def test_matrix_recovery_global_series(self, matrec):
        # the data-frozen part K1 keeps its 4 zero / 2 negative split at every
        # sample; adding the data-variation term K2 shifts two of those zeros
        # off the axis and pushes some real parts positive at several times
        # (the escape-enabling instability this series exists to flag)
        times = np.linspace(0.0, 2 * np.pi, 65)
        states = np.array([tv.matrix_recovery_global_state(t) for t in times])
        ztraj = tv.trajectory_with_diagnostics(matrec, times, states)
        samples = tv.spectrum_along_trajectory(matrec, ztraj)
        assert len(samples) == 65
        for k, s in enumerate(samples):
            assert s.report.n_zero >= 2
            k1_rep = tv.eigen_report(
                tv.invariant_jacobian(matrec, states[k], float(times[k])))
            assert (k1_rep.n_zero, k1_rep.n_neg, k1_rep.n_pos) == (4, 2, 0)
        assert any(s.unstable for s in samples)

    def test_fast_data_can_destabilize(self):
        # single constraint circle-tracking toy: n=2, m=1; cranking the data
        # speed 100x pushes an eigenvalue of K1+K2 into the right half plane
        def make_toy(rate_scale):
            return tv.ProblemDef(
                n=2, m=1,
                objective=lambda x, t: 0.5 * float((x[0] - 2.0) ** 2 + x[1] ** 2),
                grad_objective=lambda x, t: np.array([x[0] - 2.0, x[1]]),
                hess_objective=lambda x, t: np.eye(2),
                constraints=lambda x: np.array([0.5 * float(x @ x)]),
                jacobian=lambda x: np.asarray(x, dtype=float)[None, :],
                constraint_hessians=lambda x: (np.eye(2),),
                data_path=lambda t: np.array([0.5 + 0.3 * np.sin(rate_scale * t)]),
                data_rate=lambda t: np.array([0.3 * rate_scale * np.cos(rate_scale * t)]),
                horizon=2 * np.pi,
                alpha=1.0,
            )
        t = 0.0
        n_pos = {}
        for scale in (1.0, 100.0):
            p = make_toy(scale)
            x = tv.kkt_refine(p, np.array([1.0, 0.1]), t)
            K1, K2 = tv.variant_jacobian(p, x, t)
            n_pos[scale] = tv.eigen_report(K1 + K2).n_pos
        assert n_pos[1.0] == 0
        assert n_pos[100.0] > 0


class TestTangentHessian:
    def test_unconstrained_equals_hessian_spectrum(self, ex1_04_10):
        p, _ = ex1_04_10
        eigs = tv.tangent_hessian_eigenvalues(p, np.array([2.0]), 0.0)
        assert eigs[0] == pytest.approx(9.5)

    def test_matrix_recovery_sosc_at_global(self, matrec):
        z = tv.matrix_recovery_global_state(0.0)
        eigs = tv.tangent_hessian_eigenvalues(matrec, z, 0.0)
        assert eigs.shape == (2,)
        assert eigs[0] > 1e-8

    def test_spurious_point_is_marginal_or_saddle(self, matrec):
        # consistent data turn the marginal factor into a tangent saddle
        x = tv.matrix_recovery_state(matrec, tv.problem.THE_SPURIOUS_FACTOR, 0.0)
        eigs = tv.tangent_hessian_eigenvalues(matrec, x, 0.0)
        assert eigs[0] < -1e-8


class TestKKTTrack:
    def test_tracks_global_factor(self, matrec):
        times = np.linspace(0.0, 2 * np.pi, 33)
        traj = tv.kkt_track(matrec, tv.matrix_recovery_global_state(0.0), times)
        for t, x in zip(times, traj.states):
            assert np.linalg.norm(x - tv.matrix_recovery_global_state(t)) < 1e-8
        assert traj.kkt_stationarity.max() < 1e-9
        assert traj.feasibility.max() < 1e-9

    def test_example1_tracks_moving_minimum(self, ex1_04_10):
        # the grid must resolve the minimizer's motion: per-step shifts beyond
        # the local Newton basin would hop to another stationary branch
        p, _ = ex1_04_10
        times = np.linspace(0.0, 2 * np.pi, 129)
        traj = tv.kkt_track(p, np.array([2.0]), times)
        want = 2.0 + 10.0 * np.sin(times)
        assert np.abs(traj.states[:, 0] - want).max() < 1e-8
