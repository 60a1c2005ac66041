"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest

import tvland as tv

TWO_PI = 2 * np.pi


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_escaping_trajectory(ex1_04_10, be_traj_04_10):
    """Escaping regime reproduction: non-spurious verdict and final basin."""
    p, _ = ex1_04_10
    t0 = time.monotonic()
    traj = be_traj_04_10
    builder = tv.tracking_builder(p, (-16.0, 16.0), starts=64, seed=0)
    result = tv.classify_trajectory(p, traj, builder, 0.75 * TWO_PI)
    limit, converged = tv.frozen_time_flow(p, traj.final_state, TWO_PI)
    elapsed = time.monotonic() - t0
    assert result.verdict is tv.Verdict.NON_SPURIOUS
    assert converged
    assert abs(limit[0] - 2.0) < 1e-4
    assert elapsed < 5.0
    report(1, f"alpha=0.4 beta=10 -> non-spurious, flow limit {limit[0]:.6f}, "
              f"{elapsed:.2f}s")


def test_criterion_2_trapped_trajectory(ex1_02_5):
    """Trapped regime reproduction: spurious verdict, flow into the poor well."""
    p, _ = ex1_02_5
    traj = tv.backward_euler_trajectory(p, np.array([-2.0]), 1e-3)
    builder = tv.tracking_builder(p, (-11.0, 11.0), starts=64, seed=0)
    result = tv.classify_trajectory(p, traj, builder, 0.75 * TWO_PI)
    limit, converged = tv.frozen_time_flow(p, traj.final_state, TWO_PI)
    assert result.verdict is tv.Verdict.SPURIOUS
    assert converged
    assert abs(limit[0] - (-2.0)) < 1e-4
    report(2, f"alpha=0.2 beta=5 -> spurious, flow limit {limit[0]:.6f}")


def test_criterion_3_prop1_checker_and_cross_validation(ex1_04_10):
    """Sufficient-condition checker plus its agreement with simulation."""
    _, sf = ex1_04_10
    rep_good = tv.prop1_check(sf, 0.4, 10.0)
    rep_bad = tv.prop1_check(sf, 0.2, 5.0)
    assert rep_good.satisfied
    assert not rep_bad.satisfied
    assert rep_bad.cond1 is False
    assert rep_bad.C == pytest.approx(2.137, abs=1e-2)

    satisfied_cells = []
    for alpha in np.linspace(0.1, 0.5, 5):
        for beta in np.linspace(2.0, 12.0, 5):
            if tv.prop1_check(sf, float(alpha), float(beta)).satisfied:
                satisfied_cells.append((float(alpha), float(beta)))
    assert satisfied_cells, "implication would be vacuous on this grid"
    for alpha, beta in satisfied_cells:
        p, _ = tv.make_example1(beta, alpha=alpha)
        traj = tv.backward_euler_trajectory(p, np.array([-2.0]), 2e-3)
        builder = tv.tracking_builder(p, (-(beta + 6.0), beta + 6.0),
                                      starts=64, seed=0)
        res = tv.classify_trajectory(p, traj, builder, 0.75 * TWO_PI)
        assert res.verdict is tv.Verdict.NON_SPURIOUS, (alpha, beta)
    report(3, f"(0.4,10) satisfied, (0.2,5) cond1 false (C={rep_bad.C:.4f}); "
              f"{len(satisfied_cells)} satisfied grid cells all non-spurious")


def test_criterion_4_matrix_recovery_escape():
    """Dynamic matrix recovery: the tracked solution leaves the poor factor."""
    t0 = time.monotonic()
    best = None
    for alpha in (0.05, 0.1, 0.2, 0.5, 1.0):
        p = tv.make_matrix_recovery(True, alpha=alpha)
        x0 = tv.matrix_recovery_state(p, tv.problem.THE_SPURIOUS_FACTOR, 0.0)
        traj = tv.discrete_trajectory(p, x0, round(TWO_PI / 1e-2))
        xf = traj.final_state
        z_end = tv.matrix_recovery_target(TWO_PI)
        dist = min(np.linalg.norm(xf[:2] - z_end), np.linalg.norm(xf[:2] + z_end))
        obj = p.objective(xf, TWO_PI)
        if best is None or dist < best[1]:
            best = (alpha, dist, obj)
        if dist < 0.1 and obj < 1e-2:
            break
    elapsed = time.monotonic() - t0
    alpha, dist, obj = best
    assert dist < 0.1, best
    assert obj < 1e-2, best
    assert elapsed < 30.0
    report(4, f"alpha={alpha}: final factor distance {dist:.4f}, "
              f"objective {obj:.2e}, {elapsed:.1f}s")


def test_criterion_5_convergence_order(ex1_04_10):
    """First-order convergence of both engines toward the tracking ODE."""
    p, _ = ex1_04_10
    dts = [4e-3, 2e-3, 1e-3]
    rows = tv.convergence_study(p, np.array([-2.0]), dts)
    ratios = []
    for a, b in zip(rows, rows[1:]):
        ratios.append(a.sup_err_discrete / b.sup_err_discrete)
        ratios.append(a.sup_err_backward_euler / b.sup_err_backward_euler)
    from test_discrete import scalar_quadratic
    q = scalar_quadratic(alpha=1.0)
    rows_q = tv.convergence_study(q, np.array([1.0]), dts, check_x0=False)
    for a, b in zip(rows_q, rows_q[1:]):
        ratios.append(a.sup_err_discrete / b.sup_err_discrete)
        ratios.append(a.sup_err_backward_euler / b.sup_err_backward_euler)
    assert all(r >= 1.5 for r in ratios), ratios
    report(5, "halving ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_6_step_bound(ex1_04_10):
    """Uniform step bound: max step/dt stable across step-size halvings."""
    p, _ = ex1_04_10
    peaks = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        n = round(TWO_PI / dt)
        traj = tv.discrete_trajectory(p, np.array([-2.0]), n)
        peaks.append(traj.step_norm[1:].max() / (TWO_PI / n))
    assert max(peaks) / min(peaks) <= 2.0, peaks
    report(6, "max step/dt = " + ", ".join(f"{v:.3f}" for v in peaks))


def test_criterion_7_invariant_spectrum(matrec, ex1_04_10):
    """Eigenvalue split of the data-frozen Jacobian at reference minima."""
    z = tv.matrix_recovery_global_state(0.0)
    rep = tv.eigen_report(tv.invariant_jacobian(matrec, z, 0.0))
    assert (rep.n_zero, rep.n_neg, rep.n_pos) == (4, 2, 0)

    p, _ = ex1_04_10
    rep1 = tv.eigen_report(tv.invariant_jacobian(p, np.array([2.0]), 0.0))
    assert rep1.eigenvalues.shape == (1,)
    assert abs(rep1.eigenvalues[0] - (-23.75)) < 1e-9
    report(7, f"matrix recovery split (4, 2, 0); scalar eigenvalue "
              f"{rep1.eigenvalues[0].real:.6f}")


def test_criterion_8_variant_jacobian_consistency(matrec):
    """K1 + K2 equals the finite-difference Jacobian; K2 vanishes when frozen."""
    worst = 0.0
    for t in np.linspace(0.0, TWO_PI, 10):
        z = tv.matrix_recovery_global_state(float(t))
        K1, K2 = tv.variant_jacobian(matrec, z, float(t))
        n = matrec.n
        F = np.zeros((n, n))
        h = 1e-6
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            F[:, j] = (tv.ode_rhs(matrec, z + e, float(t))
                       - tv.ode_rhs(matrec, z - e, float(t))) / (2 * h)
        rel = np.abs(K1 + K2 - F).max() / max(1.0, np.abs(F).max())
        worst = max(worst, rel)
        assert rel <= 1e-5
    frozen = tv.freeze_data(matrec, 1.0)
    z = tv.matrix_recovery_global_state(1.0)
    _, K2f = tv.variant_jacobian(frozen, z, 1.0)
    assert np.all(K2f == 0.0)
    report(8, f"worst relative FD gap {worst:.2e}; frozen-data K2 identically 0")


def test_criterion_9_geometry_invariants(matrec):
    """Projection algebra and manifold tangency at random feasible points."""
    rng = np.random.default_rng(123)
    for _ in range(100):
        X = rng.standard_normal(2) * 1.5
        t = float(rng.uniform(0.0, TWO_PI))
        x = tv.matrix_recovery_state(matrec, X, t)
        geom = tv.geometry.geometry(matrec, x)
        P, J = geom.projector, matrec.jacobian(x)
        assert np.abs(P - P.T).max() <= 1e-10
        assert np.abs(P @ P - P).max() <= 1e-10
        assert np.abs(J @ P).max() <= 1e-10
        assert np.abs(J @ geom.theta - np.eye(4)).max() <= 1e-10
        rhs = tv.ode_rhs(matrec, x, t, geom)
        assert np.linalg.norm(J @ rhs - matrec.data_rate(t)) <= 1e-8
    report(9, "projector identities and tangency hold at 100 feasible points")


def test_criterion_10_thm3_constants():
    """Gradient-fluctuation constants of the escape condition, radius 0.5."""
    from test_conditions import quartic_dg, quartic_g
    rep = tv.thm3_check(quartic_g, quartic_dg, [np.array([-2.0])], 0.5,
                        alpha=0.4, beta=10.0, omega=1.0, lam=0.0)
    assert rep.C1 == pytest.approx(4.78125, abs=1e-3)
    assert rep.C2 == pytest.approx(-4.78125, abs=1e-3)
    assert not rep.satisfied
    for R in (0.1, 0.25, 0.5, 0.8):
        for (a, b, w, l) in [(0.4, 10.0, 1.0, 0.0), (1.0, 3.0, 2.0, 0.3)]:
            r = tv.thm3_check(quartic_g, quartic_dg, [np.array([-2.0])],
                              R, a, b, w, l)
            assert r.C1 >= r.C2
    report(10, f"C1={rep.C1:.5f}, C2={rep.C2:.5f}, satisfied={rep.satisfied}; "
               "C1 >= C2 on all evaluated instances")
