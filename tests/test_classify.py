import numpy as np
import pytest

import tvland as tv
import tvland.classify as classify_module
from test_discrete import scalar_quadratic

BOX = (-18.0, 18.0)


class TestBuildCatalog:
    def test_example1_at_zero(self, ex1_04_10):
        p, _ = ex1_04_10
        cat = tv.build_catalog(p, 0.0, starts=64, seed=0, box=(-6.0, 6.0))
        assert len(cat) == 2
        assert sorted(cat.minimizers[:, 0]) == pytest.approx([-2.0, 2.0], abs=1e-6)
        assert len(cat.global_ids) == 1
        assert cat.minimizers[cat.global_ids[0], 0] == pytest.approx(2.0, abs=1e-6)

    def test_example1_shifted_at_quarter_period(self, ex1_04_10):
        # at t = pi/2 the landscape is translated by beta = 10
        p, _ = ex1_04_10
        cat = tv.build_catalog(p, np.pi / 2, starts=64, seed=0, box=(4.0, 16.0))
        assert len(cat) == 2
        assert sorted(cat.minimizers[:, 0]) == pytest.approx([8.0, 12.0], abs=1e-6)
        assert cat.minimizers[cat.global_ids[0], 0] == pytest.approx(12.0, abs=1e-6)

    def test_strongly_convex_single_minimizer(self):
        p = scalar_quadratic()
        cat = tv.build_catalog(p, 0.0, starts=16, seed=3, box=(-4.0, 4.0))
        assert len(cat) == 1
        assert cat.global_ids == [0]
        assert cat.minimizers[0, 0] == pytest.approx(0.0, abs=1e-8)

    def test_entries_are_stationary(self, ex1_04_10):
        p, _ = ex1_04_10
        cat = tv.build_catalog(p, 1.3, starts=48, seed=1, box=BOX)
        for x in cat.minimizers:
            assert np.linalg.norm(tv.eta(p, x, 1.3)) < 1e-6

    def test_translation_covariance(self, ex1_04_10):
        # catalog at time t is the catalog at 0 shifted by beta sin t
        p, _ = ex1_04_10
        cat0 = tv.build_catalog(p, 0.0, starts=64, seed=0, box=BOX)
        for t in (0.7, 2.1):
            cat = tv.build_catalog(p, t, starts=64, seed=0, box=BOX)
            shift = 10.0 * np.sin(t)
            got = np.sort(cat.minimizers[:, 0])
            want = np.sort(cat0.minimizers[:, 0]) + shift
            assert np.allclose(got, want, atol=1e-6)

    def test_static_matrix_recovery_catalog(self, matrec):
        # frozen data: multistart flows find the two sign-symmetric global
        # factors; the marginal point near (0, 1/sqrt 2) is not a strict
        # minimum of the frozen landscape and must not be cataloged
        frozen = tv.freeze_data(matrec, 0.0)
        cat = tv.build_catalog(frozen, 0.0, starts=48, seed=5, box=(-2.0, 2.0),
                               equivalence=tv.matrix_recovery_sign_flip)
        assert len(cat) >= 1
        z0 = tv.matrix_recovery_global_state(0.0)
        for x in cat.minimizers:
            d = min(np.linalg.norm(x - z0), np.linalg.norm(tv.matrix_recovery_sign_flip(x) - z0))
            assert d < 1e-5
        assert sorted(cat.global_ids) == list(range(len(cat)))

    def test_deterministic_in_seed(self, ex1_04_10):
        p, _ = ex1_04_10
        a = tv.build_catalog(p, 0.5, starts=32, seed=9, box=BOX)
        b = tv.build_catalog(p, 0.5, starts=32, seed=9, box=BOX)
        assert np.array_equal(a.minimizers, b.minimizers)
        assert a.global_ids == b.global_ids

    @pytest.mark.parametrize("box", [(5.0, -5.0), (-5.0, np.inf)],
                             ids=["inverted", "infinite"])
    def test_inverted_or_infinite_box_refused(self, ex1_04_10, box):
        p, _ = ex1_04_10
        with pytest.raises(ValueError, match="box"):
            tv.build_catalog(p, 0.0, starts=4, seed=0, box=box)


class TestMembership:
    def test_fixed_point_membership(self, ex1_04_10):
        p, _ = ex1_04_10
        cat = tv.build_catalog(p, 0.0, starts=64, seed=0, box=(-6.0, 6.0))
        mid = tv.attraction_membership(p, np.array([-2.0]), 0.0, cat)
        assert mid is not None
        assert cat.minimizers[mid, 0] == pytest.approx(-2.0, abs=1e-6)
        assert mid not in cat.global_ids

    def test_interior_point_flows_to_global(self, ex1_04_10):
        p, _ = ex1_04_10
        cat = tv.build_catalog(p, 0.0, starts=64, seed=0, box=(-6.0, 6.0))
        mid = tv.attraction_membership(p, np.array([0.0]), 0.0, cat)
        assert mid in cat.global_ids

    def test_sign_equivalence_identifies_global(self, matrec):
        # hand-built catalog holding only +Z(0); the sign flip identifies the
        # mirrored factor with it
        frozen = tv.freeze_data(matrec, 0.0)
        z0 = tv.matrix_recovery_global_state(0.0)
        cat = tv.MinimizerCatalog(
            anchor_time=0.0, minimizers=z0[None, :], global_ids=[0],
            objective_values=np.array([0.0]),
            equivalence=tv.matrix_recovery_sign_flip)
        minus = z0.copy()
        minus[:2] = -minus[:2]
        mid = tv.attraction_membership(frozen, minus, 0.0, cat)
        assert mid == 0

    def test_unresolved_without_equivalence(self, matrec):
        frozen = tv.freeze_data(matrec, 0.0)
        z0 = tv.matrix_recovery_global_state(0.0)
        cat = tv.MinimizerCatalog(
            anchor_time=0.0, minimizers=z0[None, :], global_ids=[0],
            objective_values=np.array([0.0]), equivalence=None)
        minus = z0.copy()
        minus[:2] = -minus[:2]
        assert tv.attraction_membership(frozen, minus, 0.0, cat) is None
        # the same check inside a classification says why it is unresolved
        traj = tv.trajectory_with_diagnostics(frozen, [0.0], minus[None, :])
        res = tv.classify_trajectory(frozen, traj, lambda t: cat, 0.0, max_checks=1)
        assert res.verdict is tv.Verdict.UNRESOLVED
        assert [(r.member, r.reason) for r in res.records] == [(None, "no_catalog_match")]


class TestTrackingBuilder:
    def test_continuation_matches_flow_without_flowing(self, ex1_04_10, monkeypatch):
        p, _ = ex1_04_10
        flows = []
        scalar = classify_module.frozen_time_flow
        monkeypatch.setattr(classify_module, "frozen_time_flow",
                            lambda *a, **k: flows.append(a[2]) or scalar(*a, **k))
        builder = tv.tracking_builder(p, BOX, starts=64, seed=0)
        first = builder(4.7)
        cat = builder(4.72)
        assert flows == []
        fresh = tv.build_catalog(p, 4.72, starts=64, seed=0, box=BOX)
        assert len(cat) == len(first) == len(fresh) == 2
        assert np.abs(cat.minimizers - fresh.minimizers).max() <= 1e-9
        assert cat.global_ids == fresh.global_ids
        assert cat.dropped == 0

    def test_sosc_failure_falls_back_to_flow(self, ex1_04_10, monkeypatch):
        p, _ = ex1_04_10
        fresh = tv.build_catalog(p, 4.72, starts=64, seed=0, box=BOX)
        builder = tv.tracking_builder(p, BOX, starts=64, seed=0)
        first = builder(4.7)
        flows = []
        scalar = classify_module.frozen_time_flow
        monkeypatch.setattr(classify_module, "frozen_time_flow",
                            lambda *a, **k: flows.append(a[1].copy()) or scalar(*a, **k))
        # every continued point now fails the second-order test
        monkeypatch.setattr(classify_module, "tangent_hessian_eigenvalues",
                            lambda p, x, t: np.array([-1.0]))
        cat = builder(4.72)
        assert len(flows) == len(first) == 2
        assert np.array_equal(np.vstack(flows), first.minimizers)
        assert np.abs(cat.minimizers - fresh.minimizers).max() <= 1e-9
        assert cat.global_ids == fresh.global_ids


class TestClassifyTrajectory:
    def test_escaping_regime_non_spurious(self, ex1_04_10, be_traj_04_10):
        p, _ = ex1_04_10
        builder = tv.tracking_builder(p, BOX, starts=64, seed=0)
        res = tv.classify_trajectory(p, be_traj_04_10, builder, 0.75 * p.horizon)
        assert res.verdict is tv.Verdict.NON_SPURIOUS
        assert len(res.records) <= 200
        assert all(r.is_global for r in res.records)

    def test_trapped_regime_spurious(self, ex1_02_5):
        p, _ = ex1_02_5
        traj = tv.backward_euler_trajectory(p, np.array([-2.0]), 1e-3)
        builder = tv.tracking_builder(p, (-12.0, 12.0), starts=64, seed=0)
        res = tv.classify_trajectory(p, traj, builder, 0.75 * p.horizon)
        assert res.verdict is tv.Verdict.SPURIOUS

    def test_constant_global_trajectory_of_convex_problem(self):
        p = scalar_quadratic()
        traj = tv.discrete_trajectory(p, np.array([0.0]), 32)
        builder = tv.multistart_builder(p, (-3.0, 3.0), starts=16, seed=0)
        res = tv.classify_trajectory(p, traj, builder, 0.5 * p.horizon)
        assert res.verdict is tv.Verdict.NON_SPURIOUS

    def test_verdict_stable_across_seeds(self, ex1_04_10, be_traj_04_10):
        p, _ = ex1_04_10
        for seed in (1, 2, 3):
            builder = tv.tracking_builder(p, BOX, starts=64, seed=seed)
            res = tv.classify_trajectory(p, be_traj_04_10, builder,
                                         0.75 * p.horizon, max_checks=40)
            assert res.verdict is tv.Verdict.NON_SPURIOUS

    def test_refinement_monotonicity(self, ex1_04_10):
        # NonSpurious at grid N stays NonSpurious at 2N
        p, _ = ex1_04_10
        verdicts = []
        for n in (1571, 3142):
            traj = tv.backward_euler_trajectory(p, np.array([-2.0]), p.horizon / n)
            builder = tv.tracking_builder(p, BOX, starts=64, seed=0)
            res = tv.classify_trajectory(p, traj, builder, 0.75 * p.horizon,
                                         max_checks=60)
            verdicts.append(res.verdict)
        assert verdicts[0] is tv.Verdict.NON_SPURIOUS
        assert verdicts[1] is tv.Verdict.NON_SPURIOUS

    def test_rejects_bad_tbar(self, ex1_04_10, be_traj_04_10):
        p, _ = ex1_04_10
        builder = tv.tracking_builder(p, BOX)
        with pytest.raises(ValueError):
            tv.classify_trajectory(p, be_traj_04_10, builder, p.horizon)

    def test_check_count_capped(self, ex1_04_10, be_traj_04_10):
        p, _ = ex1_04_10
        builder = tv.tracking_builder(p, BOX, starts=64, seed=0)
        res = tv.classify_trajectory(p, be_traj_04_10, builder,
                                     0.9 * p.horizon, max_checks=17)
        assert len(res.records) <= 17
        # no check at all would read as a vacuous non-spurious verdict
        with pytest.raises(ValueError, match="max_checks"):
            tv.classify_trajectory(p, be_traj_04_10, builder, 0.9 * p.horizon,
                                   max_checks=0)

    @pytest.mark.parametrize("regime", ["ex1_04_10", "ex1_02_5"])
    def test_records_match_scalar_membership(self, regime, request):
        # the batched membership flows agree with attraction_membership
        # check by check, against catalogs continued in the same order
        p, _ = request.getfixturevalue(regime)
        traj = tv.backward_euler_trajectory(p, np.array([-2.0]), 4e-3)
        res = tv.classify_trajectory(p, traj, tv.tracking_builder(p, BOX, seed=0),
                                     0.75 * p.horizon, max_checks=40)
        builder = tv.tracking_builder(p, BOX, seed=0)
        states = dict(zip(traj.times, traj.states))
        assert len(res.records) == 40
        for r in res.records:
            cat = builder(r.time)
            want = tv.attraction_membership(p, states[r.time], r.time, cat)
            assert r.member == want
            assert r.reason == "member"
            assert r.is_global == (want in cat.global_ids)


@pytest.mark.parametrize("regime, box, verdict", [
    ("ex1_04_10", (-16.0, 16.0), tv.Verdict.NON_SPURIOUS),
    ("ex1_02_5", (-11.0, 11.0), tv.Verdict.SPURIOUS),
])
def test_verdict_stable_under_halving_dt(regime, box, verdict, request):
    # the acceptance regimes keep their verdict when dt is halved
    p, _ = request.getfixturevalue(regime)
    for dt in (2e-3, 1e-3):
        traj = tv.backward_euler_trajectory(p, np.array([-2.0]), dt)
        builder = tv.tracking_builder(p, box, starts=64, seed=0)
        result = tv.classify_trajectory(p, traj, builder, 0.75 * 2 * np.pi)
        assert result.verdict is verdict, dt
