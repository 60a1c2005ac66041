import dataclasses
import functools
import warnings

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
        cat = tv.build_catalog(frozen, 0.0, starts=48, seed=5, box=(-2.0, 2.0))
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

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1])
    @pytest.mark.parametrize("consistent", [True, False], ids=["consistent", "inconsistent"])
    def test_frozen_matrix_recovery_entries_sit_on_the_data(self, consistent, alpha):
        # entries are polished on the leaf h = d(t) of the time-t problem, not
        # on the leaf of their flow, which sits up to about 1e-9 off it; each
        # catalog holds both sign-symmetric factors, and the inconsistent data
        # drop one start at t = 0 with seed 5
        p = tv.make_matrix_recovery(consistent, alpha=alpha)
        for t in (0.0, 1.3):
            frozen = tv.freeze_data(p, t)
            for seed in (5, 0):
                cat = tv.build_catalog(frozen, t, starts=8, seed=seed, box=(-2.0, 2.0))
                dropped = int(not consistent and t == 0.0 and seed == 5)
                assert (len(cat), cat.global_ids, cat.dropped) == (2, [0, 1], dropped)
                for x in cat.minimizers:
                    assert np.linalg.norm(frozen.constraints(x) - frozen.data_path(t)) <= 1e-12

    @pytest.mark.parametrize("box", [(5.0, -5.0), (-5.0, np.inf), (-1e308, 1e308)],
                             ids=["inverted", "infinite", "overflowing-width"])
    def test_inverted_or_infinite_box_refused(self, ex1_04_10, box):
        # a finite box whose width hi - lo overflows is refused as well,
        # without numpy's overflow warning
        p, _ = ex1_04_10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="box"):
                tv.build_catalog(p, 0.0, starts=4, seed=0, box=box)

    def test_zero_starts_refused(self, ex1_04_10):
        with pytest.raises(ValueError, match="starts must be at least 1"):
            tv.build_catalog(ex1_04_10[0], 0.0, starts=0, seed=0, box=(-6.0, 6.0))


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
            objective_values=np.array([0.0]))
        minus = z0.copy()
        minus[:2] = -minus[:2]
        mid = tv.attraction_membership(frozen, minus, 0.0, cat)
        assert mid == 0

    def test_built_catalog_reads_the_problem_equivalence(self, matrec):
        # build_catalog takes no equivalence: membership reads the sign flip
        # from the problem, so the catalog cut down to the entry +Z(0) still
        # holds -Z(0), and a problem without the flip does not
        frozen = tv.freeze_data(matrec, 0.0)
        cat = tv.build_catalog(frozen, 0.0, starts=48, seed=5, box=(-2.0, 2.0))
        z0 = tv.matrix_recovery_global_state(0.0)
        plus = int(np.argmin(np.linalg.norm(cat.minimizers - z0, axis=1)))
        one = dataclasses.replace(cat, minimizers=cat.minimizers[plus:plus + 1],
                                  global_ids=[0],
                                  objective_values=cat.objective_values[plus:plus + 1])
        minus = tv.matrix_recovery_sign_flip(z0)
        for x in (z0, minus):
            assert tv.attraction_membership(frozen, x, 0.0, cat) in cat.global_ids
            assert tv.attraction_membership(frozen, x, 0.0, one) == 0
        bare = frozen.replace(equivalence=None)
        assert tv.attraction_membership(bare, minus, 0.0, one) is None

    def test_unresolved_without_equivalence(self, matrec):
        frozen = tv.freeze_data(matrec.replace(equivalence=None), 0.0)
        z0 = tv.matrix_recovery_global_state(0.0)
        cat = tv.MinimizerCatalog(
            anchor_time=0.0, minimizers=z0[None, :], global_ids=[0],
            objective_values=np.array([0.0]))
        minus = z0.copy()
        minus[:2] = -minus[:2]
        assert tv.attraction_membership(frozen, minus, 0.0, cat) is None
        # the same check inside a classification says why it is unresolved
        traj = tv.trajectory_with_diagnostics(frozen, [0.0], minus[None, :])
        res = tv.classify_trajectory(frozen, traj, lambda t: cat, 0.0, max_checks=1)
        assert res.verdict is tv.Verdict.UNRESOLVED
        assert [(r.member, r.reason) for r in res.records] == [(None, "no_catalog_match")]


def count_calls(monkeypatch, *names):
    """Count the calls of the named ``tvland.classify`` functions, by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(classify_module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(classify_module, name, counted)
    return calls


@functools.lru_cache(maxsize=None)
def sweep_catalog() -> tv.MinimizerCatalog:
    """The catalog a default sweep shares among its cells: one multistart of
    g at t = 0 on the sweep's own problem (example1 with alpha 1, beta 10),
    in its search box, with 64 starts and seed 0."""
    p = tv.make_example1(10.0, alpha=1.0)[0]
    return tv.build_catalog(p, 0.0, starts=64, seed=0, box=p.search_box)


def assert_builders_agree(p, beta, checks):
    """The translating, the continuing and the multistart builder give equal records.

    The trajectory starts at -2 with dt 1e-3 and each builder searches the
    box +-(beta + 6) with 64 starts from seed 7, as the CLI's classify does.
    """
    box = (-(beta + 6.0), beta + 6.0)
    traj = tv.backward_euler_trajectory(p, np.array([-2.0]), 1e-3)
    records = [tv.classify_trajectory(q, traj, make(q, box, starts=64, seed=7),
                                      0.75 * p.horizon, max_checks=checks).records
               for q, make in ((p, tv.tracking_builder),
                               (p.replace(landscape=None), tv.tracking_builder),
                               (p, tv.multistart_builder))]
    assert records[0] == records[2]
    assert records[1] == records[2]


class TestTrackingBuilder:
    def test_translated_catalog_matches_fresh_multistart(self, ex1_04_10):
        p, _ = ex1_04_10
        builder = tv.tracking_builder(p, BOX, starts=64, seed=0)
        first = builder(4.7)
        for t in (4.72, 5.9, 1.0):
            cat = builder(t)
            fresh = tv.build_catalog(p, t, starts=64, seed=0, box=BOX)
            assert cat.anchor_time == t
            assert len(cat) == len(first) == len(fresh) == 2
            assert np.abs(cat.minimizers - fresh.minimizers).max() <= 1e-9
            assert np.abs(cat.objective_values - fresh.objective_values).max() <= 1e-9
            assert cat.global_ids == fresh.global_ids
            assert cat.dropped == 0

    def test_translated_landscape_multistarts_once(self, ex1_04_10, be_traj_04_10,
                                                   monkeypatch):
        # f = g(x - s(t)): one multistart at the first check, then its
        # translates; no entry is continued or re-flowed
        p, _ = ex1_04_10
        calls = count_calls(monkeypatch, "build_catalog", "frozen_time_flow",
                            "_continue_catalog")
        res = tv.classify_trajectory(p, be_traj_04_10, tv.tracking_builder(p, BOX, seed=0),
                                     0.75 * p.horizon)
        assert len(res.records) == 200
        assert calls == {"build_catalog": 1, "frozen_time_flow": 0, "_continue_catalog": 0}

    def test_problem_without_landscape_continues(self, ex1_04_10, be_traj_04_10,
                                                 monkeypatch):
        # the same f with no translation claim continues its catalog check by
        # check, to the records of the translated catalogs; Newton reaches
        # every continued entry, so no entry is re-flowed
        p, _ = ex1_04_10
        want = tv.classify_trajectory(p, be_traj_04_10, tv.tracking_builder(p, BOX, seed=0),
                                      0.75 * p.horizon, max_checks=40).records
        q = p.replace(landscape=None)
        calls = count_calls(monkeypatch, "build_catalog", "_continue_catalog",
                            "frozen_time_flow")
        got = tv.classify_trajectory(q, be_traj_04_10, tv.tracking_builder(q, BOX, seed=0),
                                     0.75 * q.horizon, max_checks=40).records
        assert calls == {"build_catalog": 1, "_continue_catalog": 39, "frozen_time_flow": 0}
        assert got == want

    def test_replaced_maps_are_not_translated(self, ex1_04_10):
        # f frozen at t = 0 through replace, with the landscape kept: its
        # minimizers stay at -2 and 2, so translates of the first catalog
        # fail their gradient check and the builder continues instead;
        # backward Euler steps the frozen gradient, whose zero at -2 keeps
        # the state there
        p, _ = ex1_04_10
        q = p.replace(**{name: (lambda f: lambda x, t: f(x, 0.0))(getattr(p, name))
                         for name in ("objective", "grad_objective", "hess_objective")})
        assert q.landscape is p.landscape
        builder = tv.tracking_builder(q, BOX, seed=0)
        assert builder(0.0).minimizers[:, 0] == pytest.approx([-2.0, 2.0], abs=1e-8)
        for t in (1.0, 3.0, 5.0):
            cat = builder(t)
            assert cat.anchor_time == t
            assert cat.minimizers[:, 0] == pytest.approx([-2.0, 2.0], abs=1e-8)
            assert cat.global_ids == [1]
        traj = tv.backward_euler_trajectory(q, np.array([-2.0]), 1e-2)
        assert (traj.states == -2.0).all()
        assert not (tv.backward_euler_trajectory(p, np.array([-2.0]), 1e-2).states
                    == -2.0).all()

    def test_matrix_recovery_continues(self, matrec, monkeypatch):
        frozen = tv.freeze_data(matrec, 0.0)
        calls = count_calls(monkeypatch, "build_catalog", "_continue_catalog")
        builder = tv.tracking_builder(frozen, (-2.0, 2.0), starts=48, seed=5)
        first = builder(0.0)
        cat = builder(0.1)
        assert len(first) >= 1
        assert calls == {"build_catalog": 1, "_continue_catalog": 1}
        assert np.abs(cat.minimizers - first.minimizers).max() <= 1e-9

    def test_continuation_matches_flow_without_flowing(self, ex1_04_10, monkeypatch):
        p = ex1_04_10[0].replace(landscape=None)
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

    @pytest.mark.parametrize("checks", [3, 5])
    @pytest.mark.parametrize("regime, beta", [("ex1_04_10", 10.0), ("ex1_02_5", 5.0)])
    def test_records_equal_fresh_multistarts(self, regime, beta, checks, request):
        # with few checks the landscape moves so far between two of them
        # that both catalog entries continue into one basin (in three of
        # these four runs; no well vanishes, the landscape only translates).
        # A continuing builder (the same f with no landscape) then searches
        # afresh, and the translating one needs no search.  Either way every
        # record is the one a fresh multistart gives (the classify run of the
        # CLI at dt 1e-3, seed 7)
        p, _ = request.getfixturevalue(regime)
        assert_builders_agree(p, beta, checks)

    @pytest.mark.parametrize("checks", [5, 20])
    @pytest.mark.parametrize("beta, alpha, omega, lam", [(10.0, 0.4, 1.0, 0.1),
                                                         (5.0, 0.2, 2.0, 0.3)])
    def test_damped_records_equal_fresh_multistarts(self, beta, alpha, omega, lam, checks):
        # the same on the damped landscape, whose shift beta e^(-lambda t)
        # sin(omega t) the translating builder applies (the CLI's damped
        # classify at dt 1e-3, seed 7)
        p = tv.problem._translated_quartic(beta, alpha, omega, lam, "damped")
        assert_builders_agree(p, beta, checks)

    def test_given_catalog_replaces_the_first_multistart(self, ex1_04_10, be_traj_04_10,
                                                         monkeypatch):
        # a catalog of g at t = 0 from another problem translating the same
        # g (alpha 1, beta 10 here): no search runs, and every record is the
        # one of the problem's own multistart
        p, _ = ex1_04_10
        want = tv.classify_trajectory(p, be_traj_04_10, tv.tracking_builder(p, BOX, seed=0),
                                      0.75 * p.horizon, max_checks=40).records
        calls = count_calls(monkeypatch, "build_catalog")
        builder = tv.tracking_builder(p, BOX, seed=0, catalog=sweep_catalog())
        got = tv.classify_trajectory(p, be_traj_04_10, builder, 0.75 * p.horizon,
                                     max_checks=40).records
        assert calls == {"build_catalog": 0}
        assert got == want

    def test_given_catalog_needs_a_landscape(self, ex1_04_10):
        p = ex1_04_10[0].replace(landscape=None)
        with pytest.raises(ValueError, match="landscape"):
            tv.tracking_builder(p, BOX, catalog=sweep_catalog())

    def test_given_catalog_must_be_anchored_at_zero(self, ex1_04_10):
        p, _ = ex1_04_10
        moved = dataclasses.replace(sweep_catalog(), anchor_time=0.5)
        with pytest.raises(ValueError, match="t = 0"):
            tv.tracking_builder(p, BOX, catalog=moved)

    def test_sosc_failure_falls_back_to_flow(self, ex1_04_10, monkeypatch):
        p = ex1_04_10[0].replace(landscape=None)
        fresh = tv.build_catalog(p, 4.72, starts=64, seed=0, box=BOX)
        builder = tv.tracking_builder(p, BOX, starts=64, seed=0)
        first = builder(4.7)
        flows = []
        scalar = classify_module.frozen_time_flow
        monkeypatch.setattr(classify_module, "frozen_time_flow",
                            lambda *a, **k: flows.append(a[1].copy()) or scalar(*a, **k))
        # no entry is continued now: each is re-flowed
        monkeypatch.setattr(classify_module, "_polish_limit", lambda *a, **k: None)
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

    def test_check_times_are_the_unique_rounded_grid(self, ex1_04_10, monkeypatch):
        # the sorted rounded linspace loses only adjacent repeats, so the
        # checks are those np.unique would keep
        p, _ = ex1_04_10
        monkeypatch.setattr(tv.classify, "frozen_time_flows",
                            lambda p, X, times: (X, np.zeros(len(X), dtype=bool)))
        empty = tv.MinimizerCatalog(0.0, np.zeros((0, 1)), [], np.zeros(0))
        for n in (1, 2, 3, 7, 50, 201, 1000, 6284):
            times = np.linspace(0.0, p.horizon, n + 1)[:n]
            traj = tv.Trajectory(times, np.zeros((n, 1)), *np.zeros((4, n)))
            for max_checks in (1, 2, 3, 17, 200):
                res = tv.classify_trajectory(p, traj, lambda t: empty, 0.0,
                                             max_checks=max_checks)
                want = np.arange(n)
                if n > max_checks:
                    want = np.unique(np.linspace(0, n - 1, max_checks).round().astype(int))
                assert [r.time for r in res.records] == times[want].tolist()

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


#: The 6 x 6 sweep grid at dt 4e-3 with 40 checks, and both acceptance
#: regimes at dt 1e-3 with 200 checks, as (alpha, beta, dt, checks).
ORACLE_CASES = ([(a, b, 4e-3, 40) for a in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
                 for b in (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)]
                + [(0.4, 10.0, 1e-3, 200), (0.2, 5.0, 1e-3, 200)])


@pytest.mark.parametrize("alpha, beta, dt, checks", ORACLE_CASES)
def test_records_match_the_exact_basin_split(alpha, beta, dt, checks):
    # n = 1: the frozen landscape at t is the quartic moved by beta sin t, so
    # a state left of its local maximum y2 + beta sin t flows to the spurious
    # minimum (catalog id 0 in lexicographic order) and one right of it to
    # the global minimum (id 1).  This oracle shares no code with the flows
    # or the catalogs.  Each run classifies as the CLI's classify does, from
    # the spurious minimum; a grid cell also runs as a sweep cell does, on
    # the sweep's one catalog of g at t = 0
    p, g = tv.make_example1(beta, alpha)
    traj = tv.backward_euler_trajectory(p, np.array([g.y1]), dt)
    catalogs = [None] + ([sweep_catalog()] if (dt, checks) == (4e-3, 40) else [])
    states = dict(zip(traj.times, traj.states[:, 0]))
    for catalog in catalogs:
        builder = tv.tracking_builder(p, (-(beta + 6.0), beta + 6.0), starts=64, seed=0,
                                      catalog=catalog)
        res = tv.classify_trajectory(p, traj, builder, 0.75 * p.horizon, max_checks=checks)
        right = [bool(states[r.time] > g.y2 + beta * np.sin(r.time)) for r in res.records]
        assert len(res.records) == checks
        assert [(r.member, r.is_global) for r in res.records] == [(int(w), w) for w in right]
