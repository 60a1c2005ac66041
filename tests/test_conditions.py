import math
import re
import warnings

import numpy as np
import pytest

import tvland as tv
from tvland.conditions import line_form
from tvland.problem import QUARTIC


@pytest.fixture(scope="module")
def quartic(ex1_04_10):
    _, sf = ex1_04_10
    return sf


def exact_max_slope(sf):
    """Closed-form oracle: the interior max of g' sits at the negative root
    of g'' (quadratic formula), g''(y) = 3y^2 + 0.75y - 4."""
    y_minus = (-0.75 - np.sqrt(0.75**2 + 48.0)) / 6.0
    return sf.dg(y_minus)


def exact_barriers(level):
    """Companion-matrix oracle for the roots of g'(y) = level."""
    roots = np.roots([1.0, 0.375, -4.0, -1.5 - level])
    roots = np.sort(roots[np.abs(roots.imag) < 1e-12].real)
    return roots


class TestProp1Constants:
    def test_max_slope_against_closed_form(self, quartic):
        rep = tv.prop1_check(quartic, 0.4, 10.0)
        assert rep.C == pytest.approx(exact_max_slope(quartic), abs=1e-9)
        assert rep.C == pytest.approx(2.137, abs=1e-2)

    def test_barriers_against_companion_roots(self, quartic):
        rep = tv.prop1_check(quartic, 0.4, 10.0)  # alpha beta = 4
        roots = exact_barriers(-4.0)
        assert rep.m1 == pytest.approx(roots[0], abs=1e-9)
        assert rep.m2 == pytest.approx(roots[1], abs=1e-9)
        assert rep.m1 < quartic.y1 < rep.m2
        # coarse pins from the sampling oracle
        assert rep.m1 == pytest.approx(-2.437, abs=1e-2)
        assert rep.m2 == pytest.approx(0.838, abs=1e-2)

    def test_phase_window(self, quartic):
        rep = tv.prop1_check(quartic, 0.4, 10.0)
        assert rep.t1 == pytest.approx(np.arccos(-rep.C / 4.0), abs=1e-12)
        assert rep.t2 == pytest.approx(2 * np.pi - rep.t1, abs=1e-12)
        assert 0 < rep.t1 <= rep.t2 < 2 * np.pi

    def test_boundary_case_t1_equals_t2(self, quartic):
        C = exact_max_slope(quartic)
        rep = tv.prop1_check(quartic, 1.0, C)  # alpha beta = C exactly
        assert rep.t1 == pytest.approx(np.pi, abs=1e-6)
        assert rep.t2 == pytest.approx(np.pi, abs=1e-6)

    def test_missing_barrier_raises(self, capsys):
        # g' on [y1, y3] never reaches -alpha beta when alpha beta > |min g'|:
        # no barrier constant is reported, and the conditions needing them fail
        from tvland.cli import run

        rep = tv.prop1_check(QUARTIC, 1.0, 10.0)
        assert (rep.m1, rep.m2, rep.t1, rep.t2) == (None,) * 4
        assert rep.cond2 is False and rep.cond3 is False
        assert run(["prop1", "--scenario", "example1", "--alpha", "1", "--beta", "10"]) == 0
        assert capsys.readouterr().out == (
            '{"schema": 1, "alpha": 1.0, "beta": 10.0, "C": 2.137392539040352, '
            '"m1": null, "m2": null, "t1": null, "t2": null, "cond1": true, '
            '"cond2": false, "cond3": false, "satisfied": false}\n')

    def test_barrier_on_a_grid_point(self):
        # g' = y^3 - y equals the level exactly at a point of the barrier
        # grid (0.3); the crossing back at 0.8157 is the second root, not m2
        cubic = lambda y: y**3 - y
        sf = tv.Scalar1DFunction(g=lambda y: 0.25 * y**4 - 0.5 * y**2, dg=cubic,
                                 d2g=lambda y: 3.0 * y**2 - 1.0,
                                 stationary_points=(-1.0, 0.0, 1.0))
        on_grid = np.linspace(sf.y1, sf.y3, 20_001)[13_000]
        level = cubic(on_grid)
        assert tv.prop1_check(sf, -level, 1.0).m2 == on_grid
        assert on_grid == pytest.approx(0.3, abs=1e-12)
        # a level just off the grid value finds the same root by bisection
        off = tv.prop1_check(sf, -level + 1e-12, 1.0).m2
        assert off == pytest.approx(0.3, abs=1e-9)

    def test_resolution_stability(self, quartic):
        from tvland.conditions import _max_slope
        assert abs(_max_slope(quartic, 10_000) - _max_slope(quartic, 20_000)) <= 1e-3

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_rejects_non_finite_parameters(self, quartic, name, value, monkeypatch):
        # refused before C is sampled
        from tvland import conditions

        monkeypatch.setattr(conditions, "_max_slope", lambda sf: pytest.fail("sampled C"))
        params = {"alpha": 0.4, "beta": 10.0, name: value}
        with pytest.raises(ValueError, match="finite"):
            tv.prop1_check(quartic, **params)


class TestProp1Check:
    def test_escaping_pair_satisfied(self, quartic):
        rep = tv.prop1_check(quartic, 0.4, 10.0)
        assert rep.satisfied
        assert rep.cond1 and rep.cond2 and rep.cond3

    def test_trapped_pair_fails_cond1(self, quartic):
        rep = tv.prop1_check(quartic, 0.2, 5.0)
        assert not rep.satisfied
        assert not rep.cond1  # alpha beta = 1 < C
        assert rep.C > 1.0

    def test_cond3_arithmetic(self, quartic):
        rep = tv.prop1_check(quartic, 0.4, 10.0)
        lhs = (-rep.C / 0.4 * (rep.t2 - rep.t1)
               - 10.0 * (np.sin(rep.t2) - np.sin(rep.t1)) + rep.m1)
        # independent recomputation of the printed pieces
        assert -rep.C / 0.4 * (rep.t2 - rep.t1) == pytest.approx(-10.76, abs=2e-2)
        assert -10.0 * (np.sin(rep.t2) - np.sin(rep.t1)) == pytest.approx(16.91, abs=2e-2)
        assert lhs == pytest.approx(3.706, abs=1e-2)
        assert lhs >= rep.m2

    def test_cond1_monotone_in_beta(self, quartic):
        alpha = 0.3
        flipped = False
        prev = None
        for beta in np.linspace(2.0, 20.0, 10):
            c1 = tv.prop1_check(quartic, alpha, beta).cond1
            if prev is True and c1 is False:
                flipped = True
            prev = c1
        assert not flipped

    def test_missing_barrier_means_cond2_false(self, quartic):
        rep = tv.prop1_check(quartic, 1.0, 10.0)
        assert rep.cond2 is False
        assert rep.satisfied is False

    def test_missing_barrier_samples_C_once(self, quartic, monkeypatch):
        # at (1, 10) m1 exists but m2 does not; the report keeps neither,
        # and C is sampled once
        from tvland import conditions

        calls = []
        max_slope = conditions._max_slope
        monkeypatch.setattr(conditions, "_max_slope",
                            lambda sf: calls.append(sf) or max_slope(sf))
        rep = tv.prop1_check(quartic, 1.0, 10.0)
        assert rep.m1 is None and rep.m2 is None
        assert len(calls) == 1

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_rejects_non_finite_parameters(self, quartic, name, value):
        # otherwise a non-finite level -alpha beta reads as "no barrier
        # points" and gives a verdict
        params = {"alpha": 0.4, "beta": 10.0, name: value}
        with pytest.raises(ValueError, match="finite"):
            tv.prop1_check(quartic, **params)


class TestProp1Region:
    def test_verdict_grid(self, quartic):
        res = tv.prop1_region(quartic, [0.2, 0.4], [5.0, 10.0])
        # row 0 = alpha 0.2, col 1 = beta 10
        assert res.satisfied[1, 1]          # (0.4, 10)
        assert not res.satisfied[0, 0]      # (0.2, 5)
        assert not res.failed.any()

    def test_cond1_dominance(self, quartic):
        C = exact_max_slope(quartic)
        alphas = [0.05, 0.1]
        betas = [1.0, 2.0]
        res = tv.prop1_region(quartic, alphas, betas)
        # all cells have alpha beta < C, hence all unsatisfied
        assert not res.satisfied.any()

    def test_rejects_nonpositive_grid(self, quartic):
        with pytest.raises(ValueError):
            tv.prop1_region(quartic, [0.0, 0.1], [1.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["alpha_grid", "beta_grid"])
    def test_rejects_non_finite_grid(self, quartic, name, value):
        grids = {"alpha_grid": [0.4], "beta_grid": [10.0], name: [0.2, value]}
        with pytest.raises(ValueError, match="finite"):
            tv.prop1_region(quartic, **grids)


def quartic_dg(y):
    return np.array([y[0]**3 + 0.375 * y[0]**2 - 4.0 * y[0] - 1.5])


def double_well_dg(y):
    """Gradient of the 2-D double well g(y) = (y1^2 - 1)^2 + y2^2."""
    return np.array([4.0 * y[0] * (y[0]**2 - 1.0), 2.0 * y[1]])


class TestThm3:
    def test_one_dimensional_endpoint_constants(self):
        # g' is monotone on B(-2, 0.5) (g'' > 0 there), so the extrema sit at
        # the endpoints: g'(-2.5) = -4.78125 by direct polynomial evaluation
        rep = tv.thm3_check(quartic_dg, [np.array([-2.0])], 0.5,
                            alpha=0.4, beta=10.0, omega=1.0, lam=0.0)
        assert rep.C1 == pytest.approx(4.78125, abs=1e-3)
        assert rep.C2 == pytest.approx(-4.78125, abs=1e-3)
        assert not rep.satisfied

    def test_negative_c2_blocks_condition2(self):
        rep = tv.thm3_check(quartic_dg, [np.array([-2.0])], 0.5,
                            alpha=2.0, beta=50.0, omega=3.0, lam=0.1)
        assert rep.C2 < 0
        assert not rep.cond2
        assert not rep.satisfied

    def test_necessary_condition_small_radius(self):
        # R = 0.1: C2 = min(g'(-2.1), -g'(-1.9)) = g'(-2.1) = -0.70725 exactly
        rep = tv.thm3_check(quartic_dg, [np.array([-2.0])], 0.1,
                            alpha=0.4, beta=10.0, omega=1.0, lam=0.0)
        assert rep.C2 == pytest.approx(-0.70725, abs=1e-6)
        assert rep.necessary_ok  # 4 >= 0.70725

    def test_c1_at_least_c2_across_instances(self):
        for R in (0.1, 0.3, 0.5, 1.0):
            for (a, b, w, l) in [(0.4, 10, 1, 0), (1.0, 2, 3, 0.5), (0.2, 5, 2, 1.0)]:
                rep = tv.thm3_check(quartic_dg, [np.array([-2.0])],
                                    R, a, b, w, l)
                assert rep.C1 >= rep.C2

    def test_two_dimensional_sampling(self):
        # double well g(y) = (y1^2 - 1)^2 + y2^2 around the minimum (-1, 0):
        # on B((-1,0), 0.5) the gradient norm peaks at (-1.5, 0) with value
        # 4|y1||y1^2-1| = 7.5 (oracle: monotone growth of the cubic along y1)
        dg = double_well_dg
        rep = tv.thm3_check(dg, [np.array([-1.0, 0.0])], 0.5,
                            alpha=1.0, beta=2.0, omega=1.0, lam=0.0,
                            ball_samples=4096, sphere_samples=512)
        assert rep.C1 == pytest.approx(7.5, abs=2e-3)
        # C1 is a value attained inside the ball, never above the true max
        assert rep.C1 <= 7.5 + 1e-9
        # oracle for C2: dense sweep over the unit circle
        phis = np.linspace(0, 2 * np.pi, 100_001)
        best = np.inf
        for phi in phis[:-1:50]:
            d = np.array([np.cos(phi), np.sin(phi)])
            best = min(best, float(dg(np.array([-1.0, 0.0]) - 0.5 * d) @ d))
        assert rep.C2 <= best + 1e-6
        assert rep.C2 == pytest.approx(best, abs=2e-3)

    def test_refinement_uses_non_success_iterate(self, monkeypatch):
        # SLSQP may stop with status 8 ("positive directional derivative for
        # linesearch") next to the optimum; its iterate must still be used,
        # after projection onto the ball or normalisation onto the sphere
        import scipy.optimize
        from scipy.optimize import OptimizeResult
        from tvland import conditions

        dg = double_well_dg
        center = np.array([-1.0, 0.0])

        def stop_at(x):
            def fake(*args, **kwargs):
                return OptimizeResult(x=np.asarray(x, dtype=float), fun=0.0,
                                      success=False, status=8,
                                      message="Positive directional "
                                              "derivative for linesearch")
            monkeypatch.setattr(scipy.optimize, "minimize", fake)

        # 3.2e-6 outside the ball: the value at the projection (-1.5, 0)
        stop_at([-1.50000322, 3.5e-8])
        c1 = conditions._refine_ball_max(dg, center, 0.5, center)
        assert c1 == pytest.approx(7.5, abs=1e-6)
        assert c1 <= 7.5 + 1e-9
        # off the unit sphere: evaluated at the normalised direction (1, 0)
        stop_at([1.01, 0.0])
        c2 = conditions._refine_sphere_min(dg, center, 0.5, np.array([1.0, 0.0]))
        assert c2 == pytest.approx(float(dg(np.array([-1.5, 0.0]))[0]), abs=1e-12)
        # a non-finite iterate leaves the sampled extremum in charge
        stop_at([np.nan, 0.0])
        assert conditions._refine_ball_max(dg, center, 0.5, center) == -np.inf
        assert conditions._refine_sphere_min(dg, center, 0.5,
                                             np.array([1.0, 0.0])) == np.inf
        rep = tv.thm3_check(dg, [center], 0.5, alpha=1.0, beta=2.0,
                            omega=1.0, lam=0.0, ball_samples=256,
                            sphere_samples=64)
        assert np.isfinite(rep.C1) and np.isfinite(rep.C2)
        assert 0.0 < rep.C1 <= 7.5

    def test_escape_and_no_return_jointly_infeasible(self):
        # structural fact: the escape inequality forces alpha beta omega
        # e^(-lam pi/(2 omega)) above (pi/2) C1, which drives the no-return
        # left side above C1 >= C2 for every parameter choice, so
        # satisfied=False always; the checker must report that honestly
        rng = np.random.default_rng(7)
        for _ in range(40):
            a = float(10 ** rng.uniform(-2, 2))
            b = float(10 ** rng.uniform(-1, 4))
            w = float(10 ** rng.uniform(-1, 1.5))
            l = float(rng.uniform(0.0, 5.0))
            R = float(10 ** rng.uniform(-1.5, 0.5))
            rep = tv.thm3_check(quartic_dg, [np.array([-2.0])],
                                R, a, b, w, l,
                                ball_samples=256, sphere_samples=64)
            assert not (rep.cond1 and rep.cond2), rep

    def test_resolution_stability_c1_c2(self):
        # n = 1 reads neither sample count, so the sampled 2-D case is compared
        reps = [tv.thm3_check(double_well_dg, [np.array([-1.0, 0.0])], 0.5,
                              0.4, 10.0, 1.0, 0.0, ball_samples=n, sphere_samples=m)
                for n, m in ((4096, 512), (8192, 1024))]
        assert abs(reps[0].C1 - reps[1].C1) <= 1e-3
        assert abs(reps[0].C2 - reps[1].C2) <= 1e-3

    def test_default_samples_keep_sobol_balanced(self):
        # a sample count that is not a power of 2 makes scipy warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = tv.thm3_check(double_well_dg, [np.array([-1.0, 0.0])], 0.5,
                                0.4, 10.0, 1.0, 0.0)
        assert rep.C1 == pytest.approx(7.5, abs=2e-3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            tv.thm3_check(quartic_dg, [np.array([-2.0])], 0.0,
                          0.4, 10.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            tv.thm3_check(quartic_dg, [], 0.5, 0.4, 10.0, 1.0, 0.0)

    @pytest.mark.parametrize("R", [np.inf, np.nan])
    def test_rejects_non_finite_radius(self, R):
        # an infinite ball would reach a bounded search with infinite bounds
        with pytest.raises(ValueError, match="R must be positive and finite"):
            tv.thm3_check(quartic_dg, [np.array([-2.0])], R,
                          0.4, 10.0, 1.0, 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["alpha", "beta", "omega", "lam"])
    def test_rejects_non_finite_parameters(self, name, value):
        params = {"alpha": 0.4, "beta": 10.0, "omega": 1.0, "lam": 0.0, name: value}
        with pytest.raises(ValueError, match="finite"):
            tv.thm3_check(quartic_dg, [np.array([-2.0])], 0.5, **params)


def _counted(fn, calls):
    """``fn`` with each call appended to ``calls``, carrying ``fn``'s mark."""
    from tvland.problem import _is_stackable, _stackable

    def wrapped(y):
        calls.append(np.shape(y))
        return fn(y)

    return _stackable(wrapped) if _is_stackable(fn) else wrapped


def _unmarked(sf):
    """``sf`` with a dg that is the same function without the array-safe mark."""
    return tv.Scalar1DFunction(g=sf.g, dg=lambda y: sf.dg(y), d2g=sf.d2g,
                               stationary_points=sf.stationary_points)


def _grid_root_cubic():
    """g' = y^3 - y in products, marked array-safe, with g'(0.3) on the barrier grid."""
    from tvland.problem import _stackable

    return tv.Scalar1DFunction(g=lambda y: 0.25 * y**4 - 0.5 * y**2,
                               dg=_stackable(lambda y: y * y * y - y),
                               d2g=lambda y: 3.0 * y**2 - 1.0,
                               stationary_points=(-1.0, 0.0, 1.0))


class TestStackedGrids:
    """A marked landscape is evaluated on whole grids, with the loop's bits."""

    CASES = [(QUARTIC, 0.4, 10.0), (QUARTIC, 0.2, 5.0)]

    def test_quartic_slope_is_marked(self):
        from tvland.problem import _is_stackable

        assert _is_stackable(QUARTIC.dg)
        assert _is_stackable(line_form(QUARTIC)[1])
        assert not _is_stackable(_unmarked(QUARTIC).dg)

    @pytest.mark.parametrize("case", range(3))
    def test_prop1_reports_equal(self, case):
        if case < 2:
            sf, alpha, beta = self.CASES[case]
        else:  # the level that puts m2 on a grid point
            sf = _grid_root_cubic()
            on_grid = np.linspace(sf.y1, sf.y3, 20_001)[13_000]
            alpha, beta = -sf.dg(on_grid), 1.0
        marked = tv.prop1_check(sf, alpha, beta)
        assert marked == tv.prop1_check(_unmarked(sf), alpha, beta)
        if case == 2:
            assert marked.m2 == on_grid

    @pytest.mark.parametrize("case", range(3))
    def test_thm3_reports_equal(self, case):
        sf, alpha, beta = self.CASES[case] if case < 2 else (_grid_root_cubic(), 0.3, 1.0)
        grad = line_form(sf)[1]
        args = ([np.array([sf.y1])], 0.5, alpha, beta, 1.0, 0.0)
        marked = tv.thm3_check(grad, *args)
        assert marked == tv.thm3_check(lambda y: grad(y), *args)
        assert marked == tv.thm3_check(line_form(_unmarked(sf))[1], *args)

    def test_one_call_per_grid(self):
        # prop1 samples 10 000 + 20 001 points and thm3 10 000; marked
        # callables see each grid once, besides the refinements' points
        calls = []
        sf = QUARTIC
        counted = tv.Scalar1DFunction(g=sf.g, dg=_counted(sf.dg, calls), d2g=sf.d2g,
                                      stationary_points=sf.stationary_points)
        tv.prop1_check(counted, 0.4, 10.0)
        grids = sorted(shape for shape in calls if shape)
        assert grids == [(10_000,), (20_001,)]
        assert len(calls) < 300
        grad = line_form(sf)[1]
        calls.clear()
        tv.thm3_check(_counted(grad, calls), [np.array([-2.0])], 0.5, 0.4, 10.0, 1.0, 0.0)
        assert sorted(shape for shape in calls if shape != (1,)) == [(10_000, 1)]
        assert len(calls) < 100


def _damped_slope(t):
    """Slope of the damped scenario's landscape g(y - beta e^(-lam t) sin t)."""
    shift = 10.0 * np.exp(-0.1 * t) * np.sin(t)
    return lambda y: QUARTIC.dg(y - shift)


#: (function, bracket) cases of the bisection transcription: example1's g' and
#: its square, the damped landscape at three times, on wide brackets and on
#: the five-point windows that the dense line search refines.
_SLOPES = [QUARTIC.dg, lambda y: -QUARTIC.dg(y), lambda y: QUARTIC.dg(y) ** 2,
           _damped_slope(0.7), _damped_slope(2.0), _damped_slope(4.5)]
_BRACKETS = [(-3.0, 3.0), (-2.5, -1.5), (-1.0, 0.8), (0.5, 2.5), (1.2, 1.2000001)]


def _windows(fn):
    """The five-point windows around the grid argmax and argmin of fn."""
    ys = np.linspace(-3.0, 3.0, 1_000)
    vals = np.array([fn(y) for y in ys])
    return [(ys[max(0, i - 2)], ys[min(ys.size - 1, i + 2)])
            for i in (int(np.argmax(vals)), int(np.argmin(vals)))]


class TestGoldenMax:
    """The golden-section search that refines the 1-D maxima."""

    def test_interior_maximum_is_exact(self):
        from tvland.conditions import _golden_max

        # g'' = 3y^2 + 0.75y - 4 vanishes at the argmax (-0.75 - sqrt(48.5625)) / 6
        top = QUARTIC.dg((-0.75 - math.sqrt(48.5625)) / 6.0)
        assert top == 2.137392539040352
        assert _golden_max(QUARTIC.dg, -1.4, -1.2) == top

    def test_endpoint_maximum(self):
        from tvland.conditions import _golden_max

        # g'' < 0 on [-1, 0.8], so the maximum is the left end's
        assert QUARTIC.dg(-1.0) == 1.875
        assert abs(_golden_max(QUARTIC.dg, -1.0, 0.8) - 1.875) <= 1e-11

    @staticmethod
    def _bounded(fn):
        """``fn``, failing the test from its 100th call on."""
        calls = []

        def wrapped(y):
            calls.append(y)
            assert len(calls) < 100, "the search does not end"
            return fn(y)

        return wrapped

    def test_far_bracket_terminates(self):
        # 1e-12 is below the float spacing at 1e8; the relative term ends it
        from tvland.conditions import _golden_max

        top = _golden_max(self._bounded(lambda y: -(y - 1e8 - 1.0) ** 2),
                          1e8 - 6.0, 1e8 + 6.0)
        assert -1e-12 <= top <= 0.0

    def test_nan_values_terminate(self):
        from tvland.conditions import _golden_max

        assert math.isnan(_golden_max(self._bounded(lambda y: math.nan), 0.0, 1.0))

    @pytest.mark.parametrize("lo, hi", [(-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)])
    def test_refuses_non_finite_bounds(self, lo, hi):
        from tvland.conditions import _golden_max

        with pytest.raises(ValueError, match="finite"):
            _golden_max(QUARTIC.dg, lo, hi)


#: Reported constants on example1's quartic for the two acceptance regimes,
#: as float.hex: C, t1, t2 of prop1_check, and C1, C2 of thm3_check by R.
_PINNED_PROP1 = {
    (0.4, 10.0): ("0x1.11961426f2448p+1", "0x1.11385dfdc7ae2p+1", "0x1.098386455efa7p+2"),
    (0.2, 5.0): ("0x1.11961426f2448p+1", None, None),
}
_PINNED_THM3 = {
    0.1: ("0x1.6a1cac0831270p-1", "-0x1.6a1cac0831270p-1"),
    0.5: ("0x1.3200000000000p+2", "-0x1.3200000000000p+2"),
    2.0: ("0x1.5c00000000000p+5", "-0x1.5c00000000000p+5"),
    5.0: ("0x1.2a20000000000p+8", "-0x1.2a20000000000p+8"),
}


def _hex(x):
    return None if x is None else float(x).hex()


class TestPinnedConstants:
    """A change to the refinements cannot move a reported constant unnoticed."""

    @pytest.mark.parametrize("regime", list(_PINNED_PROP1), ids=["0.4-10", "0.2-5"])
    def test_prop1_constants(self, regime):
        rep = tv.prop1_check(QUARTIC, *regime)
        assert (_hex(rep.C), _hex(rep.t1), _hex(rep.t2)) == _PINNED_PROP1[regime]

    @pytest.mark.parametrize("regime", list(_PINNED_PROP1), ids=["0.4-10", "0.2-5"])
    @pytest.mark.parametrize("R", list(_PINNED_THM3))
    def test_thm3_constants(self, regime, R):
        rep = tv.thm3_check(line_form(QUARTIC)[1], [np.array([QUARTIC.y1])], R,
                            *regime, 1.0, 0.0)
        assert (_hex(rep.C1), _hex(rep.C2)) == _PINNED_THM3[R]


class TestScipyTranscriptions:
    """Bisection gives scipy's roots without importing scipy."""

    @pytest.mark.parametrize("k", range(len(_SLOPES)))
    def test_bisect_is_scipys(self, k):
        from scipy.optimize import bisect
        from tvland.conditions import _bisect

        fn = _SLOPES[k]
        for lo, hi in _BRACKETS + _windows(fn):
            for frac in (0.3, 0.5):
                # the level is met on the bracket, at an end of the halves
                mid = lo + frac * (hi - lo)
                level = fn(mid)
                shifted = lambda y: fn(y) - level
                for a, b in ((lo, hi), (lo, mid), (mid, hi)):
                    try:
                        ref = bisect(shifted, a, b, xtol=1e-12)
                    except ValueError as exc:
                        with pytest.raises(ValueError, match=re.escape(str(exc))):
                            _bisect(shifted, a, b)
                    else:
                        assert _bisect(shifted, a, b) == ref, (a, b)

    def test_bisect_edge_cases_are_scipys(self):
        from scipy.optimize import bisect
        from tvland.conditions import _bisect

        cubic = lambda y: y**3 - y
        # exact zeros at either end return that end
        for a, b in ((-1.0, -0.5), (-1.5, -1.0), (1.0, 2.0), (0.5, 1.0)):
            assert _bisect(cubic, a, b) == bisect(cubic, a, b, xtol=1e-12) in (a, b)
        # a midpoint landing on the root returns it at once
        assert _bisect(cubic, -0.5, 0.5) == bisect(cubic, -0.5, 0.5, xtol=1e-12) == 0.0
        # same signs at both ends
        with pytest.raises(ValueError, match="different signs"):
            bisect(cubic, 2.0, 3.0, xtol=1e-12)
        with pytest.raises(ValueError, match="different signs"):
            _bisect(cubic, 2.0, 3.0)
        # 100 halvings of a huge bracket are still wider than the tolerance
        line = lambda y: y - 0.3
        with pytest.raises(RuntimeError, match="Failed to converge after 100 iterations"):
            bisect(line, -1e20, 1e20, xtol=1e-12)
        with pytest.raises(RuntimeError, match="Failed to converge after 100 iterations"):
            _bisect(line, -1e20, 1e20)
        # a NaN value stops the search
        with pytest.raises(ValueError, match="NaN"):
            bisect(lambda y: np.nan, 0.0, 1.0, xtol=1e-12)
        with pytest.raises(ValueError, match="NaN"):
            _bisect(lambda y: np.nan, 0.0, 1.0)
