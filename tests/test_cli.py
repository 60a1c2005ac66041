import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from tvland import cli
from tvland.cli import run


_SCENARIO = {"--scenario", "--alpha", "--beta", "--omega", "--lambda", "--consistent"}
_GRID = {"--x0", "--method", "--N", "--dt", "--rel-tol"}

#: The flags each subcommand reads, besides --config.
READS = {
    "simulate": _SCENARIO | _GRID | {"--out"},
    "flow": _SCENARIO | {"--x0", "--t", "--smax", "--tol", "--out", "--json"},
    "classify": _SCENARIO | _GRID | {"--tbar-frac", "--box", "--starts", "--seed",
                                     "--checks", "--strict", "--out", "--json"},
    "prop1": {"--scenario", "--alpha", "--beta", "--omega", "--lambda", "--out", "--json"},
    "thm3": {"--scenario", "--alpha", "--beta", "--omega", "--lambda", "--R", "--seed",
             "--out", "--json"},
    "spectrum": _SCENARIO | {"--x0", "--N", "--out"},
    "sweep": {"--scenario", "--alpha-grid", "--beta-grid", "--mode", "--x0", "--dt",
              "--tbar-frac", "--starts", "--seed", "--checks", "--out"},
    "validate": _SCENARIO | {"--samples", "--seed", "--out", "--json"},
}

#: A config file each subcommand runs on in a few seconds at most.
CONFIG_BASE = {
    "simulate": "scenario=example1\nx0=-2\nN=10\nmethod=discrete\n",
    "flow": "scenario=example1\nx0=0\n",
    "classify": "scenario=example1\nx0=-2\nN=50\nchecks=2\n",
    "prop1": "scenario=example1\n",
    "thm3": "scenario=example1\n",
    "spectrum": "scenario=matrec\nx0=1,0,0,0,0,0\nN=4\n",
    "sweep": "alpha_grid=0.4\nbeta_grid=10\nmode=prop1\n",
    "validate": "scenario=example1\nsamples=5\n",
}


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def usage_message(capsys) -> str:
    """The message of the usage error a run just reported, with nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "usage"
    return err["message"]


@pytest.fixture
def no_engine(monkeypatch):
    """Fails the test if a trajectory is simulated or a sweep cell runs."""
    def engine(*args, **kwargs):
        raise AssertionError("an engine ran")

    for module, name in ((cli._ode, "backward_euler_trajectory"),
                         (cli._ode, "integrate_reference"),
                         (cli, "discrete_trajectory"), (cli, "_sweep_cell")):
        monkeypatch.setattr(module, name, engine)


class TestSimulate:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run(["simulate", "--scenario", "example1", "--alpha", "0.4",
                    "--beta", "10", "--x0", "-2", "--dt", "1e-2",
                    "--method", "backward-euler", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "x0", "kkt_stationarity", "feasibility",
                          "sigma_min", "step_norm"]
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == -2.0
        assert float(rows[-1][0]) == pytest.approx(2 * np.pi)

    def test_trajectory_values_in_fmt_digits(self, tmp_path):
        # every value in 17 significant digits, inf and nan included
        from tvland.problem import Trajectory

        rng = np.random.default_rng(3)
        states = rng.standard_normal((5, 2)) * 10.0 ** rng.integers(-300, 300, (5, 2))
        states[1] = [-0.0, 5e-324]
        traj = Trajectory(times=[0.0, 0.1, 1 / 3, 2.0, 1e3], states=states,
                          kkt_stationarity=[0.0, 1e-17, np.nan, 2.5, 1.0],
                          feasibility=np.zeros(5), sigma_min=np.full(5, np.inf),
                          step_norm=[0.0, -np.inf, 0.1, 0.2, 0.3])
        out = tmp_path / "traj.csv"
        cli._write_trajectory_csv(traj, str(out))
        want = ["t,x0,x1,kkt_stationarity,feasibility,sigma_min,step_norm"]
        for k in range(5):
            values = [traj.times[k], *traj.states[k], traj.kkt_stationarity[k],
                      traj.feasibility[k], traj.sigma_min[k], traj.step_norm[k]]
            want.append(",".join(format(v, ".17g") for v in values))
        assert out.read_text() == "\n".join(want) + "\n"

    def test_multidimensional_header(self, tmp_path):
        out = tmp_path / "traj.csv"
        x0 = ",".join(map(str, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        code = run(["simulate", "--scenario", "matrec", "--alpha", "0.5",
                    "--x0", x0, "--N", "10", "--method", "discrete",
                    "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header[:7] == ["t", "x0", "x1", "x2", "x3", "x4", "x5"]
        assert len(rows) == 11
        # feasibility enforced by the engine
        assert all(float(r[-3]) <= 1e-9 for r in rows)

    @pytest.mark.parametrize("method", ["discrete", "backward-euler"])
    def test_unmarked_maps_print_the_same_csv(self, method, monkeypatch, capsys):
        # the matrix-recovery maps wrapped in unmarked lambdas, as a counting
        # wrapper leaves them, are called row by row with the same bits
        from tvland import problem

        x0 = problem.matrix_recovery_state(problem.make_matrix_recovery(True, alpha=0.5),
                                           problem.THE_SPURIOUS_FACTOR, 0.0)
        argv = ["simulate", "--scenario", "matrec", "--alpha", "0.5", "--N", "100",
                "--x0", ",".join(repr(float(v)) for v in x0), "--method", method]
        assert run(argv) == 0
        marked = capsys.readouterr().out
        make, made = problem.make_matrix_recovery, []

        def unmarked(*args, **kwargs):
            p = made.append(1) or make(*args, **kwargs)
            return p.replace(**{name: (lambda f: lambda *a: f(*a))(getattr(p, name))
                                for name in ("grad_objective", "jacobian", "constraints",
                                             "data_path")})

        monkeypatch.setattr(problem, "make_matrix_recovery", unmarked)
        assert run(argv) == 0
        assert made
        assert capsys.readouterr().out == marked

    def test_floats_roundtrip(self, tmp_path):
        out = tmp_path / "traj.csv"
        run(["simulate", "--scenario", "example1", "--alpha", "0.4",
             "--beta", "10", "--x0", "-2", "--dt", "5e-2",
             "--method", "discrete", "--out", str(out)])
        _, rows = read_csv(out)
        # 17 significant digits reproduce the binary doubles exactly
        vals = [float(r[1]) for r in rows]
        out2 = tmp_path / "again.csv"
        run(["simulate", "--scenario", "example1", "--alpha", "0.4",
             "--beta", "10", "--x0", "-2", "--dt", "5e-2",
             "--method", "discrete", "--out", str(out2)])
        _, rows2 = read_csv(out2)
        assert [float(r[1]) for r in rows2] == vals

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--scenario", "example1", "--alpha", "0.4",
                "--beta", "10", "--x0", "-2", "--dt", "2e-2",
                "--method", "backward-euler"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_reference_method(self, tmp_path):
        out = tmp_path / "ref.csv"
        code = run(["simulate", "--scenario", "example1", "--alpha", "0.4",
                    "--beta", "10", "--x0", "-2", "--method", "reference",
                    "--N", "64", "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 65

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # non-KKT start: InitializationError -> exit 2, JSON on stderr
        code = run(["simulate", "--scenario", "example1", "--alpha", "0.4",
                    "--beta", "10", "--x0", "0.5", "--dt", "1e-2",
                    "--method", "backward-euler", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err.strip()
        payload = json.loads(err)
        assert payload["error"] == "InitializationError"

    def test_usage_error_exit_code(self, capsys):
        code = run(["simulate", "--scenario", "example1", "--alpha", "0.4",
                    "--beta", "10", "--dt", "1e-2"])  # no x0
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "usage"

    @pytest.mark.parametrize("method", ["discrete", "backward-euler", "reference"])
    def test_grid_given_twice_is_usage_error(self, method, capsys):
        # --N and --dt both fix the grid; neither may be dropped silently
        code = run(["simulate", "--scenario", "example1", "--alpha", "0.4",
                    "--beta", "10", "--x0", "-2", "--N", "50", "--dt", "0.1",
                    "--method", method])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err.strip())["error"] == "usage"

    def test_grid_given_twice_in_classify_and_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dt = 0.1\n")
        code = run(["classify", "--config", str(cfg), "--scenario", "example1",
                    "--alpha", "0.4", "--beta", "10", "--x0", "-2", "--N", "50",
                    "--checks", "2"])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "usage"

    def test_reference_method_rejects_dt(self, capsys):
        code = run(["simulate", "--scenario", "example1", "--alpha", "0.4",
                    "--beta", "10", "--x0", "-2", "--dt", "0.1",
                    "--method", "reference"])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "usage"

    def test_library_validation_maps_to_usage(self, capsys):
        code = run(["classify", "--scenario", "example1", "--alpha", "0.4",
                    "--beta", "10", "--x0", "-2", "--tbar-frac", "1.5",
                    "--N", "50", "--checks", "2"])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "usage"


class TestReports:
    def test_prop1_json(self, capsys):
        code = run(["prop1", "--scenario", "example1", "--alpha", "0.2",
                    "--beta", "5", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["satisfied"] is False
        assert payload["cond1"] is False

    def test_prop1_satisfied_pair(self, capsys):
        run(["prop1", "--scenario", "example1", "--alpha", "0.4", "--beta", "10"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["satisfied"] is True
        assert payload["C"] == pytest.approx(2.137, abs=1e-2)

    def test_thm3_json(self, capsys):
        code = run(["thm3", "--scenario", "example1", "--alpha", "0.4",
                    "--beta", "10", "--R", "0.5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["C1"] == pytest.approx(4.78125, abs=1e-3)
        assert payload["C2"] == pytest.approx(-4.78125, abs=1e-3)
        assert payload["satisfied"] is False

    def test_thm3_damped_lambda_default(self, capsys):
        # thm3 and the damped scenario share one default damping factor
        common = ["thm3", "--scenario", "damped", "--alpha", "0.4", "--beta", "10"]
        assert run(common) == 0
        default = capsys.readouterr().out
        assert run(common + ["--lambda", "0.1"]) == 0
        assert capsys.readouterr().out == default
        assert json.loads(default)["lam"] == 0.1

    def test_flow_json(self, capsys):
        code = run(["flow", "--scenario", "example1", "--alpha", "0.4",
                    "--beta", "10", "--x0", "0", "--t", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert payload["limit"][0] == pytest.approx(2.0, abs=1e-4)

    @pytest.mark.parametrize("option", ["--tol=-1", "--tol=nan", "--smax=0", "--smax=-1",
                                        "--smax=nan"])
    def test_flow_rejects_bad_tol_and_budget(self, option, capsys):
        code = run(["flow", "--scenario", "example1", "--x0", "2.5", option])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "usage"

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_flow_time_must_be_finite(self, t, capsys):
        assert run(["flow", "--scenario", "example1", "--x0", "2.5", f"--t={t}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert json.loads(captured.err) == {"error": "usage",
                                            "message": f"t must be finite, got {t}"}

    @pytest.mark.parametrize("t", ["-1", "100"])
    def test_flow_time_outside_the_horizon_accepted(self, t, capsys):
        assert run(["flow", "--scenario", "example1", "--x0", "2.5", "--t", t]) == 0
        assert json.loads(capsys.readouterr().out)["t"] == float(t)

    def test_validate_json(self, capsys):
        code = run(["validate", "--scenario", "matrec", "--samples", "10",
                    "--seed", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    def test_validate_reports_second_derivatives(self, capsys):
        code = run(["validate", "--scenario", "example1", "--alpha", "0.4",
                    "--beta", "10", "--samples", "10"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hess_ok"] is True
        assert payload["constraint_hessians_ok"] is True
        assert payload["stack_ok"] is True
        assert payload["stack_deviation"] == 0.0
        assert 0.0 < payload["hess_deviation"] < 1e-5

    def test_damped_gradient_is_array_safe(self, capsys):
        # built from the marked quartic dg, so flows and diagnostics take
        # stacked calls, and validate checks them against the per-point loop
        from tvland.problem import has_stacked_gradient

        scenario = cli._SCENARIOS["damped"]
        assert has_stacked_gradient(scenario.make(scenario.params))
        code = run(["validate", "--scenario", "damped", "--samples", "10"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stack_ok"] is True
        assert payload["stack_deviation"] == 0.0

    def test_spectrum_csv(self, tmp_path):
        out = tmp_path / "spec.csv"
        x0 = ",".join(map(str, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        code = run(["spectrum", "--scenario", "matrec", "--alpha", "1.0",
                    "--x0", x0, "--N", "16", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "max_re", "n_pos", "n_zero", "n_neg"]
        assert len(rows) == 17

    def test_damped_scenario_simulates(self, tmp_path):
        out = tmp_path / "damped.csv"
        code = run(["simulate", "--scenario", "damped", "--alpha", "0.4",
                    "--beta", "5", "--omega", "2", "--lambda", "0.3",
                    "--x0", "-2", "--dt", "1e-2", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header[0] == "t"
        assert len(rows) > 100


class TestClassifyCommand:
    def test_non_spurious_verdict(self, capsys):
        code = run(["classify", "--scenario", "example1", "--alpha", "0.4",
                    "--beta", "10", "--x0", "-2", "--tbar-frac", "0.75",
                    "--checks", "40", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "non-spurious"
        assert all(c["is_global"] for c in payload["checks"])

    def test_spurious_verdict(self, capsys):
        code = run(["classify", "--scenario", "example1", "--alpha", "0.2",
                    "--beta", "5", "--x0", "-2", "--tbar-frac", "0.75",
                    "--checks", "40", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "spurious"

    def test_strict_unresolved_exit3(self, capsys, monkeypatch):
        # moving constrained data: frozen flows cannot settle, so membership
        # stays unresolved; --strict maps that to exit code 3
        results = []
        classify = cli._classify.classify_trajectory
        monkeypatch.setattr(cli._classify, "classify_trajectory",
                            lambda *a, **k: results.append(classify(*a, **k)) or results[-1])
        x0 = ",".join(map(str, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        code = run(["classify", "--scenario", "matrec", "--alpha", "1.0",
                    "--x0", x0, "--N", "40", "--checks", "2", "--starts", "2",
                    "--strict"])
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "unresolved"
        assert [r.reason for r in results[0].records] == ["flow_not_converged"] * 2
        assert "reason" not in payload["checks"][0]

    @pytest.mark.parametrize("box, verdict", [(["--box", "1,20"], "unresolved"),
                                              ([], "spurious")], ids=["box", "default"])
    def test_options_drive_the_one_multistart(self, box, verdict, monkeypatch, capsys):
        # the box 1..20 reaches only the global well, so the trapped state's
        # basin matches no catalog entry at any check
        searches = []
        build = cli._classify.build_catalog
        monkeypatch.setattr(cli._classify, "build_catalog",
                            lambda *a: searches.append(a[2:5]) or build(*a))
        code = run(["classify", "--scenario", "example1", "--alpha", "0.2", "--beta", "5",
                    "--x0", "-2", "--dt", "1e-3", "--checks", "20", *box])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == verdict
        assert searches == [(64, 0, (1.0, 20.0) if box else (-11.0, 11.0))]

    @pytest.mark.parametrize("frac", ["-0.5", "1", "nan"])
    def test_bad_tbar_frac_refused_before_simulating(self, frac, no_engine, capsys):
        code = run(["classify", *EX1, "--dt", "1e-4", "--tbar-frac", frac])
        assert code == 1
        assert "tbar_frac" in usage_message(capsys)


class TestConfigFile:
    def test_config_plus_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario=example1\nalpha=0.2\nbeta=5\n")
        run(["prop1", "--config", str(cfg)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"] == 0.2
        # flag overrides the file
        run(["prop1", "--config", str(cfg), "--alpha", "0.4", "--beta", "10"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"] == 0.4
        assert payload["satisfied"] is True

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenarioo=example1\n")
        code = run(["prop1", "--config", str(cfg)])
        assert code == 1

    def test_comments_and_blanks(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# comment\n\nscenario=example1\nalpha=0.4\nbeta=10\n")
        assert run(["prop1", "--config", str(cfg)]) == 0


class TestSweep:
    def test_prop1_only_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--scenario", "example1",
                    "--alpha-grid", "0.2,0.4", "--beta-grid", "5,10",
                    "--mode", "prop1", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["alpha", "beta", "prop1_satisfied", "sim_verdict"]
        assert len(rows) == 4
        table = {(float(r[0]), float(r[1])): r[2] for r in rows}
        assert table[(0.4, 10.0)] == "true"
        assert table[(0.2, 5.0)] == "false"
        # deterministic ordering by (alpha, beta)
        keys = [(float(r[0]), float(r[1])) for r in rows]
        assert keys == sorted(keys)

    def test_full_cells(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TVL_THREADS", "2")
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--scenario", "example1",
                    "--alpha-grid", "0.2,0.4", "--beta-grid", "5,10",
                    "--mode", "both", "--dt", "4e-3", "--checks", "30",
                    "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        table = {(float(r[0]), float(r[1])): (r[2], r[3]) for r in rows}
        assert table[(0.4, 10.0)] == ("true", "non-spurious")
        assert table[(0.2, 5.0)] == ("false", "spurious")

    def test_one_worker_by_default(self, tmp_path, monkeypatch):
        # the interpreter lock runs one cell at a time: without TVL_THREADS
        # the pool has one worker, whatever the machine's CPU count
        monkeypatch.delenv("TVL_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        sizes = []
        pool = cli.ThreadPoolExecutor

        def recorded(max_workers):
            sizes.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", recorded)
        code = run(["sweep", "--scenario", "example1", "--alpha-grid", "0.2,0.4",
                    "--beta-grid", "5,10", "--mode", "prop1",
                    "--out", str(tmp_path / "sweep.csv")])
        assert code == 0
        assert sizes == [1]

    def test_bytes_independent_of_worker_count(self, tmp_path, monkeypatch):
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("TVL_THREADS", threads)
            out = tmp_path / f"sweep{threads}.csv"
            code = run(["sweep", "--scenario", "example1",
                        "--alpha-grid", "0.2,0.4", "--beta-grid", "5,10",
                        "--mode", "both", "--dt", "4e-3", "--checks", "30",
                        "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("threads", [None, "1", "2"], ids=["unset", "1", "2"])
    def test_one_multistart_per_sweep(self, threads, tmp_path, monkeypatch):
        # every cell's landscape is g at t = 0, so the sweep searches g once,
        # on its own problem with --starts and --seed, and each cell
        # translates that catalog; no cell searches
        if threads is None:
            monkeypatch.delenv("TVL_THREADS", raising=False)
        else:
            monkeypatch.setenv("TVL_THREADS", threads)
        searches = []
        build = cli._classify.build_catalog
        monkeypatch.setattr(cli._classify, "build_catalog",
                            lambda *a: searches.append(a[1:]) or build(*a))
        code = run(["sweep", "--scenario", "example1", "--alpha-grid", "0.2,0.4",
                    "--beta-grid", "5,10", "--mode", "both", "--dt", "4e-3",
                    "--checks", "30", "--starts", "48", "--seed", "3",
                    "--out", str(tmp_path / "sweep.csv")])
        assert code == 0
        assert searches == [(0.0, 48, 3, (-16.0, 16.0))]
        _, rows = read_csv(tmp_path / "sweep.csv")
        table = {(float(r[0]), float(r[1])): (r[2], r[3]) for r in rows}
        assert table[(0.4, 10.0)] == ("true", "non-spurious")
        assert table[(0.2, 5.0)] == ("false", "spurious")

    def test_prop1_sweep_searches_nothing(self, tmp_path, monkeypatch):
        searches = []
        monkeypatch.setattr(cli._classify, "build_catalog", lambda *a: searches.append(a))
        code = run(["sweep", "--scenario", "example1", "--alpha-grid", "0.2,0.4",
                    "--beta-grid", "5,10", "--mode", "prop1",
                    "--out", str(tmp_path / "sweep.csv")])
        assert code == 0
        assert searches == []

    @pytest.mark.parametrize("mode", ["sim", "both"])
    def test_failed_multistart_errors_every_sim_cell(self, mode, tmp_path, monkeypatch):
        # a failing shared search is recorded in every cell, as a failing
        # per-cell search was; it never aborts the sweep, and prop1 still runs
        grid = ["sweep", "--scenario", "example1", "--alpha-grid", "0.2,0.4",
                "--beta-grid", "5,10", "--out"]
        assert run([*grid, str(tmp_path / "prop1.csv"), "--mode", "prop1"]) == 0

        def fail(*args):
            raise RuntimeError("no search")

        monkeypatch.setattr(cli._classify, "build_catalog", fail)
        code = run([*grid, str(tmp_path / "sweep.csv"), "--mode", mode, "--checks", "30"])
        assert code == 0
        _, rows = read_csv(tmp_path / "sweep.csv")
        _, prop1_rows = read_csv(tmp_path / "prop1.csv")
        assert [r[3] for r in rows] == ["error:RuntimeError"] * 4
        assert [r[2] for r in rows] == ([""] * 4 if mode == "sim"
                                        else [r[2] for r in prop1_rows])

    def test_failed_simulation_is_a_cell_error(self, capsys):
        # on the grid dt = 2 pi / 10 backward Euler stalls in both cells
        # (ROADMAP item 11): each cell records the error type, prop1 still
        # runs and the sweep exits 0
        code = run(["sweep", "--alpha-grid", "0.2,0.4", "--beta-grid", "10", "--mode", "both",
                    "--dt", "0.6283185307179586", "--checks", "20"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines() == [
            "alpha,beta,prop1_satisfied,sim_verdict",
            "0.20000000000000001,10,false,error:ImplicitSolveError",
            "0.40000000000000002,10,true,error:ImplicitSolveError",
        ]

    def test_sweep_threads_keep_numpy_quiet(self, tmp_path, monkeypatch):
        # pool threads do not inherit run()'s numpy error state; each cell
        # sets it again, so an overflow in a cell warns nowhere
        monkeypatch.setenv("TVL_THREADS", "2")
        monkeypatch.setattr(cli, "_sweep_cell",
                            lambda scn, values, a, b: (a, b, "", str(np.float64(b) * 1e308)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["sweep", "--scenario", "example1", "--alpha-grid", "0.2,0.4",
                        "--beta-grid", "5,10", "--mode", "prop1",
                        "--out", str(tmp_path / "sweep.csv")])
        assert code == 0
        _, rows = read_csv(tmp_path / "sweep.csv")
        assert [r[3] for r in rows] == ["inf"] * 4

    def test_empty_grid(self, tmp_path, capsys):
        # a grid without values is refused, not answered by a header alone
        out = tmp_path / "empty.csv"
        code = run(["sweep", "--scenario", "example1", "--alpha-grid", "",
                    "--beta-grid", "1,2", "--out", str(out)])
        assert code == 1
        assert "alpha_grid" in json.loads(capsys.readouterr().err)["message"]
        assert not out.exists()

    def test_linspace_grid_syntax(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--scenario", "example1",
                    "--alpha-grid", "0.1:0.5:3", "--beta-grid", "10",
                    "--mode", "prop1", "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert [float(r[0]) for r in rows] == pytest.approx([0.1, 0.3, 0.5])

    def test_non_example1_scenario_rejected(self, capsys):
        # the sweep only knows example1; another scenario is an error, not
        # a silent example1 sweep
        code = run(["sweep", "--scenario", "matrec", "--alpha-grid", "0.4",
                    "--beta-grid", "10", "--mode", "prop1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "usage"
        assert "matrec" in err["message"]

    @pytest.mark.parametrize("command", sorted(READS))
    def test_ignored_flags_rejected(self, command, capsys):
        # every subcommand rejects each flag it does not read instead of
        # dropping it, and its --help lists exactly the flags it reads
        for flag in sorted(set().union(*READS.values()) - READS[command]):
            code = run([command, flag, "1"])
            assert code == 1, flag
            captured = capsys.readouterr()
            assert captured.out == ""
            err = json.loads(captured.err)
            assert err["error"] == "usage"
            assert flag in err["message"]
        with pytest.raises(SystemExit):
            run([command, "--help"])
        listed = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        assert listed == READS[command] | {"--help", "--config"}

    @pytest.mark.parametrize("command, line", [
        pytest.param("sweep", "N=5", id="N=5"),
        pytest.param("sweep", "method=discrete", id="method=discrete"),
        ("simulate", "starts=8"),
        ("flow", "N=5"),
        ("classify", "samples=3"),
        ("prop1", "method=discrete"),
        ("thm3", "x0=1"),
        ("spectrum", "dt=0.1"),
        ("validate", "tol=1e-3"),
    ])
    def test_ignored_config_keys_rejected(self, command, line, tmp_path, capsys):
        # the same holds for keys of a config file
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{CONFIG_BASE[command]}{line}\n")
        code = run([command, "--config", str(cfg)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "usage"
        assert repr(line.split("=")[0]) in err["message"]

    @pytest.mark.parametrize("flag, value, key", [
        ("--tbar-frac", "2", "tbar_frac"),
        ("--dt", "-1", "dt"),
        ("--x0", "-2,5", "x0"),
    ])
    def test_shared_sim_values_refused_before_any_cell(self, flag, value, key,
                                                        no_engine, capsys):
        # every cell would fail on them alike, so they are usage errors
        code = run(["sweep", "--alpha-grid", "0.2,0.4", "--beta-grid", "5,10",
                    flag, value])
        assert code == 1
        assert key in usage_message(capsys)

    def test_prop1_mode_refuses_sim_options(self, tmp_path, no_engine, capsys):
        # prop1 cells simulate nothing, so the options of the simulation are
        # refused, as flags and as config keys, and the error names them all
        grid = ["sweep", "--alpha-grid", "0.4", "--beta-grid", "10", "--mode", "prop1"]
        flags = ["--x0", "-2", "--dt", "1e-3", "--tbar-frac", "0.5", "--starts", "8",
                 "--seed", "3", "--checks", "5"]
        assert run([*grid, *flags]) == 1
        assert usage_message(capsys).endswith(
            "does not read x0, dt, tbar_frac, starts, seed, checks")
        for i in range(0, len(flags), 2):
            assert run([*grid, *flags[i:i + 2]]) == 1
            assert flags[i][2:].replace("-", "_") in usage_message(capsys)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode=prop1\nseed=3\n")
        assert run(["sweep", "--alpha-grid", "0.4", "--beta-grid", "10",
                    "--config", str(cfg)]) == 1
        assert usage_message(capsys).endswith("does not read seed")

    def test_bad_grid_values_stay_cell_errors(self, capsys):
        # a grid value fails its own cells only, in the columns its mode runs
        verdicts = {"non-spurious", "spurious", "unresolved"}
        for mode, bad_row in [("prop1", ["-1", "10", "error:ValueError", ""]),
                              ("sim", ["-1", "10", "", "error:ValueError"]),
                              ("both", ["-1", "10", "error:ValueError", "error:ValueError"])]:
            sim = ["--checks", "2", "--starts", "8"] if mode != "prop1" else []
            code = run(["sweep", "--alpha-grid", "-1,0.4", "--beta-grid", "10",
                        "--mode", mode, *sim])
            assert code == 0
            bad, good = (row.split(",") for row in capsys.readouterr().out.splitlines()[1:])
            assert bad == bad_row
            assert good[:3] == ["0.40000000000000002", "10", "" if mode == "sim" else "true"]
            assert good[3] in (verdicts if mode != "prop1" else {""})

    def test_oversized_grid_rejected(self, capsys):
        code = run(["sweep", "--scenario", "example1",
                    "--alpha-grid", "0:1:101", "--beta-grid", "0:1:101",
                    "--mode", "prop1"])
        assert code == 1


EX1 = ["--scenario", "example1", "--x0", "-2"]
MATREC = ["--scenario", "matrec", "--x0", "1,0,0,0,0,0"]


@pytest.mark.parametrize("argv, cfg, key", [
    # a scenario parameter the selected scenario does not read
    pytest.param(["simulate", *EX1, "--N", "10", "--consistent", "false"], None,
                 "consistent", id="example1-consistent"),
    pytest.param(["thm3", "--scenario", "example1", "--omega", "2"], None, "omega",
                 id="example1-omega"),
    pytest.param(["thm3", "--scenario", "example1", "--lambda", "0.3"], None, "lambda",
                 id="example1-lambda"),
    pytest.param(["classify", *MATREC, "--N", "40", "--checks", "2", "--starts", "2",
                  "--beta", "3"], None, "beta", id="matrec-beta"),
    pytest.param(["validate", "--samples", "5"], "scenario=matrec\nomega=2\n", "omega",
                 id="matrec-omega-config"),
    # counts below one
    pytest.param(["simulate", *EX1, "--N", "0"], None, "N", id="N=0"),
    pytest.param(["spectrum", *MATREC, "--N", "-1"], None, "N", id="N=-1"),
    pytest.param(["classify", *EX1, "--N", "50", "--checks", "0"], None, "checks",
                 id="classify-checks=0"),
    pytest.param(["sweep", "--alpha-grid", "0.2", "--beta-grid", "5", "--mode", "sim",
                  "--checks", "0"], None, "checks", id="sweep-checks=0"),
    # booleans other than 1/true/yes/on and 0/false/no/off
    pytest.param(["simulate", *MATREC, "--N", "10", "--consistent", "ture"], None,
                 "consistent", id="consistent=ture"),
    pytest.param(["classify", *EX1, "--N", "50", "--checks", "2"], "strict=maybe\n",
                 "strict", id="strict=maybe-config"),
    # the tolerance of the reference method given to another method
    pytest.param(["simulate", *EX1, "--N", "10", "--rel-tol", "1e-6"], None, "rel_tol",
                 id="rel-tol-backward-euler"),
    pytest.param(["simulate", *EX1, "--N", "10", "--method", "discrete", "--rel-tol",
                  "1e-6"], None, "rel_tol", id="rel-tol-discrete"),
    # a start vector of the wrong length
    pytest.param(["flow", "--scenario", "example1", "--x0=1,2"], None, "x0",
                 id="flow-x0-length"),
    # values that begin with "-" are read as values, so the error names the
    # option that is wrong, not the one before them
    pytest.param(["classify", *EX1, "--N", "50", "--box", "-5,5", "--checks", "0"], None,
                 "checks", id="box-dash-value"),
    pytest.param(["simulate", "--scenario", "example1", "--x0", "-2,5", "--N", "0"], None,
                 "N", id="x0-dash-vector"),
    pytest.param(["flow", "--scenario", "example1", "--x0", "-1e-3", "--tol", "0"], None,
                 "tol", id="x0-dash-exponent"),
    # an inverted box
    pytest.param(["classify", *EX1, "--N", "50", "--checks", "2", "--box=5,-5"], None,
                 "box", id="box-inverted"),
    # an infinite box, refused before the trajectory is simulated
    pytest.param(["classify", *EX1, "--N", "50", "--checks", "2", "--box=-inf,inf"], None,
                 "box", id="box-infinite"),
    # a finite box whose width overflows, refused in the same way
    pytest.param(["classify", *EX1, "--N", "50", "--checks", "2", "--box=-1e308,1e308"],
                 None, "box", id="box-width-overflow"),
    # grids without a value
    pytest.param(["sweep", "--alpha-grid", "0.4:0.4:0", "--beta-grid", "10"], None,
                 "alpha_grid", id="alpha-grid-linspace-of-none"),
    pytest.param(["sweep", "--alpha-grid", "0.4", "--beta-grid", ","], None,
                 "beta_grid", id="beta-grid-comma"),
    # a radius that is not a positive finite number
    pytest.param(["thm3", "--scenario", "example1", "--R", "inf"], None, "R", id="R=inf"),
    pytest.param(["thm3", "--scenario", "example1", "--R", "nan"], None, "R", id="R=nan"),
])
def test_usage_error_names_the_option(argv, cfg, key, tmp_path, capsys, no_engine):
    if cfg is not None:
        (tmp_path / "run.cfg").write_text(cfg)
        argv = argv + ["--config", str(tmp_path / "run.cfg")]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "usage"
    assert key in err["message"]


@pytest.mark.parametrize("value", ["-0.5", "0", "inf", "nan", "-1"])
@pytest.mark.parametrize("argv", [
    pytest.param(["simulate", *EX1, "--method", "discrete", "--dt"], id="discrete"),
    pytest.param(["simulate", *EX1, "--method", "backward-euler", "--dt"],
                 id="backward-euler"),
    pytest.param(["simulate", *EX1, "--method", "reference", "--rel-tol"], id="reference"),
    pytest.param(["classify", *EX1, "--method", "discrete", "--dt"], id="classify"),
    pytest.param(["sweep", "--alpha-grid", "0.4", "--beta-grid", "10", "--dt"], id="sweep"),
])
def test_step_and_tolerance_must_be_positive_and_finite(argv, value, no_engine, capsys):
    # a step or tolerance of zero, below zero, infinite or NaN is refused
    # with one JSON line before any engine runs
    assert run([*argv, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    err = json.loads(captured.err)
    assert err["error"] == "usage"
    assert err["message"] == (f"invalid value for {argv[-1][2:].replace('-', '_')}: "
                              f"{value!r} (expected a positive finite number)")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("argv, key", [
    pytest.param(["prop1", "--scenario", "example1", "--alpha"], "alpha", id="prop1-alpha"),
    pytest.param(["prop1", "--scenario", "example1", "--beta"], "beta", id="prop1-beta"),
    pytest.param(["simulate", *EX1, "--N", "20", "--alpha"], "alpha", id="simulate-alpha"),
    pytest.param(["simulate", *EX1, "--N", "20", "--beta"], "beta", id="simulate-beta"),
    pytest.param(["simulate", *MATREC, "--N", "5", "--alpha"], "alpha", id="matrec-alpha"),
    pytest.param(["thm3", "--scenario", "damped", "--omega"], "omega", id="thm3-omega"),
    pytest.param(["thm3", "--scenario", "damped", "--lambda"], "lam", id="thm3-lambda"),
    pytest.param(["classify", "--scenario", "damped", "--x0", "-2", "--N", "20", "--beta"],
                 "beta", id="classify-beta"),
])
def test_scenario_parameters_must_be_finite(argv, key, value, no_engine, capsys):
    # a NaN or infinite alpha, beta, omega or lambda is a usage error with
    # one JSON line, before any engine runs
    assert run([*argv, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    err = json.loads(captured.err)
    assert err["error"] == "usage"
    assert key in err["message"] and "finite" in err["message"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv, x0", [
    pytest.param(["flow", "--scenario", "example1"], "{}", id="flow"),
    pytest.param(["simulate", "--scenario", "example1", "--N", "5"], "{}", id="backward-euler"),
    pytest.param(["simulate", "--scenario", "example1", "--N", "5", "--method", "discrete"],
                 "{}", id="discrete"),
    pytest.param(["simulate", "--scenario", "example1", "--N", "5", "--method", "reference"],
                 "{}", id="reference"),
    pytest.param(["spectrum", "--scenario", "example1", "--N", "4"], "{}", id="spectrum"),
    pytest.param(["classify", "--scenario", "damped", "--N", "5", "--checks", "2"], "{}",
                 id="classify"),
    pytest.param(["sweep", "--alpha-grid", "0.4", "--beta-grid", "10", "--mode", "sim"], "{}",
                 id="sweep"),
    pytest.param(["simulate", "--scenario", "matrec", "--N", "5", "--method", "discrete"],
                 "{},0.7,0,0,0,0", id="matrec"),
])
def test_non_finite_start_is_a_usage_error(argv, x0, value, capsys):
    # one usage JSON line naming x0, from every command that takes a start
    assert run([*argv, "--x0=" + x0.format(value)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    err = json.loads(captured.err)
    assert err["error"] == "usage"
    assert "x0 must be finite" in err["message"]


def test_huge_start_keeps_stderr_to_one_line():
    # the field at x0 = 1e300 overflows: numpy's warning is not printed,
    # the one JSON line of the numerical failure is (in a fresh process,
    # where no test harness captures warnings)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "tvland.cli", "flow", "--scenario", "example1",
         "--alpha", "0.4", "--beta", "10", "--x0", "1e300"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 2
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1
    assert json.loads(out.stderr)["error"] == "StiffnessError"


def test_rel_tol_below_scipy_floor_is_one_usage_line():
    # scipy would raise the tolerance to 100 eps and print a warning; the CLI
    # refuses it with its one JSON line instead (in a fresh process, where
    # no test harness captures warnings)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "tvland.cli", "simulate", "--scenario", "example1",
         "--alpha", "0.4", "--beta", "10", "--x0", "-2", "--method", "reference",
         "--rel-tol", "1e-20", "--N", "4"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 1
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1
    err = json.loads(out.stderr)
    assert err["error"] == "usage"
    assert "rel_tol must be finite and at least" in err["message"]


@pytest.mark.parametrize("grid", ["alpha", "beta"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_grid_values_are_cell_errors(grid, value, capsys):
    # the cell of a NaN or infinite grid value reads error:ValueError, and
    # the grid stays sorted, NaN last
    grids = {"alpha": "0.4", "beta": "10"}
    grids[grid] = {"alpha": "0.4,{},0.2", "beta": "10,{},5"}[grid].format(value)
    assert run(["sweep", "--alpha-grid", grids["alpha"], "--beta-grid", grids["beta"],
                "--mode", "prop1"]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    column = 0 if grid == "alpha" else 1
    assert [row[column] for row in rows] == (
        ["0.20000000000000001", "0.40000000000000002", value] if grid == "alpha"
        else ["5", "10", value])
    assert [row[2] for row in rows] == ["false", "true", "error:ValueError"]


@pytest.mark.parametrize("name, beta", [("example1", None), ("example1", 5.0),
                                        ("damped", None), ("damped", 2.5),
                                        ("matrec", None)])
def test_scenario_problems_carry_search_box(name, beta):
    # the box the CLI's catalog multistart samples when no --box is given:
    # +-(beta + 6) on the translated quartics, whose minima move by up to
    # beta, and +-16 on matrec, the only scenario with a symmetry
    scn = cli._SCENARIOS[name]
    prm = scn.params if beta is None else {**scn.params, "beta": beta}
    half = 16.0 if name == "matrec" else prm["beta"] + 6.0
    p = scn.make(prm)
    assert p.search_box == (-half, half)
    assert (p.equivalence is not None) == (name == "matrec")


@pytest.mark.parametrize("argv", [
    pytest.param(["prop1", "--scenario", "matrec"], id="prop1-matrec"),
    pytest.param(["prop1", "--scenario", "damped"], id="prop1-damped"),  # lambda 0.1
    pytest.param(["thm3", "--scenario", "matrec"], id="thm3-matrec"),
    pytest.param(["sweep", "--scenario", "damped", "--alpha-grid", "0.4", "--beta-grid", "10"],
                 id="sweep-damped"),
    pytest.param(["thm3", "--scenario", "example1", "--omega", "2"], id="thm3-example1-omega"),
])
def test_landscape_commands_refuse_other_problems(argv, capsys):
    # prop1 and sweep read f = g(x - beta sin t) from the problem, thm3 any
    # f = g(x - beta e^(-lambda t) sin(omega t)); other problems are refused
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "usage"


@pytest.mark.parametrize("argv", [["prop1"], ["thm3", "--R", "0.7"],
                                  ["simulate", "--x0", "-2", "--N", "50"]],
                         ids=["prop1", "thm3", "simulate"])
def test_undamped_damped_scenario_prints_example1(argv, capsys):
    params = ["--alpha", "0.4", "--beta", "10"]
    assert run([*argv, "--scenario", "example1", *params]) == 0
    example1 = capsys.readouterr().out
    assert run([*argv, "--scenario", "damped", *params, "--lambda", "0", "--omega", "1"]) == 0
    assert capsys.readouterr().out == example1


#: Commands that build example1, each run in about a second at most.
COUNTED_RUNS = {
    "classify": ["classify", "--scenario", "example1", "--alpha", "0.4", "--beta", "10",
                 "--x0", "-2", "--dt", "4e-3", "--checks", "40"],
    "prop1": ["prop1", "--scenario", "example1", "--alpha", "0.4", "--beta", "10"],
    "thm3": ["thm3", "--scenario", "example1", "--alpha", "0.4", "--beta", "10"],
    "sweep": ["sweep", "--alpha-grid", "0.2,0.4", "--beta-grid", "5,10", "--mode", "both",
              "--checks", "20"],
}


@pytest.mark.parametrize("command", list(COUNTED_RUNS))
def test_counting_wrappers_print_the_same_bytes(command, monkeypatch, capsys):
    # example1 with its objective, gradient and Jacobian swapped through
    # replace for plain counting functions, as a call-counting tracer wraps
    # them: the landscape stays while the float forms and the array-safe
    # mark go, and each command prints the same bytes with the same code
    from tvland import problem

    argv = COUNTED_RUNS[command]
    want = (run(argv), *capsys.readouterr())
    make, calls = problem.make_example1, Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    def counting_example1(*args, **kwargs):
        calls["make_example1"] += 1
        p, g = make(*args, **kwargs)
        return p.replace(**{name: counted(name, getattr(p, name))
                            for name in ("objective", "grad_objective", "jacobian")}), g

    monkeypatch.setattr(problem, "make_example1", counting_example1)
    assert (run(argv), *capsys.readouterr()) == want
    assert calls["make_example1"]
    if command in ("classify", "sweep"):  # prop1 and thm3 read only the landscape
        assert calls["objective"] and calls["grad_objective"]


def readme_block(heading: str) -> str:
    """The first code block under a README heading, without its fence lines."""
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split(f"## {heading}\n", 1)[1].split("```")[1]
    return block.split("\n", 1)[1]  # drop the language tag after the fence


def test_readme_command_lines_parse():
    # every documented example is a valid command line of the parser, and
    # every subcommand has one
    lines = readme_block("Command line").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("tvland ")]
    assert sorted(argv[0] for argv in commands) == sorted(cli._COMMANDS)
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_library_example(capsys):
    # the library example runs and prints what its comments say it prints
    code = readme_block("Library example")
    exec(compile(code, "README.md", "exec"), {})
    stated = [line.split("#", 1)[1].strip() for line in code.splitlines()
              if line.startswith("print(")]
    assert stated == ["Verdict.NON_SPURIOUS", "True"]
    assert capsys.readouterr().out.splitlines() == stated


def test_parser_reused_across_runs(monkeypatch, capsys):
    # each run parses with the parser of the run before it: back to back,
    # runs print what they print on a fresh parser (no flag value of a run
    # carries over: the second simulate would then have two grids), and a
    # usage error after them still exits 1
    ex1 = ["--scenario", "example1", "--alpha", "0.2", "--beta", "5"]
    simulate = ["simulate", *ex1, "--x0", "-2", "--method", "discrete"]
    calls = [["prop1", *ex1], [*simulate, "--N", "40"], [*simulate, "--dt", "0.2"]]

    def fresh(argv):
        monkeypatch.setattr(cli, "_parser", None)
        return run(argv), capsys.readouterr()

    alone = [fresh(argv) for argv in calls]
    assert [rc for rc, _ in alone] == [0, 0, 0]
    monkeypatch.setattr(cli, "_parser", None)
    assert [(run(argv), capsys.readouterr()) for argv in calls] == alone
    assert cli._build_parser() is cli._build_parser()
    assert run(["prop1", *ex1, "--N", "40"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "usage"


def test_cli_leaves_scipy_out():
    # scipy takes about half a second to import; only --method reference
    # and thm3 with n >= 2 need it, and none of the calls below reaches either.
    # numpy.ma (about 10 ms) is not needed either
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    matrec = ["--scenario", "matrec", "--alpha", "0.5", "--x0", "1,0,0,0,0,0", "--N", "10"]
    calls = [
        ["classify", "--scenario", "example1", "--alpha", "0.4", "--beta", "10",
         "--x0", "-2", "--N", "200", "--starts", "4", "--checks", "3"],
        ["prop1", "--scenario", "example1", "--alpha", "0.4", "--beta", "10"],
        ["thm3", "--scenario", "example1", "--alpha", "0.4", "--beta", "10"],
        ["simulate", *matrec, "--method", "discrete"],
        ["simulate", *matrec, "--method", "backward-euler"],
        ["spectrum", *matrec],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "import tvland, tvland.cli\n"
        "loaded = lambda: [m for m in sys.modules\n"
        "                  if (m + '.').startswith(('scipy.', 'numpy.ma.'))]\n"
        "print(json.dumps(loaded()))\n"
        f"for argv in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert tvland.cli.run(argv) == 0, argv\n"
        "print(json.dumps(loaded()))\n")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    after_import, after_calls = map(json.loads, out.stdout.splitlines())
    assert after_import == []
    assert after_calls == []
