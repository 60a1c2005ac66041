import json
import os
import re
import shlex
import subprocess
import sys

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
    "prop1": {"--scenario", "--alpha", "--beta", "--out", "--json"},
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
        # every value as _fmt prints it: 17 significant digits, inf and nan
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
            want.append(",".join(cli._fmt(v) for v in values))
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

    def test_empty_grid(self, tmp_path):
        out = tmp_path / "empty.csv"
        code = run(["sweep", "--scenario", "example1", "--alpha-grid", "",
                    "--beta-grid", "1,2", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["alpha", "beta", "prop1_satisfied", "sim_verdict"]
        assert rows == []

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
    # a radius that is not a positive finite number
    pytest.param(["thm3", "--scenario", "example1", "--R", "inf"], None, "R", id="R=inf"),
    pytest.param(["thm3", "--scenario", "example1", "--R", "nan"], None, "R", id="R=nan"),
])
def test_usage_error_names_the_option(argv, cfg, key, tmp_path, capsys):
    if cfg is not None:
        (tmp_path / "run.cfg").write_text(cfg)
        argv = argv + ["--config", str(tmp_path / "run.cfg")]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "usage"
    assert key in err["message"]


def test_readme_command_lines_parse():
    # every documented example is a valid command line of the parser, and
    # every subcommand has one
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("## Command line", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("tvland ")]
    assert sorted(argv[0] for argv in commands) == sorted(cli._COMMANDS)
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv)


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
