"""Smoke test of the benchmark at reduced size.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
It checks that each workload runs and passes its output checks, that every
metric declared in ``BENCHMARK.json`` is emitted, that the traced run counts
calls in every layer ``layer_map.json`` says the workload exercises, and that
the output checks flag a deliberately wrong expectation.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)
with open(os.path.join(BENCH, "layer_map.json"), encoding="utf-8") as fh:
    LAYER_MAP = json.load(fh)["layers"]


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"], proc.stderr
    assert res["failed"] == 0
    return res


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics(workload):
    res = _result(workload, 0)
    assert res["attempted"] == workloads.operation_count(workload)
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_layers(workload):
    res = _result(workload, 1)
    metrics = res["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("per_layer")
    for layer, info in LAYER_MAP.items():
        if workload in info["moves"]:
            calls = [metrics[m]["value"] for m in info["metrics"]
                     if m.endswith(".calls")]
            assert sum(calls) > 0, layer
    busy = metrics["cli.sweep.busy_ratio"]["value"]
    assert (busy > 0) == (workload == "sweep-ex1")


def test_layer_map_covers_declared_metrics():
    mapped = [m for info in LAYER_MAP.values() for m in info["metrics"]]
    assert sorted(mapped) == sorted(_declared("per_layer"))
    names = {w["name"] for w in BENCHMARK["workloads"]}
    assert names == set(workloads.WORKLOADS)
    for info in LAYER_MAP.values():
        assert set(info["moves"]) | set(info["flat"]) <= names


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("track-matrec", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


SWEEP_CSV = ("alpha,beta,prop1_satisfied,sim_verdict\n"
             "0.20000000000000001,5,false,spurious\n"
             "0.20000000000000001,10,false,spurious\n"
             "0.40000000000000002,5,false,spurious\n"
             "0.40000000000000002,10,true,non-spurious\n")


def _sweep_result(stdout: str, rc: int = 0) -> list[dict]:
    return [{"op": "sweep", "rc": rc, "stdout": stdout, "stderr": ""}]


def test_checks_flag_a_wrong_expectation():
    ok = workloads.check("sweep-ex1", _sweep_result(SWEEP_CSV))
    assert [why for _, why in ok] == [None] * 4

    wrong = copy.deepcopy(workloads.EXPECTED)
    wrong["sweep"][("0.4", "10")] = ("true", "spurious")
    flagged = [op for op, why in workloads.check("sweep-ex1", _sweep_result(SWEEP_CSV),
                                                expected=wrong) if why]
    assert flagged == ["sweep cell 0.4,10"]

    wrong = copy.deepcopy(workloads.EXPECTED)
    wrong["verdict"]["0.2,5"] = "non-spurious"
    report = {"op": "classify 0.2,5", "rc": 0, "stderr": "",
              "stdout": json.dumps({"schema": 1, "verdict": "spurious"})}
    assert workloads.check("classify-ex1", [report]) == [("classify 0.2,5", None)]
    assert workloads.check("classify-ex1", [report], expected=wrong)[0][1]


def test_checks_flag_failed_cells_and_exit_codes():
    errored = SWEEP_CSV.replace("true,non-spurious", "true,error:StiffnessError")
    flagged = [op for op, why in workloads.check("sweep-ex1", _sweep_result(errored)) if why]
    assert flagged == ["sweep cell 0.4,10"]
    assert all(why for _, why in workloads.check("sweep-ex1", _sweep_result("", rc=2)))
