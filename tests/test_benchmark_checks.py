"""The benchmark's output checks, on its smoke-size workloads run in process.

``perfbench/workloads.py`` lists the CLI invocations of each benchmark
workload and judges their outputs.  It is read here without being imported
as a package (nothing is written next to it), each invocation runs through
``tvland.cli.run`` as the benchmark's worker runs it, and every check must
pass, so that an output the benchmark would count as incorrect fails here.
"""

import contextlib
import io
import os
import types

import pytest

import tvland as tv
from tvland import cli

_WORKLOADS_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench", "workloads.py")


def _read_workloads() -> types.ModuleType:
    module = types.ModuleType("benchmark_workloads")
    module.__file__ = _WORKLOADS_PY
    with open(_WORKLOADS_PY, encoding="utf-8") as fh:
        exec(compile(fh.read(), _WORKLOADS_PY, "exec"), module.__dict__)
    return module


workloads = _read_workloads()


def _lifted_matrec_start() -> str:
    """The benchmark's matrix-recovery start: the spurious factor at t = 0."""
    p = tv.make_matrix_recovery(True, alpha=float(workloads.MATREC_ALPHA))
    x0 = tv.matrix_recovery_state(p, tv.problem.THE_SPURIOUS_FACTOR, 0.0)
    return ",".join(repr(float(v)) for v in x0)


def _run(label: str, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return {"op": label, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_outputs_pass_the_benchmark_checks(workload, monkeypatch):
    monkeypatch.setenv("TVL_THREADS", str(workloads.SWEEP_WORKERS))
    matrec_x0 = _lifted_matrec_start() if workload == "track-matrec" else None
    ops = workloads.operations(workload, 3, "smoke", matrec_x0)
    results = [_run(label, argv) for label, argv in ops]
    verdicts = workloads.check(workload, results, "smoke")
    assert len(verdicts) == workloads.operation_count(workload)
    assert [problem for _, problem in verdicts if problem is not None] == []
