"""One repetition of a benchmark workload, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py '<json spec>'`` with the keys
``workload``, ``seed``, ``size``, ``src`` (the tvland source directory this
run must import), ``spawned`` (``time.monotonic()`` just before the parent
started this process), ``trace`` and ``spans_path`` (where a traced run
writes its spans, or null).

Set-up is the time from ``spawned`` until the first CLI call can run: the
interpreter start, ``import tvland`` and the scenario construction the
invocations need.  The CLI calls then run in this process through
``tvland.cli.run`` with stdout and stderr captured.  The last stdout line is
one JSON object with the timings, the captured outputs and, when traced,
the per-layer metrics.

The machine this runs on changes speed by up to a quarter over seconds to
minutes, as other tenants come and go.  So a fixed calibration kernel (small
numpy solves in an interpreter loop, the kind of work tvland does) is timed
right after set-up and after every CLI call, and reported as a slowdown: its
time over ``REFERENCE_CALIBRATION_S``.  ``wall_s`` divides each call's time
by the mean slowdown around it and sums; ``raw_wall_s`` is the plain sum.
Set-up is reported raw and scaled by the parent, with the median slowdown of
the whole run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import workloads

CALIBRATION_ITERATIONS = 12_000
REFERENCE_CALIBRATION_S = 0.1


def _calibrate() -> float:
    """Seconds the fixed calibration kernel takes now."""
    import numpy as np

    a = np.arange(24.0).reshape(4, 6) / 24.0
    m = a @ a.T + np.eye(4)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CALIBRATION_ITERATIONS):
        x = np.linalg.solve(m, a[:, i % 6])
        acc += float(x @ x)
    return time.perf_counter() - t0


def _lifted_matrec_start() -> str:
    """The spurious factor lifted to a feasible matrix-recovery state at t = 0."""
    from tvland import problem

    p = problem.make_matrix_recovery(True, alpha=float(workloads.MATREC_ALPHA))
    x0 = problem.matrix_recovery_state(p, problem.THE_SPURIOUS_FACTOR, 0.0)
    return ",".join(repr(float(v)) for v in x0)


def _run_op(cli, label: str, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(argv)
        except Exception:  # an escaped exception fails this operation only
            traceback.print_exc()
            rc = -1
    return {"op": label, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> None:
    spec = json.loads(sys.argv[1])
    import tvland
    from tvland import cli

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(tvland.__file__).startswith(src + os.sep):
        sys.exit(f"imported tvland from {tvland.__file__}, not from {src}")
    matrec_x0 = _lifted_matrec_start() if spec["workload"] == "track-matrec" else None
    ops = workloads.operations(spec["workload"], spec["seed"], spec["size"], matrec_x0)
    setup_s = time.monotonic() - spec["spawned"]

    tracer = None
    if spec["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    slowdown = [_calibrate() / REFERENCE_CALIBRATION_S]
    results, raw_wall_s, wall_s, cpu_s = [], 0.0, 0.0, 0.0
    for label, argv in ops:
        cpu0 = os.times()
        t0 = time.perf_counter()
        results.append(_run_op(cli, label, argv))
        dt = time.perf_counter() - t0
        cpu1 = os.times()
        slowdown.append(_calibrate() / REFERENCE_CALIBRATION_S)
        raw_wall_s += dt
        wall_s += dt / (0.5 * sum(slowdown[-2:]))
        cpu_s += sum(cpu1[:4]) - sum(cpu0[:4])

    report = {
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "raw_setup_s": setup_s,
        "slowdown": slowdown,
        "cpu_s": cpu_s,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0,
        "results": results,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics(workers=int(os.environ.get("TVL_THREADS", "1")))
        if spec["spans_path"]:
            tracer.write_spans(spec["spans_path"])
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
