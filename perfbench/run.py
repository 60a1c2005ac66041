"""Benchmark of the tvland CLI: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload classify-ex1 --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``classify-ex1``, ``track-matrec`` and
``sweep-ex1``; ``--workload all`` runs the three in turn.  Each repetition
runs in a fresh interpreter (``worker.py``) that imports tvland from
``src/`` of this checkout and calls the CLI in-process.  Repetitions start
while another one, as long as the last, still ends within ``--seconds``;
every output is checked against the expected result.

``--trace 0`` reports the end-to-end metrics declared in ``BENCHMARK.json``,
as medians over the repetitions: ``wall_s`` (the workload's CLI calls after
set-up), ``setup_s`` (interpreter start to first CLI call) and
``peak_rss_mb``.  Both times are scaled to a reference machine speed by a
calibration kernel timed during the run (see ``worker.py``); the unscaled
times are printed as ``raw_wall_s`` and ``raw_setup_s``.  ``--trace 1`` runs
one untraced repetition and then at least two traced ones, and reports the
per-layer metrics: exact call counts (which must repeat across the traced
repetitions), median self times, the tracing overhead and the untraced CPU
time.  Traced outputs must match the untraced outputs byte for byte.

Human-readable lines come first; the last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  An
operation is one CLI invocation or one sweep cell; ``error_rate`` is
failed / attempted.  ``--smoke`` runs a reduced problem size for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

#: Every run, workers included, ends within this many seconds.
TIME_LIMIT_S = 170.0

#: Traced repetitions per ``--trace 1`` run, at least, so that every traced
#: run checks that call counts repeat exactly.
MIN_TRACED_REPS = 2

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


class Run:
    """Spawns worker repetitions and tallies attempted and failed operations."""

    def __init__(self, args, workload: str, start: float):
        self.args = args
        self.workload = workload
        self.start = start
        self.size = "smoke" if args.smoke else "full"
        self.attempted = 0
        self.failed = 0
        self.consistent = True  # call counts repeat across traced repetitions
        self.last_rep_s = 0.0
        self.env = dict(os.environ, TVL_THREADS=str(workloads.SWEEP_WORKERS))
        old = os.environ.get("PYTHONPATH")
        self.env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")

    def spawn(self, trace: bool, spans_path: str | None = None) -> dict | None:
        """Run and check one repetition; returns the worker's report, or None.

        None means the worker itself failed; every operation then counts as
        failed.  Operations whose output fails its check count one each.
        """
        n_ops = workloads.operation_count(self.workload)
        self.attempted += n_ops
        remaining = TIME_LIMIT_S - (time.monotonic() - self.start)
        spec = {"workload": self.workload, "seed": self.args.seed,
                "size": self.size, "src": SRC, "trace": trace,
                "spans_path": spans_path}
        cmd = [sys.executable, os.path.join(HERE, "worker.py")]
        try:
            spec["spawned"] = time.monotonic()
            proc = subprocess.run(cmd + [json.dumps(spec)], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, remaining))
            self.last_rep_s = time.monotonic() - spec["spawned"]
        except subprocess.TimeoutExpired:
            print(f"repetition stopped after {remaining:.0f} s", file=sys.stderr)
            self.failed += n_ops
            return None
        try:
            report = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            report = None
        if proc.returncode != 0 or report is None:
            print(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}",
                  file=sys.stderr)
            self.failed += n_ops
            return None
        for op, why in workloads.check(self.workload, report["results"], self.size):
            if why is not None:
                print(f"FAILED {op}: {why}", file=sys.stderr)
                self.failed += 1
        return report

    def time_left(self) -> bool:
        """Whether another repetition, as long as the last one, fits in --seconds."""
        elapsed = time.monotonic() - self.start
        return elapsed + self.last_rep_s <= self.args.seconds


def _summary(name: str, values: list[float], unit: str) -> str:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = f"q1 {q1:.6g}  q3 {q3:.6g}  "
    else:
        spread = ""
    return (f"{name:<28} median {statistics.median(values):.6g} {unit}  {spread}"
            f"min {min(values):.6g}  max {max(values):.6g}  n={len(values)}")


def _end_to_end(run: Run) -> dict:
    reps = []
    while run.attempted == 0 or run.time_left():
        rep = run.spawn(trace=False)
        if rep is None:
            break
        reps.append(rep)
    if not reps:
        sys.exit("no repetition completed")
    metrics = {}
    for key, unit in (("wall_s", "s"), ("peak_rss_mb", "MB"), ("raw_wall_s", "s"),
                      ("raw_setup_s", "s")):
        values = [r[key] for r in reps]
        metrics[key] = statistics.median(values)
        print(_summary(key, values, unit))
    slowdown = [v for r in reps for v in r["slowdown"]]
    print(_summary("slowdown", slowdown, "x"))
    # one set-up is too short for the kernel next to it to track the machine's
    # speed, so set-up is scaled by the whole run's median slowdown
    metrics["setup_s"] = metrics["raw_setup_s"] / statistics.median(slowdown)
    print(f"{'setup_s':<28} median {metrics['setup_s']:.6g} s  "
          f"(raw_setup_s / slowdown)  n={len(reps)}")
    return metrics


def _is_count(name: str) -> bool:
    return not (name.endswith(".self_s") or name == "cli.sweep.busy_ratio")


def _per_layer(run: Run) -> dict:
    base = run.spawn(trace=False)
    if base is None:
        sys.exit("untraced repetition failed")
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{run.workload}-seed{run.args.seed}.csv.gz")
    ops_per_call = workloads.operation_count(run.workload) // len(base["results"])
    traced = []
    while len(traced) < MIN_TRACED_REPS or run.time_left():
        rep = run.spawn(trace=True, spans_path=None if traced else spans_path)
        if rep is None:
            sys.exit("traced repetition failed")
        for want, got in zip(base["results"], rep["results"]):
            if (want["rc"], want["stdout"]) != (got["rc"], got["stdout"]):
                print(f"FAILED {got['op']}: traced output differs from untraced",
                      file=sys.stderr)
                run.failed += ops_per_call
        traced.append(rep)

    layers = traced[0]["layers"]
    for name in sorted(layers):
        if _is_count(name) and any(r["layers"][name] != layers[name] for r in traced):
            print(f"count {name} differs across traced repetitions: "
                  f"{[r['layers'][name] for r in traced]}", file=sys.stderr)
            run.consistent = False
    metrics = {name: (layers[name] if _is_count(name)
                      else statistics.median(r["layers"][name] for r in traced))
               for name in layers}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_frac"] = traced_wall / base["wall_s"] - 1.0
    metrics["process.cpu_s"] = base["cpu_s"]
    print(f"untraced wall {base['wall_s']:.6g} s, traced wall median "
          f"{traced_wall:.6g} s over {len(traced)} traced repetitions; spans in {spans_path}")
    for name in sorted(metrics):
        print(f"{name:<48} {metrics[name]:.6g}")
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced problem size, for the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    start = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "tvland", "__init__.py")):
        sys.exit(f"no tvland sources under {SRC}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    nproc = _nproc()
    requested = max(workloads.SWEEP_WORKERS, int(os.environ.get("TVL_THREADS") or 0))
    if requested > nproc:
        sys.exit(f"refusing to run {requested} workers on {nproc} CPUs")

    env = {"python": platform.python_version(), "numpy": _version("numpy"),
           "scipy": _version("scipy"), "nproc": nproc,
           "TVL_THREADS": workloads.SWEEP_WORKERS,
           "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
           "loadavg_before": os.getloadavg()}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    for workload in names:
        print(f"== {workload}  seed {args.seed}  trace {args.trace}  "
              f"size {'smoke' if args.smoke else 'full'}")
        run = Run(args, workload, time.monotonic())
        metrics = (_per_layer if args.trace else _end_to_end)(run)
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        if missing:
            sys.exit(f"declared metrics not measured: {missing}")
        print(f"{'error_rate':<28} {run.failed}/{run.attempted} = "
              f"{run.failed / run.attempted:.6g}")
        runs[workload] = (run, metrics)
    env["loadavg_after"] = os.getloadavg()
    print(json.dumps({"environment": env, "seed": args.seed,
                      "elapsed_s": time.monotonic() - start}))

    # one workload: metrics by their declared names; all: prefixed by workload
    prefix = "{}." if len(names) > 1 else ""
    print(json.dumps({
        "correct": all(r.failed == 0 and r.consistent for r, _ in runs.values()),
        "attempted": sum(r.attempted for r, _ in runs.values()),
        "failed": sum(r.failed for r, _ in runs.values()),
        "metrics": {prefix.format(w) + m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for w, (_, metrics) in runs.items() for m in declared},
    }))


if __name__ == "__main__":
    main()
