"""Workload definitions and output checks of the tvland benchmark.

A workload is a fixed list of ``tvland`` CLI invocations.  This module builds
their argument vectors and judges their outputs; it imports only the standard
library, so the parent process can check results without loading tvland.

An *operation* is one CLI invocation, except in ``sweep-ex1`` where each
sweep cell counts as one operation.  An operation fails on a nonzero exit
code, an ``error`` field or cell, or output that differs from the expected
result.
"""

from __future__ import annotations

import csv
import io
import json
import math

WORKLOADS = ("classify-ex1", "track-matrec", "sweep-ex1")

#: Worker threads of the sweep (``TVL_THREADS``).  The benchmark refuses to
#: run when the machine has fewer CPUs than this.
SWEEP_WORKERS = 2

#: The two example1 regimes of acceptance criteria 1 and 2, as (alpha, beta).
REGIMES = (("0.4", "10"), ("0.2", "5"))

#: Matrix-recovery regularization weight of ``track-matrec``.
MATREC_ALPHA = "0.5"

#: Problem sizes.  ``full`` is the benchmark; ``smoke`` is a reduced size for
#: the benchmark's own tests.  A ``None`` entry leaves the CLI default.
SIZES = {
    "full": {"starts": None, "checks": None, "steps": None,
             "sweep_checks": "40"},
    "smoke": {"starts": "8", "checks": "8", "steps": "200",
              "sweep_checks": "8"},
}

#: The CLI's default trajectory grid when neither --N nor --dt is given.
DEFAULT_STEPS = 2000

EXPECTED = {
    "verdict": {"0.4,10": "non-spurious", "0.2,5": "spurious"},
    "prop1_satisfied": {"0.4,10": True, "0.2,5": False},
    # criterion 4: final factor within 0.1 of +-Z(T), objective below 1e-2
    "factor_tol": 0.1,
    "objective_max": 1e-2,
    "spectrum_rows": 65,
    "sweep": {("0.2", "5"): ("false", "spurious"),
              ("0.2", "10"): ("false", "spurious"),
              ("0.4", "5"): ("false", "spurious"),
              ("0.4", "10"): ("true", "non-spurious")},
}


def _flag(argv: list[str], name: str, value) -> list[str]:
    return argv if value is None else argv + [name, value]


def operations(workload: str, seed: int, size: str,
               matrec_x0: str | None = None) -> list[tuple[str, list[str]]]:
    """The workload's CLI invocations as (label, argv) pairs, in run order.

    ``matrec_x0`` is the comma-separated lifted spurious state that
    ``track-matrec`` starts from; the worker computes it during set-up.
    """
    sz = SIZES[size]
    seed_s = str(seed)
    if workload == "classify-ex1":
        ops = []
        for alpha, beta in REGIMES:
            key = f"{alpha},{beta}"
            common = ["--scenario", "example1", "--alpha", alpha, "--beta", beta]
            classify = ["classify", *common, "--x0", "-2", "--dt", "1e-3",
                        "--seed", seed_s]
            classify = _flag(_flag(classify, "--starts", sz["starts"]),
                             "--checks", sz["checks"])
            ops += [(f"classify {key}", classify),
                    (f"prop1 {key}", ["prop1", *common]),
                    (f"thm3 {key}", ["thm3", *common, "--seed", seed_s])]
        return ops
    if workload == "track-matrec":
        if matrec_x0 is None:
            raise ValueError("track-matrec needs the lifted start state")
        ops = []
        for method in ("discrete", "backward-euler"):
            argv = ["simulate", "--scenario", "matrec", "--alpha", MATREC_ALPHA,
                    "--x0", matrec_x0, "--method", method]
            ops.append((f"simulate {method}", _flag(argv, "--N", sz["steps"])))
        ops.append(("spectrum", ["spectrum", "--scenario", "matrec", "--alpha", "1",
                                 "--x0", "1,0,0,0,0,0", "--N", "64"]))
        return ops
    if workload == "sweep-ex1":
        argv = ["sweep", "--alpha-grid", "0.2,0.4", "--beta-grid", "5,10",
                "--mode", "both", "--checks", sz["sweep_checks"], "--seed", seed_s]
        return [("sweep", _flag(argv, "--starts", sz["starts"]))]
    raise ValueError(f"unknown workload {workload!r}")


def operation_count(workload: str) -> int:
    """Operations per repetition of the workload."""
    return {"classify-ex1": 3 * len(REGIMES), "track-matrec": 3,
            "sweep-ex1": len(EXPECTED["sweep"])}[workload]


# ------------------------------ checks -------------------------------------

def _json_report(res: dict) -> dict:
    payload = json.loads(res["stdout"])
    if "error" in payload:
        raise ValueError(f"error field: {payload['error']}")
    return payload


def _csv_rows(res: dict) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(res["stdout"])))
    if not rows:
        raise ValueError("empty CSV")
    return rows[0], rows[1:]


def _finite_floats(row: list[str]) -> list[float]:
    vals = [float(v) for v in row]
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"non-finite value in row {row}")
    return vals


def _check_simulate(res: dict, steps: int, expected: dict) -> None:
    header, rows = _csv_rows(res)
    if header[:7] != ["t", "x0", "x1", "x2", "x3", "x4", "x5"]:
        raise ValueError(f"unexpected header {header}")
    if len(rows) != steps + 1:
        raise ValueError(f"{len(rows)} rows, expected {steps + 1}")
    last = _finite_floats(rows[-1])
    for row in rows[:-1]:
        _finite_floats(row)
    t_end = last[0]
    if abs(t_end - 2.0 * math.pi) > 1e-12:
        raise ValueError(f"final time {t_end}, expected 2 pi")
    # moving target factor Z(t) = (0.8 + 0.2 cos t, 0.2 sin t)
    z = (0.8 + 0.2 * math.cos(t_end), 0.2 * math.sin(t_end))
    x = last[1:3]
    dist = min(math.hypot(x[0] - z[0], x[1] - z[1]),
               math.hypot(x[0] + z[0], x[1] + z[1]))
    objective = sum(v * v for v in last[3:7])
    if dist >= expected["factor_tol"]:
        raise ValueError(f"final factor {dist:.3g} away from +-Z(T)")
    if objective >= expected["objective_max"]:
        raise ValueError(f"final objective {objective:.3g}")


def _check_spectrum(res: dict, expected: dict) -> None:
    header, rows = _csv_rows(res)
    if header != ["t", "max_re", "n_pos", "n_zero", "n_neg"]:
        raise ValueError(f"unexpected header {header}")
    if len(rows) != expected["spectrum_rows"]:
        raise ValueError(f"{len(rows)} rows, expected {expected['spectrum_rows']}")
    for row in rows:
        _finite_floats(row)


def _check_one(label: str, res: dict, size: str, expected: dict) -> None:
    kind, _, key = label.partition(" ")
    if kind == "classify":
        verdict = _json_report(res)["verdict"]
        if verdict != expected["verdict"][key]:
            raise ValueError(f"verdict {verdict}, expected {expected['verdict'][key]}")
    elif kind == "prop1":
        sat = _json_report(res)["satisfied"]
        if sat is not expected["prop1_satisfied"][key]:
            raise ValueError(f"prop1 satisfied {sat}")
    elif kind == "thm3":
        rep = _json_report(res)
        if not isinstance(rep.get("satisfied"), bool):
            raise ValueError("thm3 report lacks a boolean 'satisfied'")
        if not all(isinstance(rep.get(k), float) and math.isfinite(rep[k])
                   for k in ("C1", "C2")):
            raise ValueError("thm3 constants C1, C2 missing or not finite")
    elif kind == "simulate":
        steps = int(SIZES[size]["steps"] or DEFAULT_STEPS)
        _check_simulate(res, steps, expected)
    elif kind == "spectrum":
        _check_spectrum(res, expected)
    else:
        raise ValueError(f"no check for operation {label!r}")


def _check_sweep(res: dict, expected: dict) -> list[tuple[str, str | None]]:
    cells = expected["sweep"]
    got: dict = {}
    problem = None
    try:
        if res["rc"] != 0:
            raise ValueError(f"exit code {res['rc']}: {res['stderr'][-200:]}")
        header, rows = _csv_rows(res)
        if header != ["alpha", "beta", "prop1_satisfied", "sim_verdict"]:
            raise ValueError(f"unexpected header {header}")
        if len(rows) != len(cells):
            raise ValueError(f"{len(rows)} rows, expected {len(cells)}")
        for alpha, beta, sat, verdict in rows:
            got[(float(alpha), float(beta))] = (sat, verdict)
    except ValueError as exc:
        problem = str(exc)
    out = []
    for (alpha, beta), want in cells.items():
        have = got.get((float(alpha), float(beta)))
        if problem is None and have != want:
            problem_here = f"got {have}, expected {want}"
        else:
            problem_here = problem
        out.append((f"sweep cell {alpha},{beta}", problem_here))
    return out


def check(workload: str, results: list[dict], size: str = "full",
          expected: dict = EXPECTED) -> list[tuple[str, str | None]]:
    """Judge one repetition's outputs: (operation, problem or None) pairs.

    ``results`` holds one ``{"op", "rc", "stdout", "stderr"}`` record per CLI
    invocation, in the order of :func:`operations`.
    """
    if workload == "sweep-ex1":
        return _check_sweep(results[0], expected)
    out = []
    for res in results:
        if res["rc"] != 0:
            out.append((res["op"], f"exit code {res['rc']}: {res['stderr'][-200:]}"))
            continue
        try:
            _check_one(res["op"], res, size, expected)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            out.append((res["op"], str(exc) or type(exc).__name__))
        else:
            out.append((res["op"], None))
    return out
