"""Command-line front end: simulate, classify, check conditions, sweep.

Configuration comes from an optional flat ``key=value`` file plus flags that
override it.  Outputs are CSV (trajectories, sweeps, spectra) or JSON
reports with a ``schema`` version field.  Exit codes: 0 success, 1 usage
error, 2 numerical failure, 3 unresolved classification under --strict.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from . import classify as _classify
from . import conditions as _conditions
from . import ode as _ode
from . import problem as _problem
from . import spectrum as _spectrum
from .discrete import discrete_trajectory
from .errors import TvlandError
from .problem import Trajectory

SCHEMA_VERSION = 1


class UsageError(ValueError):
    """A bad command line or config file (exit 1, like the library's ValueError)."""


# ------------------------------ option keys ---------------------------------

def _boolean(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected 1, true, yes, on, 0, false, no or off")


def _count(raw: str) -> int:
    n = int(raw)
    if n < 1:
        raise ValueError("expected a positive integer")
    return n


def _positive(raw: str) -> float:
    v = float(raw)
    if not 0.0 < v < np.inf:
        raise ValueError("expected a positive finite number")
    return v


def _vector(raw: str) -> np.ndarray:
    return np.array([float(v) for v in raw.split(",")])


def _box(raw: str) -> tuple:
    box = _vector(raw)
    # the width in Python floats, whose overflow gives inf without a numpy warning
    if box.size != 2 or not (box[0] < box[1] and math.isfinite(float(box[1]) - float(box[0]))):
        raise ValueError("expected lo,hi with lo < hi and a finite width hi - lo")
    return (box[0], box[1])


def _grid(raw: str) -> list[float]:
    """Sorted grid values from ``lo:hi:count`` (a linspace) or a comma list, NaN last."""
    raw = raw.strip()
    if ":" in raw:
        lo, hi, count = raw.split(":")
        values = np.linspace(float(lo), float(hi), int(count))
    else:
        values = [float(v) for v in raw.split(",") if v.strip()]
    if len(values) == 0:
        raise ValueError("expected at least one value")
    return np.sort(values, kind="stable").tolist()


#: How the text of each option key is read; the other keys are strings.
_CASTS = {
    **dict.fromkeys(("alpha", "beta", "omega", "lambda", "R", "tbar_frac", "t", "smax",
                     "tol"), float),
    **dict.fromkeys(("dt", "rel_tol"), _positive),
    **dict.fromkeys(("N", "starts", "checks", "samples"), _count),
    **dict.fromkeys(("consistent", "strict"), _boolean),
    **dict.fromkeys(("alpha_grid", "beta_grid"), _grid),
    "x0": _vector, "box": _box, "seed": int,
}

#: argparse settings besides the flag, which is ``--`` plus the key with
#: ``-`` for ``_``.
_FLAG_SETTINGS = {
    "lambda": {"help": "damping factor"},
    "x0": {"help": "comma-separated start vector"},
    "method": {"help": "discrete | backward-euler | reference"},
    "rel_tol": {"help": "tolerance of --method reference"},
    "mode": {"help": "sweep mode: prop1 | sim | both"},
    "out": {"help": "output path (default stdout)"},
    "strict": {"action": "store_const", "const": "true"},
    "json": {"action": "store_true", "help": "accepted for symmetry; reports are always JSON"},
}


def _load_config(path: str, command: str) -> dict[str, str]:
    keys = set(_COMMANDS[command][2]) - {"json"}  # --json is a flag only
    cfg = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in keys:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r} for {command}")
            cfg[key] = value.strip()
    return cfg


class _Options:
    """Layered option lookup: CLI flag, then config file, then default."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.command = self.args["command"]
        cfg_path = self.args.get("config")
        self.cfg = _load_config(cfg_path, self.command) if cfg_path else {}

    def _raw(self, key: str):
        flag = self.args.get(key)
        return self.cfg.get(key) if flag is None else flag

    def get(self, key: str, default=None):
        raw = self._raw(key)
        if raw is None:
            return default
        if not isinstance(raw, str):
            return raw
        try:
            return _CASTS.get(key, str)(raw)
        except ValueError as exc:
            raise UsageError(f"invalid value for {key}: {raw!r} ({exc})") from exc

    def require(self, key: str):
        val = self.get(key)
        if val is None:
            raise UsageError(f"missing required option: {key}")
        return val


# ------------------------------- scenarios ----------------------------------

@dataclasses.dataclass(frozen=True)
class _Scenario:
    """A shipped scenario: its parameter defaults and what the CLI builds from them."""

    params: dict
    make: Callable


_SCENARIOS = {
    "example1": _Scenario(
        params={"alpha": 1.0, "beta": 10.0},
        make=lambda prm: _problem.make_example1(prm["beta"], alpha=prm["alpha"])[0]),
    "matrec": _Scenario(
        params={"alpha": 1.0, "consistent": True},
        make=lambda prm: _problem.make_matrix_recovery(prm["consistent"], alpha=prm["alpha"])),
    "damped": _Scenario(
        params={"alpha": 1.0, "beta": 10.0, "omega": 1.0, "lambda": 0.1},
        make=lambda prm: _problem._translated_quartic(prm["beta"], prm["alpha"], prm["omega"],
                                                      prm["lambda"], "damped")),
}

#: The parameter keys of all scenarios.
_SCENARIO_PARAMS = tuple(dict.fromkeys(k for s in _SCENARIOS.values() for k in s.params))


def _scenario(opt: _Options, default: str | None = None):
    """The problem the selected scenario builds, and the scenario."""
    name = opt.require("scenario") if default is None else opt.get("scenario", default)
    scn = _SCENARIOS.get(name)
    if scn is None:
        raise UsageError(f"unknown scenario {name!r} (expected {', '.join(_SCENARIOS)})")
    unread = [k for k in _SCENARIO_PARAMS if k not in scn.params and opt.get(k) is not None]
    if unread:
        raise UsageError(f"scenario {name!r} does not read {', '.join(unread)}")
    return scn.make({k: opt.get(k, d) for k, d in scn.params.items()}), scn


def _landscape(p, command: str, undamped: bool = False) -> _problem.Landscape:
    """The landscape of ``p``; ``undamped`` (prop1, sweep) also needs omega 1 and lambda 0."""
    ls = p.landscape
    if ls is None or undamped and (ls.omega, ls.lam) != (1.0, 0.0):
        form = "beta sin t" if undamped else "beta e^(-lambda t) sin(omega t)"
        raise UsageError(f"{command} needs f(x, t) = g(x - {form}), not {p.name!r} as given")
    return ls


#: Grid resolution when neither dt nor N is configured.
DEFAULT_STEPS = 2000


def _simulate(p, opt: _Options) -> Trajectory:
    method = opt.get("method", "backward-euler")
    x0 = opt.require("x0")
    n = opt.get("N")
    dt = opt.get("dt")
    if n is not None and dt is not None:
        raise UsageError("N and dt both set the grid; give only one of them")
    rel_tol = opt.get("rel_tol")
    if rel_tol is not None and method != "reference":
        raise UsageError("rel_tol is a tolerance of the reference method only")
    if method == "discrete":
        if n is None:
            n = DEFAULT_STEPS if dt is None else max(1, round(p.horizon / dt))
        return discrete_trajectory(p, x0, n)
    if method == "backward-euler":
        if dt is None:
            dt = p.horizon / (DEFAULT_STEPS if n is None else n)
        return _ode.backward_euler_trajectory(p, x0, dt)
    if method == "reference":
        if dt is not None:
            raise UsageError("the reference method is adaptive; it takes N "
                             "(output samples), not dt")
        return _ode.integrate_reference(
            p, x0, _ode.REFERENCE_REL_TOL if rel_tol is None else rel_tol,
            n_samples=512 if n is None else n)
    raise UsageError(f"unknown method {method!r} "
                     "(expected discrete, backward-euler, or reference)")


def _write(text: str, out) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_rows(out, header: list[str], rows: list) -> None:
    """A CSV of ``rows``, at least one, with floats in 17 significant digits.

    Each column is printed as its first-row value asks: ``%.17g`` (binary
    round-trip exact) for a float, ``%s`` for anything else.
    """
    row = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0])
    _write("\n".join([",".join(header), *(row % tuple(r) for r in rows)]) + "\n", out)


def _write_trajectory_csv(traj: Trajectory, out) -> None:
    n = traj.states.shape[1]
    header = (["t"] + [f"x{i}" for i in range(n)]
              + ["kkt_stationarity", "feasibility", "sigma_min", "step_norm"])
    table = np.column_stack([traj.times, traj.states, traj.kkt_stationarity,
                             traj.feasibility, traj.sigma_min, traj.step_norm])
    _write_rows(out, header, table.tolist())


def _emit_json(payload: dict, out) -> None:
    _write(json.dumps({"schema": SCHEMA_VERSION, **payload}) + "\n", out)


def _emit_report(rep, out) -> None:
    """Every field of a report dataclass, in declaration order, as JSON."""
    _emit_json({f.name: _jsonable(getattr(rep, f.name)) for f in dataclasses.fields(rep)},
               out)


def _jsonable(v):
    if isinstance(v, float):
        return v if np.isfinite(v) else str(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(float(x)) for x in v]
    return v


# --------------------------- subcommands -----------------------------------

def _cmd_simulate(opt: _Options) -> int:
    traj = _simulate(_scenario(opt)[0], opt)
    _write_trajectory_csv(traj, opt.get("out"))
    return 0


def _cmd_flow(opt: _Options) -> int:
    p = _scenario(opt)[0]
    x0 = opt.require("x0")
    t = opt.get("t", 0.0)
    if not np.isfinite(t):
        raise UsageError(f"t must be finite, got {t}")
    limit, converged = _ode.frozen_time_flow(p, x0, t, s_max=opt.get("smax"),
                                             tol=opt.get("tol", _ode._FLOW_TOL))
    _emit_json({"limit": _jsonable(limit), "converged": converged, "t": t},
               opt.get("out"))
    return 0


def _classifier(opt: _Options) -> Callable:
    """The classification run of ``classify`` and ``sweep``: ``classify(p, traj, catalog)``.

    ``catalog`` is passed to :func:`~tvland.classify.tracking_builder`.

    Its options are read with their defaults here, so that a bad value is
    refused before any trajectory is simulated.
    """
    tbar_frac = opt.get("tbar_frac", 0.75)
    if not 0.0 <= tbar_frac < 1.0:
        raise UsageError(f"tbar_frac must lie in [0, 1), got {tbar_frac}")
    box = opt.get("box")
    starts = opt.get("starts", 64)
    seed = opt.get("seed", 0)
    checks = opt.get("checks", 200)

    def classify(p, traj: Trajectory, catalog=None) -> _classify.ClassificationResult:
        builder = _classify.tracking_builder(p, p.search_box if box is None else box,
                                             starts=starts, seed=seed, catalog=catalog)
        return _classify.classify_trajectory(p, traj, builder, tbar_frac * p.horizon,
                                             max_checks=checks)

    return classify


def _cmd_classify(opt: _Options) -> int:
    p = _scenario(opt)[0]
    strict = opt.get("strict", False)
    classify = _classifier(opt)
    traj = _simulate(p, opt)
    result = classify(p, traj)
    payload = {
        "verdict": result.verdict.value,
        "t_bar": result.t_bar,
        "final_state": _jsonable(traj.final_state),
        "checks": [{"t": r.time, "member": r.member, "is_global": r.is_global}
                   for r in result.records],
    }
    _emit_json(payload, opt.get("out"))
    if result.verdict is _classify.Verdict.UNRESOLVED and strict:
        return 3
    return 0


def _cmd_prop1(opt: _Options) -> int:
    p = _scenario(opt)[0]
    ls = _landscape(p, "prop1", undamped=True)
    rep = _conditions.prop1_check(ls.g, p.alpha, ls.beta)
    _emit_report(rep, opt.get("out"))
    return 0


def _cmd_thm3(opt: _Options) -> int:
    p = _scenario(opt)[0]
    ls = _landscape(p, "thm3")
    rep = _conditions.thm3_check(
        _conditions.line_form(ls.g)[1], [np.array([ls.g.y1])], opt.get("R", 0.5),
        p.alpha, ls.beta, ls.omega, ls.lam, seed=opt.get("seed", 0))
    _emit_report(rep, opt.get("out"))
    return 0


def _cmd_spectrum(opt: _Options) -> int:
    p = _scenario(opt)[0]
    x0 = opt.require("x0")
    times = np.linspace(0.0, p.horizon, opt.get("N", 64) + 1)
    ztraj = _spectrum.kkt_track(p, x0, times)
    samples = _spectrum.spectrum_along_trajectory(p, ztraj)
    header = ["t", "max_re", "n_pos", "n_zero", "n_neg"]
    rows = [[s.time, s.max_real, s.report.n_pos, s.report.n_zero, s.report.n_neg]
            for s in samples]
    _write_rows(opt.get("out"), header, rows)
    return 0


def _cmd_validate(opt: _Options) -> int:
    rep = _problem.validate_problem(_scenario(opt)[0], samples=opt.get("samples", 100),
                                    seed=opt.get("seed", 0))
    _emit_report(rep, opt.get("out"))
    return 0


def _sweep_cell(scn: _Scenario, values: dict, alpha: float, beta: float) -> tuple:
    """One (alpha, beta) cell: prop1 verdict and/or simulated classification."""
    mode = values["mode"]
    prop1_field: object = ""
    verdict_field: object = ""
    prm = {**scn.params, "alpha": alpha, "beta": beta}
    try:
        p = scn.make(prm)
    except Exception as exc:
        error = f"error:{type(exc).__name__}"
        return (alpha, beta, error if mode != "sim" else "", error if mode != "prop1" else "")
    if mode in ("prop1", "both"):
        try:
            prop1_field = str(_conditions.prop1_check(p.landscape.g, alpha,
                                                      beta).satisfied).lower()
        except Exception as exc:
            prop1_field = f"error:{type(exc).__name__}"
    if mode in ("sim", "both"):
        verdict_field = values["catalog_error"]
        if not verdict_field:
            try:
                traj = _ode.backward_euler_trajectory(p, values["x0"], values["dt"])
                verdict_field = values["classify"](p, traj, values["catalog"]).verdict.value
            except Exception as exc:
                verdict_field = f"error:{type(exc).__name__}"
    return (alpha, beta, prop1_field, verdict_field)


def _cmd_sweep(opt: _Options) -> int:
    p, scn = _scenario(opt, default="example1")
    ls = _landscape(p, "sweep", undamped=True)
    alphas = opt.require("alpha_grid")
    betas = opt.require("beta_grid")
    if len(alphas) * len(betas) > 10_000:
        raise UsageError("sweep grid exceeds 10000 cells")
    cells = [(a, b) for a in alphas for b in betas]
    mode = opt.get("mode", "both")
    if mode not in ("prop1", "sim", "both"):
        raise UsageError(f"unknown sweep mode {mode!r}")
    if mode == "prop1":
        unread = [k for k in _SWEEP_SIM_KEYS if opt._raw(k) is not None]
        if unread:
            raise UsageError(f"sweep --mode prop1 does not read {', '.join(unread)}")
    # the start and the step are the same for every cell: refuse them here
    x0 = _problem.start_vector(p, opt.get("x0", np.array([ls.g.y1])))
    values = {"mode": mode, "x0": x0, "dt": opt.get("dt", 4e-3),
              "classify": _classifier(opt), "catalog": None, "catalog_error": ""}
    if mode != "prop1":
        # every cell's shift has s(0) = 0, so f(., 0) = g in every cell: one
        # multistart of g at t = 0 serves them all, each translating it
        try:
            values["catalog"] = _classify.build_catalog(
                p, 0.0, opt.get("starts", 64), opt.get("seed", 0), p.search_box)
        except Exception as exc:
            values["catalog_error"] = f"error:{type(exc).__name__}"
    # one worker unless asked: the interpreter lock runs one cell at a time,
    # and a second worker only adds switching
    workers = int(os.environ.get("TVL_THREADS", "0")) or 1

    def sweep_cell(cell):
        with np.errstate(all="ignore"):  # a pool thread starts without run()'s errstate
            return _sweep_cell(scn, values, *cell)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = list(pool.map(sweep_cell, cells))
    _write_rows(opt.get("out"), ["alpha", "beta", "prop1_satisfied", "sim_verdict"],
                [(float(a), float(b), s, v) for a, b, s, v in rows])
    return 0


_SCENARIO_KEYS = ("scenario", *_SCENARIO_PARAMS)
#: The sweep keys that only the simulated classification reads.
_SWEEP_SIM_KEYS = ("x0", "dt", "tbar_frac", "starts", "seed", "checks")
_GRID_KEYS = ("x0", "method", "N", "dt", "rel_tol")

#: Each subcommand: its function, its help line and the option keys it
#: reads, as flags and as config-file keys.  argparse and the config reader
#: reject every other key.
_COMMANDS = {
    "simulate": (_cmd_simulate, "integrate a trajectory and write CSV",
                 (*_SCENARIO_KEYS, *_GRID_KEYS, "out")),
    "flow": (_cmd_flow, "run the frozen-time flow from a point",
             (*_SCENARIO_KEYS, "x0", "t", "smax", "tol", "out", "json")),
    "classify": (_cmd_classify, "simulate then classify spurious / non-spurious",
                 (*_SCENARIO_KEYS, *_GRID_KEYS, "tbar_frac", "box", "starts", "seed",
                  "checks", "strict", "out", "json")),
    "prop1": (_cmd_prop1, "one-dimensional escape condition report",
              ("scenario", "alpha", "beta", "omega", "lambda", "out", "json")),
    "thm3": (_cmd_thm3, "multi-dimensional escape condition report",
             ("scenario", "alpha", "beta", "omega", "lambda", "R", "seed", "out", "json")),
    "spectrum": (_cmd_spectrum, "Jacobian spectrum along a tracked minimizer trajectory",
                 (*_SCENARIO_KEYS, "x0", "N", "out")),
    "sweep": (_cmd_sweep, "grid sweep of prop1 and simulated verdicts",
              ("scenario", "alpha_grid", "beta_grid", "mode", *_SWEEP_SIM_KEYS, "out")),
    "validate": (_cmd_validate, "finite-difference derivative validation",
                 (*_SCENARIO_KEYS, "samples", "seed", "out", "json")),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def _parse_optional(self, arg_string):
        # no flag looks like a number, so "-" then a digit or "." starts a
        # value (--box -5,5), never a flag
        if re.match(r"-[\d.]", arg_string):
            return None
        return super()._parse_optional(arg_string)


_parser: _Parser | None = None  # built on the first run, then reused


def _build_parser() -> _Parser:
    """The CLI's parser, built once per process (parsing leaves it unchanged)."""
    global _parser
    if _parser is not None:
        return _parser
    parser = _Parser(prog="tvland", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys) in _COMMANDS.items():
        # no abbreviations: an unread flag such as --t must not pass as a
        # prefix of a read one (--tbar-frac)
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        sp.add_argument("--config", help="flat key=value config file")
        for key in keys:
            sp.add_argument("--" + key.replace("_", "-"), **_FLAG_SETTINGS.get(key, {}))
    _parser = parser
    return parser


def run(argv) -> int:
    """Execute a CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # stderr carries only the one JSON error line: a numerical failure
        # shows as an exception, not as numpy's floating-point warnings
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command][0](_Options(args))
    except (TvlandError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                     "message": str(exc)}) + "\n")
        return 2
    except ValueError as exc:
        # usage errors, and argument validation raised by library entry points
        sys.stderr.write(json.dumps({"error": "usage", "message": str(exc)}) + "\n")
        return 1
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": "io", "message": str(exc)}) + "\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
