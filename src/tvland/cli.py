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
import os
import sys
from concurrent.futures import ThreadPoolExecutor

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

_CONFIG_KEYS = {
    "scenario", "alpha", "beta", "omega", "lambda", "R", "x0", "dt", "N",
    "method", "tbar_frac", "seed", "out", "t", "smax", "tol", "consistent",
    "box", "starts", "strict", "samples", "alpha_grid", "beta_grid", "mode",
    "rel_tol", "checks",
}


class UsageError(Exception):
    pass


def _fmt(v: float) -> str:
    """Floats printed with 17 significant digits (binary round-trip exact)."""
    return format(float(v), ".17g")


def _load_config(path: str, command: str) -> dict[str, str]:
    keys = _SWEEP_KEYS if command == "sweep" else _CONFIG_KEYS
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
        cfg_path = self.args.get("config")
        self.cfg = _load_config(cfg_path, self.args["command"]) if cfg_path else {}

    def _raw(self, key: str):
        flag = self.args.get(key.replace("-", "_"))
        if flag is not None:
            return flag
        return self.cfg.get(key)

    def get(self, key: str, default=None, cast=str):
        raw = self._raw(key)
        if raw is None:
            return default
        if isinstance(raw, str):
            try:
                if cast is bool:
                    return raw.lower() in ("1", "true", "yes", "on")
                return cast(raw)
            except ValueError as exc:
                raise UsageError(f"invalid value for {key}: {raw!r}") from exc
        return raw

    def require(self, key: str, cast=str):
        val = self.get(key, None, cast)
        if val is None:
            raise UsageError(f"missing required option: {key}")
        return val

    def vector(self, key: str, default=None) -> np.ndarray | None:
        raw = self._raw(key)
        if raw is None:
            return default
        try:
            return np.array([float(v) for v in str(raw).split(",")])
        except ValueError as exc:
            raise UsageError(f"invalid vector for {key}: {raw!r}") from exc


#: Damping factor of the damped scenario when --lambda is not given; the
#: example1 landscape is undamped (lambda = 0).
DAMPED_LAMBDA = 0.1


def _build_scenario(opt: _Options):
    """Return (problem, scalar_function_or_None) for the selected scenario."""
    scenario = opt.require("scenario")
    alpha = opt.get("alpha", 1.0, float)
    if scenario == "example1":
        beta = opt.get("beta", 10.0, float)
        p, sf = _problem.make_example1(beta, alpha=alpha)
        return p, sf
    if scenario == "matrec":
        consistent = opt.get("consistent", True, bool)
        return _problem.make_matrix_recovery(consistent, alpha=alpha), None
    if scenario == "damped":
        beta = opt.get("beta", 10.0, float)
        omega = opt.get("omega", 1.0, float)
        lam = opt.get("lambda", DAMPED_LAMBDA, float)
        p = _problem.make_damped_sinusoid(
            lambda y: _problem._quartic(y[0]),
            lambda y: np.array([_problem._quartic_d1(y[0])]),
            beta, omega, lam, [1.0],
            hess_g=lambda y: np.array([[_problem._quartic_d2(y[0])]]),
            alpha=alpha)
        return p, None
    raise UsageError(f"unknown scenario {scenario!r} "
                     "(expected example1, matrec, or damped)")


#: Grid resolution when neither dt nor N is configured.
DEFAULT_STEPS = 2000


def _simulate(p, opt: _Options) -> Trajectory:
    method = opt.get("method", "backward-euler")
    x0 = opt.vector("x0")
    if x0 is None:
        raise UsageError("missing required option: x0")
    n = opt.get("N", None, int)
    dt = opt.get("dt", None, float)
    if n is not None and dt is not None:
        raise UsageError("N and dt both set the grid; give only one of them")
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
        rel_tol = opt.get("rel_tol", 1e-9, float)
        return _ode.integrate_reference(p, x0, rel_tol, n_samples=512 if n is None else n)
    raise UsageError(f"unknown method {method!r} "
                     "(expected discrete, backward-euler, or reference)")


def _write_rows(out, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    text = "\n".join(lines) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_trajectory_csv(traj: Trajectory, out) -> None:
    n = traj.states.shape[1]
    header = (["t"] + [f"x{i}" for i in range(n)]
              + ["kkt_stationarity", "feasibility", "sigma_min", "step_norm"])
    rows = []
    for k in range(len(traj)):
        rows.append([float(traj.times[k]), *map(float, traj.states[k]),
                     float(traj.kkt_stationarity[k]), float(traj.feasibility[k]),
                     float(traj.sigma_min[k]), float(traj.step_norm[k])])
    _write_rows(out, header, rows)


def _emit_json(payload: dict, out) -> None:
    payload = {"schema": SCHEMA_VERSION, **payload}
    text = json.dumps(payload) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _jsonable(v):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, float):
        return v if np.isfinite(v) else str(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(float(x)) for x in v]
    return v


def _default_box(p, opt: _Options):
    box = opt.vector("box")
    if box is not None:
        if box.size != 2:
            raise UsageError("box must be 'lo,hi'")
        return (box[0], box[1])
    beta = opt.get("beta", 10.0, float)
    return (-(abs(beta) + 6.0), abs(beta) + 6.0)


def _catalog_builder(p, opt: _Options):
    starts = opt.get("starts", 64, int)
    seed = opt.get("seed", 0, int)
    box = _default_box(p, opt)
    equivalence = None
    if p.name.startswith("matrec"):
        equivalence = _problem.matrix_recovery_sign_flip
    return _classify.tracking_builder(p, box, starts=starts, seed=seed,
                                      equivalence=equivalence)


# --------------------------- subcommands -----------------------------------

def _cmd_simulate(opt: _Options) -> int:
    p, _ = _build_scenario(opt)
    traj = _simulate(p, opt)
    _write_trajectory_csv(traj, opt.get("out"))
    return 0


def _cmd_flow(opt: _Options) -> int:
    p, _ = _build_scenario(opt)
    x0 = opt.vector("x0")
    if x0 is None:
        raise UsageError("missing required option: x0")
    t = opt.get("t", 0.0, float)
    s_max = opt.get("smax", None, float)
    tol = opt.get("tol", 1e-8, float)
    limit, converged = _ode.frozen_time_flow(p, x0, t, s_max=s_max, tol=tol)
    _emit_json({"limit": _jsonable(limit), "converged": converged, "t": t},
               opt.get("out"))
    return 0


def _cmd_classify(opt: _Options) -> int:
    p, _ = _build_scenario(opt)
    traj = _simulate(p, opt)
    tbar_frac = opt.get("tbar_frac", 0.75, float)
    builder = _catalog_builder(p, opt)
    checks = opt.get("checks", 200, int)
    result = _classify.classify_trajectory(p, traj, builder,
                                           tbar_frac * p.horizon,
                                           max_checks=checks)
    payload = {
        "verdict": result.verdict.value,
        "t_bar": tbar_frac * p.horizon,
        "final_state": _jsonable(traj.final_state),
        "checks": [{"t": r.time, "member": r.member, "is_global": r.is_global}
                   for r in result.records],
    }
    _emit_json(payload, opt.get("out"))
    if result.verdict is _classify.Verdict.UNRESOLVED and opt.get("strict", False, bool):
        return 3
    return 0


def _cmd_prop1(opt: _Options) -> int:
    _, sf = _build_scenario(opt)
    if sf is None:
        raise UsageError("prop1 needs a scenario with a scalar landscape (example1)")
    alpha = opt.get("alpha", 1.0, float)
    beta = opt.get("beta", 10.0, float)
    rep = _conditions.prop1_check(sf, alpha, beta)
    payload = {k: _jsonable(getattr(rep, k)) for k in
               ("alpha", "beta", "C", "m1", "m2", "t1", "t2",
                "cond1", "cond2", "cond3", "satisfied")}
    _emit_json(payload, opt.get("out"))
    return 0


def _cmd_thm3(opt: _Options) -> int:
    p, sf = _build_scenario(opt)
    if sf is None and p.name != "damped":
        raise UsageError("thm3 needs the example1 or damped scenario")
    alpha = opt.get("alpha", 1.0, float)
    beta = opt.get("beta", 10.0, float)
    omega = opt.get("omega", 1.0, float)
    lam = opt.get("lambda", DAMPED_LAMBDA if p.name == "damped" else 0.0, float)
    R = opt.get("R", 0.5, float)
    # spurious minima of the shipped quartic landscape
    minima = [np.array([-2.0])]
    rep = _conditions.thm3_check(
        lambda y: _problem._quartic(y[0]),
        lambda y: np.array([_problem._quartic_d1(y[0])]),
        minima, R, alpha, beta, omega, lam,
        seed=opt.get("seed", 0, int))
    payload = {k: _jsonable(getattr(rep, k)) for k in
               ("alpha", "beta", "omega", "lam", "R", "C1", "C2",
                "cond1", "cond2", "necessary_ok", "satisfied")}
    _emit_json(payload, opt.get("out"))
    return 0


def _cmd_spectrum(opt: _Options) -> int:
    p, _ = _build_scenario(opt)
    x0 = opt.vector("x0")
    if x0 is None:
        raise UsageError("missing required option: x0")
    n = opt.get("N", 64, int)
    times = np.linspace(0.0, p.horizon, n + 1)
    ztraj = _spectrum.kkt_track(p, x0, times)
    samples = _spectrum.spectrum_along_trajectory(p, ztraj)
    header = ["t", "max_re", "n_pos", "n_zero", "n_neg"]
    rows = [[s.time, s.max_real, s.report.n_pos, s.report.n_zero, s.report.n_neg]
            for s in samples]
    _write_rows(opt.get("out"), header, rows)
    return 0


def _cmd_validate(opt: _Options) -> int:
    p, _ = _build_scenario(opt)
    samples = opt.get("samples", 100, int)
    seed = opt.get("seed", 0, int)
    rep = _problem.validate_problem(p, samples=samples, seed=seed)
    payload = {f.name: _jsonable(getattr(rep, f.name)) for f in dataclasses.fields(rep)}
    _emit_json(payload, opt.get("out"))
    return 0


def _parse_grid(raw: str) -> list[float]:
    raw = raw.strip()
    if ":" in raw:
        lo, hi, count = raw.split(":")
        return [float(v) for v in np.linspace(float(lo), float(hi), int(count))]
    return [float(v) for v in raw.split(",") if v.strip()]


def _sweep_cell(opt_values: dict, alpha: float, beta: float) -> tuple:
    """One (alpha, beta) cell: prop1 verdict and/or simulated classification."""
    mode = opt_values["mode"]
    prop1_field: object = ""
    verdict_field: object = ""
    try:
        p, sf = _problem.make_example1(beta, alpha=alpha)
    except Exception as exc:
        return (alpha, beta, f"error:{type(exc).__name__}",
                f"error:{type(exc).__name__}")
    if mode in ("prop1", "both"):
        try:
            prop1_field = str(_conditions.prop1_check(sf, alpha, beta).satisfied).lower()
        except Exception as exc:
            prop1_field = f"error:{type(exc).__name__}"
    if mode in ("sim", "both"):
        try:
            traj = _ode.backward_euler_trajectory(p, opt_values["x0"], opt_values["dt"])
            builder = _classify.tracking_builder(
                p, (-(abs(beta) + 6.0), abs(beta) + 6.0),
                starts=opt_values["starts"], seed=opt_values["seed"])
            res = _classify.classify_trajectory(
                p, traj, builder, opt_values["tbar_frac"] * p.horizon,
                max_checks=opt_values["checks"])
            verdict_field = res.verdict.value
        except Exception as exc:
            verdict_field = f"error:{type(exc).__name__}"
    return (alpha, beta, prop1_field, verdict_field)


def _cmd_sweep(opt: _Options) -> int:
    scenario = opt.get("scenario", "example1")
    if scenario != "example1":
        raise UsageError(f"sweep supports only the example1 scenario, got {scenario!r}")
    alphas = sorted(_parse_grid(opt.require("alpha_grid")))
    betas = sorted(_parse_grid(opt.require("beta_grid")))
    if len(alphas) * len(betas) > 10_000:
        raise UsageError("sweep grid exceeds 10000 cells")
    cells = [(a, b) for a in alphas for b in betas]
    opt_values = {
        "mode": opt.get("mode", "both"),
        "x0": opt.vector("x0", np.array([-2.0])),
        "dt": opt.get("dt", 4e-3, float),
        "starts": opt.get("starts", 64, int),
        "seed": opt.get("seed", 0, int),
        "tbar_frac": opt.get("tbar_frac", 0.75, float),
        "checks": opt.get("checks", 200, int),
    }
    if opt_values["mode"] not in ("prop1", "sim", "both"):
        raise UsageError(f"unknown sweep mode {opt_values['mode']!r}")
    workers = int(os.environ.get("TVL_THREADS", "0")) or (os.cpu_count() or 1)
    rows: list = [None] * len(cells)
    if cells:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_sweep_cell, opt_values, a, b) for a, b in cells]
            for i, fut in enumerate(futures):
                rows[i] = fut.result()
    _write_rows(opt.get("out"), ["alpha", "beta", "prop1_satisfied", "sim_verdict"],
                [(float(a), float(b), s, v) for a, b, s, v in rows])
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "flow": _cmd_flow,
    "classify": _cmd_classify,
    "prop1": _cmd_prop1,
    "thm3": _cmd_thm3,
    "spectrum": _cmd_spectrum,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


#: Every flag of the subcommands, with its argparse settings.
_FLAGS = (
    ("--config", {"help": "flat key=value config file"}),
    ("--scenario", {}),
    ("--alpha", {}),
    ("--beta", {}),
    ("--omega", {}),
    ("--lambda", {"dest": "lambda_", "help": "damping factor"}),
    ("--R", {}),
    ("--x0", {"help": "comma-separated start vector"}),
    ("--dt", {}),
    ("--N", {}),
    ("--method", {"help": "discrete | backward-euler | reference"}),
    ("--tbar-frac", {}),
    ("--seed", {}),
    ("--out", {"help": "output path (default stdout)"}),
    ("--t", {}),
    ("--smax", {}),
    ("--tol", {}),
    ("--rel-tol", {}),
    ("--consistent", {}),
    ("--box", {}),
    ("--starts", {}),
    ("--checks", {}),
    ("--samples", {}),
    ("--alpha-grid", {}),
    ("--beta-grid", {}),
    ("--mode", {"help": "sweep mode: prop1 | sim | both"}),
    ("--strict", {"action": "store_const", "const": "true"}),
    ("--json", {"action": "store_true",
                "help": "accepted for symmetry; reports are always JSON"}),
)

#: The flags sweep reads; argparse rejects the others instead of dropping them.
_SWEEP_FLAGS = frozenset({
    "--config", "--scenario", "--x0", "--dt", "--tbar-frac", "--seed", "--out",
    "--starts", "--checks", "--alpha-grid", "--beta-grid", "--mode", "--json",
})
_SWEEP_KEYS = frozenset(k for k in _CONFIG_KEYS if "--" + k.replace("_", "-") in _SWEEP_FLAGS)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tvland", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    specs = {
        "simulate": "integrate a trajectory and write CSV",
        "flow": "run the frozen-time flow from a point",
        "classify": "simulate then classify spurious / non-spurious",
        "prop1": "one-dimensional escape condition report",
        "thm3": "multi-dimensional escape condition report",
        "spectrum": "Jacobian spectrum along a tracked minimizer trajectory",
        "sweep": "grid sweep of prop1 and simulated verdicts",
        "validate": "finite-difference derivative validation",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, kwargs in _FLAGS:
            if name != "sweep" or flag in _SWEEP_FLAGS:
                sp.add_argument(flag, **kwargs)
    return parser


def run(argv) -> int:
    """Execute a CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("missing subcommand")
        # argparse stores --lambda under lambda_
        if hasattr(args, "lambda_"):
            setattr(args, "lambda", args.lambda_)
        opt = _Options(args)
        return _COMMANDS[args.command](opt)
    except UsageError as exc:
        sys.stderr.write(json.dumps({"error": "usage", "message": str(exc)}) + "\n")
        return 1
    except TvlandError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                     "message": str(exc)}) + "\n")
        return 2
    except np.linalg.LinAlgError as exc:
        sys.stderr.write(json.dumps({"error": "LinAlgError",
                                     "message": str(exc)}) + "\n")
        return 2
    except ValueError as exc:
        # argument validation raised by library entry points
        sys.stderr.write(json.dumps({"error": "usage", "message": str(exc)}) + "\n")
        return 1
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": "io", "message": str(exc)}) + "\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
