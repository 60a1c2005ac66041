"""Per-layer spans and call counts for tvland, installed from outside it.

:class:`Tracer` replaces the listed public functions of each ``tvland``
module at every module binding the package calls them through (``classify``
imports ``frozen_time_flow`` by name, so both ``tvland.ode`` and
``tvland.classify`` are rebound).  Each wrapped call records a span: name,
start, end and the span that caused it.  Spans stay in memory and are
aggregated, and optionally written out, when the run ends.

A span's parent is the innermost open span of its own thread.  A span that
opens on a thread with no open span (a sweep cell on a pool thread) takes
the innermost open span of the thread that installed the tracer as parent,
since that thread submitted the work.  Self time is a span's duration minus
the part of it that its children cover; children on several threads may
overlap, so the covered part is the union of their intervals.

The callables of every ``ProblemDef`` a scenario constructor returns are
wrapped too, with plain call counters (they are called far too often for
spans).  Counters use ``itertools.count``, whose increment the interpreter
lock makes atomic, so counts stay exact when sweep cells run on threads.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import sys
import threading
import time

#: Functions traced with spans, per tvland module.
SPANNED = {
    "geometry": ("geometry", "ode_rhs", "kkt_residual", "trajectory_with_diagnostics"),
    "discrete": ("discrete_trajectory", "regularized_step"),
    "ode": ("backward_euler_trajectory", "frozen_time_flow", "solve_ivp"),
    "classify": ("classify_trajectory", "build_catalog", "attraction_membership"),
    "conditions": ("prop1_check", "thm3_check"),
    "spectrum": ("kkt_refine", "tangent_hessian_eigenvalues",
                 "spectrum_along_trajectory"),
    "cli": ("run",),
}

#: Catalog-builder factories; the builders they return are traced as
#: ``classify.builder``.
BUILDER_FACTORIES = ("tracking_builder", "multistart_builder")

#: Scenario constructors whose problems get counted callables.
SCENARIOS = ("make_example1", "make_matrix_recovery", "make_damped_sinusoid")
COUNTED_CALLABLES = ("objective", "grad_objective", "jacobian")

#: Outcome counters: span name -> (counter suffix, predicate on the result).
OUTCOMES = {
    "ode.frozen_time_flow": ("not_converged", lambda r: not r[1]),
    "classify.attraction_membership": ("unresolved", lambda r: r is None),
}


def _rebind(orig, replacement) -> None:
    """Point every tvland module attribute bound to ``orig`` at ``replacement``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "tvland" or name.startswith("tvland.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, replacement)


def _covered_ns(lo: int, hi: int, intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Installs span and counter wrappers into the imported tvland package."""

    def __init__(self):
        self._index: dict[str, int] = {}
        # (name index, span id, parent id, start ns, end ns, thread ident)
        self._spans: list[tuple[int, int, int, int, int, int]] = []
        self._ids = itertools.count(1).__next__
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._counters: dict[str, itertools.count] = {}

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap the traced functions; call from the thread that runs the CLI."""
        import tvland  # noqa: F401  (loads every submodule)

        self._local.stack = self._main_stack
        for module, names in SPANNED.items():
            mod = sys.modules[f"tvland.{module}"]
            for fn in names:
                orig = getattr(mod, fn)
                _rebind(orig, self._span(f"{module}.{fn}", orig))
        classify = sys.modules["tvland.classify"]
        for fn in BUILDER_FACTORIES:
            orig = getattr(classify, fn)
            _rebind(orig, self._builder_factory(orig))
        problem = sys.modules["tvland.problem"]
        for fn in SCENARIOS:
            orig = getattr(problem, fn)
            _rebind(orig, self._scenario(orig))

    def _counter(self, name: str):
        return self._counters.setdefault(name, itertools.count()).__next__

    def _span(self, name: str, fn):
        # builders are created on pool threads; setdefault keeps one index
        idx = self._index.setdefault(name, len(self._index))
        local, ids, record = self._local, self._ids, self._spans.append
        main_stack, clock, ident = self._main_stack, time.perf_counter_ns, threading.get_ident
        outcome = OUTCOMES.get(name)
        if outcome is not None:
            bump, predicate = self._counter(f"{name}.{outcome[0]}"), outcome[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = main_stack[-1]
                except IndexError:
                    parent = 0
            sid = ids()
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                record((idx, sid, parent, t0, t1, ident()))
            if outcome is not None and predicate(result):
                bump()
            return result

        return wrapper

    def _builder_factory(self, factory):
        self._index.setdefault("classify.builder", len(self._index))  # report 0 calls too

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return self._span("classify.builder", factory(*args, **kwargs))

        return wrapper

    def _scenario(self, make):
        from tvland.problem import ProblemDef

        counters = {c: self._counter(f"problem.{c}.calls") for c in COUNTED_CALLABLES}

        def counted(fn, bump):
            def call(*args):
                bump()
                return fn(*args)
            return call

        def wrap(p):
            return p.replace(**{c: counted(getattr(p, c), counters[c])
                                for c in COUNTED_CALLABLES})

        @functools.wraps(make)
        def wrapper(*args, **kwargs):
            out = make(*args, **kwargs)
            if isinstance(out, ProblemDef):
                return wrap(out)
            return (wrap(out[0]), *out[1:])

        return wrapper

    # ------------------------------------------------------------ results

    def metrics(self, workers: int = 1) -> dict[str, float]:
        """Per-name ``.calls`` and ``.self_s``, counters and ``cli.sweep.busy_ratio``.

        The busy ratio is the time of spans on pool threads whose parent is
        a ``cli.run`` span on the installing thread, divided by that span's
        duration times ``workers``; it is 0 when no run used the pool.
        """
        spans = list(self._spans)
        by_id = {s[1]: s for s in spans}
        children: dict[int, list[tuple[int, int]]] = {}
        for s in spans:
            children.setdefault(s[2], []).append((s[3], s[4]))
        names = {idx: name for name, idx in self._index.items()}
        calls = dict.fromkeys(names, 0)
        self_ns = dict.fromkeys(names, 0)
        for idx, sid, _, t0, t1, _ in spans:
            calls[idx] += 1
            self_ns[idx] += (t1 - t0) - _covered_ns(t0, t1, children.get(sid, []))
        out: dict[str, float] = {}
        for idx, name in names.items():
            out[f"{name}.calls"] = calls[idx]
            out[f"{name}.self_s"] = self_ns[idx] * 1e-9
        for name, counter in self._counters.items():
            # repr is "count(k)", where k is the number of increments so far
            out[name] = int(repr(counter)[6:-1])

        pool_ns: dict[int, int] = {}
        for _, sid, parent, t0, t1, thread in spans:
            owner = by_id.get(parent)
            if (owner is not None and owner[5] != thread
                    and names[owner[0]] == "cli.run"):
                pool_ns[parent] = pool_ns.get(parent, 0) + (t1 - t0)
        run_ns = sum(by_id[sid][4] - by_id[sid][3] for sid in pool_ns)
        out["cli.sweep.busy_ratio"] = (sum(pool_ns.values()) / (run_ns * workers)
                                       if run_ns else 0.0)
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as gzipped CSV: name,id,parent,start_ns,end_ns,thread."""
        names = {idx: name for name, idx in self._index.items()}
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name,id,parent,start_ns,end_ns,thread\n")
            for idx, sid, parent, t0, t1, thread in self._spans:
                fh.write(f"{names[idx]},{sid},{parent},{t0},{t1},{thread}\n")
