"""Outside-in tracer for robo_mv.

The tracer wraps the public functions of each robo_mv module, plus
``PolicyTables.allocation_at``, from outside the package: nothing under
``src/`` knows it is being traced. Modules bind each other's functions with
``from ... import``, so a wrapper is installed on every robo_mv namespace that
holds the function object, not only on the module that defines it.

Each call becomes a span (layer, name, start, end, parent span id, failed
flag, work counters). Span stacks are kept per thread. A span opened on a
thread with an empty stack, such as a simulation chunk on a pool thread, takes
as its parent the innermost open span of the thread that installed the
tracer. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

LAYERS = (
    "market", "risk_profile", "solver", "montecarlo", "personalization",
    "cycle_analytics", "cli",
)
# Modules that may hold a reference to a layer's function.
_NAMESPACES = ("robo_mv",) + tuple(f"robo_mv.{m}" for m in LAYERS)


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    return arguments


def _work_counters():
    """Per-function work counters, computed from arguments and results only.

    Each entry maps a span name to fn(arguments, result). They run after the
    callee's span has closed but inside its caller's, so they must be cheap.
    """

    def solve_work(a, tables):
        c = tables.solve_clamps
        return {
            "node_steps": tables.T * math.prod(tables.grid.shape),
            "xi_mass": c.xi_mass, "xi_clamped": c.xi_clamped,
            "window_mass": c.window_mass, "window_clamped": c.window_clamped,
        }

    return {
        "market.sample_paths":
            lambda a, r: {"path_steps": int(a["n_steps"]) * int(a["n_paths"])},
        "risk_profile.simulate_clients":
            lambda a, r: {"path_steps": int(a["T"]) * int(a["n_paths"])},
        "solver.solve": solve_work,
        "solver.save_policy": lambda a, r: {"dir": str(a["outdir"])},
        "solver.load_policy": lambda a, r: {"dir": str(a["indir"])},
        "solver.allocation_at": lambda a, r: {"lookups": int(r.size)},
        "montecarlo.long_run_sharpe":
            lambda a, r: {"steps": int(a["total_steps"])},
    }


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    thread: int
    start: float
    end: float = 0.0
    failed: bool = False
    work: dict = field(default_factory=dict)


class Tracer:
    """Installs span-recording wrappers on robo_mv and removes them again."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            owner = stack if stack else self._home
            parent = owner[-1].id if owner else None
            span = Span(next(self._ids), parent, layer, name,
                        threading.get_ident(), 0.0)
            self.spans.append(span)
            stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        with self._lock:
            stack.pop()

    def _wrap(self, fn, layer: str, name: str, work):
        tracer = self
        arguments = _bound(fn) if work is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                tracer._close(span)
            if work is not None:
                span.work = work(arguments(args, kwargs), result)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public robo_mv function on every namespace holding it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._home
        namespaces = [importlib.import_module(m) for m in _NAMESPACES]
        work = _work_counters()
        for layer in LAYERS:
            mod = importlib.import_module(f"robo_mv.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(fn, layer, name, work.get(name))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._patches.append((ns, key, fn))
                            setattr(ns, key, wrapper)
        from robo_mv.solver import PolicyTables

        original = PolicyTables.__dict__["allocation_at"]
        name = "solver.allocation_at"
        self._patches.append((PolicyTables, "allocation_at", original))
        PolicyTables.allocation_at = self._wrap(
            original, "solver", name, work[name]
        )

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


# -- summaries -------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its child spans' intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def span_records(spans: list[Span]) -> list[dict]:
    t0 = min((s.start for s in spans), default=0.0)
    return [
        {"id": s.id, "parent": s.parent, "layer": s.layer, "name": s.name,
         "thread": s.thread, "start_s": s.start - t0, "end_s": s.end - t0,
         "failed": s.failed, "work": s.work}
        for s in spans
    ]


def dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# Per-function metrics, by span name. "<work>_per_s" divides a summed work
# counter by the spans' summed duration; "<axis>_clamp_fraction" is the
# mass-weighted clamp share over all calls.
FUNCTION_METRICS = {
    "market.sample_paths": ("calls", "self_s", "path_steps_per_s"),
    "risk_profile.simulate_clients": ("calls", "self_s", "path_steps_per_s"),
    "solver.solve": ("calls", "self_s", "node_steps", "node_steps_per_s",
                     "xi_clamp_fraction", "window_clamp_fraction"),
    "solver.save_policy": ("self_s", "mb", "mb_per_s"),
    "solver.load_policy": ("self_s", "mb_per_s"),
    "solver.allocation_at": ("calls", "lookups", "self_s", "lookups_per_s"),
    "montecarlo.simulate": ("self_s",),
    "montecarlo.stats": ("self_s",),
    "montecarlo.long_run_sharpe": ("self_s", "steps_per_s"),
    "personalization.r_measure": ("self_s",),
    "personalization.s_measure": ("self_s",),
    "cycle_analytics.implied_gamma": ("self_s",),
    "cycle_analytics.sharpe_general": ("calls", "self_s"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _function_metric(metric: str, spans: list[Span], own: dict) -> float:
    def total(key):
        return float(sum(s.work.get(key, 0) for s in spans))

    if metric == "calls":
        return float(len(spans))
    if metric == "self_s":
        return sum((own[s.id] for s in spans), 0.0)
    if metric.endswith("_per_s"):
        busy = sum((s.end - s.start for s in spans), 0.0)
        return _ratio(total(metric[: -len("_per_s")]), busy)
    if metric.endswith("_clamp_fraction"):
        axis = metric[: -len("_clamp_fraction")]
        return _ratio(total(f"{axis}_clamped"), total(f"{axis}_mass"))
    return total(metric)


def _iteration_metrics(spans: list[Span], bytes_written: int) -> dict[str, float]:
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        if "dir" in s.work:  # policy store: size the directory once, here
            s.work["mb"] = dir_bytes(s.work["dir"]) / 1e6
        by_name.setdefault(s.name, []).append(s)
    m: dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        m[f"{layer}.self_s"] = sum((own[s.id] for s in mine), 0.0)
        m[f"{layer}.failed"] = float(sum(s.failed for s in mine))
    for name, metrics in FUNCTION_METRICS.items():
        for metric in metrics:
            m[f"{name}.{metric}"] = _function_metric(
                metric, by_name.get(name, []), own)
    m["cli.bytes_written"] = float(bytes_written)
    return m


def per_layer_metrics(span_lists, traced_walls, bytes_written, untraced_wall):
    """Median over traced iterations of each per-layer metric, plus the
    traced iterations' median wall time relative to the untraced ones'."""
    rows = [_iteration_metrics(spans, nbytes)
            for spans, nbytes in zip(span_lists, bytes_written)]
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    out["trace.overhead_frac"] = statistics.median(traced_walls) / untraced_wall - 1.0
    return out
