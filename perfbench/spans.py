"""Layer spans recorded from the benchmark's side of the library boundary.

``install`` wraps the public functions of every thetagw module, plus the
public methods of the classes it exports, so each call records a span
(name, layer, start, end, parent). A name bound elsewhere by ``from ...
import`` is patched in every thetagw and perfbench module that holds it, so
internal calls are seen too. Spans stay in memory; a layer's self time is
its spans' durations minus the part of each that child spans cover.

A few wrappers also count the work done at that boundary: replicates and
generations for simulate, table builds for offspring, coefficient
multiply-adds for series (computed from the order, not measured).
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, NamedTuple

#: the thetagw modules measured as layers; the span layer is the module name
LAYERS = (
    "simulate", "offspring", "series", "embedding", "qprocess",
    "pgf", "absorption", "params", "verify", "cli",
)

# operators of Series that do the series arithmetic
_ARITH = frozenset(
    {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"}
)
# private methods that are the layer's work: the table (re)build
_PRIVATE = {"OffspringTable": frozenset({"_rebuild"})}
# cli.py has no __all__; its entry point is the boundary
_CLI_ENTRY = ("main",)


class Span(NamedTuple):
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into the same span list, -1 at top level


class Tracer:
    """Span and counter store; wrappers record only while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []

    def note(self, key: str, value: float) -> None:
        self.counts[key] += value

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def wrap(self, layer: str, fn: Callable, hook=None, pre=None) -> Callable:
        name = f"{layer}.{fn.__qualname__}"
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            before = pre(args, kwargs) if pre is not None else None
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(Span(name, layer, 0.0, 0.0, parent))
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = Span(name, layer, start, end, parent)
            if hook is not None:
                hook(tracer, args, kwargs, out, before)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def export(self) -> dict[str, Any]:
        return {
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def merge(self, exported: dict[str, Any]) -> None:
        """Add the spans and counters another process exported."""
        base = len(self.spans)
        for name, layer, start, end, parent in exported["spans"]:
            self.spans.append(Span(name, layer, start, end, parent + base if parent >= 0 else -1))
        self.counts.update(exported["counts"])
        for key, value in exported["maxima"].items():
            self.note_max(key, value)


# -- counters at the layer boundaries -------------------------------------


def _sim_config(args, kwargs):
    from thetagw.simulate import SimConfig

    return next(a for a in (*args, *kwargs.values()) if isinstance(a, SimConfig))


def _simulate_hook(tracer, args, kwargs, out, _before):
    reps = _sim_config(args, kwargs).replicates
    tracer.note("simulate.replicates", reps)
    tracer.note("simulate.generations", out.sum_t)
    tracer.note("simulate.absorbed", reps - out.censored)


def _rebuild_pre(args, _kwargs):
    return hasattr(args[0], "order")  # a table that already has entries


def _rebuild_hook(tracer, args, kwargs, _out, extending):
    order = args[1] if len(args) > 1 else kwargs["order"]
    tracer.note("offspring.table_extends" if extending else "offspring.table_builds", 1)
    tracer.note("offspring.entries_built", order + 1)
    tracer.note_max("offspring.max_order", order)


def _series_hook(kind: str):
    def hook(tracer, args, _kwargs, _out, _before):
        from thetagw.series import Series

        k = args[0].order
        if kind == "mul":
            if not isinstance(args[1], Series):
                return  # scaling by a number is O(K)
            madds = (k + 1) * (k + 2) / 2
        elif kind == "pow":
            madds = k * (k + 1) / 2
        else:
            madds = k * (k - 1) / 2
        if kind != "log":
            tracer.note(f"series.{kind}_calls", 1)
        tracer.note("series.coeff_madds", madds)
        tracer.note_max("series.max_order", k)

    return hook


_HOOKS = {
    "estimate_tails": (_simulate_hook, None),
    "simulate_ct_skeleton": (_simulate_hook, None),
    "OffspringTable._rebuild": (_rebuild_hook, _rebuild_pre),
    "Series.pow": (_series_hook("pow"), None),
    "Series.__mul__": (_series_hook("mul"), None),
    "Series.log": (_series_hook("log"), None),
}


def _wrap(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    hook, pre = _HOOKS.get(fn.__qualname__, (None, None))
    return tracer.wrap(layer, fn, hook=hook, pre=pre)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer's public callables; returns a function that undoes it."""
    undo: list[tuple[Any, str, Any]] = []
    wrapped: dict[int, Callable] = {}
    originals: dict[int, Callable] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"thetagw.{layer}")
        for attr in getattr(mod, "__all__", _CLI_ENTRY):
            obj = getattr(mod, attr)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[id(obj)] = _wrap(tracer, layer, obj)
                originals[id(obj)] = obj
            elif inspect.isclass(obj):
                private = _PRIVATE.get(obj.__name__, frozenset())
                done: dict[int, Callable] = {}
                for name, val in list(vars(obj).items()):
                    if not inspect.isfunction(val):
                        continue
                    if name.startswith("_") and name not in _ARITH and name not in private:
                        continue
                    if id(val) not in done:
                        done[id(val)] = _wrap(tracer, layer, val)
                    undo.append((obj, name, val))
                    setattr(obj, name, done[id(val)])
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith(("thetagw", "perfbench")):
            continue
        for attr, val in list(vars(mod).items()):
            if originals.get(id(val)) is val:
                undo.append((mod, attr, val))
                setattr(mod, attr, wrapped[id(val)])

    def uninstall() -> None:
        for owner, attr, val in reversed(undo):
            setattr(owner, attr, val)

    return uninstall


# -- arithmetic over spans --------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        inside = [
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]
        ]
        out.append((s.end - s.start) - _covered(inside))
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """layer -> {"self_s": summed self time, "calls": span count}."""
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for s, own in zip(spans, self_times(spans)):
        entry = out.setdefault(s.layer, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own
        entry["calls"] += 1
    return out


def top_level_time(spans: list[Span]) -> float:
    """Time inside any layer span; top-level spans never overlap."""
    return sum(s.end - s.start for s in spans if s.parent < 0)
