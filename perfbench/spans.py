"""Span recorder and patcher for the traced benchmark run.

The library has no tracing of its own, so the traced run wraps the public
functions of each layer module from outside. A span is recorded at every
wrapped call: its name, start, end, parent span, the benchmark op it
belongs to, and whether it raised. Spans stay in memory until the run
ends. A layer's self time is its span's duration minus the part of that
interval its child spans cover.

Several modules bind library functions by value (`budak` and `cli` do
`from .core import poly_gcd`, `from .response import group_delay`), so
patching only the defining module would miss those calls. `Patch`
therefore replaces every attribute of every loaded `besselpade` module that
is the original function object. `_reduce_pair` looks `poly_gcd` up in
`core`'s globals at call time, which the same replacement covers.
`Polynomial.__call__` is patched on the class.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter
from typing import Callable, NamedTuple, Optional

LAYER_MODULES = ("core", "gbp", "pade", "stability", "response", "budak", "cli")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    failed: bool


# observer(counters, args, result, exc) records layer-specific counts; it runs
# after the span has closed, so its cost lands in the overhead, not self time.
Observer = Callable[[dict, tuple, object, Optional[BaseException]], None]


class Recorder:
    """Collects the spans of wrapped calls, tagged with the current op."""

    def __init__(self, observers: Optional[dict[str, Observer]] = None):
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, float]] = {}
        self.observers = observers or {}
        self.op: Optional[int] = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        rec = self
        observer = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(rec.spans)
            parent = rec._stack[-1] if rec._stack else None
            rec.spans.append(None)  # placeholder keeps parent indices stable
            rec._stack.append(index)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                rec._stack.pop()
                rec.spans[index] = Span(name, start, end, parent, rec.op, exc is not None)
                if observer is not None:
                    observer(rec.counters.setdefault(name, {}), args, result, exc)

        return traced

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op, failed."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its direct children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """calls, self_s and failed per span name."""
    totals: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0, "failed": 0})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["failed"] += span.failed
    return totals


class Patch:
    """Wrappers for the public functions of each layer module, and every
    place they are bound, switched on and off by `apply` and `revert`."""

    def __init__(self, rec: Recorder, package):
        wrapped: dict[int, Callable] = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"{package.__name__}.{short}"]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[id(value)] = rec.wrap(f"{short}.{attr}", value)

        self.sites: list[tuple[object, str, object, object]] = []  # owner, attr, original, wrapper
        prefix = package.__name__ + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
                continue
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and id(value) in wrapped:
                    self.sites.append((module, attr, value, wrapped[id(value)]))

        polynomial = sys.modules[f"{package.__name__}.core"].Polynomial
        call = polynomial.__call__
        self.sites.append((polynomial, "__call__", call, rec.wrap("core.Polynomial.call", call)))

    def apply(self) -> None:
        for owner, attr, _, wrapper in self.sites:
            setattr(owner, attr, wrapper)

    def revert(self) -> None:
        for owner, attr, original, _ in self.sites:
            setattr(owner, attr, original)
