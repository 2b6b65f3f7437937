"""Span tracing installed from outside the seglab package.

A Tracer replaces chosen functions (and the three plane-map constructors) with
wrappers that time each call, then puts the originals back.  Wrappers are
bound wherever the original object is bound in a ``seglab`` module, so names
imported with ``from .net import forward`` are traced too.

Spans are aggregated as they close rather than stored: a traced audit makes
tens of thousands of nested loss calls.  Each name keeps its call count, its
inclusive and self time, every inclusive duration (for percentiles) and an
optional work count.

Self time is a span's duration minus the part of it that its child spans
cover.  Spans on one thread nest, so their children never overlap.  Spans
opened on a worker thread (seglab's per-batch thread pool) have no parent on
that thread; they are children of the active root span, and the root's self
time subtracts the union of its children's intervals, so two children running
at once are not subtracted twice.  Summed self times can therefore exceed the
root wall time when threads run in parallel.
"""
from __future__ import annotations

import sys
import threading
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

import numpy as np


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0
    durations: array = field(default_factory=lambda: array("d"))

    def percentile_s(self, q: float) -> float:
        """Inclusive duration at percentile q, 0.0 when never called."""
        if not self.durations:
            return 0.0
        return float(np.percentile(np.frombuffer(self.durations, dtype=np.float64), q))


@dataclass
class _Frame:
    t0: float
    child_s: float = 0.0
    intervals: list[tuple[float, float]] | None = None  # root frames only


def _union_length(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        covered += hi - max(lo, end)
        end = hi
    return covered


@dataclass(frozen=True)
class Target:
    """One traced callable: ``owner.attr`` recorded under ``name``.

    ``work`` maps (args, result) to a work count, such as samples generated.
    """

    owner: Any
    attr: str
    name: str
    work: Callable[[tuple, Any], float] | None = None


class Tracer:
    def __init__(self, targets: list[Target], roots: set[str]):
        self._targets = targets
        self._roots = roots
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: _Frame | None = None
        self._patches: list[tuple[Any, str, Any, bool]] = []
        self.stats: dict[str, SpanStats] = {t.name: SpanStats() for t in targets}

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        stats = self.stats[target.name]
        is_root = target.name in self._roots
        work = target.work

        def traced(*args, **kwargs):
            stack = self._stack()
            outer = stack[-1] if stack else None
            frame = _Frame(t0=perf_counter())
            if is_root and outer is None:
                frame.intervals = []
                self._root = frame
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - frame.t0
                if frame.intervals is not None:
                    own = dur - _union_length(frame.intervals)
                    self._root = None
                else:
                    own = dur - frame.child_s
                with self._lock:
                    if outer is None:
                        parent = self._root if frame.intervals is None else None
                        if parent is not None:
                            parent.intervals.append((frame.t0, t1))
                    elif outer.intervals is not None:
                        outer.intervals.append((frame.t0, t1))
                    else:
                        outer.child_s += dur
                    stats.calls += 1
                    stats.total_s += dur
                    stats.self_s += own
                    stats.durations.append(dur)
            if work is not None:
                amount = work(args, result)
                with self._lock:
                    stats.work += amount
            return result

        return traced

    def install(self) -> None:
        """Bind a wrapper in place of every target, wherever seglab binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "seglab" or n.startswith("seglab.")]
        for target in self._targets:
            original = getattr(target.owner, target.attr)
            wrapper = self._wrap(original, target)
            if isinstance(target.owner, type):
                own = target.attr in vars(target.owner)
                self._patches.append((target.owner, target.attr, original, own))
                setattr(target.owner, target.attr, wrapper)
                continue
            bound = [(m, attr) for m in modules for attr, value in vars(m).items() if value is original]
            if not bound:
                raise LookupError(f"{target.name} is bound in no seglab module")
            for module, attr in bound:
                self._patches.append((module, attr, original, True))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
