"""In-memory spans recorded from outside the program.

A Tracer rebinds a module attribute (a function, or a method on a class)
to a timing wrapper. The program calls its own functions through those
module-level names, so each call records a span: name, start, end, the
enclosing span and the benchmark phase it ran in. The benchmark also records
its own regions (the imports). Spans stay in memory until the repetition
ends; nothing is written while the program runs.

A target the program no longer has is skipped, and every metric derived
from a wrapped function that was never called is reported as absent
(None), never as 0.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans in columns (no object per span, so the garbage collector has
    nothing to walk): name, start, end, parent index (-1 at top level) and
    the benchmark phase the span ran in."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.phases: list[str] = []
        self.phase = "setup"
        self.regions: dict[str, float] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.labels: dict[int, str] = {}
        self._open: list[int] = []

    @contextmanager
    def region(self, name: str):
        """Time a benchmark step; regions are recorded with tracing on or off."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.regions[name] = self.regions.get(name, 0.0) + time.perf_counter() - start

    def wrap(self, owners, attr: str, name: str, after=None) -> None:
        """Rebind attr on each of owners to a wrapper that records a span per call.

        The first owner defines the function; a later owner (a module that
        imported the name, such as entrydyn.cli) is rebound only where it
        holds that same function. after(tracer, index, args, result) runs
        once the span has closed, so its own cost is charged to the
        caller's span, not to this one.
        """
        original = getattr(owners[0], attr, None)
        if original is None:
            return
        names, starts, ends, parents, phases = (
            self.names, self.starts, self.ends, self.parents, self.phases
        )
        stack, clock = self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            phases.append(self.phase)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(self, index, args, result)
            return result

        wrapper.__wrapped__ = original
        for owner in owners:
            if getattr(owner, attr, None) is original:
                setattr(owner, attr, wrapper)


class SpanIndex:
    """Durations, self times and per-name lookups over a finished trace.

    Lookups return None when no span matches, so a function that was never
    called reads as absent rather than as zero.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.duration = [end - start for start, end in zip(tracer.starts, tracer.ends)]
        self.self_time = list(self.duration)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, (name, parent) in enumerate(zip(tracer.names, tracer.parents)):
            self.by_name[name].append(i)
            if parent >= 0:
                self.self_time[parent] -= self.duration[i]

    def find(self, name: str, phase: str | None = "run") -> list[int]:
        phases = self.tracer.phases
        return [i for i in self.by_name.get(name, ()) if phase is None or phases[i] == phase]

    def total(self, name: str, phase: str | None = "run") -> float | None:
        found = self.find(name, phase)
        return sum(self.duration[i] for i in found) if found else None

    def mean_us(self, name: str, use_self: bool = False, phase: str | None = "run") -> float | None:
        found = self.find(name, phase)
        if not found:
            return None
        times = self.self_time if use_self else self.duration
        return 1e6 * sum(times[i] for i in found) / len(found)

    def count(self, name: str, phase: str | None = "run") -> int | None:
        return len(self.find(name, phase)) or None

    def children(self, parent: int, name: str) -> list[int]:
        parents = self.tracer.parents
        return [i for i in self.by_name.get(name, ()) if parents[i] == parent]
