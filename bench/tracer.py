"""Span tracer that wraps capsrel's public functions from outside the package.

A `Tracer` replaces each named function or method with a wrapper that
records a span (name, start, end, parent) in memory. Module-level
functions are replaced at every binding site inside the package, not only
where they are defined: `capsrel.cli` imports `save_checkpoint` by name, so
patching `capsrel.model.save_checkpoint` alone would miss its calls.
`restore()` puts every original back.

Self time is a span's duration minus the durations of its direct children.
The benchmark is single-threaded, so one stack of open spans gives each
span its parent.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root span
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class Target:
    """One function to wrap.

    `owner` is a module or class and `attr` the attribute holding the
    function. `name` is the span name, or a callable `(args, kwargs,
    parent_name) -> str` that picks it per call. `before(args, kwargs)` and
    `after(result, args, kwargs)` run outside the span, for counters.
    """

    owner: object
    attr: str
    name: object
    before: object = None
    after: object = None


class Tracer:
    def __init__(self, clock=time.perf_counter, package: str = "capsrel"):
        self.clock = clock
        self.package = package
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def parent_name(self) -> str | None:
        return self.spans[self._open[-1]].name if self._open else None

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        if not self._open or self._open[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self._open.pop()
        span = self.spans[idx]
        span.end = self.clock()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration

    def wrap(self, fn, target: Target):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if target.before is not None:
                target.before(args, kwargs)
            name = target.name
            if callable(name):
                name = name(args, kwargs, tracer.parent_name())
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if target.after is not None:
                target.after(result, args, kwargs)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def _binding_sites(self, original) -> list[tuple[object, str]]:
        """Every (module, attr) in the package that refers to `original`."""
        sites = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package
                                   or mod_name.startswith(self.package + ".")):
                continue
            for attr, value in vars(mod).items():
                if value is original:
                    sites.append((mod, attr))
        return sites

    def install(self, targets: list[Target]) -> None:
        for target in targets:
            original = getattr(target.owner, target.attr)
            wrapper = self.wrap(original, target)
            if isinstance(target.owner, type):
                sites = [(target.owner, target.attr)]
            else:
                sites = self._binding_sites(original)
            for owner, attr in sites:
                self._patched.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- reporting ------------------------------------------------------------

    def summary(self, wall: float, inclusive: frozenset = frozenset()
                ) -> dict[str, dict]:
        """Per span name: call count, p50 and total time, share of `wall`.

        Names in `inclusive` are timed with their children; all others by
        self time.
        """
        times: dict[str, list[float]] = {}
        for s in self.spans:
            times.setdefault(s.name, []).append(
                s.duration if s.name in inclusive else s.self_time)
        out = {}
        for name, ts in times.items():
            total = sum(ts)
            out[name] = {"calls": len(ts),
                         "p50_s": statistics.median(ts),
                         "total_s": total,
                         "share": total / wall if wall > 0 else 0.0}
        return out

    def write(self, path: str) -> None:
        """Write every span as one CSV row: name,start,end,parent,self."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,self_s\n")
            for s in self.spans:
                fh.write(f"{s.name},{s.start:.9f},{s.end:.9f},{s.parent},"
                         f"{s.self_time:.9f}\n")
