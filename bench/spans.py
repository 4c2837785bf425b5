"""In-memory span recorder for the traced benchmark run.

A span records one call across a layer boundary: name, start, end, the
span open when it began (its parent) and the top-level call it belongs to.
Hot leaf functions (eigendecompositions, vectorizations) are too frequent
for a span each; their call count and time are added to the innermost open
span instead.  Spans stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import functools
import json
import time


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "call", "info", "leaves")

    def __init__(self, id_, name, start, parent, call):
        self.id = id_
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.call = call
        self.info = None
        self.leaves = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "call": self.call, "info": self.info,
                "leaves": self.leaves}


class Recorder:
    """Collects spans and leaf totals; ``call`` is set by the caller per top-level call."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.root_leaves: dict[str, list] = {}
        self.call = 0

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, self.clock(), parent, self.call)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self.stack.pop()

    def add_leaf(self, name: str, seconds: float) -> None:
        bucket = self.stack[-1].leaves if self.stack else self.root_leaves
        entry = bucket.get(name)
        if entry is None:
            bucket[name] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def span_fn(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a span; ``on_result(span, result)`` may annotate it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                on_result(span, result)
            return result

        return wrapper

    def leaf_fn(self, name: str, fn):
        """``fn`` with its count and time added to the innermost open span."""
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            self.add_leaf(name, clock() - t0)
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_json()) + "\n")
            fh.write(json.dumps({"root_leaves": self.root_leaves}) + "\n")


class Patcher:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the part of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [span.duration - covered(children.get(span.id, ()), span.start, span.end)
            for span in spans]
