"""In-memory spans around calls into the xrlat modules, recorded from outside.

A span is (id, name, start, end, parent). ``patched`` replaces public
functions at the names their callers look them up by, so spans nest exactly
as the calls do, and puts the originals back when it exits. Nothing inside
the package is changed on disk or in behaviour: the wrappers call through
with the same arguments and return the same objects.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1)
        self._stack = [-1]
        self.counts = defaultdict(float)  # (root span id, key) -> summed count

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent)

    def add(self, key: str, value: float) -> None:
        """Add to a counter of the outermost open span (the phase it belongs to)."""
        root = self._stack[1] if len(self._stack) > 1 else -1
        self.counts[(root, key)] += value

    def wrap(self, fn, name: str, observe=None):
        """A stand-in for ``fn`` that records one span per call.

        ``observe(tracer, args, result)`` may update counters; it runs after
        the span closes, so its cost is not charged to the layer.
        """
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Install traced wrappers for ``(owner, attr, span_name, observe)`` targets.

    The originals are restored on exit, whatever happens inside.
    """
    saved = []
    try:
        for owner, attr, name, observe in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, observe))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class SpanIndex:
    """Queries over a finished trace: durations, self time and phase totals."""

    def __init__(self, spans):
        self.spans = spans
        self.children = defaultdict(list)
        for sid, _, _, _, parent in spans:
            self.children[parent].append(sid)

    def duration(self, sid: int) -> float:
        _, _, start, end, _ = self.spans[sid]
        return end - start

    def self_time(self, sid: int) -> float:
        """Duration minus what the direct children cover (children never overlap)."""
        return self.duration(sid) - sum(self.duration(c) for c in self.children[sid])

    def roots(self, name: str):
        return [s[0] for s in self.spans if s[1] == name and s[4] == -1]

    def descendants(self, sid: int, name: str):
        out = []
        todo = list(self.children[sid])
        while todo:
            c = todo.pop()
            if self.spans[c][1] == name:
                out.append(c)
            todo.extend(self.children[c])
        return sorted(out)

    def total(self, sid: int, name: str) -> float:
        return sum(self.duration(c) for c in self.descendants(sid, name))

    def self_total(self, sid: int, name: str) -> float:
        return sum(self.self_time(c) for c in self.descendants(sid, name))

    def count(self, sid: int, name: str) -> int:
        return len(self.descendants(sid, name))
