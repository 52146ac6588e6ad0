"""Spans recorded in memory by wrapping the package's public functions.

A span is ``(name, start, end, parent, work)``: ``perf_counter`` seconds,
the index of the enclosing span (-1 at top level), and a work count taken
from the call's arguments (pair-steps, bytes, trials; 0 when the span has
none). Spans are kept in a list while the run goes and written out once
it ends, so recording costs one wrapper call and one tuple per span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class Tracer:
    """Collects spans from the functions it wraps; one tracer per run."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, work=None):
        """Return ``fn`` recording one span per call under ``name``.

        ``work(*args, **kwargs)`` runs after the call has returned, outside
        the span, so counting work never adds to the span's duration.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                amount = work(*args, **kwargs) if work is not None else 0
                self.spans[index] = (name, start, end, parent, amount)

        return traced


def summarize(spans) -> dict:
    """Per span name: calls, total seconds, self seconds and summed work.

    Self time is a span's duration minus the durations of its direct
    children; wrapped calls nest strictly, so children never overlap.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for index, (name, start, end, _, work) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "work": 0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - covered[index]
        agg["work"] += work
    return out


def write(path, tracers) -> None:
    """Write each tracer's spans as one JSON list, times from its first start."""
    runs = []
    for tracer in tracers:
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        runs.append([[name, start - origin, end - origin, parent, work]
                     for name, start, end, parent, work in tracer.spans])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(runs, fh)


@contextlib.contextmanager
def patched(replacements):
    """Set ``(module, attribute, value)`` triples, restoring them on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)
