"""Spans and counters recorded from the benchmark's own calls into onoffgraph.

A span has a name, a start, an end, the span that caused it and the trace it
belongs to (one trace per campaign or analytic call). Spans stay in memory and
are written out once, when the run ends. Counters are recorded at the same
boundaries as the spans.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """Time the enclosed block; a span opened with no parent starts a new trace."""
        parent = self._stack[-1] if self._stack else None
        record = {"id": next(self._ids), "name": name,
                  "parent": parent["id"] if parent else None,
                  "trace": parent["trace"] if parent else next(self._trace_ids),
                  **attrs}
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def count(self, name, k=1):
        self.counts[name] += k

    @contextlib.contextmanager
    def instrument(self, module, attr, name):
        """Replace module.attr by a spanned wrapper for the enclosed block.

        This reaches calls that one package function makes into another module
        (cli.main into the harness, saddlepoint_logprob into
        legendre_transform) without editing the package.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def children(self, span, name=None):
        return [s for s in self.spans
                if s["parent"] == span["id"] and (name is None or s["name"] == name)]

    @staticmethod
    def duration(span):
        return span["end"] - span["start"]

    def self_time(self, span, child_names):
        """Span duration minus the time covered by its direct children of the given names."""
        kids = [c for c in self.children(span) if c["name"] in child_names]
        return self.duration(span) - sum(self.duration(c) for c in kids)
