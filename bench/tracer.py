"""Spans around the benchmark's calls into singerlat, kept in memory.

A span records its name, the operation (item) it belongs to, the span
that was open when it started, and its start and end on the
perf_counter clock.  A layer's self time is its span's duration minus
the time its child spans cover.  The spans come only from the
benchmark's own files: explicit ``with tracer.span(...)`` blocks, and
``patch`` for functions that singerlat calls internally (the cli
subcommand's parser, normalisation and certificate).
"""

import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    item = None

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.item = None
        self.spans = []  # [name, item, parent index or -1, start, end]
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [name, self.item, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def patch(self, owner, attr, name):
        """Replace owner.attr (a module function or a classmethod) by a
        traced wrapper while the block runs."""
        original = owner.__dict__[attr]
        traced = self.wrap(name, getattr(owner, attr))
        if isinstance(original, classmethod):
            bound = traced
            traced = classmethod(lambda cls, *args, **kwargs: bound(*args, **kwargs))
        setattr(owner, attr, traced)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def layer_totals(self, start=0, end=None):
        """name -> [self seconds, calls] over spans[start:end]; children of
        a span are recorded after it and inside the same slice."""
        spans = self.spans[start:end]
        child = [0.0] * len(spans)
        for name, _, parent, t0, t1 in spans:
            if parent >= start:
                child[parent - start] += t1 - t0
        totals = {}
        for (name, _, _, t0, t1), inner in zip(spans, child):
            entry = totals.setdefault(name, [0.0, 0])
            entry[0] += t1 - t0 - inner
            entry[1] += 1
        return totals

    def as_records(self):
        return [{"name": n, "item": i, "parent": p, "start": a, "end": b}
                for n, i, p, a, b in self.spans]
