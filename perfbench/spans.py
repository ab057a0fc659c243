"""In-memory spans around calls the benchmark makes into each module.

A span has a name, a start and an end (``CLOCK`` seconds), the index of the
span it was opened inside (or None) and the id of the input it served.
Counts taken from a call's result are attached to its span after the span
closes, so computing them costs the span nothing.
"""

from __future__ import annotations

import json
import time

# CPU time of this process.  The package is single-threaded and these calls do
# no I/O, so on an idle machine this equals wall time; on a machine whose cores
# are shared it leaves out the time other processes hold the core.
CLOCK = time.process_time


class Span:
    __slots__ = ("name", "input_id", "parent", "start", "end", "counts", "_rec")

    def __init__(self, rec, name, input_id, parent):
        self._rec = rec
        self.name = name
        self.input_id = input_id
        self.parent = parent
        self.counts = {}
        self.start = self.end = None

    def __enter__(self):
        self.start = CLOCK()
        return self

    def __exit__(self, *exc):
        self.end = CLOCK()
        self._rec._open.pop()
        return False

    @property
    def seconds(self):
        return self.end - self.start

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value


class Recorder:
    """Collects spans; ``span`` is a context manager that nests."""

    def __init__(self):
        self.spans = []
        self._open = []

    def span(self, name, input_id):
        parent = self._open[-1] if self._open else None
        s = Span(self, name, input_id, parent)
        self._open.append(len(self.spans))
        self.spans.append(s)
        return s

    def total(self, name):
        """Summed duration of the spans with this name."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def self_time(self, name):
        """Summed duration of the named spans minus their direct children."""
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.seconds
        return sum(
            s.seconds - child.get(i, 0.0)
            for i, s in enumerate(self.spans)
            if s.name == name
        )

    def root_total(self):
        return sum(s.seconds for s in self.spans if s.parent is None)

    def counts(self):
        out = {}
        for s in self.spans:
            for k, v in s.counts.items():
                out[k] = out.get(k, 0) + v
        return out

    def write(self, path):
        """Write every span as JSON; times are relative to the first start."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            {
                "name": s.name,
                "input": s.input_id,
                "parent": s.parent,
                "start": s.start - t0,
                "end": s.end - t0,
                "counts": s.counts,
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows))
