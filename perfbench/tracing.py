"""Timing and span recording around the benchmark's calls into hypoint.

Nothing here touches the library: every measurement is taken from outside,
around a call the benchmark itself makes. A ``Recorder`` keeps one duration
per call, keyed by (span name, tag). A ``Tracer`` also keeps every call as a
span (name, tag, start, end, parent, op id, batch count) in memory; the spans
are written out once, when the run ends.

Span names are ``<module>.<function>``, so a span's module is the part before
the first dot. A module's self time is the summed duration of its spans minus
the part covered by their direct children.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns


class Recorder:
    """Per-call durations in ns, keyed by (name, tag); batches store ns per call."""

    def __init__(self):
        self.samples = defaultdict(list)

    def call(self, name, tag, fn, *args):
        t0 = perf_counter_ns()
        result = fn(*args)
        self.samples[name, tag].append(perf_counter_ns() - t0)
        return result

    @contextmanager
    def span(self, name, tag="", count=1):
        t0 = perf_counter_ns()
        yield
        self.samples[name, tag].append((perf_counter_ns() - t0) / count)

    def operation(self, op):
        return nullcontext()

    def per_call_us(self, name, tag):
        return [ns / 1e3 for ns in self.samples[name, tag]]


def reference_loop(units):
    """Fixed pure-Python work that never calls hypoint: 256-bit modular
    exponentiations and small-int dict updates, about 1 ms per unit."""
    p = 2**255 - 19
    x, d = 3, {}
    for _ in range(units):
        for i in range(4):
            x = pow(x + i, (p - 1) // 2, p)
        for i in range(4000):
            d[i % 97] = d.get(i % 97, 0) + i * i % 13
    return x


class PacedRecorder(Recorder):
    """A Recorder that follows each call with the reference loop, for about
    `share` of the call's own time, timed apart from the call.

    On a shared host the machine's speed drifts by tens of percent within
    minutes. The reference loop slows down with it, so operation time divided
    by the reference loop's time per unit, taken alongside, stays steady where
    the raw time does not.
    """

    def __init__(self, share, unit_s):
        super().__init__()
        self.share, self.unit_s = share, unit_s
        self.owed = 0.0
        self.ref_units = 0
        self.ref_ns = 0

    @staticmethod
    def unit_seconds(units=5):
        t0 = perf_counter_ns()
        reference_loop(units)
        return (perf_counter_ns() - t0) / 1e9 / units

    def reference(self, units):
        t0 = perf_counter_ns()
        reference_loop(units)
        self.ref_ns += perf_counter_ns() - t0
        self.ref_units += units

    def call(self, name, tag, fn, *args):
        result = super().call(name, tag, fn, *args)
        self.owed += self.samples[name, tag][-1] / 1e9 * self.share / self.unit_s
        if self.owed >= 1:
            units = int(self.owed)
            self.owed -= units
            self.reference(units)
        return result

    def work_seconds(self):
        return sum(sum(v) for v in self.samples.values()) / 1e9

    def ref_unit_seconds(self):
        """Seconds per reference unit; runs one unit first if the calls owed none."""
        if not self.ref_units:
            self.reference(1)
        return self.ref_ns / 1e9 / self.ref_units

    def ratio(self):
        """Operation time in units of the reference loop."""
        return self.work_seconds() / self.ref_unit_seconds()


class Tracer(Recorder):
    """A Recorder that also keeps each call as a span with its parent and op id."""

    def __init__(self):
        super().__init__()
        self.spans = []  # (name, tag, start_ns, end_ns, parent, op, count); id = index
        self._open = []
        self.op = None

    def _open_span(self):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        return sid, parent

    def call(self, name, tag, fn, *args):
        sid, parent = self._open_span()
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter_ns()
            self._open.pop()
            self.spans[sid] = (name, tag, t0, t1, parent, self.op, 1)
            self.samples[name, tag].append(t1 - t0)

    @contextmanager
    def span(self, name, tag="", count=1):
        sid, parent = self._open_span()
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            t1 = perf_counter_ns()
            self._open.pop()
            self.spans[sid] = (name, tag, t0, t1, parent, self.op, count)
            self.samples[name, tag].append((t1 - t0) / count)

    @contextmanager
    def operation(self, op):
        """Group the spans of one benchmark operation under a root span."""
        self.op = op
        try:
            with self.span("bench.op", str(op)):
                yield
        finally:
            self.op = None

    def self_seconds(self):
        """Self time per module, in seconds."""
        covered = defaultdict(int)
        for name, tag, t0, t1, parent, op, count in self.spans:
            if parent is not None:
                covered[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, tag, t0, t1, parent, op, count) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += (t1 - t0 - covered[i]) / 1e9
        return dict(out)

    def write(self, path, workload):
        """Append the spans as JSON lines, one object per span."""
        with open(path, "a", encoding="utf-8") as fh:
            for sid, (name, tag, t0, t1, parent, op, count) in enumerate(self.spans):
                fh.write(json.dumps({
                    "workload": workload, "id": sid, "name": name, "tag": tag,
                    "start_ns": t0, "end_ns": t1, "parent": parent, "op": op,
                    "count": count,
                }, sort_keys=True) + "\n")
