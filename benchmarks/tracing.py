"""In-memory span tracer for the benchmark's traced runs.

A span is recorded around each call into a cachebc function by replacing
the function where its caller looks it up (for example
``cachebc.simulate.transmit``, which ``simulate`` imported by name), so the
library itself is left as it is.  Spans are kept in memory as
``[name, start, end, parent, op]`` and written out when the run ends; a
span's self time is its duration minus the durations of its child spans.
Counts recorded at the same boundaries (rows, packets, unknowns ...) are
summed per span name.

The benchmark runs single-threaded (``threads=1``), so one stack of open
spans is enough to find each span's parent.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[dict | None] = []  # per span, from the count hook
        self.op = None  # id of the operation the next spans belong to
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """``fn`` wrapped so that every call records a span named ``name``;
        ``count(args, kwargs, result)`` returns the counts to attach."""
        spans, counts, stack, clock = self.spans, self.counts, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(rec)
            counts.append(None)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                counts[idx] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets):
        """Install spans on ``targets``, a list of (module, attribute, span
        name, count hook or None), and restore the originals on exit."""
        saved = []
        try:
            for module, attr, name, count in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def stats(self, keep=lambda op: True) -> dict[str, SpanStats]:
        """Per span name: calls, total and self seconds, summed counts, over
        the spans whose op satisfies ``keep``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, SpanStats] = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if not keep(op):
                continue
            s = out.setdefault(name, SpanStats())
            s.calls += 1
            s.total_s += end - start
            s.self_s += end - start - child[i]
            for key, value in (self.counts[i] or {}).items():
                s.counts[key] = s.counts.get(key, 0) + value
        return out

    def durations(self, name, keep=lambda op: True) -> list[float]:
        return [e - s for n, s, e, _, op in self.spans if n == name and keep(op)]

    def write(self, path, header: dict) -> None:
        """Write ``header`` and every span, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[n], round(s - t0, 9), round(e - t0, 9), parent, op]
            for n, s, e, parent, op in self.spans
        ]
        doc = dict(header, span_fields=["name", "start_s", "end_s", "parent", "op"],
                   names=names, spans=rows)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
