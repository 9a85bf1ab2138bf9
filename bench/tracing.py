"""In-memory span tracer for the benchmark's traced run.

A span is (name, start, end, parent, count). Spans come from the
benchmark's own files only: `Tracer.call` wraps the benchmark's calls into
a layer, and `Tracer.patched` replaces a lower-layer function at the module
attribute its caller looks it up by, restoring it afterwards. Nothing in
the passagelab package is edited. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def round(self, fn, *args):
        return fn(*args)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, count]
        self._stack: list[int] = []
        self._on = False

    def round(self, fn, *args):
        """Record spans only inside timed rounds, not while inputs are built."""
        self._on = True
        try:
            return fn(*args)
        finally:
            self._on = False

    def _run(self, name, count, fn, args, kwargs):
        if not self._on:
            return fn(*args, **kwargs)
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, count]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            stack.pop()

    def call(self, name, fn, *args, **kwargs):
        return self._run(name, 0, fn, args, kwargs)

    @contextmanager
    def patched(self, module, attr: str, name: str, count=None):
        """Trace every call of module.attr made while the block runs.

        count(*args, **kwargs), if given, is stored as the span's work count.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            n = count(*args, **kwargs) if count is not None else 0
            return self._run(name, n, original, args, kwargs)

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def dump(self, fname) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        with open(fname, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent", "count"],
                       "spans": [[ids[s[0]], s[1], s[2], s[3], s[4]]
                                 for s in self.spans]}, fh)


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0   # inclusive seconds
    self: float = 0.0    # seconds not covered by child spans
    count: int = 0       # summed work counts


def summarize(spans, under: str | None = None) -> dict[str, Stat]:
    """Per span name: calls, inclusive and self time, summed counts.

    With `under`, only spans that have an ancestor named `under` (or are
    one) are included. Spans nest strictly, so a span's self time is its
    duration minus the durations of its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, Stat] = {}
    for i, (name, start, end, parent, count) in enumerate(spans):
        if under is not None:
            j = i
            while j >= 0 and spans[j][0] != under:
                j = spans[j][3]
            if j < 0:
                continue
        st = out.setdefault(name, Stat())
        st.calls += 1
        st.total += end - start
        st.self += end - start - child[i]
        st.count += count
    return out


def layer_self(summary: dict[str, Stat]) -> dict[str, float]:
    """Self seconds per layer; a span's layer is its name up to the first dot."""
    out: dict[str, float] = {}
    for name, st in summary.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + st.self
    return out
