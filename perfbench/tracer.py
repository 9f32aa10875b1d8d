"""In-memory span tracer that wraps functions from outside the program.

`Tracer.wrap` replaces a function where its caller looks it up (a module
global or a class attribute) by a wrapper that records one span per call,
so the program's own code runs unchanged. A span holds its name, start,
end, the index of the span open when it began (its parent) and a few
attributes. Spans stay in memory until the caller reads `spans` or writes
them out with `write_jsonl`.
"""

import functools
import json
import resource
import time
import tracemalloc
from dataclasses import dataclass, field


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; `restore` puts every wrapped function back."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def begin(self, name: str) -> Span:
        span = Span(name, self._open[-1] if self._open else None, time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span):
        span.end = time.perf_counter()
        self._open.pop()

    def wrap(self, owners, attr: str, name: str, annotate=None, memory=False):
        """Trace `attr` on each owner; all owners must hold the same object.

        `annotate(args, result)` returns attributes for the span. With
        `memory`, the span also records the peak of memory allocated during
        the call (tracemalloc, which counts numpy buffers), in MiB; unlike
        the process's peak RSS, this does not depend on what ran before.
        """
        original = getattr(owners[0], attr)
        for owner in owners[1:]:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} is not {original!r}")

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if memory:
                tracemalloc.start()
            span = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    span.attrs["alloc_peak_mb"] = peak / 2**20
                    tracemalloc.stop()
            if annotate is not None:
                span.attrs.update(annotate(args, result))
            return result

        for owner in owners:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, traced)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: str):
        """Write one JSON object per span: index, name, parent, start, end, attrs."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end, "attrs": s.attrs},
                                    default=float) + "\n")

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def within(self, ancestor: str) -> list[bool]:
        """Per span: whether it is `ancestor` or runs inside such a span."""
        inside: list[bool] = []
        for s in self.spans:
            inside.append(s.name == ancestor
                          or (s.parent is not None and inside[s.parent]))
        return inside
