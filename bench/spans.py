"""Span recorder for the traced benchmark run.

The recorder wraps public igarad functions from outside the package: each
wrapper replaces the name where the caller looks it up (a module attribute
or a class attribute) and records one span per call.  A span holds its
name, parent span, the repetition it belongs to, and wall and CPU start/end
times.  Spans stay in memory until the run ends.

Observers attached to a wrapper turn arguments and results into counts
(points tabulated, LU fill, GMRES iterations, ...), so each count is taken
at the boundary where the work happens.  An observer is the benchmark's own
work, so its wall and CPU time are taken out of every span still open when
it runs.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "parent", "rep", "name", "start", "end", "cpu_start", "cpu_end",
                 "excluded", "cpu_excluded")

    def __init__(self, id, parent, rep, name, start, cpu_start):
        self.id = id
        self.parent = parent
        self.rep = rep
        self.name = name
        self.start = start
        self.end = start
        self.cpu_start = cpu_start
        self.cpu_end = cpu_start
        # observer time spent while this span was open
        self.excluded = 0.0
        self.cpu_excluded = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start - self.excluded

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start - self.cpu_excluded

    def as_row(self) -> list:
        return [self.rep, self.id, self.parent, self.name, self.start, self.end,
                self.cpu_start, self.cpu_end, self.excluded, self.cpu_excluded]


class Recorder:
    """Records nested spans; ``patch`` installs wrappers, ``restore`` removes them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.rep = 0
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.rep, name,
                    time.perf_counter(), time.process_time())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu_end = time.process_time()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def wrap(self, fn, name: str, observe=None):
        """``fn`` recording a span per call; ``observe(counts, args, kwargs, result)``
        runs after the span has closed, and its time is excluded from the
        spans that enclose it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if observe is not None:
                t0, c0 = time.perf_counter(), time.process_time()
                observe(self.counts, args, kwargs, result)
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                for open_span in self._stack:
                    open_span.excluded += wall
                    open_span.cpu_excluded += cpu
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` (module or class attribute) by a recording wrapper."""
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, observe))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def rep_spans(self, rep: int) -> list[Span]:
        return [s for s in self.spans if s.rep == rep]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its child spans.

    Spans close in stack order, so children never overlap each other or
    outlive their parent.
    """
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out
