"""Lightweight span trees: where a request's time actually went.

Metrics aggregate; traces explain.  A :class:`SpanRecorder` hands out
context-managed spans that nest per thread (child spans inherit their
parent's ``trace_id``), stamps them with durations from an injectable
monotonic clock, and keeps the most recent :data:`SPAN_CAPACITY`
completed spans in a ring buffer.

Two disciplines matter more here than features:

* **No RNG, ever.**  Trace and span ids come from a monotone counter,
  and no span is sampled away.  Served answers are a pure
  function of (construction path, RNG stream position); a tracer that
  consumed randomness — or perturbed iteration order — would break the
  repo-wide bit-identity contract.  This one touches neither.
* **Explicit clock injection.**  Tests drive a fake clock and assert
  exact durations; production uses ``time.monotonic``.  Durations never
  come from wall-clock time.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = ["Span", "SpanRecorder"]

#: Completed spans a recorder retains; older ones are overwritten.
SPAN_CAPACITY = 2048


@dataclass(frozen=True)
class Span:
    """One completed span: identity, tree position, and duration."""

    trace_id: int
    span_id: int
    parent_id: int | None
    name: str
    start: float
    duration: float
    annotations: tuple[tuple[str, str], ...] = ()

    @property
    def root(self) -> bool:
        return self.parent_id is None


@dataclass
class _ActiveSpan:
    """A span still open; becomes a frozen :class:`Span` on exit."""

    trace_id: int
    span_id: int
    parent_id: int | None
    name: str
    start: float
    annotations: list[tuple[str, str]] = field(default_factory=list)

    def annotate(self, key: str, value: object) -> None:
        """Attach a key/value note (stringified) to this span."""
        self.annotations.append((key, str(value)))


class SpanRecorder:
    """Ring buffer of the last :data:`SPAN_CAPACITY` completed spans.

    Args:
        clock: the monotonic time source durations are measured on.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._ring: deque[Span] = deque(maxlen=SPAN_CAPACITY)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, **annotations) -> Iterator[_ActiveSpan]:
        """Open a span nested under this thread's open span, if any."""
        parent = getattr(self._local, "current", None)
        span_id = next(self._ids)
        if parent is None:
            active = _ActiveSpan(span_id, span_id, None, name, self._clock())
        else:
            active = _ActiveSpan(
                parent.trace_id, span_id, parent.span_id, name, self._clock()
            )
        for key, value in annotations.items():
            active.annotate(key, value)
        self._local.current = active
        try:
            yield active
        finally:
            end = self._clock()
            self._local.current = parent
            span = Span(
                trace_id=active.trace_id,
                span_id=active.span_id,
                parent_id=active.parent_id,
                name=active.name,
                start=active.start,
                duration=end - active.start,
                annotations=tuple(active.annotations),
            )
            with self._lock:
                self._ring.append(span)

    def spans(self) -> tuple[Span, ...]:
        """Retained completed spans, oldest first."""
        with self._lock:
            return tuple(self._ring)

    def trace(self, trace_id: int) -> tuple[Span, ...]:
        """Retained spans of one trace, oldest first."""
        return tuple(s for s in self.spans() if s.trace_id == trace_id)

    def render(self, trace_id: int) -> str:
        """An indented text tree of one trace (children under parents).

        Spans whose parents were overwritten by the ring render at the
        top level — the tree degrades, it never raises.
        """
        spans = self.trace(trace_id)
        by_parent: dict[int | None, list[Span]] = {}
        present = {span.span_id for span in spans}
        for span in spans:
            parent = span.parent_id if span.parent_id in present else None
            by_parent.setdefault(parent, []).append(span)
        lines: list[str] = []

        def walk(parent: int | None, depth: int) -> None:
            for span in sorted(by_parent.get(parent, []), key=lambda s: s.start):
                note = "".join(
                    f" {key}={value}" for key, value in span.annotations
                )
                lines.append(
                    f"{'  ' * depth}{span.name}  {span.duration * 1e3:.3f} ms{note}"
                )
                walk(span.span_id, depth + 1)

        walk(None, 0)
        return "\n".join(lines)
