"""Tests for span trees and the ring buffer."""

import itertools

from repro.telemetry import tracing
from repro.telemetry.tracing import SpanRecorder


class FakeClock:
    """A deterministic clock advancing a fixed step per read."""

    def __init__(self, step=1.0):
        self._ticks = itertools.count()
        self._step = step

    def __call__(self):
        return next(self._ticks) * self._step


class TestSpanNesting:
    def test_child_inherits_trace_id(self):
        recorder = SpanRecorder(clock=FakeClock())
        with recorder.span("root") as root:
            with recorder.span("child") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
        spans = recorder.spans()
        assert [s.name for s in spans] == ["child", "root"]  # completion order
        assert spans[0].root is False
        assert spans[1].root is True

    def test_durations_come_from_injected_clock(self):
        recorder = SpanRecorder(clock=FakeClock(step=1.0))
        with recorder.span("root"):
            pass
        (span,) = recorder.spans()
        assert span.duration == 1.0  # exactly one tick elapsed

    def test_sibling_traces_get_distinct_ids(self):
        recorder = SpanRecorder(clock=FakeClock())
        with recorder.span("first"):
            pass
        with recorder.span("second"):
            pass
        first, second = recorder.spans()
        assert first.trace_id != second.trace_id

    def test_annotations_stringified(self):
        recorder = SpanRecorder(clock=FakeClock())
        with recorder.span("root", analyst="alice") as span:
            span.annotate("queries", 32)
        (completed,) = recorder.spans()
        assert completed.annotations == (("analyst", "alice"), ("queries", "32"))


class TestRingBuffer:
    def test_oldest_spans_overwritten(self, monkeypatch):
        monkeypatch.setattr(tracing, "SPAN_CAPACITY", 3)
        recorder = SpanRecorder(clock=FakeClock())
        for index in range(5):
            with recorder.span(f"s{index}"):
                pass
        assert [s.name for s in recorder.spans()] == ["s2", "s3", "s4"]

    def test_render_shows_indented_tree(self):
        recorder = SpanRecorder(clock=FakeClock())
        with recorder.span("serve") as root:
            with recorder.span("execute"):
                pass
        text = recorder.render(root.trace_id)
        lines = text.splitlines()
        assert lines[0].startswith("serve")
        assert lines[1].startswith("  execute")

    def test_render_degrades_when_parent_evicted(self, monkeypatch):
        monkeypatch.setattr(tracing, "SPAN_CAPACITY", 1)
        recorder = SpanRecorder(clock=FakeClock())
        with recorder.span("root") as root:
            with recorder.span("child"):
                pass
        # capacity=1: the completed child was overwritten by the root...
        # actually the root completes last, so only the root remains.
        text = recorder.render(root.trace_id)
        assert "root" in text
