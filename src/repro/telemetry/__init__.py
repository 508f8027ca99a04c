"""repro.telemetry — metrics, tracing, and profiling for the serve stack.

The observability layer the production-scale story needs: per-step
serving latency, admission rejects by reason, cache hit/miss/eviction
counts per stripe, audit-pass backlog and latency, compliance denials,
and global epsilon remaining — all recorded by the components themselves
through the seams they already have, and exported as Prometheus text
from a frozen :func:`~repro.telemetry.export.snapshot`.

Three layers:

:mod:`~repro.telemetry.metrics`
    :class:`Counter`, fixed-bucket latency :class:`Histogram` and
    snapshot-time sampled counters and gauges in a
    :class:`MetricsRegistry`; O(1) record, no allocation on the hot path.
:mod:`~repro.telemetry.tracing`
    Span trees with monotonic-clock durations and a ring-buffer
    :class:`SpanRecorder`; ids from a counter, never from RNG.
:mod:`~repro.telemetry.export`
    Frozen snapshots, the Prometheus text renderer, and snapshot
    :func:`diff` for benchmarks.

**Enabling.**  Telemetry is *off* by default: every instrumented
component holds the :data:`NULL_TELEMETRY` singleton and pays exactly
one attribute check per request.  Set ``REPRO_TELEMETRY=1`` to route
every default-constructed component into one process-wide
:class:`Telemetry` (shared registry), pass an explicit :class:`Telemetry`
instance for isolated registries in tests and benchmarks, or pass
:data:`NULL_TELEMETRY` to keep a component uninstrumented whatever the
environment says.  Telemetry never touches RNG streams, lock ordering,
or served values: every answer is bit-identical with telemetry on or
off, and the tier-1 suite runs under ``REPRO_TELEMETRY=1`` in CI to pin
that.
"""

from __future__ import annotations

import os
import threading
import time

from repro.telemetry.export import (
    HistogramPoint,
    MetricsSnapshot,
    ScalarPoint,
    diff,
    snapshot,
    to_prometheus,
)
from repro.telemetry.instrument import analyst_digest_prefix
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.tracing import Span, SpanRecorder

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "HistogramPoint",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "ScalarPoint",
    "Span",
    "SpanRecorder",
    "TELEMETRY_ENV",
    "Telemetry",
    "analyst_digest_prefix",
    "default_telemetry",
    "diff",
    "resolve_telemetry",
    "snapshot",
    "to_prometheus",
]

#: Environment variable enabling default-on telemetry ("1"/"true"/"on").
TELEMETRY_ENV = "REPRO_TELEMETRY"

_TRUTHY = {"1", "true", "yes", "on"}


class Telemetry:
    """The enabled facade: one registry and the duration clock.

    ``clock`` is the duration source the serve drivers and gate timers
    read.  Instrumented components check :attr:`enabled` once and
    pre-resolve their instruments — the facade itself is never on a hot
    path.
    """

    enabled = True
    clock = time.perf_counter

    def __init__(self):
        self.registry = MetricsRegistry()

    def snapshot(self) -> MetricsSnapshot:
        """Freeze this telemetry's registry."""
        return snapshot(self.registry)

    def __repr__(self) -> str:
        return f"Telemetry(registry={self.registry!r})"


class NullTelemetry:
    """The disabled facade: one attribute check, nothing else.

    Components branch on ``telemetry.enabled`` exactly once per request
    (or once at construction); with the null facade that check is the
    entire cost of the subsystem.
    """

    enabled = False
    registry = None
    clock = time.perf_counter

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(counters=(), gauges=(), histograms=())

    def __repr__(self) -> str:
        return "NullTelemetry()"


#: The process-wide disabled singleton.
NULL_TELEMETRY = NullTelemetry()

_default_lock = threading.Lock()
_default: Telemetry | None = None


def default_telemetry() -> Telemetry:
    """The process-wide shared :class:`Telemetry` (created on first use).

    Everything enabled via ``REPRO_TELEMETRY=1`` lands here, so one
    snapshot sees the whole process — every shard, pool, and gate.
    """
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                _default = Telemetry()
    return _default


def resolve_telemetry(telemetry=None) -> Telemetry | NullTelemetry:
    """Normalize a ``telemetry`` argument into a facade instance.

    An explicit :class:`Telemetry`/:class:`NullTelemetry` passes through;
    ``None`` (the universal default) consults ``REPRO_TELEMETRY`` — which
    is how CI runs the whole tier-1 suite and the loadgen smoke
    instrumented without touching a single call site.
    """
    if isinstance(telemetry, (Telemetry, NullTelemetry)):
        return telemetry
    if telemetry is None:
        flag = os.environ.get(TELEMETRY_ENV, "").strip().lower()
        return default_telemetry() if flag in _TRUTHY else NULL_TELEMETRY
    raise TypeError(
        f"telemetry must be a Telemetry, NullTelemetry, or None; got {telemetry!r}"
    )
