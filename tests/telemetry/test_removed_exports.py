"""repro.telemetry keeps what its consumers read: the removed surface stays removed.

CI, the benchmarks and the experiments read one registry of counters,
latency histograms and sampled callbacks, one snapshot, the Prometheus
text, ``diff`` and E18's span tree.  Each name and keyword below was read
only by the package's own tests.
"""

import importlib

import numpy as np
import pytest

from repro.service import QueryServer
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_TELEMETRY,
    Histogram,
    MetricsRegistry,
    SpanRecorder,
    Telemetry,
    resolve_telemetry,
    snapshot,
)

REMOVED_NAMES = [
    ("repro.telemetry", "to_json"),
    ("repro.telemetry", "Gauge"),
    ("repro.telemetry", "CounterPoint"),
    ("repro.telemetry", "GaugePoint"),
    ("repro.telemetry.export", "to_json"),
    ("repro.telemetry.export", "CounterPoint"),
    ("repro.telemetry.export", "GaugePoint"),
    ("repro.telemetry.metrics", "Gauge"),
    ("repro.telemetry.metrics", "CallbackCounter"),
    ("repro.telemetry.metrics", "CallbackGauge"),
    ("repro.telemetry.tracing", "_Unsampled"),
]


@pytest.mark.parametrize(
    "module, name", REMOVED_NAMES, ids=[f"{m}.{n}" for m, n in REMOVED_NAMES]
)
def test_removed_name_is_gone(module, name):
    imported = importlib.import_module(module)
    assert not hasattr(imported, name)
    assert name not in getattr(imported, "__all__", ())


def test_removed_attributes_are_gone():
    registry = MetricsRegistry()
    for name in ("gauge", "snapshot"):
        assert not hasattr(registry, name), name
    assert not hasattr(snapshot(registry), "families")
    histogram = Histogram("h")
    for name in ("counts", "sum", "count", "bounds"):
        assert not hasattr(histogram, name), name
    recorder = SpanRecorder()
    for name in ("total_recorded", "traces", "capacity", "sample_every"):
        assert not hasattr(recorder, name), name
    for facade in (Telemetry(), NULL_TELEMETRY):
        assert not hasattr(facade, "spans"), facade


REMOVED_KEYWORDS = [
    ("Histogram", lambda **kw: Histogram("h", **kw), "bounds", (1.0,)),
    ("MetricsRegistry", lambda **kw: MetricsRegistry(**kw), "stripes", 4),
    ("SpanRecorder", lambda **kw: SpanRecorder(**kw), "sample_every", 2),
    ("SpanRecorder", lambda **kw: SpanRecorder(**kw), "capacity", 8),
    ("Telemetry", lambda **kw: Telemetry(**kw), "registry", MetricsRegistry()),
    ("Telemetry", lambda **kw: Telemetry(**kw), "spans", SpanRecorder()),
    ("Telemetry", lambda **kw: Telemetry(**kw), "clock", lambda: 0.0),
]


@pytest.mark.parametrize(
    "call, keyword, value",
    [(call, keyword, value) for _, call, keyword, value in REMOVED_KEYWORDS],
    ids=[f"{target}-{keyword}" for target, _, keyword, _ in REMOVED_KEYWORDS],
)
def test_removed_keyword_is_a_type_error(call, keyword, value):
    with pytest.raises(TypeError, match=keyword):
        call(**{keyword: value})


def test_registry_histogram_buckets_are_fixed():
    # Keywords to ``histogram`` are labels, so the old ``bounds=`` option
    # now only names a series; its buckets are the latency buckets.
    registry = MetricsRegistry()
    registry.histogram("h_seconds", bounds="custom").observe(3.0)
    point = snapshot(registry).histogram_point("h_seconds", bounds="custom")
    assert len(point.counts) == len(DEFAULT_LATENCY_BUCKETS) + 1


@pytest.mark.parametrize("flag", [True, False])
def test_boolean_telemetry_is_a_type_error(flag):
    with pytest.raises(TypeError, match="telemetry must be"):
        resolve_telemetry(flag)
    with pytest.raises(TypeError, match="telemetry must be"):
        QueryServer(np.zeros(8, dtype=int), telemetry=flag)
