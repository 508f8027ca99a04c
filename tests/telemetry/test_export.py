"""Tests for snapshots, the Prometheus renderer, and diff()."""

import pytest

from repro.telemetry import Telemetry
from repro.telemetry.export import diff, snapshot, to_prometheus
from repro.telemetry.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry


def buckets(*values):
    """Expected per-bucket counts, overflow last, for observed ``values``."""
    counts = [0] * (len(DEFAULT_LATENCY_BUCKETS) + 1)
    for value in values:
        index = next(
            (i for i, bound in enumerate(DEFAULT_LATENCY_BUCKETS) if value <= bound),
            len(DEFAULT_LATENCY_BUCKETS),
        )
        counts[index] += 1
    return tuple(counts)


def populated_registry():
    registry = MetricsRegistry()
    registry.counter("repro_requests_total", shard="0").inc(4)
    registry.gauge_fn("repro_depth", lambda: 2.0, pool="0")
    hist = registry.histogram("repro_latency_seconds")
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(50.0)
    return registry


class TestSnapshot:
    def test_accepts_registry_or_facade(self):
        telemetry = Telemetry()
        telemetry.registry.counter("c_total").inc()
        assert snapshot(telemetry) == snapshot(telemetry.registry)

    def test_rejects_non_registry(self):
        with pytest.raises(TypeError, match="MetricsRegistry"):
            snapshot(42)

    def test_equal_state_compares_equal(self):
        first = snapshot(populated_registry())
        second = snapshot(populated_registry())
        assert first == second

    def test_lookup_helpers(self):
        snap = snapshot(populated_registry())
        assert snap.counter_value("repro_requests_total", shard="0") == 4.0
        assert snap.counter_value("repro_requests_total", shard="9") is None
        assert snap.gauge_value("repro_depth", pool="0") == 2.0
        assert snap.gauge_value("repro_depth", pool="9") is None
        point = snap.histogram_point("repro_latency_seconds")
        assert point.counts == buckets(0.05, 0.5, 50.0)
        assert point.count == 3
        assert snap.histogram_point("repro_latency_seconds", pool="0") is None


class TestPrometheusText:
    def test_type_lines_and_samples(self):
        text = to_prometheus(snapshot(populated_registry()))
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{shard="0"} 4' in text
        assert "# TYPE repro_depth gauge" in text
        assert 'repro_depth{pool="0"} 2' in text

    def test_histogram_renders_cumulative_with_inf(self):
        text = to_prometheus(snapshot(populated_registry()))
        assert 'repro_latency_seconds_bucket{le="1e-06"} 0' in text
        assert 'repro_latency_seconds_bucket{le="0.05"} 1' in text
        assert 'repro_latency_seconds_bucket{le="0.5"} 2' in text
        assert 'repro_latency_seconds_bucket{le="10"} 2' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_latency_seconds_count 3" in text
        assert "repro_latency_seconds_sum 50.55" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", note='say "hi"\n').inc()
        text = to_prometheus(snapshot(registry))
        assert r'note="say \"hi\"\n"' in text

    def test_empty_snapshot_renders_empty(self):
        assert to_prometheus(snapshot(MetricsRegistry())) == ""


class TestDiff:
    def test_counters_subtract_pointwise(self):
        registry = populated_registry()
        before = snapshot(registry)
        registry.counter("repro_requests_total", shard="0").inc(6)
        window = diff(snapshot(registry), before)
        assert window.counter_value("repro_requests_total", shard="0") == 6.0

    def test_histograms_subtract_bucketwise(self):
        registry = populated_registry()
        before = snapshot(registry)
        registry.histogram("repro_latency_seconds").observe(0.5)
        window = diff(snapshot(registry), before)
        point = window.histogram_point("repro_latency_seconds")
        assert point.counts == buckets(0.5)
        assert point.count == 1
        assert point.sum == pytest.approx(0.5)

    def test_series_absent_from_old_keep_new_value(self):
        registry = populated_registry()
        before = snapshot(MetricsRegistry())
        window = diff(snapshot(registry), before)
        assert window.counter_value("repro_requests_total", shard="0") == 4.0
        assert window.histogram_point("repro_latency_seconds").counts == buckets(
            0.05, 0.5, 50.0
        )

    def test_gauges_carry_new_values(self):
        registry = populated_registry()
        before = snapshot(registry)
        registry.gauge_fn("repro_depth", lambda: 9.0, pool="0")
        window = diff(snapshot(registry), before)
        assert window.gauge_value("repro_depth", pool="0") == 9.0
