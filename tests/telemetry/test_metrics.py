"""Tests for the metric primitives and the registry."""

import sys
import threading

import pytest

from repro.telemetry.export import snapshot
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    canonical_labels,
)


class TestCounter:
    def test_increments(self):
        counter = Counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        counter = Counter("c_total")
        with pytest.raises(ValueError, match=">= 0"):
            counter.inc(-1)

    def test_concurrent_increments_lose_nothing(self):
        counter = Counter("c_total")

        def bump():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000.0


class TestHistogram:
    def test_buckets_values_inclusively(self):
        hist = Histogram("h")
        for value in (5e-7, 1e-6, 2e-6, 4e-6, 100.0):
            hist.observe(value)
        counts, total, count = hist.read()
        # bisect_left over inclusive upper edges: 5e-7 and 1e-6 land in the
        # first bucket (le=1e-6), 2e-6 in le=2.5e-6, 4e-6 in le=5e-6, and
        # 100 s overflows past the last bound.
        assert counts[:3] == (2, 1, 1)
        assert counts[3:-1] == (0,) * (len(DEFAULT_LATENCY_BUCKETS) - 3)
        assert counts[-1] == 1
        assert count == 5
        assert total == pytest.approx(100.0000075)

    def test_default_bounds_are_latency_shaped(self):
        counts, _, _ = Histogram("h").read()
        assert len(counts) == len(DEFAULT_LATENCY_BUCKETS) + 1
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(set(DEFAULT_LATENCY_BUCKETS))
        assert DEFAULT_LATENCY_BUCKETS[0] == 1e-6 and DEFAULT_LATENCY_BUCKETS[-1] == 10.0

    def test_read_is_consistent(self):
        hist = Histogram("h")
        hist.observe(0.5)
        hist.observe(30.0)
        counts, total, count = hist.read()
        assert counts[DEFAULT_LATENCY_BUCKETS.index(0.5)] == 1
        assert counts[-1] == 1
        assert sum(counts) == count == 2
        assert total == pytest.approx(30.5)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", shard="0")
        b = registry.counter("c_total", shard="0")
        assert a is b

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", shard="0", stage="execute")
        b = registry.counter("c_total", stage="execute", shard="0")
        assert a is b

    def test_different_labels_are_different_series(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", shard="0")
        b = registry.counter("c_total", shard="1")
        assert a is not b
        assert len(registry) == 2

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m", shard="0")
        with pytest.raises(TypeError, match="is a counter"):
            registry.histogram("m", shard="0")
        with pytest.raises(TypeError, match="is a counter"):
            registry.gauge_fn("m", lambda: 1.0, shard="0")

    def test_concurrent_get_or_create_makes_one_instrument_per_key(self):
        # Eight threads race for the same keys through the one creation
        # lock; every thread must get the instrument the others got.
        registry = MetricsRegistry()
        keys = [("c_total", str(shard)) for shard in range(64)] + [
            ("h_seconds", str(shard)) for shard in range(64)
        ]
        start = threading.Barrier(8)
        seen: list[list] = []

        def grab():
            start.wait(timeout=10.0)
            got = []
            for name, shard in keys:
                factory = registry.counter if name == "c_total" else registry.histogram
                got.append(factory(name, shard=shard))
            seen.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grab) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8
        assert len(registry) == len(keys)
        for got in seen[1:]:
            assert all(a is b for a, b in zip(got, seen[0]))

    def test_callback_counter_sampled_at_snapshot(self):
        registry = MetricsRegistry()
        hits = {"n": 0}
        registry.counter_fn("hits_total", lambda: float(hits["n"]))
        assert snapshot(registry).counter_value("hits_total") == 0.0
        hits["n"] = 7
        assert snapshot(registry).counter_value("hits_total") == 7.0

    def test_callback_failure_repeats_last_sample(self):
        registry = MetricsRegistry()
        state = {"value": 3.0, "broken": False}

        def read():
            if state["broken"]:
                raise RuntimeError("component gone")
            return state["value"]

        registry.gauge_fn("depth", read)
        assert snapshot(registry).gauge_value("depth") == 3.0
        state["broken"] = True
        assert snapshot(registry).gauge_value("depth") == 3.0

    def test_callback_reregistration_rebinds(self):
        registry = MetricsRegistry()
        registry.counter_fn("hits_total", lambda: 1.0)
        registry.counter_fn("hits_total", lambda: 5.0)
        assert snapshot(registry).counter_value("hits_total") == 5.0

    def test_callback_cannot_take_over_stored_counter(self):
        registry = MetricsRegistry()
        registry.counter("c_total")
        with pytest.raises(TypeError, match="stored counter"):
            registry.counter_fn("c_total", lambda: 1.0)

    def test_canonical_labels_stringify(self):
        assert canonical_labels({"shard": 3, "a": "x"}) == (
            ("a", "x"),
            ("shard", "3"),
        )
