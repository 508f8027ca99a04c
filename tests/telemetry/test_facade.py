"""Tests for the Telemetry/NullTelemetry facades and env resolution."""

import pytest

import repro.telemetry as telemetry_module
from repro.telemetry import (
    NULL_TELEMETRY,
    TELEMETRY_ENV,
    NullTelemetry,
    Telemetry,
    default_telemetry,
    resolve_telemetry,
)


class TestFacades:
    def test_null_is_singleton_and_disabled(self):
        assert NullTelemetry() is NULL_TELEMETRY
        assert NULL_TELEMETRY.enabled is False
        assert NULL_TELEMETRY.registry is None

    def test_null_snapshot_is_empty(self):
        snap = NULL_TELEMETRY.snapshot()
        assert snap.counters == () and snap.gauges == () and snap.histograms == ()

    def test_enabled_facade_owns_a_registry(self):
        telemetry = Telemetry()
        assert telemetry.enabled is True
        telemetry.registry.counter("c_total").inc()
        assert telemetry.snapshot().counter_value("c_total") == 1.0
        assert Telemetry().registry is not telemetry.registry


class TestResolve:
    def test_instances_pass_through(self):
        telemetry = Telemetry()
        assert resolve_telemetry(telemetry) is telemetry
        assert resolve_telemetry(NULL_TELEMETRY) is NULL_TELEMETRY

    def test_none_consults_environment(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV, raising=False)
        assert resolve_telemetry(None) is NULL_TELEMETRY
        monkeypatch.setenv(TELEMETRY_ENV, "1")
        assert resolve_telemetry(None) is default_telemetry()
        monkeypatch.setenv(TELEMETRY_ENV, "0")
        assert resolve_telemetry(None) is NULL_TELEMETRY

    def test_truthy_spellings(self, monkeypatch):
        for spelling in ("1", "true", "YES", " on "):
            monkeypatch.setenv(TELEMETRY_ENV, spelling)
            assert resolve_telemetry(None).enabled, spelling

    def test_rejects_junk(self):
        with pytest.raises(TypeError, match="telemetry must be"):
            resolve_telemetry("yes")

    def test_default_is_process_shared(self):
        assert default_telemetry() is default_telemetry()
        assert isinstance(default_telemetry(), Telemetry)

    def test_module_exports_resolve(self):
        for name in telemetry_module.__all__:
            assert hasattr(telemetry_module, name), name
        assert list(telemetry_module.__all__) == sorted(telemetry_module.__all__)
