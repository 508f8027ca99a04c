"""Tests for the curated top-level API."""

import json
import os
import subprocess
import sys

import repro


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_symbols_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_game_flow_via_top_level(self):
        from repro.data.distributions import uniform_bits_distribution

        game = repro.PSOGame(
            uniform_bits_distribution(16),
            50,
            repro.ConstantMechanism(),
            repro.TrivialAttacker("negligible"),
        )
        result = game.run(10, rng=0)
        assert result.success.trials == 10

    def test_all_is_sorted(self):
        symbols = list(repro.__all__)
        assert symbols == sorted(symbols)

    def test_derivation_api_via_top_level(self):
        # The legal derivation surface is a first-class export: a claim
        # derived from an established premise comes back as a verdict.
        check = repro.TheoremCheck(
            theorem="smoke", claim="c", passed=True, measurements={}
        )
        premise = repro.TechnicalPremise(
            identifier="P1", statement="measured", evidence=check
        )
        from repro.legal.claims import LegalClaim

        claim = LegalClaim(identifier="C1", conclusion="ok", rule="P1 => C1")
        verdict = repro.derive(claim, [], [premise])
        assert isinstance(verdict, repro.LegalVerdict)

    def test_compliance_surface_via_top_level(self):
        assert issubclass(repro.ComplianceDenied, RuntimeError)
        for name in (
            "ComplianceCertificate",
            "CompliancePipeline",
            "ComplianceDenied",
        ):
            assert getattr(repro, name) is not None

    def test_subpackages_importable(self):
        import importlib

        for name in (
            "repro.utils",
            "repro.data",
            "repro.privacy",
            "repro.queries",
            "repro.dp",
            "repro.anonymity",
            "repro.reconstruction",
            "repro.core",
            "repro.attacks",
            "repro.legal",
            "repro.lm",
            "repro.ml",
            "repro.compliance",
            "repro.service",
            "repro.synth",
            "repro.telemetry",
            "repro.experiments",
        ):
            module = importlib.import_module(name)
            assert module.__doc__, f"{name} is missing a module docstring"

    def test_subpackage_all_symbols_resolve(self):
        import importlib

        for name in (
            "repro.utils",
            "repro.data",
            "repro.privacy",
            "repro.queries",
            "repro.dp",
            "repro.anonymity",
            "repro.core",
            "repro.attacks",
            "repro.legal",
            "repro.reconstruction",
            "repro.compliance",
            "repro.service",
            "repro.synth",
            "repro.telemetry",
        ):
            module = importlib.import_module(name)
            for symbol in getattr(module, "__all__", []):
                assert hasattr(module, symbol), f"{name}.{symbol}"

    def test_telemetry_surface_via_top_level(self):
        # The observability surface is a first-class export: an isolated
        # registry records, and snapshot() freezes it.
        registry = repro.MetricsRegistry()
        registry.counter("repro_test_total", shard="0").inc(3)
        snap = repro.snapshot(registry)
        assert snap.counter_value("repro_test_total", shard="0") == 3.0
        recorder = repro.SpanRecorder()
        with recorder.span("root"):
            pass
        assert [span.name for span in recorder.spans()] == ["root"]


def test_serving_imports_load_neither_scipy_stats_nor_networkx():
    # The end-to-end workloads import these modules.  The intervals take
    # their quantiles from scipy.special, and the graph modules only E17
    # runs are imported by their full paths.
    code = (
        "import json, sys\n"
        "import repro, repro.service, repro.compliance, repro.queries.mechanism, "
        "repro.reconstruction.sharding\n"
        "print(json.dumps([m for m in ('scipy.stats', 'networkx') if m in sys.modules]))"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert json.loads(child.stdout) == []
