"""Tests of the end-to-end benchmark harness.

Run from the repository root with
``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import WRAP_TARGETS, NullTracer, Tracer, _resolve

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

#: Tiny sizes: (inputs keyword arguments) per workload.
TINY = {
    "hot_replay": {"seconds": 0.01},
    "session_churn": {"seconds": 0.01},
    "audited_attack": {"seconds": 0.0, "n": 128},
    "census_recon": {"seconds": 0.0, "blocks": 16},
}


def drive(name: str, seed: int = 0, tracer=None):
    spec = workloads.WORKLOADS[name]
    inputs = spec.inputs(seed, **TINY[name])
    return spec.drive(inputs, spec.deploy(inputs), tracer or NullTracer())


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_passes_its_checks(name):
    outcome = drive(name)
    assert outcome.attempted > 0
    assert outcome.failed == 0, outcome.failures
    assert outcome.throughput > 0
    assert len(outcome.latencies) > 0


@pytest.mark.parametrize("name", ["hot_replay", "session_churn", "census_recon"])
def test_same_seed_same_digest(name):
    assert drive(name, seed=5).digest == drive(name, seed=5).digest
    assert drive(name, seed=5).digest != drive(name, seed=6).digest


def test_cache_returning_wrong_answer_is_caught(monkeypatch):
    from repro.service.cache import AnswerCache

    original = AnswerCache.get

    def off_by_one(self, fingerprint):
        answer = original(self, fingerprint)
        return None if answer is None else answer + 1

    monkeypatch.setattr(AnswerCache, "get", off_by_one)
    outcome = drive("hot_replay")
    assert outcome.failed > 0
    assert any("differ from their first release" in f for f in outcome.failures)


def test_churn_runs_without_the_sharded_front_end(monkeypatch):
    import repro.service

    for name in ("ShardedQueryServer", "ShardedAccountant", "RateLimit"):
        monkeypatch.delattr(repro.service, name)
    outcome = drive("session_churn")
    assert outcome.failed == 0, outcome.failures


def test_missing_target_is_reported_not_raised():
    targets = (
        ("gone.method", "repro.service.cache:NoSuchCache.get"),
        ("gone.module", "repro.no_such_module:function"),
        ("cache.get", "repro.service.cache:AnswerCache.get"),
    )
    tracer = Tracer(targets).install()
    try:
        assert [name for name, _, _ in tracer.missing] == ["gone.method", "gone.module"]
    finally:
        tracer.uninstall()


def test_wrappers_are_gone_after_a_traced_run():
    owners = [_resolve(path)[:2] for _, path in WRAP_TARGETS]
    before = [vars(owner).get(attr) for owner, attr in owners]
    with Tracer() as tracer:
        drive("session_churn", tracer=tracer)
        during = [vars(owner).get(attr) for owner, attr in owners]
        assert all(now is not then for now, then in zip(during, before))
    after = [vars(owner).get(attr) for owner, attr in owners]
    assert all(now is then for now, then in zip(after, before))


def test_inherited_target_is_wrapped_and_removed_again():
    from repro.queries.mechanism import LaplaceAnswerer

    assert "answer" not in vars(LaplaceAnswerer)
    with Tracer((("laplace.answer", "repro.queries.mechanism:LaplaceAnswerer.answer"),)) as tracer:
        drive("hot_replay", tracer=tracer)
    assert "answer" not in vars(LaplaceAnswerer)
    assert tracer.summary()["laplace.answer"]["calls"] > 0


@pytest.mark.parametrize("name", ["hot_replay", "session_churn", "census_recon"])
def test_no_child_span_outlasts_its_parent(name):
    with Tracer() as tracer:
        drive(name, tracer=tracer)
    spans = tracer.summary()
    edges = tracer.edges()
    assert edges, "the traced run recorded no nested spans"
    for (parent, child), seconds in edges.items():
        assert seconds <= spans[parent]["total_s"], (parent, child)
    for span, entry in spans.items():
        assert entry.get("self_s", 0.0) >= 0.0, span


def test_traced_serving_run_covers_the_client_loop():
    with Tracer() as tracer:
        outcome = drive("hot_replay", tracer=tracer)
    inside, wall = outcome.client_windows[0]
    assert 0.5 < inside / wall <= 1.0
    spans = tracer.summary()
    for layer in ("server.ask", "cache.fingerprint", "cache.get", "audit_log.append",
                  "accounting.acquire", "mechanism.answer"):
        assert spans[layer]["calls"] > 0, layer


def test_names_match_benchmark_json():
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == run.per_layer_metrics()


def test_exits_nonzero_without_the_program(tmp_path):
    copy = tmp_path / "benchmarks" / "e2e"
    copy.mkdir(parents=True)
    for name in ("run.py", "tracer.py", "workloads.py"):
        shutil.copy(HERE / name, copy / name)
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "census_recon"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
