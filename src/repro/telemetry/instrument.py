"""Metric names and the analyst label the serve stack instruments with.

One module owns the metric-family vocabulary so the pipeline, the
sharded front end, the audit workers, the compliance gate, the
accountant, the benchmarks, and the CI smoke all agree on names — the
smoke asserts these exact families appear in the Prometheus export.
The serve drivers time their own steps
(:class:`~repro.service.pipeline.ServePipeline`); nothing here imports
the service layer, so ``repro.telemetry`` stays a leaf package the whole
stack can depend on.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

__all__ = [
    "ADMISSION_REJECTS",
    "AUDIT_ERRORS",
    "AUDIT_ESCALATIONS",
    "AUDIT_PASS_SECONDS",
    "AUDIT_QUEUE_DEPTH",
    "AUDIT_QUEUE_DEPTH_PEAK",
    "BREAKER_TRIPS",
    "BUDGET_EPSILON_REMAINING",
    "BUDGET_EPSILON_SPENT",
    "CACHE_ENTRIES",
    "CACHE_EVICTIONS",
    "CACHE_HITS",
    "CACHE_MISSES",
    "COMPLIANCE_DENIALS",
    "COMPLIANCE_REQUIRE_SECONDS",
    "LEASE_RECONCILIATIONS",
    "REQUESTS_TOTAL",
    "STAGE_SECONDS",
    "analyst_digest_prefix",
]

# -- serve pipeline ---------------------------------------------------------
#: Per-step serving latency, labeled (stage, shard, mechanism).  The fused
#: cached-replay path reports under stage="cache_hit_fastpath".
STAGE_SECONDS = "repro_serve_stage_seconds"
#: Requests served, labeled (shard, mechanism, analyst=digest prefix).
REQUESTS_TOTAL = "repro_requests_total"
#: Admission refusals, labeled (reason, shard); pre-created at zero.
ADMISSION_REJECTS = "repro_admission_rejects_total"

# -- caches -----------------------------------------------------------------
CACHE_HITS = "repro_cache_hits_total"
CACHE_MISSES = "repro_cache_misses_total"
CACHE_EVICTIONS = "repro_cache_evictions_total"
CACHE_ENTRIES = "repro_cache_entries"

# -- audit workers ----------------------------------------------------------
AUDIT_QUEUE_DEPTH = "repro_audit_queue_depth"
AUDIT_QUEUE_DEPTH_PEAK = "repro_audit_queue_depth_peak"
AUDIT_PASS_SECONDS = "repro_audit_pass_seconds"
AUDIT_ESCALATIONS = "repro_audit_escalations_total"
AUDIT_ERRORS = "repro_audit_errors_total"
BREAKER_TRIPS = "repro_breaker_trips_total"

# -- compliance gate --------------------------------------------------------
COMPLIANCE_REQUIRE_SECONDS = "repro_compliance_require_seconds"
COMPLIANCE_DENIALS = "repro_compliance_denials_total"

# -- budget accounting ------------------------------------------------------
BUDGET_EPSILON_SPENT = "repro_budget_epsilon_spent"
BUDGET_EPSILON_REMAINING = "repro_budget_epsilon_remaining"
LEASE_RECONCILIATIONS = "repro_lease_reconciliations_total"


@lru_cache(maxsize=4096)
def analyst_digest_prefix(analyst: str) -> str:
    """A short, stable, non-identifying label for one analyst.

    Four hex characters of a BLAKE2b digest: enough to tell sessions
    apart on a dashboard without writing raw analyst names into metric
    labels (which outlive the session and leave the process via
    exporters).
    """
    return hashlib.blake2b(analyst.encode("utf-8"), digest_size=2).hexdigest()
