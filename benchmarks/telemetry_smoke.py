"""CI smoke: the telemetry stack observes a loaded sharded deployment.

Drives a :class:`~repro.service.ShardedQueryServer` — admission control,
striped caches, background audit workers, sharded accounting — under
``REPRO_TELEMETRY=1`` (an explicit facade is constructed when the flag is
absent, so the script also runs standalone) and then interrogates the
scrape output the way an operator's monitoring would:

- every serve step has exactly the expected number of latency samples,
  including the fused cache-hit fast path and the single-query miss lane
  (the script's traffic is deterministic, so the counts are too);
- admission rejects are counted *by reason*, with the rate-limit reject
  actually provoked (frozen token-bucket clock, burst exhausted);
- the audit worker pool's queue-depth gauge drains back to zero after a
  flush while its pass-latency histogram shows completed passes;
- every metric family the deployment can emit appears in the Prometheus
  text rendering: all of :mod:`repro.telemetry.instrument` except the two
  compliance families, which need a compliance gate (tier-1's
  ``TestComplianceInstrumentation`` checks those);
- a second scrape diffed against the first is monotone: no counter or
  histogram bucket moves backwards.

Exits non-zero (AssertionError) on any violation; prints a one-line
summary per check so CI logs double as a worked observability example.
"""

from __future__ import annotations

import sys

from repro.privacy.accounting import ShardedAccountant
from repro.queries.query import SubsetQuery
from repro.queries.workload import Workload
from repro.service import (
    RateLimit,
    ReconstructionAuditor,
    Rejected,
    ShardedQueryServer,
)
from repro.telemetry import Telemetry, diff, instrument, resolve_telemetry, to_prometheus
from repro.telemetry.instrument import (
    ADMISSION_REJECTS,
    AUDIT_PASS_SECONDS,
    AUDIT_QUEUE_DEPTH,
    BUDGET_EPSILON_SPENT,
    COMPLIANCE_DENIALS,
    COMPLIANCE_REQUIRE_SECONDS,
    REQUESTS_TOTAL,
    STAGE_SECONDS,
)
from repro.utils.rng import derive_rng

N = 96
SEED = 7
BURST = 8

#: Latency samples per step after the traffic below: the six batched
#: steps (three workloads; a single miss also times its last four), the
#: admission gate (every session request, rejects included), and the two
#: single-query lanes (the first of bob's two replays is sampled).
EXPECTED_STAGES = {
    "compliance": 3,
    "cache_lookup": 3,
    "budget_reserve": 12,
    "execute": 12,
    "cache_put": 12,
    "audit_append": 12,
    "admission": 17,
    "cache_hit_fastpath": 1,
    "single_miss": 9,
}

#: Every family the serve stack can emit, less the two that only a
#: compliance gate records; this deployment has no gate.
REQUIRED_FAMILIES = tuple(
    getattr(instrument, name)
    for name in instrument.__all__
    if name.isupper()
    and getattr(instrument, name) not in (COMPLIANCE_REQUIRE_SECONDS, COMPLIANCE_DENIALS)
)


def stage_count(snapshot, stage: str) -> int:
    """Total recorded samples for one stage name across shards/mechanisms."""
    return sum(
        point.count
        for point in snapshot.histograms
        if point.name == STAGE_SECONDS and dict(point.labels)["stage"] == stage
    )


def counter_total(snapshot, name: str, **labels) -> float:
    want = {key: str(value) for key, value in labels.items()}
    return sum(
        point.value
        for point in snapshot.counters
        if point.name == name and want.items() <= dict(point.labels).items()
    )


def main() -> int:
    telemetry = resolve_telemetry(None)
    if not telemetry.enabled:
        telemetry = Telemetry()

    data = derive_rng(SEED, "telemetry-smoke").integers(0, 2, size=N)
    # A watching-but-not-tripping auditor: the threshold sits at the legal
    # maximum and the audited analysts stop far short of reconstruction.
    auditor = ReconstructionAuditor(
        data,
        agreement_threshold=1.0,
        audit_every=8,
        min_queries=24,
        alpha=None,
        screen="l2",
    )
    server = ShardedQueryServer(
        data,
        mechanism="laplace",
        mechanism_params={"epsilon_per_query": 0.5},
        auditor=auditor,
        cache_entries=256,
        seed=SEED,
        shards=4,
        cache_stripes=4,
        # A global cap that never binds: it only adds the epsilon-remaining
        # gauge to the scrape.
        accountant=ShardedAccountant(global_epsilon=1e6, shards=4),
        rate_limit=RateLimit(rate=1000.0, burst=BURST),
        max_inflight_per_shard=8,
        # Frozen clock: token buckets never refill, so admission rejects
        # below are deterministic, not a race against wall time.
        clock=lambda: 0.0,
        audit_dispatch="background",
        telemetry=telemetry,
    )

    # --- batched traffic fills all six per-step histograms (fresh
    # workload = misses through the mechanism; replay = batched hits).
    alice = server.session("alice")
    panel = Workload.random(N, 48, rng=derive_rng(SEED, "smoke-panel"))
    alice.ask_workload(panel)
    alice.ask_workload(panel)

    # --- single asks exercise the fused miss and cache-hit fast paths.
    bob = server.session("bob")
    probe = SubsetQuery(derive_rng(SEED, "smoke-probe").integers(0, 2, size=N) > 0)
    bob.ask(probe)
    bob.ask(probe)

    # --- a greedy analyst burns its burst and gets rate-limited.
    greedy = server.session("greedy")
    rejected = 0
    for index in range(BURST + 3):
        try:
            greedy.ask(
                SubsetQuery(
                    derive_rng(SEED, "smoke-greedy", index).integers(0, 2, size=N) > 0
                )
            )
        except Rejected as refusal:
            assert refusal.reason == "rate_limit", refusal.reason
            rejected += 1
    assert rejected == 3, f"expected 3 rate-limit rejects, saw {rejected}"

    server.audit_dispatch.flush(timeout=30.0)
    first = telemetry.snapshot()

    # --- more traffic, then a second scrape for the monotonicity check.
    alice.ask_workload(panel)
    bob.ask(probe)
    server.audit_dispatch.flush(timeout=30.0)
    second = telemetry.snapshot()
    server.close()

    # 1. Every serve step timed exactly as often as the traffic says.
    for stage, expected in EXPECTED_STAGES.items():
        count = stage_count(second, stage)
        assert count == expected, (
            f"stage {stage!r} recorded {count} latency samples, expected {expected}"
        )
        print(f"stage ok: {stage} ({count} samples)")

    # 2. Admission rejects counted by reason; the provoked one is visible.
    rate_limited = counter_total(second, ADMISSION_REJECTS, reason="rate_limit")
    assert rate_limited == rejected, (rate_limited, rejected)
    for reason in ("rate_limit", "overload", "other"):
        assert any(
            point.name == ADMISSION_REJECTS
            and dict(point.labels)["reason"] == reason
            for point in second.counters
        ), f"reject reason {reason!r} missing from the scrape"
    print(f"admission ok: {rejected} rate-limit rejects, all reasons exported")

    # 3. Audit pool: passes ran off the hot path and the queue drained.
    passes = sum(
        point.count
        for point in second.histograms
        if point.name == AUDIT_PASS_SECONDS
    )
    assert passes >= 1, "no background audit pass latency recorded"
    depths = [
        point.value for point in second.gauges if point.name == AUDIT_QUEUE_DEPTH
    ]
    assert depths, "audit queue-depth gauge missing from the scrape"
    assert all(depth == 0.0 for depth in depths), (
        f"audit queue depth {depths} after flush"
    )
    print(f"audit ok: {passes} passes recorded, queue depth drained to 0")

    # 4. Required families present in the operator-facing scrape text.
    text = to_prometheus(second)
    for family in REQUIRED_FAMILIES:
        assert f"# TYPE {family} " in text, f"family {family} missing from scrape"
    print(f"scrape ok: all {len(REQUIRED_FAMILIES)} families present")

    # 5. Counters and histogram buckets only ever move forward.
    delta = diff(second, first)
    for point in delta.counters:
        assert point.value >= 0, f"counter went backwards: {point}"
    for point in delta.histograms:
        assert point.count >= 0 and all(c >= 0 for c in point.counts), (
            f"histogram went backwards: {point}"
        )
    served = counter_total(second, REQUESTS_TOTAL)
    spent = sum(
        point.value
        for point in second.gauges
        if point.name == BUDGET_EPSILON_SPENT
    )
    print(
        f"monotone ok: second scrape >= first "
        f"({served:.0f} requests, epsilon spent {spent:.2f})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
