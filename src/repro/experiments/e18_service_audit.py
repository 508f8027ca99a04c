"""E18 — the query service catches an LP-reconstruction attacker online.

"Linear Program Reconstruction in Practice" [13] ran the Dinur-Nissim LP
attack against a production statistical-query server.  E18 stages that
deployment story end to end against :class:`repro.service.QueryServer`: an
*attacker* session streams random subset workloads (the Theorem 1.1(ii)
workload) through a Laplace mechanism while the server's online
:class:`~repro.service.audit.ReconstructionAuditor` replays the session's
own audit log through LP decoding after every ``n/8`` fresh queries.  The
auditor must trip the attacker's circuit breaker while the replayed
agreement — which *is* the attacker's current reconstruction capability,
since the auditor runs exactly the attacker's computation — is still below
the 0.9 blatant-non-privacy bar.

Two benign sessions run alongside: a *dashboard* analyst who repeats a
small fixed query panel (almost all cache hits, zero marginal privacy
spend) and a *researcher* who asks enough distinct queries to be audited
but far too few to reconstruct.  Neither may be flagged.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.experiments.runner import ExperimentResult, register
from repro.queries.workload import Workload
from repro.service import (
    BasicAccountant,
    CircuitBreakerTripped,
    QueryServer,
    ReconstructionAuditor,
)
from repro.utils.rng import derive_rng
from repro.utils.tables import Table


@register("E18")
def run(
    seed: int = 0,
    quick: bool = False,
    audit_dispatch: str = "inline",
    trace: bool = False,
) -> ExperimentResult:
    """Serve attacker + benign sessions; report the auditor's verdicts.

    ``audit_dispatch="background"`` replays the same deployment through
    :class:`~repro.service.AuditWorkerPool`: verdicts are computed by
    background auditor workers off the serving path, with a flush after
    every workload batch so each pass lands before the next batch's
    compliance check — the trip point, replayed agreements, and every
    headline value are bit-identical to the inline run.  The default stays
    inline so the golden headlines are the single-threaded reference.

    ``trace=True`` wraps each phase of the deployment in
    :class:`~repro.telemetry.SpanRecorder` spans and appends the rendered
    span tree as an extra table — where the experiment's wall-clock time
    went (attack batches vs. audit passes vs. benign traffic).  Span ids
    come from a counter and durations from the monotonic clock, so every
    headline value is bit-identical with tracing on or off.
    """
    n = 128 if quick else 256
    epsilon_per_query = 0.25
    threshold = 0.8
    batch = n // 8
    max_batches = 64

    if trace:
        from repro.telemetry import SpanRecorder

        recorder = SpanRecorder()
    else:
        recorder = None

    def span(name, **annotations):
        if recorder is None:
            return nullcontext()
        return recorder.span(name, **annotations)

    data = derive_rng(seed, "e18-data").integers(0, 2, size=n)
    auditor = ReconstructionAuditor(
        data,
        agreement_threshold=threshold,
        audit_every=n // 8,
        min_queries=n // 4,
        alpha=None,  # Laplace noise is unbounded: replay with least-l1.
        # Screen passes with the first-order decoder; any pass within the
        # margin of the trip bar is re-decided by the exact LP replay, so
        # verdicts (and the agreement at trip) match the pure-LP auditor.
        # Once the attacker's pass escalates, later passes skip the screen
        # and run the LP alone: least-l1 never reads the screened point.
        screen="l2",
        # Each screened pass starts from the previous pass's solution.
        # Verdicts are still LP-decided, and the full headline is
        # bit-identical to cold passes for this seed.
        warm_start_passes=True,
    )
    # Budget generous enough that the auditor, not the ledger, is the
    # binding defense (basic composition would allow ~4x more queries).
    accountant = BasicAccountant(per_analyst_epsilon=4.0 * epsilon_per_query * n)
    server = QueryServer(
        data,
        mechanism="laplace",
        mechanism_params={"epsilon_per_query": epsilon_per_query},
        accountant=accountant,
        auditor=auditor,
        seed=seed,
        audit_dispatch=audit_dispatch,
    )

    # --- attacker: streams fresh random workloads until the breaker opens.
    attacker = server.session("attacker")
    attack_rng = derive_rng(seed, "e18-attack")
    queries_served = 0
    tripped = False
    agreement_at_trip = float("nan")
    with span("e18", n=n, dispatch=audit_dispatch) as root:
        with span("attack"):
            for index in range(max_batches):
                workload = Workload.random(n, batch, rng=attack_rng)
                try:
                    with span("attack_batch", batch=index, queries=len(workload)):
                        attacker.ask_workload(workload)
                        # Under a background dispatch, wait for the pass this
                        # batch may have signalled; the verdict then gates the
                        # next batch exactly where the inline auditor would
                        # have tripped.
                        server.audit_dispatch.flush()
                    queries_served += len(workload)
                except CircuitBreakerTripped as refusal:
                    tripped = True
                    agreement_at_trip = refusal.report.agreement
                    break

        # --- benign dashboard: a fixed 24-query panel, re-asked every round.
        dashboard = server.session("dashboard")
        panel = Workload.random(n, 24, rng=derive_rng(seed, "e18-panel"))
        replay_drift = 0.0
        with span("dashboard", panel=len(panel)):
            first_round = dashboard.ask_workload(panel)
            for _ in range(24):
                replay = dashboard.ask_workload(panel)
                replay_drift = max(
                    replay_drift, float(np.abs(replay - first_round).max())
                )

        # --- benign researcher: distinct queries, enough to be audited.
        researcher = server.session("researcher")
        with span("researcher"):
            researcher.ask_workload(
                Workload.random(
                    n, n // 4 + n // 8, rng=derive_rng(seed, "e18-research")
                )
            )
        # Settle any in-flight background passes before reading verdicts, and
        # retire worker threads; both are no-ops for the inline dispatch.
        with span("drain"):
            server.close()

    trajectory = Table(
        ["unique queries", "replayed agreement", "flagged"],
        title="E18: auditor passes over the attacker's transcript",
    )
    for report in auditor.reports:
        if report.analyst != "attacker":
            continue
        trajectory.add_row(
            [report.unique_queries, f"{report.agreement:.3f}", report.flagged]
        )

    # The per-query rate the server actually charges is read back off the
    # served mechanism's spec — the same object the accountant charged.
    served_epsilon = server.mechanism_spec("attacker").spend.epsilon
    sessions = Table(
        ["analyst", "served", "charged", "epsilon spent", "cache hit rate", "flagged"],
        title=f"E18: sessions on one n={n} Laplace server (eps/query = {served_epsilon})",
    )
    for name in ("attacker", "dashboard", "researcher"):
        session = server.session(name)
        served = len(server.audit_log.records(name))
        sessions.add_row(
            [
                name,
                served,
                session.queries_charged,
                f"{session.epsilon_spent:.2f}",
                f"{session.cache.hit_rate:.3f}",
                auditor.is_tripped(name),
            ]
        )

    tables = [trajectory, sessions]
    if recorder is not None:
        trace_table = Table(
            ["span"], title="E18: where the deployment's wall-clock time went"
        )
        for line in recorder.render(root.trace_id).splitlines():
            trace_table.add_row([line])
        tables.append(trace_table)

    return ExperimentResult(
        experiment_id="E18",
        title="Online reconstruction audit of a statistical-query service",
        paper_claim=(
            "LP reconstruction works against deployed query servers [13]; an "
            "operator watching its own query log can detect the attack "
            "transcript before reconstruction becomes blatant (agreement >= 0.9)"
        ),
        tables=tuple(tables),
        headline={
            "attacker_flagged": tripped,
            "agreement_at_trip": agreement_at_trip,
            "queries_served_before_trip": queries_served,
            "audit_passes": len(auditor.reports),
            "dashboard_flagged": auditor.is_tripped("dashboard"),
            "researcher_flagged": auditor.is_tripped("researcher"),
            "dashboard_cache_hit_rate": server.session("dashboard").cache.hit_rate,
            "dashboard_replay_drift": replay_drift,
            "attacker_epsilon_spent": server.session("attacker").epsilon_spent,
        },
    )
