"""Interactive statistical-query service with privacy accounting.

The deployment layer the paper's story presumes: Dinur-Nissim style
reconstruction was demonstrated against a *production* query server
("Linear Program Reconstruction in Practice", [13]), and the legal-theorem
layer only bites once a mechanism sits behind an interface.  This
subpackage is that interface, in-process:

* :mod:`repro.service.pipeline` — the serve path every server hands
  requests to: one driver for a single ask and one for a workload, each
  running the same steps in order (Admission -> Compliance ->
  CacheLookup -> BudgetReserve -> Execute -> CachePut -> AuditAppend);
* :mod:`repro.service.server` — :class:`QueryServer`, multi-analyst
  sessions routing queries and workloads to a configured mechanism;
* :mod:`repro.privacy.accounting` — the per-analyst/global epsilon
  ledger :class:`BasicAccountant` (epsilons add) with all-or-nothing
  charges, typed :class:`BudgetExhausted` refusals, and the
  :class:`~repro.privacy.accounting.BudgetLease` reserve/rollback contract
  the BudgetReserve step holds;
* :mod:`repro.service.cache` — canonical query fingerprints and the answer
  cache that makes repeated queries free and bit-identical (consistency),
  plus the striped LRU cache concurrent sessions share;
* :mod:`repro.service.sharded` — :class:`ShardedQueryServer`, the
  hash-partitioned front end with leased global budgets, per-shard striped
  caches, and token-bucket admission control (typed :class:`Rejected`);
* :mod:`repro.service.audit` — the append-only audit log and the online
  :class:`ReconstructionAuditor` that replays logged transcripts through
  LP decoding and trips a per-analyst circuit breaker;
* :mod:`repro.service.audit_worker` — audit dispatch: run auditor passes
  inline (default) or on background workers tailing the log per analyst
  shard (:class:`AuditWorkerPool`).

Experiment E18 and ``benchmarks/bench_service_throughput.py`` exercise the
whole stack end to end.
"""

from repro.privacy.accounting import (
    BasicAccountant,
    BudgetExhausted,
    BudgetLease,
    ShardedAccountant,
    stable_shard,
)
from repro.service.audit import (
    AuditLog,
    AuditRecord,
    AuditReport,
    CertificateRecord,
    CircuitBreakerTripped,
    DenialRecord,
    ReconstructionAuditor,
    ReleaseRecord,
)
from repro.service.audit_worker import (
    AuditDispatch,
    AuditWorkerPool,
    InlineAuditDispatch,
    NullAuditDispatch,
    resolve_audit_dispatch,
)
from repro.service.cache import (
    AnalystCacheView,
    AnswerCache,
    StripedAnswerCache,
    query_fingerprint,
    workload_fingerprints,
)
from repro.service.pipeline import AdmissionControl, ServePipeline
from repro.service.server import (
    MECHANISM_FACTORIES,
    AnalystSession,
    QueryServer,
    SyntheticFallback,
    make_answerer,
    per_query_epsilon,
)
from repro.service.sharded import (
    RateLimit,
    Rejected,
    ShardedAnalystSession,
    ShardedQueryServer,
)

__all__ = [
    "AdmissionControl",
    "AnalystCacheView",
    "AnalystSession",
    "AnswerCache",
    "AuditDispatch",
    "AuditLog",
    "AuditRecord",
    "AuditReport",
    "AuditWorkerPool",
    "BasicAccountant",
    "BudgetExhausted",
    "BudgetLease",
    "CertificateRecord",
    "CircuitBreakerTripped",
    "DenialRecord",
    "InlineAuditDispatch",
    "MECHANISM_FACTORIES",
    "NullAuditDispatch",
    "QueryServer",
    "RateLimit",
    "ReconstructionAuditor",
    "Rejected",
    "ReleaseRecord",
    "ServePipeline",
    "ShardedAccountant",
    "ShardedAnalystSession",
    "ShardedQueryServer",
    "StripedAnswerCache",
    "SyntheticFallback",
    "make_answerer",
    "per_query_epsilon",
    "query_fingerprint",
    "resolve_audit_dispatch",
    "stable_shard",
    "workload_fingerprints",
]
