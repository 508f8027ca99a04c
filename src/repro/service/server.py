"""The in-process statistical-query server.

:class:`QueryServer` is the deployment-shaped front end the paper's story
needs: analysts open named sessions and ask subset-count queries (one at a
time or as packed :class:`~repro.queries.workload.Workload` batches); the
server routes them through a configured answering mechanism, charges a
pluggable privacy accountant *before* computing anything, serves repeated
queries from a per-analyst answer cache for free, appends every release to
the audit log, and lets the online reconstruction auditor trip a
per-analyst circuit breaker.

A request runs the fixed steps of the two drivers of
:class:`repro.service.pipeline.ServePipeline`, one for a single query and
one for a workload (each step can refuse without side effects from the
later ones)::

    session.ask(q) ──► Admission ──► Compliance ──► CacheLookup
                       ──► BudgetReserve ──► Execute ──► CachePut
                       ──► AuditAppend ──► audit dispatch (inline/background)

``QueryServer`` owns the cross-request state (accountant, audit log,
analyst registry, synthetic fallback) and hands each request to its
pipeline, whose Execute step answers on the serving thread.
``audit_dispatch`` picks whether reconstruction-audit passes run on that
thread or on background workers (:mod:`repro.service.audit_worker`);
verdicts are bit-identical either way, by construction and by test.

When a :class:`~repro.compliance.gate.ComplianceGate` is configured, one
step precedes all of the above — at session *registration* (not per
query), the analyst's mechanism spec must hold a valid compliance
certificate on the gate, and the synthetic-fallback release must hold one
before it activates; refusals raise the typed
:class:`~repro.compliance.gate.ComplianceDenied` and leave no budget,
cache, or answer footprint.

Concurrency model: every analyst owns an answerer instance (same private
data, its own ``derive_rng(seed, "service", analyst)`` noise stream) and an
answer cache, and requests serialize per analyst.  Cross-analyst state (the
accountant, the audit log, the auditor) carries its own locks.  The result
is that a fixed server seed gives every analyst a bit-identical answer
stream regardless of how concurrent sessions interleave — determinism is
per session, which is the only kind an interactive service can promise.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.compliance.gate import ComplianceDenied, ComplianceGate
from repro.privacy.accounting import BasicAccountant
from repro.privacy.kernels import MechanismSpec
from repro.queries.mechanism import (
    BoundedNoiseAnswerer,
    ExactAnswerer,
    GaussianAnswerer,
    LaplaceAnswerer,
    QueryAnswerer,
    RoundingAnswerer,
    SubsamplingAnswerer,
)
from repro.queries.query import SubsetQuery, _validate_binary
from repro.queries.workload import Workload
from repro.service.audit import AuditLog, ReconstructionAuditor
from repro.service.audit_worker import AuditDispatch, resolve_audit_dispatch
from repro.service.cache import AnalystCacheView, AnswerCache
from repro.service.pipeline import ServePipeline
from repro.synth.binary import BinaryRelease, synthesize_binary
from repro.telemetry import NullTelemetry, Telemetry, resolve_telemetry
from repro.utils.rng import RngSeed, derive_rng

#: Mechanism spec -> factory(data, rng, **params).  "subsample" is the
#: subsample-and-aggregate style answerer; "exact" is the blatantly
#: non-private baseline the reconstruction experiments attack.
MECHANISM_FACTORIES: dict[str, Callable[..., QueryAnswerer]] = {
    "exact": lambda data, rng, **p: ExactAnswerer(data),
    "laplace": lambda data, rng, **p: LaplaceAnswerer(
        data, epsilon_per_query=p.get("epsilon_per_query", 0.5), rng=rng
    ),
    "gaussian": lambda data, rng, **p: GaussianAnswerer(
        data,
        epsilon_per_query=p.get("epsilon_per_query", 0.5),
        delta_per_query=p.get("delta_per_query", 1e-6),
        rng=rng,
    ),
    "subsample": lambda data, rng, **p: SubsamplingAnswerer(
        data, rate=p.get("rate", 0.5), rng=rng
    ),
    "bounded": lambda data, rng, **p: BoundedNoiseAnswerer(
        data,
        alpha=p.get("alpha", 1.0),
        shape=p.get("shape", "uniform"),
        rng=rng,
    ),
    "rounding": lambda data, rng, **p: RoundingAnswerer(data, step=p.get("step", 2)),
}


def make_answerer(
    mechanism: str | Callable[..., QueryAnswerer],
    data: np.ndarray,
    rng: RngSeed = None,
    **params,
) -> QueryAnswerer:
    """Build an answerer from a spec string or a ``(data, rng)`` callable."""
    if callable(mechanism):
        return mechanism(data, rng, **params)
    try:
        factory = MECHANISM_FACTORIES[mechanism]
    except KeyError:
        raise ValueError(
            f"unknown mechanism {mechanism!r}; known: {sorted(MECHANISM_FACTORIES)}"
        ) from None
    return factory(data, rng, **params)


def per_query_epsilon(answerer: QueryAnswerer) -> float:
    """The epsilon one answer costs, read off the answerer's mechanism spec.

    Non-DP mechanisms (exact, rounding, subsampling, bounded noise) declare
    a zero spend — no finite epsilon describes them, so the accountant can
    only bound them by query count (``max_queries_per_analyst``).  Answerers
    without a spec (third-party duck types) fall back to their
    ``epsilon_per_query`` attribute, else 0.
    """
    spec = getattr(answerer, "spec", None)
    if spec is not None:
        return float(spec.spend.epsilon)
    return float(getattr(answerer, "epsilon_per_query", 0.0))


@dataclass(frozen=True)
class SyntheticFallback:
    """Configuration of the server's synthetic-fallback mode.

    When enabled, the first analyst to exhaust their interactive budget
    triggers one MWEM release of the private vector
    (:func:`repro.synth.binary.synthesize_binary`), billed to the
    ``account`` pseudo-analyst at ``epsilon``.  From then on, budget-refused
    queries are answered *exactly on the synthetic vector* — deterministic
    post-processing of the one pre-paid release, at zero further epsilon —
    instead of failing with :class:`~repro.privacy.accounting.
    BudgetExhausted`.  The release's :class:`~repro.privacy.kernels.
    MechanismSpec` is recorded in the audit log
    (:meth:`~repro.service.audit.AuditLog.note_release`) and every fallback
    answer is logged with ``source="synthetic"``.

    Attributes:
        epsilon: one-time budget of the synthetic release.
        rounds: MWEM rounds for the fit.
        num_queries: size of the random fitting workload (default ``4 n``).
        density: per-position inclusion probability of the fitting workload.
        account: pseudo-analyst the release's charge is booked under.
    """

    epsilon: float = 1.0
    rounds: int = 10
    num_queries: int | None = None
    density: float = 0.5
    account: str = "synthetic-release"

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.rounds <= 0:
            raise ValueError(f"rounds must be positive, got {self.rounds}")
        if self.num_queries is not None and self.num_queries <= 0:
            raise ValueError(
                f"num_queries must be positive when set, got {self.num_queries}"
            )
        if not 0.0 < self.density < 1.0:
            raise ValueError(f"density must lie in (0, 1), got {self.density}")


class _FallbackHolder:
    """Shared once-only slot for the synthetic-fallback release.

    Lives outside :class:`QueryServer` so a sharded front end can hand the
    *same* holder to every shard: whichever shard first needs the fallback
    synthesizes (and pays for) it exactly once, and every other shard serves
    from the same release.
    """

    __slots__ = ("lock", "release")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.release: BinaryRelease | None = None


@dataclass
class _AnalystState:
    """Per-analyst serving state: answerer, spec, cache, serialization lock.

    The stored :class:`MechanismSpec` is the *auditable identity* of this
    analyst's mechanism: the epsilon the accountant charges per fresh query
    is ``spec.spend.epsilon``, the same object a DP verifier would test.
    """

    answerer: QueryAnswerer
    cache: AnswerCache | AnalystCacheView
    lock: threading.Lock
    epsilon_per_query: float
    spec: MechanismSpec | None = None


class AnalystSession:
    """One analyst's handle on the server; thin, cheap, reusable.

    The session resolves its :class:`_AnalystState` once at construction,
    so per-request serving never touches the server's analyst registry (and
    its lock) again — the hot path is registry-free.
    """

    def __init__(self, server: "QueryServer", analyst: str):
        self._server = server
        self.analyst = analyst
        self._state = server._state(analyst)

    def ask(self, query: SubsetQuery) -> float:
        """Answer one query (cache-first, budget-charged, logged)."""
        return self._server._serve(self._state, self.analyst, query)

    def ask_workload(self, workload: Workload | Sequence[SubsetQuery]) -> np.ndarray:
        """Answer a whole workload in one batched pass."""
        return self._server._serve_workload(self._state, self.analyst, workload)

    @property
    def epsilon_spent(self) -> float:
        """This analyst's composed epsilon so far."""
        return self._server.accountant.analyst_epsilon(self.analyst)

    @property
    def queries_charged(self) -> int:
        """Fresh (non-cached) queries charged to this analyst."""
        return self._server.accountant.analyst_queries(self.analyst)

    @property
    def spec(self) -> MechanismSpec | None:
        """The :class:`MechanismSpec` this analyst's answers come from."""
        return self._server.mechanism_spec(self.analyst)

    @property
    def cache(self) -> AnswerCache | AnalystCacheView:
        """This analyst's answer cache (hit statistics live here)."""
        return self._state.cache


class QueryServer:
    """Multi-analyst statistical-query service over one private dataset.

    Args:
        data: the private binary dataset, validated once here.
        mechanism: a spec from :data:`MECHANISM_FACTORIES` or a callable
            ``(data, rng, **params) -> QueryAnswerer``.
        mechanism_params: forwarded to the mechanism factory.
        accountant: the privacy ledger; defaults to an unlimited
            :class:`~repro.privacy.accounting.BasicAccountant`.
        auditor: an optional :class:`ReconstructionAuditor`; when set, every
            served request may trigger a replay pass and a tripped analyst
            is refused with ``CircuitBreakerTripped``.
        cache_entries: per-analyst cache capacity (``None`` = unbounded).
        seed: master seed; analyst noise streams derive from it by name.
        synthetic_fallback: ``True`` or a :class:`SyntheticFallback` config
            to answer budget-exhausted analysts from one pre-paid synthetic
            release instead of refusing them.
        compliance: an optional :class:`~repro.compliance.gate.
            ComplianceGate`.  When set, registering an analyst's mechanism
            spec and activating the synthetic-fallback release each require
            a valid approval on the gate; refusals raise the typed
            :class:`~repro.compliance.gate.ComplianceDenied` with zero
            budget/cache/answer footprint, and both approvals and denials
            are noted in the audit log.  The check runs at registration
            and activation only — never on the per-query hot path.
        audit_dispatch: how reconstruction-audit passes run — an
            :class:`~repro.service.audit_worker.AuditDispatch` instance,
            ``"inline"`` (default: passes run on the serving thread, the
            pre-refactor behavior), or ``"background"`` (a
            :class:`~repro.service.audit_worker.AuditWorkerPool` tails
            the audit log off the hot path).  Ignored without an auditor.
        telemetry: observability — a :class:`~repro.telemetry.Telemetry`
            instance (isolated registry),
            :data:`~repro.telemetry.NULL_TELEMETRY` (off), or ``None``
            (default) to consult ``REPRO_TELEMETRY``.  When enabled, the
            pipeline records per-step latency histograms, per-analyst
            request counts, and admission rejects, and shared components
            (accountant, gate, audit workers) bind their own gauges.
            Answers are bit-identical with telemetry on or off.
        shard_index: the ``shard`` label this server's metrics carry (a
            sharded front end numbers its shards; standalone servers are
            shard 0).
    """

    def __init__(
        self,
        data: np.ndarray,
        mechanism: str | Callable[..., QueryAnswerer] = "laplace",
        mechanism_params: dict | None = None,
        accountant: BasicAccountant | None = None,
        auditor: ReconstructionAuditor | None = None,
        cache_entries: int | None = None,
        seed: int = 0,
        synthetic_fallback: SyntheticFallback | bool | None = None,
        compliance: ComplianceGate | None = None,
        audit_dispatch: str | AuditDispatch | None = None,
        telemetry: Telemetry | NullTelemetry | None = None,
        shard_index: int = 0,
    ):
        array = np.asarray(data)
        self._data = _validate_binary(array, array.size)
        self.mechanism = mechanism
        self.mechanism_params = dict(mechanism_params or {})
        self.accountant = accountant if accountant is not None else BasicAccountant()
        self.auditor = auditor
        self.audit_log = AuditLog()
        self.cache_entries = cache_entries
        self.seed = seed
        if synthetic_fallback is True:
            synthetic_fallback = SyntheticFallback()
        elif synthetic_fallback is False:
            synthetic_fallback = None
        self.synthetic_fallback: SyntheticFallback | None = synthetic_fallback
        self.compliance = compliance
        self._fallback_holder = _FallbackHolder()
        # Optional analyst -> cache override; a sharded front end points this
        # at views onto one shared striped per-shard cache.
        self._cache_factory: Callable[[str], AnswerCache | AnalystCacheView] | None = None
        self._states: dict[str, _AnalystState] = {}
        self._states_lock = threading.Lock()
        self.telemetry = resolve_telemetry(telemetry)
        self.shard_index = int(shard_index)
        self.audit_dispatch = resolve_audit_dispatch(audit_dispatch, self.auditor)
        if self.telemetry.enabled:
            # Shared components (the sharded accountant, the gate, a
            # background audit pool) bind once — binds are idempotent, so
            # every shard of a front end calling in is harmless.
            for component in (self.accountant, self.compliance, self.audit_dispatch):
                bind = getattr(component, "bind_telemetry", None)
                if bind is not None:
                    bind(self.telemetry)
        self._pipeline = ServePipeline(self)

    @property
    def n(self) -> int:
        """Size of the private dataset."""
        return int(self._data.size)

    @property
    def analysts(self) -> tuple[str, ...]:
        """Analysts with open sessions, in creation order."""
        with self._states_lock:
            return tuple(self._states)

    def session(self, analyst: str) -> AnalystSession:
        """Open (or re-enter) the named analyst's session."""
        self._state(analyst)
        return AnalystSession(self, analyst)

    def mechanism_spec(self, analyst: str) -> MechanismSpec | None:
        """The named analyst's :class:`MechanismSpec` (None for duck-typed
        answerers that declare no spec)."""
        return self._state(analyst).spec

    @property
    def fallback_release(self) -> BinaryRelease | None:
        """The synthetic release, if it has been synthesized yet."""
        holder = self._fallback_holder
        with holder.lock:
            return holder.release

    def _fallback(self) -> BinaryRelease:
        """The pre-paid synthetic release, synthesized once on first need.

        The one-time charge is booked under the configured pseudo-analyst
        *before* sampling (raising :class:`BudgetExhausted` if even that is
        refused), the noise stream derives from the server seed — so the
        release, and every answer computed on it, is bit-deterministic for
        a fixed seed — and the release's spec goes into the audit log.
        """
        config = self.synthetic_fallback
        assert config is not None
        holder = self._fallback_holder
        with holder.lock:
            if holder.release is None:
                self.accountant.charge(config.account, 1, config.epsilon)
                try:
                    release = synthesize_binary(
                        self._data,
                        config.epsilon,
                        config.rounds,
                        num_queries=config.num_queries,
                        density=config.density,
                        rng=derive_rng(self.seed, "service", config.account),
                    )
                    if self.compliance is not None:
                        # Activation requires a pre-registered approval of
                        # these exact release bits (synthesis is seed-
                        # deterministic, so an operator certifies the same
                        # vector out of band).  A refusal rolls the charge
                        # back: zero budget footprint, nothing activated.
                        certificate = self.compliance.require(
                            release,
                            subject="synthetic-fallback",
                            analyst=config.account,
                        )
                        self.audit_log.note_certificate(
                            config.account, certificate
                        )
                except ComplianceDenied as denied:
                    self.accountant.refund(config.account, 1, config.epsilon)
                    self.audit_log.note_denial(
                        config.account, denied.subject, denied.reason, str(denied)
                    )
                    raise
                except BaseException:
                    self.accountant.refund(config.account, 1, config.epsilon)
                    raise
                self.audit_log.note_release(config.account, release.spec)
                holder.release = release
            return holder.release

    def _state(self, analyst: str) -> _AnalystState:
        with self._states_lock:
            state = self._states.get(analyst)
            if state is None:
                answerer = make_answerer(
                    self.mechanism,
                    self._data,
                    rng=derive_rng(self.seed, "service", analyst),
                    **self.mechanism_params,
                )
                spec = getattr(answerer, "spec", None)
                if self.compliance is not None:
                    # The gate runs once, at registration: an approved spec
                    # fingerprint admits the analyst, anything else refuses
                    # before any state, budget, cache, or answer exists.
                    try:
                        certificate = self.compliance.require(
                            spec, subject="mechanism-spec", analyst=analyst
                        )
                    except ComplianceDenied as denied:
                        self.audit_log.note_denial(
                            analyst, denied.subject, denied.reason, str(denied)
                        )
                        raise
                    self.audit_log.note_certificate(analyst, certificate)
                if self._cache_factory is not None:
                    cache = self._cache_factory(analyst)
                else:
                    cache = AnswerCache(max_entries=self.cache_entries)
                state = _AnalystState(
                    answerer=answerer,
                    cache=cache,
                    lock=threading.Lock(),
                    epsilon_per_query=per_query_epsilon(answerer),
                    spec=spec,
                )
                self._states[analyst] = state
                self._pipeline.register_analyst(analyst, cache)
            return state

    def ask(self, analyst: str, query: SubsetQuery) -> float:
        """Answer one query for ``analyst``; the single-query hot path."""
        return self._serve(self._state(analyst), analyst, query)

    def _serve(self, state: _AnalystState, analyst: str, query: SubsetQuery) -> float:
        """:meth:`ask` with the analyst state already in hand (sessions
        resolve it once, so repeated asks never touch the registry lock)."""
        return self._pipeline.serve_single(state, analyst, query)

    def ask_workload(
        self, analyst: str, workload: Workload | Sequence[SubsetQuery]
    ) -> np.ndarray:
        """Answer a packed workload for ``analyst`` in one batched pass.

        Cache hits (and within-workload duplicates) are free; the remaining
        unique queries are charged all-or-nothing — if the accountant
        refuses, *nothing* is answered, cached, or logged — then answered
        with one vectorized mechanism call.
        """
        return self._serve_workload(self._state(analyst), analyst, workload)

    def _serve_workload(
        self,
        state: _AnalystState,
        analyst: str,
        workload: Workload | Sequence[SubsetQuery],
    ) -> np.ndarray:
        """:meth:`ask_workload` with the analyst state already in hand."""
        return self._pipeline.serve_workload(state, analyst, workload)

    @property
    def pipeline(self) -> ServePipeline:
        """The serve drivers this server hands its requests to."""
        return self._pipeline

    def close(self) -> None:
        """Drain and release serving resources.

        Flushes and stops background audit workers, so every signalled
        pass has published its verdict.
        """
        self.audit_dispatch.flush()
        self.audit_dispatch.close()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        mechanism = self.mechanism if isinstance(self.mechanism, str) else "custom"
        return (
            f"QueryServer(n={self.n}, mechanism={mechanism!r}, "
            f"analysts={len(self.analysts)}, served={len(self.audit_log)})"
        )
