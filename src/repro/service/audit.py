"""Audit log and the online reconstruction-risk auditor.

"Linear Program Reconstruction in Practice" (Cohen-Nissim, [13] in the
paper) ran the Dinur-Nissim LP attack against a *production* query server;
the lesson for operators is that the query log itself is the attack
transcript.  This module turns that observation into a defense: the server
appends every interaction to a structured :class:`AuditLog`, and a
:class:`ReconstructionAuditor` periodically replays each analyst's logged
(query, answer) transcript through the repository's own LP decoder
(:func:`repro.reconstruction.lp_decode.reconstruct_from_answers`) and
measures the agreement of the resulting candidate with the true private
data.  The agreement *is* the analyst's current reconstruction capability
— the auditor runs exactly the computation the attacker would — so when it
crosses the configured threshold the auditor trips a per-analyst circuit
breaker and the server refuses further queries from that session.

Cached answers are replayed too (they were released), but duplicate
fingerprints are collapsed: a repeated query adds no LP constraint, which
is precisely why the answer cache is privacy-neutral.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from repro.privacy.kernels import MechanismSpec

from repro.queries.query import _validate_binary
from repro.queries.workload import Workload
from repro.reconstruction.l2_decode import l2_decode
from repro.reconstruction.lp_decode import _check_alpha, reconstruct_from_answers

#: Recognized auditor screening modes.
SCREEN_MODES = ("lp", "l2")

#: Default safety margin (in agreement) below the trip threshold under
#: which the cheap l2 screen is trusted without confirming via the LP.
DEFAULT_SCREEN_MARGIN = 0.15


class CircuitBreakerTripped(RuntimeError):
    """The auditor has flagged this analyst; the server refuses to answer.

    Attributes:
        analyst: the flagged session.
        report: the :class:`AuditReport` that tripped the breaker.
    """

    def __init__(self, message: str, *, analyst: str, report: "AuditReport"):
        super().__init__(message)
        self.analyst = analyst
        self.report = report


@dataclass(frozen=True)
class AuditRecord:
    """One served query, as the append-only log stores it.

    The packed mask is retained so the auditor can rebuild the exact
    workload the analyst holds; ``cached`` marks answers replayed from the
    cache (free, and redundant for reconstruction).
    """

    seq: int
    analyst: str
    fingerprint: bytes
    n: int
    query_size: int
    packed_mask: bytes
    answer: float
    cached: bool
    epsilon: float
    timestamp: float
    #: Where the answer came from: ``"mechanism"`` for the interactive
    #: noise mechanism, ``"synthetic"`` for the pre-paid fallback release.
    source: str = "mechanism"

    def to_dict(self) -> dict:
        """A JSON-serializable view (fingerprint and mask hex-encoded)."""
        return {
            "seq": self.seq,
            "analyst": self.analyst,
            "fingerprint": self.fingerprint.hex(),
            "n": self.n,
            "query_size": self.query_size,
            "packed_mask": self.packed_mask.hex(),
            "answer": self.answer,
            "cached": self.cached,
            "epsilon": self.epsilon,
            "timestamp": self.timestamp,
            "source": self.source,
        }

    def mask(self) -> np.ndarray:
        """The query's boolean membership mask, unpacked."""
        return np.unpackbits(
            np.frombuffer(self.packed_mask, dtype=np.uint8), count=self.n
        ).astype(bool)


@dataclass(frozen=True)
class ReleaseRecord:
    """One synthetic release noted in the audit log.

    The release's :class:`~repro.privacy.kernels.MechanismSpec` is logged
    whole so an auditor can replay the fallback's provenance: which
    kernel, what spend, charged to which analyst's budget.
    """

    seq: int
    analyst: str
    spec: "MechanismSpec"
    timestamp: float


@dataclass(frozen=True)
class CertificateRecord:
    """One compliance approval consulted by the gated server.

    Logged whenever a gated registration or fallback activation is served
    under a valid :class:`~repro.compliance.certificate.
    ComplianceCertificate`; the certificate's content address and the
    release fingerprint it binds make the approval independently
    re-checkable from the log alone.
    """

    seq: int
    analyst: str
    subject: str
    fingerprint: str
    release_fingerprint: str
    timestamp: float


@dataclass(frozen=True)
class DenialRecord:
    """One compliance refusal: the release the server would not serve.

    Denials live in their own channel — they are *not* answer records
    (nothing was released), so ``len(log)`` and the reconstruction
    auditor's transcripts are untouched, but the refusal itself is
    durable evidence.
    """

    seq: int
    analyst: str
    subject: str
    reason: str
    message: str
    timestamp: float


class AuditLog:
    """Append-only, thread-safe structured log of every served query."""

    def __init__(self):
        self._records: list[AuditRecord] = []
        self._releases: list[ReleaseRecord] = []
        self._certificates: list[CertificateRecord] = []
        self._denials: list[DenialRecord] = []
        self._lock = threading.Lock()
        self._seq = 0
        # Per-analyst append-order index, plus an incremental cursor for
        # unique_records: (seen fingerprints, unique list, rows consumed).
        # Background audit workers poll the log after every append burst,
        # so the effective-transcript query must cost O(new records), not
        # O(whole log).
        self._by_analyst: dict[str, list[AuditRecord]] = {}
        self._unique_cursors: dict[str, tuple[set, list, int]] = {}

    def append(
        self,
        analyst: str,
        fingerprint: bytes,
        mask: np.ndarray,
        answer: float,
        cached: bool,
        epsilon: float,
        source: str = "mechanism",
        *,
        packed_mask: bytes | None = None,
        query_size: int | None = None,
    ) -> AuditRecord:
        """Append one served query; the log assigns the sequence number.

        The server already bit-packs each mask to fingerprint it, so the
        hot path hands the packed bytes and query size in via the keyword
        arguments rather than paying for a second ``packbits``/``sum`` —
        and all mask work stays outside the log's lock either way.
        """
        n = int(np.asarray(mask).size)
        if packed_mask is None or query_size is None:
            record_mask = np.asarray(mask, dtype=bool)
            if packed_mask is None:
                packed_mask = np.packbits(record_mask).tobytes()
            if query_size is None:
                query_size = int(np.count_nonzero(record_mask))
        answer = float(answer)
        cached = bool(cached)
        epsilon = float(epsilon)
        with self._lock:
            record = AuditRecord(
                seq=self._seq,
                analyst=analyst,
                fingerprint=fingerprint,
                n=n,
                query_size=int(query_size),
                packed_mask=packed_mask,
                answer=answer,
                cached=cached,
                epsilon=epsilon,
                timestamp=time.time(),
                source=source,
            )
            self._records.append(record)
            rows = self._by_analyst.get(analyst)
            if rows is None:
                rows = self._by_analyst[analyst] = []
            rows.append(record)
            self._seq += 1
            return record

    def note_release(self, analyst: str, spec: "MechanismSpec") -> ReleaseRecord:
        """Record a synthetic release (its full mechanism spec) in the log."""
        with self._lock:
            record = ReleaseRecord(
                seq=self._seq,
                analyst=analyst,
                spec=spec,
                timestamp=time.time(),
            )
            self._releases.append(record)
            self._seq += 1
            return record

    @property
    def releases(self) -> tuple[ReleaseRecord, ...]:
        """Every noted synthetic release, in append order."""
        with self._lock:
            return tuple(self._releases)

    def note_certificate(self, analyst: str, certificate) -> CertificateRecord:
        """Record a consulted compliance approval (fingerprints only)."""
        with self._lock:
            record = CertificateRecord(
                seq=self._seq,
                analyst=analyst,
                subject=certificate.subject,
                fingerprint=certificate.fingerprint,
                release_fingerprint=certificate.release_fingerprint,
                timestamp=time.time(),
            )
            self._certificates.append(record)
            self._seq += 1
            return record

    def note_denial(
        self, analyst: str, subject: str, reason: str, message: str = ""
    ) -> DenialRecord:
        """Record a compliance refusal (its own channel, not an answer)."""
        with self._lock:
            record = DenialRecord(
                seq=self._seq,
                analyst=analyst,
                subject=subject,
                reason=reason,
                message=message,
                timestamp=time.time(),
            )
            self._denials.append(record)
            self._seq += 1
            return record

    @property
    def certificates(self) -> tuple[CertificateRecord, ...]:
        """Every consulted compliance approval, in append order."""
        with self._lock:
            return tuple(self._certificates)

    @property
    def denials(self) -> tuple[DenialRecord, ...]:
        """Every compliance refusal, in append order."""
        with self._lock:
            return tuple(self._denials)

    def __len__(self) -> int:
        return len(self._records)

    def records(self, analyst: str | None = None) -> tuple[AuditRecord, ...]:
        """All records (optionally one analyst's), in append order."""
        with self._lock:
            if analyst is None:
                return tuple(self._records)
            return tuple(self._by_analyst.get(analyst, ()))

    def unique_records(self, analyst: str) -> tuple[AuditRecord, ...]:
        """One record per distinct fingerprint (first release wins).

        This is the analyst's effective reconstruction transcript: repeats
        replay the same released answer and add no information.  Computed
        incrementally — only records appended since the previous call are
        scanned — so the auditor's per-append cadence check stays cheap on
        long transcripts.
        """
        with self._lock:
            rows = self._by_analyst.get(analyst)
            if rows is None:
                return ()
            cursor = self._unique_cursors.get(analyst)
            if cursor is None:
                seen: set[bytes] = set()
                unique: list[AuditRecord] = []
                consumed = 0
            else:
                seen, unique, consumed = cursor
            for record in rows[consumed:]:
                if record.fingerprint not in seen:
                    seen.add(record.fingerprint)
                    unique.append(record)
            self._unique_cursors[analyst] = (seen, unique, len(rows))
            return tuple(unique)

    def export_jsonl(self, path) -> int:
        """Write the log as JSON lines; returns the number of records."""
        snapshot = self.records()
        with open(path, "w", encoding="utf-8") as handle:
            for record in snapshot:
                handle.write(json.dumps(record.to_dict()) + "\n")
        return len(snapshot)


@dataclass(frozen=True)
class AuditReport:
    """One auditor pass over an analyst's transcript."""

    analyst: str
    queries_logged: int
    unique_queries: int
    agreement: float
    flagged: bool
    mode: str
    threshold: float
    elapsed_seconds: float = field(compare=False, default=0.0)
    #: Whether an l2-screening auditor decided the pass by the LP: the
    #: screen escalated, or was skipped after an earlier escalation
    #: (always ``False`` for pure-LP auditors).
    escalated: bool = False
    #: Whether the analyst's stored solution (``warm_start_passes``) reached
    #: a decoder that reads it: the l2 screen or a feasibility-mode LP.  An
    #: analyst's first pass is always cold, and so is a pass that runs only
    #: a least-l1 LP.
    warm_started: bool = False


class ReconstructionAuditor:
    """Replays analysts' logged transcripts through LP decoding.

    The auditor is server-side infrastructure and therefore holds the true
    private data: its agreement estimate is exact, not a proxy.  Auditing
    is *periodic* — a pass runs whenever an analyst has accumulated
    ``audit_every`` new unique queries past ``min_queries`` — because each
    pass costs an LP solve.  A pass whose agreement reaches
    ``agreement_threshold`` trips that analyst's circuit breaker; the
    threshold therefore sits *below* the blatant-non-privacy bar the
    operator wants to prevent (flag at 0.8 to stop reconstruction before it
    reaches 0.9), and the audit cadence bounds how much an analyst can
    learn between passes.

    Args:
        data: the server's private binary dataset.
        agreement_threshold: trip when replayed agreement reaches this.
        audit_every: run a pass every this-many new unique queries.
        min_queries: no pass before an analyst has this many unique queries
            (the LP is meaningless far below ``m ~ n``).
        alpha: feasibility slack for the replay LP; ``None`` uses least-l1
            decoding (the right mode for unbounded-noise mechanisms).
            The replay LP runs HiGHS's :data:`~repro.reconstruction.
            lp_decode.DEFAULT_LP_SOLVER` algorithm.
        screen: ``"lp"`` replays every pass through the LP decoder (the
            original behavior).  ``"l2"`` first replays through the cheap
            first-order decoder (:func:`repro.reconstruction.l2_decode.
            l2_decode`) and only escalates to the confirming LP solve when
            the screened agreement lands within ``screen_margin`` of the
            trip threshold — so routine passes cost a first-order solve
            instead of an LP, while any pass that could possibly
            trip is still decided by the exact same LP solve (and therefore
            the same agreement value and verdict) as ``screen="lp"``.
            In least-l1 mode (no finite ``alpha``) the LP never reads the
            screened point, and an analyst who once came within the margin
            stays near the bar as the transcript grows; so after an
            analyst's first escalation, their later passes skip the screen
            and go straight to the LP.  With a finite ``alpha`` every pass
            is screened: the feasibility LP returns the screened point
            whenever it certifies.
        screen_margin: how far below the threshold the l2 agreement must
            stay for a screened pass to skip the confirming LP.
        warm_start_passes: start each pass's decoder from the previous
            pass's fractional solution for the same analyst.  Consecutive
            passes differ by one ``audit_every`` window of queries, so the
            old solution is near-optimal for the new system — the l2 screen
            converges in a fraction of its cold iterations, and a
            feasibility-mode LP replay can certify the warm candidate
            outright.  Off by default: a warm-started screen can converge
            to a *different* (equally valid) fractional point, so enabling
            it may change screened agreement values; verdicts near the trip
            threshold are still decided by the exact LP either way.  The
            state is kept only while a later pass reads it: never for a
            least-l1 LP, not after an analyst's passes stop screening, and
            not after the pass that trips the analyst's breaker.
    """

    def __init__(
        self,
        data: np.ndarray,
        agreement_threshold: float = 0.8,
        audit_every: int = 64,
        min_queries: int = 64,
        alpha: float | None = None,
        screen: str = "lp",
        screen_margin: float = DEFAULT_SCREEN_MARGIN,
        warm_start_passes: bool = False,
    ):
        data = np.asarray(data)
        self._data = _validate_binary(data, data.size)
        if not 0.5 < agreement_threshold <= 1.0:
            raise ValueError("agreement_threshold must lie in (0.5, 1.0]")
        if audit_every <= 0:
            raise ValueError("audit_every must be positive")
        if min_queries <= 0:
            raise ValueError("min_queries must be positive")
        _check_alpha(alpha)
        if screen not in SCREEN_MODES:
            raise ValueError(f"unknown screen mode {screen!r}; known: {SCREEN_MODES}")
        if screen_margin < 0:
            raise ValueError("screen_margin must be non-negative")
        self.agreement_threshold = float(agreement_threshold)
        self.audit_every = int(audit_every)
        self.min_queries = int(min_queries)
        self.alpha = alpha
        self.screen = screen
        self.screen_margin = float(screen_margin)
        self.warm_start_passes = bool(warm_start_passes)
        self._lock = threading.Lock()
        self._audited_at: dict[str, int] = {}
        self._tripped: dict[str, AuditReport] = {}
        self._reports: list[AuditReport] = []
        # Last pass's fractional solution per analyst (warm-start state).
        self._warm: dict[str, np.ndarray] = {}
        # A least-l1 LP reads no start point: neither the stored solution
        # nor the screened one.
        self._least_l1 = alpha is None or not np.isfinite(alpha)
        # Analysts whose screened pass escalated in least-l1 mode: their
        # later passes go straight to the LP.
        self._escalated: set[str] = set()

    @property
    def reports(self) -> tuple[AuditReport, ...]:
        """Every pass run so far, in order."""
        with self._lock:
            return tuple(self._reports)

    def is_tripped(self, analyst: str) -> bool:
        """Whether ``analyst``'s circuit breaker is open."""
        with self._lock:
            return analyst in self._tripped

    def tripped_report(self, analyst: str) -> AuditReport | None:
        """The report that tripped ``analyst``, if any."""
        with self._lock:
            return self._tripped.get(analyst)

    def check(self, analyst: str) -> None:
        """Raise :class:`CircuitBreakerTripped` if ``analyst`` is flagged."""
        report = self.tripped_report(analyst)
        if report is not None:
            raise CircuitBreakerTripped(
                f"analyst {analyst!r} flagged by the reconstruction auditor "
                f"(replayed agreement {report.agreement:.3f} >= "
                f"{report.threshold})",
                analyst=analyst,
                report=report,
            )

    def maybe_audit(self, log: AuditLog, analyst: str) -> AuditReport | None:
        """Run a pass if the analyst crossed the next audit checkpoint."""
        unique = log.unique_records(analyst)
        with self._lock:
            if analyst in self._tripped:
                return None
            last = self._audited_at.get(analyst, 0)
            due = (
                len(unique) >= self.min_queries
                and len(unique) - last >= self.audit_every
            )
            if not due:
                return None
            # Claim the checkpoint inside the lock so concurrent callers
            # cannot both launch the same (expensive) pass.
            self._audited_at[analyst] = len(unique)
        return self._audit_records(log, analyst, unique)

    def audit(self, log: AuditLog, analyst: str) -> AuditReport | None:
        """Run a pass now (cadence ignored); ``None`` if too few queries."""
        unique = log.unique_records(analyst)
        if len(unique) < self.min_queries:
            return None
        with self._lock:
            self._audited_at[analyst] = len(unique)
        return self._audit_records(log, analyst, unique)

    def _audit_records(
        self, log: AuditLog, analyst: str, unique: Iterable[AuditRecord]
    ) -> AuditReport:
        unique = tuple(unique)
        start = time.perf_counter()
        workload = Workload(
            np.stack([record.mask() for record in unique]), copy=False
        )
        answers = np.array([record.answer for record in unique], dtype=float)
        with self._lock:
            warm = self._warm.get(analyst)
            screens = self.screen == "l2" and analyst not in self._escalated
        escalated = False
        if screens:
            screened = l2_decode(workload, answers, self.alpha, x0=warm)
            agreement = screened.agreement_with(self._data)
            mode = "l2-screen"
            final_fractional = screened.fractional
            if agreement >= self.agreement_threshold - self.screen_margin:
                # Near or above the trip bar: the verdict must come from
                # the exact LP replay, warm-started with the l2 iterate.
                escalated = True
                result = reconstruct_from_answers(
                    workload,
                    answers,
                    alpha=self.alpha,
                    warm_start=screened.fractional,
                )
                agreement = result.agreement_with(self._data)
                mode = result.mode
                final_fractional = result.fractional
        else:
            # A pure-LP auditor, or an l2 auditor past this analyst's first
            # least-l1 escalation: the screen would change nothing.
            escalated = self.screen == "l2"
            result = reconstruct_from_answers(
                workload,
                answers,
                alpha=self.alpha,
                warm_start=warm,
            )
            agreement = result.agreement_with(self._data)
            mode = result.mode
            final_fractional = result.fractional
        elapsed = time.perf_counter() - start
        report = AuditReport(
            analyst=analyst,
            queries_logged=len(log.records(analyst)),
            unique_queries=len(unique),
            agreement=agreement,
            flagged=agreement >= self.agreement_threshold,
            mode=mode,
            threshold=self.agreement_threshold,
            elapsed_seconds=elapsed,
            escalated=escalated,
            warm_started=warm is not None,
        )
        with self._lock:
            self._reports.append(report)
            trips = report.flagged and analyst not in self._tripped
            if trips:
                self._tripped[analyst] = report
                # maybe_audit never runs another pass for a tripped
                # analyst, so its state would be kept for nothing.
                self._escalated.discard(analyst)
                self._warm.pop(analyst, None)
                return report
            if escalated and self._least_l1:
                self._escalated.add(analyst)
            reads_warm = not self._least_l1 or (
                self.screen == "l2" and analyst not in self._escalated
            )
            if self.warm_start_passes and reads_warm:
                self._warm[analyst] = np.asarray(final_fractional, dtype=np.float64)
            else:
                self._warm.pop(analyst, None)
        return report
