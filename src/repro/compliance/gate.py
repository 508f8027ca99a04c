"""Runtime enforcement: the gate the service consults before serving.

:class:`ComplianceGate` is the O(1) runtime half of the subsystem.  The
expensive work — running verifiers, deriving the legal verdict — happens
offline in :class:`~repro.compliance.pipeline.CompliancePipeline`; the
gate only *holds approvals*: :meth:`ComplianceGate.approve` validates a
certificate against the live release object once (tamper check + binding
check) and records its release fingerprint, and :meth:`require` is a
fingerprint lookup.  The gated :class:`~repro.service.server.QueryServer`
calls :meth:`require` at mechanism-spec registration and fallback
activation — never on the per-query hot path — so approval costs nothing
per answer.

Refusals are the typed :class:`ComplianceDenied`, mirroring the sharded
front end's :class:`~repro.service.sharded.Rejected`: no budget charge, no
cache entry, no audit-log *answer* record (the denial itself is noted in
the log's denial channel).
"""

from __future__ import annotations

import threading

from repro.compliance.certificate import ComplianceCertificate, release_fingerprint
from repro.compliance.policy import Policy

__all__ = ["ComplianceDenied", "ComplianceGate"]


class ComplianceDenied(RuntimeError):
    """The gate refused a release; nothing was served, charged, or cached.

    Attributes:
        subject: what was refused (e.g. ``"mechanism-spec"``).
        analyst: the session the refusal hit ("" for server-level events).
        reason: machine-readable cause (``"no-certificate"``,
            ``"denied-certificate"``, ``"fingerprint-mismatch"``,
            ``"policy-mismatch"``, ``"unspecified-release"``).
        failing: identifiers of the failed checks, when a denial
            certificate names them.
    """

    def __init__(
        self,
        message: str,
        *,
        subject: str,
        analyst: str = "",
        reason: str,
        failing: tuple[str, ...] = (),
    ):
        super().__init__(message)
        self.subject = subject
        self.analyst = analyst
        self.reason = reason
        self.failing = tuple(failing)


class ComplianceGate:
    """Thread-safe registry of approved release fingerprints.

    Args:
        policy: when set, :meth:`approve` additionally requires every
            certificate to have been issued under this exact policy
            (compared by content fingerprint), so a gate can't be fed
            approvals minted against a laxer policy.
    """

    def __init__(self, policy: Policy | None = None, *, telemetry=None):
        self.policy = policy
        self._approved: dict[str, ComplianceCertificate] = {}
        self._lock = threading.Lock()
        self._telemetry = None
        if telemetry is not None and getattr(telemetry, "enabled", False):
            self.bind_telemetry(telemetry)

    def bind_telemetry(self, telemetry) -> None:
        """Register this gate's lookup-latency and denial metrics.

        Idempotent: the gate is shared across shards, every shard server
        binds it, and the first bind wins.  ``require`` runs off the
        per-query hot path (spec registration, fallback activation), so
        timing it costs nothing per answer.
        """
        if self._telemetry is not None or not getattr(telemetry, "enabled", False):
            return
        from repro.telemetry.instrument import COMPLIANCE_REQUIRE_SECONDS

        self._require_hist = telemetry.registry.histogram(
            COMPLIANCE_REQUIRE_SECONDS
        )
        # Published last: ``require`` times itself only once the histogram
        # exists, so a gate already serving can be bound.
        self._telemetry = telemetry

    def approve(
        self, certificate: ComplianceCertificate, release: object
    ) -> str:
        """Validate ``certificate`` against the live ``release``; register it.

        Returns the registered release fingerprint.  Raises
        :class:`ComplianceDenied` when the certificate was a denial, was
        issued under a different policy, was tampered with, or does not
        bind these exact release bits.
        """
        subject = certificate.subject
        if self.policy is not None and (
            certificate.policy.fingerprint() != self.policy.fingerprint()
        ):
            raise ComplianceDenied(
                f"certificate for {subject!r} was issued under policy "
                f"{certificate.policy.name!r}, gate enforces "
                f"{self.policy.name!r}",
                subject=subject,
                reason="policy-mismatch",
            )
        if not certificate.approved:
            raise ComplianceDenied(
                f"certificate for {subject!r} is a denial "
                f"(failing: {', '.join(certificate.failing)})",
                subject=subject,
                reason="denied-certificate",
                failing=certificate.failing,
            )
        if certificate.tampered():
            raise ComplianceDenied(
                f"certificate for {subject!r} fails its own content "
                "fingerprint (tampered fields)",
                subject=subject,
                reason="fingerprint-mismatch",
            )
        if not certificate.binds(release):
            raise ComplianceDenied(
                f"certificate for {subject!r} does not bind this release "
                "(the certified bits were mutated)",
                subject=subject,
                reason="fingerprint-mismatch",
            )
        with self._lock:
            self._approved[certificate.release_fingerprint] = certificate
        return certificate.release_fingerprint

    def require(
        self, release: object, *, subject: str = "release", analyst: str = ""
    ) -> ComplianceCertificate:
        """The runtime check: return the approval or refuse, typed.

        One fingerprint of the release (cheap and off the per-query path)
        and one dict lookup.  With telemetry bound, the lookup is timed
        and denials are counted by reason and failing requirement.
        """
        if self._telemetry is None:
            return self._require(release, subject=subject, analyst=analyst)
        clock = self._telemetry.clock
        start = clock()
        try:
            return self._require(release, subject=subject, analyst=analyst)
        except ComplianceDenied as denial:
            from repro.telemetry.instrument import COMPLIANCE_DENIALS

            registry = self._telemetry.registry
            for requirement in denial.failing or (denial.reason,):
                registry.counter(
                    COMPLIANCE_DENIALS,
                    reason=denial.reason,
                    requirement=requirement,
                ).inc()
            raise
        finally:
            self._require_hist.observe(clock() - start)

    def _require(
        self, release: object, *, subject: str = "release", analyst: str = ""
    ) -> ComplianceCertificate:
        if release is None:
            raise ComplianceDenied(
                f"{subject!r} declares no certifiable release object",
                subject=subject,
                analyst=analyst,
                reason="unspecified-release",
            )
        fingerprint = release_fingerprint(release)
        with self._lock:
            certificate = self._approved.get(fingerprint)
        if certificate is None:
            raise ComplianceDenied(
                f"no valid compliance certificate for {subject!r} "
                f"(release {fingerprint})",
                subject=subject,
                analyst=analyst,
                reason="no-certificate",
            )
        return certificate

    @property
    def approved_count(self) -> int:
        with self._lock:
            return len(self._approved)

    def __repr__(self) -> str:
        policy = self.policy.name if self.policy is not None else None
        return f"ComplianceGate(policy={policy!r}, approved={self.approved_count})"
