"""repro — Privacy: From Database Reconstruction to Legal Theorems.

A comprehensive reproduction of Kobbi Nissim's PODS 2021 keynote paper:
every attack it surveys, the predicate-singling-out (PSO) framework it
contributes, and the legal-theorem layer it derives — all executable and
measured.

The package is organized by subsystem (see DESIGN.md for the inventory);
the most commonly used entry points are re-exported here:

* the PSO game and its cast —
  :class:`~repro.core.pso.PSOGame`,
  :class:`~repro.core.mechanisms.KAnonymityMechanism`,
  :class:`~repro.core.attackers.KAnonymityPSOAttacker`, ...
* the executable theorem checks —
  :class:`~repro.core.theorems.TheoremCheck` and the ``check_*``
  functions of :mod:`repro.core.theorems`;
* the legal layer —
  :func:`~repro.legal.theorems.legal_theorem_2_1`,
  :func:`~repro.legal.theorems.differential_privacy_assessment`, and the
  derivation API :func:`~repro.legal.claims.derive` /
  :class:`~repro.legal.claims.LegalVerdict`;
* the release-approval layer —
  :class:`~repro.compliance.pipeline.CompliancePipeline`,
  :class:`~repro.compliance.certificate.ComplianceCertificate`, and the
  typed refusal :class:`~repro.compliance.gate.ComplianceDenied`;
* the service layer —
  :class:`~repro.service.server.QueryServer`,
  :class:`~repro.service.audit.ReconstructionAuditor`, and the typed
  refusals :class:`~repro.privacy.accounting.BudgetExhausted` /
  :class:`~repro.service.audit.CircuitBreakerTripped`;
* the observability layer —
  :class:`~repro.telemetry.MetricsRegistry`,
  :class:`~repro.telemetry.SpanRecorder`, and
  :func:`~repro.telemetry.snapshot` (enable with ``REPRO_TELEMETRY=1``);
* the experiment harness —
  :func:`~repro.experiments.run_experiment` (E1–E21).

Quick tour::

    from repro import PSOGame, KAnonymityMechanism, KAnonymityPSOAttacker
    from repro.anonymity import AgreementAnonymizer
    from repro.data.distributions import uniform_bits_distribution

    game = PSOGame(uniform_bits_distribution(128), n=250,
                   mechanism=KAnonymityMechanism(AgreementAnonymizer(4)),
                   adversary=KAnonymityPSOAttacker("refine"))
    print(game.run(trials=100, rng=0))
"""

from repro.core.attackers import (
    CompositionAttacker,
    CountExploitingAttacker,
    IdentityAttacker,
    KAnonymityPSOAttacker,
    TrivialAttacker,
    build_composition_suite,
)
from repro.core.mechanisms import (
    ComposedMechanism,
    ConstantMechanism,
    CountMechanism,
    DPCountMechanism,
    IdentityMechanism,
    KAnonymityMechanism,
    Mechanism,
    PostProcessedMechanism,
)
from repro.compliance import (
    ComplianceCertificate,
    ComplianceDenied,
    CompliancePipeline,
)
from repro.core.predicate import Predicate, attribute_predicate
from repro.core.pso import PSOContext, PSOGame, PSOGameResult
from repro.core.theorems import TheoremCheck
from repro.legal.claims import LegalVerdict, TechnicalPremise, derive
from repro.legal.theorems import (
    differential_privacy_assessment,
    legal_corollary_2_1,
    legal_theorem_2_1,
    working_party_comparison,
)
from repro.privacy import MechanismSpec, PrivacySpend
from repro.service import (
    BudgetExhausted,
    CircuitBreakerTripped,
    QueryServer,
    ReconstructionAuditor,
)
from repro.telemetry import MetricsRegistry, SpanRecorder, snapshot

__version__ = "1.0.0"

__all__ = [
    "BudgetExhausted",
    "CircuitBreakerTripped",
    "ComplianceCertificate",
    "ComplianceDenied",
    "CompliancePipeline",
    "ComposedMechanism",
    "CompositionAttacker",
    "ConstantMechanism",
    "CountExploitingAttacker",
    "CountMechanism",
    "DPCountMechanism",
    "IdentityAttacker",
    "IdentityMechanism",
    "KAnonymityMechanism",
    "KAnonymityPSOAttacker",
    "LegalVerdict",
    "Mechanism",
    "MechanismSpec",
    "MetricsRegistry",
    "PSOContext",
    "PSOGame",
    "PSOGameResult",
    "PostProcessedMechanism",
    "Predicate",
    "PrivacySpend",
    "QueryServer",
    "ReconstructionAuditor",
    "SpanRecorder",
    "TechnicalPremise",
    "TheoremCheck",
    "TrivialAttacker",
    "__version__",
    "attribute_predicate",
    "build_composition_suite",
    "derive",
    "differential_privacy_assessment",
    "legal_corollary_2_1",
    "legal_theorem_2_1",
    "snapshot",
    "working_party_comparison",
]
