"""Release approval: legal theorems as a machine-checked runtime gate.

The paper runs *from* database reconstruction *to* legal theorems; this
subpackage closes the loop in the serving direction.  Before the service
will register a mechanism or activate a synthetic release, the release
must hold a :class:`ComplianceCertificate` — minted by a
:class:`CompliancePipeline` of machine-checkable
:class:`~repro.compliance.verifiers.Verifier` s that *re-derive* every
claim with the repository's own machinery (empirical DP on the exact
charged spec, ledger recomposition, k re-derivation, a replayed
reconstruction attack, HIPAA safe harbor), feed the
evidence through the legal layer's falsifiability gate
(:func:`repro.legal.claims.derive`), and bind release + policy + evidence
+ verdict under one blake2b content address.  At runtime the
:class:`ComplianceGate` is an O(1) fingerprint lookup; refusals are the
typed :class:`ComplianceDenied` with zero budget/cache footprint.

* :mod:`repro.compliance.policy` — the declared :class:`Policy` caps.
* :mod:`repro.compliance.verifiers` — the checkers.
* :mod:`repro.compliance.pipeline` — deterministic battery + derivation.
* :mod:`repro.compliance.certificate` — content-addressed certificates.
* :mod:`repro.compliance.gate` — runtime enforcement for the service.

Experiment E21 exercises the whole arc: the DP release is certified, the
leaky independent-marginals and k-anonymous releases are denied with the
failing premises named in the verdict.
"""

from repro.compliance.certificate import (
    ComplianceCertificate,
    release_fingerprint,
    spec_fingerprint,
)
from repro.compliance.gate import ComplianceDenied, ComplianceGate
from repro.compliance.pipeline import CompliancePipeline
from repro.compliance.policy import Policy
from repro.compliance.verifiers import (
    CheckResult,
    CompositionPolicyVerifier,
    DpClaimVerifier,
    KAnonymityClaimVerifier,
    ReconstructionResistanceVerifier,
    ReleaseContext,
    SafeHarborVerifier,
    Verifier,
)

__all__ = [
    "CheckResult",
    "ComplianceCertificate",
    "ComplianceDenied",
    "ComplianceGate",
    "CompliancePipeline",
    "CompositionPolicyVerifier",
    "DpClaimVerifier",
    "KAnonymityClaimVerifier",
    "Policy",
    "ReconstructionResistanceVerifier",
    "ReleaseContext",
    "SafeHarborVerifier",
    "Verifier",
    "release_fingerprint",
    "spec_fingerprint",
]
