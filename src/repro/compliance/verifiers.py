"""Machine-checkable verifiers: one policy requirement each, re-derived.

Every verifier takes the *actual* release (plus the private data and the
live accountant ledger where the requirement needs them) and re-derives
the claimed property with the repository's own machinery instead of
trusting any label:

* :class:`DpClaimVerifier` runs :func:`repro.dp.verify.verify_spec`
  against the exact :class:`~repro.privacy.kernels.MechanismSpec` the
  accountant charges;
* :class:`CompositionPolicyVerifier` recomputes the total spend from the
  accountant's ledger (:mod:`repro.privacy.accounting`);
* :class:`SafeHarborVerifier` re-runs
  :func:`repro.legal.hipaa.is_safe_harbor_compliant` on the data;
* :class:`KAnonymityClaimVerifier` re-derives k from
  :mod:`repro.anonymity` equivalence classes;
* :class:`ReconstructionResistanceVerifier` replays the release through
  :func:`repro.reconstruction.l2_decode.l2_decode` — the auditor's screen,
  run *before* approval instead of after damage.

A verifier never raises on a non-compliant or inapplicable release — it
returns a failed :class:`CheckResult` (what cannot be checked cannot be
certified), which the pipeline turns into a refuting premise of the
denial verdict.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.anonymity.checks import equivalence_classes_on
from repro.data.dataset import Dataset
from repro.data.generalized import GeneralizedDataset
from repro.dp.verify import verify_spec
from repro.legal.hipaa import is_safe_harbor_compliant
from repro.privacy.kernels import MechanismSpec
from repro.queries.workload import Workload
from repro.reconstruction.l2_decode import l2_decode
from repro.synth.base import SyntheticRelease

__all__ = [
    "CheckResult",
    "CompositionPolicyVerifier",
    "DpClaimVerifier",
    "KAnonymityClaimVerifier",
    "ReconstructionResistanceVerifier",
    "ReleaseContext",
    "SafeHarborVerifier",
    "Verifier",
]

#: Epsilon-sum tolerance shared with the accountant's reconciliation.
_EPSILON_TOLERANCE = 1e-12


@dataclass(frozen=True)
class CheckResult:
    """One verifier's verdict on one policy requirement.

    Attributes:
        identifier: the verifier's stable identifier (premise name).
        requirement: the requirement, stated as the checked claim.
        passed: whether the re-derived measurement satisfies it.
        measurements: the numbers the verifier derived (evidence).
        detail: human-readable explanation, mainly for failures.
    """

    identifier: str
    requirement: str
    passed: bool
    measurements: dict[str, object] = field(default_factory=dict)
    detail: str = ""


@dataclass
class ReleaseContext:
    """Everything a verifier may consult: the release, data, and ledger.

    ``data`` is the private input the release was computed from (a binary
    vector for the Dinur-Nissim model, a histogram or
    :class:`~repro.data.dataset.Dataset` for microdata); ``accountant`` is
    the live ledger whose spend the composition check re-derives.
    """

    release: object
    data: object | None = None
    accountant: object | None = None


class Verifier(ABC):
    """One machine-checkable policy requirement.

    Subclasses set ``identifier`` (stable, unique within a pipeline — it
    names the premise in the legal verdict) and implement :meth:`check`.
    All randomness must come from the handed generator so pipeline runs
    are bit-deterministic and order-invariant.
    """

    identifier: str = "VERIFIER"

    @abstractmethod
    def check(
        self, context: ReleaseContext, policy, rng: np.random.Generator
    ) -> CheckResult:
        """Re-derive the requirement on the actual release."""

    def _fail(self, requirement: str, detail: str, **measurements) -> CheckResult:
        return CheckResult(
            identifier=self.identifier,
            requirement=requirement,
            passed=False,
            measurements=measurements,
            detail=detail,
        )


def _spec_of(release: object) -> MechanismSpec | None:
    if isinstance(release, MechanismSpec):
        return release
    spec = getattr(release, "spec", None)
    return spec if isinstance(spec, MechanismSpec) else None


def _neighbor(data: np.ndarray) -> np.ndarray:
    """A dataset differing from ``data`` in one record's contribution.

    For a binary vector, flip one bit; for a non-negative histogram, add
    one record to the first cell.  Either changes the subset-count
    statistic by exactly the unit sensitivity.
    """
    neighbor = np.array(data, dtype=np.float64, copy=True)
    values = np.unique(neighbor)
    if np.all(np.isin(values, (0.0, 1.0))):
        neighbor[0] = 1.0 - neighbor[0]
    else:
        neighbor[0] += 1.0
    return neighbor


class DpClaimVerifier(Verifier):
    """The DP claim, empirically tested on the spec the accountant charges.

    A release without a positive-epsilon DP claim fails outright: by Legal
    Theorem 2.1, syntactic (k-anonymity-class) releases fail to prevent
    singling out, so the policy's protection requirement cannot be met by
    fiat.  A release *with* a claim has the exact
    :class:`~repro.privacy.kernels.MechanismSpec` run through
    :func:`repro.dp.verify.verify_spec` on the actual private data and a
    neighbor — the certificate records the measured log-ratio bound.
    """

    identifier = "DP-CLAIM"
    _requirement = (
        "the release carries a differential-privacy guarantee and its "
        "mechanism spec is empirically consistent with the claimed epsilon"
    )

    def check(self, context, policy, rng) -> CheckResult:
        spec = _spec_of(context.release)
        if spec is None:
            return self._fail(
                self._requirement,
                "release declares no mechanism spec; unverifiable claims "
                "cannot be certified (Legal Theorem 2.1: syntactic "
                "anonymization fails to prevent singling out)",
            )
        if not spec.dp:
            return self._fail(
                self._requirement,
                f"spec {spec.name!r} makes no DP claim (dp=False); "
                "non-DP releases fail the singling-out requirement "
                "(Legal Theorem 2.1)",
                epsilon=float(spec.spend.epsilon),
            )
        if context.data is None:
            return self._fail(
                self._requirement,
                "no private data supplied; the empirical DP check cannot run",
            )
        x = np.asarray(context.data, dtype=np.float64).ravel()
        verdict = verify_spec(
            spec,
            x,
            _neighbor(x),
            trials=policy.dp_trials,
            confidence=policy.dp_confidence,
            rng=rng,
        )
        return CheckResult(
            identifier=self.identifier,
            requirement=self._requirement,
            passed=bool(verdict.consistent),
            measurements={
                "epsilon": float(spec.spend.epsilon),
                "max_observed_log_ratio": float(verdict.max_observed_log_ratio),
                "trials": int(policy.dp_trials),
                "events_tested": len(verdict.checks),
            },
            detail=""
            if verdict.consistent
            else (
                f"observed log-ratio {verdict.max_observed_log_ratio:.4f} "
                f"certifiably exceeds the claimed epsilon "
                f"{spec.spend.epsilon:g}"
            ),
        )


class CompositionPolicyVerifier(Verifier):
    """Total spend re-derived from the ledger, against the policy cap.

    Trusts no reported number: reads the ledger's own ``(epsilon, delta)``
    total, the sum of every charge booked so far.  ``total()`` gives it on
    a :class:`~repro.privacy.accounting.PrivacyAccountant` (the
    synthesizers' single ledger), a
    :class:`~repro.privacy.accounting.BasicAccountant` (whose inherited
    ledger mirrors every analyst's charges) and a
    :class:`~repro.privacy.accounting.ShardedAccountant` alike.  A release
    not yet charged adds nothing: certify it after its charge is booked.
    """

    identifier = "COMPOSE"
    _requirement = (
        "total privacy spend re-derived from the accountant ledger stays "
        "within the policy's (epsilon, delta) cap"
    )

    def check(self, context, policy, rng) -> CheckResult:
        accountant = context.accountant
        if accountant is None:
            return self._fail(
                self._requirement,
                "no accountant ledger supplied; spend cannot be re-derived",
            )
        epsilon_total, delta_total = (float(v) for v in accountant.total())
        within_epsilon = epsilon_total <= policy.epsilon_cap + _EPSILON_TOLERANCE
        within_delta = delta_total <= policy.delta_cap + _EPSILON_TOLERANCE
        passed = within_epsilon and within_delta
        return CheckResult(
            identifier=self.identifier,
            requirement=self._requirement,
            passed=passed,
            measurements={
                "epsilon_total": epsilon_total,
                "delta_total": delta_total,
                "epsilon_cap": float(policy.epsilon_cap),
                "delta_cap": float(policy.delta_cap),
            },
            detail=""
            if passed
            else (
                f"ledger total ({epsilon_total:g}, {delta_total:g}) exceeds "
                f"the policy cap ({policy.epsilon_cap:g}, {policy.delta_cap:g})"
            ),
        )


class SafeHarborVerifier(Verifier):
    """HIPAA safe harbor, re-run on the actual released microdata."""

    identifier = "SAFE-HARBOR"
    _requirement = (
        "the released microdata passes the HIPAA safe-harbor redaction "
        "check under the policy's attribute classification"
    )

    def check(self, context, policy, rng) -> CheckResult:
        release = context.release
        if isinstance(release, SyntheticRelease):
            dataset = release.data
        elif isinstance(release, Dataset):
            dataset = release
        else:
            return self._fail(
                self._requirement,
                f"safe-harbor check needs microdata, got "
                f"{type(release).__name__}",
            )
        classification = policy.classification()
        compliant = is_safe_harbor_compliant(dataset, classification)
        return CheckResult(
            identifier=self.identifier,
            requirement=self._requirement,
            passed=bool(compliant),
            measurements={
                "records": len(dataset),
                "classified_attributes": len(classification),
            },
            detail=""
            if compliant
            else "an enumerated identifier category survives in the release",
        )


class KAnonymityClaimVerifier(Verifier):
    """k re-derived from the release's equivalence classes, never trusted.

    Args:
        quasi_identifiers: the linkage surface to group on; defaults to
            the schema's annotated quasi-identifiers (all attributes when
            none are annotated), matching :mod:`repro.anonymity.checks`.
    """

    identifier = "K-ANON"
    _requirement = (
        "the k re-derived from the release's equivalence classes meets "
        "the policy's minimum k"
    )

    def __init__(self, quasi_identifiers: Sequence[str] | None = None):
        self.quasi_identifiers = (
            tuple(quasi_identifiers) if quasi_identifiers is not None else None
        )

    def check(self, context, policy, rng) -> CheckResult:
        release = context.release
        if not isinstance(release, GeneralizedDataset):
            return self._fail(
                self._requirement,
                f"k-anonymity check needs a GeneralizedDataset release, got "
                f"{type(release).__name__}",
            )
        if len(release) == 0:
            return self._fail(self._requirement, "empty release has no classes")
        classes = equivalence_classes_on(release, self.quasi_identifiers)
        achieved = min(len(rows) for rows in classes.values())
        passed = achieved >= policy.k_min
        return CheckResult(
            identifier=self.identifier,
            requirement=self._requirement,
            passed=passed,
            measurements={
                "achieved_k": int(achieved),
                "k_min": int(policy.k_min),
                "classes": len(classes),
                "records": len(release),
            },
            detail=""
            if passed
            else (
                f"smallest equivalence class has {achieved} records; "
                f"policy requires k >= {policy.k_min}"
            ),
        )


class ReconstructionResistanceVerifier(Verifier):
    """Replay the reconstruction attack the release would face, pre-approval.

    Draws the Theorem 1.1(ii) random workload from the pipeline's seed
    stream, answers it *on the release* (exact post-processing — precisely
    what an attacker holding the published object can do), decodes with
    the first-order :func:`~repro.reconstruction.l2_decode.l2_decode`,
    and scores agreement against the true private data.  Agreement at or
    above the policy bar is blatant non-privacy; the release is refused
    before it is ever served.
    """

    identifier = "RECON"
    _requirement = (
        "a replayed reconstruction attack on the release agrees with the "
        "private data strictly below the policy's blatant-non-privacy bar"
    )

    def check(self, context, policy, rng) -> CheckResult:
        if context.data is None:
            return self._fail(
                self._requirement,
                "no private data supplied; agreement cannot be scored",
            )
        data = np.asarray(context.data).astype(np.int64).ravel()
        release = context.release
        if hasattr(release, "answer_workload"):
            n = int(getattr(release, "n", data.size))
            vector = None
        elif isinstance(release, np.ndarray):
            n = int(release.size)
            vector = np.asarray(release, dtype=np.float64).ravel()
        else:
            return self._fail(
                self._requirement,
                f"reconstruction replay needs a vector release, got "
                f"{type(release).__name__}",
            )
        if n != data.size:
            return self._fail(
                self._requirement,
                f"release has n={n}, private data has n={data.size}",
            )
        queries = max(1, int(round(policy.recon_queries_per_record * n)))
        workload = Workload.random(n, queries, rng=rng)
        if vector is None:
            answers = np.asarray(release.answer_workload(workload), dtype=np.float64)
        else:
            answers = np.asarray(
                workload.matrix(sparse=True) @ vector, dtype=np.float64
            )
        result = l2_decode(workload, answers, 0.5)
        agreement = result.agreement_with(data)
        passed = agreement < policy.reconstruction_agreement_max
        return CheckResult(
            identifier=self.identifier,
            requirement=self._requirement,
            passed=passed,
            measurements={
                "agreement": float(agreement),
                "threshold": float(policy.reconstruction_agreement_max),
                "queries": int(queries),
                "solver": "l2",
            },
            detail=""
            if passed
            else (
                f"decoded reconstruction agrees with the private data at "
                f"{agreement:.4f} >= {policy.reconstruction_agreement_max:g} "
                "(blatant non-privacy)"
            ),
        )
