"""Premises, assumptions, and the legal-derivation engine.

The paper's methodology (Section 2.2) is explicit about its logical
structure: PSO security is *weaker* than what the GDPR intends by
preventing singling out, so

* failing to prevent PSO  =>  failing to prevent GDPR singling out
  (the direction Legal Theorem 2.1 uses), while
* preventing PSO gives only a necessary condition — "further inquiry
  would be needed" (the differential-privacy verdict).

The engine enforces the paper's falsifiability discipline: a
:class:`TechnicalPremise` may only be cited once empirical evidence (a
:class:`~repro.core.theorems.TheoremCheck` that *passed*) is attached, and
a :class:`LegalClaim` can only be derived when all of its premises are
established.  Modeling assumptions are carried separately and verbatim in
every verdict — they are the part a court or regulator may dispute.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.theorems import TheoremCheck


class DerivationError(RuntimeError):
    """Raised when a legal conclusion is requested without established premises."""


@dataclass(frozen=True)
class ModelingAssumption:
    """An interpretive step from legal text to mathematics.

    Not provable — stated so it can be contested.  Each records the legal
    source it interprets.
    """

    identifier: str
    statement: str
    source: str  #: citation of the interpreted legal text

    def __str__(self) -> str:
        return f"[{self.identifier}] {self.statement} (interpreting {self.source})"


@dataclass
class TechnicalPremise:
    """A mathematical statement whose truth is established by measurement.

    ``evidence`` must be a passed :class:`TheoremCheck` before the premise
    counts as established; attaching failed evidence is allowed (it records
    the refutation) but blocks derivation.
    """

    identifier: str
    statement: str
    evidence: TheoremCheck | None = None

    @property
    def established(self) -> bool:
        """Whether passed empirical evidence is attached."""
        return self.evidence is not None and self.evidence.passed

    def attach(self, evidence: TheoremCheck) -> "TechnicalPremise":
        """Attach evidence (returns self for chaining)."""
        self.evidence = evidence
        return self

    def __str__(self) -> str:
        if self.evidence is None:
            status = "UNVERIFIED"
        else:
            status = "ESTABLISHED" if self.evidence.passed else "REFUTED"
        return f"[{self.identifier}] {self.statement} -- {status}"


@dataclass(frozen=True)
class LegalClaim:
    """A legal conclusion awaiting derivation."""

    identifier: str
    conclusion: str
    rule: str  #: the inference connecting premises to the conclusion


@dataclass(frozen=True)
class LegalVerdict:
    """A derived legal theorem: conclusion plus its full support.

    The verdict is immutable and self-contained — premises with their
    evidence, assumptions with their sources — so it can be audited without
    re-running anything.
    """

    claim: LegalClaim
    assumptions: tuple[ModelingAssumption, ...]
    premises: tuple[TechnicalPremise, ...]
    qualification: str = ""  #: e.g. "necessary but possibly not sufficient"

    def render(self) -> str:
        """A human-readable derivation transcript."""
        lines = [f"LEGAL THEOREM {self.claim.identifier}: {self.claim.conclusion}"]
        if self.qualification:
            lines.append(f"  Qualification: {self.qualification}")
        lines.append("  Modeling assumptions:")
        lines.extend(f"    {assumption}" for assumption in self.assumptions)
        lines.append("  Technical premises:")
        lines.extend(f"    {premise}" for premise in self.premises)
        lines.append(f"  Inference: {self.claim.rule}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def derive(
    claim: LegalClaim,
    assumptions: list[ModelingAssumption],
    premises: list[TechnicalPremise],
    qualification: str = "",
) -> LegalVerdict:
    """Derive a verdict, refusing when any technical premise lacks evidence.

    This is the falsifiability gate of Section 2.4.3: conclusions about
    whether technologies meet legal standards must rest on verifiable —
    and verified — mathematical statements.
    """
    unestablished = [premise for premise in premises if not premise.established]
    if unestablished:
        details = "; ".join(str(premise) for premise in unestablished)
        raise DerivationError(
            f"cannot derive {claim.identifier!r}: unestablished premises: {details}"
        )
    return LegalVerdict(
        claim=claim,
        assumptions=tuple(assumptions),
        premises=tuple(premises),
        qualification=qualification,
    )
