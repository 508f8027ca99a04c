"""The paper's primary contribution: predicate singling out, executable.

Section 2 of the paper formalizes the GDPR's "singling out" as *predicate
singling out* (PSO): an attacker observing a mechanism's output wins by
producing a predicate of negligible weight that isolates — evaluates to 1
on exactly one record of the hidden dataset (Definitions 2.1-2.4).

* :mod:`repro.core.predicate` — first-class predicates ``p : X -> {0,1}``
  with exact/bounded/Monte-Carlo weight computation.
* :mod:`repro.core.leftover_hash` — negligible-weight predicates via
  universal hashing (the paper's Leftover-Hash-Lemma device).
* :mod:`repro.core.isolation` — Definition 2.1 and the trivial-attacker
  baseline arithmetic of Section 2.2.
* :mod:`repro.core.mechanisms` — the mechanisms the theorems quantify
  over: counts (M#q), post-processed and composed mechanisms, DP releases,
  k-anonymizers.
* :mod:`repro.core.attackers` — the adversaries: the trivial baseline,
  the Theorem 2.10 k-anonymity attacker, the Theorem 2.8 composition
  attacker.
* :mod:`repro.core.pso` — the PSO security game (Definition 2.4) as a
  Monte-Carlo experiment with confidence intervals.
* :mod:`repro.core.theorems` — each theorem of Section 2 as an executable,
  falsifiable check.
"""

from repro.core.analysis import (
    expected_agreement_bits,
    refinement_success_probability,
)
from repro.core.attackers import (
    CompositionAttacker,
    CountExploitingAttacker,
    KAnonymityPSOAttacker,
    TrivialAttacker,
)
from repro.core.isolation import isolates
from repro.core.leftover_hash import (
    RecordHasher,
    hash_bit_predicate,
    hash_threshold_predicate,
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
from repro.core.predicate import AttributeConditions, Predicate, attribute_predicate
from repro.core.pso import PSOContext, PSOGame, PSOGameResult
from repro.core.theorems import (
    TheoremCheck,
    check_cohen_singleton_attack,
    check_composition_attack,
    check_count_mechanism_pso_security,
    check_dp_implies_pso_security,
    check_kanonymity_fails_pso,
    check_laplace_is_dp,
    check_ldiversity_fails_pso,
)

__all__ = [
    "AttributeConditions",
    "ComposedMechanism",
    "CompositionAttacker",
    "CountExploitingAttacker",
    "ConstantMechanism",
    "CountMechanism",
    "DPCountMechanism",
    "IdentityMechanism",
    "KAnonymityMechanism",
    "KAnonymityPSOAttacker",
    "Mechanism",
    "PSOContext",
    "PSOGame",
    "PSOGameResult",
    "PostProcessedMechanism",
    "Predicate",
    "RecordHasher",
    "TheoremCheck",
    "TrivialAttacker",
    "attribute_predicate",
    "check_cohen_singleton_attack",
    "check_composition_attack",
    "check_count_mechanism_pso_security",
    "check_dp_implies_pso_security",
    "check_kanonymity_fails_pso",
    "check_laplace_is_dp",
    "check_ldiversity_fails_pso",
    "expected_agreement_bits",
    "refinement_success_probability",
    "hash_bit_predicate",
    "hash_threshold_predicate",
    "isolates",
]
