"""The classic privacy attacks surveyed in the paper's Section 1.

Each module reproduces one attack family on the synthetic stand-in data of
:mod:`repro.data` (see DESIGN.md section 2 for the substitution argument):

* :mod:`repro.attacks.uniqueness` — Sweeney's quasi-identifier uniqueness
  analysis ("ZIP code, birth date, and sex is unique for a vast majority").
* :mod:`repro.attacks.linkage` — the GIC/voter-registry linkage attack.
* :mod:`repro.attacks.fingerprint` — Narayanan-Shmatikov sparse-data
  fingerprinting (the Netflix/IMDb de-anonymization).
* :mod:`repro.attacks.membership` — Homer-style membership inference on
  aggregate genomic statistics.
* :mod:`repro.attacks.downcoding` — Cohen's post-processing attack on
  generalization-based k-anonymity [12].
* :mod:`repro.attacks.graph` — Backstrom-Dwork-Kleinberg social-graph
  de-anonymization [10]; imported by its full path, not re-exported here,
  so ``import repro`` does not load networkx.
"""

from repro.attacks.downcoding import DowncodingResult, downcode, downcoding_experiment
from repro.attacks.extraction import (
    ExtractionResult,
    exposure,
    extract_secret,
    secret_sharer_experiment,
)
from repro.attacks.fingerprint import (
    FingerprintResult,
    deanonymize,
    fingerprint_experiment,
    similarity_score,
)
from repro.attacks.intersection import (
    IntersectionResult,
    candidate_sensitive_values,
    intersection_attack,
)
from repro.attacks.linkage import LinkageResult, linkage_attack
from repro.attacks.membership import (
    MembershipResult,
    homer_statistic,
    membership_experiment,
)
from repro.attacks.ml_membership import (
    MlMembershipResult,
    loss_threshold_attack,
    ml_membership_experiment,
)
from repro.attacks.uniqueness import k_anonymity_level, uniqueness_profile

__all__ = [
    "DowncodingResult",
    "ExtractionResult",
    "FingerprintResult",
    "IntersectionResult",
    "LinkageResult",
    "MembershipResult",
    "MlMembershipResult",
    "candidate_sensitive_values",
    "deanonymize",
    "downcode",
    "downcoding_experiment",
    "exposure",
    "extract_secret",
    "fingerprint_experiment",
    "homer_statistic",
    "intersection_attack",
    "k_anonymity_level",
    "linkage_attack",
    "loss_threshold_attack",
    "membership_experiment",
    "ml_membership_experiment",
    "secret_sharer_experiment",
    "similarity_score",
    "uniqueness_profile",
]
