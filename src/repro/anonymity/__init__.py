"""k-anonymity substrate: checkers, anonymizers, and utility metrics.

Implements the framework of Samarati-Sweeney as the paper describes it
(Section 1.1): suppression and generalization of quasi-identifiers until
every record is identical to at least ``k - 1`` others, with anonymizers
that *optimize information content* — the very property Theorem 2.10 turns
against them.

* :mod:`repro.anonymity.checks` — the k-anonymity check and the achieved
  l (distinct l-diversity) and t (t-closeness) of a release.
* :mod:`repro.anonymity.agreement` — the suppression-only anonymizer the
  Theorem 2.10 proof analyzes: groups of ``k`` keep the values they agree on.
* :mod:`repro.anonymity.mondrian` — the Mondrian multidimensional
  partitioning anonymizer (greedy median cuts).
* :mod:`repro.anonymity.datafly` — Datafly-style greedy full-domain
  generalization over hierarchies, with outlier suppression.
* :mod:`repro.anonymity.metrics` — discernibility / average-class-size /
  precision utility metrics ("maximizing some measure of information
  content", as the paper puts it).
"""

from repro.anonymity.agreement import AgreementAnonymizer
from repro.anonymity.checks import (
    distinct_l_diversity,
    equivalence_classes_on,
    is_k_anonymous,
    t_closeness,
)
from repro.anonymity.datafly import DataflyAnonymizer
from repro.anonymity.metrics import (
    average_class_size_ratio,
    discernibility_metric,
    generalization_precision,
    utility_report,
)
from repro.anonymity.mondrian import MondrianAnonymizer

__all__ = [
    "AgreementAnonymizer",
    "DataflyAnonymizer",
    "MondrianAnonymizer",
    "average_class_size_ratio",
    "discernibility_metric",
    "distinct_l_diversity",
    "equivalence_classes_on",
    "generalization_precision",
    "is_k_anonymous",
    "t_closeness",
    "utility_report",
]
