"""Utility (information-content) metrics for anonymized releases.

The paper's Theorem 2.10 turns on anonymizers that "attempt to retain as
much as possible information in the k-anonymized data".  These metrics
quantify that retention, so the experiments can show the causal chain:
better utility -> tighter equivalence classes -> lower predicate weight ->
predicate singling out.

* :func:`discernibility_metric` — sum of squared class sizes; lower is
  better.
* :func:`average_class_size_ratio` — the C_avg of the Mondrian paper:
  ``(n_released / #classes) / k``; 1.0 is ideal.
* :func:`generalization_precision` — mean fraction of each attribute's
  domain covered by released cells; 0 means raw data, 1 means fully
  suppressed.
"""

from __future__ import annotations

from typing import Sequence

from repro.anonymity.checks import equivalence_classes_on
from repro.data.generalized import GeneralizedDataset


def discernibility_metric(release: GeneralizedDataset) -> int:
    """Sum over equivalence classes of |class|^2."""
    classes = equivalence_classes_on(release)
    return sum(len(rows) ** 2 for rows in classes.values())


def average_class_size_ratio(release: GeneralizedDataset, k: int) -> float:
    """C_avg = (records / classes) / k; 1.0 means every class is exactly k."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if len(release) == 0:
        raise ValueError("an empty release has no classes")
    classes = equivalence_classes_on(release)
    return (len(release) / len(classes)) / k


def generalization_precision(
    release: GeneralizedDataset,
    quasi_identifiers: Sequence[str] | None = None,
) -> float:
    """Mean coverage fraction of released QI cells (0 = raw, 1 = suppressed).

    For each released value, the fraction of its attribute's domain the
    cover set spans, scaled so singletons score 0 and full suppression 1;
    averaged over all (record, QI) pairs.
    """
    if len(release) == 0:
        raise ValueError("an empty release has no precision")
    names = tuple(quasi_identifiers or release.schema.quasi_identifiers or release.schema.names)
    total = 0.0
    cells = 0
    for record in release:
        for name in names:
            domain_size = len(release.schema.attribute(name).domain)
            covered = len(record[name].covers)
            if domain_size <= 1:
                share = 0.0
            else:
                share = (covered - 1) / (domain_size - 1)
            total += share
            cells += 1
    return total / cells


def utility_report(release: GeneralizedDataset, k: int) -> dict[str, float]:
    """All metrics in one mapping (for the experiment tables)."""
    return {
        "records": float(len(release)),
        "classes": float(len(equivalence_classes_on(release))),
        "discernibility": float(discernibility_metric(release)),
        "avg_class_size_ratio": average_class_size_ratio(release, k),
        "precision": generalization_precision(release),
    }
