"""Cohen's post-processing attack on generalization-based k-anonymity [12].

The paper (Sections 1.1 and 2.3.4) cites Cohen's result that
generalization-based k-anonymized data can be *reconstructed* ("downcoded")
by pure post-processing: "The attack relies on knowledge of the underlying
distribution but does not require the attacker to consult any other dataset
beyond the k-anonymized dataset."  And its PSO consequence: isolation with
a negligible-weight predicate with probability approaching 100%.

We implement the distribution-knowledge reconstruction: for every
generalized cell, guess the maximum-a-posteriori raw value within the
released cover set.  Because information-optimizing anonymizers release
tight cells, the MAP guess recovers a large share of the raw attributes —
the release was never "anonymous" in any semantic sense, matching the
paper's warning that k-anonymity's guarantee "is syntactic and does not
imply that a k-anonymized dataset cannot be post-processed so as to infer
personal data".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.dataset import Dataset
from repro.data.distributions import ProductDistribution
from repro.data.generalized import GeneralizedDataset


def downcode(release: GeneralizedDataset, distribution: ProductDistribution) -> Dataset:
    """MAP-reconstruct raw records from a generalized release.

    For each attribute of each released record, picks the raw value of
    maximum marginal probability among the released cover set.  Requires
    only the release and (knowledge of) the data distribution — a pure
    post-processing attack.
    """
    if release.schema != distribution.schema:
        raise ValueError("release and distribution schemas must match")
    rows = []
    for record in release:
        values = []
        for name in release.schema.names:
            covers = record[name].covers
            marginal = distribution.marginals[name]
            best = max(sorted(covers, key=repr), key=marginal.probability)
            values.append(best)
        rows.append(tuple(values))
    return Dataset(release.schema, rows, validate=False)


@dataclass(frozen=True)
class DowncodingResult:
    """Outcome of a downcoding experiment.

    Attributes:
        records: number of released records scored.
        exact_records: reconstructed records equal to the original row
            (order-aligned; the anonymizer must be order-preserving).
        attribute_accuracy: fraction of all (record, attribute) cells
            reconstructed correctly.
        generalized_cell_accuracy: accuracy restricted to cells the
            anonymizer actually generalized (|covers| > 1) — the honest
            measure of information leaked *through* the generalization.
    """

    records: int
    exact_records: int
    attribute_accuracy: float
    generalized_cell_accuracy: float

    @property
    def exact_fraction(self) -> float:
        """Fraction of rows reconstructed exactly."""
        if self.records == 0:
            raise ValueError("no records scored")
        return self.exact_records / self.records

    def __str__(self) -> str:
        return (
            f"DowncodingResult: {self.exact_fraction:.1%} rows exact, "
            f"{self.attribute_accuracy:.1%} cells correct "
            f"({self.generalized_cell_accuracy:.1%} on generalized cells)"
        )


def downcoding_experiment(
    original: Dataset,
    release: GeneralizedDataset,
    distribution: ProductDistribution,
) -> DowncodingResult:
    """Score a downcoding reconstruction against the original data.

    The release must be order-aligned with ``original``, one row per
    record (Mondrian's output qualifies).
    """
    if len(release) != len(original):
        raise ValueError("release and original must have the same length")
    reconstructed = downcode(release, distribution)

    exact = 0
    correct_cells = 0
    generalized_cells = 0
    correct_generalized = 0
    total_cells = len(original) * len(original.schema)
    for i in range(len(original)):
        true_row = original.rows[i]
        guessed_row = reconstructed.rows[i]
        if true_row == guessed_row:
            exact += 1
        released = release[i]
        for j, name in enumerate(original.schema.names):
            hit = true_row[j] == guessed_row[j]
            correct_cells += int(hit)
            if not released[name].is_singleton:
                generalized_cells += 1
                correct_generalized += int(hit)
    return DowncodingResult(
        records=len(original),
        exact_records=exact,
        attribute_accuracy=correct_cells / total_cells,
        generalized_cell_accuracy=(
            correct_generalized / generalized_cells if generalized_cells else 1.0
        ),
    )
