"""Datafly-style greedy full-domain generalization (Sweeney's algorithm).

Full-domain generalization assigns one hierarchy level per quasi-identifier
and applies it to *every* record — the scheme of the paper's toy example,
where the whole ZIP column is masked to ``1234*`` and the whole Age column
to decades.  The Datafly heuristic repeatedly raises the level of the QI
with the most distinct values until the release is k-anonymous, optionally
suppressing up to a budget of outlier records instead of over-generalizing
for their sake.

Optimal full-domain generalization is NP-hard (paper cites [30]); Datafly
is the standard greedy approximation and, like Mondrian, it tries to retain
information — feeding Theorem 2.10.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

from repro.data.dataset import Dataset
from repro.data.generalized import GeneralizedDataset, GeneralizedRecord
from repro.data.hierarchy import (
    GeneralizationHierarchy,
    GeneralizedValue,
    default_hierarchy,
)


class DataflyAnonymizer:
    """Greedy full-domain k-anonymizer over generalization hierarchies.

    Each quasi-identifier generalizes along
    :func:`~repro.data.hierarchy.default_hierarchy` of its domain.

    Args:
        k: the anonymity parameter.
        quasi_identifiers: names to generalize; defaults to the schema's
            annotated quasi-identifiers.
        max_suppression: largest *fraction* of records that may be
            suppressed instead of forcing another generalization round.
    """

    def __init__(
        self,
        k: int,
        quasi_identifiers: Sequence[str] | None = None,
        max_suppression: float = 0.02,
    ):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if not 0.0 <= max_suppression < 1.0:
            raise ValueError("max_suppression must lie in [0, 1)")
        self.k = int(k)
        self.quasi_identifiers = tuple(quasi_identifiers) if quasi_identifiers else None
        self.max_suppression = float(max_suppression)

    def anonymize(self, dataset: Dataset) -> GeneralizedDataset:
        """Anonymize ``dataset``; may suppress up to the configured budget.

        Returns a release whose generalization levels are recorded in
        :attr:`last_levels` (useful for utility reporting and tests).
        """
        if len(dataset) == 0:
            return GeneralizedDataset(dataset.schema, [])
        qi_names = list(self.quasi_identifiers or dataset.schema.quasi_identifiers)
        if not qi_names:
            raise ValueError(
                "no quasi-identifiers: annotate the schema or pass them explicitly"
            )
        if len(dataset) < self.k:
            raise ValueError(f"cannot {self.k}-anonymize {len(dataset)} records")

        hierarchies = {
            name: default_hierarchy(dataset.schema.attribute(name).domain)
            for name in qi_names
        }
        levels = {name: 0 for name in qi_names}
        budget = int(self.max_suppression * len(dataset))

        while True:
            keys = self._qi_keys(dataset, qi_names, hierarchies, levels)
            frequencies = Counter(keys)
            small = sum(
                count for count in frequencies.values() if count < self.k
            )
            if small <= budget:
                break
            raisable = [
                name for name in qi_names if levels[name] < hierarchies[name].levels - 1
            ]
            if not raisable:
                # Everything is fully suppressed and classes are still small:
                # only possible when n < k, which was rejected above — but
                # guard anyway rather than loop forever.
                break
            # Datafly heuristic: generalize the attribute with the most
            # distinct values at its current level.
            def distinct_values(name: str) -> int:
                position = qi_names.index(name)
                return len({key[position] for key in keys})

            target = max(raisable, key=lambda name: (distinct_values(name), name))
            levels[target] += 1

        # Build the release, suppressing residual small classes.
        keys = self._qi_keys(dataset, qi_names, hierarchies, levels)
        frequencies = Counter(keys)
        records = []
        suppressed = 0
        for row_index, record in enumerate(dataset):
            if frequencies[keys[row_index]] < self.k:
                suppressed += 1
                continue
            values = []
            for name in dataset.schema.names:
                if name in levels:
                    values.append(
                        hierarchies[name].generalize(record[name], levels[name])
                    )
                else:
                    values.append(GeneralizedValue.raw(record[name]))
            records.append(GeneralizedRecord(dataset.schema, values))
        self.last_levels = dict(levels)
        return GeneralizedDataset(dataset.schema, records, suppressed_count=suppressed)

    @staticmethod
    def _qi_keys(
        dataset: Dataset,
        qi_names: Sequence[str],
        hierarchies: Mapping[str, GeneralizationHierarchy],
        levels: Mapping[str, int],
    ) -> list[tuple[GeneralizedValue, ...]]:
        """Each record's generalized QI tuple at the current levels."""
        return [
            tuple(
                hierarchies[name].generalize(record[name], levels[name])
                for name in qi_names
            )
            for record in dataset
        ]
