"""Agreement-based (suppression-only) k-anonymizer.

This is the "typical, information-content-optimizing" anonymizer family the
proof of Theorem 2.10 (via [14]) analyzes: partition the records into
groups of at least ``k`` and, within each group, release exactly the
attributes on which *all* group members agree, suppressing the rest.  The
released rows within a group are identical, so the output is k-anonymous by
construction; and because the anonymizer keeps every attribute it possibly
can, the per-class predicate "matches all released values" has weight about
``2^-(number of agreed attributes)`` — negligible once the data is wide.

That is the engine of the paper's 37% claim: the class predicate ``p`` has
negligible weight yet matches the ``k' >= k`` class members, and a fresh
weight-``1/k'`` hash refinement ``p'`` isolates inside the class with
probability ``(1 - 1/k')^(k'-1) -> 1/e``.

Grouping strategies:

* ``"sorted"`` (default) — lexicographically sort records and group
  consecutive runs of ``k``; neighbors in sorted order share prefixes, so
  agreement (and hence utility *and* attack strength) is maximized greedily.
* ``"sequential"`` — group records in input order (an intentionally
  utility-poor ablation).
"""

from __future__ import annotations

from repro.data.dataset import Dataset
from repro.data.generalized import GeneralizedDataset, GeneralizedRecord
from repro.data.hierarchy import GeneralizedValue


class AgreementAnonymizer:
    """Suppression-only k-anonymizer releasing within-group agreed values.

    Args:
        k: group size floor (the anonymity parameter).
        strategy: ``"sorted"`` or ``"sequential"`` grouping (see module doc).
    """

    def __init__(self, k: int, strategy: str = "sorted"):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if strategy not in ("sorted", "sequential"):
            raise ValueError(f"unknown grouping strategy: {strategy!r}")
        self.k = int(k)
        self.strategy = strategy

    def anonymize(self, dataset: Dataset) -> GeneralizedDataset:
        """Anonymize ``dataset``; row order follows the grouping order."""
        n = len(dataset)
        if n == 0:
            return GeneralizedDataset(dataset.schema, [])
        if n < self.k:
            raise ValueError(f"cannot {self.k}-anonymize {n} records")

        qi_names = dataset.schema.quasi_identifiers or dataset.schema.names
        qi_columns = [dataset.schema.index_of(name) for name in qi_names]

        if self.strategy == "sorted":
            order = sorted(
                range(n),
                key=lambda i: _sort_key(tuple(dataset.rows[i][c] for c in qi_columns)),
            )
        else:
            order = list(range(n))

        # Consecutive groups of k; the remainder joins the last group so no
        # group falls below k.
        groups: list[list[int]] = []
        for start in range(0, n, self.k):
            group = order[start : start + self.k]
            if len(group) < self.k and groups:
                groups[-1].extend(group)
            else:
                groups.append(group)

        schema = dataset.schema
        qi_set = set(qi_names)
        records: list[GeneralizedRecord] = []
        for group in groups:
            rows = [dataset.rows[i] for i in group]
            # One shared cell per group on the quasi-identifiers: agreed
            # values stay, disagreements are suppressed.  Non-QI attributes
            # (e.g. the sensitive column) are released raw per record, as
            # standard k-anonymity prescribes.
            cell: dict[int, GeneralizedValue] = {}
            for column, name in enumerate(schema.names):
                if name not in qi_set:
                    continue
                column_values = {row[column] for row in rows}
                if len(column_values) == 1:
                    cell[column] = GeneralizedValue.raw(rows[0][column])
                else:
                    domain = schema.attribute(name).domain
                    cell[column] = GeneralizedValue("*", list(domain))
            for row in rows:
                values = [
                    cell[column] if column in cell else GeneralizedValue.raw(row[column])
                    for column in range(len(schema))
                ]
                records.append(GeneralizedRecord(schema, values))
        return GeneralizedDataset(schema, records)


def _sort_key(row: tuple) -> tuple:
    """Type-stable lexicographic key (mixed int/str columns sort per-column)."""
    return tuple((type(value).__name__, value) for value in row)
