"""Verification of syntactic anonymity guarantees on released data.

These are the *checkers* for k-anonymity and its refinements l-diversity
[29] and t-closeness [28] (paper, footnote 3).  They operate on
:class:`~repro.data.generalized.GeneralizedDataset` releases and treat the
quasi-identifier columns as the linkage surface, per the standard model.
The refinements are measured rather than tested against a threshold: a
release is l-diverse when :func:`distinct_l_diversity` is at least ``l``,
and t-close when :func:`t_closeness` is at most ``t``.
"""

from __future__ import annotations

from collections import Counter

from repro.data.generalized import GeneralizedDataset


def equivalence_classes_on(
    release: GeneralizedDataset, names: list[str] | tuple[str, ...] | None = None
) -> dict[tuple, list[int]]:
    """Row indices grouped by identical generalized values on ``names``.

    ``names`` defaults to the schema's quasi-identifiers (all attributes
    when none are annotated) — the columns an attacker can link on.
    """
    if names is None:
        names = release.schema.quasi_identifiers or release.schema.names
    missing = [n for n in names if n not in release.schema]
    if missing:
        raise KeyError(f"unknown attributes: {missing}")
    classes: dict[tuple, list[int]] = {}
    for index, record in enumerate(release):
        key = tuple(record[name] for name in names)
        classes.setdefault(key, []).append(index)
    return classes


def is_k_anonymous(
    release: GeneralizedDataset,
    k: int,
    quasi_identifiers: list[str] | tuple[str, ...] | None = None,
) -> bool:
    """Whether every QI combination appears at least ``k`` times."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if len(release) == 0:
        return True
    classes = equivalence_classes_on(release, quasi_identifiers)
    return min(len(rows) for rows in classes.values()) >= k


def distinct_l_diversity(
    release: GeneralizedDataset,
    sensitive: str,
    quasi_identifiers: list[str] | tuple[str, ...] | None = None,
) -> int:
    """The l achieved under *distinct* l-diversity.

    The minimum, over equivalence classes, of the number of distinct
    sensitive values in the class.  A release is l-diverse when this is at
    least l.
    """
    if sensitive not in release.schema:
        raise KeyError(f"unknown sensitive attribute: {sensitive!r}")
    if len(release) == 0:
        raise ValueError("l-diversity of an empty release is undefined")
    classes = equivalence_classes_on(release, quasi_identifiers)
    worst = None
    for rows in classes.values():
        distinct = {release[i][sensitive] for i in rows}
        worst = len(distinct) if worst is None else min(worst, len(distinct))
    assert worst is not None
    return worst


def t_closeness(
    release: GeneralizedDataset,
    sensitive: str,
    quasi_identifiers: list[str] | tuple[str, ...] | None = None,
) -> float:
    """The t achieved: max total-variation gap between class and global.

    For each equivalence class, compares the class's sensitive-value
    distribution to the whole release's using total variation distance (the
    categorical specialization of the Earth Mover distance used by [28]);
    returns the maximum.  A release is t-close when this is at most t.
    """
    if sensitive not in release.schema:
        raise KeyError(f"unknown sensitive attribute: {sensitive!r}")
    if len(release) == 0:
        raise ValueError("t-closeness of an empty release is undefined")
    global_counts = Counter(record[sensitive] for record in release)
    total = len(release)
    global_dist = {value: count / total for value, count in global_counts.items()}

    worst = 0.0
    classes = equivalence_classes_on(release, quasi_identifiers)
    for rows in classes.values():
        class_counts = Counter(release[i][sensitive] for i in rows)
        class_total = len(rows)
        support = set(global_dist) | set(class_counts)
        distance = 0.5 * sum(
            abs(class_counts.get(v, 0) / class_total - global_dist.get(v, 0.0))
            for v in support
        )
        worst = max(worst, distance)
    return worst
