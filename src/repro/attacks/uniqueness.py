"""Quasi-identifier uniqueness analysis (Sweeney [41]).

"At the heart of Sweeney's re-identification attack was the crucial
observation that the seemingly innocuous combination of ZIP code, birth
date, and sex ... is unique for a vast majority of the US population."
This module measures that phenomenon on any dataset: what fraction of
records is unique under a given quasi-identifier combination, and what
k-anonymity level the raw data actually achieves.
"""

from __future__ import annotations

from typing import Sequence

from repro.data.dataset import Dataset


def uniqueness_profile(
    dataset: Dataset, qi_sets: Sequence[Sequence[str]]
) -> dict[tuple[str, ...], float]:
    """Fraction of records unique under each quasi-identifier combination.

    Example::

        uniqueness_profile(population, [("sex",), ("zip", "sex"),
                                        ("zip", "birth_year", "birth_doy", "sex")])

    returns the escalating uniqueness curve Sweeney's attack exploits.
    """
    if not qi_sets:
        raise ValueError("need at least one quasi-identifier set")
    profile = {}
    for qi_set in qi_sets:
        names = tuple(qi_set)
        profile[names] = dataset.unique_fraction(names)
    return profile


def k_anonymity_level(dataset: Dataset, names: Sequence[str]) -> int:
    """The k that the raw data achieves on ``names`` (min class size).

    A value of 1 means some record is singled out by the combination —
    the precondition for linkage.
    """
    if len(dataset) == 0:
        raise ValueError("k-anonymity level of an empty dataset is undefined")
    groups = dataset.group_by(list(names))
    return min(len(rows) for rows in groups.values())
