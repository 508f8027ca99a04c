"""Generalization hierarchies for k-anonymization.

The paper's toy example generalizes ZIP ``12345 -> 1234*`` and age
``30 -> 30-39``; footnote 4 describes the general scheme (hierarchical
suppression of ZIP digits, coarsening geography).  A
:class:`GeneralizationHierarchy` captures one attribute's ladder of
coarsenings, from level 0 (raw value) to the top level (full suppression,
``*``).  Two ladders are implemented, the ones :func:`default_hierarchy`
hands the anonymizers: nested integer intervals and plain suppression.

Every generalized value knows the *set of raw values it covers*
(:class:`GeneralizedValue`).  That cover set is what makes the paper's PSO
attack on k-anonymity (Theorem 2.10) implementable: the predicate attached
to an equivalence class is exactly "record lies in the class's cover sets".
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from repro.data.domain import Domain, IntegerDomain


class GeneralizedValue:
    """A coarsened attribute value: a label plus the raw values it covers.

    Two generalized values are equal iff they cover the same raw set — labels
    are display-only.  A raw (ungeneralized) value is represented by a cover
    set of size one.
    """

    __slots__ = ("_label", "_covers")

    def __init__(self, label: str, covers: Iterable[Hashable]):
        self._label = label
        self._covers = frozenset(covers)
        if not self._covers:
            raise ValueError("a generalized value must cover at least one raw value")

    @property
    def label(self) -> str:
        """Human-readable rendering (e.g. ``"1234*"`` or ``"30-39"``)."""
        return self._label

    @property
    def covers(self) -> frozenset:
        """The raw values this generalized value stands for."""
        return self._covers

    def matches(self, raw_value: Hashable) -> bool:
        """Whether ``raw_value`` is one of the covered raw values."""
        return raw_value in self._covers

    @property
    def is_singleton(self) -> bool:
        """Whether the value is effectively ungeneralized."""
        return len(self._covers) == 1

    @classmethod
    def raw(cls, value: Hashable) -> "GeneralizedValue":
        """Wrap an ungeneralized raw value."""
        return cls(str(value), [value])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GeneralizedValue) and self._covers == other._covers

    def __hash__(self) -> int:
        return hash(self._covers)

    def __repr__(self) -> str:
        return f"GeneralizedValue({self._label!r}, |covers|={len(self._covers)})"

    def __str__(self) -> str:
        return self._label


class GeneralizationHierarchy:
    """Abstract ladder of coarsenings for one attribute.

    Level 0 is the raw value; level ``levels - 1`` is full suppression.  All
    hierarchies guarantee *nesting*: the cover set at level ``l+1`` contains
    the cover set at level ``l``.
    """

    def __init__(self, domain: Domain):
        self.domain = domain

    @property
    def levels(self) -> int:
        """Number of levels, including level 0 (raw) and the top (suppressed)."""
        raise NotImplementedError

    def generalize(self, value: Hashable, level: int) -> GeneralizedValue:
        """Coarsen ``value`` to ``level``; level 0 returns the raw singleton."""
        raise NotImplementedError

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.levels:
            raise ValueError(f"level must lie in [0, {self.levels - 1}], got {level}")

    def _check_value(self, value: Hashable) -> None:
        if value not in self.domain:
            raise ValueError(f"{value!r} is not in the hierarchy's domain")

    def suppressed(self) -> GeneralizedValue:
        """The top-level value covering the whole domain (``*``)."""
        return GeneralizedValue("*", list(self.domain))


class SuppressionHierarchy(GeneralizationHierarchy):
    """Two levels only: the raw value, or ``*`` (the paper's Age column)."""

    @property
    def levels(self) -> int:
        return 2

    def generalize(self, value: Hashable, level: int) -> GeneralizedValue:
        self._check_level(level)
        self._check_value(value)
        if level == 0:
            return GeneralizedValue.raw(value)
        return self.suppressed()


class IntervalHierarchy(GeneralizationHierarchy):
    """Aligned-interval ladder for integers (the paper's ``30 -> 30-39``).

    ``widths`` lists the interval width at each level above 0; each width
    must divide the next so intervals nest (e.g. ``[5, 10, 20]``).  The top
    level is always full suppression regardless of widths.
    """

    def __init__(self, domain: IntegerDomain, widths: Sequence[int] = (5, 10, 20)):
        super().__init__(domain)
        if not widths:
            raise ValueError("need at least one interval width")
        previous = 1
        for width in widths:
            if width <= 0:
                raise ValueError(f"interval widths must be positive, got {width}")
            if width % previous != 0:
                raise ValueError(
                    f"widths must nest (each divides the next); {width} is not a "
                    f"multiple of {previous}"
                )
            previous = width
        self._widths = tuple(int(w) for w in widths)
        self._domain_int = domain

    @property
    def levels(self) -> int:
        # level 0 (raw) + one per width + top-level suppression.
        return len(self._widths) + 2

    def generalize(self, value: Hashable, level: int) -> GeneralizedValue:
        self._check_level(level)
        self._check_value(value)
        if level == 0:
            return GeneralizedValue.raw(value)
        if level == self.levels - 1:
            return self.suppressed()
        width = self._widths[level - 1]
        low = (int(value) // width) * width
        high = low + width - 1
        clipped_low = max(low, self._domain_int.low)
        clipped_high = min(high, self._domain_int.high)
        label = f"{clipped_low}-{clipped_high}"
        return GeneralizedValue(label, range(clipped_low, clipped_high + 1))


def default_hierarchy(domain: Domain) -> GeneralizationHierarchy:
    """A sensible hierarchy when none is configured.

    Integers get a nested-interval ladder, everything else plain
    suppression.  Anonymizers use this fallback so callers only need to
    configure hierarchies for attributes where structure matters.
    """
    if isinstance(domain, IntegerDomain):
        return IntervalHierarchy(domain)
    return SuppressionHierarchy(domain)
