"""Generalized attribute values for k-anonymization.

The paper's toy example generalizes ZIP ``12345 -> 1234*`` and age
``30 -> 30-39``.  Every generalized value knows the *set of raw values it
covers* (:class:`GeneralizedValue`).  That cover set is what makes the
paper's PSO attack on k-anonymity (Theorem 2.10) implementable: the
predicate attached to an equivalence class is exactly "record lies in the
class's cover sets".
"""

from __future__ import annotations

from typing import Hashable, Iterable


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
