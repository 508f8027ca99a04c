"""Attribute domains: the value universes records are built from.

A :class:`Domain` answers three questions the rest of the library needs:
membership ("is this a legal value?"), enumeration (for exact weight
computations and exhaustive attacks), and size.  Domains are deliberately
small, immutable value objects.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Iterable, Iterator


class Domain(ABC):
    """Abstract value universe for a single attribute."""

    @abstractmethod
    def __contains__(self, value: object) -> bool:
        """Whether ``value`` is a member of the domain."""

    @abstractmethod
    def __iter__(self) -> Iterator[Hashable]:
        """Iterate the domain's values."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of values in the domain."""

    def validate(self, value: object) -> None:
        """Raise ``ValueError`` when ``value`` is outside the domain."""
        if value not in self:
            raise ValueError(f"{value!r} is not in {self}")


class CategoricalDomain(Domain):
    """A finite set of hashable category values, order-preserving.

    Example::

        sex = CategoricalDomain(["F", "M"])
    """

    def __init__(self, values: Iterable[Hashable]):
        ordered: list[Hashable] = []
        seen: set[Hashable] = set()
        for value in values:
            if value in seen:
                raise ValueError(f"duplicate domain value: {value!r}")
            seen.add(value)
            ordered.append(value)
        if not ordered:
            raise ValueError("a categorical domain needs at least one value")
        self._values: tuple[Hashable, ...] = tuple(ordered)
        self._value_set = seen

    @property
    def values(self) -> tuple[Hashable, ...]:
        """The domain's values in declaration order."""
        return self._values

    def index_of(self, value: Hashable) -> int:
        """Position of ``value`` in declaration order (for dense encodings)."""
        try:
            return self._values.index(value)
        except ValueError:
            raise ValueError(f"{value!r} is not in {self}") from None

    def __contains__(self, value: object) -> bool:
        return value in self._value_set

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CategoricalDomain) and self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self._values[:4])
        suffix = ", ..." if len(self._values) > 4 else ""
        return f"CategoricalDomain([{preview}{suffix}], size={len(self)})"


class IntegerDomain(Domain):
    """A contiguous integer range ``[low, high]`` (both inclusive).

    Example::

        age = IntegerDomain(0, 120)
    """

    def __init__(self, low: int, high: int):
        if low > high:
            raise ValueError(f"empty integer domain: [{low}, {high}]")
        self.low = int(low)
        self.high = int(high)

    def __contains__(self, value: object) -> bool:
        return isinstance(value, (int,)) and not isinstance(value, bool) and (
            self.low <= value <= self.high
        )

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.low, self.high + 1))

    def __len__(self) -> int:
        return self.high - self.low + 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntegerDomain)
            and self.low == other.low
            and self.high == other.high
        )

    def __hash__(self) -> int:
        return hash((self.low, self.high))

    def __repr__(self) -> str:
        return f"IntegerDomain({self.low}, {self.high})"
