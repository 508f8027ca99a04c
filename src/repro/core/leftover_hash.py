"""Negligible-weight predicates via hashing (the Leftover Hash Lemma device).

The paper twice leans on the Leftover Hash Lemma [27]:

* Section 2.2 — "if D has moderate min-entropy ... one can construct a
  predicate p such that Pr_{x~D}[p(x) = 1] = 1/n";
* footnote 12 — the Theorem 2.10 attacker refines an equivalence class
  with a fresh predicate of weight ``1/k'`` built the same way.

Concretely: a salted cryptographic hash of the record's values behaves as
a strong extractor on any distribution with enough min-entropy, so the
predicate "h(x) < threshold" has weight ~ ``threshold`` *for every such D
simultaneously* — the attacker needs no knowledge of D beyond its entropy.
We use SHA-256, which is deterministic across runs and platforms (unlike
Python's builtin ``hash``).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from repro.core.predicate import Predicate
from repro.data.dataset import Record

#: Resolution of the hash-to-unit-interval map (bits).
_UNIT_BITS = 64
_UNIT_DENOMINATOR = 2**_UNIT_BITS


@lru_cache(maxsize=1 << 17)
def _cached_digest(salt: str, values: tuple) -> bytes:
    """SHA-256 digest of a record's value tuple, memoized.

    Composed mechanisms hash each record under the same salt hundreds of
    times per release; keying the cache on the (hashable) value tuple makes
    repeats cost one dict lookup, with serialization only on a miss.
    """
    material = repr(values).encode("utf-8")
    return hashlib.sha256(salt.encode("utf-8") + b"\x00" + material).digest()


class RecordHasher:
    """A salted, deterministic hash of record values.

    Distinct salts give (by the random-oracle heuristic backing the LHL
    usage) independent functions — which is why conjunctions of hash
    predicates with distinct salts may multiply their analytic weights.
    """

    def __init__(self, salt: str):
        if not salt:
            raise ValueError("salt must be non-empty")
        self.salt = salt

    def _digest(self, record: Record) -> bytes:
        return _cached_digest(self.salt, tuple(record.values))

    def unit(self, record: Record) -> float:
        """Map the record to [0, 1) with 64-bit resolution."""
        digest = self._digest(record)
        return int.from_bytes(digest[:8], "big") / _UNIT_DENOMINATOR

    def bit(self, record: Record, index: int) -> int:
        """The ``index``-th bit of the record's hash (0 <= index < 192).

        Bits beyond the first 64 are disjoint from the material used by
        :meth:`unit`, so bit predicates are independent of threshold
        predicates *with the same salt* as long as ``index >= 64``.
        """
        if not 0 <= index < 192:
            raise ValueError(f"bit index must lie in [0, 192), got {index}")
        digest = self._digest(record)
        byte_index, bit_offset = divmod(index, 8)
        return (digest[byte_index] >> bit_offset) & 1


def hash_threshold_predicate(salt: str, threshold: float) -> Predicate:
    """The predicate ``h_salt(x) < threshold`` with analytic weight ``threshold``.

    Under any distribution whose min-entropy comfortably exceeds
    ``log2(1/threshold)`` the true weight is within o(threshold) of the
    analytic value — this is the LHL guarantee the paper invokes.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    hasher = RecordHasher(salt)
    return Predicate(
        lambda record: hasher.unit(record) < threshold,
        f"h_{salt}(x) < {threshold:.3e}",
        analytic_weight=threshold,
    )


def hash_bit_predicate(salt: str, index: int) -> Predicate:
    """The predicate "bit ``index`` of ``h_salt(x)`` is 1" (weight 1/2)."""
    hasher = RecordHasher(salt)
    # Probe validity eagerly so bad indices fail at construction time.
    if not 0 <= index < 192:
        raise ValueError(f"bit index must lie in [0, 192), got {index}")
    return Predicate(
        lambda record: hasher.bit(record, index) == 1,
        f"bit_{index}(h_{salt}(x)) = 1",
        analytic_weight=0.5,
    )


def hash_bit_equals_predicate(salt: str, index: int, value: int) -> Predicate:
    """The predicate "bit ``index`` of ``h_salt(x)`` equals ``value``"."""
    if value not in (0, 1):
        raise ValueError(f"value must be 0 or 1, got {value}")
    hasher = RecordHasher(salt)
    if not 0 <= index < 192:
        raise ValueError(f"bit index must lie in [0, 192), got {index}")
    return Predicate(
        lambda record: hasher.bit(record, index) == value,
        f"bit_{index}(h_{salt}(x)) = {value}",
        analytic_weight=0.5,
    )
