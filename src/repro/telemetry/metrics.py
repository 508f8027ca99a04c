"""Process-local metrics: counters, latency histograms, sampled callbacks.

The serving hot path runs at ~8 us per cached ask, so the primitives here
are built backwards from a per-record budget of a few hundred nanoseconds:

* Every instrument owns its *own* lock, and the registry takes its one
  creation lock only the first time a key is asked for — recording never
  contends on a registry-wide mutex, and two threads recording into
  different instruments never touch the same lock at all.
* :class:`Histogram` buckets latencies in seconds over the fixed
  :data:`DEFAULT_LATENCY_BUCKETS`.  A record is one
  :func:`bisect.bisect_left` over the bound tuple and two in-place
  scalar updates under the instrument lock — O(1), no allocation.
* Sampled instruments (:meth:`MetricsRegistry.counter_fn` /
  :meth:`MetricsRegistry.gauge_fn`) invert the cost model entirely: the
  instrumented component keeps updating the plain attribute it already
  maintains (cache hit counts, queue depth, epsilon spent) and the
  registry reads it at *snapshot* time — zero hot-path cost.

Instruments are keyed by ``(name, sorted label items)``; the conventional
label set across the serve stack is ``(shard, stage, mechanism,
analyst_digest_prefix)``.  Label values are stringified once at
get-or-create, never per record.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "MetricsRegistry",
]

#: Histogram bounds for latency-in-seconds metrics: 1 us to 10 s,
#: roughly logarithmic, chosen so the ~8 us cached-ask fast path and the
#: ~1 s LP audit passes both land mid-range rather than in an edge bucket.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelItems = tuple[tuple[str, str], ...]


def canonical_labels(labels: dict[str, object]) -> LabelItems:
    """Sorted, stringified label items — the canonical instrument key."""
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class Counter:
    """A monotonically increasing count; own lock, float-valued."""

    __slots__ = ("name", "labels", "_lock", "_value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative; counters never decrease)."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Latency distribution over :data:`DEFAULT_LATENCY_BUCKETS`.

    The bounds are inclusive upper bucket edges; one overflow bucket
    catches everything above the last bound.
    """

    __slots__ = ("name", "labels", "_cells", "_sum", "_lock", "_acquire", "_release")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self._cells = [0] * (len(DEFAULT_LATENCY_BUCKETS) + 1)
        self._sum = 0.0
        self._lock = threading.Lock()
        # Pre-bound lock methods: ``observe`` sits inside the serve fast
        # path's microsecond budget, and the ``with`` statement's context-
        # manager protocol costs ~25% of the whole record on top of a bare
        # acquire/release pair.
        self._acquire = self._lock.acquire
        self._release = self._lock.release

    def observe(self, value: float) -> None:
        """Record one sample."""
        index = bisect_left(DEFAULT_LATENCY_BUCKETS, value)
        self._acquire()
        self._cells[index] += 1
        self._sum += value
        self._release()

    def read(self) -> tuple[tuple[int, ...], float, int]:
        """A consistent ``(counts, sum, count)`` triple under the lock."""
        with self._lock:
            cells, total = tuple(self._cells), self._sum
        return cells, total, sum(cells)


class Sampled:
    """A counter or gauge whose value is *read* from a callable at snapshot time.

    The instrumented component keeps maintaining whatever plain attribute
    it already has (a cache's ``hits`` int, a pool's queue depth); the
    callback samples it when a snapshot is taken — the hot path pays
    nothing.  A counter's callable must be monotone for the counter
    semantics to hold; a failing callback repeats the last good sample
    rather than poisoning the snapshot.
    """

    __slots__ = ("name", "labels", "kind", "fn", "_last")

    def __init__(self, name: str, labels: LabelItems, kind: str, fn: Callable[[], float]):
        self.name = name
        self.labels = labels
        self.kind = kind
        self.fn = fn
        self._last = 0.0

    @property
    def value(self) -> float:
        try:
            self._last = float(self.fn())
        except Exception:
            pass
        return self._last


class MetricsRegistry:
    """All instruments of one process (or one test), keyed by name+labels.

    The first lookup of a key takes the registry's creation lock; every
    later lookup is a lock-free dict read (instruments are never removed,
    the same invariant the analyst registry relies on).  Hot paths should
    still resolve their instruments once and hold the reference — the
    registry read is cheap, not free.
    """

    def __init__(self):
        self._creation_lock = threading.Lock()
        self._instruments: dict[tuple[str, LabelItems], object] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def _get_or_create(self, name: str, labels: dict, kind: str, factory):
        key = (name, canonical_labels(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._creation_lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = self._instruments[key] = factory(*key)
        if instrument.kind != kind:
            raise TypeError(
                f"metric {name!r}{dict(key[1])} is a {instrument.kind}, "
                f"requested as a {kind}"
            )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        """Get or create the named counter."""
        return self._get_or_create(name, labels, "counter", Counter)

    def histogram(self, name: str, **labels) -> Histogram:
        """Get or create the named latency histogram."""
        return self._get_or_create(name, labels, "histogram", Histogram)

    def counter_fn(self, name: str, fn: Callable[[], float], **labels) -> None:
        """Register a snapshot-time counter read from ``fn`` (monotone).

        Re-registering the same key rebinds the callback — a re-created
        component (a fresh cache behind the same shard label) simply
        takes the slot over.
        """
        self._bind(name, fn, labels, "counter")

    def gauge_fn(self, name: str, fn: Callable[[], float], **labels) -> None:
        """Register a snapshot-time gauge read from ``fn``."""
        self._bind(name, fn, labels, "gauge")

    def _bind(self, name: str, fn: Callable[[], float], labels: dict, kind: str) -> None:
        instrument = self._get_or_create(
            name, labels, kind, lambda *key: Sampled(*key, kind, fn)
        )
        if not isinstance(instrument, Sampled):
            raise TypeError(
                f"metric {name!r}{dict(instrument.labels)} is a stored {kind}, "
                "cannot rebind it to a callback"
            )
        instrument.fn = fn

    def instruments(self) -> list:
        """A point-in-time list of every registered instrument."""
        return list(self._instruments.values())

    def __repr__(self) -> str:
        return f"MetricsRegistry(instruments={len(self._instruments)})"
