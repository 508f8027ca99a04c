"""Parallel Monte-Carlo execution: serial / thread / process backends.

Every estimator in this library is embarrassingly parallel: one master seed
fans out (via the SeedSequence spawning protocol in :mod:`repro.utils.rng`)
into one independent stream per trial, so trials can be evaluated in any
order, on any worker, and reassembled by index.  :func:`parallel_map` is the
single primitive the hot layers build on — ``PSOGame.run(jobs=...)``, the
theorem checks, and the experiment runner all chunk their trial streams
through it.

Backends
--------

``"serial"``
    A plain loop in the calling thread.  Always available; always the
    reference semantics.
``"thread"``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  The GIL caps the
    speedup for pure-Python trial bodies, but the backend matters for
    determinism testing (same results, different scheduler) and for
    workloads that release the GIL (NumPy-heavy sampling).
``"process"``
    A :class:`~concurrent.futures.ProcessPoolExecutor`.  On platforms with
    ``fork`` (Linux), the work function and items are published in a
    module-level payload *before* the pool forks, so children inherit them
    by memory copy and nothing user-provided is ever pickled — closures,
    lambdas, and mechanisms holding lambdas all parallelize.  On
    spawn-only platforms the function must survive :mod:`pickle`; when it
    does not, execution degrades gracefully to serial with a warning.
``"auto"``
    ``"process"`` where available, else ``"serial"``.

Determinism
-----------

``parallel_map`` preserves input order in every backend, and the library's
trial bodies are pure functions of their per-trial stream (plus the
key-addressed weight-bound cache in :mod:`repro.core.predicate`, whose
values are pure functions of the cache key).  Consequently ``jobs=1``,
``jobs=N``, and every backend produce bit-identical results for a fixed
master seed.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Recognized executor backends, in documentation order.
BACKENDS = ("auto", "serial", "thread", "process")


def usable_cores() -> int:
    """Cores this process may run on.

    Its CPU affinity where the platform reports one, so a process pinned
    by ``taskset`` or a cpuset-limited container counts only its own
    cores; ``os.cpu_count()`` elsewhere.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def effective_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs`` request into a concrete worker count.

    ``None``/``0`` mean serial; a negative value means "all usable cores"
    (:func:`usable_cores`); positive values pass through.
    """
    if jobs is None or jobs == 0:
        return 1
    jobs = int(jobs)
    if jobs < 0:
        return usable_cores()
    return jobs


def fork_available() -> bool:
    """Whether the zero-pickle ``fork`` process backend can be used."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_backend(backend: str, jobs: int) -> str:
    """Map ``"auto"`` (and trivial job counts) onto a concrete backend."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; known: {BACKENDS}")
    if jobs <= 1:
        return "serial"
    if backend == "auto":
        return "process" if fork_available() else "serial"
    return backend


def chunk_indices(count: int, chunks: int) -> list[range]:
    """Split ``range(count)`` into at most ``chunks`` contiguous ranges.

    Chunks differ in size by at most one, so workers stay balanced; the
    split is a pure function of ``(count, chunks)``, which keeps the
    work-distribution deterministic.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    chunks = max(1, min(chunks, count) if count else 1)
    base, extra = divmod(count, chunks)
    ranges = []
    start = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        ranges.append(range(start, start + size))
        start += size
    return [r for r in ranges if len(r)]


def chunk_indices_weighted(
    weights: Sequence[float], chunks: int
) -> list[list[int]]:
    """Split ``range(len(weights))`` into at most ``chunks`` balanced groups.

    Equal-size contiguous chunks (:func:`chunk_indices`) balance workers
    only when items cost about the same; sharded reconstruction dispatches
    *heterogeneous* shards (block LPs whose cost grows superlinearly in the
    block size), where one unlucky chunk of big blocks serializes the whole
    join.  This variant runs the classic LPT greedy: items in decreasing
    weight order, each assigned to the currently lightest chunk.  The
    result is a pure function of ``(weights, chunks)`` — ties broken by
    chunk index then item index — so work distribution stays deterministic;
    indices within each chunk are returned sorted so per-chunk execution
    order is stable too.
    """
    count = len(weights)
    if count == 0:
        return []
    chunks = max(1, min(chunks, count))
    if chunks == 1:
        return [list(range(count))]
    values = [float(w) for w in weights]
    if any(w < 0 for w in values):
        raise ValueError("weights must be non-negative")
    # Decreasing weight, index ascending on ties: deterministic LPT order.
    order = sorted(range(count), key=lambda i: (-values[i], i))
    loads = [0.0] * chunks
    groups: list[list[int]] = [[] for _ in range(chunks)]
    for item in order:
        target = min(range(chunks), key=lambda c: (loads[c], c))
        groups[target].append(item)
        loads[target] += values[item]
    return [sorted(group) for group in groups if group]

# The fork backend publishes the work here in the parent immediately before
# creating the pool; forked children inherit it by copy-on-write, so the
# function and items are never pickled (only small index lists are).
_FORK_PAYLOAD: dict[str, object] = {}


def _call_payload_indices(indices: Sequence[int]) -> list:
    """Worker body for the fork backend: apply the inherited fn to a chunk."""
    fn = _FORK_PAYLOAD["fn"]
    items = _FORK_PAYLOAD["items"]
    return [fn(items[i]) for i in indices]  # type: ignore[operator,index]


def _call_picklable_chunk(payload: tuple) -> list:
    """Worker body for the spawn process backend: (fn, items) arrive pickled."""
    fn, chunk = payload
    return [fn(item) for item in chunk]


def _serial_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    return [fn(item) for item in items]


def _reassemble(chunk_results: Sequence[list], groups: Sequence[Sequence[int]], count: int) -> list:
    """Put per-chunk results back in input order (chunks may interleave)."""
    out: list = [None] * count
    for group, results in zip(groups, chunk_results):
        for index, result in zip(group, results):
            out[index] = result
    return out


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int | None = 1,
    backend: str = "auto",
    chunks_per_worker: int = 4,
    weights: Sequence[float] | None = None,
) -> list[R]:
    """Apply ``fn`` to every item, possibly across workers; order preserved.

    Args:
        fn: the work function.  Need not be picklable on fork platforms.
        items: the inputs; consumed eagerly.
        jobs: worker count (see :func:`effective_jobs`; ``1`` = serial).
        backend: one of :data:`BACKENDS`.
        chunks_per_worker: work-splitting granularity for process pools
            (more chunks = better balance, more dispatch overhead).
        weights: optional per-item cost estimates.  When given, process
            chunks are balanced by total weight (:func:`chunk_indices_weighted`)
            instead of item count — the difference between a clean scaling
            curve and one straggler chunk when items are heterogeneous
            (e.g. reconstruction shards of very different block sizes).
            Results still return in input order regardless.

    Returns:
        ``[fn(item) for item in items]`` — the serial semantics, whatever
        the backend.
    """
    items = list(items)
    if weights is not None and len(weights) != len(items):
        raise ValueError(
            f"got {len(weights)} weights for {len(items)} items"
        )
    jobs = min(effective_jobs(jobs), max(1, len(items)))
    backend = resolve_backend(backend, jobs)
    if backend == "serial" or len(items) <= 1:
        return _serial_map(fn, items)

    if backend == "thread":
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))

    # backend == "process"
    if weights is None:
        ranges: Sequence[Sequence[int]] = chunk_indices(
            len(items), jobs * max(1, chunks_per_worker)
        )
    else:
        ranges = chunk_indices_weighted(weights, jobs * max(1, chunks_per_worker))
    if fork_available():
        context = multiprocessing.get_context("fork")
        _FORK_PAYLOAD["fn"] = fn
        _FORK_PAYLOAD["items"] = items
        try:
            with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
                chunk_results = list(pool.map(_call_payload_indices, ranges))
        except (BrokenProcessPool, pickle.PicklingError) as error:
            # Results (or internals) failed to cross the process boundary;
            # the work itself is sound, so redo it in-process.
            warnings.warn(
                f"process backend failed ({error!r}); falling back to serial",
                RuntimeWarning,
                stacklevel=2,
            )
            return _serial_map(fn, items)
        finally:
            _FORK_PAYLOAD.clear()
        return _reassemble(chunk_results, ranges, len(items))

    # Spawn-only platform: the function and items must survive pickling.
    try:
        pickle.dumps((fn, items))
    except Exception as error:  # noqa: BLE001 — pickling raises many types
        warnings.warn(
            f"work is not picklable ({error!r}) and fork is unavailable; "
            "falling back to serial execution",
            RuntimeWarning,
            stacklevel=2,
        )
        return _serial_map(fn, items)
    payloads = [(fn, [items[i] for i in r]) for r in ranges]
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk_results = list(pool.map(_call_picklable_chunk, payloads))
    except (BrokenProcessPool, pickle.PicklingError) as error:
        warnings.warn(
            f"process backend failed ({error!r}); falling back to serial",
            RuntimeWarning,
            stacklevel=2,
        )
        return _serial_map(fn, items)
    return _reassemble(chunk_results, ranges, len(items))
