"""Parallel Monte-Carlo execution: one ``jobs`` setting, a fork pool or inline.

Every estimator in this library is embarrassingly parallel: one master seed
fans out (via the SeedSequence spawning protocol in :mod:`repro.utils.rng`)
into one independent stream per trial, so trials can be evaluated in any
order, on any worker, and reassembled by index.  :func:`parallel_map` is the
single primitive the hot layers build on — ``PSOGame.run(jobs=...)``, the
theorem checks, sharded reconstruction and the experiment runner all fan
their work out through it.

With one job, or where the platform has no ``fork`` start method, the work
runs inline in the calling thread.  Otherwise a pool of forked processes
runs it.  Each pool hands its own workers the work function and items
through the pool's initializer; under ``fork`` those arguments are
inherited by memory copy, never pickled, so closures, lambdas and
mechanisms holding lambdas all parallelize, and concurrent or nested calls
never see one another's work.  Only indices go out and results come back.

Determinism: ``parallel_map`` preserves input order, and the library's
trial bodies are pure functions of their per-trial stream (plus the
key-addressed weight-bound cache in :mod:`repro.core.predicate`, whose
values are pure functions of the cache key).  Consequently every ``jobs``
value produces bit-identical results for a fixed master seed.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


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


# A forked worker's work function and items, set once per worker by its
# pool's initializer.  The calling process never sets it.
_work: tuple[Callable, Sequence] | None = None


def _install(fn: Callable, items: Sequence) -> None:
    global _work
    _work = (fn, items)


def _call(index: int):
    fn, items = _work  # type: ignore[misc]
    return fn(items[index])


def parallel_map(
    fn: Callable[[T], R], items: Iterable[T], jobs: int | None = 1
) -> list[R]:
    """Apply ``fn`` to every item, possibly across workers; order preserved.

    Args:
        fn: the work function.  Need not be picklable: forked workers
            inherit it.  Its results must be picklable when ``jobs > 1``.
        items: the inputs; consumed eagerly.
        jobs: worker count (see :func:`effective_jobs`; ``1`` = inline).

    Returns:
        ``[fn(item) for item in items]``, whatever ``jobs`` is.  Should the
        pool break, or a result raise ``PicklingError`` on its way back,
        the work is redone inline with a ``RuntimeWarning``.
    """
    items = list(items)
    jobs = min(effective_jobs(jobs), len(items))
    if jobs <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    try:
        with ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_install,
            initargs=(fn, items),
        ) as pool:
            chunksize = max(1, len(items) // (4 * jobs))
            return list(pool.map(_call, range(len(items)), chunksize=chunksize))
    except (BrokenProcessPool, pickle.PicklingError) as error:
        # Results (or internals) failed to cross the process boundary;
        # the work itself is sound, so redo it in-process.
        warnings.warn(
            f"process pool failed ({error!r}); falling back to serial",
            RuntimeWarning,
            stacklevel=2,
        )
        return [fn(item) for item in items]
