"""Tests for the parallel Monte-Carlo execution engine."""

import os
import pickle
import threading

import pytest

from repro.utils.parallel import (
    BACKENDS,
    chunk_indices,
    chunk_indices_weighted,
    effective_jobs,
    fork_available,
    parallel_map,
    resolve_backend,
    usable_cores,
)


class TestEffectiveJobs:
    def test_default_is_serial(self):
        assert effective_jobs(None) == 1
        assert effective_jobs(0) == 1
        assert effective_jobs(1) == 1

    def test_positive_passthrough(self):
        assert effective_jobs(4) == 4

    def test_negative_means_all_cores(self):
        assert effective_jobs(-1) == usable_cores()
        if hasattr(os, "sched_getaffinity"):
            assert usable_cores() == len(os.sched_getaffinity(0))

    def test_usable_cores_follow_the_affinity(self, monkeypatch):
        # A process pinned to some cores counts those, not the machine's.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert effective_jobs(-1) == 1
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {1, 3, 5}, raising=False
        )
        assert effective_jobs(-1) == 3

    def test_usable_cores_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert effective_jobs(-1) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert effective_jobs(-1) == 1


class TestChunkIndices:
    def test_covers_every_index_once_in_order(self):
        for count in (0, 1, 5, 17, 100):
            for chunks in (1, 2, 3, 7, 200):
                flattened = [i for r in chunk_indices(count, chunks) for i in r]
                assert flattened == list(range(count))

    def test_balanced(self):
        sizes = [len(r) for r in chunk_indices(10, 3)]
        assert max(sizes) - min(sizes) <= 1


class TestChunkIndicesWeighted:
    def test_covers_every_index_once(self):
        for count in (0, 1, 5, 17, 100):
            for chunks in (1, 2, 3, 7, 200):
                groups = chunk_indices_weighted([1.0] * count, chunks)
                flattened = sorted(i for g in groups for i in g)
                assert flattened == list(range(count))

    def test_groups_are_sorted_within(self):
        groups = chunk_indices_weighted([3.0, 1.0, 4.0, 1.0, 5.0, 9.0], 2)
        for group in groups:
            assert group == sorted(group)

    def test_deterministic(self):
        weights = [5.0, 1.0, 3.0, 3.0, 1.0, 5.0, 2.0]
        assert chunk_indices_weighted(weights, 3) == chunk_indices_weighted(
            weights, 3
        )

    def test_lpt_balances_heterogeneous_weights(self):
        # Three big shards and six small ones over three chunks: LPT puts
        # one big shard per chunk; contiguous equal-count chunking would
        # serialize two big shards into one chunk.
        weights = [9.0, 9.0, 9.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        groups = chunk_indices_weighted(weights, 3)
        loads = [sum(weights[i] for i in g) for g in groups]
        assert max(loads) - min(loads) <= max(weights[3:])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            chunk_indices_weighted([1.0, -2.0], 2)

    def test_degenerate_shapes(self):
        assert chunk_indices_weighted([], 4) == []
        assert chunk_indices_weighted([2.0, 3.0, 4.0], 1) == [[0, 1, 2]]


class TestResolveBackend:
    def test_serial_when_one_job(self):
        assert resolve_backend("auto", 1) == "serial"
        assert resolve_backend("process", 1) == "serial"

    def test_auto_prefers_process_when_fork_exists(self):
        expected = "process" if fork_available() else "serial"
        assert resolve_backend("auto", 4) == expected

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            resolve_backend("threads", 2)
        with pytest.raises(ValueError, match="backend"):
            parallel_map(lambda x: x, [1], jobs=2, backend="magic")

    def test_backends_constant(self):
        assert set(BACKENDS) == {"auto", "serial", "thread", "process"}


class TestParallelMap:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_preserves_input_order(self, backend, jobs):
        items = list(range(37))
        assert parallel_map(lambda x: x * x, items, jobs=jobs, backend=backend) == [
            x * x for x in items
        ]

    def test_empty_items(self):
        assert parallel_map(lambda x: x, [], jobs=4) == []

    def test_accepts_any_iterable(self):
        assert parallel_map(str, iter(range(3)), jobs=2, backend="thread") == [
            "0",
            "1",
            "2",
        ]

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_exceptions_propagate(self, backend):
        def boom(x):
            raise RuntimeError(f"bad item {x}")

        with pytest.raises(RuntimeError, match="bad item"):
            parallel_map(boom, [1, 2, 3], jobs=2, backend=backend)

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_unpicklable_fn_works_via_fork(self):
        # Closures/lambdas pervade the codebase (Predicate fns, mechanism
        # post-processing); the fork path must not pickle them.
        secret = 17
        fn = lambda x: x + secret  # noqa: E731
        with pytest.raises(Exception):
            pickle.dumps(fn)
        assert parallel_map(fn, [1, 2, 3], jobs=2, backend="process") == [18, 19, 20]

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_weighted_dispatch_preserves_order(self, backend):
        items = list(range(23))
        weights = [float(1 + (i * 7) % 11) for i in items]
        assert parallel_map(
            lambda x: x * x, items, jobs=3, backend=backend, weights=weights
        ) == [x * x for x in items]

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            parallel_map(lambda x: x, [1, 2, 3], jobs=2, weights=[1.0])

    def test_thread_backend_actually_uses_worker_threads(self):
        seen = set()

        def record(x):
            seen.add(threading.current_thread().name)
            return x

        parallel_map(record, list(range(64)), jobs=4, backend="thread")
        assert any(name != threading.main_thread().name for name in seen)
