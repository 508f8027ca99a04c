"""Tests for the parallel Monte-Carlo execution engine."""

import multiprocessing
import os
import pickle
import threading
import warnings

import pytest

from repro.utils.parallel import effective_jobs, parallel_map, usable_cores

FORK = "fork" in multiprocessing.get_all_start_methods()

#: A module-level lambda: pickle looks it up by the name ``<lambda>`` and
#: fails with ``PicklingError``.
MODULE_LAMBDA = lambda: None  # noqa: E731

#: The test process; forked workers have other pids.
PARENT_PID = os.getpid()


def _dies_in_a_worker(x):
    """Kill a forked worker outright; run normally in the test process."""
    if os.getpid() != PARENT_PID:
        os._exit(3)
    return 2 * x


@pytest.fixture
def platform(request, monkeypatch):
    """``"serial"``: a platform without ``fork``, where every call runs
    inline; ``"process"``: one with it, where ``jobs > 1`` forks a pool."""
    if request.param == "serial":
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
    elif not FORK:
        pytest.skip("needs the fork start method")
    return request.param


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


class TestParallelMap:
    @pytest.mark.parametrize("platform", ["serial", "process"], indirect=True)
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_preserves_input_order(self, jobs, platform):
        items = list(range(37))
        assert parallel_map(lambda x: x * x, items, jobs=jobs) == [
            x * x for x in items
        ]

    def test_empty_items(self):
        assert parallel_map(lambda x: x, [], jobs=4) == []

    def test_accepts_any_iterable(self):
        assert parallel_map(str, iter(range(3)), jobs=2) == ["0", "1", "2"]

    @pytest.mark.parametrize("platform", ["serial", "process"], indirect=True)
    def test_exceptions_propagate(self, platform):
        def boom(x):
            raise RuntimeError(f"bad item {x}")

        with pytest.raises(RuntimeError, match="bad item"):
            parallel_map(boom, [1, 2, 3], jobs=2)

    @pytest.mark.parametrize("platform", ["serial", "process"], indirect=True)
    def test_jobs_fork_workers_unless_fork_is_missing(self, platform):
        pids = parallel_map(lambda _: os.getpid(), range(8), jobs=2)
        if platform == "serial":
            assert set(pids) == {os.getpid()}
        else:
            assert os.getpid() not in pids
        assert set(parallel_map(lambda _: os.getpid(), range(8), jobs=1)) == {
            os.getpid()
        }

    @pytest.mark.skipif(not FORK, reason="needs fork start method")
    def test_unpicklable_fn_works_via_fork(self):
        # Closures/lambdas pervade the codebase (Predicate fns, mechanism
        # post-processing); the forked workers must not pickle them.
        secret = 17
        fn = lambda x: x + secret  # noqa: E731
        with pytest.raises(Exception):
            pickle.dumps(fn)
        assert parallel_map(fn, [1, 2, 3], jobs=2) == [18, 19, 20]

    @pytest.mark.skipif(not FORK, reason="needs fork start method")
    def test_concurrent_calls_keep_their_own_work(self):
        # Two threads fork their pools at once, with work of unequal
        # lengths: each must get its own results back, not the other's.
        barrier = threading.Barrier(2, timeout=30)
        for trial in range(3):
            calls = {
                "short": (lambda x: ("short", x), list(range(6))),
                "long": (lambda x: ("long", -x), list(range(40))),
            }
            results, errors = {}, []

            def call(name):
                fn, items = calls[name]
                try:
                    barrier.wait()
                    results[name] = parallel_map(fn, items, jobs=2)
                except Exception as error:  # noqa: BLE001 — reported below
                    errors.append(error)

            threads = [
                threading.Thread(target=call, args=(name,), daemon=True)
                for name in calls
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads), trial
            assert errors == [], trial
            for name, (fn, items) in calls.items():
                assert results[name] == [fn(x) for x in items], (trial, name)

    @pytest.mark.skipif(not FORK, reason="needs fork start method")
    def test_nested_calls_keep_their_own_work(self):
        # A work function that forks a pool of its own: each outer worker
        # runs several items, and the inner pools must leave its work alone.
        def inner(x):
            return parallel_map(lambda y: x * y, range(4), jobs=2)

        assert parallel_map(inner, range(8), jobs=2) == [
            [x * y for y in range(4)] for x in range(8)
        ]

    @pytest.mark.skipif(not FORK, reason="needs fork start method")
    @pytest.mark.parametrize(
        "result, error",
        [
            # A local closure: AttributeError, or PicklingError on
            # Pythons whose pickle raises that for local objects.
            (lambda x: (lambda: x), (AttributeError, pickle.PicklingError)),
            (lambda x: threading.Lock(), TypeError),
            (lambda x: MODULE_LAMBDA, pickle.PicklingError),
        ],
        ids=["local-closure", "lock", "module-lambda"],
    )
    def test_an_unpicklable_result_raises(self, result, error):
        # Results must be picklable when jobs > 1: each pickling error
        # reaches the caller, and none is retried inline.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(error):
                parallel_map(result, range(4), jobs=2)

    @pytest.mark.skipif(not FORK, reason="needs fork start method")
    def test_a_dying_worker_falls_back_inline(self):
        with pytest.warns(RuntimeWarning, match="BrokenProcessPool"):
            assert parallel_map(_dies_in_a_worker, range(4), jobs=2) == [0, 2, 4, 6]
