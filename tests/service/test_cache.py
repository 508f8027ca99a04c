"""Fingerprint canonicality and answer-cache behavior."""

import numpy as np
import pytest

from repro.queries.query import SubsetQuery
from repro.queries.workload import Workload
from repro.service import (
    AnalystCacheView,
    AnswerCache,
    StripedAnswerCache,
    query_fingerprint,
    workload_fingerprints,
)


def _query(indices: list[int], n: int) -> SubsetQuery:
    return SubsetQuery(np.isin(np.arange(n), indices))


class TestFingerprints:
    def test_same_subset_same_fingerprint(self):
        a = SubsetQuery(np.array([True, False, True, False]))
        b = _query([0, 2], 4)
        assert query_fingerprint(a) == query_fingerprint(b)

    def test_different_subsets_differ(self):
        a = _query([0, 2], 4)
        b = _query([0, 3], 4)
        assert query_fingerprint(a) != query_fingerprint(b)

    def test_n_disambiguates_packed_padding(self):
        # [1,0,1] and [1,0,1,0,...,0] pack to the same byte; the length
        # prefix must keep their fingerprints distinct.
        short = SubsetQuery(np.array([True, False, True]))
        padded = _query([0, 2], 8)
        assert query_fingerprint(short) != query_fingerprint(padded)

    def test_accepts_raw_masks(self):
        mask = np.array([True, False, True])
        assert query_fingerprint(mask) == query_fingerprint(SubsetQuery(mask))

    def test_workload_fingerprints_match_per_query(self):
        workload = Workload.random(33, 20, rng=0)
        batched = workload_fingerprints(workload)
        assert batched == [query_fingerprint(query) for query in workload]

    def test_fingerprint_is_16_bytes(self):
        assert len(query_fingerprint(_query([1], 5))) == 16


class TestAnswerCache:
    def test_miss_then_hit(self):
        cache = AnswerCache()
        fp = b"\x00" * 16
        assert cache.get(fp) is None
        cache.put(fp, 3.5)
        assert cache.get(fp) == 3.5
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_lookup_many_counts_stats(self):
        cache = AnswerCache()
        cache.put(b"a" * 16, 1.0)
        results = cache.lookup_many([b"a" * 16, b"b" * 16, b"a" * 16])
        assert results == [1.0, None, 1.0]
        assert cache.hits == 2 and cache.misses == 1

    def test_lru_eviction(self):
        cache = AnswerCache(max_entries=2)
        cache.put(b"a", 1.0)
        cache.put(b"b", 2.0)
        assert cache.get(b"a") == 1.0  # refresh "a"; "b" is now LRU
        cache.put(b"c", 3.0)
        assert cache.get(b"b") is None
        assert cache.get(b"a") == 1.0
        assert cache.get(b"c") == 3.0
        assert len(cache) == 2

    def test_unbounded_by_default(self):
        cache = AnswerCache()
        for value in range(1000):
            cache.put(value.to_bytes(4, "little"), float(value))
        assert len(cache) == 1000

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            AnswerCache(max_entries=0)

    def test_empty_hit_rate_is_zero(self):
        assert AnswerCache().hit_rate == 0.0

    def test_put_many_matches_sequential_puts(self):
        batched = AnswerCache(max_entries=3)
        sequential = AnswerCache(max_entries=3)
        entries = [(bytes([i]) * 16, float(i)) for i in range(5)]
        batched.put_many(entries)
        for fingerprint, answer in entries:
            sequential.put(fingerprint, answer)
        probes = [fingerprint for fingerprint, _ in entries]
        assert batched.lookup_many(probes) == sequential.lookup_many(probes)
        assert len(batched) == 3

    def test_put_many_empty_is_noop(self):
        cache = AnswerCache()
        cache.put_many([])
        assert len(cache) == 0


class TestStripedAnswerCache:
    def test_behaves_like_one_cache(self):
        striped = StripedAnswerCache(stripes=4)
        plain = AnswerCache()
        entries = [(bytes([i, i + 1]) * 8, float(i)) for i in range(32)]
        for cache in (striped, plain):
            cache.put_many(entries[:16])
            for fingerprint, answer in entries[16:24]:
                cache.put(fingerprint, answer)
        probes = [fingerprint for fingerprint, _ in entries]
        assert striped.lookup_many(probes) == plain.lookup_many(probes)
        assert striped.get(entries[0][0]) == plain.get(entries[0][0])
        assert len(striped) == len(plain) == 24
        assert striped.hits == plain.hits and striped.misses == plain.misses
        assert striped.hit_rate == plain.hit_rate

    def test_lookup_many_preserves_order_across_stripes(self):
        striped = StripedAnswerCache(stripes=8)
        entries = [(bytes([i]) * 16, float(i)) for i in range(20)]
        striped.put_many(entries)
        probes = [fingerprint for fingerprint, _ in reversed(entries)]
        assert striped.lookup_many(probes) == [float(i) for i in range(19, -1, -1)]

    def test_global_bound_splits_across_stripes(self):
        striped = StripedAnswerCache(max_entries=8, stripes=4)
        # Worst case one stripe gets everything: its share is ceil(8/4)=2.
        same_stripe = [(b"\x00" * 8 + bytes([i]) * 8, float(i)) for i in range(6)]
        striped.put_many(same_stripe)
        assert len(striped) == 2

    def test_invalid_args(self):
        with pytest.raises(ValueError, match="stripes"):
            StripedAnswerCache(stripes=0)
        with pytest.raises(ValueError, match="max_entries"):
            StripedAnswerCache(max_entries=0)

    def test_stripe_index_is_stable_and_in_range(self):
        striped = StripedAnswerCache(stripes=8)
        for i in range(64):
            fingerprint = bytes([i]) * 16
            index = striped.stripe_index(fingerprint)
            assert 0 <= index < 8
            assert striped.stripe_index(fingerprint) == index
            striped.put(fingerprint, float(i))
            assert len(striped._stripes[index]) > 0


class TestStripedCacheConcurrency:
    """Eviction under concurrent ``put_many`` from many analyst views.

    Each analyst's view prefixes keys with an 8-byte analyst digest, so a
    whole per-analyst batch lands in one stripe; concurrent batches from
    different analysts interleave on different stripe locks.  Whatever the
    interleaving: the global bound holds (worst case ``max_entries +
    stripes`` during a race, settling to per-stripe caps), every surviving
    entry maps back to exactly the analyst who wrote it, and no analyst
    ever observes another analyst's answer through their own view.
    """

    ANALYSTS = [f"analyst-{i}" for i in range(6)]
    MAX_ENTRIES = 48
    STRIPES = 8

    def _storm(self, rounds=8, batch=16):
        import threading

        striped = StripedAnswerCache(max_entries=self.MAX_ENTRIES, stripes=self.STRIPES)
        views = {name: AnalystCacheView(striped, name) for name in self.ANALYSTS}
        barrier = threading.Barrier(len(self.ANALYSTS))
        errors = []

        def encode(name, i):
            # Value encodes (analyst, fingerprint) so any hit proves who
            # wrote it.
            return float(self.ANALYSTS.index(name) * 10_000 + i)

        def pound(name):
            try:
                barrier.wait(timeout=10.0)
                view = views[name]
                for r in range(rounds):
                    entries = [
                        (bytes([r, i]) * 8, encode(name, (r * batch + i) % 256))
                        for i in range(batch)
                    ]
                    view.put_many(entries)
                    for fingerprint, answer in entries:
                        got = view.get(fingerprint)
                        assert got is None or got == answer, (name, r, got)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=pound, args=(name,), name=f"cache-{name}")
            for name in self.ANALYSTS
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors, errors
        return striped, views

    def test_capacity_invariant_under_interleaving(self):
        striped, _ = self._storm()
        per_stripe_cap = -(-self.MAX_ENTRIES // self.STRIPES)
        for stripe in striped._stripes:
            assert len(stripe) <= per_stripe_cap
        assert len(striped) <= self.MAX_ENTRIES + self.STRIPES

    def test_no_cross_analyst_leaks(self):
        striped, views = self._storm()
        # Probe every fingerprint the storm used through every view: a hit
        # must decode to the probing analyst's own value.
        for name, view in views.items():
            analyst_id = self.ANALYSTS.index(name)
            for r in range(8):
                fingerprints = [bytes([r, i]) * 8 for i in range(16)]
                for answer in view.lookup_many(fingerprints):
                    if answer is not None:
                        assert int(answer) // 10_000 == analyst_id

    def test_surviving_entries_all_attributable(self):
        striped, _ = self._storm()
        prefixes = {
            name: AnalystCacheView(striped, name)._prefix for name in self.ANALYSTS
        }
        for stripe in striped._stripes:
            for key in list(stripe._entries):
                owner = [n for n, p in prefixes.items() if key.startswith(p)]
                assert len(owner) == 1  # exactly one analyst owns each key


class TestAnalystCacheView:
    def test_views_are_isolated_per_analyst(self):
        shared = StripedAnswerCache(stripes=4)
        alice = AnalystCacheView(shared, "alice")
        bob = AnalystCacheView(shared, "bob")
        fingerprint = b"\x07" * 16
        alice.put(fingerprint, 1.5)
        assert alice.get(fingerprint) == 1.5
        assert bob.get(fingerprint) is None  # same query, different analyst

    def test_view_stats_are_per_analyst(self):
        shared = StripedAnswerCache(stripes=4)
        alice = AnalystCacheView(shared, "alice")
        bob = AnalystCacheView(shared, "bob")
        fingerprint = b"\x07" * 16
        alice.put(fingerprint, 1.0)
        alice.get(fingerprint)
        bob.get(fingerprint)
        assert alice.hits == 1 and alice.misses == 0
        assert bob.hits == 0 and bob.misses == 1
        assert alice.hit_rate == 1.0 and bob.hit_rate == 0.0

    def test_batched_ops_round_trip(self):
        shared = StripedAnswerCache(stripes=8)
        view = AnalystCacheView(shared, "alice")
        entries = [(bytes([i]) * 16, float(i)) for i in range(10)]
        probes = [fingerprint for fingerprint, _ in entries]
        assert view.lookup_many(probes) == [None] * 10
        view.put_many(entries)
        assert view.lookup_many(probes) == [float(i) for i in range(10)]
        assert view.hits == 10 and view.misses == 10
        assert view.hit_rate == pytest.approx(0.5)

    def test_analyst_batch_lands_in_one_stripe(self):
        # The scoped key starts with the analyst digest, so one analyst's
        # whole workload maps to a single stripe (one lock per batch).
        shared = StripedAnswerCache(stripes=8)
        view = AnalystCacheView(shared, "alice")
        view.put_many([(bytes([i]) * 16, float(i)) for i in range(50)])
        occupied = [len(stripe) for stripe in shared._stripes if len(stripe)]
        assert occupied == [50]

    def test_works_over_plain_answer_cache(self):
        view = AnalystCacheView(AnswerCache(), "alice")
        view.put(b"\x01" * 16, 2.0)
        assert view.get(b"\x01" * 16) == 2.0
