"""Tests for the Monte-Carlo weight-bound cache (Predicate.weight_bound)."""

import pytest

from repro.core.predicate import (
    Predicate,
    attribute_predicate,
    clear_weight_bound_cache,
    weight_bound_cache_info,
)
from repro.data.distributions import uniform_bits_distribution


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_weight_bound_cache()
    yield
    clear_weight_bound_cache()


class SamplingSpy:
    """Wraps a distribution and records every ``sample`` call."""

    def __init__(self, inner):
        self.inner = inner
        self.sample_calls = 0

    @property
    def schema(self):
        return self.inner.schema

    @property
    def cache_token(self):
        return self.inner.cache_token

    def sample(self, n, rng=None):
        self.sample_calls += 1
        return self.inner.sample(n, rng)

    def conjunction_weight(self, conditions):
        return self.inner.conjunction_weight(conditions)


def opaque_predicate(label: str) -> Predicate:
    """A predicate with no structure, so weight_bound must Monte-Carlo it."""
    return Predicate(lambda record: record["b0"] == 1, f"opaque[{label}]")


SAMPLES = 400


class TestCacheHits:
    def test_hit_returns_same_bound_without_resampling(self):
        spy = SamplingSpy(uniform_bits_distribution(4))
        predicate = opaque_predicate("p")
        first = predicate.weight_bound(spy, samples=SAMPLES)
        assert spy.sample_calls == 1
        second = predicate.weight_bound(spy, samples=SAMPLES)
        assert spy.sample_calls == 1  # served from cache, no new sampling
        assert second == first
        info = weight_bound_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1 and info["size"] == 1

    def test_equal_predicate_objects_share_an_entry(self):
        spy = SamplingSpy(uniform_bits_distribution(4))
        opaque_predicate("same").weight_bound(spy, samples=SAMPLES)
        opaque_predicate("same").weight_bound(spy, samples=SAMPLES)
        assert spy.sample_calls == 1

    def test_rng_argument_does_not_change_a_cached_value(self):
        # Cached values are pure functions of the key (key-derived RNG), so
        # callers passing different rngs still agree — the property that
        # keeps parallel and serial runs bit-identical.
        spy = SamplingSpy(uniform_bits_distribution(4))
        first = opaque_predicate("p").weight_bound(spy, samples=SAMPLES, rng=1)
        second = opaque_predicate("p").weight_bound(spy, samples=SAMPLES, rng=2)
        assert first == second


class TestCacheKeying:
    def test_distinct_predicates_do_not_collide(self):
        spy = SamplingSpy(uniform_bits_distribution(4))
        opaque_predicate("a").weight_bound(spy, samples=SAMPLES)
        opaque_predicate("b").weight_bound(spy, samples=SAMPLES)
        assert spy.sample_calls == 2
        assert weight_bound_cache_info()["size"] == 2

    def test_distinct_distributions_do_not_collide(self):
        narrow = SamplingSpy(uniform_bits_distribution(4))
        wide = SamplingSpy(uniform_bits_distribution(6))
        predicate = opaque_predicate("p")
        predicate.weight_bound(narrow, samples=SAMPLES)
        predicate.weight_bound(wide, samples=SAMPLES)
        assert narrow.sample_calls == 1 and wide.sample_calls == 1
        assert weight_bound_cache_info()["size"] == 2

    def test_distinct_sampling_parameters_do_not_collide(self):
        spy = SamplingSpy(uniform_bits_distribution(4))
        predicate = opaque_predicate("p")
        predicate.weight_bound(spy, samples=SAMPLES)
        predicate.weight_bound(spy, samples=2 * SAMPLES)
        predicate.weight_bound(spy, samples=SAMPLES, confidence=0.9)
        assert spy.sample_calls == 3


class TestCacheBypass:
    def test_distribution_without_token_is_not_cached(self):
        class Tokenless(SamplingSpy):
            @property
            def cache_token(self):
                return None

        spy = Tokenless(uniform_bits_distribution(4))
        predicate = opaque_predicate("p")
        predicate.weight_bound(spy, samples=SAMPLES)
        predicate.weight_bound(spy, samples=SAMPLES)
        assert spy.sample_calls == 2
        assert weight_bound_cache_info()["size"] == 0

    def test_structural_predicates_never_touch_the_cache(self):
        spy = SamplingSpy(uniform_bits_distribution(4))
        structural = attribute_predicate("b0", 1)
        assert structural.weight_bound(spy) == pytest.approx(0.5)
        assert spy.sample_calls == 0
        assert weight_bound_cache_info()["size"] == 0
