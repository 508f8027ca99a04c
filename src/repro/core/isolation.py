"""Isolation — Definition 2.1 — and the trivial-attacker arithmetic.

A predicate *isolates* in ``x = (x_1, ..., x_n)`` when it evaluates to 1 on
exactly one record.  Note the definition acts on record *values*: a
predicate cannot refer to a record's position ("the first record"), and two
identical records can never be isolated by any predicate.

Matching is evaluated through the dataset's batched path
(:meth:`~repro.data.dataset.Dataset.match_mask`): structured predicates go
column-wise without per-record Python objects, opaque callables fall back
to a loop.  :func:`estimate_isolation_rate` is the Monte-Carlo isolation
estimator, trial-parallel via ``jobs=``.
"""

from __future__ import annotations

from typing import Callable

from repro.data.dataset import Dataset, Record
from repro.data.distributions import ProductDistribution
from repro.utils.negligible import (
    baseline_isolation_probability,
    isolation_probability,
    optimal_isolation_weight,
)
from repro.utils.parallel import parallel_map
from repro.utils.rng import RngSeed, spawn_rngs
from repro.utils.stats import BinomialEstimate, estimate_proportion

__all__ = [
    "baseline_isolation_probability",
    "estimate_isolation_rate",
    "isolates",
    "isolation_probability",
    "optimal_isolation_weight",
]


def isolates(predicate: Callable[[Record], bool], dataset: Dataset) -> bool:
    """Definition 2.1: ``p`` isolates in ``x`` iff ``sum_i p(x_i) = 1``."""
    return dataset.match_count(predicate) == 1


def estimate_isolation_rate(
    predicate: Callable[[Record], bool],
    distribution: ProductDistribution,
    n: int,
    trials: int,
    rng: RngSeed = None,
    jobs: int = 1,
) -> BinomialEstimate:
    """Monte-Carlo estimate of ``Pr_{x ~ D^n}[p isolates in x]``.

    The quantity behind the paper's ~37% birthday example: a fixed
    weight-``1/n`` predicate isolates in a fresh dataset with probability
    ``n * w * (1-w)^(n-1)``.  One dataset is sampled per trial from an
    independent spawned stream, so for a fixed ``rng`` the estimate is
    identical for every ``jobs`` value (trials fan out through
    :func:`repro.utils.parallel.parallel_map`).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")

    def one_trial(stream) -> bool:
        return isolates(predicate, distribution.sample(n, stream))

    wins = parallel_map(one_trial, spawn_rngs(rng, trials), jobs=jobs)
    return estimate_proportion(sum(wins), trials)
