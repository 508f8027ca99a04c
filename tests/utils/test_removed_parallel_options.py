"""``jobs`` is the one parallel setting: the removed surface stays removed.

Every keyword and name below was selected only by tests, or by callers
that always passed the same value: the thread backend was slower than
inline for every trial body, spawn-and-pickle ran only when a test forced
it, and cost weights only regrouped work whose results return in input
order anyway.
"""

import importlib

import numpy as np
import pytest

from repro.core.attackers import TrivialAttacker
from repro.core.isolation import estimate_isolation_rate
from repro.core.leftover_hash import hash_bit_predicate, hash_threshold_predicate
from repro.core.mechanisms import CountMechanism
from repro.core.pso import PSOGame
from repro.data.distributions import uniform_bits_distribution
from repro.experiments.runner import run_experiments
from repro.queries.workload import Workload
from repro.reconstruction import ShardedReconstructor, reconstruct_census
from repro.utils.parallel import parallel_map

DISTRIBUTION = uniform_bits_distribution(8)

CALLS = {
    "parallel_map": lambda **kw: parallel_map(str, [1, 2, 3], jobs=2, **kw),
    "PSOGame.run": lambda **kw: PSOGame(
        DISTRIBUTION,
        8,
        CountMechanism(hash_bit_predicate("removed", 0)),
        TrivialAttacker("negligible"),
    ).run(2, rng=0, **kw),
    "estimate_isolation_rate": lambda **kw: estimate_isolation_rate(
        hash_threshold_predicate("removed", 0.5), DISTRIBUTION, 8, 2, rng=0, **kw
    ),
    "run_experiments": lambda **kw: run_experiments(["E9"], quick=True, **kw),
    "reconstruct_census": lambda **kw: reconstruct_census({}, **kw),
    "ShardedReconstructor.reconstruct": lambda **kw: ShardedReconstructor(
        0.5
    ).reconstruct(Workload.random(8, 24, rng=0), np.zeros(24), **kw),
}

REMOVED_KEYWORDS = [
    *((target, "backend", "serial") for target in CALLS),
    ("parallel_map", "weights", [1.0, 1.0, 1.0]),
    ("parallel_map", "chunks_per_worker", 4),
    ("reconstruct_census", "jobs", 1),
]


@pytest.mark.parametrize(
    "target, keyword, value",
    REMOVED_KEYWORDS,
    ids=[f"{target}-{keyword}" for target, keyword, _ in REMOVED_KEYWORDS],
)
def test_removed_keyword_is_a_type_error(target, keyword, value):
    with pytest.raises(TypeError, match=keyword):
        CALLS[target](**{keyword: value})


REMOVED_NAMES = [
    "BACKENDS",
    "resolve_backend",
    "chunk_indices_weighted",
    "chunk_indices",
    "fork_available",
]


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_name_is_gone(name):
    for module in ("repro.utils", "repro.utils.parallel"):
        imported = importlib.import_module(module)
        assert not hasattr(imported, name), module
        assert name not in getattr(imported, "__all__", ()), module
