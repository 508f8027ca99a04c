"""Standalone scaling benchmark for the parallel Monte-Carlo engine.

Two workloads::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py
    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --trials 400 --jobs 1 2 4 8

**Workload A — PSO game fan-out.**  The E9-style count-mechanism PSO game
timed at several ``jobs`` values.  Every parallel run is asserted
bit-identical to the serial run (same ``PSOTrial`` tuples, same estimates),
so the speedup column measures the engine, not a different computation.
Speedups are reported against measured wall-clock together with the
machine's usable core count: on a single-core box forked workers cannot
beat serial (there is nothing to run concurrently on) and the table will
honestly show ~1x or a small regression; on 4+ cores the game scales
near-linearly because trials are embarrassingly parallel.  Without
``fork`` every ``jobs`` value runs inline.

**Workload B — weight-bound cache.**  Repeated ``Predicate.weight_bound``
calls on opaque (Monte-Carlo-priced) predicates, cache on vs off, with the
distribution wrapped so every ``sample`` call is counted.  The cache turns
R repeated bounds per predicate into one sampling pass per predicate, a
wall-clock win that does not depend on core count.
"""

from __future__ import annotations

import argparse
import time

from repro.core.attackers import CountExploitingAttacker
from repro.core.leftover_hash import hash_bit_predicate
from repro.core.mechanisms import CountMechanism
from repro.core.predicate import (
    Predicate,
    clear_weight_bound_cache,
    weight_bound_cache_info,
)
from repro.core.pso import PSOGame
from repro.data.distributions import uniform_bits_distribution
from repro.utils.parallel import usable_cores
from repro.utils.rng import derive_rng
from repro.utils.tables import Table


class CountingDistribution:
    """Transparent wrapper counting ``sample`` calls (for Workload B)."""

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

    def estimate_weight(self, predicate, samples=20_000, rng=None):
        self.sample_calls += 1
        return self.inner.estimate_weight(predicate, samples=samples, rng=rng)


def _trial_fingerprint(result) -> tuple:
    """Everything a trial decides, as one comparable tuple per trial."""
    return tuple(
        (trial.isolated, trial.weight_bound, trial.weight_negligible, trial.abstained)
        for trial in result.trials
    )


def bench_game_scaling(trials: int, jobs_grid: list[int], seed: int) -> Table:
    """Workload A: the E9 count-PSO game at each jobs value, vs serial."""
    n = 200
    distribution = uniform_bits_distribution(64)
    mechanism = CountMechanism(hash_bit_predicate("bench-q", 0))
    adversary = CountExploitingAttacker("negligible")
    game = PSOGame(distribution, n, mechanism, adversary)

    def timed_run(jobs: int):
        clear_weight_bound_cache()
        start = time.perf_counter()
        result = game.run(trials, derive_rng(seed, "bench-scaling"), jobs=jobs)
        return result, time.perf_counter() - start

    serial_result, serial_elapsed = timed_run(1)
    serial_prints = _trial_fingerprint(serial_result)

    table = Table(
        ["jobs", "wall-clock (s)", "speedup vs jobs=1", "bit-identical"],
        title=(
            f"Workload A: count-PSO game, n={n}, {trials} trials "
            f"({usable_cores()} usable cores)"
        ),
    )
    table.add_row([1, f"{serial_elapsed:.2f}", "1.00x", "-"])
    for jobs in jobs_grid:
        if jobs <= 1:
            continue
        result, elapsed = timed_run(jobs)
        identical = (
            _trial_fingerprint(result) == serial_prints
            and str(result.success) == str(serial_result.success)
        )
        assert identical, f"jobs={jobs} diverged from the serial run"
        table.add_row(
            [jobs, f"{elapsed:.2f}", f"{serial_elapsed / elapsed:.2f}x", "yes"]
        )
    return table


def bench_weight_cache(repeats: int, predicates: int, samples: int, seed: int) -> Table:
    """Workload B: repeated MC weight bounds, cache on vs off."""
    base = uniform_bits_distribution(32)

    def opaque(index: int) -> Predicate:
        salt = f"bench-cache-{index}"
        inner = hash_bit_predicate(salt, 0)
        # Strip the analytic weight so weight_bound must go the MC route —
        # the case the cache exists for.
        return Predicate(inner, f"opaque[{salt}]")

    def run(cache: bool):
        distribution = CountingDistribution(base)
        clear_weight_bound_cache()
        bounds = []
        start = time.perf_counter()
        for _round in range(repeats):
            for index in range(predicates):
                bounds.append(
                    opaque(index).weight_bound(
                        distribution,
                        samples=samples,
                        rng=derive_rng(seed, "bench-cache", index),
                        cache=cache,
                    )
                )
        elapsed = time.perf_counter() - start
        return bounds, elapsed, distribution.sample_calls, weight_bound_cache_info()

    bounds_on, elapsed_on, calls_on, info_on = run(cache=True)
    bounds_off, elapsed_off, calls_off, _info_off = run(cache=False)

    # Cache hits must return the exact stored bound.
    first_round = bounds_on[:predicates]
    assert all(
        bounds_on[i] == first_round[i % predicates] for i in range(len(bounds_on))
    ), "cache hit returned a different bound than the original computation"

    table = Table(
        ["configuration", "sample() calls", "cache hits/misses", "wall-clock (s)"],
        title=(
            f"Workload B: weight_bound x {repeats} rounds x {predicates} "
            f"predicates, {samples} MC samples each"
        ),
    )
    table.add_row(
        [
            "cache on",
            calls_on,
            f"{info_on['hits']}/{info_on['misses']}",
            f"{elapsed_on:.2f}",
        ]
    )
    table.add_row(["cache off", calls_off, "-", f"{elapsed_off:.2f}"])
    table.add_row(
        [
            "reduction",
            f"{calls_off}/{calls_on} = {calls_off / max(1, calls_on):.0f}x fewer",
            "",
            f"{elapsed_off / max(1e-9, elapsed_on):.1f}x faster",
        ]
    )
    assert calls_on == predicates, "cache-on run should sample once per predicate"
    assert calls_off == repeats * predicates
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=200, help="game trials (workload A)")
    parser.add_argument(
        "--jobs", type=int, nargs="+", default=[1, 2, 4], help="jobs grid (workload A)"
    )
    parser.add_argument("--repeats", type=int, default=20, help="rounds (workload B)")
    parser.add_argument(
        "--predicates", type=int, default=5, help="distinct predicates (workload B)"
    )
    parser.add_argument(
        "--samples", type=int, default=20_000, help="MC samples per bound (workload B)"
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    print(bench_game_scaling(args.trials, args.jobs, args.seed).render())
    print()
    print(bench_weight_cache(args.repeats, args.predicates, args.samples, args.seed).render())
    if usable_cores() < 2:
        print()
        print(
            "note: this process may use a single CPU core, so workload A's "
            "forked workers have no parallel hardware to use; expect ~1x there "
            "and rely on workload B for the single-core win."
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
