"""Shared substrate utilities: RNG plumbing, statistics, tables, asymptotics.

Everything stochastic in this library flows through :func:`ensure_rng`, so
experiments are reproducible from a single integer seed.  The statistics
helpers provide the confidence intervals used by every Monte-Carlo
experiment, :func:`~repro.utils.parallel.parallel_map` fans trial loops
out across forked workers (``jobs`` is its one setting) without
perturbing those seeds, and :mod:`repro.utils.tables`
renders the paper-vs-measured tables printed by the benchmark harness.
"""

from repro.utils.negligible import (
    isolation_probability,
    negligible_weight_threshold,
    optimal_isolation_weight,
)
from repro.utils.parallel import effective_jobs, parallel_map
from repro.utils.rng import RngSeed, derive_rng, ensure_rng, spawn_rngs
from repro.utils.stats import (
    BinomialEstimate,
    clopper_pearson_interval,
    estimate_proportion,
    wilson_interval,
)
from repro.utils.tables import Table

__all__ = [
    "BinomialEstimate",
    "RngSeed",
    "Table",
    "clopper_pearson_interval",
    "derive_rng",
    "effective_jobs",
    "ensure_rng",
    "estimate_proportion",
    "parallel_map",
    "isolation_probability",
    "negligible_weight_threshold",
    "optimal_isolation_weight",
    "spawn_rngs",
    "wilson_interval",
]
