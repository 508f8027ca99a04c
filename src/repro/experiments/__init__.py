"""Experiment harness: every numeric claim in the paper, regenerated.

The paper is a keynote without measurement tables, so its "evaluation" is
the set of quantitative claims indexed in DESIGN.md (Section 5), extended
by the later subsystem experiments (E13-E20).
Each module here regenerates one claim end to end — workload, attack,
baseline, and a paper-vs-measured table.  The tier-1 tests check each
quick run's headline ranges and pin its rendered output by digest.

Run everything::

    python -m repro.experiments

or individually::

    from repro.experiments import run_experiment
    print(run_experiment("E4").render())
"""

from repro.experiments.runner import (
    EXPERIMENTS,
    ExperimentResult,
    register,
    run_experiment,
)

# Importing the modules registers them.
from repro.experiments import (  # noqa: E402,F401  (registration imports)
    e01_exhaustive_reconstruction,
    e02_lp_reconstruction,
    e03_noise_tradeoff,
    e04_sweeney_uniqueness,
    e05_linkage_attack,
    e06_netflix_fingerprint,
    e07_census_reconstruction,
    e08_baseline_isolation,
    e09_count_pso,
    e10_composition_attack,
    e11_dp_pso,
    e12_kanon_pso,
    e13_intersection_attack,
    e14_secret_sharer,
    e15_ml_membership,
    e16_genomic_membership,
    e17_graph_deanonymization,
    e18_service_audit,
    e19_synthetic_release,
    e20_sharded_reconstruction,
    e21_release_approval,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "register",
    "run_experiment",
]
