"""Database reconstruction attacks.

The paper's title phenomenon: Section 1 recounts the Dinur-Nissim result
(Theorem 1.1) that a mechanism answering subset-count queries on
``x in {0,1}^n`` is *blatantly non-private* — an attacker reconstructs a
vector agreeing with ``x`` on 95%+ of entries — unless the noise is at
least ~sqrt(n) or the number of queries is curtailed; and the 2010 Census
reconstruction, where published marginal tables were inverted back into
person-level records.

* :mod:`repro.reconstruction.dinur_nissim` — the exponential attack
  (all ``2^n`` queries, noise up to ``c*n``).
* :mod:`repro.reconstruction.lp_decode` — the polynomial attack (LP
  decoding of ``O(n)`` random queries, noise up to ``c'*sqrt(n)``).
* :mod:`repro.reconstruction.l2_decode` — the first-order least-squares
  fast path (KRS-style projection + rounding; no LP).
* :mod:`repro.reconstruction.sharding` — census-scale decomposition into
  per-block shards: l2 by default, per-shard LP escalation, parallel
  dispatch, deterministic join.
* :mod:`repro.reconstruction.tabulation` — the census-style table system
  published per block.
* :mod:`repro.reconstruction.census_solver` — inverting the tables back
  into microdata and scoring exact-match and re-identification rates.
"""

from repro.reconstruction.dinur_nissim import (
    ExhaustiveReconstructionResult,
    exhaustive_reconstruction,
)
from repro.reconstruction.lp_decode import (
    LpReconstructionResult,
    reconstruct_from_answers,
    solve_least_l1,
)
from repro.reconstruction.l2_decode import (
    L2ReconstructionResult,
    l2_decode,
    l2_decode_batch,
)
from repro.reconstruction.sharding import (
    BlockPartition,
    ShardedReconstructionResult,
    ShardedReconstructor,
    ShardReport,
)
from repro.reconstruction.tabulation import BlockTables, tabulate_blocks
from repro.reconstruction.census_solver import (
    CensusReconstructionResult,
    reconstruct_census,
    reidentify,
    reidentify_records,
)

__all__ = [
    "BlockPartition",
    "BlockTables",
    "CensusReconstructionResult",
    "ExhaustiveReconstructionResult",
    "L2ReconstructionResult",
    "LpReconstructionResult",
    "ShardReport",
    "ShardedReconstructionResult",
    "ShardedReconstructor",
    "exhaustive_reconstruction",
    "l2_decode",
    "l2_decode_batch",
    "reconstruct_census",
    "reconstruct_from_answers",
    "reidentify",
    "reidentify_records",
    "solve_least_l1",
    "tabulate_blocks",
]
