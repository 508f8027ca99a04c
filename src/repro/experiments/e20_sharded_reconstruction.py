"""E20 — census-scale reconstruction through the sharded pipeline.

The 2010 Census reconstruction inverted tables for ~6 million blocks, not
one national system: the published tables never couple variables across
blocks, so the attack decomposes into millions of independent small solves
[24].  E20 stages that regime for the abstract subset-query attack at a
census-like scale — a population of 10^6 bits split into 32-person blocks,
each block answering its own random subset workload with bounded noise —
and runs the full :class:`~repro.reconstruction.sharding.ShardedReconstructor`
pipeline end to end:

1. block structure is *discovered* from the query support (connected
   components of the query-position graph), not assumed;
2. every block decodes on the first-order l2 fast path, batched across
   equal-shape shards;
3. blocks whose rounded candidate fails the feasibility certificate
   escalate to per-block LPs, solved from a cold start; a batch's LPs
   solve concurrently, one thread per usable core.

The attacker's throughput, reconstructed records per second at >= 0.95
agreement, is reported with the stage timings, outside the reproducible
table and headline.  A side probe re-runs a small population with
``jobs=1`` and ``jobs=2`` and checks the joined bits are identical —
the determinism contract that makes the pipeline auditable.  The probe's
blocks come in three sizes, so they decode as three batches: more tasks
than workers, which ``jobs=2`` really splits across two processes.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse

from repro.experiments.runner import ExperimentResult, register
from repro.queries.workload import Workload
from repro.reconstruction.sharding import BlockPartition, ShardedReconstructor
from repro.utils.rng import derive_rng
from repro.utils.tables import Table

#: Persons per census block.
BLOCK_SIZE = 32

#: Queries served per block (3x the block size: comfortably decodable).
QUERIES_PER_BLOCK = 96

#: Worst-case answer noise: each count is off by at most 1.
NOISE_BOUND = 1.0

#: Blocks whose masks are drawn (and whose CSR column indices are taken)
#: at a time: 1,024 default-size blocks are a 24 MiB float64 draw.
BUILD_CHUNK_BLOCKS = 1024


def build_population(
    num_blocks: int, rng: np.random.Generator, block_size: int = BLOCK_SIZE
) -> tuple[Workload, np.ndarray, np.ndarray]:
    """A multi-block population, its block-diagonal workload, noisy answers.

    The workload is assembled directly as one global CSR matrix (never a
    dense mask matrix): block ``p`` contributes rows ``p*m .. p*m+m-1``
    over columns ``p*b .. p*b+b-1`` only, with ``b = block_size`` people
    and ``m = 3b`` queries (:data:`QUERIES_PER_BLOCK` at the default
    size).  Answers carry independent uniform noise in ``{-1, 0, +1}`` —
    bounded by :data:`NOISE_BOUND`, which is the certificate the decoder
    tests against.

    Memory stays near the CSR's own size: the masks are drawn
    :data:`BUILD_CHUNK_BLOCKS` blocks at a time straight into one boolean
    array (the same stream as one whole draw), empty rows are redrawn,
    and the CSR is filled in place, its row pointers from the row counts
    and its column indices chunk by chunk.
    """
    b, m = block_size, block_size * QUERIES_PER_BLOCK // BLOCK_SIZE
    masks = np.empty((num_blocks, m, b), dtype=bool)
    chunks = [
        (start, min(start + BUILD_CHUNK_BLOCKS, num_blocks))
        for start in range(0, num_blocks, BUILD_CHUNK_BLOCKS)
    ]
    for start, stop in chunks:
        masks[start:stop] = rng.random((stop - start, m, b)) < 0.5
    empty = ~masks.any(axis=2)
    while empty.any():
        masks[empty] = rng.random((int(empty.sum()), b)) < 0.5
        empty = ~masks.any(axis=2)

    rows = masks.reshape(num_blocks * m, b)
    counts = np.count_nonzero(rows, axis=1)
    nnz = int(counts.sum())
    # scipy's own choice for this shape and entry count.
    index_dtype = np.int32 if max(nnz, num_blocks * m) < 2**31 else np.int64
    indptr = np.zeros(num_blocks * m + 1, dtype=index_dtype)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(nnz, dtype=index_dtype)
    for start, stop in chunks:
        row, col = np.nonzero(rows[start * m : stop * m])
        indices[indptr[start * m] : indptr[stop * m]] = (start + row // m) * b + col
    matrix = scipy.sparse.csr_matrix(
        (np.ones(nnz), indices, indptr),
        shape=(num_blocks * m, num_blocks * b),
    )
    workload = Workload.from_csr(matrix, copy=False)
    data = rng.integers(0, 2, size=num_blocks * b)
    answers = workload.true_answers(data) + rng.integers(
        -1, 2, size=num_blocks * m
    )
    return workload, data, answers.astype(float)


@register("E20")
def run(seed: int = 0, quick: bool = False, jobs: int = 1) -> ExperimentResult:
    """Reconstruct a block-structured population; report records/second."""
    num_blocks = 320 if quick else 31_250  # 10_240 vs 1_000_000 records
    rng = derive_rng(seed, "e20-population")
    workload, data, answers = build_population(num_blocks, rng)
    n = workload.n

    reconstructor = ShardedReconstructor(alpha=NOISE_BOUND)

    discover_start = time.perf_counter()
    partition = BlockPartition.from_workload(workload)
    discover_seconds = time.perf_counter() - discover_start

    decode_start = time.perf_counter()
    result = reconstructor.reconstruct(
        workload, answers, partition=partition, jobs=jobs
    )
    decode_seconds = time.perf_counter() - decode_start
    elapsed = discover_seconds + decode_seconds
    agreement = result.agreement_with(data)

    # Determinism probe at a small scale: the joined bits must be
    # bit-identical whatever the worker count.  Blocks of three sizes make
    # three batches, so jobs=2 forks two workers rather than running the
    # one batch a single-size population would make.
    probes = [
        build_population(16, derive_rng(seed, "e20-probe", size), block_size=size)
        for size in (16, 24, BLOCK_SIZE)
    ]
    probe_workload = Workload.from_csr(
        scipy.sparse.block_diag(
            [probe[0].matrix(sparse=True) for probe in probes], format="csr"
        ),
        copy=False,
    )
    probe_answers = np.concatenate([probe[2] for probe in probes])
    serial = reconstructor.reconstruct(probe_workload, probe_answers, jobs=1)
    forked = reconstructor.reconstruct(probe_workload, probe_answers, jobs=2)
    jobs_invariant = bool(
        (serial.reconstruction == forked.reconstruction).all()
    )

    pipeline = Table(
        ["stage", "value"],
        title=f"E20: sharded reconstruction of {n:,} records "
        f"({num_blocks:,} blocks of {BLOCK_SIZE})",
    )
    pipeline.add_row(["blocks discovered", partition.num_blocks])
    pipeline.add_row(["unconstrained positions", len(partition.unconstrained)])
    pipeline.add_row(
        ["shards certified by l2", f"{result.certified}/{result.blocks}"]
    )
    pipeline.add_row(["shards escalated to LP", result.escalated])
    pipeline.add_row(["agreement", f"{agreement:.4f}"])
    pipeline.add_row(["jobs=1 == jobs=2 (probe)", jobs_invariant])

    return ExperimentResult(
        experiment_id="E20",
        title="Census-scale sharded reconstruction (l2 fast path + LP escalation)",
        paper_claim=(
            "The census reconstruction attack scales because tables are "
            "tabulated per block [24]: the national problem decomposes into "
            "millions of independent small inversions, each individually easy"
        ),
        tables=(pipeline,),
        headline={
            "population": n,
            "blocks": partition.num_blocks,
            "agreement": agreement,
            "certified_fraction": result.certified / result.blocks,
            "escalated_shards": result.escalated,
            "jobs_invariant": jobs_invariant,
        },
        timings={
            "discovery_seconds": discover_seconds,
            "decode_seconds": decode_seconds,
            "records_per_second": n / elapsed,
        },
    )
