"""Sharded reconstruction: partition discovery, equivalence, determinism."""

import itertools
import threading

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from repro.queries.workload import Workload
from repro.reconstruction import sharding
from repro.reconstruction.lp_decode import reconstruct_from_answers
from repro.reconstruction.sharding import (
    BlockPartition,
    ShardedReconstructor,
    ShardedReconstructionResult,
    _block_columns,
    _dense_stack,
)
from repro.utils import parallel
from repro.utils.rng import derive_rng


def _block_separable(
    block_sizes,
    seed,
    queries_factor=3,
    permute=False,
    singletons=False,
    queries=None,
    unconstrained=0,
):
    """A block-diagonal workload over blocks of the given sizes.

    Returns (workload, data, exact_answers, labels); with ``permute`` the
    positions of different blocks are interleaved, so discovery cannot rely
    on contiguity.  ``singletons`` adds the per-position singleton queries,
    which (with exact answers and alpha < 0.5) make the transcript determine
    the data uniquely — any feasible point rounds to the truth.  Each block
    gets ``queries`` random queries (``queries_factor`` times its size when
    omitted); ``unconstrained`` appends that many positions no query reads,
    each under a label of its own.
    """
    rng = derive_rng(seed, "sharding-test", tuple(block_sizes))
    mats, bits, labels = [], [], []
    for index, b in enumerate(block_sizes):
        m = queries or queries_factor * b
        masks = rng.random((m, b)) < 0.5
        empty = ~masks.any(axis=1)
        while empty.any():
            masks[empty] = rng.random((int(empty.sum()), b)) < 0.5
            empty = ~masks.any(axis=1)
        if singletons:
            masks = np.vstack([np.eye(b, dtype=bool), masks])
        mats.append(scipy.sparse.csr_matrix(masks.astype(np.float64)))
        bits.append(rng.integers(0, 2, size=b))
        labels.extend([index] * b)
    matrix = scipy.sparse.block_diag(mats, format="csr")
    if unconstrained:
        idle = scipy.sparse.csr_matrix((matrix.shape[0], unconstrained))
        matrix = scipy.sparse.hstack([matrix, idle], format="csr")
        bits.append(rng.integers(0, 2, size=unconstrained))
        labels.extend(range(len(block_sizes), len(block_sizes) + unconstrained))
    data = np.concatenate(bits)
    labels = np.asarray(labels)
    if permute:
        permutation = rng.permutation(matrix.shape[1])
        matrix = matrix[:, permutation].tocsr()
        data = data[permutation]
        labels = labels[permutation]
    workload = Workload.from_csr(matrix, copy=False)
    return workload, data, workload.true_answers(data).astype(float), labels


def _star_graph_partition(workload):
    """Blocks, query blocks and unconstrained positions, found the way
    discovery used to: a star graph joining each query's first position to
    its others, components labelled by the graph's own numbering."""
    csr = workload.matrix(sparse=True)
    m, n = csr.shape
    heads = csr.indices[csr.indptr[:-1]]
    tails = np.delete(csr.indices, csr.indptr[:-1])
    star = scipy.sparse.coo_matrix(
        (np.ones(len(tails)), (np.repeat(heads, np.diff(csr.indptr) - 1), tails)),
        shape=(n, n),
    )
    _, labels = connected_components(star, directed=False)
    covered = np.zeros(n, dtype=bool)
    covered[csr.indices] = True
    members = {}
    for position in np.flatnonzero(covered):
        members.setdefault(labels[position], []).append(int(position))
    order = sorted(members, key=lambda label: members[label][0])
    rows = {label: [] for label in order}
    for row, head in enumerate(heads):
        rows[labels[head]].append(row)
    return (
        [members[label] for label in order],
        [rows[label] for label in order],
        np.flatnonzero(~covered).tolist(),
    )


def _noisy_batch(seed=6):
    """Twenty 8-person blocks under ±1 noise at alpha=1: one batch, six of
    whose blocks (3, 4, 11, 17, 18, 19) fail the certificate."""
    workload, data, answers, _ = _block_separable([8] * 20, seed=seed)
    noisy = answers + derive_rng(seed, "noise").integers(-1, 2, size=len(answers))
    return workload, data, noisy


def _on_cores(monkeypatch, cores):
    monkeypatch.setattr(parallel, "usable_cores", lambda: cores)


class TestBlockPartition:
    def test_discovers_diagonal_blocks(self):
        workload, _, _, labels = _block_separable([4, 6, 3], seed=0)
        partition = BlockPartition.from_workload(workload)
        assert partition.num_blocks == 3
        assert partition.block_sizes.tolist() == [4, 6, 3]
        assert len(partition.unconstrained) == 0
        for block, query_rows in zip(partition.blocks, partition.query_blocks):
            # Every assigned query's support sits inside its block.
            sub = workload.matrix(sparse=True)[query_rows]
            assert set(sub.indices).issubset(set(block.tolist()))

    def test_discovery_survives_position_interleaving(self):
        workload, _, _, labels = _block_separable([5, 5, 5], seed=1, permute=True)
        partition = BlockPartition.from_workload(workload)
        assert partition.num_blocks == 3
        for block in partition.blocks:
            # Each discovered block is one original block, whatever the order.
            assert len(set(labels[block].tolist())) == 1

    def test_unconstrained_positions_reported(self):
        # Only 3 of 5 positions are ever queried.
        masks = np.array([[1, 1, 0, 0, 0], [0, 1, 0, 1, 0]], dtype=bool)
        partition = BlockPartition.from_workload(Workload(masks))
        assert partition.num_blocks == 1
        assert partition.unconstrained.tolist() == [2, 4]

    def test_single_connected_workload_is_one_block(self):
        workload = Workload.random(16, 64, rng=2)
        partition = BlockPartition.from_workload(workload)
        assert partition.num_blocks == 1
        assert len(partition.blocks[0]) == 16

    def test_from_labels_matches_discovery(self):
        # Discovery recovers the ground-truth label groups, interleaved
        # positions and all, numbered by their smallest position.
        workload, _, _, labels = _block_separable([4, 6, 3], seed=3, permute=True)
        csr = workload.matrix(sparse=True)
        row_labels = labels[csr.indices[csr.indptr[:-1]]]
        order = sorted(set(labels.tolist()), key=lambda k: np.flatnonzero(labels == k)[0])
        partition = BlockPartition.from_workload(workload)
        assert [block.tolist() for block in partition.blocks] == [
            np.flatnonzero(labels == k).tolist() for k in order
        ]
        assert [rows.tolist() for rows in partition.query_blocks] == [
            np.flatnonzero(row_labels == k).tolist() for k in order
        ]

    def test_dense_stack_equals_per_shard_slices(self):
        # Interleaved positions: no block's columns are contiguous, so each
        # entry must find its in-block column through the position map.
        workload, _, _, _ = _block_separable([5] * 4 + [7] * 3, seed=11, permute=True)
        partition = BlockPartition.from_workload(workload)
        csr = workload.matrix(sparse=True)
        columns = _block_columns(partition)
        slices = []
        for rows, block in zip(partition.query_blocks, partition.blocks):
            assert not np.array_equal(block, np.arange(block[0], block[0] + len(block)))
            sliced = csr[rows][:, block].toarray()
            stack = _dense_stack(csr, rows, columns, (1, *sliced.shape))
            np.testing.assert_array_equal(stack[0], sliced)
            slices.append(sliced)
        # A multi-shard task stacks the shards in task order.
        fives = np.flatnonzero(partition.block_sizes == 5)
        task = [fives[3], fives[0], fives[2]]
        rows = np.concatenate([partition.query_blocks[i] for i in task])
        stack = _dense_stack(csr, rows, columns, (3, *slices[0].shape))
        np.testing.assert_array_equal(stack, np.stack([slices[i] for i in task]))

    def test_block_columns_mark_unconstrained_positions(self):
        masks = np.array([[0, 1, 0, 1, 0], [0, 0, 1, 0, 0]], dtype=bool)
        partition = BlockPartition.from_workload(Workload(masks))
        assert _block_columns(partition).tolist() == [-1, 0, 0, 1, -1]

    @given(
        seed=st.integers(0, 1000),
        block_sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6),
        queries=st.integers(1, 12),
        singletons=st.booleans(),
        unconstrained=st.integers(0, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_bipartite_discovery_equals_the_star_graph(
        self, seed, block_sizes, queries, singletons, unconstrained
    ):
        # Interleaved positions, single-position queries and positions no
        # query reads: the query-position graph finds the star graph's
        # components, numbered by their smallest position.
        workload, _, _, _ = _block_separable(
            block_sizes,
            seed,
            permute=True,
            singletons=singletons,
            queries=queries,
            unconstrained=unconstrained,
        )
        blocks, query_blocks, idle = _star_graph_partition(workload)
        partition = BlockPartition.from_workload(workload)
        assert [block.tolist() for block in partition.blocks] == blocks
        assert [rows.tolist() for rows in partition.query_blocks] == query_blocks
        assert partition.unconstrained.tolist() == idle
        assert len(idle) >= unconstrained

    def test_empty_query_rejected(self):
        matrix = scipy.sparse.csr_matrix(
            np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        )
        with pytest.raises(ValueError, match="empty support"):
            BlockPartition.from_workload(Workload.from_csr(matrix))


class TestShardedReconstructor:
    @given(
        seed=st.integers(0, 100),
        block_sizes=st.lists(st.integers(2, 10), min_size=1, max_size=5),
        permute=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_sharded_equals_whole_population(self, seed, block_sizes, permute):
        """On a block-separable transcript that determines the data uniquely,
        the sharded decode and the whole-population decode recover the same
        bits.  Singleton queries plus exact answers at alpha < 0.5 pin every
        position: any feasible point rounds to the truth, so both decoders
        must land on it (without this pinning the feasibility polytope of a
        tiny block can contain several integer points and the two decoders
        may legitimately pick different ones)."""
        workload, data, answers, _ = _block_separable(
            block_sizes, seed, permute=permute, singletons=True
        )
        sharded = ShardedReconstructor(alpha=0.25).reconstruct(workload, answers)
        whole = reconstruct_from_answers(workload, answers, alpha=0.25)
        assert np.array_equal(sharded.reconstruction, whole.reconstruction)
        assert sharded.agreement_with(data) == 1.0

    def test_bit_identical_across_jobs_and_backends(self, monkeypatch):
        # Three block shapes batch as three tasks; the 12-person blocks
        # exceed the dense limit and decode alone on the sparse path.  Six
        # tasks, so every worker count here really splits the work.
        monkeypatch.setattr(sharding, "DENSE_LIMIT", 400)
        sizes = [6] * 5 + [7] * 4 + [8] * 4 + [12] * 3
        workload, _, answers, _ = _block_separable(sizes, seed=5, permute=True)
        noisy = answers + derive_rng(5, "noise").integers(-1, 2, size=len(answers))
        reconstructor = ShardedReconstructor(alpha=1.0)
        tasks = sharding._build_tasks(BlockPartition.from_workload(workload))
        assert sorted(len(task) for task in tasks) == [1, 1, 1, 4, 4, 5]
        # The serial reference: one usable core, so every escalation
        # solves on the calling thread.
        with monkeypatch.context() as one_core:
            _on_cores(one_core, 1)
            reference = reconstructor.reconstruct(workload, noisy, jobs=1)
        assert reference.escalated > 0
        pooled = reconstructor.reconstruct(workload, noisy, jobs=1)
        assert np.array_equal(reference.reconstruction, pooled.reconstruction)
        assert reference.shard_reports == pooled.shard_reports
        for jobs in (2, 3, 4):
            assert len(tasks) > jobs
            other = reconstructor.reconstruct(workload, noisy, jobs=jobs)
            assert np.array_equal(reference.reconstruction, other.reconstruction)
            assert reference.shard_reports == other.shard_reports

    def test_escalation_engages_and_recovers(self):
        # ±1 noise at a tight certificate: some shards must fail the l2
        # certificate and go through the LP, and the join still decodes.
        workload, data, answers, _ = _block_separable([8] * 20, seed=6)
        noisy = answers + derive_rng(6, "noise").integers(-1, 2, size=len(answers))
        result = ShardedReconstructor(alpha=1.0).reconstruct(workload, noisy)
        assert result.agreement_with(data) >= 0.95
        assert result.certified + result.escalated >= result.blocks
        assert result.blocks == 20

    def test_a_batch_escalations_overlap(self, monkeypatch):
        # Two usable cores: the first two escalations of the batch must be
        # in flight together.  Each waits for the other at a barrier; run
        # one after another, the first times out and the test fails.
        workload, _, noisy = _noisy_batch()
        reconstructor = ShardedReconstructor(alpha=1.0)
        with monkeypatch.context() as one_core:
            _on_cores(one_core, 1)
            serial = reconstructor.reconstruct(workload, noisy)
        _on_cores(monkeypatch, 2)
        barrier = threading.Barrier(2, timeout=30)
        calls = itertools.count()

        def meet_then_solve(*args, **kwargs):
            if next(calls) < 2:
                barrier.wait()
            return reconstruct_from_answers(*args, **kwargs)

        monkeypatch.setattr(sharding, "reconstruct_from_answers", meet_then_solve)
        overlapped = reconstructor.reconstruct(workload, noisy)
        assert next(calls) == serial.escalated == 6
        assert np.array_equal(serial.reconstruction, overlapped.reconstruction)
        assert serial.shard_reports == overlapped.shard_reports

    def test_an_escalation_error_propagates(self, monkeypatch):
        workload, _, noisy = _noisy_batch()
        _on_cores(monkeypatch, 2)
        calls = itertools.count()

        def fail_once(*args, **kwargs):
            if next(calls) == 3:
                raise RuntimeError("solver crashed")
            return reconstruct_from_answers(*args, **kwargs)

        monkeypatch.setattr(sharding, "reconstruct_from_answers", fail_once)
        with pytest.raises(RuntimeError, match="solver crashed"):
            ShardedReconstructor(alpha=1.0).reconstruct(workload, noisy)

    def test_escalation_can_be_disabled(self):
        # Without alpha there is no certificate: no shard certifies, and
        # none escalates, however large its residual.
        workload, _, answers, _ = _block_separable([8] * 6, seed=7)
        noisy = answers + derive_rng(7, "noise").integers(-1, 2, size=len(answers))
        result = ShardedReconstructor(alpha=None).reconstruct(workload, noisy)
        assert result.escalated == 0
        assert result.certified == 0
        assert np.isnan(result.alpha)
        assert result.max_residual > 1.0

    def test_unconstrained_positions_decode_to_zero(self):
        masks = np.zeros((4, 6), dtype=bool)
        masks[:, :4] = np.array(
            [[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1], [0, 0, 1, 1]], dtype=bool
        )
        workload = Workload(masks)
        data = np.array([1, 0, 1, 1, 0, 1])
        answers = workload.true_answers(data).astype(float)
        result = ShardedReconstructor(alpha=0.5).reconstruct(workload, answers)
        assert result.reconstruction[4] == 0
        assert result.reconstruction[5] == 0

    def test_shard_reports_cover_every_block(self):
        workload, _, answers, _ = _block_separable([3, 5, 7], seed=8)
        result = ShardedReconstructor(alpha=0.5).reconstruct(workload, answers)
        assert isinstance(result, ShardedReconstructionResult)
        assert [r.block for r in result.shard_reports] == [0, 1, 2]
        assert [r.size for r in result.shard_reports] == [3, 5, 7]
        assert [r.queries for r in result.shard_reports] == [9, 15, 21]
        assert result.max_residual <= 0.5

    def test_oversized_shards_take_the_sparse_path(self, monkeypatch):
        # A dense limit of 1 forces every shard through the single-shard
        # branch; the bits must match the batched pipeline exactly.
        workload, _, answers, _ = _block_separable([6] * 8, seed=9)
        reconstructor = ShardedReconstructor(alpha=0.5)
        batched = reconstructor.reconstruct(workload, answers)
        monkeypatch.setattr(sharding, "DENSE_LIMIT", 1)
        partition = BlockPartition.from_workload(workload)
        assert [len(task) for task in sharding._build_tasks(partition)] == [1] * 8
        sparse = reconstructor.reconstruct(workload, answers)
        assert np.array_equal(batched.reconstruction, sparse.reconstruction)

    def test_validation(self):
        workload, _, answers, _ = _block_separable([4, 4], seed=10)
        reconstructor = ShardedReconstructor(alpha=0.5)
        with pytest.raises(ValueError):
            reconstructor.reconstruct(workload, answers[:-1])
        other = BlockPartition.from_workload(Workload.random(5, 10, rng=0))
        with pytest.raises(ValueError):
            reconstructor.reconstruct(workload, answers, partition=other)
        with pytest.raises(ValueError):
            ShardedReconstructor(alpha=-1.0)

    def test_partition_must_fit_the_workload(self):
        # Discovered on 4 blocks of 8 people with 24 queries each (96 rows).
        workload, _, answers, _ = _block_separable([8] * 4, seed=14, queries=24)
        partition = BlockPartition.from_workload(workload)
        reconstructor = ShardedReconstructor(alpha=0.5)
        own = reconstructor.reconstruct(workload, answers, partition=partition)
        assert np.array_equal(
            own.reconstruction, reconstructor.reconstruct(workload, answers).reconstruction
        )
        # Same n, more rows (120): the partition would leave 24 unread.
        more, _, more_answers, _ = _block_separable([8] * 4, seed=14, queries=30)
        with pytest.raises(ValueError, match="rows exactly once"):
            reconstructor.reconstruct(more, more_answers, partition=partition)
        # Same n, fewer rows (80): the partition names rows that do not exist.
        fewer, _, fewer_answers, _ = _block_separable([8] * 4, seed=14, queries=20)
        with pytest.raises(ValueError, match="rows exactly once"):
            reconstructor.reconstruct(fewer, fewer_answers, partition=partition)
        # Same n and rows, blocks over other positions: supports cross blocks.
        shuffled, _, shuffled_answers, _ = _block_separable(
            [8] * 4, seed=14, queries=24, permute=True
        )
        with pytest.raises(ValueError, match="outside its partition block"):
            reconstructor.reconstruct(shuffled, shuffled_answers, partition=partition)

    def test_batch_size_option_is_gone(self):
        # Batches are bounded by MAX_BATCH_BYTES of dense stack, not a count.
        assert not hasattr(sharding, "DEFAULT_BATCH_SIZE")
        with pytest.raises(TypeError, match="batch_size"):
            ShardedReconstructor(alpha=0.5, batch_size=64)

    def test_batches_are_bounded_in_bytes(self, monkeypatch):
        workload, _, answers, _ = _block_separable([6] * 11 + [5] * 4, seed=12)
        noisy = answers + derive_rng(12, "noise").integers(-1, 2, size=len(answers))
        partition = BlockPartition.from_workload(workload)
        reconstructor = ShardedReconstructor(alpha=1.0)
        whole = reconstructor.reconstruct(workload, noisy)
        assert [len(task) for task in sharding._build_tasks(partition)] == [11, 4]
        # Room for four 18x6 stacks: the 6-person blocks split 4 + 4 + 3.
        monkeypatch.setattr(sharding, "MAX_BATCH_BYTES", 4 * 8 * 18 * 6 + 7)
        tasks = sharding._build_tasks(partition)
        assert [len(task) for task in tasks] == [4, 4, 3, 4]
        assert sorted(i for task in tasks for i in task) == list(range(15))
        split = reconstructor.reconstruct(workload, noisy)
        assert np.array_equal(whole.reconstruction, split.reconstruction)
        assert whole.shard_reports == split.shard_reports

    def test_census_tract_is_one_batch(self):
        # 256 blocks of 32 people and 96 queries: 6.3 MB of dense stack.
        workload, _, _, _ = _block_separable([32] * 256, seed=13)
        tasks = sharding._build_tasks(BlockPartition.from_workload(workload))
        assert [len(task) for task in tasks] == [256]
