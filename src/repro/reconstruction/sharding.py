"""Census-scale sharded reconstruction: per-block subproblems, joined.

The 2010 Census reconstruction did not solve one nation-sized system — it
solved ~6 million *block-level* systems, because every published table is
tabulated within a census block and therefore never couples variables
across blocks.  This module exploits the same structure for the abstract
subset-query attacks:

* :class:`BlockPartition` recovers the block structure *from the query
  support alone* — two positions belong to the same block exactly when
  some chain of queries connects them, i.e. the connected components of
  the bipartite query-position graph, which is the workload's CSR read
  as an adjacency matrix.  Positions touched by no query are
  unconstrained and reported separately.
* :class:`ShardedReconstructor` decomposes a (workload, answers)
  transcript along a partition into independent per-block shards, decodes
  every shard with the first-order l2 fast path
  (:mod:`repro.reconstruction.l2_decode`),
  escalates a shard to the feasibility LP exactly when its l2 bits fail
  the ``alpha`` certificate (the LP starts cold: the l2 point just
  failed), and joins the per-shard bits back into one reconstruction.
  Its one setting is ``alpha``.  Equal-shape shards decode together:
  their dense systems are scattered straight from the CSR into one
  ``(k, m, b)`` stack of at most :data:`MAX_BATCH_BYTES` — a whole census
  tract of 256 blocks is one call to
  :func:`~repro.reconstruction.l2_decode.l2_decode_batch`.  The batch's
  escalations then solve concurrently, on a thread per usable core.
  Shards larger than :data:`DENSE_LIMIT` decode alone on the sparse path.
  Tasks are dispatched through :func:`repro.utils.parallel.parallel_map`.

Determinism: shard formation and batching are pure functions of
(workload, partition) — never of ``jobs``, the core count or scheduling
order — no decode draws randomness, and every per-shard decode (l2 or
LP) is independent of its batch-mates, so the joined reconstruction is
bit-identical across ``jobs=1`` and ``jobs=N`` and however many
escalations solve at once.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from repro.queries.query import SubsetQuery
from repro.queries.workload import Workload
from repro.reconstruction.l2_decode import l2_decode, l2_decode_batch
from repro.reconstruction.lp_decode import _check_alpha, reconstruct_from_answers
from repro.utils import parallel

#: Byte bound on one batch's dense ``(k, m, b)`` float64 stack.  A batch
#: iterates until its slowest block stops: most census blocks certify
#: within 25-50 iterations, a few never do and run ~1,000 to the ``tol``
#: exit.  Fewer, larger batches pay that tail fewer times; 16 MiB holds
#: 682 census blocks (m=96, b=32), so a 256-block tract is one batch.
MAX_BATCH_BYTES = 16 << 20

#: Largest ``m * b`` for a shard to take the dense batched path; a larger
#: shard decodes alone on the sparse path.
DENSE_LIMIT = 1 << 16


@dataclass(frozen=True)
class BlockPartition:
    """A decomposition of positions (and queries) into independent blocks.

    Attributes:
        n: total number of positions the workload addresses.
        blocks: per-block sorted position indices; disjoint.
        query_blocks: per-block sorted query-row indices; each query's
            support lies entirely inside its block's positions.
        unconstrained: positions touched by no query at all.  No transcript
            carries information about them; the join writes zeros there.
    """

    n: int
    blocks: tuple[np.ndarray, ...]
    query_blocks: tuple[np.ndarray, ...]
    unconstrained: np.ndarray

    @property
    def num_blocks(self) -> int:
        """Number of blocks."""
        return len(self.blocks)

    @property
    def block_sizes(self) -> np.ndarray:
        """Per-block position counts."""
        return np.array([len(block) for block in self.blocks], dtype=np.int64)

    @classmethod
    def from_workload(cls, workload: Workload | Sequence[SubsetQuery]) -> "BlockPartition":
        """Discover the partition from the query support.

        Positions i and j land in the same block iff some chain of queries
        connects them: the connected components of the bipartite graph
        joining each query to the positions it reads, ``O(nnz)`` edges
        rather than the ``O(sum m_i^2)`` of the full per-query cliques.
        The graph is the workload's CSR itself, with position ``j`` as
        node ``j`` and query ``i`` as node ``n + i``: the CSR's own
        ``indices`` and ``data`` behind ``n`` empty position rows, so
        building it copies no edge array, and ``connected_components``
        (which reads only the structure) neither converts nor sorts it.
        Blocks are numbered by their smallest position index, so the
        labeling is a pure function of the workload.
        """
        workload = Workload.coerce(workload)
        csr = workload.matrix(sparse=True)
        m, n = csr.shape
        indptr, indices = csr.indptr, csr.indices
        sizes = np.diff(indptr)
        if (sizes == 0).any():
            empty = int(np.flatnonzero(sizes == 0)[0])
            raise ValueError(
                f"query {empty} has empty support and cannot be assigned to a block"
            )
        graph = scipy.sparse.csr_matrix(
            (csr.data, indices, np.concatenate([np.zeros(n, indptr.dtype), indptr])),
            shape=(n + m, n + m),
        )
        num_components, labels = connected_components(graph, directed=False)
        labels, query_labels = labels[:n], labels[n:]

        covered = np.zeros(n, dtype=bool)
        covered[indices] = True
        unconstrained = np.flatnonzero(~covered)

        positions = np.flatnonzero(covered)
        pos_labels = labels[positions]
        uniq, first_index, inverse = np.unique(
            pos_labels, return_index=True, return_inverse=True
        )
        # Renumber components so block k is the one whose first covered
        # position is k-th smallest (np.unique sorted by raw label instead).
        order = np.argsort(first_index, kind="stable")
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[order] = np.arange(len(uniq))
        block_of_position = rank[inverse]

        blocks = _group_by(positions, block_of_position, len(uniq))
        label_to_block = np.full(num_components, -1, dtype=np.int64)
        label_to_block[uniq] = rank
        row_block = label_to_block[query_labels]
        query_blocks = _group_by(np.arange(m), row_block, len(uniq))
        return cls(
            n=n,
            blocks=blocks,
            query_blocks=query_blocks,
            unconstrained=unconstrained,
        )


def _group_by(
    values: np.ndarray, groups: np.ndarray, num_groups: int
) -> tuple[np.ndarray, ...]:
    """Split sorted ``values`` into per-group arrays (ascending within each)."""
    order = np.argsort(groups, kind="stable")
    counts = np.bincount(groups, minlength=num_groups)
    return tuple(np.split(values[order], np.cumsum(counts)[:-1]))


@dataclass(frozen=True)
class ShardReport:
    """Per-shard decoding bookkeeping."""

    block: int  #: block index within the partition
    size: int  #: positions in the block
    queries: int  #: queries assigned to the block
    max_residual: float  #: max |A x~ - a| of the shard's final bits
    certified: bool  #: l2 candidate passed the feasibility certificate
    escalated: bool  #: the shard was re-solved by the LP decoder


@dataclass(frozen=True)
class ShardedReconstructionResult:
    """Joined outcome of the sharded reconstruction pipeline."""

    reconstruction: np.ndarray
    queries_used: int
    alpha: float  #: certificate bound tested per shard (nan when none)
    shard_reports: tuple[ShardReport, ...]

    @property
    def blocks(self) -> int:
        """Number of shards decoded."""
        return len(self.shard_reports)

    @property
    def certified(self) -> int:
        """Shards whose l2 candidate passed the feasibility certificate."""
        return sum(1 for report in self.shard_reports if report.certified)

    @property
    def escalated(self) -> int:
        """Shards escalated to the LP decoder."""
        return sum(1 for report in self.shard_reports if report.escalated)

    @property
    def escalated_blocks(self) -> tuple[int, ...]:
        """Block indices of the escalated shards."""
        return tuple(r.block for r in self.shard_reports if r.escalated)

    @property
    def max_residual(self) -> float:
        """Worst per-shard residual of the joined reconstruction."""
        return max((r.max_residual for r in self.shard_reports), default=0.0)

    def agreement_with(self, data: np.ndarray) -> float:
        """Fraction of positions where the reconstruction matches ``data``."""
        data = np.asarray(data)
        if data.shape != self.reconstruction.shape:
            raise ValueError("shape mismatch between data and reconstruction")
        return float((self.reconstruction == data).mean())

    def hamming_distance(self, data: np.ndarray) -> int:
        """Number of positions where the reconstruction disagrees with ``data``."""
        return int((np.asarray(data) != self.reconstruction).sum())


class ShardedReconstructor:
    """Decode a transcript block-by-block: l2 fast path, LP on escalation.

    Args:
        alpha: worst-case answer error bound, when known.  Each shard's
            rounded l2 bits are checked against the feasibility certificate
            ``max |A x~ - a| <= alpha``; a shard that fails it is re-solved
            by the feasibility LP from a cold start.  With
            no finite ``alpha`` there is nothing to certify, and no shard
            escalates.
    """

    def __init__(self, alpha: float | None = None):
        _check_alpha(alpha)
        self.alpha = None if alpha is None or not np.isfinite(alpha) else float(alpha)

    def reconstruct(
        self,
        workload: Workload | Sequence[SubsetQuery],
        answers: np.ndarray,
        *,
        partition: BlockPartition | None = None,
        jobs: int | None = 1,
    ) -> ShardedReconstructionResult:
        """Decode ``(workload, answers)`` shard-by-shard and join the bits.

        Args:
            workload: the attacked workload (cached CSR assembly reused).
            answers: released answers aligned with the workload rows.
            partition: block structure; discovered from the query support
                (:meth:`BlockPartition.from_workload`) when omitted.  A
                given partition must fit this workload: its query blocks
                hold every row exactly once, and each query's support lies
                inside its block (``ValueError`` otherwise).
            jobs: how many forked workers decode tasks (see
                :func:`repro.utils.parallel.parallel_map`).  Whatever it
                is, a batch's LP escalations solve on a thread per usable
                core (:func:`repro.utils.parallel.usable_cores`).

        Returns:
            The joined reconstruction plus per-shard reports (sorted by
            block index).  Bit-identical across ``jobs`` settings and
            core counts.
        """
        workload = Workload.coerce(workload)
        answers = np.asarray(answers, dtype=float)
        if answers.shape != (len(workload),):
            raise ValueError("answers must align with the query list")
        csr = workload.matrix(sparse=True)
        if partition is None:
            partition = BlockPartition.from_workload(workload)
        elif partition.n != workload.n:
            raise ValueError(
                f"partition addresses n={partition.n}, workload has n={workload.n}"
            )
        else:
            _check_fits(partition, csr)

        worker = self._make_worker(csr, answers, partition)
        shard_outputs = parallel.parallel_map(worker, _build_tasks(partition), jobs=jobs)

        reconstruction = np.zeros(partition.n, dtype=np.int64)
        reports: list[ShardReport] = []
        for task_output in shard_outputs:
            for block_index, bits, report in task_output:
                reconstruction[partition.blocks[block_index]] = bits
                reports.append(report)
        reports.sort(key=lambda report: report.block)
        return ShardedReconstructionResult(
            reconstruction=reconstruction,
            queries_used=len(workload),
            alpha=float("nan") if self.alpha is None else self.alpha,
            shard_reports=tuple(reports),
        )

    def _make_worker(
        self,
        csr: scipy.sparse.csr_matrix,
        answers: np.ndarray,
        partition: BlockPartition,
    ) -> Callable[[list[int]], list]:
        """Bind the shared inputs into the per-task work function.

        The closure crosses the process boundary by fork inheritance (see
        :mod:`repro.utils.parallel`), so the full CSR is never pickled.
        """
        columns = _block_columns(partition)

        def decode_task(task: list[int]) -> list:
            if len(task) == 1:
                return [self._decode_single(csr, answers, partition, task[0])]
            return self._decode_batch(csr, answers, partition, task, columns)

        return decode_task

    def _decode_single(
        self,
        csr: scipy.sparse.csr_matrix,
        answers: np.ndarray,
        partition: BlockPartition,
        index: int,
    ) -> tuple[int, np.ndarray, ShardReport]:
        """Decode one shard on the sparse l2 path, escalating if needed."""
        rows = partition.query_blocks[index]
        matrix = csr[rows][:, partition.blocks[index]]
        shard_answers = answers[rows]
        if matrix.shape[0] == 0:
            # No query reads the block — cannot happen for discovered
            # partitions, but a caller-built one may hold such a block;
            # the uninformative answer is all zeros.
            bits = np.zeros(matrix.shape[1], dtype=np.int64)
            report = ShardReport(
                block=index,
                size=matrix.shape[1],
                queries=0,
                max_residual=0.0,
                certified=False,
                escalated=False,
            )
            return index, bits, report
        result = l2_decode(
            Workload.from_csr(matrix, copy=False), shard_answers, self.alpha
        )
        bits, max_residual = result.reconstruction, result.max_residual
        escalated = self._fails(max_residual)
        if escalated:
            bits, max_residual = self._escalate(matrix, shard_answers)
        return index, bits, self._report(index, matrix, bits, max_residual, escalated)

    def _decode_batch(
        self,
        csr: scipy.sparse.csr_matrix,
        answers: np.ndarray,
        partition: BlockPartition,
        task: list[int],
        columns: np.ndarray,
    ) -> list[tuple[int, np.ndarray, ShardReport]]:
        """Decode a batch of equal-shape shards with one batched l2 call.

        The shards that fail the certificate escalate together, on a thread
        per usable core: HiGHS releases the GIL while it solves, and each
        LP reads only its own shard, so the solves overlap and return what
        they would one after another.  Results go back in block order.
        """
        rows = np.concatenate([partition.query_blocks[index] for index in task])
        shape = (
            len(task),
            len(partition.query_blocks[task[0]]),
            len(partition.blocks[task[0]]),
        )
        stacked = _dense_stack(csr, rows, columns, shape)
        stacked_answers = answers[rows].reshape(shape[:2])
        l2_bits, _, l2_residuals = l2_decode_batch(stacked, stacked_answers, self.alpha)
        residuals = l2_residuals.tolist()
        failed = [j for j, residual in enumerate(residuals) if self._fails(residual)]

        def escalate(j: int) -> tuple[np.ndarray, float]:
            return self._escalate(stacked[j], stacked_answers[j])

        workers = min(parallel.usable_cores(), len(failed))
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                solved = list(pool.map(escalate, failed))
        else:
            solved = [escalate(j) for j in failed]
        escalated = dict(zip(failed, solved))
        outputs = []
        for j, index in enumerate(task):
            bits, residual = escalated.get(j, (l2_bits[j], residuals[j]))
            report = self._report(index, stacked[j], bits, residual, j in escalated)
            outputs.append((index, bits, report))
        return outputs

    def _fails(self, max_residual: float) -> bool:
        """Whether l2 bits fail the finite-``alpha`` certificate (and escalate)."""
        return self.alpha is not None and not max_residual <= self.alpha

    def _escalate(
        self,
        matrix: np.ndarray | scipy.sparse.csr_matrix,
        answers: np.ndarray,
    ) -> tuple[np.ndarray, float]:
        """Re-solve one shard by the feasibility LP: its bits and residual.

        ``matrix`` is the shard's system, dense or CSR.  The LP starts cold:
        a warm start only saves the solve when it certifies, and the l2
        point rounds to the bits that just failed.
        """
        lp = reconstruct_from_answers(
            Workload.from_csr(scipy.sparse.csr_matrix(matrix), copy=False),
            answers,
            alpha=self.alpha,
        )
        bits = lp.reconstruction
        residual = float(np.max(np.abs(matrix @ bits.astype(np.float64) - answers)))
        return bits, residual

    def _report(
        self,
        index: int,
        matrix: np.ndarray | scipy.sparse.csr_matrix,
        bits: np.ndarray,
        max_residual: float,
        escalated: bool,
    ) -> ShardReport:
        """One shard's report.

        A shard is certified when ``alpha`` is set and its l2 bits did not
        escalate.
        """
        return ShardReport(
            block=index,
            size=len(bits),
            queries=matrix.shape[0],
            max_residual=max_residual,
            certified=self.alpha is not None and not escalated,
            escalated=escalated,
        )


def _check_fits(partition: BlockPartition, csr: scipy.sparse.csr_matrix) -> None:
    """Raise ``ValueError`` unless ``partition`` fits the workload ``csr``.

    One ``O(nnz)`` pass: the query blocks must hold every row exactly
    once, and the positions each query reads must all sit in its block
    (their least and greatest block number equal the row's).  A partition
    discovered on another workload of the same ``n`` would otherwise drop
    or misindex rows.
    """
    m, n = csr.shape
    rows = np.concatenate([np.empty(0, dtype=np.int64), *partition.query_blocks])
    if (
        len(rows) != m
        or ((rows < 0) | (rows >= m)).any()
        or (np.bincount(rows, minlength=m) != 1).any()
    ):
        raise ValueError(
            f"the partition's query blocks do not hold the workload's {m} rows "
            "exactly once"
        )
    numbers = np.arange(partition.num_blocks, dtype=np.int32)
    row_block = np.empty(m, dtype=np.int32)
    row_block[rows] = np.repeat(numbers, [len(r) for r in partition.query_blocks])
    position_block = np.full(n, -1, dtype=np.int32)
    position_block[np.concatenate(partition.blocks)] = np.repeat(
        numbers, partition.block_sizes
    )
    read = np.flatnonzero(np.diff(csr.indptr))  # rows with a non-empty support
    entry_block = position_block[csr.indices]
    starts = csr.indptr[read]
    low = np.minimum.reduceat(entry_block, starts)
    high = np.maximum.reduceat(entry_block, starts)
    outside = (low != row_block[read]) | (high != row_block[read])
    if outside.any():
        row = int(read[np.flatnonzero(outside)[0]])
        raise ValueError(f"query {row} reads positions outside its partition block")


def _build_tasks(partition: BlockPartition) -> list[list[int]]:
    """Group shard indices into decode tasks.

    Equal-shape shards of at most :data:`DENSE_LIMIT` cells are grouped (in
    block order) into batches whose dense stack fits in
    :data:`MAX_BATCH_BYTES`, for the batched dense decoder; larger shards
    become singleton tasks on the sparse path.  The grouping is a pure
    function of the partition, never of ``jobs``.
    """
    tasks: list[list[int]] = []
    pending: dict[tuple[int, int], list[int]] = {}
    for index in range(partition.num_blocks):
        m = len(partition.query_blocks[index])
        b = len(partition.blocks[index])
        if m == 0 or m * b > DENSE_LIMIT:
            tasks.append([index])
            continue
        batch = pending.setdefault((m, b), [])
        batch.append(index)
        if len(batch) >= MAX_BATCH_BYTES // (8 * m * b):
            tasks.append(pending.pop((m, b)))
    tasks.extend(pending.values())
    return tasks


def _block_columns(partition: BlockPartition) -> np.ndarray:
    """Each position's column within its block; -1 for unconstrained ones."""
    columns = np.full(partition.n, -1, dtype=np.int64)
    sizes = partition.block_sizes
    positions = np.concatenate(partition.blocks)
    columns[positions] = np.arange(len(positions)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return columns


def _dense_stack(
    csr: scipy.sparse.csr_matrix,
    rows: np.ndarray,
    columns: np.ndarray,
    shape: tuple[int, int, int],
) -> np.ndarray:
    """The ``(k, m, b)`` dense systems of ``k`` equal-shape shards.

    ``rows`` holds the shards' query rows, shard after shard.  One scatter
    from the CSR's ``indptr``/``indices`` puts each stored entry at its
    row's place in the stack and its position's column within the block
    (``columns``, from :func:`_block_columns`): the same array as stacking
    ``csr[rows_j][:, block_j].toarray()`` shard by shard, without the two
    sparse slices per shard.  (Duplicate CSR entries, which a 0/1 workload
    never holds, would be overwritten rather than summed.)
    """
    starts = csr.indptr[rows]
    counts = csr.indptr[rows + 1] - starts
    # Where each row's entries begin in csr.indices, less where they begin
    # once the rows' entries are laid end to end.
    shifts = starts - (np.cumsum(counts) - counts)
    entries = np.arange(counts.sum()) + np.repeat(shifts, counts)
    stack = np.zeros((len(rows), shape[2]))
    stack[np.repeat(np.arange(len(rows)), counts), columns[csr.indices[entries]]] = (
        csr.data[entries]
    )
    return stack.reshape(shape)
