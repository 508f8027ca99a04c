"""The exponential Dinur-Nissim reconstruction attack — Theorem 1.1(i).

Setting: the attacker asks *all* ``2^n - 1`` non-empty subset queries and
receives answers within worst-case error ``alpha``.  The attack then outputs
any candidate ``x~ in {0,1}^n`` consistent with every answer (one always
exists: the true data).  The classical argument shows any such candidate
disagrees with the truth on at most ``4 * alpha`` positions: the positions
where ``x~`` wrongly says 1 form a query whose answers for ``x`` and ``x~``
differ by the number of errors yet must both be ``alpha``-close to the same
released value, and symmetrically for wrong 0s.

So with ``alpha = c*n`` for small ``c`` the attacker reconstructs all but a
``4c`` fraction — "blatant non-privacy" when ``4c <= 5%``.

The candidate search is exponential (that is the theorem's point); we
vectorize it with ``numpy.bitwise_count`` so ``n <= 16`` is practical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.queries.mechanism import QueryAnswerer
from repro.queries.workload import Workload
from repro.reconstruction.lp_decode import _check_alpha

#: Hard cap: the candidate x answer table is O(4^n) work.
MAX_EXHAUSTIVE_N = 16

#: Memory ceiling for the vectorized candidate scan: candidates are checked
#: in batches of at most ``_SCAN_CELLS // masks.size`` rows, so the
#: (batch x queries) uint32 work matrix stays around 16 MiB at n = 16.
_SCAN_CELLS = 1 << 22


def _bit_matrix(values: np.ndarray, width: int) -> np.ndarray:
    """Little-endian bit expansion: row ``i`` holds the bits of ``values[i]``.

    A single broadcasted shift-and-mask (the ``np.unpackbits`` idiom for
    non-uint8 widths) replacing the per-value Python bit comprehensions.
    """
    values = np.asarray(values, dtype=np.int64)
    return ((values[:, None] >> np.arange(width)) & 1).astype(np.uint8)


def _scan_candidates(n: int, masks: np.ndarray, answers: np.ndarray, alpha: float):
    """Yield every consistent candidate in ``{0,1}^n``, as an int, ascending.

    Candidate ``c`` is the bit vector of the integer ``c`` (little-endian).
    Vectorized: each batch ANDs all candidates against all query masks at
    once and popcounts the matrix (``np.bitwise_count``), so no Python-level
    per-candidate loop survives.  Batches keep peak memory bounded by
    :data:`_SCAN_CELLS` cells.
    """
    candidates = np.arange(2**n, dtype=np.uint32)
    batch = max(1, _SCAN_CELLS // max(1, masks.size))
    tolerance = alpha + 1e-9
    for start in range(0, candidates.size, batch):
        chunk = candidates[start : start + batch]
        counts = np.bitwise_count(masks[None, :] & chunk[:, None])
        consistent = np.all(np.abs(answers[None, :] - counts) <= tolerance, axis=1)
        for offset in np.flatnonzero(consistent):
            yield int(chunk[offset])


def _ask_all_subset_queries(answerer: QueryAnswerer, n: int) -> tuple[np.ndarray, np.ndarray]:
    """All ``2^n - 1`` subset-query masks and the answerer's responses.

    The whole exponential workload goes through the batched
    ``answer_workload`` path: one sparse matvec for the true counts, one
    vectorized noise draw, ``queries_answered`` advanced by ``2^n - 1`` —
    bit-identical to the old per-query loop but without 2^n Python calls.
    """
    masks = np.arange(1, 2**n, dtype=np.uint32)
    workload = Workload(_bit_matrix(masks, n).astype(bool), copy=False)
    answers = answerer.answer_workload(workload)
    return masks, answers


@dataclass(frozen=True)
class ExhaustiveReconstructionResult:
    """Outcome of the exhaustive attack.

    Attributes:
        reconstruction: the candidate ``x~`` the attacker output.
        queries_used: number of queries issued (``2^n - 1``).
        candidates_checked: how many candidate vectors were tested before a
            consistent one was found.
        alpha: the error bound the attacker assumed.
    """

    reconstruction: np.ndarray
    queries_used: int
    candidates_checked: int
    alpha: float

    def agreement_with(self, data: np.ndarray) -> float:
        """Fraction of positions where the reconstruction matches ``data``."""
        data = np.asarray(data)
        if data.shape != self.reconstruction.shape:
            raise ValueError("shape mismatch between data and reconstruction")
        return float((self.reconstruction == data).mean())

    def hamming_distance(self, data: np.ndarray) -> int:
        """Number of positions where the reconstruction disagrees with ``data``."""
        data = np.asarray(data)
        return int((self.reconstruction != data).sum())


def exhaustive_reconstruction(
    answerer: QueryAnswerer, alpha: float | None = None
) -> ExhaustiveReconstructionResult:
    """Run the Theorem 1.1(i) attack against ``answerer``.

    Args:
        answerer: the mechanism under attack; its dataset size ``n`` must be
            at most :data:`MAX_EXHAUSTIVE_N`.
        alpha: the consistency slack.  Defaults to the answerer's declared
            ``error_bound`` (the attacker knows the accuracy guarantee).

    Returns:
        The first consistent candidate, enumerating candidates as the
        integers 0, 1, 2, ..., with bookkeeping.

    Raises:
        ValueError: for oversized ``n``, a negative ``alpha``, an
            unbounded-error answerer with no explicit ``alpha``, or
            (impossibly, given the accuracy model) no consistent candidate.
    """
    _check_alpha(alpha)
    n = answerer.n
    if n > MAX_EXHAUSTIVE_N:
        raise ValueError(
            f"exhaustive attack is 4^n work; n={n} exceeds the cap "
            f"{MAX_EXHAUSTIVE_N}"
        )
    if alpha is None:
        alpha = answerer.error_bound
    if not np.isfinite(alpha):
        raise ValueError(
            "answerer has unbounded error; pass an explicit alpha to attack it"
        )

    # Ask every non-empty subset query, indexed by its bitmask.
    masks, answers = _ask_all_subset_queries(answerer, n)

    for candidate in _scan_candidates(n, masks, answers, alpha):
        return ExhaustiveReconstructionResult(
            reconstruction=_bit_matrix(np.array([candidate]), n)[0].astype(np.int64),
            queries_used=int(masks.size),
            candidates_checked=candidate + 1,
            alpha=float(alpha),
        )
    raise ValueError(
        "no candidate is consistent with the answers; the answerer violated "
        f"its stated error bound alpha={alpha}"
    )


def consistent_candidates(
    answerer: QueryAnswerer, alpha: float | None = None
) -> list[np.ndarray]:
    """All candidates consistent with the full workload (test/diagnostic aid).

    Theorem 1.1(i)'s guarantee is really about this set: every member lies
    within Hamming distance ``4 * alpha`` of the truth.  Exponential in
    ``n``; intended for ``n <= 12``.
    """
    _check_alpha(alpha)
    n = answerer.n
    if n > MAX_EXHAUSTIVE_N:
        raise ValueError(f"n={n} exceeds the cap {MAX_EXHAUSTIVE_N}")
    if alpha is None:
        alpha = answerer.error_bound
    if not np.isfinite(alpha):
        raise ValueError("pass an explicit alpha for unbounded-error answerers")
    masks, answers = _ask_all_subset_queries(answerer, n)
    return [
        _bit_matrix(np.array([candidate]), n)[0].astype(np.int64)
        for candidate in _scan_candidates(n, masks, answers, alpha)
    ]
