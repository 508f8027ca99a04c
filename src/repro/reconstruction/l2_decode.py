"""First-order least-squares decoding — the KRS fast path.

*The Power of Linear Reconstruction Attacks* (Kasiviswanathan–Rudelson–
Smith) showed that the LP in the Dinur–Nissim attack is not load-bearing:
an attacker who simply *projects* the noisy answers back onto the data
domain — a regularized least-squares solve followed by rounding — already
reconstructs in the same noise regime, for a tiny fraction of the cost.
This module implements that decoder as the default fast path of the
reconstruction stack:

* :func:`l2_decode` minimizes ``0.5 * ||A z - a||^2`` over the box
  ``[0, 1]^n`` with FISTA (accelerated projected gradient) — no simplex
  pivots, no interior-point factorizations.  The gradient
  ``A^T (A y - a)`` takes one of two forms, chosen from the matrix's
  shape and ``nnz`` alone.  A large or sparse matrix keeps the two CSR
  matvecs, ``O(nnz)`` per iteration.  A dense-ish matrix with
  ``n <= GRAM_MAX_N`` (an audit transcript: n=512, density 0.5) instead
  builds ``G = A^T A`` and ``A^T a`` once per call and computes
  ``G y - A^T a``, one dense ``n x n`` matvec per iteration, which no
  longer grows with the number of queries.  The two forms differ only
  in floating-point rounding.
* When the answers carry a worst-case error bound ``alpha``, the rounded
  candidate is checked against the *feasibility certificate*
  ``max |A x~ - a| <= alpha`` — the exact condition the feasibility LP
  enforces.  A candidate that passes is a valid LP solution outright,
  which is what lets the sharded pipeline skip the LP entirely on most
  blocks and escalate only when the certificate fails.
* :func:`l2_decode_batch` runs the same iteration simultaneously over a
  stack of equal-shape dense subproblems — the census regime, where tens
  of thousands of small per-block systems decode in a handful of batched
  calls instead of tens of thousands of Python calls.  It always iterates
  on the per-block Gram matrices ``G = A^T A``, built once per call:
  census blocks are tall (m = 3b queries over b people), so one
  ``G y - A^T a`` costs ``b^2`` multiply-adds per block where
  ``A^T (A y - a)`` cost ``2mb``.  The certificate and the returned
  residuals are still measured against ``A``.

Determinism: the iteration starts from the fixed center point (or the
caller's warm start), the step size is ``1 / L`` with ``L`` the
norm-product bound ``||A||_1 * ||A||_inf >= ||A||_2^2`` — no randomness
anywhere — and each block in a batch is computed independently of the
others, so batching, chunking, and ``jobs`` settings can never change a
single output bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse

from repro.queries.query import SubsetQuery
from repro.queries.workload import Workload
from repro.reconstruction.lp_decode import _check_alpha

#: FISTA iteration cap.  Sparse matvecs are cheap; the certificate check
#: usually exits long before this.
MAX_ITERS = 2000

#: How often (in iterations) to test the rounded candidate's certificate.
CHECK_EVERY = 25

#: Early-stop tolerance on the sup-norm iterate change.
TOL = 1e-6

#: Smallest fill ``nnz / n^2`` for the Gram form.  One Gram iteration is a
#: dense ``n x n`` matvec; one CSR iteration is two sparse matvecs over
#: ``nnz`` entries.  A 2,000-iteration decode on a 2-core x86 VM, n=512,
#: density 0.5, CSR vs Gram: m=128 (fill 0.13) 0.22 vs 0.23 s, m=192
#: (0.19) 0.30 vs 0.25 s, m=256 (0.25) 0.42 vs 0.28 s, m=384 0.61 vs
#: 0.18 s, m=768 0.90 vs 0.20 s.  The threshold sits above the crossover
#: (fill 0.13-0.19) so that the win clears building ``G`` and timing noise.
GRAM_MIN_FILL = 0.25

#: Largest ``n`` for the Gram form, which holds ``G`` as ``n^2`` floats.
#: On the same VM with its other core busy, one iteration at fill 0.5
#: took 336 vs 602 us (Gram vs CSR) at n=640 but 920 vs 742 us at n=768:
#: past this size the dense matvec is split across BLAS threads and
#: stalls when they have no core to run on.
GRAM_MAX_N = 640


@dataclass(frozen=True)
class L2ReconstructionResult:
    """Outcome of the first-order least-squares decoding attack.

    Attributes:
        reconstruction: the rounded candidate ``x~ in {0,1}^n``.
        fractional: the box-constrained least-squares iterate before
            rounding (the warm start handed to an escalated LP).
        queries_used: number of constraints decoded.
        iterations: FISTA iterations actually run.
        max_residual: ``max |A x~ - a|`` of the *rounded* candidate.
        mean_residual: mean absolute residual of the rounded candidate.
        certified: whether the rounded candidate passed the feasibility
            certificate ``max_residual <= alpha`` (always ``False`` when no
            finite ``alpha`` was supplied — there is nothing to certify).
        alpha: the error bound tested against (``nan`` when none).
    """

    reconstruction: np.ndarray
    fractional: np.ndarray
    queries_used: int
    iterations: int
    max_residual: float
    mean_residual: float
    certified: bool
    alpha: float

    def agreement_with(self, data: np.ndarray) -> float:
        """Fraction of positions where the reconstruction matches ``data``."""
        data = np.asarray(data)
        if data.shape != self.reconstruction.shape:
            raise ValueError("shape mismatch between data and reconstruction")
        return float((self.reconstruction == data).mean())

    def hamming_distance(self, data: np.ndarray) -> int:
        """Number of positions where the reconstruction disagrees with ``data``."""
        return int((np.asarray(data) != self.reconstruction).sum())


def _lipschitz_bound(matrix) -> float:
    """Deterministic upper bound on ``||A||_2^2`` via ``||A||_1 * ||A||_inf``.

    For 0/1 query matrices the bound is tight up to a small constant (the
    top singular vector is near the all-ones direction), and it involves
    no randomness at all.
    """
    if scipy.sparse.issparse(matrix):
        row_sums = np.asarray(np.abs(matrix).sum(axis=1)).ravel()
        col_sums = np.asarray(np.abs(matrix).sum(axis=0)).ravel()
    else:
        absolute = np.abs(matrix)
        row_sums = absolute.sum(axis=1)
        col_sums = absolute.sum(axis=0)
    return float(row_sums.max() * col_sums.max())


def _prefers_gram(matrix) -> bool:
    """Whether FISTA should iterate on ``G = A^T A`` instead of ``A``.

    Decided by the shape and fill of ``matrix`` alone (see
    :data:`GRAM_MIN_FILL` and :data:`GRAM_MAX_N`).
    """
    n = matrix.shape[1]
    return n <= GRAM_MAX_N and matrix.nnz >= GRAM_MIN_FILL * n * n


def _gram(matrix) -> np.ndarray:
    """Dense ``A^T A``, summed over ``n``-row slabs of the CSR ``matrix``.

    Slabbing bounds the dense temporary at the size of ``G`` itself
    however tall the transcript.  A 0/1 matrix has an integer Gram
    matrix, so the slab sums are exact and order-independent.
    """
    m, n = matrix.shape
    gram = np.zeros((n, n))
    for start in range(0, m, n):
        slab = matrix[start : start + n].toarray()
        gram += slab.T @ slab
    return gram


def l2_decode(
    queries: Workload | Sequence[SubsetQuery],
    answers: np.ndarray,
    alpha: float | None = None,
    *,
    x0: np.ndarray | None = None,
) -> L2ReconstructionResult:
    """Decode a (workload, answers) transcript by projected least squares.

    Args:
        queries: the workload (its cached CSR assembly is reused).
        answers: the released noisy answers, aligned with ``queries``.
        alpha: worst-case error bound, when one is known.  Enables the
            feasibility-certificate early exit: iteration stops as soon as
            the rounded candidate satisfies ``max |A x~ - a| <= alpha``
            (tested every :data:`CHECK_EVERY` iterations).  Otherwise
            iteration stops when no coordinate moves by :data:`TOL`, or
            after :data:`MAX_ITERS` iterations.
        x0: optional warm start for the iterate (clipped into ``[0,1]^n``);
            defaults to the uninformative center ``1/2``.  An auditor
            re-decoding a transcript that grew by one audit window starts
            near the previous solution and converges in far fewer
            iterations than a cold start.

    Returns:
        The rounded reconstruction with residual bookkeeping.
    """
    workload = Workload.coerce(queries)
    answers = np.asarray(answers, dtype=float)
    if answers.shape != (len(workload),):
        raise ValueError("answers must align with the query list")
    _check_alpha(alpha)

    matrix = workload.matrix(sparse=True)
    m, n = matrix.shape
    step = 1.0 / _lipschitz_bound(matrix)
    bound = float("inf") if alpha is None else float(alpha)

    if x0 is None:
        z = np.full(n, 0.5)
    else:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (n,):
            raise ValueError(f"x0 must have shape ({n},), got {x0.shape}")
        z = np.clip(x0, 0.0, 1.0)
    y = z.copy()
    t = 1.0
    iterations = 0
    max_iters = MAX_ITERS
    if x0 is not None and np.isfinite(bound):
        # A warm start that already certifies costs one matvec, not a solve.
        rounded = (z >= 0.5).astype(np.float64)
        if float(np.max(np.abs(matrix @ rounded - answers))) <= bound:
            max_iters = 0
    gram = _gram(matrix) if max_iters and _prefers_gram(matrix) else None
    if gram is not None:
        correlation = matrix.T @ answers
    for iteration in range(1, max_iters + 1):
        if gram is None:
            gradient = matrix.T @ (matrix @ y - answers)
        else:
            gradient = gram @ y - correlation
        z_next = np.clip(y - step * gradient, 0.0, 1.0)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = z_next + ((t - 1.0) / t_next) * (z_next - z)
        shift = float(np.max(np.abs(z_next - z)))
        z = z_next
        t = t_next
        iterations = iteration
        if np.isfinite(bound) and iteration % CHECK_EVERY == 0:
            rounded = (z >= 0.5).astype(np.float64)
            if float(np.max(np.abs(matrix @ rounded - answers))) <= bound:
                break
        if shift < TOL:
            break

    reconstruction = (z >= 0.5).astype(np.int64)
    residuals = np.abs(matrix @ reconstruction.astype(np.float64) - answers)
    max_residual = float(residuals.max())
    return L2ReconstructionResult(
        reconstruction=reconstruction,
        fractional=z,
        queries_used=m,
        iterations=iterations,
        max_residual=max_residual,
        mean_residual=float(residuals.mean()),
        certified=bool(np.isfinite(bound) and max_residual <= bound),
        alpha=bound if np.isfinite(bound) else float("nan"),
    )


def l2_decode_batch(
    systems: np.ndarray,
    answers: np.ndarray,
    alpha: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode ``k`` equal-shape dense systems simultaneously.

    Args:
        systems: ``(k, m, b)`` stack of per-block query matrices.
        answers: ``(k, m)`` released answers.
        alpha: shared worst-case error bound (certificate early exit, as
            in :func:`l2_decode`).

    Returns:
        ``(bits, fractional, max_residuals)`` with shapes ``(k, b)`` int64,
        ``(k, b)`` float, and ``(k,)`` float — ``max_residuals`` is measured
        on the rounded candidates, ready for the escalation test.

    The gradient is ``G y - A^T a`` with ``G = A^T A`` and ``A^T a`` built
    once per call.  For 0/1 systems ``G`` is exact (integer counts), so
    the iterates differ from ``A^T (A y - a)`` only in floating-point
    rounding.  Each block's trajectory is element-wise independent of its
    batch-mates (there is no cross-block reduction), so splitting the
    stack across chunks or workers reproduces the same bits.  Blocks whose
    rounded candidate passes the certificate are frozen and removed from
    the active set, so a batch dominated by easy blocks exits early.
    """
    systems = np.asarray(systems, dtype=np.float64)
    answers = np.asarray(answers, dtype=np.float64)
    if systems.ndim != 3:
        raise ValueError(f"systems must be (k, m, b), got ndim={systems.ndim}")
    k, m, b = systems.shape
    if answers.shape != (k, m):
        raise ValueError(f"answers must be ({k}, {m}), got {answers.shape}")
    _check_alpha(alpha)
    bound = float("inf") if alpha is None else float(alpha)

    # Per-block deterministic step sizes from the norm-product bound.
    row_sums = systems.sum(axis=2).max(axis=1)  # (k,) max row sums
    col_sums = systems.sum(axis=1).max(axis=1)  # (k,) max col sums
    steps = 1.0 / np.maximum(row_sums * col_sums, 1e-12)  # (k,)

    transposed = systems.transpose(0, 2, 1)
    gram = transposed @ systems  # (k, b, b)
    correlation = (transposed @ answers[:, :, None])[:, :, 0]  # (k, b)

    fractional = np.full((k, b), 0.5)
    active = np.arange(k)
    z = fractional.copy()
    y = z.copy()
    a_mats = systems
    a_vecs = answers
    step = steps[:, None]
    t = 1.0
    for iteration in range(1, MAX_ITERS + 1):
        gradient = (gram @ y[:, :, None])[:, :, 0] - correlation
        z_next = np.clip(y - step * gradient, 0.0, 1.0)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = z_next + ((t - 1.0) / t_next) * (z_next - z)
        shifts = np.abs(z_next - z).max(axis=1)
        z = z_next
        t = t_next

        done = shifts < TOL
        if np.isfinite(bound) and iteration % CHECK_EVERY == 0:
            rounded = (z >= 0.5).astype(np.float64)
            cert = np.abs((a_mats @ rounded[:, :, None])[:, :, 0] - a_vecs).max(axis=1)
            done |= cert <= bound
        if done.any() or iteration == MAX_ITERS:
            finished = done if iteration < MAX_ITERS else np.ones_like(done)
            fractional[active[finished]] = z[finished]
            keep = ~finished
            if not keep.any():
                break
            active = active[keep]
            z, y = z[keep], y[keep]
            a_mats, a_vecs, step = a_mats[keep], a_vecs[keep], step[keep]
            gram, correlation = gram[keep], correlation[keep]

    bits = (fractional >= 0.5).astype(np.int64)
    residuals = np.abs(
        (systems @ bits.astype(np.float64)[:, :, None])[:, :, 0] - answers
    ).max(axis=1)
    return bits, fractional, residuals
