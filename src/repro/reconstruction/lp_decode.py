"""The polynomial-time LP-decoding reconstruction attack — Theorem 1.1(ii).

Setting: the attacker asks ``m = O(n)`` *random* subset queries answered
within error ``alpha = c' * sqrt(n)`` and solves a linear program for a
fractional candidate ``z in [0,1]^n`` consistent with the answers, then
rounds.  Dinur-Nissim showed the rounded vector disagrees with the truth on
``o(n)`` positions; later work ([18, 21, 31] in the paper) sharpened the
constants and connected it to LP decoding of error-correcting codes.

Two solver modes are provided:

* **feasibility** — when a worst-case error bound ``alpha`` is known, find
  any ``z`` with ``|<q, z> - a_q| <= alpha`` for every query (the classical
  attack).  When no such ``z`` exists (the answers break their stated
  bound) the decode falls back to least-l1 and reports ``mode="least-l1"``
  with ``alpha = nan``.
* **least-l1** — when noise is unbounded (e.g. a Laplace answerer),
  minimize the total L1 residual instead; this is the robust variant used
  in practice (cf. "Linear Program Reconstruction in Practice" [13]).

Both modes run on HiGHS through :func:`scipy.optimize.linprog`; the one
knob is ``solver``, the HiGHS algorithm (default
:data:`DEFAULT_LP_SOLVER`).  The constraint system is assembled in CSR
sparse form from a packed :class:`~repro.queries.workload.Workload` (never
as a dense float64 block), and one assembled workload is shared across the
feasibility solve, its least-l1 fallback, and any repeated attacks on the
same query set.  With a sparse workload (``density ~ 64/n``) and the
interior-point solver the attack scales to ``n = 4096`` and beyond on one
core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse
from scipy.optimize import linprog

from repro.queries.mechanism import QueryAnswerer
from repro.queries.query import SubsetQuery
from repro.queries.workload import Workload
from repro.utils.rng import RngSeed, ensure_rng

#: Default HiGHS algorithm for the decoding LPs.  Interior point beats dual
#: simplex by ~10x on these wide, degenerate systems (zero/uniform objective,
#: massive feasible sets); pass ``solver="highs"`` to let HiGHS pick simplex.
DEFAULT_LP_SOLVER = "highs-ipm"


def _check_alpha(alpha: float | None) -> None:
    """Reject a negative error bound (``None`` means no bound is known)."""
    if alpha is not None and alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")


@dataclass(frozen=True)
class LpReconstructionResult:
    """Outcome of the LP-decoding attack.

    Attributes:
        reconstruction: the rounded candidate ``x~ in {0,1}^n``.
        fractional: the LP solution before rounding.
        queries_used: size of the random workload.
        alpha: the error bound assumed (``nan`` in least-l1 mode).
        mode: ``"feasibility"`` or ``"least-l1"``.
    """

    reconstruction: np.ndarray
    fractional: np.ndarray
    queries_used: int
    alpha: float
    mode: str

    def agreement_with(self, data: np.ndarray) -> float:
        """Fraction of positions where the reconstruction matches ``data``."""
        data = np.asarray(data)
        if data.shape != self.reconstruction.shape:
            raise ValueError("shape mismatch between data and reconstruction")
        return float((self.reconstruction == data).mean())

    def hamming_distance(self, data: np.ndarray) -> int:
        """Number of positions where the reconstruction disagrees with ``data``."""
        return int((np.asarray(data) != self.reconstruction).sum())


def lp_reconstruction(
    answerer: QueryAnswerer,
    num_queries: int | None = None,
    alpha: float | None = None,
    mode: str = "auto",
    density: float = 0.5,
    rng: RngSeed = None,
    workload: Workload | None = None,
    solver: str = DEFAULT_LP_SOLVER,
    warm_start: np.ndarray | None = None,
) -> LpReconstructionResult:
    """Run the Theorem 1.1(ii) attack against ``answerer``.

    Args:
        answerer: mechanism under attack.
        num_queries: workload size; defaults to ``8 * n`` random subsets,
            comfortably in the regime where LP decoding succeeds.
        alpha: consistency slack for feasibility mode; defaults to the
            answerer's declared error bound.
        mode: ``"feasibility"``, ``"least-l1"``, or ``"auto"`` (feasibility
            when a finite error bound is available, least-l1 otherwise).
        density: per-position inclusion probability of the random subsets.
            Lower densities (e.g. ``64 / n``) keep the constraint matrix
            genuinely sparse and are how the attack runs at large ``n``.
        rng: randomness for the workload.
        workload: a pre-built workload to attack with, reusing its cached
            sparse assembly; overrides ``num_queries``/``density``/``rng``.
        solver: HiGHS algorithm passed to :func:`scipy.optimize.linprog`.
        warm_start: a candidate point in ``[0, 1]^n`` (typically the
            fractional iterate of :func:`repro.reconstruction.l2_decode.
            l2_decode`).  In feasibility mode a warm start that already
            satisfies every constraint is returned without invoking the
            solver at all — checking the certificate is one matvec.

    Returns:
        The rounded reconstruction with bookkeeping.  A feasibility LP
        that fails at ``alpha`` (an answerer lying about its accuracy)
        falls back to least-l1, and the result says so: ``mode`` is
        ``"least-l1"`` and ``alpha`` is ``nan``.
    """
    _check_alpha(alpha)
    n = answerer.n
    if workload is None:
        if num_queries is None:
            num_queries = 8 * n
        if num_queries <= 0:
            raise ValueError("num_queries must be positive")
        generator = ensure_rng(rng)
        workload = Workload.random(n, num_queries, density=density, rng=generator)
    elif workload.n != n:
        raise ValueError(f"workload addresses n={workload.n}, answerer has n={n}")

    if mode == "auto":
        bound = answerer.error_bound if alpha is None else alpha
        mode = "feasibility" if np.isfinite(bound) else "least-l1"
    if mode == "feasibility":
        if alpha is None:
            alpha = answerer.error_bound
        if not np.isfinite(alpha):
            raise ValueError("feasibility mode needs a finite alpha")
    elif mode == "least-l1":
        alpha = None
    else:
        raise ValueError(f"unknown mode: {mode!r}")

    answers = answerer.answer_workload(workload)
    return _decode(workload, answers, alpha, solver, warm_start)


def reconstruct_from_answers(
    queries: Workload | Sequence[SubsetQuery],
    answers: np.ndarray,
    alpha: float | None = None,
    solver: str = DEFAULT_LP_SOLVER,
    warm_start: np.ndarray | None = None,
) -> LpReconstructionResult:
    """LP-decode a pre-collected (workload, answers) transcript.

    Used when the attack must replay recorded interaction (e.g. attacking a
    mechanism that limits each caller's query budget), and by the
    experiments to reuse one workload — and its one-time sparse assembly —
    across whole noise sweeps.  A finite ``alpha`` selects feasibility
    mode, anything else least-l1; ``solver``, ``warm_start`` and the
    least-l1 fallback behave as in :func:`lp_reconstruction`.  The sharded
    pipeline escalates failed l2 shards through here, and the service's
    reconstruction auditor replays analysts' transcripts through it.
    """
    _check_alpha(alpha)
    workload = Workload.coerce(queries)
    answers = np.asarray(answers, dtype=float)
    if answers.shape != (len(workload),):
        raise ValueError("answers must align with the query list")
    return _decode(workload, answers, alpha, solver, warm_start)


def _decode(
    workload: Workload,
    answers: np.ndarray,
    alpha: float | None,
    solver: str,
    warm_start: np.ndarray | None,
) -> LpReconstructionResult:
    """Feasibility at a finite ``alpha``; least-l1 without one or when it fails.

    ``warm_start`` is checked for shape ``(n,)`` in both modes, although
    only feasibility reads it.
    """
    matrix = workload.matrix(sparse=True)
    warm_start = _validated_warm_start(warm_start, workload.n)
    fractional = None
    if alpha is not None and np.isfinite(alpha):
        fractional = _solve_feasibility(
            matrix, answers, float(alpha), solver, warm_start
        )
    if fractional is None:
        fractional = solve_least_l1(matrix, answers, solver=solver)
        mode, used_alpha = "least-l1", float("nan")
    else:
        mode, used_alpha = "feasibility", float(alpha)
    return LpReconstructionResult(
        reconstruction=(fractional >= 0.5).astype(np.int64),
        fractional=fractional,
        queries_used=len(workload),
        alpha=used_alpha,
        mode=mode,
    )


def _validated_warm_start(warm_start, n: int) -> np.ndarray | None:
    if warm_start is None:
        return None
    candidate = np.asarray(warm_start, dtype=float)
    if candidate.shape != (n,):
        raise ValueError(f"warm_start has shape {candidate.shape}, expected ({n},)")
    return np.clip(candidate, 0.0, 1.0)


def _solve_feasibility(
    matrix,
    answers: np.ndarray,
    alpha: float,
    solver: str,
    warm_start: np.ndarray | None = None,
) -> np.ndarray | None:
    """Find z in [0,1]^n with |A z - a| <= alpha (elementwise).

    Encoded as a linear program with zero objective; ``matrix`` may be dense
    or CSR sparse — the stacked [A; -A] constraint block stays in the same
    format.  A ``warm_start`` (already shape-checked and clipped to the box
    by :func:`_validated_warm_start`) that meets every constraint *is* a
    solution of this zero-objective program, so it is returned after a
    single certifying matvec.  ``None`` when the solver finds no such z:
    the LP is infeasible at the stated alpha.
    """
    m, n = matrix.shape
    if warm_start is not None:
        if float(np.max(np.abs(matrix @ warm_start - answers))) <= alpha:
            return warm_start
    # Constraints: A z <= a + alpha  and  -A z <= -(a - alpha).
    if scipy.sparse.issparse(matrix):
        a_ub = scipy.sparse.vstack([matrix, -matrix], format="csr")
    else:
        a_ub = np.vstack([matrix, -matrix])
    b_ub = np.concatenate([answers + alpha, -(answers - alpha)])
    result = linprog(
        c=np.zeros(n),
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0.0, 1.0)] * n,
        method=solver,
    )
    if not result.success:
        return None
    return np.clip(result.x, 0.0, 1.0)


def solve_least_l1(
    matrix,
    targets: np.ndarray,
    *,
    lower: float = 0.0,
    upper: float | None = 1.0,
    solver: str = DEFAULT_LP_SOLVER,
) -> np.ndarray:
    """Minimize ``||A z - a||_1`` over box-bounded ``z`` via the LP lift.

    The residual is split into its positive and negative parts: variables
    are (z, u, v) with ``A z - u + v = a``, ``u, v >= 0``, and objective
    ``sum(u + v)``.  At an optimum at most one of ``u_i, v_i`` is non-zero,
    so the objective is ``||A z - a||_1``.  This equality form has ``m``
    rows where the inequality form ``-t <= A z - a <= t`` has ``2m``; on
    n=512 audit transcripts (m=128-768) it solves in 0.5-0.65x the time,
    to the same optimum.  ``matrix`` may be dense or CSR sparse, and the
    lifted block matrix is assembled in the matching format.  The decoding
    attacks use the default ``[0, 1]`` box (``z`` is a candidate bit
    vector); DP post-processing
    (:mod:`repro.synth.hierarchical`) reuses the same solve with
    ``upper=None`` to fit non-negative count vectors to noisy tables.
    """
    answers = np.asarray(targets, dtype=float)
    m, n = matrix.shape
    if answers.shape != (m,):
        raise ValueError(f"targets have shape {answers.shape}, expected ({m},)")
    if upper is not None and upper < lower:
        raise ValueError(f"empty box: lower={lower}, upper={upper}")
    # Objective: 0 * z + 1 * u + 1 * v.
    c = np.concatenate([np.zeros(n), np.ones(2 * m)])
    # A z - u + v = a.
    if scipy.sparse.issparse(matrix):
        identity = scipy.sparse.identity(m, format="csr")
        a_eq = scipy.sparse.hstack([matrix, -identity, identity], format="csr")
    else:
        identity = np.eye(m)
        a_eq = np.hstack([matrix, -identity, identity])
    bounds = [(lower, upper)] * n + [(0.0, None)] * (2 * m)
    result = linprog(c=c, A_eq=a_eq, b_eq=answers, bounds=bounds, method=solver)
    if not result.success:
        raise RuntimeError(f"LP solver failed: {result.message}")
    if upper is None:
        return np.maximum(result.x[:n], lower)
    return np.clip(result.x[:n], lower, upper)
