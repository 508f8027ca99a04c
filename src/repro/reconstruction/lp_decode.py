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
  attack).
* **least-l1** — when noise is unbounded (e.g. a Laplace answerer),
  minimize the total L1 residual instead; this is the robust variant used
  in practice (cf. "Linear Program Reconstruction in Practice" [13]).

The constraint system is assembled in CSR sparse form from a packed
:class:`~repro.queries.workload.Workload` (never as a dense float64 block),
and one assembled workload is shared across the feasibility solve, its
least-l1 fallback, and any repeated attacks on the same query set.  With a
sparse workload (``density ~ 64/n``) and the interior-point solver the
attack scales to ``n = 4096`` and beyond on one core.
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


@dataclass(frozen=True)
class LpSolverOptions:
    """Solver configuration for the decoding LPs.

    Collected in one place so callers (the sharded pipeline, the service
    auditor, the benchmarks) can tune the solve without every function in
    the chain growing another keyword:

    Attributes:
        method: the :func:`scipy.optimize.linprog` method (a HiGHS
            algorithm name, e.g. ``"highs-ipm"``, ``"highs-ds"``,
            ``"highs"``).
        presolve: whether HiGHS runs its presolve reductions.
        time_limit: wall-clock budget in seconds for one solve (``None``
            for unlimited).  A timed-out solve reports failure, which the
            feasibility path degrades to least-l1 and other callers see as
            :class:`RuntimeError` — no silent partial answers.
    """

    method: str = DEFAULT_LP_SOLVER
    presolve: bool = True
    time_limit: float | None = None

    def __post_init__(self):
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError(f"time_limit must be positive, got {self.time_limit}")

    def linprog_kwargs(self) -> dict:
        """The ``method=`` / ``options=`` pair to splat into ``linprog``."""
        options: dict = {"presolve": bool(self.presolve)}
        if self.time_limit is not None:
            options["time_limit"] = float(self.time_limit)
        return {"method": self.method, "options": options}


def _resolve_options(
    solver: str | None, options: LpSolverOptions | None
) -> LpSolverOptions:
    """Merge the legacy ``solver=`` knob with an options object.

    ``solver`` predates :class:`LpSolverOptions` and remains supported
    everywhere; an explicit ``options`` wins, a bare ``solver`` string is
    wrapped, and neither means defaults.
    """
    if options is not None:
        return options
    if solver is not None and solver != DEFAULT_LP_SOLVER:
        return LpSolverOptions(method=solver)
    return LpSolverOptions()


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
    solver: str | None = None,
    warm_start: np.ndarray | None = None,
    options: LpSolverOptions | None = None,
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
        solver: HiGHS algorithm passed to :func:`scipy.optimize.linprog`
            (legacy knob; superseded by ``options``).
        warm_start: a candidate point in ``[0, 1]^n`` (typically the
            fractional iterate of :func:`repro.reconstruction.l2_decode.
            l2_decode`).  In feasibility mode a warm start that already
            satisfies every constraint is returned without invoking the
            solver at all — checking the certificate is one matvec.
        options: full solver configuration (:class:`LpSolverOptions`).

    Returns:
        The rounded reconstruction with bookkeeping.
    """
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
    if mode not in ("feasibility", "least-l1"):
        raise ValueError(f"unknown mode: {mode!r}")

    answers = answerer.answer_workload(workload)
    matrix = workload.matrix(sparse=True)
    resolved = _resolve_options(solver, options)

    if mode == "feasibility":
        if alpha is None:
            alpha = answerer.error_bound
        if not np.isfinite(alpha):
            raise ValueError("feasibility mode needs a finite alpha")
        fractional = _solve_feasibility(
            matrix, answers, float(alpha), resolved, warm_start
        )
        used_alpha = float(alpha)
    else:
        fractional = _solve_least_l1(matrix, answers, resolved)
        used_alpha = float("nan")

    reconstruction = (fractional >= 0.5).astype(np.int64)
    return LpReconstructionResult(
        reconstruction=reconstruction,
        fractional=fractional,
        queries_used=len(workload),
        alpha=used_alpha,
        mode=mode,
    )


def reconstruct_from_answers(
    queries: Workload | Sequence[SubsetQuery],
    answers: np.ndarray,
    alpha: float | None = None,
    solver: str | None = None,
    warm_start: np.ndarray | None = None,
    options: LpSolverOptions | None = None,
) -> LpReconstructionResult:
    """LP-decode a pre-collected (workload, answers) transcript.

    Used when the attack must replay recorded interaction (e.g. attacking a
    mechanism that limits each caller's query budget), and by the
    experiments to reuse one workload — and its one-time sparse assembly —
    across whole noise sweeps.  ``warm_start`` and ``options`` behave as in
    :func:`lp_reconstruction`; the sharded pipeline escalates failed l2
    shards through here with the l2 fractional iterate as the warm start.
    """
    workload = Workload.coerce(queries)
    answers = np.asarray(answers, dtype=float)
    if answers.shape != (len(workload),):
        raise ValueError("answers must align with the query list")
    matrix = workload.matrix(sparse=True)
    resolved = _resolve_options(solver, options)
    if alpha is not None and np.isfinite(alpha):
        fractional = _solve_feasibility(
            matrix, answers, float(alpha), resolved, warm_start
        )
        mode, used_alpha = "feasibility", float(alpha)
    else:
        fractional = _solve_least_l1(matrix, answers, resolved)
        mode, used_alpha = "least-l1", float("nan")
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
    options: LpSolverOptions | None = None,
    warm_start: np.ndarray | None = None,
) -> np.ndarray:
    """Find z in [0,1]^n with |A z - a| <= alpha (elementwise).

    Encoded as a linear program with zero objective; ``matrix`` may be dense
    or CSR sparse — the stacked [A; -A] constraint block stays in the same
    format.  A ``warm_start`` that already meets every constraint *is* a
    solution of this zero-objective program, so it is returned after a
    single certifying matvec.  When the LP is infeasible at the stated
    alpha (an answerer lying about its accuracy) we retry in least-l1 mode
    so the attack degrades gracefully.
    """
    options = options or LpSolverOptions()
    m, n = matrix.shape
    candidate = _validated_warm_start(warm_start, n)
    if candidate is not None:
        if float(np.max(np.abs(matrix @ candidate - answers))) <= alpha:
            return candidate
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
        **options.linprog_kwargs(),
    )
    if not result.success:
        return _solve_least_l1(matrix, answers, options)
    return np.clip(result.x, 0.0, 1.0)


def _solve_least_l1(
    matrix, answers: np.ndarray, options: LpSolverOptions | None = None
) -> np.ndarray:
    """Minimize ||A z - a||_1 over z in [0,1]^n via the standard LP lift."""
    return solve_least_l1(matrix, answers, options=options)


def solve_least_l1(
    matrix,
    targets: np.ndarray,
    *,
    lower: float = 0.0,
    upper: float | None = 1.0,
    solver: str | None = None,
    options: LpSolverOptions | None = None,
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
    options = _resolve_options(solver, options)
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
    result = linprog(c=c, A_eq=a_eq, b_eq=answers, bounds=bounds, **options.linprog_kwargs())
    if not result.success:
        raise RuntimeError(f"LP solver failed: {result.message}")
    if upper is None:
        return np.maximum(result.x[:n], lower)
    return np.clip(result.x[:n], lower, upper)
