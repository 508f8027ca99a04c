"""The decoders run at one configuration: their removed options stay removed.

Each keyword here was never set outside tests, or was set and read by
nothing.  What they set is now a module constant: the LP's HiGHS
algorithm (``lp_decode.LP_SOLVER``) and the FISTA cap, tolerance and
certificate cadence (``l2_decode.MAX_ITERS``, ``TOL``, ``CHECK_EVERY``).
"""

import importlib

import numpy as np
import pytest

from repro.compliance.verifiers import ReconstructionResistanceVerifier
from repro.queries.mechanism import ExactAnswerer
from repro.queries.workload import Workload
from repro.reconstruction import (
    BlockPartition,
    ShardedReconstructor,
    exhaustive_reconstruction,
    l2_decode,
    l2_decode_batch,
    reconstruct_from_answers,
    solve_least_l1,
)
from repro.service.audit import ReconstructionAuditor
from repro.synth.hierarchical import HierarchicalSynthesizer

WORKLOAD = Workload.random(8, 24, rng=0)
ANSWERS = np.zeros(24)
DATA = np.zeros(8, dtype=int)

CALLS = {
    "ShardedReconstructor": lambda **kw: ShardedReconstructor(0.5, **kw),
    "ShardedReconstructor.reconstruct": lambda **kw: ShardedReconstructor(
        0.5
    ).reconstruct(WORKLOAD, ANSWERS, **kw),
    "l2_decode": lambda **kw: l2_decode(WORKLOAD, ANSWERS, 0.5, **kw),
    "l2_decode_batch": lambda **kw: l2_decode_batch(
        WORKLOAD.matrix()[None], ANSWERS[None], 0.5, **kw
    ),
    "reconstruct_from_answers": lambda **kw: reconstruct_from_answers(
        WORKLOAD, ANSWERS, 0.5, **kw
    ),
    "solve_least_l1": lambda **kw: solve_least_l1(
        WORKLOAD.matrix(sparse=True), ANSWERS, **kw
    ),
    "exhaustive_reconstruction": lambda **kw: exhaustive_reconstruction(
        ExactAnswerer(DATA), **kw
    ),
    "ReconstructionAuditor": lambda **kw: ReconstructionAuditor(DATA, **kw),
    "ReconstructionResistanceVerifier": lambda **kw: ReconstructionResistanceVerifier(
        **kw
    ),
    "HierarchicalSynthesizer": lambda **kw: HierarchicalSynthesizer(1.0, **kw),
}

REMOVED = [
    ("ShardedReconstructor", "escalate_threshold", 1.0),
    ("ShardedReconstructor", "escalate", False),
    ("ShardedReconstructor", "reg", 0.0),
    ("ShardedReconstructor", "max_iters", 100),
    ("ShardedReconstructor", "tol", 1e-6),
    ("ShardedReconstructor", "check_every", 25),
    ("ShardedReconstructor", "lipschitz", "auto"),
    ("ShardedReconstructor", "dense_limit", 1 << 16),
    ("ShardedReconstructor", "lp_options", None),
    ("ShardedReconstructor.reconstruct", "seed", 0),
    ("l2_decode", "lipschitz", "auto"),
    ("l2_decode", "rng", 0),
    ("l2_decode", "reg", 0.0),
    ("l2_decode", "max_iters", 2000),
    ("l2_decode", "tol", 1e-6),
    ("l2_decode", "check_every", 25),
    ("l2_decode_batch", "reg", 0.0),
    ("l2_decode_batch", "max_iters", 2000),
    ("l2_decode_batch", "tol", 1e-6),
    ("l2_decode_batch", "check_every", 25),
    ("reconstruct_from_answers", "options", None),
    ("reconstruct_from_answers", "solver", "highs-ipm"),
    ("solve_least_l1", "options", None),
    ("solve_least_l1", "solver", "highs-ipm"),
    ("exhaustive_reconstruction", "candidate_order", "ascending"),
    ("ReconstructionAuditor", "solver", "highs-ipm"),
    ("ReconstructionResistanceVerifier", "solver", "l2"),
    ("HierarchicalSynthesizer", "solver", "highs-ipm"),
]


@pytest.mark.parametrize(
    "target, keyword, value",
    REMOVED,
    ids=[f"{target}-{keyword}" for target, keyword, _ in REMOVED],
)
def test_removed_keyword_is_a_type_error(target, keyword, value):
    # A class without an __init__ of its own refuses every argument.
    with pytest.raises(TypeError, match=f"{keyword}|takes no arguments"):
        CALLS[target](**{keyword: value})


def test_lp_solver_options_is_gone():
    for name in ("repro.reconstruction", "repro.reconstruction.lp_decode"):
        module = importlib.import_module(name)
        assert not hasattr(module, "LpSolverOptions"), name
        assert "LpSolverOptions" not in getattr(module, "__all__", ()), name
    lp_decode = importlib.import_module("repro.reconstruction.lp_decode")
    assert not hasattr(lp_decode, "_resolve_options")


def test_lp_reconstruction_is_gone():
    # The attack wrapper went with its options: attacks answer a workload
    # and decode the transcript with reconstruct_from_answers.
    for name in ("repro.reconstruction", "repro.reconstruction.lp_decode"):
        module = importlib.import_module(name)
        assert not hasattr(module, "lp_reconstruction"), name
        assert "lp_reconstruction" not in getattr(module, "__all__", ()), name


def test_test_only_entry_points_are_gone():
    assert not hasattr(BlockPartition, "from_labels")
    for name in ("repro.queries", "repro.queries.query"):
        module = importlib.import_module(name)
        assert not hasattr(module, "queries_to_matrix"), name
        assert "queries_to_matrix" not in getattr(module, "__all__", ()), name
    l2_module = importlib.import_module("repro.reconstruction.l2_decode")
    assert not hasattr(l2_module, "_check_iteration")


def test_every_lp_runs_the_one_algorithm(monkeypatch):
    lp_decode = importlib.import_module("repro.reconstruction.lp_decode")
    real = lp_decode.linprog
    methods = []

    def recording(*args, **kwargs):
        methods.append(kwargs["method"])
        return real(*args, **kwargs)

    monkeypatch.setattr(lp_decode, "linprog", recording)
    assert reconstruct_from_answers(WORKLOAD, ANSWERS, 0.5).mode == "feasibility"
    assert reconstruct_from_answers(WORKLOAD, ANSWERS).mode == "least-l1"
    solve_least_l1(WORKLOAD.matrix(sparse=True), ANSWERS, upper=None)
    assert methods == ["highs-ipm"] * 3
    assert lp_decode.LP_SOLVER == "highs-ipm"
