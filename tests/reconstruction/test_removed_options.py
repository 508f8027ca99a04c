"""The decoders run at one configuration: their removed options stay removed.

Each keyword here was never set outside tests, or was set and read by
nothing; the LP layer keeps ``solver=`` as its one knob.
"""

import importlib

import numpy as np
import pytest

from repro.queries.mechanism import ExactAnswerer
from repro.queries.workload import Workload
from repro.reconstruction import (
    ShardedReconstructor,
    l2_decode,
    lp_reconstruction,
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
    "lp_reconstruction": lambda **kw: lp_reconstruction(
        ExactAnswerer(DATA), workload=WORKLOAD, **kw
    ),
    "reconstruct_from_answers": lambda **kw: reconstruct_from_answers(
        WORKLOAD, ANSWERS, 0.5, **kw
    ),
    "solve_least_l1": lambda **kw: solve_least_l1(
        WORKLOAD.matrix(sparse=True), ANSWERS, **kw
    ),
    "ReconstructionAuditor": lambda **kw: ReconstructionAuditor(DATA, **kw),
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
    ("lp_reconstruction", "options", None),
    ("reconstruct_from_answers", "options", None),
    ("solve_least_l1", "options", None),
    ("ReconstructionAuditor", "solver", "highs-ipm"),
    ("HierarchicalSynthesizer", "solver", "highs-ipm"),
]


@pytest.mark.parametrize(
    "target, keyword, value",
    REMOVED,
    ids=[f"{target}-{keyword}" for target, keyword, _ in REMOVED],
)
def test_removed_keyword_is_a_type_error(target, keyword, value):
    with pytest.raises(TypeError, match=keyword):
        CALLS[target](**{keyword: value})


def test_lp_solver_options_is_gone():
    for name in ("repro.reconstruction", "repro.reconstruction.lp_decode"):
        module = importlib.import_module(name)
        assert not hasattr(module, "LpSolverOptions"), name
        assert "LpSolverOptions" not in getattr(module, "__all__", ()), name
    lp_decode = importlib.import_module("repro.reconstruction.lp_decode")
    assert not hasattr(lp_decode, "_resolve_options")


def test_solver_stays_the_lp_knob():
    # The kept knob reaches HiGHS: an unknown algorithm name is refused.
    with pytest.raises(ValueError):
        reconstruct_from_answers(WORKLOAD, ANSWERS, 0.5, solver="not-a-solver")
    with pytest.raises(ValueError):
        solve_least_l1(WORKLOAD.matrix(sparse=True), ANSWERS, solver="not-a-solver")
