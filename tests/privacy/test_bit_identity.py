"""Golden bit-identity tests for the kernel-delegated answering paths.

The hex-float answers below were recorded from the pre-refactor seed state
(inline ``rng.laplace(...)``-style noise in each answerer).  The refactor
moved every draw into :mod:`repro.privacy.kernels`; these tests pin the
requirement that the move changed *no bit* of any released answer for the
recorded seeds.
"""

import numpy as np
import pytest

from repro.queries.mechanism import (
    BoundedNoiseAnswerer,
    ExactAnswerer,
    GaussianAnswerer,
    LaplaceAnswerer,
    RoundingAnswerer,
    SubsamplingAnswerer,
)
from repro.queries.workload import Workload
from repro.utils.rng import derive_rng

#: Pre-refactor workload answers, as exact hex floats (data: default_rng(99)
#: bits, n=32; workload: Workload.random(32, 12, rng=derive_rng(7, "golden-w"))).
GOLDEN = {
    "exact": [
        "0x1.a000000000000p+3", "0x1.8000000000000p+2", "0x1.0000000000000p+3",
        "0x1.4000000000000p+3", "0x1.6000000000000p+3", "0x1.8000000000000p+2",
        "0x1.4000000000000p+3", "0x1.0000000000000p+3", "0x1.0000000000000p+3",
        "0x1.2000000000000p+3", "0x1.2000000000000p+3", "0x1.4000000000000p+3",
    ],
    "bounded-uniform": [
        "0x1.8b0a53f5032ffp+3", "0x1.d9e1ac8987187p+2", "0x1.2b9879f6e6695p+3",
        "0x1.5bd033ae046c4p+3", "0x1.9c023ea8c25c6p+3", "0x1.982718155ffe0p+2",
        "0x1.18a986c6df671p+3", "0x1.4ae1ca8ae4b0ap+3", "0x1.5cd6c3cbc406cp+3",
        "0x1.330ca85f13a2ap+3", "0x1.ddb3612cfb80fp+2", "0x1.e8ac8013d25c3p+2",
    ],
    "bounded-extremes": [
        "0x1.e000000000000p+3", "0x1.0000000000000p+2", "0x1.4000000000000p+3",
        "0x1.0000000000000p+3", "0x1.2000000000000p+3", "0x1.0000000000000p+3",
        "0x1.8000000000000p+3", "0x1.4000000000000p+3", "0x1.8000000000000p+2",
        "0x1.c000000000000p+2", "0x1.c000000000000p+2", "0x1.0000000000000p+3",
    ],
    "rounding": [
        "0x1.8000000000000p+3", "0x1.8000000000000p+2", "0x1.2000000000000p+3",
        "0x1.2000000000000p+3", "0x1.8000000000000p+3", "0x1.8000000000000p+2",
        "0x1.2000000000000p+3", "0x1.2000000000000p+3", "0x1.2000000000000p+3",
        "0x1.2000000000000p+3", "0x1.2000000000000p+3", "0x1.2000000000000p+3",
    ],
    "subsampling": [
        "0x1.0000000000000p+2", "0x1.0000000000000p+2", "0x1.0000000000000p+1",
        "0x1.0000000000000p+2", "0x1.8000000000000p+2", "0x1.0000000000000p+1",
        "0x1.8000000000000p+2", "0x1.8000000000000p+2", "0x1.8000000000000p+2",
        "0x1.8000000000000p+2", "0x1.4000000000000p+3", "0x1.0000000000000p+3",
    ],
    "laplace": [
        "0x1.a4aea4b83d175p+3", "0x1.c493bc9184b3cp+2", "0x1.0f70dcd8af290p+3",
        "0x1.55e724eaf9bdap+2", "0x1.69f67890ef76cp+3", "0x1.946d0572f8072p+2",
        "0x1.c2abd3f844d16p+3", "0x1.071f9c83fa156p+3", "0x1.5db29ac56ea96p+2",
        "0x1.d9b9da718c8fdp+2", "0x1.37b28d554f365p+3", "0x1.390ed98fb0cbdp+3",
    ],
    "gaussian": [
        "0x1.efcfe3af8e7e1p+3", "0x1.5fc8ae8948476p+1", "0x1.cc4431c54d71ep+2",
        "0x1.0bb6a5725f01ap+4", "0x1.67071163c0792p+3", "0x1.b0bfbbe6f0daap+2",
        "0x1.61ca07097ba00p+3", "0x1.384aa5b0abaf6p+3", "0x1.b29dfb8887170p+2",
        "0x1.18f560c6da412p+4", "0x1.3e08731777973p+4", "0x1.b17b7927105c8p+3",
    ],
}

FACTORIES = {
    "exact": lambda data: ExactAnswerer(data),
    "bounded-uniform": lambda data: BoundedNoiseAnswerer(
        data, alpha=3.0, rng=derive_rng(7, "u")
    ),
    "bounded-extremes": lambda data: BoundedNoiseAnswerer(
        data, alpha=2.0, shape="extremes", rng=derive_rng(7, "x")
    ),
    "rounding": lambda data: RoundingAnswerer(data, step=3),
    "subsampling": lambda data: SubsamplingAnswerer(
        data, rate=0.5, rng=derive_rng(7, "s")
    ),
    "laplace": lambda data: LaplaceAnswerer(
        data, epsilon_per_query=0.7, rng=derive_rng(7, "l")
    ),
    "gaussian": lambda data: GaussianAnswerer(
        data, epsilon_per_query=0.9, delta_per_query=1e-5, rng=derive_rng(7, "g")
    ),
}


@pytest.fixture(scope="module")
def golden_setup():
    data = np.random.default_rng(99).integers(0, 2, size=32)
    workload = Workload.random(32, 12, rng=derive_rng(7, "golden-w"))
    return data, workload


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_workload_answers_match_pre_refactor_goldens(name, golden_setup):
    data, workload = golden_setup
    answers = FACTORIES[name](data).answer_workload(workload)
    assert [float(a).hex() for a in answers] == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scalar_path_matches_workload_path(name, golden_setup):
    """Per-query answers consume the same stream as the batched path."""
    data, workload = golden_setup
    answerer = FACTORIES[name](data)
    scalars = [answerer.answer(query) for query in workload]
    assert [float(a).hex() for a in scalars] == GOLDEN[name]
