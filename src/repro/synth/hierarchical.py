"""TopDown-style hierarchical release over the census-block microdata.

A scaled-down model of the Census Bureau's 2020 TopDown Algorithm — the
system the paper presents as the Bureau's answer to database
reconstruction.  The pipeline is the same three stages:

1. **Measure**: histogram the microdata at two geographic levels — one
   national table and one per-block table over (sex, age bin, race,
   ethnicity) cells — and perturb every count with two-sided geometric
   noise (:class:`~repro.privacy.kernels.GeometricKernel`).  Each level is
   calibrated at ``epsilon / 2``; within a level the blocks partition the
   records, so the block tables compose in parallel and the whole release
   is ``epsilon``-DP.
2. **Post-process**: noisy counts are negative and inconsistent across
   levels.  One least-l1 LP (:func:`repro.reconstruction.lp_decode.
   solve_least_l1` with an unbounded-above box) fits a non-negative
   fractional histogram whose block tables sum to the national table —
   the same solver the reconstruction *attack* uses, now as a defense's
   estimator.
3. **Expand**: per-block histograms are integerized by largest-remainder
   rounding (:func:`~repro.synth.domain.integerize`) and expanded into
   records, drawing each person's age uniformly inside their age bin.

The block structure and attribute domains are treated as public, as in
the real TopDown; only the counts are protected.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from repro.data.dataset import Dataset
from repro.privacy.accounting import PrivacySpend
from repro.privacy.kernels import GeometricKernel, MechanismSpec
from repro.reconstruction.lp_decode import solve_least_l1
from repro.synth.base import SyntheticRelease, Synthesizer
from repro.synth.domain import CellDomain, integerize

__all__ = ["HierarchicalSynthesizer"]

#: The census attributes the hierarchy is built over, in cell-index order.
_CENSUS_ATTRIBUTES = ("block", "sex", "age", "race", "ethnicity")


class HierarchicalSynthesizer(Synthesizer):
    """Two-level geometric-noise release with LP consistency fitting.

    Args:
        epsilon: total privacy budget; half measures the national table,
            half the per-block tables (parallel across blocks).
        age_bin_width: width of the age bins the hierarchy tabulates
            (coarser bins shrink the LP; ages are re-drawn uniformly
            within their bin on expansion).
    """

    name = "hierarchical"

    def __init__(self, epsilon: float, age_bin_width: int = 10):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if age_bin_width < 1:
            raise ValueError(f"age_bin_width must be >= 1, got {age_bin_width}")
        self.epsilon = float(epsilon)
        self.age_bin_width = int(age_bin_width)

    @property
    def spec(self) -> MechanismSpec:
        return MechanismSpec(
            name=(
                f"hierarchical(eps={self.epsilon}, "
                f"age_bin={self.age_bin_width})"
            ),
            kernel=GeometricKernel.calibrate(self.epsilon / 2.0, sensitivity=1.0),
            spend=PrivacySpend(self.epsilon, label="hierarchical"),
            sensitivity=1.0,
            dp=True,
        )

    def _synthesize(
        self, dataset: Dataset, rng: np.random.Generator
    ) -> SyntheticRelease:
        for name in _CENSUS_ATTRIBUTES:
            if name not in dataset.schema:
                raise ValueError(
                    f"hierarchical synthesis needs attribute {name!r} "
                    "(a data.censusblocks-style schema)"
                )
        schema = dataset.schema.project(_CENSUS_ATTRIBUTES)
        blocks = tuple(dataset.schema.attribute("block").domain)
        sexes = tuple(dataset.schema.attribute("sex").domain)
        races = tuple(dataset.schema.attribute("race").domain)
        ethnicities = tuple(dataset.schema.attribute("ethnicity").domain)
        age_domain = dataset.schema.attribute("age").domain
        low, high = int(age_domain.low), int(age_domain.high)  # type: ignore[attr-defined]
        bins = tuple(
            (lo, min(lo + self.age_bin_width - 1, high))
            for lo in range(low, high + 1, self.age_bin_width)
        )
        domain = CellDomain(
            ("block", "sex", "age_bin", "race", "ethnicity"),
            (blocks, sexes, bins, races, ethnicities),
        )
        num_blocks = len(blocks)
        cells_per_block = domain.size // num_blocks

        # Histogram the truth at both levels (block-major cell order).
        block_index = {value: i for i, value in enumerate(blocks)}
        indices = np.zeros(len(dataset), dtype=np.int64)
        for name, levels in (
            ("block", block_index),
            ("sex", {value: i for i, value in enumerate(sexes)}),
            ("age", {age: (age - low) // self.age_bin_width for age in range(low, high + 1)}),
            ("race", {value: i for i, value in enumerate(races)}),
            ("ethnicity", {value: i for i, value in enumerate(ethnicities)}),
        ):
            width = len(bins) if name == "age" else len(set(levels.values()))
            column = dataset.column(name)
            positions = np.fromiter(
                (levels[value] for value in column),
                dtype=np.int64,
                count=len(column),
            )
            indices = indices * width + positions
        counts = np.bincount(indices, minlength=domain.size).astype(np.float64)
        per_block = counts.reshape(num_blocks, cells_per_block)
        national = per_block.sum(axis=0)

        # Measure: geometric noise, national table first, then each block
        # in block order (C-order draw over the (blocks, cells) array).
        kernel = GeometricKernel.calibrate(self.epsilon / 2.0, sensitivity=1.0)
        noisy_national = national + kernel.sample_n(rng, cells_per_block)
        noisy_blocks = per_block + kernel.sample_n(
            rng, (num_blocks, cells_per_block)
        )

        # Post-process: least-l1 fit of a non-negative histogram whose
        # block tables are near the noisy block counts and sum to the
        # noisy national counts.
        identity = scipy.sparse.identity(domain.size, format="csr")
        summation = scipy.sparse.hstack(
            [scipy.sparse.identity(cells_per_block, format="csr")] * num_blocks,
            format="csr",
        )
        system = scipy.sparse.vstack([identity, summation], format="csr")
        targets = np.concatenate([noisy_blocks.ravel(), noisy_national])
        fitted = solve_least_l1(system, targets, lower=0.0, upper=None)

        # Expand: integerize each block and draw ages inside their bins.
        histogram = np.zeros(domain.size, dtype=np.int64)
        records: list[tuple] = []
        for b, block in enumerate(blocks):
            segment = fitted[b * cells_per_block : (b + 1) * cells_per_block]
            total = int(round(float(segment.sum())))
            if total <= 0:
                continue
            block_hist = integerize(segment, total)
            histogram[b * cells_per_block : (b + 1) * cells_per_block] = block_hist
            for cell_offset in np.flatnonzero(block_hist):
                count = int(block_hist[cell_offset])
                _, sex, (bin_lo, bin_hi), race, ethnicity = domain.cell(
                    int(b * cells_per_block + cell_offset)
                )
                ages = rng.integers(bin_lo, bin_hi + 1, size=count)
                records.extend(
                    (block, sex, int(age), race, ethnicity) for age in ages
                )
        return SyntheticRelease(
            data=Dataset(schema, records, validate=False),
            spec=self.spec,
            histogram=histogram,
            domain=domain,
        )
