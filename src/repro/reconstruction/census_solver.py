"""Inverting census tables back into microdata — the paper's Section 1 attack.

The attack proceeds block by block, exactly as described for the 2010
Decennial reconstruction [24]:

1. The published ``sex_by_age`` table *is* the multiset of (sex, age) pairs
   — single-year counts leave nothing to infer.
2. The joint distribution of (sex, race, ethnicity) is pinned down by
   solving an integer feasibility problem over the 2x4x2 contingency cube
   whose margins are the published ``sex_by_race`` and
   ``race_by_ethnicity`` tables.
3. Race/ethnicity cells are attached to the (sex, age) pairs, yielding
   person-level records for the whole block.

Whether step 2 has a *unique* solution depends on the block's size and
diversity; small blocks (the norm) are often uniquely determined, which is
why the real attack reconstructed 71% of the US population exactly.  We
score reconstructed records by maximum multiset agreement with the truth,
and re-identification by joining against a synthetic commercial file.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np
from scipy.optimize import LinearConstraint, milp

from repro.data.censusblocks import ETHNICITIES, RACES, SEXES
from repro.data.dataset import Dataset
from repro.reconstruction.tabulation import BlockTables

#: A reconstructed person: (block, sex, age, race, ethnicity).
ReconstructedRecord = tuple[int, str, int, str, str]


@dataclass(frozen=True)
class BlockReconstruction:
    """Per-block reconstruction outcome."""

    block: int
    records: tuple[ReconstructedRecord, ...]
    solved: bool  #: whether the feasibility solve succeeded
    exact_matches: int  #: records agreeing with the truth (multiset match)

    @property
    def population(self) -> int:
        """Number of persons in the block."""
        return len(self.records)


@dataclass(frozen=True)
class CensusReconstructionResult:
    """Aggregate outcome over all blocks."""

    blocks: tuple[BlockReconstruction, ...]

    @property
    def records(self) -> list[ReconstructedRecord]:
        """All reconstructed person records."""
        return [record for block in self.blocks for record in block.records]

    @property
    def population(self) -> int:
        """Total persons across blocks."""
        return sum(block.population for block in self.blocks)

    @property
    def exact_match_fraction(self) -> float:
        """Fraction of the population whose record was reconstructed exactly.

        This is the statistic behind the paper's "71% of the US population"
        claim.
        """
        if self.population == 0:
            raise ValueError("no blocks were reconstructed")
        return sum(block.exact_matches for block in self.blocks) / self.population

    @property
    def solved_fraction(self) -> float:
        """Fraction of blocks where the integer solve succeeded."""
        if not self.blocks:
            raise ValueError("no blocks were reconstructed")
        return sum(1 for block in self.blocks if block.solved) / len(self.blocks)


def reconstruct_census(
    tables: dict[int, BlockTables],
    truth: Dataset | None = None,
) -> CensusReconstructionResult:
    """Reconstruct person-level records from published block tables.

    Args:
        tables: the published table system (see
            :func:`repro.reconstruction.tabulation.tabulate_blocks`).
        truth: the original microdata, used only for scoring
            ``exact_matches``; pass ``None`` to skip scoring (all zeros).

    Returns:
        Reconstruction of every block, with per-block exactness scores, in
        block order.  Blocks are independent (the defining property of the
        attack), so each is one small integer solve.
    """
    truth_by_block: dict[int, Counter] = {}
    if truth is not None:
        for record in truth:
            key = (
                int(record["block"]),  # type: ignore[arg-type]
                record["sex"],
                record["age"],
                record["race"],
                record["ethnicity"],
            )
            truth_by_block.setdefault(key[0], Counter())[key] += 1

    ordered = sorted(tables.items())
    solutions = [_reconstruct_block(block_tables) for _, block_tables in ordered]

    blocks = []
    for (block_id, _), (records, solved) in zip(ordered, solutions):
        exact = 0
        if truth is not None:
            reconstructed_counter = Counter(records)
            exact = sum(
                (reconstructed_counter & truth_by_block.get(block_id, Counter())).values()
            )
        blocks.append(
            BlockReconstruction(
                block=block_id,
                records=tuple(records),
                solved=solved,
                exact_matches=exact,
            )
        )
    return CensusReconstructionResult(blocks=tuple(blocks))


def _reconstruct_block(tables: BlockTables) -> tuple[list[ReconstructedRecord], bool]:
    """Reconstruct one block; returns (records, solver_succeeded)."""
    # Step 1: (sex, age) pairs straight from the published table.
    sex_age_pairs: list[tuple[str, int]] = []
    for (sex, age), count in sorted(tables.sex_by_age.items()):
        sex_age_pairs.extend([(sex, age)] * count)

    # Step 2: solve the (sex, race, ethnicity) cube.
    cube = _solve_cube(tables)
    solved = cube is not None
    if cube is None:
        # Degenerate fallback: spread the race x ethnicity marginal
        # proportionally across sexes (never exercised with consistent
        # tables; kept so rounded/inconsistent tables still yield output).
        cube = _proportional_cube(tables)

    # Step 3: attach (race, ethnicity) cells to the per-sex age lists.
    records: list[ReconstructedRecord] = []
    for sex in SEXES:
        ages = sorted(age for s, age in sex_age_pairs if s == sex)
        cells: list[tuple[str, str]] = []
        for race, ethnicity in product(RACES, ETHNICITIES):
            cells.extend([(race, ethnicity)] * cube[(sex, race, ethnicity)])
        if len(cells) != len(ages):
            # Inconsistent tables (possible after rounding): pad/truncate with
            # the block's plurality cell so every person gets a record.
            plurality = max(
                product(RACES, ETHNICITIES),
                key=lambda cell: tables.race_by_ethnicity.get(cell, 0),
            )
            while len(cells) < len(ages):
                cells.append(plurality)
            cells = cells[: len(ages)]
        for age, (race, ethnicity) in zip(ages, cells):
            records.append((tables.block, sex, age, race, ethnicity))
    return records, solved


def _cube_system() -> tuple[
    list[tuple[str, str, str]],
    dict[tuple[str, str, str], int],
    np.ndarray,
    list[tuple[str, str]],
    list[tuple[str, str]],
]:
    """Precompute the margin-constraint system shared by every block.

    The constraint *matrix* depends only on the attribute vocabularies
    (SEXES x RACES x ETHNICITIES), never on the block, so it is built once
    at import time; per block only the right-hand-side margins change.
    """
    variables = list(product(SEXES, RACES, ETHNICITIES))
    index = {cell: i for i, cell in enumerate(variables)}
    sex_race_cells = list(product(SEXES, RACES))
    race_ethnicity_cells = list(product(RACES, ETHNICITIES))

    matrix = np.zeros((len(sex_race_cells) + len(race_ethnicity_cells), len(variables)))
    for row, (sex, race) in enumerate(sex_race_cells):
        for ethnicity in ETHNICITIES:
            matrix[row, index[(sex, race, ethnicity)]] = 1.0
    offset = len(sex_race_cells)
    for row, (race, ethnicity) in enumerate(race_ethnicity_cells):
        for sex in SEXES:
            matrix[offset + row, index[(sex, race, ethnicity)]] = 1.0
    matrix.setflags(write=False)
    return variables, index, matrix, sex_race_cells, race_ethnicity_cells


(
    _CUBE_VARIABLES,
    _CUBE_INDEX,
    _CUBE_MATRIX,
    _CUBE_SEX_RACE_CELLS,
    _CUBE_RACE_ETHNICITY_CELLS,
) = _cube_system()


def _solve_cube(tables: BlockTables) -> dict[tuple[str, str, str], int] | None:
    """Integer feasibility for n[sex, race, ethnicity] given two margins.

    Margins: ``sum_e n[s,r,e] = sex_by_race[s,r]`` and
    ``sum_s n[s,r,e] = race_by_ethnicity[r,e]``.  Solved exactly with
    scipy's MILP (16 variables, 16 equality constraints); the constraint
    matrix is the block-independent :data:`_CUBE_MATRIX` assembled once at
    module load, so per block we only fill the margin vector.
    """
    bounds = np.fromiter(
        (
            tables.sex_by_race.get(cell, 0)
            for cell in _CUBE_SEX_RACE_CELLS
        ),
        dtype=float,
        count=len(_CUBE_SEX_RACE_CELLS),
    )
    bounds = np.concatenate(
        [
            bounds,
            np.fromiter(
                (
                    tables.race_by_ethnicity.get(cell, 0)
                    for cell in _CUBE_RACE_ETHNICITY_CELLS
                ),
                dtype=float,
                count=len(_CUBE_RACE_ETHNICITY_CELLS),
            ),
        ]
    )

    constraint = LinearConstraint(_CUBE_MATRIX, bounds, bounds)
    result = milp(
        c=np.zeros(len(_CUBE_VARIABLES)),
        constraints=[constraint],
        integrality=np.ones(len(_CUBE_VARIABLES)),
        bounds=(0, tables.total),
    )
    if not result.success:
        return None
    solution = np.round(result.x).astype(int)
    return {cell: int(solution[i]) for cell, i in _CUBE_INDEX.items()}


def _proportional_cube(tables: BlockTables) -> dict[tuple[str, str, str], int]:
    """Fallback cube: split race x ethnicity counts across sexes by share.

    Sex shares come from the sex_by_age table alone — after rounding the
    cross-tabulations, the sex marginals of the different tables may
    disagree, and sex_by_age is the one the record assembly trusts.
    """
    sex_counts: dict[str, int] = {}
    for (sex, _age), count in tables.sex_by_age.items():
        sex_counts[sex] = sex_counts.get(sex, 0) + count
    total = max(tables.total, 1)
    cube: dict[tuple[str, str, str], int] = {}
    for race, ethnicity in product(RACES, ETHNICITIES):
        count = tables.race_by_ethnicity.get((race, ethnicity), 0)
        assigned = 0
        for sex in SEXES[:-1]:
            share = round(count * sex_counts.get(sex, 0) / total)
            cube[(sex, race, ethnicity)] = share
            assigned += share
        cube[(SEXES[-1], race, ethnicity)] = max(count - assigned, 0)
    return cube


@dataclass(frozen=True)
class ReidentificationResult:
    """Outcome of linking reconstructed records to an identified file.

    Attributes:
        attempted: commercial-file rows for which a unique candidate existed.
        confirmed: attempted matches that were actually correct (the
            inferred race/ethnicity and exact age match the true person).
        population: size of the underlying population (denominator of
            :attr:`reidentified_rate`).
    """

    attempted: int
    confirmed: int
    population: int

    @property
    def precision(self) -> float:
        """Fraction of putative matches that were correct."""
        if self.attempted == 0:
            return 0.0
        return self.confirmed / self.attempted

    @property
    def reidentified_rate(self) -> float:
        """Confirmed re-identifications over the whole population.

        The statistic behind the paper's "17% of the US population" claim.
        """
        if self.population == 0:
            raise ValueError("population must be positive")
        return self.confirmed / self.population

    @property
    def putative_rate(self) -> float:
        """Attempted (claimed) re-identifications over the population."""
        if self.population == 0:
            raise ValueError("population must be positive")
        return self.attempted / self.population


def reidentify(
    reconstruction: CensusReconstructionResult,
    commercial: Dataset,
    truth: Dataset,
    age_tolerance: int = 1,
) -> ReidentificationResult:
    """Link a commercial file against reconstructed records.

    For each identified commercial row (person_id, block, sex, age+-error),
    the attacker looks for reconstructed records in the same block with the
    same sex and age within ``age_tolerance``.  A *unique* candidate becomes
    a putative re-identification; it is *confirmed* when the candidate's
    full record equals the person's true record.
    """
    return reidentify_records(
        reconstruction.records, commercial, truth, age_tolerance
    )


def reidentify_records(
    records: Sequence[ReconstructedRecord],
    commercial: Dataset,
    truth: Dataset,
    age_tolerance: int = 1,
) -> ReidentificationResult:
    """The :func:`reidentify` linkage against any (block, sex, age, race,
    ethnicity) record collection.

    The records need not come from a reconstruction — the synthetic-release
    evaluation (:mod:`repro.synth.evaluation`) links the commercial file
    directly against *published* synthetic microdata to measure how much
    re-identification power a release retains.
    """
    by_block: dict[int, list[ReconstructedRecord]] = {}
    for record in records:
        by_block.setdefault(record[0], []).append(record)

    truth_by_id = {
        record["person_id"]: (
            int(record["block"]),  # type: ignore[arg-type]
            record["sex"],
            record["age"],
            record["race"],
            record["ethnicity"],
        )
        for record in truth
    }

    attempted = 0
    confirmed = 0
    for row in commercial:
        block = int(row["block"])  # type: ignore[arg-type]
        candidates = [
            record
            for record in by_block.get(block, [])
            if record[1] == row["sex"] and abs(record[2] - row["age"]) <= age_tolerance  # type: ignore[operator]
        ]
        if len(candidates) != 1:
            continue
        attempted += 1
        candidate = candidates[0]
        true_record = truth_by_id.get(row["person_id"])
        if true_record is not None and candidate == true_record:
            confirmed += 1
    return ReidentificationResult(
        attempted=attempted, confirmed=confirmed, population=len(truth)
    )
