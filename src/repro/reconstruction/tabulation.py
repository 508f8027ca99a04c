"""Census-style table publication.

The 2010 Decennial publication the paper discusses released, for every
census block, a system of overlapping marginal tables (counts by sex and
age, by race and ethnicity, and cross-tabulations).  Those tables — not any
microdata — were the attack surface of the Census reconstruction [24].

We publish the analogous system for the synthetic blocks of
:mod:`repro.data.censusblocks`:

* ``total``          — block population (table P1);
* ``sex_by_age``     — counts by (sex, single-year age) (cf. P12/PCT12);
* ``race_by_ethnicity`` — counts by (race, Hispanic origin) (cf. P5);
* ``sex_by_race``    — counts by (sex, race) (cf. P12 A-I iterations).

The solver in :mod:`repro.reconstruction.census_solver` knows nothing about
the generator — it sees only these tables, exactly like the real attack.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from repro.data.dataset import Dataset


@dataclass(frozen=True)
class BlockTables:
    """The published tables for one census block."""

    block: int
    total: int
    sex_by_age: Mapping[tuple[str, int], int]
    race_by_ethnicity: Mapping[tuple[str, str], int]
    sex_by_race: Mapping[tuple[str, str], int]

    def __post_init__(self) -> None:
        for name, table in (
            ("sex_by_age", self.sex_by_age),
            ("race_by_ethnicity", self.race_by_ethnicity),
            ("sex_by_race", self.sex_by_race),
        ):
            marginal_total = sum(table.values())
            if marginal_total != self.total:
                raise ValueError(
                    f"table {name} sums to {marginal_total}, expected {self.total}"
                )
            if any(count < 0 for count in table.values()):
                raise ValueError(f"table {name} has negative counts")

    def sex_counts(self) -> dict[str, int]:
        """Marginal population by sex (derived; consistency is checked)."""
        by_age = Counter()
        for (sex, _age), count in self.sex_by_age.items():
            by_age[sex] += count
        by_race = Counter()
        for (sex, _race), count in self.sex_by_race.items():
            by_race[sex] += count
        if by_age != by_race:
            raise ValueError(
                f"inconsistent sex marginals across tables in block {self.block}"
            )
        return dict(by_age)

    def race_counts(self) -> dict[str, int]:
        """Marginal population by race."""
        counts: Counter = Counter()
        for (race, _eth), count in self.race_by_ethnicity.items():
            counts[race] += count
        return dict(counts)


def tabulate_blocks(census: Dataset) -> dict[int, BlockTables]:
    """Publish the table system for every block of the census microdata.

    The input must carry ``block``, ``sex``, ``age``, ``race`` and
    ``ethnicity`` attributes (the ``person_id`` ground truth is ignored —
    nothing identifying is published).
    """
    required = {"block", "sex", "age", "race", "ethnicity"}
    missing = required - set(census.schema.names)
    if missing:
        raise ValueError(f"census data is missing attributes: {sorted(missing)}")

    per_block: dict[int, list] = {}
    for record in census:
        per_block.setdefault(record["block"], []).append(record)  # type: ignore[arg-type]

    tables: dict[int, BlockTables] = {}
    for block, people in sorted(per_block.items()):
        sex_by_age: Counter = Counter()
        race_by_ethnicity: Counter = Counter()
        sex_by_race: Counter = Counter()
        for person in people:
            sex_by_age[(person["sex"], person["age"])] += 1
            race_by_ethnicity[(person["race"], person["ethnicity"])] += 1
            sex_by_race[(person["sex"], person["race"])] += 1
        tables[int(block)] = BlockTables(  # type: ignore[arg-type]
            block=int(block),  # type: ignore[arg-type]
            total=len(people),
            sex_by_age=dict(sex_by_age),
            race_by_ethnicity=dict(race_by_ethnicity),
            sex_by_race=dict(sex_by_race),
        )
    return tables


def apply_rounding(tables: dict[int, BlockTables], base: int = 3) -> dict[int, BlockTables]:
    """A legacy disclosure-limitation variant: round the coarse tables.

    Controlled rounding was among the pre-2020 SDC techniques.  It was
    applied to the demographic cross-tabulations (here ``race_by_ethnicity``
    and ``sex_by_race``), not to the basic age pyramid — rounding
    single-year counts (almost all 1) to a base would zero the entire
    publication.  After rounding, each table is adjusted back to the block
    total so it remains internally consistent; the *information* lost to
    rounding persists.  The benchmark's finding — reconstruction is
    essentially unharmed — mirrors the historical lesson that ad-hoc SDC
    does not defend against reconstruction; calibrated noise (see the
    census example's DP variant) does.
    """
    if base <= 1:
        raise ValueError("rounding base must exceed 1")

    def round_table(table: Mapping, to: int) -> dict:
        return {key: int(round(count / to) * to) for key, count in table.items()}

    rounded: dict[int, BlockTables] = {}
    for block, original in tables.items():
        total = original.total
        race_by_ethnicity = _fit_total(round_table(original.race_by_ethnicity, base), total)
        sex_by_race = _fit_total(round_table(original.sex_by_race, base), total)
        rounded[block] = BlockTables(
            block=block,
            total=total,
            sex_by_age=dict(original.sex_by_age),
            race_by_ethnicity=race_by_ethnicity,
            sex_by_race=sex_by_race,
        )
    return rounded


def _fit_total(table: dict, total: int) -> dict:
    """Adjust a rounded table's counts so they sum to ``total`` (keeps >= 0)."""
    table = dict(table)
    if not table:
        return table
    delta = total - sum(table.values())
    keys = sorted(table, key=lambda key: -table[key])
    i = 0
    while delta != 0 and keys:
        key = keys[i % len(keys)]
        step = 1 if delta > 0 else -1
        if table[key] + step >= 0:
            table[key] += step
            delta -= step
        i += 1
        if i > 10_000:  # safety: cannot happen with sane inputs
            raise RuntimeError("table adjustment failed to converge")
    return table
