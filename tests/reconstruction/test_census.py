"""Tests for census tabulation and the reconstruction solver."""

import pytest

from repro.data.censusblocks import CensusConfig, commercial_database, generate_census
from repro.reconstruction.census_solver import reconstruct_census, reidentify
from repro.reconstruction.tabulation import BlockTables, apply_rounding, tabulate_blocks


@pytest.fixture(scope="module")
def census():
    return generate_census(CensusConfig(blocks=8, mean_block_size=10), rng=0)


@pytest.fixture(scope="module")
def tables(census):
    return tabulate_blocks(census)


class TestTabulation:
    def test_one_table_per_block(self, census, tables):
        assert set(tables) == set(census.column("block"))

    def test_totals_match(self, census, tables):
        groups = census.group_by(["block"])
        for block, block_tables in tables.items():
            assert block_tables.total == len(groups[(block,)])

    def test_marginals_are_consistent(self, tables):
        for block_tables in tables.values():
            sex_counts = block_tables.sex_counts()  # raises on inconsistency
            assert sum(sex_counts.values()) == block_tables.total
            assert sum(block_tables.race_by_ethnicity.values()) == block_tables.total

    def test_missing_attribute_rejected(self, census):
        with pytest.raises(ValueError):
            tabulate_blocks(census.drop(["race"]))

    def test_inconsistent_tables_rejected(self):
        with pytest.raises(ValueError):
            BlockTables(
                block=0,
                total=2,
                sex_by_age={("F", 30): 1},  # sums to 1, not 2
                race_by_ethnicity={("White", "Hispanic"): 2},
                sex_by_race={("F", "White"): 2},
            )

    def test_no_identifiers_published(self, tables):
        for block_tables in tables.values():
            assert not hasattr(block_tables, "person_id")


class TestReconstruction:
    def test_solves_consistent_tables(self, census, tables):
        result = reconstruct_census(tables, truth=census)
        assert result.solved_fraction == 1.0

    def test_population_preserved(self, census, tables):
        result = reconstruct_census(tables, truth=census)
        assert result.population == len(census)

    def test_sex_age_always_exact(self, census, tables):
        # The sex_by_age table pins (sex, age) down exactly; reconstructed
        # multisets of (block, sex, age) must match the truth.
        from collections import Counter

        result = reconstruct_census(tables, truth=census)
        reconstructed = Counter((r[0], r[1], r[2]) for r in result.records)
        truth = Counter(
            (int(row["block"]), row["sex"], row["age"]) for row in census
        )
        assert reconstructed == truth

    def test_exact_match_fraction_substantial(self, census, tables):
        result = reconstruct_census(tables, truth=census)
        assert result.exact_match_fraction > 0.3

    def test_scoring_optional(self, tables):
        result = reconstruct_census(tables, truth=None)
        assert all(block.exact_matches == 0 for block in result.blocks)

    def test_rounded_tables_still_reconstruct(self, census, tables):
        rounded = apply_rounding(tables, base=3)
        result = reconstruct_census(rounded, truth=census)
        assert result.population == len(census)

    def test_rounding_validates_base(self, tables):
        with pytest.raises(ValueError):
            apply_rounding(tables, base=1)


class TestReidentification:
    def test_rates_in_range(self, census, tables):
        result = reconstruct_census(tables, truth=census)
        commercial = commercial_database(census, coverage=0.5, rng=1)
        reid = reidentify(result, commercial, census)
        assert 0.0 <= reid.reidentified_rate <= reid.putative_rate <= 1.0
        assert 0.0 <= reid.precision <= 1.0

    def test_confirmed_subset_of_attempted(self, census, tables):
        result = reconstruct_census(tables, truth=census)
        commercial = commercial_database(census, coverage=1.0, rng=2)
        reid = reidentify(result, commercial, census)
        assert reid.confirmed <= reid.attempted <= len(commercial)

    def test_zero_tolerance_is_stricter(self, census, tables):
        result = reconstruct_census(tables, truth=census)
        commercial = commercial_database(census, coverage=1.0, age_error=0, rng=3)
        loose = reidentify(result, commercial, census, age_tolerance=3)
        strict = reidentify(result, commercial, census, age_tolerance=0)
        assert strict.attempted >= loose.attempted  # tighter window -> fewer collisions
