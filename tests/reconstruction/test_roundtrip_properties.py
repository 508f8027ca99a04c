"""Property-based tests on the census tabulate -> reconstruct roundtrip."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.censusblocks import CensusConfig, generate_census
from repro.reconstruction.census_solver import reconstruct_census
from repro.reconstruction.tabulation import tabulate_blocks


@given(seed=st.integers(0, 200), mean_size=st.integers(3, 20))
@settings(max_examples=15, deadline=None)
def test_sex_age_marginal_always_recovered(seed, mean_size):
    """The sex-by-age table is published exactly, so its joint is always
    reconstructed exactly, whatever the blocks look like."""
    from collections import Counter

    census = generate_census(
        CensusConfig(blocks=4, mean_block_size=mean_size), rng=seed
    )
    tables = tabulate_blocks(census)
    result = reconstruct_census(tables, truth=census)
    reconstructed = Counter((r[0], r[1], r[2]) for r in result.records)
    truth = Counter((int(row["block"]), row["sex"], row["age"]) for row in census)
    assert reconstructed == truth


@given(seed=st.integers(0, 200))
@settings(max_examples=15, deadline=None)
def test_population_and_block_structure_preserved(seed):
    census = generate_census(CensusConfig(blocks=5, mean_block_size=8), rng=seed)
    tables = tabulate_blocks(census)
    result = reconstruct_census(tables, truth=census)
    assert result.population == len(census)
    # Per block, the reconstructed head-count equals the published total.
    for block in result.blocks:
        assert block.population == tables[block.block].total


@given(seed=st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_exact_matches_bounded_by_population(seed):
    census = generate_census(CensusConfig(blocks=4, mean_block_size=10), rng=seed)
    tables = tabulate_blocks(census)
    result = reconstruct_census(tables, truth=census)
    assert 0.0 <= result.exact_match_fraction <= 1.0
    for block in result.blocks:
        assert 0 <= block.exact_matches <= block.population


@given(seed=st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_race_marginal_preserved_when_solved(seed):
    """When the MILP solve succeeds, the race x ethnicity marginal of the
    reconstruction equals the published table."""
    from collections import Counter

    census = generate_census(CensusConfig(blocks=4, mean_block_size=8), rng=seed)
    tables = tabulate_blocks(census)
    result = reconstruct_census(tables, truth=census)
    for block in result.blocks:
        if not block.solved:
            continue
        reconstructed = Counter((r[3], r[4]) for r in block.records)
        assert reconstructed == Counter(
            {k: v for k, v in tables[block.block].race_by_ethnicity.items() if v}
        )
