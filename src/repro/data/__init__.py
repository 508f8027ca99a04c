"""Tabular microdata substrate.

The paper's attacks all operate on datasets ``x = (x_1, ..., x_n)`` of
records drawn from a data domain ``X``.  This subpackage provides that
substrate: typed attribute domains, schemas, an immutable :class:`Dataset`,
product data distributions (the i.i.d. data-generation model of Section 2.2),
generalized (k-anonymized) releases, and synthetic generators that
stand in for the paper's unavailable datasets (GIC medical records, Netflix
ratings, Census microdata — see DESIGN.md section 2).  The social-graph
generator is imported by its full path, :mod:`repro.data.socialgraph`, so
``import repro`` does not load networkx.
"""

from repro.data.censusblocks import CensusConfig, commercial_database, generate_census
from repro.data.dataset import Dataset, Record
from repro.data.distributions import (
    AttributeDistribution,
    ProductDistribution,
    uniform_bits_distribution,
    uniform_bits_schema,
)
from repro.data.generalized import GeneralizedDataset, GeneralizedRecord
from repro.data.genomes import GenomePanel, GenomePanelConfig
from repro.data.population import (
    PopulationConfig,
    generate_population,
    gic_release,
    population_distribution,
    voter_registry,
)
from repro.data.ratings import RatingsConfig, RatingsData, generate_ratings
from repro.data.domain import (
    CategoricalDomain,
    Domain,
    IntegerDomain,
)
from repro.data.schema import Attribute, AttributeKind, Schema

__all__ = [
    "Attribute",
    "AttributeDistribution",
    "AttributeKind",
    "CategoricalDomain",
    "CensusConfig",
    "Dataset",
    "Domain",
    "GeneralizedDataset",
    "GeneralizedRecord",
    "GenomePanel",
    "GenomePanelConfig",
    "IntegerDomain",
    "PopulationConfig",
    "ProductDistribution",
    "RatingsConfig",
    "RatingsData",
    "Record",
    "Schema",
    "commercial_database",
    "generate_census",
    "generate_population",
    "generate_ratings",
    "gic_release",
    "population_distribution",
    "uniform_bits_distribution",
    "uniform_bits_schema",
    "voter_registry",
]
