"""Synthetic population microdata — stand-in for the MA GIC / voter-file data.

Sweeney's attack (paper, Section 1) linked the Group Insurance Commission's
"de-identified" medical records to the Cambridge voter registration via the
quasi-identifier triple (ZIP code, birth date, sex).  The real files are not
available, so this module generates a population whose QI joint distribution
has the property the attack depends on: the triple is unique for the vast
majority of individuals while each attribute alone is common.

The generator draws every attribute independently from configurable
marginals, so :func:`population_distribution` can return the *exact*
:class:`~repro.data.distributions.ProductDistribution` the data came from —
which the PSO experiments need for exact predicate weights.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.dataset import Dataset
from repro.data.distributions import AttributeDistribution, ProductDistribution
from repro.data.domain import CategoricalDomain, IntegerDomain
from repro.data.schema import Attribute, AttributeKind, Schema
from repro.utils.rng import RngSeed, ensure_rng

#: Disease taxonomy used for the sensitive attribute: leaf -> parent category.
#: Mirrors the paper's toy example where CF and Asthma generalize to PULM.
DISEASE_PARENTS: dict[str, str] = {
    "COVID": "RESP",
    "Flu": "RESP",
    "Asthma": "PULM",
    "CF": "PULM",
    "COPD": "PULM",
    "Diabetes-1": "ENDO",
    "Diabetes-2": "ENDO",
    "Thyroiditis": "ENDO",
    "Hypertension": "CARDIO",
    "Arrhythmia": "CARDIO",
    "CAD": "CARDIO",
    "Depression": "PSYCH",
    "Anxiety": "PSYCH",
    "RESP": "ANY",
    "PULM": "ANY",
    "ENDO": "ANY",
    "CARDIO": "ANY",
    "PSYCH": "ANY",
}

#: Leaves of the disease taxonomy (the raw sensitive values).
DISEASES: tuple[str, ...] = (
    "COVID",
    "Flu",
    "Asthma",
    "CF",
    "COPD",
    "Diabetes-1",
    "Diabetes-2",
    "Thyroiditis",
    "Hypertension",
    "Arrhythmia",
    "CAD",
    "Depression",
    "Anxiety",
)


@dataclass(frozen=True)
class PopulationConfig:
    """Parameters of the synthetic population.

    Attributes:
        size: number of individuals.
        zip_count: number of distinct 5-digit ZIP codes; population is spread
            over them with a Zipf profile (a few dense urban ZIPs, many
            sparse ones), which matters for uniqueness.
        zip_exponent: Zipf exponent of the ZIP marginal.
        birth_year_range: inclusive (low, high) birth years.
        disease_exponent: Zipf exponent of the disease marginal (common colds
            vs. rare conditions).
    """

    size: int = 10_000
    zip_count: int = 100
    zip_exponent: float = 1.0
    birth_year_range: tuple[int, int] = (1920, 2005)
    disease_exponent: float = 0.8

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("population size must be positive")
        if not 1 <= self.zip_count <= 90_000:
            raise ValueError("zip_count must lie in [1, 90000]")
        low, high = self.birth_year_range
        if low > high:
            raise ValueError("birth_year_range must be non-empty")


#: Quasi-identifier attribute names, in Sweeney's order.
QUASI_IDENTIFIERS: tuple[str, ...] = ("zip", "birth_year", "birth_doy", "sex")


def population_schema(config: PopulationConfig = PopulationConfig()) -> Schema:
    """Schema of the synthetic population.

    ``name`` is the direct identifier; (``zip``, ``birth_year``,
    ``birth_doy``, ``sex``) are the quasi-identifiers (birth date is split
    into year and day-of-year so integer hierarchies apply); ``disease`` is
    sensitive.
    """
    zips = _zip_domain(config.zip_count)
    low, high = config.birth_year_range
    return Schema(
        [
            Attribute("name", _name_domain(config.size), AttributeKind.IDENTIFIER),
            Attribute("zip", zips, AttributeKind.QUASI_IDENTIFIER),
            Attribute("birth_year", IntegerDomain(low, high), AttributeKind.QUASI_IDENTIFIER),
            Attribute("birth_doy", IntegerDomain(1, 365), AttributeKind.QUASI_IDENTIFIER),
            Attribute("sex", CategoricalDomain(["F", "M"]), AttributeKind.QUASI_IDENTIFIER),
            Attribute("disease", CategoricalDomain(DISEASES), AttributeKind.SENSITIVE),
        ]
    )


def population_distribution(config: PopulationConfig = PopulationConfig()) -> ProductDistribution:
    """The exact product distribution the generator samples from.

    The ``name`` marginal is uniform over the synthetic name universe; all
    other marginals match :func:`generate_population`.
    """
    schema = population_schema(config)
    marginals = {
        "name": AttributeDistribution.uniform(schema.attribute("name").domain),
        "zip": AttributeDistribution.zipf(schema.attribute("zip").domain, config.zip_exponent),
        "birth_year": AttributeDistribution.uniform(schema.attribute("birth_year").domain),
        "birth_doy": AttributeDistribution.uniform(schema.attribute("birth_doy").domain),
        "sex": AttributeDistribution.uniform(schema.attribute("sex").domain),
        "disease": AttributeDistribution.zipf(
            schema.attribute("disease").domain, config.disease_exponent
        ),
    }
    return ProductDistribution(schema, marginals)


def generate_population(
    config: PopulationConfig = PopulationConfig(), rng: RngSeed = None
) -> Dataset:
    """Sample a synthetic population of ``config.size`` individuals.

    Names are assigned as a random permutation of the name universe (each
    person gets a distinct name) — identity is exact, as in a voter file.
    """
    generator = ensure_rng(rng)
    distribution = population_distribution(config)
    sampled = distribution.sample(config.size, generator)
    # Replace the i.i.d.-sampled names with distinct ones: real identities
    # are unique even when everything else collides.
    name_domain = population_schema(config).attribute("name").domain
    names = list(name_domain)
    generator.shuffle(names)
    name_index = sampled.schema.index_of("name")
    rows = []
    for i, row in enumerate(sampled.rows):
        row = list(row)
        row[name_index] = names[i]
        rows.append(tuple(row))
    return Dataset(sampled.schema, rows, validate=False)


def gic_release(population: Dataset) -> Dataset:
    """The GIC-style "anonymized" release: direct identifiers redacted.

    This reproduces exactly the (failed) disclosure-limitation step the paper
    describes: names are removed, quasi-identifiers and the diagnosis stay.
    """
    return population.drop(list(population.schema.identifiers))


def voter_registry(
    population: Dataset, coverage: float = 0.8, rng: RngSeed = None
) -> Dataset:
    """The public identified dataset (Cambridge voter registration stand-in).

    Contains name plus the quasi-identifiers for a random ``coverage``
    fraction of the population — voters are a subset of residents.
    """
    if not 0.0 < coverage <= 1.0:
        raise ValueError(f"coverage must lie in (0, 1], got {coverage}")
    generator = ensure_rng(rng)
    keep = ["name", *QUASI_IDENTIFIERS]
    projected = population.project(keep)
    count = max(1, round(coverage * len(projected)))
    indices = generator.choice(len(projected), size=count, replace=False)
    rows = [projected.rows[i] for i in sorted(indices)]
    return Dataset(projected.schema, rows, validate=False)


def _zip_domain(zip_count: int) -> CategoricalDomain:
    """``zip_count`` synthetic 5-digit ZIP codes starting at 10000."""
    return CategoricalDomain([f"{10000 + i:05d}" for i in range(zip_count)])


def _name_domain(size: int) -> CategoricalDomain:
    """A universe of ``2 * size`` synthetic person names ("P000042")."""
    return CategoricalDomain([f"P{i:06d}" for i in range(2 * size)])
