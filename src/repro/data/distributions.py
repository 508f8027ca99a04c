"""Data distributions: the ``D`` of the paper's PSO game.

Section 2.2 of the paper models data generation as i.i.d. sampling from a
fixed distribution over the data universe, ``x ~ D^n``.  The workhorse here
is :class:`ProductDistribution` — independent per-attribute marginals — which
supports *exact* predicate-weight computation for structured predicates and
min-entropy bookkeeping (needed for the Leftover-Hash-Lemma predicate
constructions).
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from repro.data.dataset import Dataset, Record
from repro.data.domain import Domain, IntegerDomain
from repro.data.schema import Schema
from repro.utils.rng import RngSeed, ensure_rng


class AttributeDistribution:
    """A distribution over one attribute's domain.

    Stores explicit probabilities per domain value; helpers build uniform and
    Zipf-shaped instances.  Probabilities must sum to 1 (within tolerance).
    """

    def __init__(self, domain: Domain, probabilities: Mapping[Hashable, float]):
        self.domain = domain
        values = list(domain)
        missing = [v for v in values if v not in probabilities]
        if missing:
            raise ValueError(f"missing probabilities for values: {missing[:5]}")
        extra = [v for v in probabilities if v not in domain]
        if extra:
            raise ValueError(f"probabilities given for non-domain values: {extra[:5]}")
        probs = np.array([probabilities[v] for v in values], dtype=float)
        if np.any(probs < 0):
            raise ValueError("probabilities must be non-negative")
        total = float(probs.sum())
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"probabilities must sum to 1, got {total}")
        self._values: list[Hashable] = values
        self._probs = probs

    # -- construction ----------------------------------------------------------

    @classmethod
    def uniform(cls, domain: Domain) -> "AttributeDistribution":
        """The uniform distribution over ``domain``."""
        values = list(domain)
        p = 1.0 / len(values)
        return cls(domain, {v: p for v in values})

    @classmethod
    def zipf(cls, domain: Domain, exponent: float = 1.0) -> "AttributeDistribution":
        """A Zipf-shaped distribution (rank ``r`` gets weight ``r**-exponent``).

        Long-tailed marginals are what make quasi-identifier combinations
        unique in practice; the population generator uses these.
        """
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        values = list(domain)
        weights = np.array([(rank + 1.0) ** (-exponent) for rank in range(len(values))])
        weights /= weights.sum()
        return cls(domain, dict(zip(values, weights)))

    # -- queries ---------------------------------------------------------------

    def probability(self, value: Hashable) -> float:
        """P(attribute = value); 0 for values outside the domain."""
        try:
            index = self._values.index(value)
        except ValueError:
            return 0.0
        return float(self._probs[index])

    def probability_of_set(self, values: Callable[[Hashable], bool] | set) -> float:
        """P(attribute in values); accepts a set or a membership callable."""
        if isinstance(values, (set, frozenset)):
            member = values.__contains__
        else:
            member = values
        return float(sum(p for v, p in zip(self._values, self._probs) if member(v)))

    def min_entropy(self) -> float:
        """Min-entropy ``-log2(max_v P(v))`` in bits."""
        return float(-np.log2(self._probs.max()))

    def sample(self, size: int, rng: RngSeed = None) -> list[Hashable]:
        """Draw ``size`` i.i.d. values."""
        generator = ensure_rng(rng)
        indices = generator.choice(len(self._values), size=size, p=self._probs)
        return [self._values[i] for i in indices]

    @property
    def support(self) -> list[Hashable]:
        """Values with non-zero probability."""
        return [v for v, p in zip(self._values, self._probs) if p > 0]

    def __repr__(self) -> str:
        return f"AttributeDistribution(domain={self.domain!r})"


class ProductDistribution:
    """Independent per-attribute marginals over a schema — the paper's ``D``.

    Record ``x = (x[a1], ..., x[ak])`` has each field drawn independently
    from its marginal.  Exactness matters: for conjunctive predicates the
    weight ``w_D(p) = Pr_{x~D}[p(x)=1]`` factors into per-attribute
    probabilities, which :meth:`conjunction_weight` computes in closed form —
    no Monte Carlo error in the experiments that rely on it.
    """

    def __init__(self, schema: Schema, marginals: Mapping[str, AttributeDistribution]):
        missing = [name for name in schema.names if name not in marginals]
        if missing:
            raise ValueError(f"missing marginals for attributes: {missing}")
        for name in schema.names:
            if marginals[name].domain != schema.attribute(name).domain:
                raise ValueError(f"marginal for {name!r} is over the wrong domain")
        self.schema = schema
        self.marginals = {name: marginals[name] for name in schema.names}
        self._cache_token: tuple | None = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def uniform(cls, schema: Schema) -> "ProductDistribution":
        """Uniform marginals on every attribute."""
        return cls(
            schema,
            {name: AttributeDistribution.uniform(schema.attribute(name).domain) for name in schema.names},
        )

    @property
    def cache_token(self) -> tuple:
        """A hashable identity token: schema names + full marginal tables.

        Two ``ProductDistribution`` instances with identical marginals get
        identical tokens, so caches keyed by this token (the Monte-Carlo
        weight-bound cache in :mod:`repro.core.predicate`) deduplicate
        across instances while distinct distributions can never collide.
        Computed once per instance and memoized.
        """
        if self._cache_token is None:
            self._cache_token = tuple(
                (
                    name,
                    tuple(self.marginals[name]._values),
                    tuple(float(p) for p in self.marginals[name]._probs),
                )
                for name in self.schema.names
            )
        return self._cache_token

    # -- sampling ----------------------------------------------------------------

    def sample(self, n: int, rng: RngSeed = None) -> Dataset:
        """Draw a dataset ``x ~ D^n``."""
        if n < 0:
            raise ValueError("n must be non-negative")
        generator = ensure_rng(rng)
        columns = {name: self.marginals[name].sample(n, generator) for name in self.schema.names}
        records = (
            tuple(columns[name][i] for name in self.schema.names) for i in range(n)
        )
        return Dataset(self.schema, records, validate=False)

    # -- probabilities -------------------------------------------------------------

    def record_probability(self, record: Record | Sequence[object]) -> float:
        """P(x = record) under the product measure."""
        values = record.values if isinstance(record, Record) else tuple(record)
        probability = 1.0
        for name, value in zip(self.schema.names, values):
            probability *= self.marginals[name].probability(value)
        return probability

    def conjunction_weight(self, conditions: Mapping[str, set | Callable[[Hashable], bool]]) -> float:
        """Exact weight of a conjunctive predicate.

        ``conditions`` maps attribute names to allowed-value sets (or
        membership callables); attributes not mentioned are unconstrained.
        The weight is the product of the per-attribute set probabilities —
        exact because the marginals are independent.
        """
        unknown = [name for name in conditions if name not in self.schema]
        if unknown:
            raise KeyError(f"conditions reference unknown attributes: {unknown}")
        weight = 1.0
        for name, allowed in conditions.items():
            weight *= self.marginals[name].probability_of_set(allowed)
        return weight

    def estimate_weight(
        self,
        predicate: Callable[[Record], bool],
        samples: int = 20_000,
        rng: RngSeed = None,
    ) -> float:
        """Monte-Carlo weight estimate for arbitrary predicates."""
        if samples <= 0:
            raise ValueError("samples must be positive")
        generator = ensure_rng(rng)
        data = self.sample(samples, generator)
        return data.match_count(predicate) / samples

    def min_entropy(self) -> float:
        """Min-entropy of a full record, in bits (sum of marginal min-entropies).

        This is the resource the Leftover Hash Lemma consumes when building
        negligible-weight predicates (paper, Section 2.2 and footnote 12).
        """
        return sum(marginal.min_entropy() for marginal in self.marginals.values())

    def __repr__(self) -> str:
        return f"ProductDistribution(schema={self.schema.names})"


def uniform_bits_schema(width: int, prefix: str = "b") -> Schema:
    """A schema of ``width`` binary attributes (a {0,1}^d record domain)."""
    from repro.data.schema import Attribute, AttributeKind

    if width <= 0:
        raise ValueError("width must be positive")
    return Schema(
        [
            Attribute(f"{prefix}{i}", IntegerDomain(0, 1), AttributeKind.QUASI_IDENTIFIER)
            for i in range(width)
        ]
    )


def uniform_bits_distribution(width: int, prefix: str = "b") -> ProductDistribution:
    """Uniform distribution over {0,1}^width — min-entropy = width bits.

    The workhorse data model for PSO experiments: wide enough that
    hash-based predicates achieve their analytic weights (Leftover Hash
    Lemma regime) and that within-class attribute agreement makes
    k-anonymized class predicates negligible (Theorem 2.10's "typical
    dataset ... many more attributes" setting).
    """
    return ProductDistribution.uniform(uniform_bits_schema(width, prefix))
