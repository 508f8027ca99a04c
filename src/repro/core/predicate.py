"""First-class predicates ``p : X -> {0,1}`` and their weights.

The paper's attacker outputs a *predicate* over the data universe, and the
PSO definition turns on the predicate's **weight**
``w_D(p) = Pr_{x ~ D}[p(x) = 1]`` (Section 2.2).  Three routes to the
weight are supported, tried in order of exactness:

1. **Exact, structural** — a conjunctive predicate (per-attribute
   allowed-value sets) under a product distribution factorizes into
   marginal probabilities.
2. **Analytic** — hash-based predicates carry a design weight (e.g. the
   threshold of a hash cut, justified by the Leftover Hash Lemma).
3. **Monte Carlo** — anything else is estimated by sampling, with a
   Clopper-Pearson upper bound available for safe negligibility claims.

Conjunction (``p & q``) merges structure when it can (intersecting allowed
sets attribute-wise) so weights stay exact as predicates are refined — the
exact manipulation the Theorem 2.10 attacker performs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, Mapping

import numpy as np

from repro.data.dataset import Dataset, Record
from repro.data.distributions import ProductDistribution
from repro.utils.rng import RngSeed, derive_rng, ensure_rng
from repro.utils.stats import clopper_pearson_interval

#: Structural form: attribute name -> frozenset of allowed raw values.
AttributeConditions = Mapping[str, frozenset]


# -- Monte-Carlo weight-bound cache ------------------------------------------------
#
# Repeated PSO trials against the same adversary keep asking for the weight
# bound of equivalent predicates, and the Monte-Carlo route re-samples
# 4k-20k records every time.  The cache below memoizes that route, keyed by
# predicate identity (its description), distribution identity
# (:meth:`ProductDistribution.cache_token`), and the sampling parameters.
# Cached values are computed with an RNG *derived from the key*, so each
# value is a pure function of its key: serial, threaded, and multi-process
# runs agree bit-for-bit no matter which worker populated the cache first.

_WEIGHT_BOUND_CACHE: OrderedDict[tuple, float] = OrderedDict()
_WEIGHT_BOUND_CACHE_LOCK = threading.Lock()
_WEIGHT_BOUND_CACHE_MAX = 4096
_WEIGHT_BOUND_CACHE_STATS = {"hits": 0, "misses": 0}


def clear_weight_bound_cache() -> None:
    """Empty the Monte-Carlo weight-bound cache and reset its counters."""
    with _WEIGHT_BOUND_CACHE_LOCK:
        _WEIGHT_BOUND_CACHE.clear()
        _WEIGHT_BOUND_CACHE_STATS["hits"] = 0
        _WEIGHT_BOUND_CACHE_STATS["misses"] = 0


def weight_bound_cache_info() -> dict[str, int]:
    """Cache statistics: ``{"hits", "misses", "size"}`` (the cache tests' probe)."""
    with _WEIGHT_BOUND_CACHE_LOCK:
        return {
            "hits": _WEIGHT_BOUND_CACHE_STATS["hits"],
            "misses": _WEIGHT_BOUND_CACHE_STATS["misses"],
            "size": len(_WEIGHT_BOUND_CACHE),
        }


def _cache_get(key: tuple) -> float | None:
    with _WEIGHT_BOUND_CACHE_LOCK:
        value = _WEIGHT_BOUND_CACHE.get(key)
        if value is None:
            _WEIGHT_BOUND_CACHE_STATS["misses"] += 1
            return None
        _WEIGHT_BOUND_CACHE.move_to_end(key)
        _WEIGHT_BOUND_CACHE_STATS["hits"] += 1
        return value


def _cache_put(key: tuple, value: float) -> None:
    with _WEIGHT_BOUND_CACHE_LOCK:
        _WEIGHT_BOUND_CACHE[key] = value
        _WEIGHT_BOUND_CACHE.move_to_end(key)
        while len(_WEIGHT_BOUND_CACHE) > _WEIGHT_BOUND_CACHE_MAX:
            _WEIGHT_BOUND_CACHE.popitem(last=False)


class Predicate:
    """A predicate over records, with optional structure for exact weights.

    Args:
        fn: the membership function (``Record -> bool``).
        description: human-readable rendering for reports.
        conditions: when the predicate is a conjunction of per-attribute
            set-membership tests, the attribute -> allowed-values mapping
            (enables exact weights under product distributions).
        analytic_weight: a *designed* weight for hash-style predicates whose
            exact weight is computationally inaccessible but known by
            construction (Leftover Hash Lemma); treated as exact by
            :meth:`weight_bound` for such predicates.
    """

    def __init__(
        self,
        fn: Callable[[Record], bool],
        description: str,
        conditions: AttributeConditions | None = None,
        analytic_weight: float | None = None,
        components: tuple["Predicate", ...] | None = None,
    ):
        self._fn = fn
        self.description = description
        self.conditions = (
            {name: frozenset(allowed) for name, allowed in conditions.items()}
            if conditions is not None
            else None
        )
        if analytic_weight is not None and not 0.0 <= analytic_weight <= 1.0:
            raise ValueError("analytic_weight must lie in [0, 1]")
        self.analytic_weight = analytic_weight
        #: For conjunctions: the conjuncts, so weight bounds can fall back to
        #: min over components instead of Monte Carlo.
        self.components = components

    def __call__(self, record: Record) -> bool:
        return bool(self._fn(record))

    def match_mask(self, dataset: Dataset) -> np.ndarray:
        """Boolean mask of matching rows — the batched evaluation path.

        Structural predicates evaluate column-wise without building
        :class:`Record` objects; conjunctions narrow the candidate set
        conjunct by conjunct, so expensive opaque conjuncts (hash
        refinements) only ever run on the few rows their structural
        siblings left alive; opaque predicates fall back to the function,
        applied only to still-candidate rows.
        """
        mask = np.ones(len(dataset), dtype=bool)
        self._narrow(dataset, mask)
        return mask

    def _narrow(self, dataset: Dataset, mask: np.ndarray) -> None:
        """Clear mask entries for rows this predicate rejects (in place)."""
        if self.conditions is not None:
            mask &= dataset.conditions_mask(self.conditions)
            return
        if self.components:
            for component in self.components:
                if not mask.any():
                    return
                component._narrow(dataset, mask)
            return
        for index in np.flatnonzero(mask):
            if not self._fn(dataset[int(index)]):
                mask[index] = False

    def __and__(self, other: "Predicate") -> "Predicate":
        """Conjunction; merges structure and analytic weights when sound.

        * two structural predicates merge attribute-wise (intersection);
        * analytic weights multiply — correct when the two predicates are
          independent under ``D`` (hash predicates with distinct salts are,
          by design), and an upper bound regardless of which conjunct is
          looser, so negligibility claims via :meth:`weight_bound` stay
          conservative through :func:`min` in the fallback path.
        """
        merged_conditions: dict[str, frozenset] | None = None
        if self.conditions is not None and other.conditions is not None:
            merged_conditions = dict(self.conditions)
            for name, allowed in other.conditions.items():
                if name in merged_conditions:
                    merged_conditions[name] = merged_conditions[name] & allowed
                else:
                    merged_conditions[name] = allowed

        analytic: float | None = None
        if self.analytic_weight is not None and other.analytic_weight is not None:
            analytic = self.analytic_weight * other.analytic_weight

        return Predicate(
            lambda record: self(record) and other(record),
            f"({self.description}) AND ({other.description})",
            conditions=merged_conditions,
            analytic_weight=analytic,
            components=(self, other),
        )

    # -- weights ------------------------------------------------------------------

    def weight(
        self,
        distribution: ProductDistribution,
        samples: int = 20_000,
        rng: RngSeed = None,
    ) -> float:
        """Best-available point value of ``w_D(p)``.

        Exact for structural predicates under product distributions; the
        analytic weight when one is attached; Monte Carlo otherwise.
        """
        if self.conditions is not None:
            return distribution.conjunction_weight(self.conditions)
        if self.analytic_weight is not None:
            return self.analytic_weight
        return distribution.estimate_weight(self, samples=samples, rng=rng)

    def weight_bound(
        self,
        distribution: ProductDistribution,
        samples: int = 20_000,
        confidence: float = 0.999,
        rng: RngSeed = None,
    ) -> float:
        """A safe *upper bound* on ``w_D(p)`` for negligibility claims.

        Exact and analytic weights are returned as-is; conjunctions without
        merged structure fall back to the minimum over their conjuncts'
        bounds (the paper's own argument: "the weight of p AND p' is bounded
        by the weight of p"); Monte-Carlo weights are replaced by their
        Clopper-Pearson upper confidence bound, so a lucky all-zeros sample
        cannot masquerade as weight zero.

        The Monte-Carlo route is memoized under a key of predicate
        description + distribution identity + sampling parameters, and the
        cached estimate is drawn with a key-derived RNG; ``rng`` only steers
        the computation when the distribution exposes no identity token.
        Key-derived sampling makes each cached value a pure function of its
        key, which is what keeps parallel and serial game runs
        bit-identical.
        """
        if self.conditions is not None:
            return distribution.conjunction_weight(self.conditions)
        if self.analytic_weight is not None:
            return self.analytic_weight
        if self.components:
            return min(
                component.weight_bound(distribution, samples, confidence, rng)
                for component in self.components
            )
        key: tuple | None = None
        distribution_token = getattr(distribution, "cache_token", None)
        if distribution_token is not None:
            key = (self.description, distribution_token, int(samples), float(confidence))
            cached = _cache_get(key)
            if cached is not None:
                return cached
        generator = derive_rng(0, "weight-bound", key) if key is not None else ensure_rng(rng)
        data = distribution.sample(samples, generator)
        successes = data.match_count(self)
        _lower, upper = clopper_pearson_interval(successes, samples, confidence)
        if key is not None:
            _cache_put(key, upper)
        return upper

    def __repr__(self) -> str:
        return f"Predicate({self.description!r})"


def attribute_predicate(name: str, allowed: frozenset | set | list | tuple | Hashable) -> Predicate:
    """The predicate "record's ``name`` lies in ``allowed``".

    ``allowed`` may be a single value or a collection.  Structural, so its
    weight is exact under product distributions.
    """
    if isinstance(allowed, (set, frozenset, list, tuple)):
        allowed_set = frozenset(allowed)
    else:
        allowed_set = frozenset([allowed])
    if not allowed_set:
        raise ValueError("allowed set must be non-empty")
    if len(allowed_set) == 1:
        (value,) = allowed_set
        label = f"{name} = {value!r}"
    else:
        label = f"{name} in {{{', '.join(sorted(repr(v) for v in allowed_set))}}}"
    return Predicate(
        lambda record: record[name] in allowed_set,
        label,
        conditions={name: allowed_set},
    )


def predicate_from_conditions(conditions: AttributeConditions) -> Predicate:
    """Conjunctive predicate from an attribute -> allowed-values mapping."""
    if not conditions:
        raise ValueError("need at least one condition")
    frozen = {name: frozenset(allowed) for name, allowed in conditions.items()}
    for name, allowed in frozen.items():
        if not allowed:
            raise ValueError(f"empty allowed set for attribute {name!r}")
    label = " AND ".join(
        f"{name} in {{{', '.join(sorted(repr(v) for v in allowed))}}}"
        for name, allowed in sorted(frozen.items())
    )
    return Predicate(
        lambda record: all(record[name] in allowed for name, allowed in frozen.items()),
        label,
        conditions=frozen,
    )
