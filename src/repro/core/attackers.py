"""PSO adversaries.

The cast, in order of appearance in the paper:

* :class:`TrivialAttacker` — Section 2.2's data-independent attacker (the
  birthday example): a fresh weight-``w`` hash predicate, no look at the
  output.  At ``w = 1/n`` it isolates ~37% of the time but *fails* the
  weight condition; at negligible ``w`` it passes the weight condition but
  isolates with negligible probability.  Definition 2.4 is calibrated so
  this attacker never wins — which the games verify.
* :class:`IdentityAttacker` — a sanity-check adversary for the raw-data
  release: reads a unique record straight out of the output.
* :class:`CompositionAttacker` — the Theorem 2.8 adversary: from the
  counts of a fixed (data-independent) family of hash-threshold and
  hash-bit queries, it learns enough bits of one record to isolate it with
  a negligible-weight predicate.
* :class:`KAnonymityPSOAttacker` — the Theorem 2.10 adversary: turns an
  equivalence class of the k-anonymized release into an exact-weight
  conjunctive predicate and refines it with a weight-``1/k'`` hash cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.leftover_hash import (
    hash_bit_equals_predicate,
    hash_bit_predicate,
    hash_threshold_predicate,
)
from repro.core.mechanisms import ComposedMechanism, CountMechanism
from repro.core.predicate import Predicate, predicate_from_conditions
from repro.core.pso import PSOContext
from repro.data.dataset import Dataset
from repro.data.generalized import GeneralizedDataset
from repro.utils.negligible import NEGLIGIBLE_EXPONENT


def _fresh_salt(prefix: str, rng: np.random.Generator) -> str:
    """A per-attack salt so repeated trials use independent hash functions."""
    return f"{prefix}-{int(rng.integers(0, 2**62)):x}"


class TrivialAttacker:
    """The data-independent attacker of Section 2.2.

    Args:
        weight: the target predicate weight.  ``"optimal"`` uses ``1/n``
            (maximizes isolation probability, ~37%, but is not negligible);
            ``"negligible"`` uses the game's weight threshold (passes the
            weight test but almost never isolates); a float uses that value.
    """

    def __init__(self, weight: float | str = "optimal"):
        if isinstance(weight, str) and weight not in ("optimal", "negligible"):
            raise ValueError(f"unknown weight preset: {weight!r}")
        if isinstance(weight, float) and not 0.0 < weight <= 1.0:
            raise ValueError(f"weight must lie in (0, 1], got {weight}")
        self.weight = weight

    @property
    def name(self) -> str:
        return f"trivial(w={self.weight})"

    def attack(self, output: object, context: PSOContext, rng) -> Predicate:
        """Ignore the output; emit a fresh hash predicate of the target weight."""
        if self.weight == "optimal":
            target = 1.0 / context.n
        elif self.weight == "negligible":
            target = context.weight_threshold
        else:
            target = float(self.weight)
        return hash_threshold_predicate(_fresh_salt("trivial", rng), target)


class IdentityAttacker:
    """Reads a unique record out of a raw-data release (sanity check).

    Wins almost surely against :class:`~repro.core.mechanisms.IdentityMechanism`
    on any distribution without heavy atoms: pick a record unique in the
    data, output the conjunction of all its attribute values.
    """

    @property
    def name(self) -> str:
        return "identity-reader"

    def attack(self, output: object, context: PSOContext, rng) -> Predicate | None:
        if not isinstance(output, Dataset):
            return None
        counts: dict[tuple, int] = {}
        for row in output.rows:
            counts[row] = counts.get(row, 0) + 1
        for row, multiplicity in counts.items():
            if multiplicity == 1:
                conditions = {
                    name: frozenset([value])
                    for name, value in zip(output.schema.names, row)
                }
                return predicate_from_conditions(conditions)
        return None


class CountExploitingAttacker:
    """A best-effort adversary against single-count releases (Theorem 2.5).

    Theorem 2.5 quantifies over *all* adversaries; games can only sample
    some.  This one actually uses the output: it folds the released count
    into its hash salt, so the emitted negligible-weight predicate is a
    genuine function of ``y = M(x)``.  Information-theoretically a single
    count carries ~log n bits about which records exist — not enough to
    point a negligible-weight predicate at one of them, which is exactly
    what the game shows: this attacker does no better than the trivial one.
    """

    def __init__(self, weight: str = "negligible"):
        if weight not in ("negligible", "optimal"):
            raise ValueError(f"unknown weight preset: {weight!r}")
        self.weight = weight

    @property
    def name(self) -> str:
        return f"count-exploiting(w={self.weight})"

    def attack(self, output: object, context: PSOContext, rng) -> Predicate:
        target = (
            context.weight_threshold
            if self.weight == "negligible"
            else 1.0 / context.n
        )
        salt = f"count-exploit-{output!r}-{_fresh_salt('ce', rng)}"
        return hash_threshold_predicate(salt, target)


@dataclass(frozen=True)
class CompositionSuite:
    """A matched (mechanism, adversary) pair for the Theorem 2.8 attack.

    ``mechanism`` composes ``num_counts`` individual count mechanisms —
    each of which, standing alone, prevents PSO by Theorem 2.5.
    """

    mechanism: ComposedMechanism
    adversary: "CompositionAttacker"

    @property
    def num_counts(self) -> int:
        """Number of composed count mechanisms (the theorem's l)."""
        return len(self.mechanism)


class CompositionAttacker:
    """The Theorem 2.8 adversary (see :func:`build_composition_suite`).

    Strategy: the published counts include, for a shared hash ``h`` and a
    geometric ladder of thresholds ``t_0 < t_1 < ...``, the counts
    ``c_j = #{i : h(x_i) < t_j}``.  The attacker finds a level with
    ``c_j = 1`` — there is one with constant probability, because the
    ladder brackets the minimum hash value — at which point exactly one
    (unknown) record sits below ``t_j``.  The remaining counts
    ``#{i : h(x_i) < t_j and g_b(x_i) = 1}`` then equal that record's
    ``g_b`` bits, and the conjunction "h(x) < t_j and g matches those
    bits" isolates it with analytic weight ``t_j * 2^-B`` — negligible.
    """

    def __init__(self, salt: str, thresholds: tuple[float, ...], bits: int):
        if not thresholds:
            raise ValueError("need at least one threshold level")
        if list(thresholds) != sorted(thresholds):
            raise ValueError("thresholds must be ascending")
        if bits <= 0:
            raise ValueError("bits must be positive")
        self.salt = salt
        self.thresholds = thresholds
        self.bits = bits

    @property
    def name(self) -> str:
        return f"composition(L={len(self.thresholds)}, B={self.bits})"

    def attack(self, output: object, context: PSOContext, rng) -> Predicate | None:
        if not isinstance(output, tuple):
            return None
        levels = len(self.thresholds)
        expected = levels + levels * self.bits
        if len(output) != expected:
            return None
        counts = np.asarray(output)
        hits = np.flatnonzero(counts[:levels] == 1)
        if hits.size == 0:
            return None
        target_level = int(hits[0])
        predicate = hash_threshold_predicate(
            f"{self.salt}-h", self.thresholds[target_level]
        )
        offset = levels + target_level * self.bits
        bit_values = (counts[offset : offset + self.bits] >= 1).astype(int)
        for bit, value in enumerate(bit_values):
            predicate = predicate & hash_bit_equals_predicate(
                f"{self.salt}-g{bit}", 0, int(value)
            )
        return predicate


# The hash salt every Theorem 2.8 suite's queries and adversary share.
COMPOSITION_SALT = "thm2.8"


def build_composition_suite(n: int) -> CompositionSuite:
    """Construct the Theorem 2.8 counterexample for dataset size ``n``.

    Returns ``l = L * (1 + B)`` count mechanisms with
    ``L ~ log2(n)`` threshold levels and ``B ~ 2 log2(n)`` bit probes —
    ``omega(log n)`` mechanisms, matching the theorem — plus the adversary
    that exploits their composition.
    """
    if n <= 1:
        raise ValueError("n must exceed 1")
    levels = max(2, math.ceil(math.log2(8 * n)))
    thresholds = tuple(min(0.5, (2.0**j) / (8.0 * n)) for j in range(levels))
    bits = math.ceil(NEGLIGIBLE_EXPONENT * math.log2(n)) + 4

    threshold_queries = [
        hash_threshold_predicate(f"{COMPOSITION_SALT}-h", threshold) for threshold in thresholds
    ]
    # The bit probes conjoin each level's threshold predicate with a shared
    # bank of hash-bit predicates; both factors are built once and reused
    # rather than re-derived per (level, bit) pair.
    bit_predicates = [hash_bit_predicate(f"{COMPOSITION_SALT}-g{bit}", 0) for bit in range(bits)]
    queries = list(threshold_queries)
    for base in threshold_queries:
        queries.extend(base & bit_predicate for bit_predicate in bit_predicates)

    mechanism = ComposedMechanism([CountMechanism(query) for query in queries])
    adversary = CompositionAttacker(salt=COMPOSITION_SALT, thresholds=thresholds, bits=bits)
    return CompositionSuite(mechanism=mechanism, adversary=adversary)


class KAnonymityPSOAttacker:
    """The Theorem 2.10 adversary against k-anonymized releases.

    Modes:

    * ``"refine"`` — the paper's attack verbatim: choose an equivalence
      class (released rows identical on every attribute) whose conjunctive
      predicate ``p`` has negligible exact weight and ``k' >= 2`` members,
      and output ``p AND p'`` for a fresh hash predicate ``p'`` of weight
      ``1/k'``.  Succeeds with probability ``(1 - 1/k')^(k'-1) ~ 37%``.
    * ``"singleton"`` — the Cohen-strengthened variant [12]: when a
      negligible-weight class has exactly one member, its predicate already
      isolates; success approaches 100%.
    * ``"auto"`` (default) — singleton when available, refine otherwise.
    """

    def __init__(self, mode: str = "auto"):
        if mode not in ("auto", "refine", "singleton"):
            raise ValueError(f"unknown mode: {mode!r}")
        self.mode = mode

    @property
    def name(self) -> str:
        return f"kanon-pso({self.mode})"

    def attack(self, output: object, context: PSOContext, rng) -> Predicate | None:
        if not isinstance(output, GeneralizedDataset) or len(output) == 0:
            return None
        schema = output.schema
        candidates = []  # (weight, class_size, conditions)
        for key, indices in output.equivalence_classes().items():
            conditions = {
                name: frozenset(value.covers)
                for name, value in zip(schema.names, key)
            }
            weight = context.distribution.conjunction_weight(conditions)
            candidates.append((weight, len(indices), conditions))
        if not candidates:
            return None

        eligible = [c for c in candidates if c[0] <= context.weight_threshold]
        pool = eligible or candidates  # degrade honestly when nothing qualifies
        singletons = [c for c in pool if c[1] == 1]
        multis = [c for c in pool if c[1] >= 2]

        if self.mode == "singleton" or (self.mode == "auto" and singletons):
            if not singletons:
                return None
            weight, _size, conditions = min(singletons, key=lambda c: c[0])
            return predicate_from_conditions(conditions)

        if not multis:
            return None
        # Largest class: its refinement success (1 - 1/k')^(k'-1) is closest
        # to the paper's asymptotic 1/e; ties broken by smaller weight.
        weight, class_size, conditions = max(multis, key=lambda c: (c[1], -c[0]))
        class_predicate = predicate_from_conditions(conditions)
        refinement = hash_threshold_predicate(
            _fresh_salt("kanon-refine", rng), 1.0 / class_size
        )
        return class_predicate & refinement
