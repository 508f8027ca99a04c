"""Social-graph de-anonymization (Backstrom-Dwork-Kleinberg [10]).

Two attacks on a naively anonymized (identity-stripped) social network:

* **passive** — :func:`degree_signature_uniqueness`: how many members are
  already unique given only their degree and their neighbors' degrees?  No
  planting, no auxiliary data — pure structure.
* **active** ("wherefore art thou R3579X?") — before the release, the
  attacker creates ``k`` sybil accounts wired together with a *random
  internal pattern* (unique in the graph w.h.p. once ``k = Theta(log n)``)
  and befriends each target through a distinct pair of sybils.  After the
  release the attacker re-locates the sybil subgraph by structural search
  and reads the targets off as the unique common neighbors of their sybil
  pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import networkx as nx

from repro.utils.rng import RngSeed, ensure_rng


def degree_signature_uniqueness(graph: nx.Graph) -> float:
    """Fraction of nodes unique by (degree, sorted neighbor degrees).

    The passive measure: a node whose 1-neighborhood degree signature is
    unique is re-identifiable by anyone who knows that much about them —
    the graph analogue of Sweeney's quasi-identifier uniqueness.
    """
    if graph.number_of_nodes() == 0:
        raise ValueError("empty graph")
    signatures: dict[tuple, int] = {}
    for node in graph.nodes():
        signature = (
            graph.degree(node),
            tuple(sorted(graph.degree(neighbor) for neighbor in graph.neighbors(node))),
        )
        signatures[signature] = signatures.get(signature, 0) + 1
    unique = sum(
        1
        for node in graph.nodes()
        if signatures[
            (
                graph.degree(node),
                tuple(
                    sorted(graph.degree(neighbor) for neighbor in graph.neighbors(node))
                ),
            )
        ]
        == 1
    )
    return unique / graph.number_of_nodes()


@dataclass(frozen=True)
class SybilPlan:
    """What the attacker planted before the release.

    Attributes:
        sybils: the sybil node ids (in the pre-release graph).
        internal_edges: the random pattern wired among the sybils.
        target_pairs: target node -> the distinct sybil pair befriending it.
    """

    sybils: tuple[int, ...]
    internal_edges: tuple[tuple[int, int], ...]
    target_pairs: dict[int, tuple[int, int]]


def plant_sybils(
    graph: nx.Graph,
    targets: Sequence[int],
    num_sybils: int,
    rng: RngSeed = None,
) -> SybilPlan:
    """Mutate ``graph``: add the sybil subgraph and befriend the targets.

    Internal wiring: a path (for connectedness) plus each remaining pair
    independently with probability 1/2 — the random pattern whose
    uniqueness the recovery relies on.  Each target is linked to a distinct
    pair of sybils, so ``num_sybils`` supports up to ``C(k, 2)`` targets.
    """
    if num_sybils < 2:
        raise ValueError("need at least two sybils")
    available_pairs = list(combinations(range(num_sybils), 2))
    if len(targets) > len(available_pairs):
        raise ValueError(
            f"{num_sybils} sybils support at most {len(available_pairs)} targets"
        )
    if len(set(targets)) != len(targets):
        raise ValueError("targets must be distinct")
    for target in targets:
        if target not in graph:
            raise ValueError(f"target {target} not in the graph")

    generator = ensure_rng(rng)
    base = max(graph.nodes()) + 1
    sybils = tuple(base + i for i in range(num_sybils))
    graph.add_nodes_from(sybils)

    internal: list[tuple[int, int]] = []
    for i in range(num_sybils - 1):  # the connectivity path
        internal.append((sybils[i], sybils[i + 1]))
    for i, j in combinations(range(num_sybils), 2):
        if j != i + 1 and generator.random() < 0.5:
            internal.append((sybils[i], sybils[j]))
    graph.add_edges_from(internal)

    pair_indices = generator.choice(len(available_pairs), size=len(targets), replace=False)
    target_pairs = {}
    for target, pair_index in zip(targets, pair_indices):
        i, j = available_pairs[int(pair_index)]
        graph.add_edge(target, sybils[i])
        graph.add_edge(target, sybils[j])
        target_pairs[target] = (sybils[i], sybils[j])
    return SybilPlan(
        sybils=sybils, internal_edges=tuple(internal), target_pairs=target_pairs
    )


def locate_sybils(
    released: nx.Graph,
    plan: SybilPlan,
    planted_graph: nx.Graph,
    max_embeddings: int = 2,
) -> list[dict[int, int]]:
    """Find embeddings of the sybil subgraph in the released graph.

    The attacker knows each sybil's full degree and the internal adjacency
    pattern (it created both).  The search anchors on degree-matching
    candidates for the first sybil and extends along the pattern with
    degree and adjacency/non-adjacency constraints — BDK's tree search.
    Returns up to ``max_embeddings`` embeddings (sybil -> released label);
    more than one means the pattern was ambiguous and the attack fails.
    """
    k = len(plan.sybils)
    degrees = [planted_graph.degree(s) for s in plan.sybils]
    internal = {frozenset(edge) for edge in plan.internal_edges}

    def consistent(assignment: list[int], candidate: int, position: int) -> bool:
        if released.degree(candidate) != degrees[position]:
            return False
        for previous in range(position):
            should_link = frozenset(
                (plan.sybils[previous], plan.sybils[position])
            ) in internal
            is_linked = released.has_edge(assignment[previous], candidate)
            if should_link != is_linked:
                return False
        return True

    embeddings: list[dict[int, int]] = []

    def extend(assignment: list[int]) -> None:
        if len(embeddings) >= max_embeddings:
            return
        position = len(assignment)
        if position == k:
            embeddings.append(dict(zip(plan.sybils, assignment)))
            return
        # Candidates: neighbors of the previous path node (the path edge
        # (position-1, position) is always internal), or all degree-matching
        # nodes for the anchor.
        if position == 0:
            candidates = [
                node for node in released.nodes() if released.degree(node) == degrees[0]
            ]
        else:
            candidates = list(released.neighbors(assignment[position - 1]))
        for candidate in candidates:
            if candidate in assignment:
                continue
            if consistent(assignment, candidate, position):
                extend(assignment + [candidate])

    extend([])
    return embeddings


@dataclass(frozen=True)
class GraphAttackResult:
    """Outcome of the active attack.

    Attributes:
        located: whether the sybil subgraph was found uniquely.
        targets: number of targets planted.
        reidentified: targets whose released label was correctly recovered.
    """

    located: bool
    targets: int
    reidentified: int

    def __str__(self) -> str:
        status = "located" if self.located else "NOT located (ambiguous/absent)"
        return (
            f"GraphAttackResult: sybils {status}; "
            f"{self.reidentified}/{self.targets} targets re-identified"
        )


def active_attack(
    graph: nx.Graph,
    targets: Sequence[int],
    num_sybils: int,
    rng: RngSeed = None,
) -> GraphAttackResult:
    """Run the full BDK active attack end to end.

    Plants sybils into a copy of ``graph``, anonymizes the result, locates
    the pattern, and recovers each target as the unique common neighbor of
    its sybil pair (excluding sybils).  Scored against the hidden identity
    map.
    """
    from repro.data.socialgraph import anonymize_graph

    generator = ensure_rng(rng)
    planted = graph.copy()
    plan = plant_sybils(planted, targets, num_sybils, generator)
    released, identity = anonymize_graph(planted, generator)

    embeddings = locate_sybils(released, plan, planted)
    if len(embeddings) != 1:
        return GraphAttackResult(located=False, targets=len(targets), reidentified=0)
    embedding = embeddings[0]

    sybil_labels = set(embedding.values())
    reidentified = 0
    for target, (sybil_a, sybil_b) in plan.target_pairs.items():
        neighbors_a = set(released.neighbors(embedding[sybil_a]))
        neighbors_b = set(released.neighbors(embedding[sybil_b]))
        candidates = (neighbors_a & neighbors_b) - sybil_labels
        if len(candidates) == 1 and candidates.pop() == identity[target]:
            reidentified += 1
    return GraphAttackResult(
        located=True, targets=len(targets), reidentified=reidentified
    )
