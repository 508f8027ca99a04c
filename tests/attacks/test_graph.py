"""Tests for social-graph generation and BDK de-anonymization."""

import networkx as nx
import pytest

from repro.attacks.graph import (
    active_attack,
    degree_signature_uniqueness,
    locate_sybils,
    plant_sybils,
)
from repro.data.socialgraph import (
    SocialGraphConfig,
    anonymize_graph,
    generate_social_graph,
)
from repro.utils.rng import derive_rng


@pytest.fixture(scope="module")
def graph():
    return generate_social_graph(SocialGraphConfig(nodes=400), rng=0)


class TestSocialGraph:
    def test_size_and_connectivity(self, graph):
        assert graph.number_of_nodes() == 400
        assert nx.is_connected(graph)

    def test_heavy_tailed_degrees(self, graph):
        degrees = sorted((d for _n, d in graph.degree()), reverse=True)
        assert degrees[0] > 4 * degrees[len(degrees) // 2]  # hub vs median

    def test_deterministic(self):
        config = SocialGraphConfig(nodes=50, attachment=3)
        a = generate_social_graph(config, rng=1)
        b = generate_social_graph(config, rng=1)
        assert set(a.edges()) == set(b.edges())

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SocialGraphConfig(nodes=2)
        with pytest.raises(ValueError):
            SocialGraphConfig(nodes=10, attachment=10)

    def test_anonymization_is_isomorphic_relabeling(self, graph):
        released, identity = anonymize_graph(graph, rng=2)
        assert released.number_of_edges() == graph.number_of_edges()
        for u, v in list(graph.edges())[:100]:
            assert released.has_edge(identity[u], identity[v])

    def test_anonymization_actually_shuffles(self, graph):
        _released, identity = anonymize_graph(graph, rng=3)
        assert any(node != label for node, label in identity.items())


class TestPassiveAttack:
    def test_ba_graph_highly_unique(self, graph):
        assert degree_signature_uniqueness(graph) > 0.9

    def test_regular_graph_not_unique(self):
        ring = nx.cycle_graph(50)
        assert degree_signature_uniqueness(ring) == 0.0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            degree_signature_uniqueness(nx.Graph())


class TestPlanting:
    def test_plan_structure(self, graph):
        planted = graph.copy()
        plan = plant_sybils(planted, [1, 2, 3], num_sybils=5, rng=4)
        assert len(plan.sybils) == 5
        # Path edges present.
        for i in range(4):
            assert planted.has_edge(plan.sybils[i], plan.sybils[i + 1])
        # Each target linked to its distinct pair.
        pairs = set(plan.target_pairs.values())
        assert len(pairs) == 3
        for target, (a, b) in plan.target_pairs.items():
            assert planted.has_edge(target, a) and planted.has_edge(target, b)

    def test_capacity_enforced(self, graph):
        planted = graph.copy()
        with pytest.raises(ValueError):
            plant_sybils(planted, list(range(10)), num_sybils=3, rng=5)

    def test_validation(self, graph):
        planted = graph.copy()
        with pytest.raises(ValueError):
            plant_sybils(planted, [1, 1], num_sybils=4, rng=6)
        with pytest.raises(ValueError):
            plant_sybils(planted, [10**9], num_sybils=4, rng=7)
        with pytest.raises(ValueError):
            plant_sybils(planted, [1], num_sybils=1, rng=8)


class TestActiveAttack:
    def test_enough_sybils_recover_targets(self, graph):
        targets = [5, 17, 60, 123]
        result = active_attack(graph, targets, num_sybils=10, rng=derive_rng(0, "a"))
        assert result.located
        assert result.reidentified / result.targets >= 0.75

    def test_too_few_sybils_fail(self, graph):
        targets = [5, 17, 60]
        failures = 0
        for seed in range(5):
            result = active_attack(
                graph, targets, num_sybils=3, rng=derive_rng(seed, "b")
            )
            failures += int(not result.located)
        assert failures >= 4  # the small pattern is ambiguous

    def test_locate_finds_planted_embedding(self, graph):
        planted = graph.copy()
        plan = plant_sybils(planted, [2, 9], num_sybils=9, rng=9)
        released, identity = anonymize_graph(planted, rng=10)
        embeddings = locate_sybils(released, plan, planted)
        assert len(embeddings) == 1
        assert embeddings[0] == {s: identity[s] for s in plan.sybils}

    def test_result_string(self, graph):
        result = active_attack(graph, [5], num_sybils=8, rng=derive_rng(0, "c"))
        assert "targets re-identified" in str(result)
