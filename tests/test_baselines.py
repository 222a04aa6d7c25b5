"""Tests for the Section 3 baselines and the centralized comparators."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.analysis import theory
from repro.baselines.centralized import (
    charikar_peeling,
    greedy_dense_k_subgraph,
    peel_to_near_clique,
    quasi_clique_local_search,
)
from repro.baselines.neighbors import neighbors_neighbors
from repro.baselines.shingles import (
    GLOBAL_EPSILON,
    GLOBAL_MIN_SIZE,
    ShinglesProtocol,
    shingles_run,
)
from repro.congest.config import CongestConfig
from repro.congest.network import Network
from repro.congest.scheduler import run_protocol
from repro.core import near_clique
from repro.graphs import generators


class TestShinglesCentralized:
    def test_candidate_sets_partition_labelled_nodes(self):
        graph = nx.gnp_random_graph(30, 0.2, seed=4)
        result = shingles_run(graph, rng=random.Random(1))
        covered = set()
        for candidate in result.candidates:
            assert not (candidate.members & covered)
            covered |= candidate.members
        assert covered == set(graph.nodes())

    def test_labels_point_to_closed_neighborhood_minimum(self):
        graph = nx.path_graph(8)
        shingles = {v: 100 - v for v in graph.nodes()}  # node 7 has the minimum
        result = shingles_run(graph, shingles=shingles)
        assert result.labels[7] == 7
        assert result.labels[6] == 7
        assert result.labels[5] == 6  # cannot see node 7, picks its best neighbour

    def test_explicit_duplicate_shingles_rejected(self):
        graph = nx.path_graph(4)
        with pytest.raises(ValueError):
            shingles_run(graph, shingles={0: 1, 1: 1, 2: 2, 3: 3})

    def test_clique_with_global_minimum_inside_is_found(self):
        graph, planted = generators.planted_near_clique(40, 0.5, 0.0, 0.02, seed=6)
        shingles = {v: v + 1000 for v in graph.nodes()}
        shingles[0] = 0  # global minimum inside the planted clique
        result = shingles_run(graph, shingles=shingles)
        best = result.best_candidate()
        assert best is not None
        # The candidate set contains the whole clique (possibly diluted).
        assert planted.members <= best.members

    def test_best_qualifying_respects_thresholds(self):
        graph = nx.complete_graph(6)
        result = shingles_run(graph, rng=random.Random(2))
        assert result.best_qualifying(min_size=3, epsilon=0.0) is not None
        assert result.best_qualifying(min_size=10, epsilon=0.0) is None


class TestClaimOne:
    """Claim 1: the shingles algorithm fails on the Figure 1 family."""

    @pytest.mark.parametrize("delta", [0.3, 0.5])
    def test_no_qualifying_candidate_for_any_minimum_position(self, delta):
        n = 80
        graph, partition = generators.shingles_counterexample(n=n, delta=delta)
        n_actual = graph.number_of_nodes()
        epsilon = 0.9 * theory.claim_1_epsilon_threshold(delta)
        required = theory.claim_1_required_size(n_actual, delta, epsilon)
        # Place the global minimum in each of the four blocks in turn: in
        # every case no candidate set is both large and dense enough.
        for block in ("C1", "C2", "I1", "I2"):
            owner = min(partition[block])
            shingles = {v: v + 10 for v in graph.nodes()}
            shingles[owner] = 0
            result = shingles_run(graph, shingles=shingles)
            assert not result.achieves(epsilon, int(required))

    def test_case1_density_matches_paper_formula(self):
        delta = 0.5
        graph, partition = generators.shingles_counterexample(n=120, delta=delta)
        owner = min(partition["C1"])
        shingles = {v: v + 10 for v in graph.nodes()}
        shingles[owner] = 0
        result = shingles_run(graph, shingles=shingles)
        candidate = next(c for c in result.candidates if owner in c.members)
        # The candidate is exactly C1 ∪ C2 ∪ I1 with density 2δ/(1+δ).
        expected_members = partition["C1"] | partition["C2"] | partition["I1"]
        assert candidate.members == expected_members
        assert candidate.density == pytest.approx(
            theory.claim_1_case1_density(delta), abs=0.02
        )

    def test_dist_near_clique_succeeds_where_shingles_fails(self):
        from repro.core.reference import CentralizedNearCliqueFinder

        delta = 0.5
        graph, partition = generators.shingles_counterexample(n=80, delta=delta)
        epsilon = 0.1
        finder = CentralizedNearCliqueFinder(graph, epsilon)
        # A sample inside the clique is representative; the algorithm finds
        # (almost) the whole clique C1 ∪ C2.
        sample = set(sorted(partition["C1"])[:2]) | set(sorted(partition["C2"])[:1])
        result = finder.run_with_sample(sample)
        clique = partition["clique"]
        assert len(result.largest_cluster() & clique) >= 0.9 * len(clique)
        assert result.largest_cluster_density(graph) >= 0.9


class TestShinglesProtocol:
    def test_protocol_runs_in_constant_rounds(self):
        graph, _ = generators.planted_near_clique(40, 0.5, 0.0, 0.05, seed=8)
        network = Network(graph, seed=3)
        result = run_protocol(
            network,
            ShinglesProtocol(),
            config=CongestConfig().with_log_budget(40),
            global_inputs={GLOBAL_EPSILON: 0.2, GLOBAL_MIN_SIZE: 3},
        )
        assert result.metrics.rounds <= 5

    def test_accepted_sets_are_near_cliques(self):
        graph, _ = generators.planted_near_clique(50, 0.5, 0.0, 0.05, seed=9)
        epsilon = 0.2
        network = Network(graph, seed=5)
        result = run_protocol(
            network,
            ShinglesProtocol(),
            config=CongestConfig().with_log_budget(50),
            global_inputs={GLOBAL_EPSILON: epsilon, GLOBAL_MIN_SIZE: 4},
        )
        clusters = {}
        for node, label in result.outputs.items():
            if label is not None:
                clusters.setdefault(label, set()).add(node)
        for members in clusters.values():
            if len(members) >= 4:
                assert near_clique.density(graph, members) >= 1 - epsilon - 0.05

    def test_messages_respect_log_budget(self):
        graph = nx.gnp_random_graph(64, 0.1, seed=2)
        config = CongestConfig().with_log_budget(64)
        result = run_protocol(
            Network(graph, seed=1),
            ShinglesProtocol(),
            config=config,
            global_inputs={GLOBAL_EPSILON: 0.2, GLOBAL_MIN_SIZE: 3},
        )
        assert result.metrics.max_message_bits <= config.message_bit_budget


class TestNeighborsNeighbors:
    def test_finds_planted_clique_exactly(self):
        graph, planted = generators.planted_near_clique(30, 0.4, 0.0, 0.03, seed=3)
        result = neighbors_neighbors(graph)
        assert planted.members <= result.largest_clique()

    def test_output_sets_are_cliques(self):
        graph = nx.gnp_random_graph(25, 0.3, seed=7)
        result = neighbors_neighbors(graph)
        for clique in result.cliques:
            assert near_clique.density(graph, clique) == 1.0

    def test_surviving_cliques_disjoint(self):
        graph = nx.gnp_random_graph(25, 0.3, seed=9)
        result = neighbors_neighbors(graph)
        seen = set()
        for clique in result.cliques:
            assert not (clique & seen)
            seen |= clique

    def test_message_size_exceeds_congest_budget(self):
        # The whole point of ruling this baseline out: messages carry entire
        # adjacency lists, i.e. Θ(Δ log n) bits, far above c·log n.
        graph, _ = generators.planted_near_clique(60, 0.5, 0.0, 0.1, seed=4)
        result = neighbors_neighbors(graph)
        budget = CongestConfig().with_log_budget(60).message_bit_budget
        assert result.max_message_bits > budget

    def test_local_computation_cost_reported(self):
        graph = nx.complete_graph(12)
        result = neighbors_neighbors(graph)
        assert result.cliques_enumerated >= 12


class TestCentralizedComparators:
    def test_charikar_on_planted_clique(self):
        graph, planted = generators.planted_near_clique(50, 0.4, 0.0, 0.02, seed=5)
        members, score = charikar_peeling(graph)
        assert len(planted.members & members) >= 0.8 * len(planted.members)
        assert score >= (len(planted.members) - 1) / 2.0 - 1

    def test_charikar_empty_graph(self):
        members, score = charikar_peeling(nx.Graph())
        assert members == frozenset() and score == 0.0

    def test_greedy_dks_size_exact(self):
        graph, _ = generators.planted_near_clique(40, 0.4, 0.0, 0.05, seed=6)
        assert len(greedy_dense_k_subgraph(graph, 10)) == 10
        assert greedy_dense_k_subgraph(graph, 0) == frozenset()
        assert len(greedy_dense_k_subgraph(graph, 999)) == 40

    def test_greedy_dks_prefers_planted_clique(self):
        graph, planted = generators.planted_near_clique(50, 0.4, 0.0, 0.03, seed=7)
        k = len(planted.members)
        found = greedy_dense_k_subgraph(graph, k)
        assert len(found & planted.members) >= 0.8 * k

    def test_peel_to_near_clique_outputs_near_clique(self):
        graph, _ = generators.planted_near_clique(60, 0.4, 0.01, 0.06, seed=8)
        for epsilon in (0.05, 0.1, 0.3):
            members = peel_to_near_clique(graph, epsilon)
            assert near_clique.is_near_clique(graph, members, epsilon)

    def test_peel_with_explicit_start(self):
        graph = nx.complete_graph(10)
        members = peel_to_near_clique(graph, 0.0, start=range(5))
        assert members == frozenset(range(5))

    def test_quasi_clique_outputs_near_clique(self):
        graph, planted = generators.planted_near_clique(50, 0.4, 0.01, 0.05, seed=9)
        epsilon = 0.1
        members = quasi_clique_local_search(graph, epsilon, seed=3)
        assert near_clique.is_near_clique(graph, members, epsilon)
        assert len(members) >= 0.5 * len(planted.members)

    def test_quasi_clique_empty_graph(self):
        assert quasi_clique_local_search(nx.Graph(), 0.1) == frozenset()
