"""Tests for the property-testing module (oracle, GGR tester, tolerant tester)."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.congest.config import CongestConfig
from repro.core import near_clique
from repro.graphs import generators
from repro.proptest.ggr_tester import GGRCliqueTester
from repro.proptest.sampling import AdjacencyOracle
from repro.proptest.tolerant import (
    TolerantNearCliqueTester,
    ggr_tolerance_of,
    paper_tolerance_of,
)


class TestAdjacencyOracle:
    def test_query_counting_deduplicates(self):
        graph = nx.path_graph(4)
        oracle = AdjacencyOracle(graph)
        assert oracle.is_edge(0, 1)
        assert oracle.is_edge(1, 0)  # same unordered pair
        assert not oracle.is_edge(0, 3)
        assert oracle.queries == 2

    def test_self_loop_is_never_an_edge(self):
        oracle = AdjacencyOracle(nx.complete_graph(3))
        assert not oracle.is_edge(1, 1)

    def test_degree_into(self):
        graph = nx.star_graph(5)
        oracle = AdjacencyOracle(graph)
        assert oracle.degree_into(0, [1, 2, 3]) == 3
        assert oracle.degree_into(1, [2, 3]) == 0

    def test_sample_vertices_without_replacement(self):
        oracle = AdjacencyOracle(nx.complete_graph(10))
        sample = oracle.sample_vertices(5, random.Random(1))
        assert len(sample) == len(set(sample)) == 5

    def test_sample_vertices_with_replacement_allows_excess(self):
        oracle = AdjacencyOracle(nx.complete_graph(3))
        sample = oracle.sample_vertices(10, random.Random(1), replace=True)
        assert len(sample) == 10

    def test_exact_density_matches_definition(self):
        graph = nx.complete_graph(5)
        graph.remove_edge(0, 1)
        oracle = AdjacencyOracle(graph)
        assert oracle.exact_density(range(5)) == pytest.approx(
            near_clique.density(graph, range(5))
        )

    def test_pair_density_estimates_clique_as_one(self):
        oracle = AdjacencyOracle(nx.complete_graph(8))
        assert oracle.pair_density(range(8), random.Random(2), pairs=50) == 1.0

    def test_pair_density_of_single_vertex(self):
        oracle = AdjacencyOracle(nx.complete_graph(3))
        assert oracle.pair_density([0], random.Random(2), pairs=10) == 1.0


class TestGGRTester:
    def test_sample_sizes_grow_as_epsilon_shrinks(self):
        loose = GGRCliqueTester(rho=0.5, epsilon=0.4)
        tight = GGRCliqueTester(rho=0.5, epsilon=0.15)
        assert tight.sample_sizes(500)[1] >= loose.sample_sizes(500)[1]

    def test_sample_sizes_independent_of_n(self):
        tester = GGRCliqueTester(rho=0.5, epsilon=0.3)
        assert tester.sample_sizes(10 ** 4) == tester.sample_sizes(10 ** 6)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GGRCliqueTester(rho=0.0, epsilon=0.2)
        with pytest.raises(ValueError):
            GGRCliqueTester(rho=0.5, epsilon=1.0)

    def test_accepts_planted_clique(self):
        graph, _ = generators.planted_near_clique(80, 0.5, 0.0, 0.05, seed=2)
        accepts = 0
        for seed in range(6):
            tester = GGRCliqueTester(rho=0.45, epsilon=0.3, rng=random.Random(seed))
            accepts += tester.test(graph).accepted
        assert accepts >= 4

    def test_rejects_sparse_random_graph(self):
        graph = generators.erdos_renyi(80, 0.08, seed=3)
        rejects = 0
        for seed in range(6):
            tester = GGRCliqueTester(rho=0.45, epsilon=0.3, rng=random.Random(seed))
            rejects += not tester.test(graph).accepted
        assert rejects >= 5

    def test_query_count_is_sublinear_in_pairs(self):
        graph, _ = generators.planted_near_clique(120, 0.5, 0.0, 0.04, seed=5)
        tester = GGRCliqueTester(rho=0.45, epsilon=0.3, rng=random.Random(1))
        verdict = tester.test(graph)
        total_pairs = 120 * 119 // 2
        assert verdict.queries < total_pairs / 3

    def test_empty_graph_rejected(self):
        tester = GGRCliqueTester(rho=0.5, epsilon=0.3)
        assert not tester.test(nx.Graph()).accepted

    def test_approximate_find_returns_dense_set(self):
        graph, planted = generators.planted_near_clique(80, 0.5, 0.0, 0.05, seed=7)
        tester = GGRCliqueTester(rho=0.45, epsilon=0.25, rng=random.Random(3))
        verdict = tester.test(graph)
        if not verdict.accepted:
            pytest.skip("tester rejected on this seed; acceptance covered elsewhere")
        found = tester.approximate_find(graph, sorted(verdict.witness_subset))
        assert found.density >= 0.85
        assert len(found.members & planted.members) >= 0.7 * len(planted.members)

    def test_approximate_find_empty_witness(self):
        tester = GGRCliqueTester(rho=0.4, epsilon=0.3)
        found = tester.approximate_find(nx.complete_graph(5), [])
        assert found.members == frozenset()

    def test_majority_vote_wrapper(self):
        graph, _ = generators.planted_near_clique(70, 0.5, 0.0, 0.05, seed=9)
        tester = GGRCliqueTester(rho=0.45, epsilon=0.3, rng=random.Random(11))
        verdict = tester.test_with_confidence(graph, repetitions=3)
        assert verdict.accepted
        assert verdict.queries > 0


class TestTolerantTester:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TolerantNearCliqueTester(rho=0.5, epsilon_1=0.3, epsilon_2=0.2)
        with pytest.raises(ValueError):
            TolerantNearCliqueTester(rho=1.5, epsilon_1=0.1, epsilon_2=0.2)

    def test_tolerance_helpers(self):
        assert ggr_tolerance_of(0.3) == (pytest.approx(0.3 ** 6), 0.3)
        assert paper_tolerance_of(0.3) == (pytest.approx(0.027), 0.3)

    def test_gap_behaviour_on_planted_vs_null(self):
        planted_graph, _ = generators.planted_near_clique(70, 0.4, 0.027, 0.05, seed=2)
        null_graph = generators.erdos_renyi(70, 0.1, seed=5)
        planted_accepts = 0
        null_accepts = 0
        for seed in range(6):
            tester = TolerantNearCliqueTester(
                rho=0.4, epsilon_1=0.027, epsilon_2=0.3, rng=random.Random(seed)
            )
            planted_accepts += tester.test(planted_graph).accepted
            null_accepts += tester.test(null_graph).accepted
        assert planted_accepts >= 5
        assert null_accepts <= 1

    def test_confidence_wrapper_one_sided(self):
        graph, _ = generators.planted_near_clique(60, 0.4, 0.02, 0.05, seed=4)
        tester = TolerantNearCliqueTester(
            rho=0.4, epsilon_1=0.02, epsilon_2=0.3, rng=random.Random(1)
        )
        verdict = tester.test_with_confidence(graph, repetitions=4)
        assert verdict.accepted
        assert verdict.found_fraction > 0

    def test_empty_graph(self):
        tester = TolerantNearCliqueTester(rho=0.4, epsilon_1=0.01, epsilon_2=0.2)
        assert not tester.test(nx.Graph()).accepted

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_find_distributed_runs_the_congest_algorithm(self, engine):
        graph, _ = generators.planted_near_clique(60, 0.4, 0.02, 0.05, seed=4)
        tester = TolerantNearCliqueTester(
            rho=0.4,
            epsilon_1=0.02,
            epsilon_2=0.3,
            rng=random.Random(8),
            congest_config=CongestConfig(engine=engine).with_log_budget(60),
        )
        result = tester.find_distributed(graph)
        assert set(result.labels) == set(graph.nodes())
        assert result.metrics is not None and result.metrics.rounds > 0

    def test_find_distributed_identical_across_engines(self):
        graph, _ = generators.planted_near_clique(60, 0.4, 0.02, 0.05, seed=4)
        results = {}
        for engine in ("reference", "vectorized"):
            tester = TolerantNearCliqueTester(
                rho=0.4,
                epsilon_1=0.02,
                epsilon_2=0.3,
                rng=random.Random(8),
                congest_config=CongestConfig(engine=engine).with_log_budget(60),
            )
            result = tester.find_distributed(graph)
            results[engine] = (
                result.labels,
                result.sample,
                result.metrics.rounds,
                result.metrics.total_bits,
            )
        assert results["reference"] == results["vectorized"]
