"""Tests for the centralized reference implementation."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.core import near_clique
from repro.core.params import AlgorithmParameters
from repro.core.reference import CentralizedNearCliqueFinder
from repro.graphs import generators


class TestSamplingAndComponents:
    def test_draw_sample_respects_probability_extremes(self):
        graph = nx.complete_graph(10)
        finder = CentralizedNearCliqueFinder(graph, 0.2)
        assert finder.draw_sample(0.0, random.Random(1)) == set()
        assert finder.draw_sample(1.0, random.Random(1)) == set(range(10))

    def test_draw_sample_deterministic_given_rng(self):
        graph = nx.complete_graph(30)
        finder = CentralizedNearCliqueFinder(graph, 0.2)
        a = finder.draw_sample(0.3, random.Random(7))
        b = finder.draw_sample(0.3, random.Random(7))
        assert a == b

    def test_components_of_sample(self):
        graph = nx.path_graph(6)
        finder = CentralizedNearCliqueFinder(graph, 0.2)
        components = finder.sample_components({0, 1, 3, 5})
        assert components == [(0, 1), (3,), (5,)]

    def test_audience_is_members_plus_neighbors(self):
        graph = nx.star_graph(5)
        finder = CentralizedNearCliqueFinder(graph, 0.2)
        assert finder.audience_of((0,)) == frozenset(range(6))
        assert finder.audience_of((3,)) == frozenset({0, 3})

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ValueError):
            CentralizedNearCliqueFinder(nx.complete_graph(3), 0.0)


class TestComponentAnalysis:
    def test_t_sets_match_generic_operator(self):
        graph = nx.gnp_random_graph(25, 0.35, seed=3)
        finder = CentralizedNearCliqueFinder(graph, 0.25)
        members = (2, 7, 9)
        analysis = finder.analyze_component(members)
        for index in range(1, 1 << len(members)):
            subset = near_clique.subset_from_index(members, index)
            expected = near_clique.t_eps(graph, subset, 0.25)
            assert analysis.t_sets[index] == frozenset(expected)

    def test_k_sets_match_generic_operator(self):
        graph = nx.gnp_random_graph(20, 0.4, seed=8)
        finder = CentralizedNearCliqueFinder(graph, 0.2)
        members = (1, 4, 6, 11)
        analysis = finder.analyze_component(members)
        inner = 2 * 0.2 ** 2
        for index in range(1, 1 << len(members)):
            subset = near_clique.subset_from_index(members, index)
            expected = near_clique.k_eps(graph, subset, inner)
            assert analysis.k_sets[index] == frozenset(expected)

    def test_best_subset_maximises_t(self):
        graph, _ = generators.planted_near_clique(40, 0.5, 0.0, 0.05, seed=2)
        finder = CentralizedNearCliqueFinder(graph, 0.2)
        analysis = finder.analyze_component((0, 3, 5))
        best = max(len(t) for t in analysis.t_sets.values())
        assert analysis.best_size == best
        assert len(analysis.t_sets[analysis.best_index]) == best

    def test_best_index_tie_break_is_smallest(self):
        # On an empty graph every T is empty; the smallest index must win.
        graph = nx.empty_graph(6)
        finder = CentralizedNearCliqueFinder(graph, 0.2)
        analysis = finder.analyze_component((0, 1))
        assert analysis.best_index == 1
        assert analysis.best_size == 0

    def test_lemma_5_3_on_every_candidate(self):
        graph, _ = generators.planted_near_clique(50, 0.4, 0.008, 0.06, seed=4)
        epsilon = 0.2
        finder = CentralizedNearCliqueFinder(graph, epsilon)
        analysis = finder.analyze_component((0, 2, 8, 11))
        n = graph.number_of_nodes()
        for t_set in analysis.t_sets.values():
            if len(t_set) <= 1:
                continue
            bound = near_clique.lemma_5_3_defect_bound(n, len(t_set), epsilon)
            assert near_clique.near_clique_defect(graph, t_set) <= bound + 1e-9


class TestDecision:
    def test_single_candidate_survives(self):
        graph = nx.complete_graph(8)
        finder = CentralizedNearCliqueFinder(graph, 0.2)
        analysis = finder.analyze_component((0, 1))
        survived, votes = finder.decide([analysis])
        assert survived[0] is True
        assert set(votes.values()) == {0}

    def test_smaller_overlapping_candidate_aborted(self):
        graph, _ = generators.planted_near_clique(40, 0.6, 0.0, 0.3, seed=9)
        finder = CentralizedNearCliqueFinder(graph, 0.2)
        big = finder.analyze_component((0, 1, 2))
        small = finder.analyze_component((30, 33))
        if not (big.audience & small.audience):
            pytest.skip("construction did not overlap; adjust seed")
        survived, _ = finder.decide([big, small])
        assert survived[big.root] != survived[small.root] or (
            big.best_size == small.best_size
        )
        # The larger candidate always survives its own audience's vote.
        assert survived[big.root] is True

    def test_vote_tie_break_prefers_larger_root(self):
        choice = CentralizedNearCliqueFinder._vote([(3, 10), (7, 10), (5, 9)])
        assert choice == 7

    def test_disjoint_candidates_both_survive(self):
        graph = nx.Graph()
        graph.add_edges_from(nx.complete_graph(5).edges())
        graph.add_edges_from((u + 10, v + 10) for u, v in nx.complete_graph(5).edges())
        finder = CentralizedNearCliqueFinder(graph, 0.2)
        a = finder.analyze_component((0, 1))
        b = finder.analyze_component((10, 11))
        survived, _ = finder.decide([a, b])
        assert survived[0] and survived[10]


class TestFullRuns:
    def test_run_with_sample_labels_are_t_sets_of_survivors(self):
        graph, planted = generators.planted_near_clique(60, 0.5, 0.008, 0.05, seed=7)
        finder = CentralizedNearCliqueFinder(graph, 0.2)
        sample = finder.draw_sample(0.12, random.Random(3))
        result = finder.run_with_sample(sample)
        for candidate in result.candidates:
            if candidate.survived:
                for node in candidate.members:
                    assert result.labels[node] == candidate.component_root
            else:
                assert all(
                    result.labels[node] != candidate.component_root
                    for node in candidate.members
                    if result.labels[node] is not None
                ) or candidate.members == frozenset()

    def test_surviving_clusters_are_disjoint(self):
        graph, _ = generators.planted_near_clique(60, 0.5, 0.008, 0.05, seed=11)
        finder = CentralizedNearCliqueFinder(graph, 0.2)
        for seed in range(6):
            sample = finder.draw_sample(0.15, random.Random(seed))
            result = finder.run_with_sample(sample)
            seen = set()
            for candidate in result.candidates:
                if not candidate.survived:
                    continue
                assert not (candidate.members & seen)
                seen |= candidate.members

    def test_labels_cover_exactly_survivor_members(self):
        graph, _ = generators.planted_near_clique(50, 0.4, 0.008, 0.08, seed=5)
        finder = CentralizedNearCliqueFinder(graph, 0.25)
        sample = finder.draw_sample(0.15, random.Random(2))
        result = finder.run_with_sample(sample)
        labelled = {v for v, label in result.labels.items() if label is not None}
        survivor_members = set()
        for candidate in result.candidates:
            if candidate.survived:
                survivor_members |= candidate.members
        assert labelled == survivor_members

    def test_min_output_size_filters_small_candidates(self):
        graph = nx.path_graph(12)
        finder = CentralizedNearCliqueFinder(graph, 0.3, min_output_size=5)
        result = finder.run_with_sample({0, 4, 8})
        assert result.labelled_nodes == frozenset()

    def test_run_aborts_on_large_sample(self):
        graph = nx.complete_graph(30)
        finder = CentralizedNearCliqueFinder(graph, 0.2)
        params = AlgorithmParameters(
            epsilon=0.2, sample_probability=1.0, max_sample_size=5
        )
        result = finder.run(params, rng=random.Random(1))
        assert result.aborted
        assert result.labelled_nodes == frozenset()
        assert "exceeds" in (result.abort_reason or "")

    def test_run_without_abort_records_probability(self):
        graph, _ = generators.planted_near_clique(40, 0.5, 0.0, 0.05, seed=3)
        finder = CentralizedNearCliqueFinder(graph, 0.2)
        params = AlgorithmParameters(
            epsilon=0.2, sample_probability=0.1, max_sample_size=14
        )
        result = finder.run(params, rng=random.Random(4))
        assert not result.aborted
        assert result.sample_probability == pytest.approx(0.1)

    def test_empty_sample_produces_bot_everywhere(self):
        graph = nx.complete_graph(10)
        finder = CentralizedNearCliqueFinder(graph, 0.2)
        result = finder.run_with_sample(set())
        assert result.labelled_nodes == frozenset()
        assert result.components == ()

    def test_planted_clique_recovered_with_good_sample(self):
        graph, planted = generators.planted_near_clique(60, 0.5, 0.0, 0.04, seed=13)
        finder = CentralizedNearCliqueFinder(graph, 0.15)
        # Hand the finder a sample containing three clique members.
        sample = {0, 1, 2}
        result = finder.run_with_sample(sample)
        assert result.recall_of(planted.members) >= 0.9
        assert result.largest_cluster_density(graph) >= 0.9
