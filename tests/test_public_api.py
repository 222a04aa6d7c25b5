"""Tests for the package's public surface (imports, __all__, quickstart flow)."""

from __future__ import annotations

import random

import pytest

import repro


class TestPublicSurface:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.baselines
        import repro.congest
        import repro.core
        import repro.graphs
        import repro.primitives
        import repro.proptest

        assert repro.congest.__doc__ and repro.core.__doc__

    def test_congest_all_exports_exist(self):
        import repro.congest as congest

        for name in congest.__all__:
            assert hasattr(congest, name), name

    def test_congest_exports_one_class_per_engine(self):
        # One class per registered engine, plus their base.
        import repro.congest as congest

        engines = sorted(name for name in dir(congest) if name.endswith("Engine"))
        assert engines == ["Engine", "ReferenceEngine", "ShardedEngine", "VectorizedEngine"]
        assert engines == sorted(name for name in congest.__all__ if name.endswith("Engine"))

    def test_primitives_all_exports_exist(self):
        import repro.primitives as primitives

        for name in primitives.__all__:
            assert hasattr(primitives, name), name


class TestQuickstartFlow:
    """The README quickstart, executed end to end."""

    def test_quickstart(self):
        graph, planted = repro.generators.planted_near_clique(
            n=80, clique_fraction=0.5, epsilon=0.2 ** 3, background_p=0.05, seed=7
        )
        runner = repro.DistNearCliqueRunner(
            epsilon=0.2, sample_probability=0.08, rng=random.Random(7)
        )
        result = runner.run(graph)
        assert not result.aborted
        assert set(result.labels) == set(graph.nodes())
        # Density helpers exposed at top level agree with the result's view.
        members = result.largest_cluster()
        if members:
            assert repro.density(graph, members) == pytest.approx(
                result.largest_cluster_density(graph)
            )

    def test_boosted_quickstart(self):
        graph, planted = repro.generators.planted_near_clique(
            n=60, clique_fraction=0.5, epsilon=0.008, background_p=0.05, seed=3
        )
        result = repro.BoostedNearCliqueRunner(
            epsilon=0.2, sample_probability=0.08, repetitions=4, rng=random.Random(1)
        ).run(graph)
        assert result.recall_of(planted.members) >= 0.5

    def test_parameters_helper(self):
        p = repro.recommended_sample_probability(1000, 0.2, 0.5, max_expected_sample=10)
        assert 0 < p < 1
        params = repro.AlgorithmParameters(epsilon=0.2, sample_probability=p)
        assert params.epsilon == 0.2

    def test_k_and_t_operators_exposed(self):
        import networkx as nx

        graph = nx.complete_graph(6)
        assert repro.k_eps(graph, {0, 1}, 0.5) == set(range(6))
        assert repro.t_eps(graph, {0}, 0.4) == set(range(1, 6))
        assert repro.is_near_clique(graph, range(6), 0.0)
        assert repro.near_clique_defect(graph, range(6)) == 0.0
