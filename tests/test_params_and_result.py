"""Tests for algorithm parameters and the result record."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from repro.congest.metrics import RunMetrics
from repro.core.boosting import BoostedNearCliqueRunner
from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.core.params import (
    AlgorithmParameters,
    expected_sample_size,
    recommended_sample_probability,
)
from repro.core.result import CandidateSet, NearCliqueResult
from repro.service import NearCliqueService


class TestExpectedSampleSize:
    def test_increases_as_epsilon_shrinks(self):
        assert expected_sample_size(0.1, 0.5) > expected_sample_size(0.2, 0.5)

    def test_increases_as_delta_shrinks(self):
        assert expected_sample_size(0.2, 0.25) > expected_sample_size(0.2, 0.5)

    def test_matches_formula(self):
        import math

        eps, delta = 0.2, 0.5
        expected = math.log(1 / (eps * delta)) / (eps ** 4 * delta)
        assert expected_sample_size(eps, delta) == pytest.approx(expected)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            expected_sample_size(0.0, 0.5)
        with pytest.raises(ValueError):
            expected_sample_size(0.2, 0.0)
        with pytest.raises(ValueError):
            expected_sample_size(1.5, 0.5)


class TestRecommendedSampleProbability:
    def test_probability_in_unit_interval(self):
        p = recommended_sample_probability(100, 0.2, 0.5)
        assert 0.0 <= p <= 1.0

    def test_cap_applies(self):
        uncapped = recommended_sample_probability(10 ** 6, 0.1, 0.3)
        capped = recommended_sample_probability(10 ** 6, 0.1, 0.3, max_expected_sample=10)
        assert capped <= uncapped
        assert capped == pytest.approx(10 / 10 ** 6)

    def test_small_n_clips_to_one(self):
        assert recommended_sample_probability(3, 0.1, 0.3) == 1.0

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            recommended_sample_probability(0, 0.2, 0.5)

    @given(
        st.integers(min_value=10, max_value=10 ** 5),
        st.floats(min_value=0.05, max_value=0.4),
        st.floats(min_value=0.1, max_value=1.0),
    )
    def test_always_a_probability(self, n, eps, delta):
        p = recommended_sample_probability(n, eps, delta, max_expected_sample=20)
        assert 0.0 <= p <= 1.0


class TestAlgorithmParameters:
    def test_valid_construction(self):
        params = AlgorithmParameters(epsilon=0.2, sample_probability=0.1)
        assert params.k_inner_epsilon == pytest.approx(0.08)

    def test_epsilon_range_enforced(self):
        with pytest.raises(ValueError):
            AlgorithmParameters(epsilon=0.0, sample_probability=0.1)
        with pytest.raises(ValueError):
            AlgorithmParameters(epsilon=1.0, sample_probability=0.1)

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError):
            AlgorithmParameters(epsilon=0.2, sample_probability=-0.1)
        with pytest.raises(ValueError):
            AlgorithmParameters(epsilon=0.2, sample_probability=1.5)

    def test_negative_guards_rejected(self):
        with pytest.raises(ValueError):
            AlgorithmParameters(epsilon=0.2, sample_probability=0.1, max_sample_size=-1)
        with pytest.raises(ValueError):
            AlgorithmParameters(epsilon=0.2, sample_probability=0.1, min_output_size=-2)
        with pytest.raises(ValueError):
            AlgorithmParameters(
                epsilon=0.2, sample_probability=0.1, step4f_sample_size=0
            )

    def test_for_promise_builds_capped_probability(self):
        params = AlgorithmParameters.for_promise(n=200, epsilon=0.2, delta=0.5)
        assert 0 < params.sample_probability <= 14.0 / 200 + 1e-9

    def test_for_promise_forwards_kwargs(self):
        params = AlgorithmParameters.for_promise(
            n=100, epsilon=0.2, delta=0.5, min_output_size=7
        )
        assert params.min_output_size == 7

    @pytest.mark.parametrize(
        "make",
        [
            lambda **kw: DistNearCliqueRunner(**kw),
            lambda **kw: BoostedNearCliqueRunner(**kw),
            lambda **kw: NearCliqueService(nx.path_graph(3), **kw),
        ],
        ids=["runner", "boosted", "service"],
    )
    def test_constructors_share_one_parameters_rule(self, make):
        record = AlgorithmParameters(epsilon=0.2, sample_probability=0.1)
        assert make(parameters=record).parameters is record
        built = make(epsilon=0.2, sample_probability=0.1, min_output_size=3)
        assert built.parameters == AlgorithmParameters(
            epsilon=0.2, sample_probability=0.1, min_output_size=3
        )
        with pytest.raises(
            ValueError,
            match="^provide either an AlgorithmParameters record or both "
            "epsilon and sample_probability$",
        ):
            make(epsilon=0.2)


def _result_fixture():
    graph = nx.complete_graph(6)
    graph.add_edges_from([(6, 7)])
    labels = {v: (0 if v < 5 else None) for v in graph.nodes()}
    labels[7] = 7
    metrics = RunMetrics(rounds=12, max_message_bits=20)
    candidate = CandidateSet(
        component_root=0,
        component_members=frozenset({0, 1}),
        subset_index=3,
        subset=frozenset({0, 1}),
        members=frozenset({0, 1, 2, 3, 4}),
        survived=True,
    )
    result = NearCliqueResult(
        labels=labels,
        candidates=[candidate],
        sample=frozenset({0, 1}),
        components=(frozenset({0, 1}),),
        epsilon=0.1,
        metrics=metrics,
    )
    return graph, result


class TestNearCliqueResult:
    def test_clusters_group_by_label(self):
        _, result = _result_fixture()
        clusters = result.clusters
        assert clusters[0] == frozenset({0, 1, 2, 3, 4})
        assert clusters[7] == frozenset({7})

    def test_largest_cluster(self):
        _, result = _result_fixture()
        assert result.largest_cluster() == frozenset({0, 1, 2, 3, 4})

    def test_cluster_of(self):
        _, result = _result_fixture()
        assert result.cluster_of(3) == frozenset({0, 1, 2, 3, 4})
        assert result.cluster_of(5) == frozenset()

    def test_labelled_nodes(self):
        _, result = _result_fixture()
        assert result.labelled_nodes == frozenset({0, 1, 2, 3, 4, 7})

    def test_density_and_defect(self):
        graph, result = _result_fixture()
        assert result.largest_cluster_density(graph) == 1.0
        assert result.largest_cluster_defect(graph) == 0.0

    def test_recall(self):
        _, result = _result_fixture()
        assert result.recall_of({0, 1, 2, 3, 4, 5}) == pytest.approx(5 / 6)
        assert result.recall_of(set()) == 1.0

    def test_meets_theorem_when_bounds_vacuous(self):
        graph, result = _result_fixture()
        # epsilon=0.1 and tiny planted size: the size bound is negative, so
        # the predicate reduces to the defect check (density 1.0 passes).
        assert result.meets_theorem_5_7(graph, planted_size=5, delta=0.5)

    def test_summary_fields(self):
        _, result = _result_fixture()
        summary = result.summary()
        assert summary["largest_cluster"] == 5.0
        assert summary["rounds"] == 12.0
        assert summary["max_message_bits"] == 20.0
        assert summary["aborted"] == 0.0

    def test_empty_result(self):
        result = NearCliqueResult(labels={0: None, 1: None})
        assert result.largest_cluster() == frozenset()
        assert result.clusters == {}
        assert result.summary()["rounds"] == 0.0


class TestCandidateSet:
    def test_size_and_density(self):
        graph = nx.complete_graph(4)
        candidate = CandidateSet(
            component_root=0,
            component_members=frozenset({0}),
            subset_index=1,
            subset=frozenset({0}),
            members=frozenset({0, 1, 2, 3}),
            survived=True,
        )
        assert candidate.size == 4
        assert candidate.density(graph) == 1.0
