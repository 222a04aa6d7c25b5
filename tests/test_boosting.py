"""Tests for the Section 4.1 boosting wrapper."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.core.boosting import (
    BoostedNearCliqueRunner,
    repetitions_for_failure_probability,
)
from repro.core.params import AlgorithmParameters


class TestRepetitionFormula:
    def test_matches_log_formula(self):
        # lambda = ceil(log q / log(1 - r))
        assert repetitions_for_failure_probability(0.01, 0.5) == 7
        assert repetitions_for_failure_probability(0.1, 0.5) == 4
        assert repetitions_for_failure_probability(0.5, 0.5) == 1

    def test_low_single_run_success_needs_more(self):
        assert repetitions_for_failure_probability(
            0.05, 0.2
        ) > repetitions_for_failure_probability(0.05, 0.6)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            repetitions_for_failure_probability(0.0, 0.5)
        with pytest.raises(ValueError):
            repetitions_for_failure_probability(0.1, 1.0)


class TestBoostedRunner:
    def test_requires_parameters_or_kwargs(self):
        with pytest.raises(ValueError):
            BoostedNearCliqueRunner()

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            BoostedNearCliqueRunner(
                epsilon=0.2, sample_probability=0.1, engine="quantum"
            )

    def test_repetitions_from_target_failure(self):
        runner = BoostedNearCliqueRunner(
            epsilon=0.2,
            sample_probability=0.1,
            target_failure=0.01,
            single_run_success=0.5,
        )
        assert runner.repetitions == 7

    def test_boosting_improves_success_rate(self, planted_workload):
        graph, planted = planted_workload
        params = AlgorithmParameters(
            epsilon=0.2, sample_probability=0.05, max_sample_size=12
        )
        single_hits = 0
        boosted_hits = 0
        trials = 12
        for seed in range(trials):
            single = BoostedNearCliqueRunner(
                parameters=params, repetitions=1, rng=random.Random(seed)
            ).run(graph)
            boosted = BoostedNearCliqueRunner(
                parameters=params, repetitions=6, rng=random.Random(seed)
            ).run(graph)
            single_hits += single.recall_of(planted.members) >= 0.7
            boosted_hits += boosted.recall_of(planted.members) >= 0.7
        assert boosted_hits >= single_hits
        assert boosted_hits >= trials - 2  # boosted runs almost always succeed

    def test_surviving_candidates_disjoint_across_versions(self, planted_workload):
        graph, _ = planted_workload
        runner = BoostedNearCliqueRunner(
            epsilon=0.2, sample_probability=0.1, repetitions=5, rng=random.Random(3)
        )
        result = runner.run(graph)
        seen = set()
        for candidate in result.candidates:
            if not candidate.survived:
                continue
            assert not (candidate.members & seen)
            seen |= candidate.members

    def test_labels_come_from_surviving_candidates_only(self, planted_workload):
        graph, _ = planted_workload
        result = BoostedNearCliqueRunner(
            epsilon=0.2, sample_probability=0.1, repetitions=4, rng=random.Random(5)
        ).run(graph)
        labelled = {v for v, label in result.labels.items() if label is not None}
        survivors = set()
        for candidate in result.candidates:
            if candidate.survived:
                survivors |= candidate.members
        assert labelled == survivors

    def test_aborted_versions_are_wasted_but_harmless(self):
        # A tiny max_sample_size with p = 1 makes every version abort: the
        # boosted run then outputs bottom everywhere instead of crashing.
        graph = nx.complete_graph(20)
        runner = BoostedNearCliqueRunner(
            epsilon=0.2,
            sample_probability=1.0,
            max_sample_size=3,
            repetitions=3,
            rng=random.Random(1),
        )
        result = runner.run(graph)
        assert result.labelled_nodes == frozenset()
        assert result.candidates == []

    def test_distributed_engine_accumulates_rounds(self, planted_workload):
        graph, _ = planted_workload
        result = BoostedNearCliqueRunner(
            epsilon=0.2,
            sample_probability=0.08,
            repetitions=2,
            engine="distributed",
            rng=random.Random(7),
        ).run(graph)
        assert result.metrics is not None
        assert result.metrics.rounds > 0

    def test_distributed_and_centralized_engines_agree_in_quality(self, planted_workload):
        graph, planted = planted_workload
        central = BoostedNearCliqueRunner(
            epsilon=0.2, sample_probability=0.1, repetitions=3, rng=random.Random(11)
        ).run(graph)
        distributed = BoostedNearCliqueRunner(
            epsilon=0.2,
            sample_probability=0.1,
            repetitions=3,
            engine="distributed",
            rng=random.Random(11),
        ).run(graph)
        # The two engines draw different samples, so outputs differ, but both
        # should recover most of the planted set with 3 repetitions.
        assert central.recall_of(planted.members) >= 0.6
        assert distributed.recall_of(planted.members) >= 0.6


class TestSessionAwareBoosting:
    """The distributed wrapper runs all λ versions through one network and
    one execution session (per-version RNG streams via ``Network.reseed``),
    so results must be engine-independent and the shared session's
    accounting must span every version."""

    def _run(self, graph, config=None, seed=7):
        return BoostedNearCliqueRunner(
            epsilon=0.2,
            sample_probability=0.08,
            repetitions=3,
            engine="distributed",
            congest_config=config,
            rng=random.Random(seed),
        ).run(graph)

    def _fingerprint(self, result):
        return (
            result.labels,
            result.sample,
            [(c.component_root, c.subset_index, c.members, c.survived)
             for c in result.candidates],
            result.metrics.rounds,
            result.metrics.total_messages,
        )

    def test_shared_session_identical_across_backends(self, planted_workload):
        from repro.congest.config import CongestConfig

        graph, _ = planted_workload
        n = graph.number_of_nodes()
        baseline = self._fingerprint(self._run(graph))
        for config in (
            CongestConfig(engine="vectorized").with_log_budget(n),
            CongestConfig(engine="sharded", shards=2).with_log_budget(n),
        ):
            assert self._fingerprint(self._run(graph, config)) == baseline

    def test_shared_session_stats_span_all_versions(self, planted_workload):
        from repro.congest.config import CongestConfig

        graph, _ = planted_workload
        config = CongestConfig(engine="sharded", shards=2).with_log_budget(
            graph.number_of_nodes()
        )
        runner = BoostedNearCliqueRunner(
            epsilon=0.2,
            sample_probability=0.08,
            repetitions=3,
            engine="distributed",
            congest_config=config,
            rng=random.Random(7),
        )
        runner.run(graph)
        # One shared session -> exactly one stats entry, whose phase count
        # covers all three versions' composite pipelines.
        assert len(runner.session_stats_by_version) == 1
        (stats,) = runner.session_stats_by_version
        assert len(stats.phases) > 14
