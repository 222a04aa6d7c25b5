"""Integration tests: the distributed runner against the centralized oracle.

The main correctness statement of the implementation is that for a fixed
sample S the distributed CONGEST execution computes exactly the labels of
the centralized reference.  These tests exercise that equivalence across
graph families, plus the runner-specific behaviour (abort guard, metrics,
message-size discipline, label translation).
"""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest.config import CongestConfig
from repro.congest.engine import get_engine
from repro.congest.network import Network
from repro.core import near_clique, phases
from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.core.params import AlgorithmParameters
from repro.core.reference import CentralizedNearCliqueFinder
from repro.graphs import generators

from conftest import CallbacksEngine


def assert_equivalent(graph, epsilon, sample, seed=0, min_output_size=0):
    """Run both implementations on the same sample and compare them."""
    finder = CentralizedNearCliqueFinder(graph, epsilon, min_output_size=min_output_size)
    reference = finder.run_with_sample(sample)
    runner = DistNearCliqueRunner(
        epsilon=epsilon,
        sample_probability=0.1,
        min_output_size=min_output_size,
        max_sample_size=None,
        rng=random.Random(seed),
    )
    distributed = runner.run(graph, sample=sample)
    assert distributed.labels == reference.labels
    assert _candidate_keys(distributed) == _candidate_keys(reference)
    return distributed, reference


def _candidate_keys(result):
    return {
        (c.component_root, c.subset_index, c.members, c.survived)
        for c in result.candidates
    }


class TestEquivalenceWithReference:
    def test_planted_near_clique_various_samples(self, planted_workload):
        graph, _ = planted_workload
        finder = CentralizedNearCliqueFinder(graph, 0.2)
        for seed in range(5):
            sample = finder.draw_sample(0.1, random.Random(seed))
            assert_equivalent(graph, 0.2, sample, seed=seed)

    def test_counterexample_graph(self, counterexample_workload):
        graph, _ = counterexample_workload
        finder = CentralizedNearCliqueFinder(graph, 0.25)
        sample = finder.draw_sample(0.08, random.Random(3))
        assert_equivalent(graph, 0.25, sample)

    def test_two_disjoint_cliques(self):
        graph = nx.Graph()
        graph.add_edges_from(nx.complete_graph(8).edges())
        graph.add_edges_from((u + 20, v + 20) for u, v in nx.complete_graph(6).edges())
        assert_equivalent(graph, 0.2, {0, 1, 21, 22})

    def test_path_of_cliques_graph(self):
        graph, _ = generators.path_of_cliques(32)
        assert_equivalent(graph, 0.2, {0, 1, 2, 25, 26})

    def test_sparse_random_graph(self):
        graph = nx.gnp_random_graph(40, 0.08, seed=5)
        assert_equivalent(graph, 0.3, {1, 4, 9, 16, 25})

    def test_star_and_isolated_sample_nodes(self):
        graph = nx.star_graph(12)
        graph.add_node(50)
        assert_equivalent(graph, 0.2, {0, 3, 50})

    def test_empty_sample(self):
        graph = nx.complete_graph(12)
        distributed, reference = assert_equivalent(graph, 0.2, set())
        assert distributed.labelled_nodes == frozenset()

    def test_whole_graph_sampled_small(self):
        graph = nx.complete_graph(7)
        assert_equivalent(graph, 0.2, set(range(7)))

    def test_min_output_size_respected(self, planted_workload):
        graph, _ = planted_workload
        assert_equivalent(graph, 0.2, {0, 1, 2}, min_output_size=10)

    def test_epsilon_sweep(self, planted_workload):
        graph, _ = planted_workload
        for epsilon in (0.1, 0.15, 0.25, 0.3):
            assert_equivalent(graph, epsilon, {0, 4, 9, 41})


@st.composite
def _small_graphs(draw):
    """Random graphs on at most 10 nodes, one coin per node pair."""
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(pair for pair, keep in zip(pairs, present) if keep)
    return graph


class TestPaperOracleProperty:
    """On any small graph, the runner's output is the paper's K/T result.

    The distributed labels and candidate sets must equal those of the
    centralized operators
    (:class:`CentralizedNearCliqueFinder`) run on the sample the runner
    realised, for a forced sample and for coin flips alike, on every
    single-process synchronous engine.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        graph=_small_graphs(),
        engine=st.sampled_from(["reference", "vectorized"]),
        epsilon=st.sampled_from([0.1, 0.2, 0.3]),
        forced=st.booleans(),
        data=st.data(),
    )
    def test_runner_equals_the_centralized_operators(
        self, graph, engine, epsilon, forced, data
    ):
        sample = None
        if forced:
            sample = data.draw(st.sets(st.sampled_from(sorted(graph)), max_size=6))
        runner = DistNearCliqueRunner(
            epsilon=epsilon,
            sample_probability=0.4,
            max_sample_size=None,
            rng=random.Random(data.draw(st.integers(0, 2**16))),
            config=CongestConfig(engine=engine).with_log_budget(len(graph)),
        )
        result = runner.run(graph, sample=sample)
        if forced:
            assert result.sample == sample
        oracle = CentralizedNearCliqueFinder(graph, epsilon).run_with_sample(
            result.sample
        )
        assert result.labels == oracle.labels
        assert _candidate_keys(result) == _candidate_keys(oracle)


#: The exploration and decision phases, in the order the runner fuses them.
FUSED_PHASES = (
    "min-id-bfs-tree",
    "bfs-parent-notification",
    "convergecast-collect",
    "tree-broadcast",
    "nc-comp-dissemination",
    "nc-local-subsets",
    "nc-k-aggregation",
    "nc-k-size-broadcast",
    "nc-k-announce",
    "nc-t-aggregation",
    "nc-best-broadcast",
    "nc-vote",
    "nc-final-labels",
)


class _SpySession:
    """Wraps a session and records each call the runner makes on it."""

    def __init__(self, inner):
        self.inner = inner
        self.network = inner.network
        self.stats = inner.stats
        self.calls = []

    def execute(self, protocol, **kwargs):
        self.calls.append(("execute", [protocol.name]))
        return self.inner.execute(protocol, **kwargs)

    def execute_fused(self, protocols, **kwargs):
        self.calls.append(("execute_fused", [p.name for p in protocols]))
        return self.inner.execute_fused(protocols, **kwargs)


class TestRunnerBehaviour:
    def test_coin_flip_mode_draws_reasonable_sample(self, planted_workload):
        graph, _ = planted_workload
        runner = DistNearCliqueRunner(
            epsilon=0.2, sample_probability=0.15, rng=random.Random(5)
        )
        result = runner.run(graph)
        assert not result.aborted
        # |S| is Binomial(60, 0.15): anything within a generous band.
        assert 1 <= len(result.sample) <= 25

    def test_abort_guard_triggers(self):
        graph = nx.complete_graph(40)
        runner = DistNearCliqueRunner(
            epsilon=0.2, sample_probability=1.0, max_sample_size=6, rng=random.Random(1)
        )
        result = runner.run(graph)
        assert result.aborted
        assert result.labelled_nodes == frozenset()
        assert "exceeds" in result.abort_reason

    def test_round_limit_reported_as_abort(self, planted_workload):
        graph, _ = planted_workload
        config = CongestConfig(max_rounds=3).with_log_budget(60).with_max_rounds(3)
        runner = DistNearCliqueRunner(
            epsilon=0.2,
            sample_probability=0.1,
            rng=random.Random(2),
            config=config,
        )
        result = runner.run(graph, sample={0, 1, 2, 7})
        assert result.aborted
        assert "round limit" in result.abort_reason

    def test_messages_stay_within_log_budget(self, planted_workload):
        graph, _ = planted_workload
        runner = DistNearCliqueRunner(
            epsilon=0.2, sample_probability=0.1, rng=random.Random(3)
        )
        result = runner.run(graph, sample={0, 1, 5, 9})
        budget = CongestConfig().with_log_budget(graph.number_of_nodes())
        assert result.metrics.max_message_bits <= budget.message_bit_budget

    def test_metrics_breakdown_contains_all_phases(self, planted_workload):
        graph, _ = planted_workload
        runner = DistNearCliqueRunner(
            epsilon=0.2, sample_probability=0.1, rng=random.Random(3)
        )
        result = runner.run(graph, sample={0, 1, 5})
        breakdown = result.metrics.protocol_breakdown
        for phase in ("nc-sampling", "min-id-bfs-tree", "nc-k-aggregation", "nc-vote"):
            assert phase in breakdown

    @pytest.mark.parametrize(
        "fields",
        [
            pytest.param(dict(engine="reference"), id="reference"),
            pytest.param(dict(engine="vectorized"), id="vectorized"),
            pytest.param(dict(engine="sharded", shards=2), id="process"),
        ],
    )
    def test_runs_sampling_then_one_fused_call(self, fields):
        graph = nx.connected_caveman_graph(2, 8)
        network = Network(graph, seed=3)
        config = CongestConfig(**fields).with_log_budget(network.n)
        runner = DistNearCliqueRunner(
            epsilon=0.25, sample_probability=0.05, max_sample_size=None, config=config
        )
        with get_engine(config.engine).open_session(network, config) as session:
            spy = _SpySession(session)
            result = runner.run(network=network, sample=(0, 1, 9), session=spy)
        assert not result.aborted
        assert spy.calls == [
            ("execute", ["nc-sampling"]),
            ("execute_fused", list(FUSED_PHASES)),
        ]
        # Every phase's metrics are merged under its own name.
        assert list(result.metrics.protocol_breakdown) == [
            "nc-sampling",
            *FUSED_PHASES,
        ]
        breakdown = result.metrics.protocol_breakdown.values()
        assert sum(m.rounds for m in breakdown) == result.metrics.rounds
        assert sum(m.total_bits for m in breakdown) == result.metrics.total_bits

    def test_round_complexity_scales_with_two_to_sample(self, planted_workload):
        graph, _ = planted_workload
        from repro.analysis import theory

        runner = DistNearCliqueRunner(
            epsilon=0.2, sample_probability=0.1, rng=random.Random(4)
        )
        for sample in ({0, 1}, {0, 1, 2, 3}, {0, 1, 2, 3, 4, 5}):
            result = runner.run(graph, sample=sample)
            bound = theory.lemma_5_1_round_bound(len(sample))
            assert result.metrics.rounds <= bound

    def test_non_integer_labels_translated_back(self):
        labels = ["a", "b", "c", "d", "e", "f"]
        graph = nx.Graph()
        graph.add_edges_from(
            (labels[i], labels[j])
            for i in range(len(labels))
            for j in range(i + 1, len(labels))
        )
        runner = DistNearCliqueRunner(
            epsilon=0.2, sample_probability=0.5, rng=random.Random(6)
        )
        result = runner.run(graph, sample={"a", "b"})
        assert set(result.labels) == set(labels)
        assert result.largest_cluster() <= set(labels)
        # For a 6-clique and a sampled pair {a, b}, the best subset is a
        # singleton X = {a}: K_{2eps^2}(X) is the other five vertices and all
        # of them survive into T_eps(X).
        assert len(result.largest_cluster()) == 5

    def test_requires_epsilon_and_probability(self):
        with pytest.raises(ValueError):
            DistNearCliqueRunner()

    def test_accepts_parameters_record(self, planted_workload):
        graph, _ = planted_workload
        params = AlgorithmParameters(epsilon=0.2, sample_probability=0.1)
        runner = DistNearCliqueRunner(parameters=params, rng=random.Random(8))
        result = runner.run(graph, sample={0, 2})
        assert not result.aborted

    def test_labels_match_candidate_membership(self, planted_workload):
        graph, _ = planted_workload
        runner = DistNearCliqueRunner(
            epsilon=0.2, sample_probability=0.1, rng=random.Random(9)
        )
        result = runner.run(graph, sample={0, 1, 2, 11})
        for candidate in result.candidates:
            if candidate.survived:
                for node in candidate.members:
                    assert result.labels[node] == candidate.component_root

    def test_output_density_guarantee_lemma_5_3(self, planted_workload):
        graph, _ = planted_workload
        n = graph.number_of_nodes()
        runner = DistNearCliqueRunner(
            epsilon=0.2, sample_probability=0.1, rng=random.Random(10)
        )
        result = runner.run(graph, sample={0, 1, 4, 8})
        for candidate in result.candidates:
            if candidate.size <= 1:
                continue
            bound = near_clique.lemma_5_3_defect_bound(n, candidate.size, 0.2)
            assert (
                near_clique.near_clique_defect(graph, candidate.members)
                <= bound + 1e-9
            )

    def test_step4f_sampling_mode_runs(self, planted_workload):
        graph, _ = planted_workload
        runner = DistNearCliqueRunner(
            epsilon=0.2,
            sample_probability=0.1,
            use_step4f_sampling=True,
            step4f_sample_size=8,
            rng=random.Random(11),
        )
        result = runner.run(graph, sample={0, 1, 2})
        assert not result.aborted
        # Estimation can shrink the output but the run must stay valid.
        assert result.largest_cluster_density(graph) >= 0.6 or not result.largest_cluster()


#: The planted Step 4f run of :class:`TestStep4fSampling`: the labelled
#: nodes (all labelled with root 0) and every audience node's ``T_ε(X)``
#: membership as subset indices of the component {0, 1, 2}.  30 of the 35
#: audience nodes have more than 8 neighbours and estimate their counts
#: from a sample; 12 memberships and 3 labels differ from the exact run's.
STEP4F_LABELLED = frozenset(
    {0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 19, 20}
    | {21, 22, 23, 24, 25, 26, 27, 28, 29}
)
_ALL_SUBSETS = [1, 2, 3, 4, 5, 6, 7]
STEP4F_T_MEMBERSHIP = {
    0: [2, 4, 6], 1: [4, 5], 2: [2], 3: _ALL_SUBSETS, 4: _ALL_SUBSETS,
    5: [2, 3, 6], 6: [1, 2, 3, 4, 5, 6], 7: _ALL_SUBSETS, 8: _ALL_SUBSETS,
    9: [2, 4, 5, 6], 10: _ALL_SUBSETS, 11: [1, 2, 3, 5, 6, 7],
    12: [1, 2, 3, 4, 5], 13: _ALL_SUBSETS, 14: _ALL_SUBSETS, 15: _ALL_SUBSETS,
    16: _ALL_SUBSETS, 17: [1, 2, 3, 5], 18: [1, 3, 4, 5, 6, 7],
    19: _ALL_SUBSETS, 20: _ALL_SUBSETS, 21: [2, 4, 6], 22: [1, 2, 3],
    23: _ALL_SUBSETS, 24: [2, 3, 4, 5, 6, 7], 25: _ALL_SUBSETS, 26: [1, 2, 3],
    27: _ALL_SUBSETS, 28: _ALL_SUBSETS, 29: _ALL_SUBSETS,
    30: [], 33: [], 36: [], 46: [], 59: [],
}


class TestStep4fSampling:
    """Section 5.3's Step 4f estimate, pinned to literal decisions.

    Every node of degree above the sample size draws its sample of
    neighbours from ``ctx.rng``, so the run's memberships and labels are a
    function of the network seed; each engine must reproduce them exactly.
    """

    @pytest.mark.parametrize(
        "fields",
        [
            pytest.param(dict(engine="reference"), id="reference"),
            pytest.param(dict(engine=CallbacksEngine()), id="callbacks"),
            pytest.param(dict(engine="vectorized"), id="vectorized"),
            pytest.param(dict(engine="sharded", shards=2), id="process"),
        ],
    )
    def test_planted_run_is_pinned(self, planted_workload, fields):
        graph, _ = planted_workload
        network = Network(graph, seed=11)
        runner = DistNearCliqueRunner(
            epsilon=0.2,
            sample_probability=0.1,
            use_step4f_sampling=True,
            step4f_sample_size=8,
            max_sample_size=None,
            config=CongestConfig(**fields).with_log_budget(network.n),
        )
        result = runner.run(network=network, sample={0, 1, 2})
        assert not result.aborted
        assert {v for v, label in result.labels.items() if label is not None} == (
            STEP4F_LABELLED
        )
        assert set(result.labels.values()) == {0, None}
        memberships = {
            ctx.node_id: ctx.state[phases.KEY_T_MEMBERSHIP]
            for ctx in network.contexts.live.values()
            if phases.KEY_T_MEMBERSHIP in ctx.state
        }
        assert {v: sorted(t[0]) for v, t in memberships.items()} == (
            STEP4F_T_MEMBERSHIP
        )
        assert all(list(t) == [0] for t in memberships.values())
