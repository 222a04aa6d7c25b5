"""White-box tests for individual DistNearClique phases.

The integration tests assert end-to-end equivalence with the oracle; the
tests here pin down the intermediate invariants of the CONGEST phases (who
samples, who attaches where, what the roots aggregate), which makes protocol
regressions much easier to localise.
"""

from __future__ import annotations

import random

import pytest

from repro.congest.config import CongestConfig
from repro.congest.engine import get_engine
from repro.congest.network import Network
from repro.congest.scheduler import run_protocol
from repro.core import near_clique, phases
from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.core.reference import CentralizedNearCliqueFinder
from repro.graphs import generators
from repro.primitives.bfs_tree import (
    KEY_PARTICIPANT,
    KEY_ROOT,
    MinIdBFSTreeProtocol,
    ParentNotificationProtocol,
)
from repro.primitives.broadcast import TreeBroadcastProtocol
from repro.primitives.convergecast import KEY_COLLECTED, ConvergecastCollectProtocol

from conftest import CallbacksEngine


def run_pipeline_until(graph, sample, epsilon, last_phase_index, seed=1):
    """Run the DistNearClique phase sequence up to (and incl.) an index."""
    network = Network(graph, seed=seed)
    config = CongestConfig().with_log_budget(network.n)
    global_inputs = {
        phases.GLOBAL_EPSILON: epsilon,
        phases.GLOBAL_SAMPLE_PROBABILITY: 0.0,
        phases.GLOBAL_MIN_OUTPUT_SIZE: 0,
        phases.GLOBAL_STEP4F_SAMPLING: False,
        phases.GLOBAL_STEP4F_SAMPLE_SIZE: 32,
    }
    per_node = {
        v: {phases.KEY_FORCED_SAMPLE: v in sample} for v in network.node_ids
    }
    sequence = [
        phases.SamplingPhase(),
        MinIdBFSTreeProtocol(),
        ParentNotificationProtocol(),
        ConvergecastCollectProtocol(),
        TreeBroadcastProtocol(input_key=KEY_COLLECTED, output_key=phases.KEY_COMP_BCAST),
        phases.CompDisseminationPhase(),
        phases.LocalSubsetPhase(),
        phases.UpAggregationPhase(
            membership_key=phases.KEY_K_MEMBERSHIP,
            result_key=phases.KEY_K_ROOT_SIZES,
            label="nc-k-aggregation",
        ),
        phases.DownBroadcastPhase(
            items_fn=phases.k_size_items,
            store_fn=phases.store_k_size,
            label="nc-k-size-broadcast",
        ),
        phases.KAnnouncePhase(),
        phases.UpAggregationPhase(
            membership_key=phases.KEY_T_MEMBERSHIP,
            result_key=phases.KEY_T_ROOT_SIZES,
            pre_start=phases.build_t_membership,
            root_finalize=phases.select_best_subset,
            label="nc-t-aggregation",
        ),
        phases.DownBroadcastPhase(
            items_fn=phases.best_items,
            store_fn=phases.store_best,
            label="nc-best-broadcast",
        ),
        phases.VotePhase(),
        phases.FinalLabelPhase(),
    ]
    first = True
    for phase in sequence[: last_phase_index + 1]:
        run_protocol(
            network,
            phase,
            config=config,
            global_inputs=global_inputs if first else None,
            per_node_inputs=per_node if first else None,
            reuse_contexts=not first,
        )
        first = False
    return network


@pytest.fixture
def workload():
    graph, planted = generators.planted_near_clique(
        n=40, clique_fraction=0.5, epsilon=0.008, background_p=0.06, seed=3
    )
    return graph, planted


SAMPLE = {0, 2, 5, 30}
EPS = 0.2


class TestSamplingPhase:
    def test_forced_sample_respected(self, workload):
        graph, _ = workload
        network = run_pipeline_until(graph, SAMPLE, EPS, 0)
        in_sample = {
            v
            for v, ctx in network.contexts.items()
            if ctx.state.get(phases.KEY_IN_SAMPLE)
        }
        assert in_sample == SAMPLE

    def test_coin_flip_probability_extremes(self, workload):
        graph, _ = workload
        network = Network(graph, seed=5)
        run_protocol(
            network,
            phases.SamplingPhase(),
            global_inputs={phases.GLOBAL_SAMPLE_PROBABILITY: 1.0, phases.GLOBAL_EPSILON: EPS},
        )
        assert all(
            ctx.state[phases.KEY_IN_SAMPLE] for ctx in network.contexts.values()
        )


    @pytest.mark.parametrize(
        "engine_name",
        ["reference", "vectorized", pytest.param(CallbacksEngine(), id="callbacks")],
    )
    @pytest.mark.parametrize("forced", [True, False])
    def test_only_sampled_nodes_hold_the_sample_keys(self, workload, engine_name, forced):
        graph, _ = workload
        network = Network(graph, seed=5)
        global_inputs = {phases.GLOBAL_SAMPLE_PROBABILITY: 0.3}
        per_node_inputs = None
        if forced:
            # The runner's form: inputs for the members only.
            global_inputs[phases.GLOBAL_FORCED_SAMPLE] = True
            per_node_inputs = {v: {phases.KEY_FORCED_SAMPLE: True} for v in SAMPLE}
        result = get_engine(engine_name).execute(
            network,
            phases.SamplingPhase(),
            global_inputs=global_inputs,
            per_node_inputs=per_node_inputs,
        )
        sampled = {v for v, in_sample in result.outputs.items() if in_sample}
        if forced:
            assert sampled == SAMPLE
        assert 0 < len(sampled) < graph.number_of_nodes()
        for v, ctx in result.contexts.items():
            expected = {}
            if v in sampled:
                if forced:
                    expected[phases.KEY_FORCED_SAMPLE] = True
                expected.update({phases.KEY_IN_SAMPLE: True, KEY_PARTICIPANT: True})
            assert ctx.state == expected

    def test_full_per_node_forced_inputs_give_the_runner_labels(self, workload):
        # Explicit per-node False inputs (the pre-global form) still force
        # nodes out and reproduce the runner's labels phase for phase.
        graph, _ = workload
        network = run_pipeline_until(graph, SAMPLE, EPS, 13)
        runner = DistNearCliqueRunner(
            epsilon=EPS, sample_probability=0.0, rng=random.Random(1)
        )
        result = runner.run(graph, sample=SAMPLE)
        assert result.sample == SAMPLE
        assert result.labelled_nodes
        assert {v: ctx.output for v, ctx in network.contexts.items()} == result.labels


class TestCompDissemination:
    def test_neighbors_learn_component_membership(self, workload):
        graph, _ = workload
        network = run_pipeline_until(graph, SAMPLE, EPS, 5)
        finder = CentralizedNearCliqueFinder(graph, EPS)
        components = finder.sample_components(SAMPLE)
        for members in components:
            member_set = set(members)
            for ctx in network.contexts.values():
                node = ctx.node_id
                if node in SAMPLE:
                    continue
                adjacent = set(graph[node]) & member_set
                records = ctx.state.get(phases.KEY_ADJ_COMPONENTS, {})
                if adjacent:
                    assert members[0] in records
                    assert set(records[members[0]]["members"]) == member_set
                    assert set(records[members[0]]["senders"]) == adjacent
                else:
                    assert members[0] not in records


class TestLocalSubsetPhase:
    def test_attach_parents_belong_to_component(self, workload):
        graph, _ = workload
        network = run_pipeline_until(graph, SAMPLE, EPS, 6)
        for ctx in network.contexts.values():
            attach = ctx.state.get(phases.KEY_ATTACH_PARENT, {})
            for root, parent in attach.items():
                assert parent in SAMPLE
                assert network.contexts[parent].state[KEY_ROOT] == root
                assert graph.has_edge(ctx.node_id, parent)

    def test_attached_leaves_match_attach_parents(self, workload):
        graph, _ = workload
        network = run_pipeline_until(graph, SAMPLE, EPS, 6)
        expected = {v: set() for v in SAMPLE}
        for ctx in network.contexts.values():
            for _root, parent in ctx.state.get(phases.KEY_ATTACH_PARENT, {}).items():
                expected[parent].add(ctx.node_id)
        for member in SAMPLE:
            assert (
                set(network.contexts[member].state.get(phases.KEY_ATTACHED_LEAVES, set()))
                == expected[member]
            )

    def test_k_membership_matches_direct_evaluation(self, workload):
        graph, _ = workload
        network = run_pipeline_until(graph, SAMPLE, EPS, 6)
        finder = CentralizedNearCliqueFinder(graph, EPS)
        components = finder.sample_components(SAMPLE)
        inner = 2 * EPS * EPS
        for members in components:
            for ctx in network.contexts.values():
                memberships = ctx.state.get(phases.KEY_K_MEMBERSHIP, {})
                indices = memberships.get(members[0], set())
                for index in range(1, 1 << len(members)):
                    subset = near_clique.subset_from_index(members, index)
                    expected = near_clique.meets_fraction(
                        len(set(graph[ctx.node_id]) & set(subset)), len(subset), inner
                    )
                    if ctx.node_id in SAMPLE or members[0] in ctx.state.get(
                        phases.KEY_ADJ_COMPONENTS, {}
                    ) or (ctx.node_id in set(members)):
                        if ctx.node_id in set(members) or set(graph[ctx.node_id]) & set(members):
                            assert (index in indices) == expected


class TestAggregationAndBroadcast:
    def test_root_k_sizes_match_oracle(self, workload):
        graph, _ = workload
        network = run_pipeline_until(graph, SAMPLE, EPS, 7)
        finder = CentralizedNearCliqueFinder(graph, EPS)
        for members in finder.sample_components(SAMPLE):
            analysis = finder.analyze_component(members)
            root_ctx = network.contexts[members[0]]
            sizes = root_ctx.state.get(phases.KEY_K_ROOT_SIZES) or {}
            for index, k_set in analysis.k_sets.items():
                assert sizes.get(index, 0) == len(k_set)

    def test_k_sizes_broadcast_reaches_audience(self, workload):
        graph, _ = workload
        network = run_pipeline_until(graph, SAMPLE, EPS, 8)
        finder = CentralizedNearCliqueFinder(graph, EPS)
        for members in finder.sample_components(SAMPLE):
            analysis = finder.analyze_component(members)
            nonzero = {i: len(k) for i, k in analysis.k_sets.items() if k}
            for node in analysis.audience:
                received = network.contexts[node].state.get(phases.KEY_K_SIZES, {})
                assert received.get(members[0], {}) == nonzero

    def test_root_t_sizes_and_best_match_oracle(self, workload):
        graph, _ = workload
        network = run_pipeline_until(graph, SAMPLE, EPS, 10)
        finder = CentralizedNearCliqueFinder(graph, EPS)
        for members in finder.sample_components(SAMPLE):
            analysis = finder.analyze_component(members)
            root_ctx = network.contexts[members[0]]
            best = root_ctx.state.get(phases.KEY_BEST)
            assert best == (analysis.best_index, analysis.best_size)

    def test_vote_phase_marks_survivors_like_oracle(self, workload):
        graph, _ = workload
        network = run_pipeline_until(graph, SAMPLE, EPS, 13)
        finder = CentralizedNearCliqueFinder(graph, EPS)
        analyses = [
            finder.analyze_component(members)
            for members in finder.sample_components(SAMPLE)
        ]
        survived, _ = finder.decide(analyses)
        for analysis in analyses:
            root_ctx = network.contexts[analysis.root]
            assert bool(root_ctx.state.get(phases.KEY_SURVIVED)) == survived[analysis.root]


class TestVoteChoiceRule:
    def test_choice_prefers_larger_size_then_larger_root(self):
        best_known = {3: (1, 10), 9: (2, 10), 5: (1, 12)}
        assert phases.VotePhase._choice(best_known) == 5
        best_known = {3: (1, 10), 9: (2, 10)}
        assert phases.VotePhase._choice(best_known) == 9


class TestSelectBestSubset:
    def test_ties_break_to_smallest_index(self):
        class FakeCtx:
            state = {phases.KEY_COMP_MEMBERS: (1, 2)}
            globals = {}

        ctx = FakeCtx()
        phases.select_best_subset(ctx, {1: 4, 2: 4, 3: 4})
        assert ctx.state[phases.KEY_BEST] == (1, 4)

    def test_missing_counters_treated_as_zero(self):
        class FakeCtx:
            state = {phases.KEY_COMP_MEMBERS: (1, 2, 3)}
            globals = {}

        ctx = FakeCtx()
        phases.select_best_subset(ctx, {5: 2})
        assert ctx.state[phases.KEY_BEST] == (5, 2)

    @pytest.mark.parametrize(
        "members, counters, expected",
        [
            ((1, 2, 3), {}, (1, 0)),
            ((1, 2, 3), {3: 0, 6: 0}, (1, 0)),
            ((), {}, (0, 0)),
            ((1, 2, 3), {6: 3, 2: 1, 5: 3, 7: 2}, (5, 3)),
        ],
    )
    def test_empty_all_zero_and_largest_count(self, members, counters, expected):
        class FakeCtx:
            state = {phases.KEY_COMP_MEMBERS: members}
            globals = {}

        ctx = FakeCtx()
        phases.select_best_subset(ctx, counters)
        assert ctx.state[phases.KEY_BEST] == expected
