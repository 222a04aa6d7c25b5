"""The sparse node registry: a run builds contexts only for the nodes it touches.

After sampling, ``DistNearClique`` involves only S ∪ Γ(S) (Section 4), so a
forced-sample run on the fast engines must build a context for those nodes
and no others, while every node it never touches reads, through
:meth:`ContextRegistry.peek` or a late build, exactly the halt flag, round
counter, seed and globals the reference shows.  Coin-flip sampling
computes every coin as one column and builds contexts only for S.
"""

from __future__ import annotations

import random

import networkx as nx
import numpy as np
import pytest

from repro.congest.config import CongestConfig
from repro.congest.engine import get_engine
from repro.congest.network import Network
from repro.congest.node import NodeContext
from repro.congest.randomness import node_coin_column, node_seed_column
from repro.core import phases
from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.core.reference import CentralizedNearCliqueFinder
from repro.graphs import generators

from conftest import CallbacksEngine

#: The two in-process engines, the vectorized engine with every kernel
#: suppressed (so the callback loop runs the kernel-covered phases on zero
#: nodes too), and the sharded engine: a zero-node network still opens (and
#: closes) its session, which runs the phases in-process.
EMPTY_GRAPH_ARMS = {
    "reference": dict(engine="reference"),
    "vectorized": dict(engine="vectorized"),
    "callbacks": dict(engine=CallbacksEngine()),
    "process": dict(engine="sharded", shards=2),
}


def _block_pairs(n=20000, blocks=20, seed=16):
    """A seeded block graph as a pair array: random intra-block pairs, a ring
    through every node, and a 30-node clique on ids 0..29."""
    rng = np.random.default_rng(seed)
    size = n // blocks
    block = rng.integers(0, blocks, size=2 * n)
    pairs = block[:, None] * size + rng.integers(0, size, size=(2 * n, 2))
    clique = np.array([(u, v) for u in range(30) for v in range(u + 1, 30)])
    ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    pairs = np.concatenate([pairs, clique, ring])
    return pairs[pairs[:, 0] != pairs[:, 1]]


class TestForcedSampleSparsity:
    def test_only_the_involved_nodes_get_a_context(self, monkeypatch):
        pairs = _block_pairs()
        network = Network(pairs, seed=3)
        n = network.n
        sample = list(range(6))
        involved = set(sample).union(*(network.neighbors(v) for v in sample))

        built = []
        init = NodeContext.__init__

        def counting_init(ctx, *args, **kwargs):
            built.append(args[0] if args else kwargs["node_id"])
            init(ctx, *args, **kwargs)

        monkeypatch.setattr(NodeContext, "__init__", counting_init)
        result = DistNearCliqueRunner(
            epsilon=0.2,
            sample_probability=1.0 / n,
            max_sample_size=None,
            config=CongestConfig(engine="vectorized").with_log_budget(n),
        ).run(network=network, sample=sample)
        monkeypatch.setattr(NodeContext, "__init__", init)

        contexts = network.contexts
        receivers = {
            ctx.node_id
            for ctx in contexts.live.values()
            if any(
                record["count"]
                for record in ctx.state.get(
                    phases.KEY_K_NEIGHBOR_ANNOUNCERS, {}
                ).values()
            )
        }
        assert {ctx.node_id for ctx in contexts.live.values()} == involved
        assert len(built) <= len(involved) + len(receivers)
        assert len(built) < n // 10

        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(pairs.tolist())
        oracle = CentralizedNearCliqueFinder(graph, 0.2).run_with_sample(sample)
        assert result.labels == oracle.labels
        assert list(result.labels) == network.node_ids
        assert any(label is not None for label in result.labels.values())


class TestLateContextsMatchTheReference:
    def test_every_node_reads_like_the_reference(self):
        # The callback loop starts every node of the two unscoped phases
        # (sampling, comp-dissemination), so only the kernels leave nodes
        # without a context.
        engine_name = "vectorized"
        graph, _ = generators.planted_near_clique(
            n=60, clique_fraction=0.4, epsilon=0.01, background_p=0.03, seed=8
        )
        sample = [0, 1, 2, 3]
        networks = {}
        for name in ("reference", engine_name):
            networks[name] = network = Network(graph, seed=77)
            DistNearCliqueRunner(
                epsilon=0.25,
                sample_probability=0.1,
                max_sample_size=None,
                config=CongestConfig(engine=name).with_log_budget(network.n),
            ).run(network=network, sample=sample)
        expected, contexts = networks["reference"].contexts, networks[engine_name].contexts
        assert len(contexts.live) < len(contexts)

        def slots(ctx):
            # The outbox and neighbour-set caches are objects of their own;
            # the chain differential compares the outbox by content.
            state = {k: v for k, v in ctx.state.items() if not k.startswith("__")}
            return (
                state, ctx.output, ctx._halted, ctx._round, ctx.seed,
                ctx.globals, ctx.neighbors, ctx._outgoing,
            )

        for node_id in expected:
            assert slots(contexts.peek(node_id)) == slots(expected[node_id])
        unbuilt = [v for v in contexts if contexts.get_live(v) is None]
        assert unbuilt
        for node_id in unbuilt:
            # Built late, through the mapping: the same context.
            assert slots(contexts[node_id]) == slots(expected[node_id])
        assert len(contexts.live) == len(contexts)


class TestCoinFlipSampling:
    def test_labels_and_rng_streams_equal_the_reference(self):
        graph, _ = generators.planted_near_clique(
            n=40, clique_fraction=0.5, epsilon=0.01, background_p=0.05, seed=2
        )
        outcomes = {}
        for name in ("reference", "vectorized"):
            network = Network(graph, seed=5)
            result = DistNearCliqueRunner(
                epsilon=0.25,
                sample_probability=0.1,
                rng=random.Random(9),
                config=CongestConfig(engine=name).with_log_budget(network.n),
            ).run(network=network)
            contexts = network.contexts
            built = {ctx.node_id for ctx in contexts.live.values()}
            outcomes[name] = (
                result.labels,
                result.sample,
                [contexts.peek(v).rng.getstate() for v in network.node_ids],
            )
            if name == "vectorized":
                # Contexts exist for S and the nodes later phases touch:
                # comp-dissemination reaches Γ(S), nothing else.
                sample = set(result.sample)
                reached = sample.union(*(network.neighbors(v) for v in sample))
                assert sample and sample <= built <= reached
                assert len(built) < network.n
            else:
                assert len(built) == network.n
        assert outcomes["vectorized"] == outcomes["reference"]

    def test_sample_is_the_column_of_coins_below_p(self):
        n, p = 20000, 8 / 20000
        network = Network(_block_pairs(n), seed=1)
        result = DistNearCliqueRunner(
            epsilon=0.2, sample_probability=p, max_sample_size=None
        ).run(network=network)
        coins = node_coin_column(node_seed_column(1, np.arange(n)))
        assert sorted(result.sample) == np.flatnonzero(coins < p).tolist()
        assert len(network.contexts.live) < n // 10


class TestEmptyGraph:
    @pytest.mark.parametrize("arm", sorted(EMPTY_GRAPH_ARMS))
    @pytest.mark.parametrize("sample", [None, []], ids=["coin", "forced"])
    def test_empty_graph_runs_like_the_oracle(self, arm, sample):
        result = DistNearCliqueRunner(
            epsilon=0.2,
            sample_probability=0.5,
            config=CongestConfig(**EMPTY_GRAPH_ARMS[arm]),
        ).run(graph=nx.Graph(), sample=sample)
        oracle = CentralizedNearCliqueFinder(nx.Graph(), 0.2).run_with_sample([])
        assert not result.aborted
        assert result.labels == oracle.labels == {}
        assert result.candidates == []
        assert result.sample == frozenset()

    def test_empty_registry_is_built(self):
        network = Network(nx.Graph())
        contexts = network.build_contexts()
        assert network.contexts is contexts
        assert len(contexts) == 0 and list(contexts) == []
        result = get_engine("vectorized").execute(
            network, phases.SamplingPhase(), reuse_contexts=True
        )
        assert result.outputs == {}


class TestLazyAdjacency:
    def test_tuples_are_sliced_on_first_access_and_deltas_replace_only_theirs(self):
        network = Network(nx.path_graph(6), seed=0)
        assert network._rows.cache == {}
        assert network.neighbors(2) == (1, 3)
        assert network.degree(4) == 2
        assert network.has_edge(2, 3) and not network.has_edge(2, 4)
        assert sorted(network._rows.cache) == [2, 4]
        kept = network.neighbors(4)
        network.apply_delta(additions=[(2, 5)], removals=[(2, 1)])
        assert network.neighbors(2) == (3, 5)
        assert network.neighbors(4) is kept
        assert network.neighbors(1) == (0,)
        assert network.neighbors(5) == (2, 4)
