"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.congest.config import CongestConfig
from repro.congest.network import Network
from repro.congest.vectorized import VectorizedEngine
from repro.graphs import generators


@pytest.fixture
def rng():
    """A deterministic random source for tests."""
    return random.Random(12345)


@pytest.fixture
def path_graph():
    """A 6-node path 0-1-2-3-4-5."""
    return nx.path_graph(6)


@pytest.fixture
def star_graph():
    """A star with centre 0 and leaves 1..6."""
    return nx.star_graph(6)


@pytest.fixture
def two_triangles():
    """Two disjoint triangles: {0,1,2} and {10,11,12}."""
    graph = nx.Graph()
    graph.add_edges_from([(0, 1), (1, 2), (0, 2), (10, 11), (11, 12), (10, 12)])
    return graph


@pytest.fixture
def small_clique_graph():
    """A 5-clique on 0..4 plus a pendant path 4-5-6."""
    graph = nx.complete_graph(5)
    graph.add_edges_from([(4, 5), (5, 6)])
    return graph


@pytest.fixture
def planted_workload():
    """A 60-node graph with a planted 0.008-near clique on half the nodes."""
    graph, planted = generators.planted_near_clique(
        n=60, clique_fraction=0.5, epsilon=0.2 ** 3, background_p=0.05, seed=7
    )
    return graph, planted


@pytest.fixture
def counterexample_workload():
    """The Claim 1 / Figure 1 graph with delta = 0.5 and 60 nodes."""
    return generators.shingles_counterexample(n=60, delta=0.5)


@pytest.fixture
def congest_config():
    """Default strict CONGEST configuration for a 64-node system."""
    return CongestConfig().with_log_budget(64)


def make_network(graph: nx.Graph, seed: int = 1) -> Network:
    """Helper used by several test modules to build a seeded network."""
    return Network(graph, seed=seed)


def round_trace(metrics):
    """A run's per-round trace, one tuple per round."""
    return [
        (
            r.round_index,
            r.messages_sent,
            r.bits_sent,
            r.max_message_bits,
            r.edges_used,
            r.active_nodes,
        )
        for r in metrics.per_round
    ]


def run_fingerprint(result):
    """Everything the engine contract keeps identical, as one value."""
    m = result.metrics
    return (
        result.outputs,
        m.rounds,
        m.total_messages,
        m.total_bits,
        m.max_message_bits,
        m.max_messages_per_round,
        round_trace(m),
    )


def without_kernel(protocol):
    """*protocol*, its kernel suppressed: the vectorized engine runs its callbacks."""
    protocol.vectorized_kernel = lambda: None
    return protocol


class CallbacksEngine(VectorizedEngine):
    """The vectorized engine with every protocol's kernel suppressed.

    ``CongestConfig(engine=CallbacksEngine())`` runs every phase of a
    composite runner on the callback loop.
    """

    name = "callbacks"

    def execute(self, network, protocol, *args, **kwargs):
        return super().execute(network, without_kernel(protocol), *args, **kwargs)
