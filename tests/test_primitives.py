"""Tests for the distributed primitives (BFS tree, convergecast, broadcast)."""

from __future__ import annotations

import networkx as nx

from repro.congest.config import CongestConfig
from repro.congest.network import Network
from repro.congest.scheduler import run_protocol
from repro.primitives.bfs_tree import (
    KEY_PARTICIPANT,
    MinIdBFSTreeProtocol,
    ParentNotificationProtocol,
)
from repro.primitives.broadcast import (
    KEY_BROADCAST_OUTPUT,
    TreeBroadcastProtocol,
)
from repro.primitives.convergecast import KEY_COLLECTED, ConvergecastCollectProtocol
from repro.primitives.leader_election import MinIdFloodingProtocol
from repro.primitives.pipelines import Outbox, chunk_id_list
from repro.congest.node import NodeContext
from repro.congest.message import Message


def _participants(graph, nodes=None):
    chosen = set(graph.nodes()) if nodes is None else set(nodes)
    return {v: {KEY_PARTICIPANT: v in chosen} for v in graph.nodes()}


def _build_tree(network, per_node):
    run_protocol(network, MinIdBFSTreeProtocol(), per_node_inputs=per_node)
    run_protocol(network, ParentNotificationProtocol(), reuse_contexts=True)


class TestMinIdBFSTree:
    def test_single_component_root_is_min(self):
        graph = nx.gnp_random_graph(15, 0.3, seed=2)
        graph.add_edges_from(nx.path_graph(15).edges())  # ensure connectivity
        network = Network(graph, seed=1)
        result = run_protocol(
            network, MinIdBFSTreeProtocol(), per_node_inputs=_participants(graph)
        )
        assert all(out.root == 0 for out in result.outputs.values())

    def test_depth_matches_bfs_distance(self):
        graph = nx.path_graph(7)
        network = Network(graph, seed=1)
        result = run_protocol(
            network, MinIdBFSTreeProtocol(), per_node_inputs=_participants(graph)
        )
        for node, out in result.outputs.items():
            assert out.depth == node  # distance from node 0 on a path

    def test_parent_is_neighbor_and_closer_to_root(self):
        graph = nx.gnp_random_graph(20, 0.25, seed=5)
        graph.add_edges_from(nx.cycle_graph(20).edges())
        network = Network(graph, seed=1)
        result = run_protocol(
            network, MinIdBFSTreeProtocol(), per_node_inputs=_participants(graph)
        )
        for node, out in result.outputs.items():
            if out.parent is None:
                assert out.depth == 0
                assert node == out.root
            else:
                assert graph.has_edge(node, out.parent)
                assert result.outputs[out.parent].depth == out.depth - 1

    def test_multiple_components_get_distinct_roots(self, two_triangles):
        network = Network(two_triangles, seed=1)
        result = run_protocol(
            network,
            MinIdBFSTreeProtocol(),
            per_node_inputs=_participants(two_triangles),
        )
        assert {result.outputs[v].root for v in (0, 1, 2)} == {0}
        assert {result.outputs[v].root for v in (10, 11, 12)} == {10}

    def test_non_participants_excluded(self):
        graph = nx.path_graph(5)
        network = Network(graph, seed=1)
        # Node 2 does not participate: 0-1 and 3-4 become separate components.
        per_node = _participants(graph, nodes={0, 1, 3, 4})
        result = run_protocol(network, MinIdBFSTreeProtocol(), per_node_inputs=per_node)
        assert result.outputs[2] is None
        assert result.outputs[0].root == 0 and result.outputs[1].root == 0
        assert result.outputs[3].root == 3 and result.outputs[4].root == 3

    def test_isolated_participant_is_its_own_root(self):
        graph = nx.path_graph(3)
        per_node = _participants(graph, nodes={2})
        result = run_protocol(
            Network(graph, seed=1), MinIdBFSTreeProtocol(), per_node_inputs=per_node
        )
        assert result.outputs[2].root == 2
        assert result.outputs[2].parent is None

    def test_messages_respect_log_budget(self):
        graph = nx.gnp_random_graph(40, 0.15, seed=3)
        config = CongestConfig().with_log_budget(40)
        result = run_protocol(
            Network(graph, seed=2),
            MinIdBFSTreeProtocol(),
            config=config,
            per_node_inputs=_participants(graph),
        )
        assert result.metrics.max_message_bits <= config.message_bit_budget


class TestParentNotification:
    def test_children_are_consistent_with_parents(self):
        graph = nx.gnp_random_graph(18, 0.3, seed=7)
        graph.add_edges_from(nx.path_graph(18).edges())
        network = Network(graph, seed=1)
        per_node = _participants(graph)
        tree = run_protocol(network, MinIdBFSTreeProtocol(), per_node_inputs=per_node)
        children = run_protocol(
            network, ParentNotificationProtocol(), reuse_contexts=True
        )
        for node, kids in children.outputs.items():
            for child in kids:
                assert tree.outputs[child].parent == node

    def test_child_counts_sum_to_non_roots(self):
        graph = nx.cycle_graph(11)
        network = Network(graph, seed=1)
        per_node = _participants(graph)
        run_protocol(network, MinIdBFSTreeProtocol(), per_node_inputs=per_node)
        children = run_protocol(
            network, ParentNotificationProtocol(), reuse_contexts=True
        )
        total_children = sum(len(kids) for kids in children.outputs.values())
        assert total_children == graph.number_of_nodes() - 1  # one root


class TestConvergecastCollect:
    def test_root_learns_whole_component(self):
        graph = nx.gnp_random_graph(16, 0.3, seed=9)
        graph.add_edges_from(nx.path_graph(16).edges())
        network = Network(graph, seed=1)
        per_node = _participants(graph)
        _build_tree(network, per_node)
        collected = run_protocol(
            network, ConvergecastCollectProtocol(), reuse_contexts=True
        )
        assert collected.outputs[0] == sorted(graph.nodes())
        assert all(
            value is None for node, value in collected.outputs.items() if node != 0
        )

    def test_two_components_collect_separately(self, two_triangles):
        network = Network(two_triangles, seed=1)
        per_node = _participants(two_triangles)
        _build_tree(network, per_node)
        collected = run_protocol(
            network, ConvergecastCollectProtocol(), reuse_contexts=True
        )
        assert collected.outputs[0] == [0, 1, 2]
        assert collected.outputs[10] == [10, 11, 12]

    def test_partial_participation(self):
        graph = nx.complete_graph(8)
        network = Network(graph, seed=1)
        per_node = _participants(graph, nodes={1, 3, 5})
        _build_tree(network, per_node)
        collected = run_protocol(
            network, ConvergecastCollectProtocol(), reuse_contexts=True
        )
        assert collected.outputs[1] == [1, 3, 5]


class TestTreeBroadcast:
    def test_everyone_receives_root_items(self):
        graph = nx.gnp_random_graph(14, 0.3, seed=13)
        graph.add_edges_from(nx.path_graph(14).edges())
        network = Network(graph, seed=1)
        per_node = _participants(graph)
        _build_tree(network, per_node)
        collected = run_protocol(
            network, ConvergecastCollectProtocol(), reuse_contexts=True
        )
        broadcast = run_protocol(
            network,
            TreeBroadcastProtocol(input_key=KEY_COLLECTED, output_key=KEY_BROADCAST_OUTPUT),
            reuse_contexts=True,
        )
        expected = collected.outputs[0]
        assert all(out == expected for out in broadcast.outputs.values())

    def test_broadcast_of_tuples(self):
        graph = nx.path_graph(5)
        network = Network(graph, seed=1)
        per_node = _participants(graph)
        _build_tree(network, per_node)
        network.build_contexts(
            per_node_inputs={0: {"payload": [(1, 2), (3, 4)]}}, fresh=False
        )
        broadcast = run_protocol(
            network,
            TreeBroadcastProtocol(input_key="payload", output_key="received"),
            reuse_contexts=True,
        )
        assert broadcast.outputs[4] == [(1, 2), (3, 4)]

    def test_pipelined_round_complexity(self):
        # Broadcasting m items over a path of length h takes O(m + h) rounds,
        # not O(m * h): check the pipelining actually happens.
        graph = nx.path_graph(10)
        network = Network(graph, seed=1)
        per_node = _participants(graph)
        _build_tree(network, per_node)
        items = list(range(30))
        network.build_contexts(per_node_inputs={0: {"payload": items}}, fresh=False)
        broadcast = run_protocol(
            network,
            TreeBroadcastProtocol(input_key="payload", output_key="received"),
            reuse_contexts=True,
        )
        assert broadcast.outputs[9] == items
        assert broadcast.metrics.rounds <= len(items) + 12


class TestLeaderElection:
    def test_elects_minimum(self):
        graph = nx.cycle_graph(12)
        result = run_protocol(
            Network(graph, seed=1),
            MinIdFloodingProtocol(),
            per_node_inputs=_participants(graph),
        )
        assert set(result.outputs.values()) == {0}

    def test_per_component_leaders(self, two_triangles):
        result = run_protocol(
            Network(two_triangles, seed=1),
            MinIdFloodingProtocol(),
            per_node_inputs=_participants(two_triangles),
        )
        assert result.outputs[2] == 0
        assert result.outputs[12] == 10

    def test_non_participants_output_none(self):
        graph = nx.path_graph(4)
        result = run_protocol(
            Network(graph, seed=1),
            MinIdFloodingProtocol(),
            per_node_inputs=_participants(graph, nodes={1, 2}),
        )
        assert result.outputs[0] is None
        assert result.outputs[1] == 1


class TestOutbox:
    def _ctx(self):
        return NodeContext(node_id=0, neighbors=[1, 2], n=3)

    def test_fifo_per_neighbor(self):
        ctx = self._ctx()
        outbox = Outbox.for_ctx(ctx)
        outbox.push(1, Message(kind="a", payload=(1,)))
        outbox.push(1, Message(kind="b", payload=(2,)))
        outbox.push(2, Message(kind="c", payload=(3,)))
        sent = outbox.flush()
        assert sent == 2
        queued = ctx._collect_outgoing()
        assert queued[1][0].kind == "a"
        assert queued[2][0].kind == "c"
        assert outbox.pending_for(1) == 1
        assert outbox.pending()

    def test_push_all_excludes(self):
        ctx = self._ctx()
        outbox = Outbox.for_ctx(ctx)
        outbox.push_all(Message(kind="x", payload=None), exclude=[2])
        assert outbox.pending_for(1) == 1
        assert outbox.pending_for(2) == 0

    def test_for_ctx_is_singleton(self):
        ctx = self._ctx()
        assert Outbox.for_ctx(ctx) is Outbox.for_ctx(ctx)

    def test_total_pending(self):
        ctx = self._ctx()
        outbox = Outbox.for_ctx(ctx)
        outbox.push_many(1, [Message(kind="a", payload=None)] * 3)
        assert outbox.total_pending() == 3

    def test_chunk_id_list_sorts_and_dedups(self):
        assert chunk_id_list([5, 1, 5, 3]) == (1, 3, 5)
