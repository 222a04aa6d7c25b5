"""Tests for the synchronous scheduler, network and configuration."""

from __future__ import annotations

import dataclasses

import networkx as nx
import pytest

from repro.congest import engine as engine_module
from repro.congest import node as node_module
from repro.congest import scheduler as scheduler_module
from repro.congest.config import CongestConfig
from repro.congest.errors import (
    CongestionViolation,
    MessageSizeViolation,
    ProtocolError,
    RoundLimitExceeded,
)
from repro.congest.message import Message
from repro.congest.metrics import RoundMetrics, RunMetrics
from repro.congest.network import Network
from repro.congest.node import NodeContext, Protocol
from repro.congest.scheduler import run_protocol
from repro.core.boosting import BoostedNearCliqueRunner
from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.proptest.tolerant import TolerantNearCliqueTester


class EchoOnce(Protocol):
    """Each node sends one message to every neighbour, then halts."""

    name = "echo-once"

    def on_start(self, ctx):
        ctx.send_all(Message(kind="hello", payload=(ctx.node_id,)))

    def on_round(self, ctx, inbox):
        ctx.state["heard"] = sorted(inbound.sender for inbound in inbox)
        ctx.write_output(len(inbox))
        ctx.halt()


class FloodMax(Protocol):
    """Classic max-id flooding; terminates by quiescence."""

    name = "flood-max"

    def on_start(self, ctx):
        ctx.state["best"] = ctx.node_id
        ctx.send_all(Message(kind="max", payload=(ctx.node_id,)))

    def on_round(self, ctx, inbox):
        best = ctx.state["best"]
        improved = False
        for inbound in inbox:
            if inbound.payload[0] > best:
                best = inbound.payload[0]
                improved = True
        if improved:
            ctx.state["best"] = best
            ctx.send_all(Message(kind="max", payload=(best,)))

    def collect_output(self, ctx):
        return ctx.state["best"]


class DoubleSender(Protocol):
    name = "double-sender"

    def on_start(self, ctx):
        if ctx.neighbors:
            target = ctx.neighbors[0]
            ctx.send(target, Message(kind="a", payload=(1,)))
            ctx.send(target, Message(kind="b", payload=(2,)))

    def on_round(self, ctx, inbox):
        ctx.halt()


class BigTalker(Protocol):
    name = "big-talker"

    def on_start(self, ctx):
        ctx.send_all(Message(kind="big", payload=None, bits=10 ** 6))

    def on_round(self, ctx, inbox):
        ctx.halt()


class TestNetwork:
    def test_integer_labels_preserved(self, two_triangles):
        network = Network(two_triangles)
        assert set(network.node_ids) == {0, 1, 2, 10, 11, 12}
        assert network.label_of[10] == 10

    def test_string_labels_relabelled(self):
        graph = nx.Graph()
        graph.add_edges_from([("a", "b"), ("b", "c")])
        network = Network(graph)
        assert set(network.node_ids) == {0, 1, 2}
        assert set(network.label_of.values()) == {"a", "b", "c"}

    def test_mixed_type_labels_relabel_deterministically(self):
        # int + str labels in one graph: plain sorted() would raise TypeError;
        # the network must relabel deterministically instead.
        edges = [(3, "a"), ("a", "b"), ("b", 7), (7, 3)]
        network = Network(nx.Graph(edges))
        assert set(network.node_ids) == {0, 1, 2, 3}
        # ... and the mapping depends only on the label set, not on the
        # insertion order of nodes or edges.
        shuffled = Network(nx.Graph(list(reversed(edges))))
        assert network.id_of == shuffled.id_of
        assert network.label_of == shuffled.label_of

    def test_mixed_type_relabel_groups_by_type_then_repr(self):
        graph = nx.Graph()
        graph.add_nodes_from([10, 2, "z", "a"])
        network = Network(graph)
        # type name order: int < str; within a type, repr order.
        assert [network.label_of[i] for i in range(4)] == [10, 2, "a", "z"]

    def test_mixed_type_labels_roundtrip_through_a_protocol(self):
        graph = nx.Graph([(1, "hub"), (2, "hub"), (3, "hub")])
        network = Network(graph)
        result = run_protocol(network, EchoOnce())
        hub_id = network.id_of["hub"]
        assert result.outputs[hub_id] == 3

    def test_directed_graph_rejected(self):
        with pytest.raises(ValueError):
            Network(nx.DiGraph([(0, 1)]))

    def test_self_loops_removed(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 0), (0, 1)])
        network = Network(graph)
        assert network.neighbors(0) == (1,)

    def test_neighbors_sorted(self, star_graph):
        network = Network(star_graph)
        assert network.neighbors(0) == (1, 2, 3, 4, 5, 6)

    def test_degree_and_edges(self, star_graph):
        network = Network(star_graph)
        assert network.degree(0) == 6
        assert network.number_of_edges() == 6
        assert network.has_edge(0, 3)
        assert not network.has_edge(1, 2)

    def test_from_edges_with_isolates(self):
        network = Network.from_edges([(0, 1)], nodes=[0, 1, 5])
        assert 5 in network.node_ids
        assert network.degree(5) == 0

    def test_contexts_require_build(self, path_graph):
        network = Network(path_graph)
        with pytest.raises(ProtocolError):
            _ = network.contexts

    def test_per_node_inputs_unknown_node(self, path_graph):
        network = Network(path_graph)
        with pytest.raises(ProtocolError):
            network.build_contexts(per_node_inputs={99: {"x": 1}})

    def test_induced(self, two_triangles):
        network = Network(two_triangles)
        sub = network.induced([0, 1, 2])
        assert sub.node_ids == [0, 1, 2]
        assert sub.number_of_edges() == 3

    def test_csr_adjacency_matches_neighbor_tuples(self, two_triangles):
        network = Network(two_triangles)
        indptr, indices = network.csr_numpy()
        ids = network.node_ids
        assert ids == [0, 1, 2, 10, 11, 12]
        assert len(indptr) == len(ids) + 1
        assert len(indices) == 2 * network.number_of_edges()
        for dense, node_id in enumerate(ids):
            neighbors = tuple(
                ids[j] for j in indices[indptr[dense]:indptr[dense + 1]]
            )
            assert neighbors == network.neighbors(node_id)
            assert network.node_index_of[node_id] == dense


class TestScheduler:
    def test_one_round_echo(self, path_graph):
        result = run_protocol(Network(path_graph), EchoOnce())
        # Every node hears exactly its degree.
        assert result.outputs == {0: 1, 1: 2, 2: 2, 3: 2, 4: 2, 5: 1}
        assert result.metrics.rounds == 1

    def test_flooding_agrees_on_max(self, two_triangles):
        result = run_protocol(Network(two_triangles), FloodMax())
        assert result.outputs[0] == 2 and result.outputs[2] == 2
        assert result.outputs[10] == 12 and result.outputs[11] == 12

    def test_flooding_rounds_bounded_by_diameter_plus_constant(self, path_graph):
        result = run_protocol(Network(path_graph), FloodMax())
        assert result.outputs == {v: 5 for v in range(6)}
        # The path has diameter 5; flooding needs at most diameter + 1 rounds
        # of traffic plus the final silent round check.
        assert result.metrics.rounds <= 7

    def test_messages_counted(self, path_graph):
        result = run_protocol(Network(path_graph), EchoOnce())
        assert result.metrics.total_messages == 10  # 2 * #edges
        assert result.metrics.max_message_bits > 0

    def test_round_limit(self, path_graph):
        config = CongestConfig(max_rounds=2)
        with pytest.raises(RoundLimitExceeded):
            run_protocol(Network(path_graph), FloodMax(), config=config)

    def test_congestion_violation(self, path_graph):
        with pytest.raises(CongestionViolation):
            run_protocol(Network(path_graph), DoubleSender())

    def test_message_size_violation(self, path_graph):
        config = CongestConfig().with_log_budget(6)
        with pytest.raises(MessageSizeViolation):
            run_protocol(Network(path_graph), BigTalker(), config=config)

    def test_default_config_allows_big_messages(self, path_graph):
        result = run_protocol(Network(path_graph), BigTalker(), config=CongestConfig())
        assert result.metrics.max_message_bits == 10 ** 6

    def test_send_to_non_neighbor_rejected(self):
        class BadSender(Protocol):
            def on_start(self, ctx):
                ctx.send(ctx.node_id + 2, Message(kind="x", payload=None))

        with pytest.raises(ProtocolError):
            run_protocol(Network(nx.path_graph(4)), BadSender())

    def test_send_non_message_rejected(self):
        class BadPayload(Protocol):
            def on_start(self, ctx):
                ctx.send(ctx.neighbors[0], "not a message")  # type: ignore[arg-type]

        with pytest.raises(ProtocolError):
            run_protocol(Network(nx.path_graph(3)), BadPayload())

    def test_halted_node_cannot_send(self):
        class SendAfterHalt(Protocol):
            def on_start(self, ctx):
                ctx.halt()
                ctx.send_all(Message(kind="x", payload=None))

        with pytest.raises(ProtocolError):
            run_protocol(Network(nx.path_graph(3)), SendAfterHalt())

    def test_per_round_trace_recorded(self, path_graph):
        result = run_protocol(Network(path_graph), FloodMax())
        assert len(result.metrics.per_round) == result.metrics.rounds

    def test_reuse_contexts_preserves_state(self, path_graph):
        network = Network(path_graph)
        run_protocol(network, FloodMax())

        class ReadsPrevious(Protocol):
            def on_start(self, ctx):
                ctx.write_output(ctx.state.get("best"))
                ctx.halt()

        result = run_protocol(network, ReadsPrevious(), reuse_contexts=True)
        assert all(value == 5 for value in result.outputs.values())

    def test_fresh_contexts_reset_state(self, path_graph):
        network = Network(path_graph)
        run_protocol(network, FloodMax())

        class ReadsPrevious(Protocol):
            def on_start(self, ctx):
                ctx.write_output(ctx.state.get("best"))
                ctx.halt()

        result = run_protocol(network, ReadsPrevious(), reuse_contexts=False)
        assert all(value is None for value in result.outputs.values())

    def test_global_inputs_visible_to_nodes(self, path_graph):
        class ReadsGlobal(Protocol):
            def on_start(self, ctx):
                ctx.write_output(ctx.globals["threshold"])
                ctx.halt()

        result = run_protocol(
            Network(path_graph), ReadsGlobal(), global_inputs={"threshold": 17}
        )
        assert set(result.outputs.values()) == {17}


class TestCongestConfig:
    def test_log_budget_scales(self):
        small = CongestConfig().with_log_budget(16)
        large = CongestConfig().with_log_budget(2 ** 20)
        assert large.message_bit_budget > small.message_bit_budget

    def test_log_budget_floor(self):
        assert CongestConfig().with_log_budget(2).message_bit_budget >= 32

    def test_with_max_rounds_copies(self):
        base = CongestConfig().with_log_budget(64)
        capped = base.with_max_rounds(5)
        assert capped.max_rounds == 5
        assert capped.message_bit_budget == base.message_bit_budget
        assert base.max_rounds is None

    def test_default_has_no_budget(self):
        assert CongestConfig().message_bit_budget is None


class TestNodeContext:
    def test_rng_missing_raises(self):
        ctx = NodeContext(node_id=0, neighbors=[1], n=2)
        with pytest.raises(ProtocolError):
            _ = ctx.rng

    def test_is_neighbor(self):
        ctx = NodeContext(node_id=0, neighbors=[1, 5], n=6)
        assert ctx.is_neighbor(5)
        assert not ctx.is_neighbor(3)

    def test_degree(self):
        ctx = NodeContext(node_id=0, neighbors=[1, 2, 3], n=4)
        assert ctx.degree == 3


class TestOneRulebook:
    """Tombstones: the rule switches and extra engine selectors are gone."""

    def test_protocol_has_no_termination_hooks(self):
        assert not hasattr(Protocol, "finished")
        assert not hasattr(Protocol, "quiesce_terminates")
        assert not hasattr(node_module, "effective_scope")
        assert not hasattr(engine_module, "_STALL_LIMIT")
        assert not hasattr(scheduler_module, "_STALL_LIMIT")

    def test_round_metrics_have_no_edges_used(self):
        names = [field.name for field in dataclasses.fields(RoundMetrics)]
        assert "edges_used" not in names
        assert not hasattr(RoundMetrics(round_index=1), "edges_used")

    def test_removed_helpers_are_gone(self):
        assert not hasattr(CongestConfig, "local_model")
        assert not hasattr(RunMetrics, "as_row")

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(
                lambda: CongestConfig(enforce_congestion=False),
                id="CongestConfig-enforce_congestion",
            ),
            pytest.param(
                lambda: CongestConfig(record_round_metrics=False),
                id="CongestConfig-record_round_metrics",
            ),
            pytest.param(
                lambda: run_protocol(
                    Network(nx.path_graph(3)), EchoOnce(), engine="reference"
                ),
                id="run_protocol-engine",
            ),
            pytest.param(
                lambda: DistNearCliqueRunner(
                    epsilon=0.2, sample_probability=0.1, engine="reference"
                ),
                id="DistNearCliqueRunner-engine",
            ),
            pytest.param(
                lambda: BoostedNearCliqueRunner(
                    epsilon=0.2, sample_probability=0.1, congest_engine="reference"
                ),
                id="BoostedNearCliqueRunner-congest_engine",
            ),
            pytest.param(
                lambda: TolerantNearCliqueTester(
                    0.5, 0.001, 0.2, congest_engine="reference"
                ),
                id="TolerantNearCliqueTester-congest_engine",
            ),
        ],
    )
    def test_removed_keyword_raises_type_error(self, build):
        with pytest.raises(TypeError):
            build()
