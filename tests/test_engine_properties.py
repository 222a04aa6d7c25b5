"""Seeded randomized property tests for the execution-engine invariants.

Complementing the differential suite (which checks every engine against
the reference), these tests check that every engine upholds the simulator's model
guarantees on randomized workloads driven by stdlib ``random``:

* one message per edge direction per round (and violations raise);
* the per-message bit budget is enforced, never merely measured;
* the vectorized engine's active-frontier skipping never starves a node: a
  message sent to a node that has not halted is delivered exactly once, in
  the next round, no matter how long the node has been silent;
* the ``_STALL_LIMIT`` quiesce path: a protocol that is silent for exactly
  ``_STALL_LIMIT - 1`` rounds and then resumes is not declared stalled;
* the sharded engine's partition — backend, shard count and strategy — is
  invisible to the protocol: every node sees the vectorized engine's traffic.

The engine-parametrized tests below cover every registered engine because
they iterate :func:`repro.congest.engine.available_engines`, plus the
sharded engine's process backend (arm id ``process``), whose direct
executes each run inside a one-shot worker session.  Protocol code there
runs in worker processes, so every protocol below is defined at module
level (workers unpickle it by name) and the traffic logs travel back as
node outputs rather than as attributes of the protocol instance.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.congest.config import CongestConfig
from repro.congest.engine import available_engines
from repro.congest.errors import (
    CongestionViolation,
    MessageSizeViolation,
    ProtocolError,
)
from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.node import Protocol
from repro.congest.scheduler import _STALL_LIMIT, run_protocol
from repro.congest.sharding import PARTITION_STRATEGIES, SHARD_BACKENDS

#: Engine configurations by arm id.
ARMS = {name: {"engine": name} for name in available_engines()}
ARMS["process"] = {"engine": "sharded", "shards": 2, "shard_backend": "process"}
ENGINES = tuple(ARMS)


def _config(arm, **fields):
    return CongestConfig(**ARMS[arm], **fields)


class RandomTrafficProtocol(Protocol):
    """Random gossip with per-node random halt rounds, fully instrumented.

    Every active node sends one message to a random non-empty subset of its
    neighbours each round and logs every send, every receive and every
    invocation in its own state; the log is the node's output.  Node v
    halts at the end of round ``halt_round``.  The logs let the tests
    replay the delivery discipline after the fact.
    """

    name = "random-traffic"

    def __init__(self, seed: int, max_halt_round: int = 8) -> None:
        rng = random.Random(seed)
        self._traffic_seed = rng.getrandbits(32)
        self.max_halt_round = max_halt_round

    def _rng_for(self, ctx):
        key = "_traffic_rng"
        if key not in ctx.state:
            ctx.state[key] = random.Random(self._traffic_seed ^ (ctx.node_id * 7919))
        return ctx.state[key]

    def on_start(self, ctx):
        rng = self._rng_for(ctx)
        ctx.state["log"] = {
            "halt_round": rng.randint(1, self.max_halt_round),
            "sent": [],  # (round sent, sender, receiver, payload)
            "received": [],  # (round received, receiver, sender, payload)
            "invocations": [],  # (round, node, inbox size)
        }
        self._gossip(ctx, round_index=0)

    def _gossip(self, ctx, round_index):
        if not ctx.neighbors:
            return
        rng = self._rng_for(ctx)
        count = rng.randint(1, len(ctx.neighbors))
        for neighbor in sorted(rng.sample(list(ctx.neighbors), count)):
            payload = (ctx.node_id, round_index, rng.randint(0, 1000))
            ctx.send(neighbor, Message(kind="gossip", payload=payload))
            ctx.state["log"]["sent"].append((round_index, ctx.node_id, neighbor, payload))

    def on_round(self, ctx, inbox):
        log = ctx.state["log"]
        log["invocations"].append((ctx.round_index, ctx.node_id, len(inbox)))
        for inbound in inbox:
            log["received"].append(
                (ctx.round_index, ctx.node_id, inbound.sender, inbound.payload)
            )
        if ctx.round_index >= log["halt_round"]:
            ctx.halt()
            return
        self._gossip(ctx, ctx.round_index)

    def collect_output(self, ctx):
        return ctx.state["log"]


class TrafficLog:
    """Every node's traffic log, merged: what the protocol saw, network-wide."""

    def __init__(self, outputs):
        self.halt_round = {node: log["halt_round"] for node, log in outputs.items()}
        self.sent = [entry for log in outputs.values() for entry in log["sent"]]
        self.received = [entry for log in outputs.values() for entry in log["received"]]
        self.invocations = [
            entry for log in outputs.values() for entry in log["invocations"]
        ]


def _run_random_traffic(engine, seed, n=18, p=0.3):
    graph = nx.gnp_random_graph(n, p, seed=seed)
    graph.add_edges_from(nx.path_graph(n).edges())  # no isolated nodes
    protocol = RandomTrafficProtocol(seed=seed * 31 + 7)
    network = Network(graph, seed=seed)
    config = _config(engine).with_log_budget(n)
    result = run_protocol(network, protocol, config=config)
    return TrafficLog(result.outputs), result


class DoubleSender(Protocol):
    def on_start(self, ctx):
        if ctx.neighbors:
            target = ctx.neighbors[0]
            ctx.send(target, Message(kind="a", payload=(1,)))
            ctx.send(target, Message(kind="b", payload=(2,)))


class BigTalker(Protocol):
    def on_start(self, ctx):
        ctx.send_all(Message(kind="big", payload=None, bits=10 ** 6))

    def on_round(self, ctx, inbox):
        ctx.halt()


class NeverTerminates(Protocol):
    def on_round(self, ctx, inbox):
        ctx.state["spin"] = ctx.state.get("spin", 0) + 1


class SilentQuiescer(Protocol):
    quiesce_terminates = True

    def on_start(self, ctx):
        ctx.send_all(Message(kind="one", payload=None))

    def on_round(self, ctx, inbox):
        ctx.write_output(len(inbox))


class TestOneMessagePerEdgePerRound:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_edge_carries_two_messages_one_way(self, engine, seed):
        log, result = _run_random_traffic(engine, seed)
        per_round_pairs = {}
        for round_sent, sender, receiver, _ in log.sent:
            pairs = per_round_pairs.setdefault(round_sent, set())
            assert (sender, receiver) not in pairs
            pairs.add((sender, receiver))
        # With congestion enforcement, the per-round metrics agree: every
        # message used a distinct directed edge.  (Round 1's messages_sent
        # additionally folds in the on_start traffic, per the accounting
        # convention, so subtract it before comparing.)
        startup_messages = sum(1 for round_sent, _, _, _ in log.sent if round_sent == 0)
        for rm in result.metrics.per_round:
            expected = rm.messages_sent - (startup_messages if rm.round_index == 1 else 0)
            assert rm.edges_used == expected

    @pytest.mark.parametrize("engine", ENGINES)
    def test_double_send_raises(self, engine):
        config = _config(engine)
        with pytest.raises(CongestionViolation):
            run_protocol(Network(nx.path_graph(4)), DoubleSender(), config=config)


class TestBitBudgetEnforced:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [3, 4])
    def test_within_budget_traffic_is_bounded(self, engine, seed):
        _, result = _run_random_traffic(engine, seed)
        budget = CongestConfig().with_log_budget(18).message_bit_budget
        assert 0 < result.metrics.max_message_bits <= budget

    @pytest.mark.parametrize("engine", ENGINES)
    def test_oversized_message_raises(self, engine):
        config = _config(engine).with_log_budget(6)
        with pytest.raises(MessageSizeViolation):
            run_protocol(Network(nx.path_graph(6)), BigTalker(), config=config)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_disabled_budget_allows_big_messages(self, engine):
        config = _config(engine, message_bit_budget=None)
        result = run_protocol(Network(nx.path_graph(6)), BigTalker(), config=config)
        assert result.metrics.max_message_bits == 10 ** 6


class TestFrontierNeverStarves:
    """Every message to a not-yet-halted node is delivered, exactly once,
    exactly one round after it was sent — the frontier may only drop mail
    addressed to halted nodes."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_delivery_is_exact(self, engine, seed):
        log, _ = _run_random_traffic(engine, seed)
        assert log.sent and log.received
        received = {}
        for round_received, receiver, sender, payload in log.received:
            key = (round_received, receiver, sender, payload)
            received[key] = received.get(key, 0) + 1

        for round_sent, sender, receiver, payload in log.sent:
            key = (round_sent + 1, receiver, sender, payload)
            # halt_round is the round in whose processing the node halts, so
            # the node still processes mail arriving in that round.
            if round_sent + 1 <= log.halt_round[receiver]:
                assert received.pop(key, 0) == 1, (
                    "message %r starved under engine %r" % (key, engine)
                )
            else:
                assert key not in received
        # ... and nothing was delivered that was never sent.
        assert not received

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_active_node_invoked_every_round(self, engine, seed):
        log, result = _run_random_traffic(engine, seed)
        invoked = {}
        for round_index, node, _ in log.invocations:
            invoked.setdefault(node, set()).add(round_index)
        for node, halt_round in log.halt_round.items():
            expected = set(range(1, min(halt_round, result.metrics.rounds) + 1))
            assert expected <= invoked.get(node, set())


class TestStallAndQuiesce:
    """Regression tests for the ``_STALL_LIMIT`` quiesce path."""

    class SilentThenResume(Protocol):
        """Node 1 receives a ping, stays silent for exactly two rounds, then
        replies — one short of ``_STALL_LIMIT``, so no engine may declare the
        protocol stalled."""

        name = "silent-then-resume"
        quiesce_terminates = False
        SILENT_ROUNDS = _STALL_LIMIT - 1

        def on_start(self, ctx):
            if ctx.node_id == 0:
                ctx.send(1, Message(kind="ping", payload=None))
                ctx.halt()
            elif ctx.node_id != 1:
                ctx.halt()

        def on_round(self, ctx, inbox):
            if any(inbound.kind == "ping" for inbound in inbox):
                ctx.state["ping_round"] = ctx.round_index
                return
            ping_round = ctx.state.get("ping_round")
            if ping_round is not None and ctx.round_index == ping_round + self.SILENT_ROUNDS:
                ctx.send(0, Message(kind="pong", payload=None))
                ctx.write_output("resumed")
                ctx.halt()

        def collect_output(self, ctx):
            return ctx.output

    @pytest.mark.parametrize("engine", ENGINES)
    def test_two_silent_rounds_then_resume_is_not_a_stall(self, engine):
        graph = nx.path_graph(3)
        config = _config(engine)
        result = run_protocol(Network(graph, seed=1), self.SilentThenResume(), config=config)
        assert result.outputs[1] == "resumed"
        # ping round + (_STALL_LIMIT - 1) silent rounds + the resume round
        assert result.metrics.rounds == 1 + self.SilentThenResume.SILENT_ROUNDS + 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_full_silence_still_detected_as_stall(self, engine):
        config = _config(engine)
        with pytest.raises(ProtocolError, match="stalled"):
            run_protocol(Network(nx.path_graph(5)), NeverTerminates(), config=config)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_quiesce_terminates_skips_the_stall_counter(self, engine):
        config = _config(engine)
        result = run_protocol(Network(nx.path_graph(4), seed=2), SilentQuiescer(), config=config)
        assert result.metrics.rounds >= 1


class TestPartitionInvisible:
    """How the sharded engine partitions the graph is invisible to the
    protocol: every node sees the same traffic, in the same order, in the
    same rounds, as under the vectorized engine — whichever backend steps the
    shards, however many there are and whichever strategy cut them."""

    # Ids name the arm the CI engine matrix selects ("sharded", "process").
    @pytest.mark.parametrize(
        "backend", SHARD_BACKENDS, ids=["sharded-serial", "process"]
    )
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    @pytest.mark.parametrize("shards", [2, 5])
    def test_traffic_is_partition_independent(self, shards, strategy, backend):
        seed = shards + 2
        graph = nx.gnp_random_graph(18, 0.3, seed=seed)
        graph.add_edges_from(nx.path_graph(18).edges())
        runs = {}
        for name, config in (
            ("vectorized", CongestConfig(engine="vectorized")),
            (
                "sharded",
                CongestConfig().with_sharding(
                    shards=shards, strategy=strategy, backend=backend
                ),
            ),
        ):
            result = run_protocol(
                Network(graph, seed=seed),
                RandomTrafficProtocol(seed=seed),
                config=config.with_log_budget(18),
            )
            runs[name] = (
                result.outputs,
                result.metrics.rounds,
                result.metrics.total_messages,
                result.metrics.total_bits,
                [
                    (r.messages_sent, r.edges_used, r.active_nodes)
                    for r in result.metrics.per_round
                ],
            )
        assert runs["sharded"] == runs["vectorized"]
