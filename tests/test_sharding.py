"""Tests for the sharding subsystem: partitioner, plan invariants, engine knobs.

The differential suite (``tests/test_engine_equivalence.py``) already holds
``engine="sharded"`` to the bit-identical contract across protocols and
shard counts; this module covers the partitioner itself — plan invariants
on awkward graphs (disconnected, k > n, mixed labels), determinism, cut
statistics — the engine's
configuration surface (single shard degenerating to the vectorized engine,
traffic statistics), and the engine's worker processes and sessions.
"""

from __future__ import annotations

import dataclasses
import importlib
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
import time

import networkx as nx
import pytest

from repro.congest.config import CongestConfig
from repro.congest.engine import CongestSession, get_engine
from repro.congest.errors import (
    CongestionViolation,
    MessageSizeViolation,
    ProtocolError,
    RoundLimitExceeded,
    ShardWorkerError,
)
from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.node import Protocol
from repro.congest.scheduler import run_protocol
from repro.congest.sharding import (
    SharedCSR,
    ShardPlan,
    ShardedEngine,
    ShardingStats,
    partition_network,
)
from repro.congest.sharding.engine import _ShardState, _ShardStepper
from repro.core import phases
from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.primitives.bfs_tree import KEY_PARTICIPANT, MinIdBFSTreeProtocol

from conftest import run_fingerprint


def _check_plan_invariants(plan: ShardPlan, network: Network) -> None:
    """The structural promises every plan makes."""
    n = network.n
    assert plan.n == n
    assert len(plan.shards) == plan.n_shards
    # Every node owned exactly once, shard lists ascending and consistent
    # with the owner array.
    seen = []
    for shard_index, owned in enumerate(plan.shards):
        assert list(owned) == sorted(owned)
        for dense in owned:
            assert plan.owner[dense] == shard_index
        seen.extend(owned)
    assert sorted(seen) == list(range(n))
    # The cut partitions the edge set.
    assert plan.cut_edges + plan.internal_edges == network.number_of_edges()
    assert plan.total_edges == network.number_of_edges()
    for u, v in plan.boundary_edges:
        assert u < v
        assert plan.owner[u] != plan.owner[v]
    if plan.total_edges:
        assert 0.0 <= plan.cut_fraction <= 1.0
    else:
        assert plan.cut_fraction == 0.0


class TestPartitioner:
    def test_invariants_on_random_graph(self):
        network = Network(nx.gnp_random_graph(40, 0.15, seed=2), seed=1)
        for k in (1, 2, 3, 7):
            plan = partition_network(network, k)
            _check_plan_invariants(plan, network)

    def test_disconnected_graph_fully_assigned(self):
        # Three components plus isolated nodes: every node lands in a shard.
        graph = nx.Graph()
        graph.add_edges_from(nx.path_graph(6).edges())
        graph.add_edges_from((10 + u, 10 + v) for u, v in nx.cycle_graph(5).edges())
        graph.add_edges_from([(20, 21), (21, 22)])
        graph.add_nodes_from([30, 31, 32])
        network = Network(graph, seed=0)
        plan = partition_network(network, 3)
        _check_plan_invariants(plan, network)

    def test_more_shards_than_nodes(self):
        network = Network(nx.path_graph(3), seed=0)
        plan = partition_network(network, 8)
        _check_plan_invariants(plan, network)
        assert plan.n_shards == 8
        # Exactly n shards are non-empty; the surplus shards are empty.
        assert sum(1 for owned in plan.shards if owned) == 3

    def test_mixed_label_network(self):
        # Mixed int/str labels exercise the deterministic relabelling; the
        # partitioner only ever sees the dense CSR index.
        graph = nx.Graph([("a", 3), (3, "b"), ("b", 7), (7, "a"), ("c", 3)])
        network = Network(graph, seed=9)
        plan = partition_network(network, 2)
        _check_plan_invariants(plan, network)

    def test_deterministic(self):
        graph = nx.gnp_random_graph(36, 0.2, seed=6)
        plans = [partition_network(Network(graph, seed=3), 4) for _ in range(2)]
        assert plans[0] == plans[1]

    def test_owner_depends_only_on_node_count_and_shards(self):
        # The node set is fixed, so the owner array survives any delta; only
        # the cut statistics follow the edges.
        sparse = partition_network(Network(nx.path_graph(30), seed=0), 4)
        dense = partition_network(Network(nx.complete_graph(30), seed=0), 4)
        assert sparse.owner == dense.owner
        assert sparse.shards == dense.shards
        assert sparse.cut_edges == 3 and dense.cut_edges > sparse.cut_edges

    def test_contiguous_blocks_are_contiguous_and_balanced(self):
        network = Network(nx.path_graph(10), seed=0)
        plan = partition_network(network, 3)
        assert plan.shards == ((0, 1, 2, 3), (4, 5, 6), (7, 8, 9))
        # A path cut into 3 blocks crosses exactly 2 edges.
        assert plan.cut_edges == 2

    def test_balanced_sizes(self):
        network = Network(nx.gnp_random_graph(41, 0.2, seed=8), seed=0)
        sizes = partition_network(network, 4).shard_sizes
        assert sizes == (11, 10, 10, 10)

    def test_rejects_bad_inputs(self):
        network = Network(nx.path_graph(4), seed=0)
        with pytest.raises(ValueError, match="at least 1"):
            partition_network(network, 0)

    def test_plan_follows_a_delta(self):
        # A plan of the changed network keeps the owners; the cut
        # statistics follow the new edges.
        network = Network(nx.path_graph(12), seed=0)
        before = partition_network(network, 3)
        network.apply_delta(additions=[(0, 11)], removals=[(3, 4)])
        after = partition_network(network, 3)
        assert after.owner == before.owner
        assert (before.cut_edges, after.cut_edges) == (2, 2)
        assert after.boundary_edges == ((0, 11), (7, 8))
        _check_plan_invariants(after, network)


class _PingAll(Protocol):
    """One broadcast round, then halt — tiny deterministic traffic source."""

    name = "ping-all"

    def on_start(self, ctx):
        ctx.send_all(Message(kind="ping", payload=(ctx.node_id,)))

    def on_round(self, ctx, inbox):
        ctx.write_output(len(inbox))
        ctx.halt()


class TestShardedEngineKnobs:
    def test_single_shard_matches_vectorized(self):
        # k=1 routes nothing across a boundary: the run must degenerate to
        # the in-process callback loop's semantics exactly.
        graph = nx.gnp_random_graph(24, 0.2, seed=4)
        per_node = {v: {KEY_PARTICIPANT: True} for v in graph.nodes()}
        vectorized, sharded = (
            run_fingerprint(run_protocol(
                Network(graph, seed=11),
                MinIdBFSTreeProtocol(),
                config=config.with_log_budget(24),
                per_node_inputs=per_node,
            ))
            for config in (CongestConfig(), CongestConfig().with_sharding(shards=1))
        )
        assert sharded == vectorized

    def test_stats_collection_counts_cross_shard_traffic(self):
        # On a cycle cut into two contiguous arcs, exactly the messages on
        # the two cut edges (both directions) cross shards.
        network = Network(nx.cycle_graph(10), seed=1)
        session, _config = _open_process_session(network, shards=2)
        with session:
            result = session.execute(_PingAll())
        stats = session.stats
        assert len(stats.phases) == 1
        assert stats.protocol_messages == result.metrics.total_messages == 20
        assert stats.cross_shard_messages == 4  # 2 cut edges x 2 directions
        assert stats.cross_shard_fraction == pytest.approx(0.2)
        assert stats.plan.cut_edges == 2
        _assert_no_worker_processes()

    def test_stats_keep_one_plan_across_executes(self):
        # Twenty executes record twenty phases and still hold exactly the
        # plan the session opened with, not a list of twenty.
        network = Network(nx.cycle_graph(10), seed=1)
        session, _config = _open_process_session(network, shards=2)
        with session:
            opened = session.plan
            for _ in range(20):
                session.execute(_PingAll(), reuse_contexts=True)
        stats = session.stats
        assert len(stats.phases) == 20
        assert stats.plan is opened
        assert not hasattr(stats, "plans")
        _assert_no_worker_processes()

    def test_empty_network(self):
        network = Network(nx.Graph(), seed=0)
        result = run_protocol(
            network, _PingAll(), config=CongestConfig().with_sharding(shards=4)
        )
        assert result.outputs == {}
        assert result.metrics.rounds == 0


class _CrashInWorker(Protocol):
    """Hard-kills the process executing the victim node's second round.

    ``os._exit`` bypasses every ``finally`` and pipe flush — the worker
    disappears exactly as a segfault would, which is the failure mode the
    coordinator must turn into a clean error instead of a hung barrier.
    """

    name = "crash-in-worker"

    def __init__(self, victim: int) -> None:
        self.victim = victim

    def on_start(self, ctx):
        ctx.send_all(Message(kind="ping", payload=(ctx.node_id,)))

    def on_round(self, ctx, inbox):
        if ctx.node_id == self.victim:
            os._exit(3)
        ctx.send_all(Message(kind="ping", payload=(ctx.node_id,)))


class _OutputIsPid(Protocol):
    """Records the executing pid per node — proves real multi-processing."""

    name = "output-is-pid"

    def on_start(self, ctx):
        ctx.send_all(Message(kind="ping"))

    def on_round(self, ctx, inbox):
        ctx.write_output(os.getpid())
        ctx.halt()


class _DoubleSend(Protocol):
    """Violates the one-message-per-edge rule inside a worker process."""

    name = "double-send"

    def on_start(self, ctx):
        for neighbor in ctx.neighbors[:1]:
            ctx.send(neighbor, Message(kind="a"))
            ctx.send(neighbor, Message(kind="b"))


class _ChatterForever(Protocol):
    """Never terminates — trips the coordinator's round cap."""

    name = "chatter"

    def on_start(self, ctx):
        ctx.send_all(Message(kind="ping"))

    def on_round(self, ctx, inbox):
        ctx.send_all(Message(kind="ping"))


def _assert_no_worker_processes():
    """The session teardown contract: no worker outlives its session."""
    deadline = time.time() + 5.0
    while multiprocessing.active_children() and time.time() < deadline:
        time.sleep(0.05)  # join() already ran; only reaping can lag
    assert multiprocessing.active_children() == []


class TestProcessBackendInfrastructure:
    """Worker lifecycle, crash handling and stats of the process backend.

    Bit-identity of process-backend *results* lives in the differential
    suite (``tests/test_engine_equivalence.py::TestProcessBackend``); this
    class covers the machinery around it: a direct execute's one-shot
    session must take its pool and shared-memory segment with it, a crashed
    worker must surface as a clean error, and the traffic stats must
    account the packed boundary bytes.
    """

    def _config(self, shards=3):
        return CongestConfig().with_sharding(shards=shards)

    def test_nodes_really_run_in_worker_processes(self):
        network = Network(nx.cycle_graph(12), seed=0)
        result = run_protocol(network, _OutputIsPid(), config=self._config(shards=3))
        pids = set(result.outputs.values())
        assert os.getpid() not in pids, "protocol callbacks ran in the parent"
        assert len(pids) == 3, "expected one worker process per shard"
        _assert_no_worker_processes()

    def test_worker_crash_is_clean_error_not_hang(self):
        network = Network(nx.cycle_graph(12), seed=0)
        started = time.time()
        with pytest.raises(ShardWorkerError, match="died without reporting"):
            run_protocol(
                network, _CrashInWorker(victim=7), config=self._config(shards=3)
            )
        assert time.time() - started < 30.0
        _assert_no_worker_processes()

    def test_unpicklable_protocol_fails_with_shipping_error(self):
        class LocalProtocol(_PingAll):  # locally defined: cannot pickle
            pass

        network = Network(nx.cycle_graph(9), seed=0)
        with pytest.raises(ShardWorkerError, match="must be picklable"):
            run_protocol(network, LocalProtocol(), config=self._config(shards=3))
        _assert_no_worker_processes()

    def test_no_leaked_processes_after_success_and_violations(self, monkeypatch):
        # The registry engine is a shared singleton; a direct execute runs
        # in a one-shot session whose pool and shared-memory CSR segment
        # must be torn down on *every* exit path.
        created = []
        create = SharedCSR.create.__func__

        def recording_create(cls, network, plan):
            mapping = create(cls, network, plan)
            created.append(mapping.name)
            return mapping

        monkeypatch.setattr(SharedCSR, "create", classmethod(recording_create))

        def assert_nothing_survives():
            assert created, "the direct execute mapped no shared-memory segment"
            _assert_no_worker_processes()
            for name in created:
                with pytest.raises(FileNotFoundError):
                    SharedCSR.attach(name)
            del created[:]

        network = Network(nx.cycle_graph(12), seed=0)
        run_protocol(network, _PingAll(), config=self._config())
        assert_nothing_survives()
        with pytest.raises(CongestionViolation):
            run_protocol(
                Network(nx.cycle_graph(12), seed=0),
                _DoubleSend(),
                config=self._config(),
            )
        assert_nothing_survives()
        with pytest.raises(MessageSizeViolation):
            run_protocol(
                Network(nx.cycle_graph(12), seed=0),
                _PingAll(),
                config=dataclasses.replace(
                    self._config(), message_bit_budget=8
                ),
            )
        assert_nothing_survives()

    def test_round_limit_exceeded_crosses_cleanly(self):
        network = Network(nx.cycle_graph(10), seed=0)
        with pytest.raises(RoundLimitExceeded):
            run_protocol(
                network,
                _ChatterForever(),
                config=self._config().with_max_rounds(4),
            )
        _assert_no_worker_processes()

    def test_violation_types_pickle_roundtrip(self):
        # The process boundary ships these via pickle; the default
        # exception reduction would crash on their structured __init__.
        for exc in (
            CongestionViolation(3, 4, 7),
            MessageSizeViolation(1, 2, 99, 32, 5),
            RoundLimitExceeded(12),
        ):
            clone = pickle.loads(pickle.dumps(exc))
            assert type(clone) is type(exc)
            assert str(clone) == str(exc)
            assert clone.__dict__ == exc.__dict__

    def test_stats_report_boundary_bytes(self):
        network = Network(nx.cycle_graph(10), seed=1)
        session, _config = _open_process_session(network, shards=2)
        with session:
            result = session.execute(_PingAll())
        stats = session.stats
        # 2 cut edges of the two-arc cycle partition, both directions.
        assert stats.protocol_messages == result.metrics.total_messages == 20
        assert stats.cross_shard_messages == 4
        assert stats.boundary_bytes > 0
        assert stats.barrier_rounds > 0
        assert stats.bytes_per_round > 0.0
        _assert_no_worker_processes()

    def test_single_nonempty_shard_process_degenerates_to_fast_path(self):
        # One shard == the whole network in one worker; must equal the
        # in-process fast path exactly.  (Keep the names of OTHER engines
        # out of this test's name: CI's matrix selects by -k.)
        graph = nx.gnp_random_graph(18, 0.3, seed=2)
        per_node = {v: {KEY_PARTICIPANT: True} for v in graph.nodes()}
        fingerprints = {}
        for name, config in (
            ("fast-path", CongestConfig(engine="vectorized")),
            ("process", self._config(shards=1)),
        ):
            network = Network(graph, seed=5)
            result = run_protocol(
                network,
                MinIdBFSTreeProtocol(),
                config=config.with_log_budget(18),
                per_node_inputs=per_node,
            )
            m = result.metrics
            fingerprints[name] = (
                result.outputs, m.rounds, m.total_messages, m.total_bits
            )
        assert fingerprints["process"] == fingerprints["fast-path"]
        _assert_no_worker_processes()

    def test_empty_network_process_backend(self):
        network = Network(nx.Graph(), seed=0)
        result = run_protocol(network, _PingAll(), config=self._config())
        assert result.outputs == {}
        assert result.metrics.rounds == 0
        _assert_no_worker_processes()


class _RecordSenders(Protocol):
    """Every node pings its neighbours once; each records whom it heard."""

    name = "record-senders"

    def on_start(self, ctx):
        ctx.send_all(Message(kind="ping"))

    def on_round(self, ctx, inbox):
        ctx.write_output([inbound.sender for inbound in inbox])
        ctx.halt()


def _stepper_over(graph, protocol, shards, config=None):
    """One in-process stepper over every shard of *graph*'s contiguous plan."""
    network = Network(graph, seed=0)
    ctx_list = network.build_contexts().materialize()
    plan = partition_network(network, shards)
    stepper = _ShardStepper(
        protocol,
        config or CongestConfig(),
        ctx_list,
        network.node_index_of,
        plan.owner,
    )
    states = [
        _ShardState(index, owned, plan.n_shards)
        for index, owned in enumerate(plan.shards)
    ]
    return plan, stepper, states


def _route(states):
    """The round barrier: hand every outbound bucket to its destination.

    Sources are walked in descending order, so a delivery order that
    depended on the routing order would show.
    """
    for source in reversed(states):
        for destination, bucket in enumerate(source.out_buckets):
            if bucket[0]:
                states[destination].remote_from[source.index] = bucket
                source.out_buckets[destination] = ([], [])


class TestShardStepperInProcess:
    """The per-shard round machinery every worker runs, driven in-process.

    The workers' ``_ShardStepper`` is the code that starts, steps and
    drains a shard; these tests run it in this process, shard by shard,
    so its routing, delivery order and rule checks are pinned without a
    worker pool.
    """

    # 16 shards over 12 nodes leaves four shards empty.
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 6, 16])
    @pytest.mark.parametrize(
        "graph", [nx.path_graph(12), nx.cycle_graph(12)], ids=["path", "cycle"]
    )
    def test_start_routes_exactly_the_cut_edge_messages_off_shard(self, graph, shards):
        plan, stepper, states = _stepper_over(graph, _PingAll(), shards)
        partials = [stepper.start_shard(state) for state in states]
        remote = sum(state.remote_messages for state in states)
        local = sum(state.local_messages for state in states)
        assert remote == 2 * plan.cut_edges
        assert local + remote == 2 * graph.number_of_edges()
        assert sum(rm.messages_sent for rm in partials) == local + remote
        for state in states:
            assert (
                sum(len(indices) for indices, _ in state.out_buckets)
                == state.remote_messages
            )
            assert len(state.pending_index) == state.local_messages
            for destination, (indices, _inbound) in enumerate(state.out_buckets):
                assert all(plan.owner[i] == destination for i in indices)
            assert not state.out_buckets[state.index][0]

    @pytest.mark.parametrize("shards", [2, 3, 5])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_round_delivers_every_inbox_in_ascending_sender_order(
        self, seed, shards
    ):
        graph = nx.gnp_random_graph(20, 0.3, seed=seed)
        _plan, stepper, states = _stepper_over(graph, _RecordSenders(), shards)
        for state in states:
            stepper.start_shard(state)
        _route(states)
        partials = [stepper.step_shard(state, 1) for state in states]
        assert sum(rm.active_nodes for rm in partials) == 20
        assert sum(rm.messages_sent for rm in partials) == 0
        for v in graph.nodes():
            ctx = stepper.ctx_list[v]
            assert ctx.output == sorted(graph.neighbors(v)), v
        assert all(not state.frontier for state in states)
        # Delivery consumed every routed group.
        assert all(
            not indices for state in states for indices, _ in state.remote_from
        )

    def test_double_send_raises_congestion_violation(self):
        _plan, stepper, states = _stepper_over(nx.path_graph(4), _DoubleSend(), 2)
        with pytest.raises(CongestionViolation):
            stepper.start_shard(states[0])

    def test_oversized_message_raises_message_size_violation(self):
        config = CongestConfig(message_bit_budget=1)
        _plan, stepper, states = _stepper_over(nx.path_graph(4), _PingAll(), 2, config)
        with pytest.raises(MessageSizeViolation):
            stepper.start_shard(states[0])


#: Preamble of the shm-lifecycle subprocess tests: opens a
#: process session, runs one phase, and prints the segment name; each test
#: appends its own exit behaviour.
_SESSION_SCRIPT_PREAMBLE = r"""
import os
import networkx as nx
from repro.congest.config import CongestConfig
from repro.congest.engine import get_engine
from repro.congest.network import Network
from repro.congest.message import Message
from repro.congest.node import Protocol

class Ping(Protocol):
    name = "ping"
    def on_start(self, ctx):
        ctx.send_all(Message(kind="ping"))
    def on_round(self, ctx, inbox):
        ctx.halt()

network = Network(nx.cycle_graph(9), seed=0)
config = CongestConfig().with_sharding(shards=3)
session = get_engine("sharded").open_session(network, config)
session.execute(Ping())
print(session.shared_csr.name, flush=True)
"""


def _run_session_subprocess(tail: str) -> "subprocess.CompletedProcess":
    """Run the session preamble plus *tail* in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in ("src", env.get("PYTHONPATH")) if part
    )
    return subprocess.run(
        [sys.executable, "-c", _SESSION_SCRIPT_PREAMBLE + tail],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def _process_config(shards=3, **fields):
    return CongestConfig(**fields).with_sharding(shards=shards)


def _open_process_session(network, shards=3, **fields):
    config = _process_config(shards=shards, **fields)
    return get_engine("sharded").open_session(network, config), config


class TestExecutionSessions:
    """Process sessions: pool reuse, re-arm, teardown, shm.

    Bit-identity of session-mode *results* lives in the differential
    suite (``tests/test_engine_equivalence.py::TestSessionMode``); this
    class covers the machinery: the pool must survive ``reuse_contexts``
    executes and die with the session (or earlier, on errors), and the
    shared-memory segment must be unlinked on every exit path, including
    abnormal ones.  Test names carry ``session`` so CI's session job
    selects them alongside the differential arm.
    """

    def test_session_pool_survives_reuse_executes(self):
        network = Network(nx.cycle_graph(12), seed=0)
        session, _config = _open_process_session(network)
        with session:
            first = set(session.execute(_OutputIsPid()).outputs.values())
            second = set(
                session.execute(
                    _OutputIsPid(), reuse_contexts=True
                ).outputs.values()
            )
            assert os.getpid() not in first
            assert len(first) == 3
            assert first == second, "pool did not survive the execute boundary"
        _assert_no_worker_processes()

    def test_session_respawns_on_fresh_contexts(self):
        network = Network(nx.cycle_graph(12), seed=0)
        session, _config = _open_process_session(network)
        with session:
            first = set(session.execute(_OutputIsPid()).outputs.values())
            # reuse_contexts=False rebuilds contexts -> worker state would
            # be stale -> the session must respawn, not re-arm.
            second = set(session.execute(_OutputIsPid()).outputs.values())
            assert first.isdisjoint(second)
        _assert_no_worker_processes()

    def test_session_respawns_on_external_context_build(self):
        network = Network(nx.cycle_graph(12), seed=0)
        session, _config = _open_process_session(network)
        with session:
            first = set(session.execute(_OutputIsPid()).outputs.values())
            # A context build *outside* the session bumps the epoch; the
            # next reuse execute must respawn instead of trusting stale
            # worker state.
            network.build_contexts(fresh=False)
            second = set(
                session.execute(
                    _OutputIsPid(), reuse_contexts=True
                ).outputs.values()
            )
            assert first.isdisjoint(second)
        _assert_no_worker_processes()

    def test_session_respawns_after_failed_external_build(self):
        # A build_contexts call that raises mid-way may already have reset
        # contexts or applied some per-node updates; the epoch must record
        # the attempt so the session respawns instead of light re-arming
        # on divergent worker state.
        network = Network(nx.cycle_graph(12), seed=0)
        session, _config = _open_process_session(network)
        with session:
            first = set(session.execute(_OutputIsPid()).outputs.values())
            with pytest.raises(ProtocolError, match="unknown node id"):
                network.build_contexts(
                    per_node_inputs={0: {"x": 1}, 999: {"x": 1}}, fresh=False
                )
            second = set(
                session.execute(
                    _OutputIsPid(), reuse_contexts=True
                ).outputs.values()
            )
            assert first.isdisjoint(second)
        _assert_no_worker_processes()

    def test_session_teardown_after_context_exit(self):
        network = Network(nx.cycle_graph(12), seed=0)
        session, _config = _open_process_session(network)
        with session:
            session.execute(_PingAll())
            shm_name = session.shared_csr.name
            assert SharedCSR.attach(shm_name).n == 12  # linked while open
        _assert_no_worker_processes()
        with pytest.raises(FileNotFoundError):
            SharedCSR.attach(shm_name)
        # close is idempotent
        session.close()
        with pytest.raises(ProtocolError, match="closed"):
            session.execute(_PingAll())

    def test_session_pre_run_error_tears_pool_down(self):
        # The fail-fast teardown covers errors raised *before* the round
        # loop too (bad per-node inputs, rejected configs), not just model
        # violations and worker deaths.
        network = Network(nx.cycle_graph(12), seed=0)
        session, _config = _open_process_session(network)
        with session:
            session.execute(_PingAll())
            with pytest.raises(ProtocolError, match="unknown node id"):
                session.execute(
                    _PingAll(),
                    reuse_contexts=True,
                    per_node_inputs={999: {"x": 1}},
                )
            _assert_no_worker_processes()
            result = session.execute(_PingAll())  # respawns and recovers
            assert result.outputs == {v: 2 for v in range(12)}
        _assert_no_worker_processes()

    def test_session_violation_tears_pool_down_then_recovers(self):
        network = Network(nx.cycle_graph(12), seed=0)
        session, _config = _open_process_session(network)
        with session:
            with pytest.raises(CongestionViolation):
                session.execute(_DoubleSend())
            # Fail-fast teardown: no waiting for the context exit.
            _assert_no_worker_processes()
            # The session remains usable: the next execute respawns.
            result = session.execute(_PingAll())
            assert result.outputs == {v: 2 for v in range(12)}
        _assert_no_worker_processes()

    def test_session_worker_crash_is_clean_error(self):
        network = Network(nx.cycle_graph(12), seed=0)
        session, _config = _open_process_session(network)
        started = time.time()
        with session:
            with pytest.raises(ShardWorkerError, match="died"):
                session.execute(_CrashInWorker(victim=7))
            _assert_no_worker_processes()
        assert time.time() - started < 30.0
        _assert_no_worker_processes()

    def test_session_shm_unlinked_on_abnormal_exit(self):
        # A creator killed with os._exit skips every finally/atexit; the
        # segment must still disappear (the resource tracker's job).
        proc = _run_session_subprocess("os._exit(1)\n")
        shm_name = proc.stdout.strip().splitlines()[-1]
        assert shm_name, "creator did not report its segment: %s" % proc.stderr
        deadline = time.time() + 15.0
        while time.time() < deadline:
            try:
                SharedCSR.attach(shm_name)
            except FileNotFoundError:
                break
            time.sleep(0.1)
        else:
            pytest.fail(
                "segment %s survived the creator's abnormal exit" % shm_name
            )

    def test_session_shm_unlinked_when_abandoned_without_close(self):
        # A session abandoned without close() on a *normal* interpreter
        # exit is the atexit hook's job: the segment must be unlinked by
        # the hook itself (views released first), not rescued by the
        # resource tracker's leak warning.
        proc = _run_session_subprocess(
            "# no session.close(): exit normally, atexit cleans up\n"
        )
        assert proc.returncode == 0, proc.stderr
        shm_name = proc.stdout.strip().splitlines()[-1]
        assert "leaked shared_memory" not in proc.stderr, (
            "segment fell through to the resource tracker: %s" % proc.stderr
        )
        with pytest.raises(FileNotFoundError):
            SharedCSR.attach(shm_name)

    def test_session_structural_override_rejected(self):
        network = Network(nx.cycle_graph(12), seed=0)
        session, config = _open_process_session(network, shards=3)
        with session:
            conflicting = dataclasses.replace(config, shards=2)
            with pytest.raises(ValueError, match="fixed for a session"):
                session.execute(_PingAll(), config=conflicting)
        _assert_no_worker_processes()

    def test_session_stats_phase_partials_and_totals(self):
        network = Network(nx.cycle_graph(12), seed=0)
        session, _config = _open_process_session(network, shards=2)
        with session:
            session.execute(_PingAll())
            session.execute(_PingAll(), reuse_contexts=True)
            stats = session.stats
        assert [phase.label for phase in stats.phases] == ["ping-all", "ping-all"]
        assert stats.protocol_messages == sum(
            phase.protocol_messages for phase in stats.phases
        ) == 48
        assert stats.cross_shard_messages == 8  # 2 cut edges x 2 dirs x 2 runs
        assert stats.boundary_bytes > 0
        assert stats.barrier_rounds == sum(
            phase.barrier_rounds for phase in stats.phases
        ) > 0
        assert stats.setup_seconds == pytest.approx(
            sum(phase.setup_seconds for phase in stats.phases)
        )
        assert stats.setup_seconds_per_phase > 0.0
        assert stats.shm_bytes > 0
        _assert_no_worker_processes()

    def test_session_overlapping_pools_close_fast(self):
        # Regression: a pool forked while another pool is alive must not
        # inherit (and keep open) that pool's coordinator pipe ends —
        # otherwise closing the first pool can't EOF its workers and the
        # reap burns the 5 s join timeout per worker before terminating
        # healthy processes.
        network_a = Network(nx.cycle_graph(12), seed=0)
        network_b = Network(nx.cycle_graph(12), seed=1)
        session_a, _config = _open_process_session(network_a)
        session_b, _config = _open_process_session(network_b)
        with session_b:
            session_a.execute(_OutputIsPid())
            session_b.execute(_OutputIsPid())
            started = time.time()
            session_a.close()
            elapsed = time.time() - started
            assert elapsed < 4.0, (
                "closing a pool while another is live took %.1fs — its "
                "workers did not exit on EOF" % elapsed
            )
            # B is untouched: same pids keep serving.
            still = set(
                session_b.execute(
                    _OutputIsPid(), reuse_contexts=True
                ).outputs.values()
            )
            assert len(still) == 3
        _assert_no_worker_processes()

    def test_session_worker_harness_failure_reports_real_error(self, monkeypatch):
        # A worker that fails while *building* its harness (e.g. an shm
        # attach race) must ship the actual exception back, not die into a
        # generic "died without reporting".  Fork inherits the patch.
        from repro.congest.sharding import workers as workers_module

        def broken_init(self, init):
            raise RuntimeError("harness build exploded")

        monkeypatch.setattr(
            workers_module._WorkerHarness, "__init__", broken_init
        )
        network = Network(nx.cycle_graph(9), seed=0)
        session, _config = _open_process_session(network)
        with session:
            with pytest.raises(RuntimeError, match="harness build exploded"):
                session.execute(_PingAll())
        _assert_no_worker_processes()

    def test_empty_network_session_records_each_phase_in_process(self):
        # An empty plan has nothing to keep a pool for: the group runs on
        # the vectorized engine and each phase is recorded with no traffic.
        network = Network(nx.Graph(), seed=0)
        session, _config = _open_process_session(network)
        with session:
            results = session.execute_fused([_PingAll(), _RecordSenders()])
            assert [r.outputs for r in results] == [{}, {}]
            stats = session.stats
            assert [phase.label for phase in stats.phases] == [
                "ping-all",
                "record-senders",
            ]
            assert stats.rearms == 0 and stats.shm_bytes == 0
            assert session.shared_csr is None
        _assert_no_worker_processes()

    def test_session_default_is_thin_wrapper(self):
        # Engines without per-execute setup return the base session.
        network = Network(nx.cycle_graph(6), seed=0)
        thin = get_engine("vectorized").open_session(network, CongestConfig())
        assert type(thin) is CongestSession
        assert thin.stats is None
        with thin:
            result = thin.execute(_PingAll())
        assert result.outputs == {v: 2 for v in range(6)}
        with pytest.raises(ProtocolError, match="closed"):
            thin.execute(_PingAll())

    def test_session_scheduler_rejects_foreign_network(self):
        network = Network(nx.cycle_graph(6), seed=0)
        other = Network(nx.cycle_graph(6), seed=0)
        with get_engine("vectorized").open_session(network, CongestConfig()) as session:
            with pytest.raises(ValueError, match="session"):
                run_protocol(other, _PingAll(), session=session)


def _three_cliques() -> nx.Graph:
    """Three 10-cliques on contiguous id ranges — one per contiguous shard."""
    graph = nx.Graph()
    for block in range(3):
        members = range(block * 10, block * 10 + 10)
        graph.add_nodes_from(members)
        for i in members:
            for j in members:
                if i < j:
                    graph.add_edge(i, j)
    return graph


class TestSessionBoundToTopology:
    """A process session runs only on the topology it was opened on.

    An effective ``Network.apply_delta`` moves ``delta_epoch``; the
    session's next ``execute`` or ``execute_fused`` refuses to run, and a
    new session on the changed network is the way on.  Names carry
    ``session`` so CI's session job runs these alongside the differential
    arm.
    """

    @pytest.mark.parametrize("fused", [False, True], ids=["execute", "execute_fused"])
    def test_session_delta_makes_the_next_execute_raise(self, fused):
        network = Network(_three_cliques(), seed=0)
        session, _config = _open_process_session(network)
        with session:
            session.execute(_PingAll())
            shm_name = session.shared_csr.name
            network.apply_delta(additions=[(5, 25)])
            with pytest.raises(ProtocolError, match="changed during an execution session"):
                if fused:
                    session.execute_fused([_PingAll(), _PingAll()])
                else:
                    session.execute(_PingAll(), reuse_contexts=True)
            _assert_no_worker_processes()
            # The refusal is not a one-off: the session stays bound.
            with pytest.raises(ProtocolError, match="open a new session"):
                session.execute(_PingAll())
        _assert_no_worker_processes()
        with pytest.raises(FileNotFoundError):
            SharedCSR.attach(shm_name)

    def test_session_delta_and_its_inverse_still_raise(self):
        # The epoch counts deltas, it does not compare topologies: an edge
        # added and removed again still moved it twice.
        network = Network(_three_cliques(), seed=0)
        session, _config = _open_process_session(network)
        with session:
            session.execute(_PingAll())
            network.apply_delta(additions=[(5, 25)])
            network.apply_delta(removals=[(5, 25)])
            with pytest.raises(ProtocolError, match="changed during"):
                session.execute(_PingAll(), reuse_contexts=True)
        _assert_no_worker_processes()

    def test_session_no_op_delta_keeps_the_pool(self):
        # Re-adding a present edge and removing an absent one change
        # nothing, so the epoch stays and the workers survive.
        network = Network(_three_cliques(), seed=0)
        session, _config = _open_process_session(network)
        with session:
            before = dict(session.execute(_OutputIsPid()).outputs)
            opened_plan = session.plan
            network.apply_delta(additions=[(0, 1)], removals=[(0, 25)])
            after = dict(
                session.execute(_OutputIsPid(), reuse_contexts=True).outputs
            )
            assert before == after
            assert session.plan is opened_plan
        _assert_no_worker_processes()

    def test_session_fresh_on_mutated_network_matches_reference(self):
        graph = _three_cliques()
        network = Network(graph, seed=0)
        session, _config = _open_process_session(network)
        with session:
            session.execute(_PingAll())
            network.apply_delta(additions=[(0, 15)], removals=[(21, 22)])
        session, _config = _open_process_session(network)
        with session:
            got = session.execute(_PingAll()).outputs
            plan = session.plan
        graph.add_edge(0, 15)
        graph.remove_edge(21, 22)
        fresh = Network(graph, seed=0)
        expected = run_protocol(
            fresh, _PingAll(), config=CongestConfig(engine="reference")
        ).outputs
        assert got == expected
        assert plan == partition_network(fresh, 3)
        _check_plan_invariants(plan, network)
        _assert_no_worker_processes()

    def test_one_shot_session_recomputes_after_delta(self):
        # Direct executes open a fresh one-shot session each, so the second
        # partitions the network the delta changed.
        graph = _three_cliques()
        network = Network(graph, seed=0)
        config = CongestConfig().with_sharding(shards=3)
        first = run_protocol(network, _PingAll(), config=config).outputs
        network.apply_delta(additions=[(0, 15)])
        second = run_protocol(network, _PingAll(), config=config).outputs
        graph.add_edge(0, 15)
        expected = run_protocol(
            Network(graph, seed=0),
            _PingAll(),
            config=CongestConfig(engine="reference"),
        ).outputs
        assert second == expected
        assert first != second


class TestShardingStatsAccounting:
    """``observe_phase`` is the single accumulation path; properties stay
    finite on empty/zero-denominator sessions."""

    def test_observe_phase_counts_each_execute_once(self):
        # Every observation adds one phase partial, and the totals are the
        # sums of the partials: no execute is counted twice.
        stats = ShardingStats()
        stats.observe_phase("phase-a", 20, 6, 128, 3, 0.25)
        stats.observe_phase("phase-b", 30, 8, 256, 5, 0.75)
        assert stats.protocol_messages == 50
        assert stats.cross_shard_messages == 14
        assert stats.boundary_bytes == 384
        assert stats.barrier_rounds == 8
        assert stats.setup_seconds == pytest.approx(1.0)
        assert [phase.label for phase in stats.phases] == ["phase-a", "phase-b"]
        assert stats.protocol_messages == sum(
            phase.protocol_messages for phase in stats.phases
        )
        assert stats.boundary_bytes == sum(
            phase.boundary_bytes for phase in stats.phases
        )

    def test_zero_denominator_properties(self):
        stats = ShardingStats()
        assert stats.cross_shard_fraction == 0.0
        assert stats.bytes_per_round == 0.0
        assert stats.setup_seconds_per_phase == 0.0
        # A recorded run with zero barriers/messages (empty network, or a
        # phase a degraded session ran in-process) must not divide by zero.
        stats.observe_phase("empty", 0, 0, 0, 0, 0.0)
        assert len(stats.phases) == 1
        assert stats.cross_shard_fraction == 0.0
        assert stats.bytes_per_round == 0.0
        assert stats.setup_seconds_per_phase == 0.0

    def test_phase_list_growth_over_long_session(self):
        stats = ShardingStats()
        for index in range(25):
            stats.observe_phase("phase-%d" % index, 2, 1, 10, 2, 0.1)
        assert len(stats.phases) == 25
        assert [phase.label for phase in stats.phases] == [
            "phase-%d" % index for index in range(25)
        ]
        assert stats.setup_seconds_per_phase == pytest.approx(0.1)
        assert stats.bytes_per_round == pytest.approx(5.0)
        assert stats.protocol_messages == 50

    def test_multi_phase_session_totals_pinned(self):
        # End-to-end totals over a real process session mixing fresh and
        # reuse executes: one partial per execute, totals == sum of partials.
        network = Network(nx.cycle_graph(12), seed=0)
        session, _config = _open_process_session(network, shards=2)
        with session:
            session.execute(_PingAll())
            session.execute(_PingAll(), reuse_contexts=True)
            session.execute(_PingAll())  # fresh contexts: pool respawn path
            stats = session.stats
        assert len(stats.phases) == 3
        for field in (
            "protocol_messages",
            "cross_shard_messages",
            "boundary_bytes",
            "barrier_rounds",
        ):
            assert getattr(stats, field) == sum(
                getattr(phase, field) for phase in stats.phases
            ), "session total %r diverged from its phase partials" % field
        assert stats.setup_seconds == pytest.approx(
            sum(phase.setup_seconds for phase in stats.phases)
        )
        assert stats.protocol_messages == 3 * 24  # cycle ping-all, 3 runs
        _assert_no_worker_processes()


class TestPipelineFusionSession:
    """The fused pipeline plan on a process session.

    Bit-identity of fused *results* lives in the differential suite; this
    class pins the coordination claim itself: the composite runner ships
    whole fused groups (one ``arm``, workers self-arm between phases),
    so the session's pool re-arms stay strictly below the phases executed.
    Test names carry ``session`` so CI's session job selects them.
    """

    def test_session_fused_composite_elides_rearms(self):
        graph = nx.connected_caveman_graph(2, 8)
        config = CongestConfig(engine="sharded", shards=2)
        runner = DistNearCliqueRunner(
            epsilon=0.25,
            sample_probability=0.05,
            max_sample_size=None,
            rng=random.Random(3),
            config=config,
        )
        result = runner.run(graph, sample=(0, 1, 9))
        assert not result.aborted

        stats = runner.last_session_stats
        phases_executed = len(stats.phases)
        # The satellite invariant: strictly fewer pool re-arms than phases.
        assert stats.rearms < phases_executed
        # And the exact plan shape: the sampling phase plus one arm
        # covering the entire fused exploration+decision suffix.
        assert stats.rearms == 2
        assert stats.fused_phases == phases_executed - stats.rearms
        # Per-phase accounting survives fusion: every phase label is still
        # observed, and totals equal the sum of the partials.
        assert stats.protocol_messages == sum(
            phase.protocol_messages for phase in stats.phases
        )
        _assert_no_worker_processes()


class TestRetiredModeConstructionValidation:
    """``shard_backend`` / ``session_mode`` / ``pipeline_mode`` survive only
    as their one value.

    The constructor still accepts ``shard_backend="process"``,
    ``session_mode="persistent"`` and ``pipeline_mode="fuse"`` (the only
    behaviour left) without storing them; any other value — a typo or a
    deleted backend or mode — fails at construction.
    """

    # "serial" names the deleted in-process sharded backend, "thread" the
    # deleted thread-pool backend.
    @pytest.mark.parametrize("backend", ["serial", "thread", "gpu"])
    def test_constructor_rejects_other_shard_backends(self, backend):
        with pytest.raises(ValueError, match="unknown shard backend") as excinfo:
            CongestConfig(shard_backend=backend)
        assert "serial backend was removed" in str(excinfo.value)
        assert "only shard backend is 'process'" in str(excinfo.value)

    @pytest.mark.parametrize("mode", ["presistent", "per-call"])
    def test_constructor_rejects_other_session_modes(self, mode):
        with pytest.raises(ValueError, match="unknown session mode"):
            CongestConfig(session_mode=mode)

    @pytest.mark.parametrize("mode", ["fused", "off"])
    def test_constructor_rejects_other_pipeline_modes(self, mode):
        with pytest.raises(ValueError, match="unknown pipeline mode"):
            CongestConfig(pipeline_mode=mode)

    def test_replace_reruns_validation(self):
        config = CongestConfig(session_mode="persistent")
        with pytest.raises(ValueError, match="unknown shard backend"):
            dataclasses.replace(config, shard_backend="serial")
        with pytest.raises(ValueError, match="unknown session mode"):
            dataclasses.replace(config, session_mode="per-call")
        with pytest.raises(ValueError, match="unknown pipeline mode"):
            dataclasses.replace(config, pipeline_mode="off")

    def test_accepted_values_construct_and_are_not_stored(self):
        config = CongestConfig(
            engine="sharded",
            shard_backend="process",
            shards=2,
            session_mode="persistent",
            pipeline_mode="fuse",
        )
        assert len(dataclasses.fields(CongestConfig)) == 5
        assert "shard_backend" not in vars(config)
        assert "session_mode" not in vars(config)
        assert "pipeline_mode" not in vars(config)
        assert config.with_log_budget(100) == dataclasses.replace(
            config, message_bit_budget=80
        )


class TestRemovedSurfaceStaysRemoved:
    """The deleted execution features left no name or keyword behind.

    The async engine, the thread backend's pool, per-call pools, the
    unfused pipeline mode, the artifact cache, the ``nx.Graph``-building
    induced subgraph, the scheduler class, the non-contiguous partitioners
    with incremental plan repair, the network's delta ledger, the
    in-process fault simulator, the process session's second (fused)
    execution path, the serial sharded backend, the service's
    worker-recovery layer, a session's absorption of deltas with the CSR
    fingerprint and the partition memo behind it, the network's extra
    topology views, the engine-held sharding stats, and the process
    backend's fault injection, supervised retry and degradation, and the
    pipeline compiler with its per-protocol effect declarations and lint
    rule were deleted, not deprecated: an old spelling fails loudly instead of being
    ignored.
    """

    def test_synchronizer_module_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.congest.synchronizer")

    def test_fault_injection_module_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.congest.sharding.faults")

    def test_pipeline_module_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.congest.pipeline")

    def test_no_pipeline_lint_rule(self, capsys):
        from repro.lint.cli import main as lint_main

        assert lint_main(["--list-rules"]) == 0
        assert "PIPE001" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "owner,name",
        [
            ("repro.congest", "AsyncEngine"),
            ("repro.congest", "AlphaSynchronizer"),
            ("repro.congest", "AsyncRunResult"),
            ("repro.congest", "SESSION_MODES"),
            ("repro.congest.config", "SESSION_MODES"),
            ("repro.congest.config", "PIPELINE_MODES"),
            ("repro.congest.config:CongestConfig", "with_session_mode"),
            ("repro.congest.config:CongestConfig", "with_pipeline_mode"),
            ("repro.congest.engine:CongestSession", "worker_state_authoritative"),
            ("repro.congest.metrics:RunMetrics", "ack_messages"),
            ("repro.congest.metrics:RunMetrics", "safety_messages"),
            ("repro.congest.metrics:RunMetrics", "control_messages"),
            ("repro.congest.network:Network", "induced_subgraph"),
            ("repro.congest", "SynchronousScheduler"),
            ("repro.congest.scheduler", "SynchronousScheduler"),
            ("repro.congest", "PARTITION_STRATEGIES"),
            ("repro.congest.sharding", "PARTITION_STRATEGIES"),
            ("repro.congest.sharding", "repair_plan"),
            ("repro.congest.sharding", "shard_fingerprints"),
            ("repro.congest.sharding.partition", "PARTITION_STRATEGIES"),
            ("repro.congest.sharding.partition", "repair_plan"),
            ("repro.congest.sharding.partition", "shard_fingerprints"),
            ("repro.congest.sharding.partition", "_bfs_owners"),
            ("repro.congest.sharding.partition", "_refine_owners"),
            ("repro.congest.sharding.partition:ShardPlan", "repair"),
            ("repro.congest.sharding.engine", "_sender_key"),
            ("repro.congest.sharding.engine:_ShardStepper", "ranges_are_ordered"),
            ("repro.congest.sharding.workers:ProcessSession", "_absorb_delta"),
            ("repro.congest.sharding.workers:ProcessSession", "_respawn_dirty_shards"),
            ("repro.congest.sharding.workers:ProcessSession", "_respawn_shards"),
            ("repro.congest.config:CongestConfig", "shard_strategy"),
            ("repro.congest.network:Network", "deltas_since"),
            ("repro.service.incremental:NearCliqueService", "_shards_of"),
            ("repro.congest.config:CongestConfig", "budget_multiplier"),
            ("repro.congest.config:CongestConfig", "worker_join_timeout"),
            ("repro.congest.sharding.workers:_WorkerHarness", "arm_sequence"),
            ("repro.congest.sharding.workers:_WorkerHarness", "finish_light"),
            ("repro.congest.sharding.workers:_WorkerPool", "rearm_sequence"),
            ("repro.congest", "SHARD_BACKENDS"),
            ("repro.congest.sharding", "SHARD_BACKENDS"),
            ("repro.congest.sharding.engine", "SHARD_BACKENDS"),
            ("repro.congest.sharding.engine", "_ShardedRun"),
            ("repro.congest.sharding.workers:ProcessSession", "_run_serial"),
            ("repro.service.incremental:NearCliqueService", "recover"),
            ("repro.service.incremental:NearCliqueService", "session"),
            ("repro.service.incremental:NearCliqueService", "_ensure_session"),
            ("repro.service.incremental:NearCliqueService", "_harvest_recovery"),
            ("repro.service.stats:ServiceStats", "worker_crashes"),
            ("repro.service.stats:ServiceStats", "recoveries"),
            ("repro.service.stats:ServiceStats", "retries"),
            ("repro.service.stats:ServiceStats", "worker_timeouts"),
            ("repro.service.stats:ServiceStats", "degradations"),
            ("repro.service.stats:ServiceStats", "observe_crash"),
            ("repro.service.stats:ServiceStats", "observe_recovery"),
            ("repro.service.stats:ServiceStats", "observe_timeout"),
            ("repro.service.stats:ServiceStats", "observe_recovery_event"),
            ("repro.congest.network:Network", "csr"),
            ("repro.congest.network:Network", "graph"),
            ("repro.congest.network:Network", "csr_fingerprint"),
            ("repro.congest.network:Network", "delta_fingerprint"),
            ("repro.congest.network:Network", "_drop_views"),
            ("repro.congest.network", "zlib"),
            ("repro.congest.sharding", "cached_partition"),
            ("repro.congest.sharding", "invalidate_partition_cache"),
            ("repro.congest.sharding.partition", "cached_partition"),
            ("repro.congest.sharding.partition", "invalidate_partition_cache"),
            ("repro.congest.sharding.partition", "_PLAN_CACHE"),
            ("repro.congest.sharding.workers:ProcessSession", "_reconcile_topology"),
            ("repro.congest.sharding.engine:ShardedEngine", "resolve_structure"),
            ("repro.congest.sharding.engine:ShardingStats", "observe_run"),
            ("repro.congest.config", "RetryPolicy"),
            ("repro.congest.config:CongestConfig", "retry_policy"),
            ("repro.congest.config:CongestConfig", "fault_plan"),
            ("repro.congest.sharding.engine", "RecoveryEvent"),
            ("repro.congest.sharding.engine:ShardingStats", "observe_recovery"),
            ("repro.congest.sharding.workers", "FaultInjector"),
            ("repro.congest.sharding.workers:ProcessSession", "_run_on_pool"),
            ("repro.cli", "_retry_policy_from_args"),
            ("repro.congest.node:Protocol", "effects"),
            ("repro.core.dist_near_clique:DistNearCliqueRunner", "_EXTERNAL_READS"),
            ("repro.primitives", "ConvergecastSumProtocol"),
            ("repro.primitives.convergecast", "ConvergecastSumProtocol"),
            ("repro.primitives.convergecast", "KEY_LOCAL_COUNTERS"),
        ],
        ids=lambda part: part.replace(":", "."),
    )
    def test_removed_name_is_gone(self, owner, name):
        module, _, attribute = owner.partition(":")
        target = importlib.import_module(module)
        if attribute:
            target = getattr(target, attribute)
        assert not hasattr(target, name)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(
                lambda: phases.UpAggregationPhase(
                    membership_key="m", result_key="r", extra_effects=None
                ),
                id="UpAggregationPhase-extra_effects",
            ),
            pytest.param(
                lambda: phases.DownBroadcastPhase(
                    items_fn=list, store_fn=print, extra_effects=None
                ),
                id="DownBroadcastPhase-extra_effects",
            ),
            pytest.param(
                lambda: DistNearCliqueRunner(
                    epsilon=0.2, sample_probability=0.5, artifact_cache=None
                ),
                id="DistNearCliqueRunner-artifact_cache",
            ),
            pytest.param(
                lambda: _ShardStepper(ordered_delivery=True),
                id="_ShardStepper-ordered_delivery",
            ),
            pytest.param(
                lambda: CongestConfig(shard_strategy="bfs"), id="CongestConfig-shard_strategy"
            ),
            pytest.param(
                lambda: CongestConfig().with_sharding(strategy="bfs"),
                id="with_sharding-strategy",
            ),
            pytest.param(
                lambda: partition_network(Network(nx.path_graph(3)), 2, strategy="bfs"),
                id="partition_network-strategy",
            ),
            pytest.param(
                lambda: CongestConfig().with_sharding(shards=2, backend="process"),
                id="with_sharding-backend",
            ),
            pytest.param(
                lambda: CongestConfig(retry_policy=None), id="CongestConfig-retry_policy"
            ),
            pytest.param(
                lambda: CongestConfig(fault_plan=None), id="CongestConfig-fault_plan"
            ),
        ],
    )
    def test_removed_keyword_is_rejected(self, call):
        with pytest.raises(TypeError, match="unexpected keyword"):
            call()

    def test_network_rejects_relabel(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            Network(nx.path_graph(3), relabel=False)

    @pytest.mark.parametrize(
        "keyword",
        ["workers", "strategy", "partition_seed", "backend", "shards", "collect_stats"],
    )
    def test_sharded_engine_takes_no_arguments(self, keyword):
        # The shard count is CongestConfig.shards and the stats live on
        # the session, so the engine has no constructor arguments left.
        with pytest.raises(TypeError, match="takes no arguments"):
            ShardedEngine(**{keyword: 2})

    def test_removed_instance_attributes_are_gone(self):
        # Instance state of the deleted strategies, repair path, ledger,
        # per-query shard report and the runner's compiled pipeline plan;
        # opening a process session spawns nothing.
        network = Network(_three_cliques(), seed=0)
        plan = partition_network(network, 3)
        for name in ("strategy", "seed"):
            assert not hasattr(plan, name)
        assert not hasattr(ShardingStats(), "plans")
        assert not hasattr(ShardingStats(), "runs")
        assert not hasattr(get_engine("sharded"), "stats")
        assert not hasattr(get_engine("sharded"), "shards")
        runner = DistNearCliqueRunner(epsilon=0.2, sample_probability=0.5)
        assert not hasattr(runner, "last_pipeline_plan")
        network.apply_delta(removals=[(0, 1)])
        for name in (
            "_delta_log",
            "_csr_arrays",
            "_graph_view",
            "_fingerprint",
            "_delta_fingerprint",
        ):
            assert not hasattr(network, name), name
        session, _config = _open_process_session(network)
        with session:
            for name in (
                "_dirty_shards",
                "last_repair",
                "last_respawned_shards",
                "repairs",
                "_strategy",
                "_partition_seed",
                "_ordered",
                "_fingerprint",
            ):
                assert not hasattr(session, name), name
        from repro.service.stats import QueryRecord, ServiceStats

        record = QueryRecord(kind="full", recomputed_nodes=1, total_nodes=1)
        assert not hasattr(record, "dirty_shards")
        counters = ServiceStats().as_dict()
        for name in (
            "worker_crashes",
            "recoveries",
            "retries",
            "worker_timeouts",
            "degradations",
        ):
            assert name not in counters, name
        _assert_no_worker_processes()

    def test_removed_error_codes_are_gone(self):
        from repro.service.protocol import ERROR_CODES

        assert "worker-crash" not in ERROR_CODES
        assert "worker-timeout" not in ERROR_CODES

    @pytest.mark.parametrize(
        "flag,value", [("--shard-backend", "process"), ("--retry-attempts", "2")]
    )
    def test_removed_cli_flag_is_rejected(self, capsys, flag, value):
        from repro.cli import main

        for command in ("find", "serve"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, flag, value])
            assert excinfo.value.code == 2
            assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "owner,name",
        [
            ("stats", "worker_failures"),
            ("stats", "timeouts"),
            ("session", "_degraded"),
        ],
    )
    def test_removed_failure_ledger_is_gone(self, owner, name):
        # Failures are not counted any more: they escape the session.
        network = Network(nx.cycle_graph(6), seed=0)
        session, _config = _open_process_session(network, shards=2)
        with session:
            session.execute(_PingAll())
            target = session.stats if owner == "stats" else session
            assert not hasattr(target, name)
        _assert_no_worker_processes()

    def test_recovery_counters_stay_zero_after_a_failure(self):
        # perfbench still reads these three; a failure must not move them.
        network = Network(nx.cycle_graph(12), seed=0)
        session, _config = _open_process_session(network)
        with session:
            with pytest.raises(ShardWorkerError):
                session.execute(_CrashInWorker(victim=7))
            session.execute(_PingAll())
            stats = session.stats
        assert (stats.retries, stats.degradations) == (0, 0)
        assert stats.recovery_events == ()
        _assert_no_worker_processes()


class TestShardingKnobConstructionValidation:
    """``shards`` nonsense fails at config construction; the floor is 1."""

    def test_constructor_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            CongestConfig(shards=0)

    def test_constructor_rejects_negative_shards(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            CongestConfig(shards=-3)

    def test_constructor_rejects_the_removed_workers_knob(self):
        # The thread backend's pool width went with the backend.
        with pytest.raises(TypeError, match="shard_workers"):
            CongestConfig(shard_workers=2)
        with pytest.raises(TypeError, match="workers"):
            CongestConfig().with_sharding(shards=2, workers=2)

    def test_error_messages_carry_the_offending_value(self):
        with pytest.raises(ValueError, match=r"\(got 0\)"):
            CongestConfig(shards=0)

    def test_replace_reruns_validation(self):
        config = CongestConfig().with_sharding(shards=4)
        with pytest.raises(ValueError, match="shards must be >= 1"):
            dataclasses.replace(config, shards=0)

    def test_with_sharding_reruns_validation(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            CongestConfig().with_sharding(shards=-1)

    def test_valid_boundary_values_construct(self):
        assert CongestConfig(shards=1).shards == 1
        assert CongestConfig().with_sharding(shards=1).shards == 1

    def test_with_sharding_keeps_the_other_knobs(self):
        config = CongestConfig(shards=3, round_timeout=2.0).with_log_budget(64)
        sharded = config.with_sharding()
        assert sharded.engine == "sharded"
        assert sharded == dataclasses.replace(config, engine="sharded")
        assert config.with_sharding(5).shards == 5

    def test_stored_fields_are_the_five_knobs(self):
        assert [field.name for field in dataclasses.fields(CongestConfig)] == [
            "max_rounds",
            "message_bit_budget",
            "engine",
            "shards",
            "round_timeout",
        ]

    def test_round_timeout_none_or_positive(self):
        assert CongestConfig().round_timeout is None
        assert CongestConfig(round_timeout=2.5).round_timeout == 2.5
        with pytest.raises(ValueError, match="round_timeout"):
            CongestConfig(round_timeout=0.0)
