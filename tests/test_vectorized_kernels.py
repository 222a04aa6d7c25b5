"""Differential and property tests for the vectorized kernel engine.

The chain tests drive the real ``DistNearClique`` phase sequence through one
execution session with ``reuse_contexts=True``, alternating kernel-covered
phases (sampling, component dissemination, K-announcements) with callback
phases (BFS, convergecast, aggregations) — and assert that ``vectorized``
and the serial ``sharded`` engine match the reference oracle *per phase*:
outputs, metrics including the per-round trace, every context's whole
state and output register (plus the insertion order of the kernel-written
tables, which the arrival-order contract pins), and the context fold-back
slots (halted flag, round counter, empty outbox) that the next phase of a
``reuse_contexts`` pipeline reads.  Most phases declare a
:attr:`~repro.congest.node.Protocol.scope`, so these comparisons also hold
the fast engines' skipping of out-of-scope nodes to the reference's full
sweep; the scope-contract tests check the reference's side of that
contract.

The property tests cover the gather helper's CSR segment-reduction on
arbitrary graphs — disconnected components and isolated nodes included —
and the error parity of the closed-form broadcast schedule (bit-budget
violations and round caps must surface exactly as the callback loop raises
them).
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import vectorized
from repro.congest.config import CongestConfig
from repro.congest.engine import get_engine
from repro.congest.errors import (
    MessageSizeViolation,
    ProtocolError,
    RoundLimitExceeded,
)
from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.node import Protocol
from repro.congest.vectorized import KernelFrame
from repro.core import phases
from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.graphs import generators
from repro.primitives.pipelines import Outbox

GLOBALS = {
    phases.GLOBAL_EPSILON: 0.25,
    phases.GLOBAL_SAMPLE_PROBABILITY: 0.35,
    phases.GLOBAL_MIN_OUTPUT_SIZE: 0,
    phases.GLOBAL_STEP4F_SAMPLING: False,
    phases.GLOBAL_STEP4F_SAMPLE_SIZE: 32,
}


#: Forced sample of the planted chain graph.  A coin-flip sample at p=0.35
#: on n=40 made this graph's exploration cost O(2^|S|) for a large random
#: |S|; this sample keeps the cases that matter small: a 4-member clique
#: component {0, 1, 2, 3}, a singleton {26} and a pair {29, 30}, with node
#: 12 (not sampled) adjacent to both {0, 1, 2, 3} and {26}, and nodes 32
#: and 36 isolated.
PLANTED_SAMPLE = frozenset({0, 1, 2, 3, 26, 29, 30})


def _chain_graphs():
    g_isolates = nx.Graph()
    g_isolates.add_nodes_from(range(6))
    g_isolates.add_edge(0, 1)
    planted, _ = generators.planted_near_clique(
        n=40, clique_fraction=0.5, epsilon=0.008, background_p=0.05, seed=7
    )
    return [
        ("path", nx.path_graph(8), None),
        ("star", nx.star_graph(9), None),
        ("isolates", g_isolates, None),
        ("gnp", nx.gnp_random_graph(24, 0.18, seed=5), None),
        ("planted", planted, PLANTED_SAMPLE),
    ]


CHAIN_GRAPHS = _chain_graphs()
CHAIN_IDS = [name for name, _, _ in CHAIN_GRAPHS]

#: Engine configurations held to the reference by the chain tests.  The
#: serial sharded arm covers ``start_shard``'s scope path.
CHAIN_ARMS = {
    "reference": dict(engine="reference"),
    "batched": dict(engine="batched"),
    "vectorized": dict(engine="vectorized"),
    "sharded": dict(engine="sharded", shards=3, shard_backend="serial"),
}


def _trace(metrics):
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


def _fingerprint(result):
    m = result.metrics
    return (
        result.outputs,
        m.rounds,
        m.total_messages,
        m.total_bits,
        m.max_message_bits,
        m.max_messages_per_round,
        _trace(m),
    )


def _queued(outbox):
    """An outbox by its queued messages (no outbox and an empty one are alike)."""
    if outbox is None:
        return {}
    return {nbr: list(queue) for nbr, queue in outbox._queues.items() if queue}


def _context_snapshot(ctx):
    """Everything a ``reuse_contexts`` successor can observe of one context.

    The whole state and the output register, plus the fold-back slots.  The
    outbox compares by its queued messages and the ``is_neighbor`` cache is
    skipped.  Dict *insertion order* of the component and announcer tables
    is captured on purpose (as key lists): the callback path builds them in
    message arrival order, and the kernels must reproduce that order, not
    just the mapping.
    """
    state = {
        key: value
        for key, value in ctx.state.items()
        if key not in ("__neighbor_set", Outbox.STATE_KEY)
    }
    records = ctx.state.get(phases.KEY_ADJ_COMPONENTS)
    announcers = ctx.state.get(phases.KEY_K_NEIGHBOR_ANNOUNCERS)
    return (
        state,
        _queued(ctx.state.get(Outbox.STATE_KEY)),
        ctx.output,
        list(records) if records is not None else None,
        list(announcers) if announcers is not None else None,
        ctx._halted,
        ctx._round,
        len(ctx._outgoing),
    )


def _run_chain(graph, arm, forced_sample=None):
    """Sampling + the full exploration/decision sequence, one session."""
    network = Network(graph, seed=4321)
    config = CongestConfig(**CHAIN_ARMS[arm]).with_log_budget(
        max(2, graph.number_of_nodes())
    )
    per_node_inputs = None
    if forced_sample is not None:
        per_node_inputs = {
            node_id: {phases.KEY_FORCED_SAMPLE: node_id in forced_sample}
            for node_id in network.node_ids
        }
    engine = get_engine(config.engine)
    snapshots = []
    with engine.open_session(network, config) as session:
        result = session.execute(
            phases.SamplingPhase(),
            global_inputs=GLOBALS,
            per_node_inputs=per_node_inputs,
        )
        snapshots.append(
            (
                "nc-sampling",
                _fingerprint(result),
                [
                    _context_snapshot(ctx)
                    for _, ctx in sorted(result.contexts.items())
                ],
            )
        )
        for phase in DistNearCliqueRunner._phase_sequence():
            result = session.execute(phase, reuse_contexts=True)
            snapshots.append(
                (
                    phase.name,
                    _fingerprint(result),
                    [
                        _context_snapshot(ctx)
                        for _, ctx in sorted(result.contexts.items())
                    ],
                )
            )
    return snapshots


class TestKernelCallbackChain:
    """Satellite: kernel and callback phases must chain bit-identically."""

    @pytest.mark.parametrize(
        "graph, forced", [(g, f) for _, g, f in CHAIN_GRAPHS], ids=CHAIN_IDS
    )
    def test_full_phase_chain_matches_reference(self, graph, forced):
        reference = _run_chain(graph, "reference", forced_sample=forced)
        assert len(reference) == 1 + len(DistNearCliqueRunner._phase_sequence())
        for arm in ("vectorized", "sharded"):
            candidate = _run_chain(graph, arm, forced_sample=forced)
            assert len(candidate) == len(reference)
            for (ref_name, ref_fp, ref_state), (cand_name, cand_fp, cand_state) in zip(
                reference, candidate
            ):
                assert cand_name == ref_name
                assert cand_fp == ref_fp, "%s: phase %r diverged" % (arm, ref_name)
                assert cand_state == ref_state, (
                    "%s: phase %r left diverging context state" % (arm, ref_name)
                )

    def test_planted_sample_covers_the_chain_cases(self):
        graph = dict((name, g) for name, g, _ in CHAIN_GRAPHS)["planted"]
        components = sorted(
            (sorted(c) for c in nx.connected_components(graph.subgraph(PLANTED_SAMPLE))),
            key=len,
        )
        assert len(components) >= 2
        assert len(components[-1]) >= 4
        assert any(
            v not in PLANTED_SAMPLE
            and sum(1 for c in components if any(graph.has_edge(v, u) for u in c)) >= 2
            for v in graph
        )
        assert any(graph.degree(v) == 0 for v in graph)

    def test_chain_agrees_with_batched_under_forced_sample(self):
        graph = nx.gnp_random_graph(20, 0.25, seed=11)
        forced = {0, 3, 4, 9}
        reference = _run_chain(graph, "reference", forced_sample=forced)
        for arm in ("batched", "vectorized", "sharded"):
            assert _run_chain(graph, arm, forced_sample=forced) == reference

    def test_full_runner_matches_reference(self):
        graph, _ = generators.planted_near_clique(
            n=60, clique_fraction=0.5, epsilon=0.008, background_p=0.05, seed=3
        )
        results = {}
        for engine_name in ("reference", "vectorized"):
            import random

            runner = DistNearCliqueRunner(
                epsilon=0.25,
                sample_probability=0.1,
                rng=random.Random(1003),
                config=CongestConfig(engine=engine_name).with_log_budget(
                    graph.number_of_nodes()
                ),
            )
            outcome = runner.run(graph)
            results[engine_name] = (
                outcome.labels,
                outcome.metrics.rounds,
                outcome.metrics.total_messages,
                outcome.metrics.total_bits,
            )
        assert results["vectorized"] == results["reference"]


class _MisScoped(Protocol):
    """Scoped on ``"flag"``; its out-of-scope nodes commit one *breach*."""

    name = "mis-scoped"
    scope = ("flag",)
    quiesce_terminates = True

    def __init__(self, breach=None):
        self.breach = breach
        self.started = []

    def on_start(self, ctx):
        self.started.append(ctx.node_id)
        if ctx.state.get("flag"):
            ctx.write_output(ctx.node_id)
            ctx.halt()
            return
        if self.breach == "state":
            ctx.state["touched"] = True
        elif self.breach == "send":
            ctx.send(ctx.neighbors[0], Message(kind="x", payload=None, bits=8))
        elif self.breach == "output":
            ctx.write_output(-1)
        if self.breach != "no-halt":
            ctx.halt()


class TestScopeContract:
    """Out-of-scope nodes may only halt; the reference engine checks it."""

    def _run(self, engine_name, protocol):
        network = Network(nx.path_graph(4), seed=1)
        return get_engine(engine_name).execute(
            network, protocol, per_node_inputs={2: {"flag": True}}
        )

    @pytest.mark.parametrize(
        "breach, words",
        [
            ("state", "wrote its state"),
            ("send", "sent a message"),
            ("output", "wrote its output"),
            ("no-halt", "did not halt"),
        ],
    )
    def test_reference_rejects_a_breach(self, breach, words):
        with pytest.raises(ProtocolError, match="outside the declared scope.*" + words):
            self._run("reference", _MisScoped(breach))

    @pytest.mark.parametrize("engine_name", ["batched", "vectorized", "sharded"])
    def test_fast_engines_start_only_in_scope_nodes(self, engine_name):
        reference, candidate = _MisScoped(), _MisScoped()
        expected = self._run("reference", reference)
        result = self._run(engine_name, candidate)
        assert reference.started == [0, 1, 2, 3]
        assert candidate.started == [2]
        assert result.outputs == expected.outputs == {0: None, 1: None, 2: 2, 3: None}
        assert all(ctx.halted for ctx in result.contexts.values())

    def test_pipeline_protocols_declare_their_scopes(self):
        scoped = {
            phase.name: phase.scope
            for phase in DistNearCliqueRunner._phase_sequence()
        }
        sample_or_attached = (phases.KEY_IN_SAMPLE, phases.KEY_ATTACH_PARENT)
        assert scoped == {
            "min-id-bfs-tree": ("participant",),
            "bfs-parent-notification": ("participant",),
            "convergecast-collect": ("participant",),
            "tree-broadcast": ("participant",),
            "nc-comp-dissemination": None,
            "nc-local-subsets": (phases.KEY_IN_SAMPLE, phases.KEY_ADJ_COMPONENTS),
            "nc-k-aggregation": sample_or_attached,
            "nc-k-size-broadcast": sample_or_attached,
            "nc-k-announce": (phases.KEY_K_MEMBERSHIP,),
            "nc-t-aggregation": sample_or_attached,
            "nc-best-broadcast": sample_or_attached,
            "nc-vote": (phases.KEY_IN_SAMPLE, phases.KEY_BEST_KNOWN),
            "nc-final-labels": sample_or_attached,
        }
        assert phases.SamplingPhase.scope is None

    @pytest.mark.parametrize(
        "graph, forced", [(g, f) for _, g, f in CHAIN_GRAPHS], ids=CHAIN_IDS
    )
    def test_in_tree_scopes_hold_on_the_reference(self, graph, forced):
        # The reference checks every out-of-scope start of every phase.
        snapshots = _run_chain(graph, "reference", forced_sample=forced)
        assert [name for name, _, _ in snapshots][1:] == [
            phase.name for phase in DistNearCliqueRunner._phase_sequence()
        ]


def _dissemination_inputs(network, members):
    """Per-node inputs that make node 0 a sampled broadcaster of *members*."""
    inputs = {
        node_id: {phases.KEY_IN_SAMPLE: False} for node_id in network.node_ids
    }
    inputs[0] = {
        phases.KEY_IN_SAMPLE: True,
        phases.KEY_ROOT: 0,
        phases.KEY_COMP_BCAST: list(members),
    }
    return inputs


class TestScheduleErrorParity:
    """Budget and round-cap errors must match the callback loop exactly."""

    def _run(self, engine_name, config, members):
        network = Network(nx.star_graph(5), seed=77)
        return get_engine(engine_name).execute(
            network,
            phases.CompDisseminationPhase(),
            config=config,
            global_inputs=GLOBALS,
            per_node_inputs=_dissemination_inputs(network, members),
        )

    def _error(self, engine_name, config, members):
        with pytest.raises((MessageSizeViolation, RoundLimitExceeded)) as info:
            self._run(engine_name, config, members)
        exc = info.value
        if isinstance(exc, MessageSizeViolation):
            return (
                "size",
                exc.sender,
                exc.receiver,
                exc.bits,
                exc.budget,
                exc.round_index,
            )
        return ("rounds", exc.max_rounds)

    def test_budget_violation_identical(self):
        config = CongestConfig(message_bit_budget=12)
        reference = self._error("reference", config, [1, 2, 3])
        assert reference[0] == "size"
        assert self._error("vectorized", config, [1, 2, 3]) == reference

    def test_round_limit_identical(self):
        config = CongestConfig(max_rounds=2).with_log_budget(6)
        reference = self._error("reference", config, [1, 2, 3, 4])
        assert reference == ("rounds", 2)
        assert self._error("vectorized", config, [1, 2, 3, 4]) == reference

    def test_budget_violation_wins_within_cap(self):
        # Over-budget from round 1 on, cap at 1: the size violation fires
        # during round 1, before the cap would be hit.
        config = CongestConfig(message_bit_budget=12, max_rounds=1)
        reference = self._error("reference", config, [1, 2, 3])
        assert reference[0] == "size"
        assert self._error("vectorized", config, [1, 2, 3]) == reference

    def test_round_cap_wins_before_late_violation(self):
        # Items 1..3 fit the budget; the huge member at queue position 3
        # would violate in round 4, but the cap aborts at round 2.
        config = CongestConfig(message_bit_budget=32, max_rounds=2)
        members = [1, 2, 3, 1 << 40]
        reference = self._error("reference", config, members)
        assert reference == ("rounds", 2)
        assert self._error("vectorized", config, members) == reference

    def test_clean_run_matches(self):
        config = CongestConfig().with_log_budget(6)
        reference = _fingerprint(self._run("reference", config, [1, 2, 3]))
        assert _fingerprint(self._run("vectorized", config, [1, 2, 3])) == reference


class TestKernelFrame:
    """Unit coverage of the frame's gather helper and intern vocabulary."""

    def _frame(self, graph):
        network = Network(graph, seed=9)
        return KernelFrame(
            network,
            phases.SamplingPhase(),
            CongestConfig(),
            network.build_contexts(),
        )

    def test_intern_vocabulary(self):
        frame = self._frame(nx.path_graph(3))
        assert frame.intern_kind("nc.comp") == 0
        assert frame.intern_kind("nc.ksize") == 1
        assert frame.intern_kind("nc.comp") == 0
        assert frame.kind_name(1) == "nc.ksize"

    def test_isolated_only_graph_counts_zero(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        frame = self._frame(graph)
        flags = np.ones(4, dtype=bool)
        assert frame.count_flagged_neighbors(flags).tolist() == [0, 0, 0, 0]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_count_flagged_neighbors_matches_bruteforce(self, data):
        n = data.draw(st.integers(min_value=1, max_value=24), label="n")
        edges = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                max_size=48,
            ),
            label="edges",
        )
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from((u, v) for u, v in edges if u != v)
        flags = data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n), label="flags"
        )
        frame = self._frame(graph)
        mask = np.array(flags, dtype=bool)
        counts = frame.count_flagged_neighbors(mask)
        for index in range(n):
            node_id = int(frame.ids[index])
            expected = sum(
                1
                for neighbor in graph.neighbors(node_id)
                if flags[int(neighbor)]
            )
            assert int(counts[index]) == expected


class TestFallbacks:
    """Protocols without kernels use the batched path."""

    def test_kernel_free_protocol_matches_batched(self):
        from repro.primitives.leader_election import MinIdFloodingProtocol

        graph = nx.gnp_random_graph(16, 0.2, seed=3)
        results = {}
        for engine_name in ("batched", "vectorized"):
            network = Network(graph, seed=5)
            results[engine_name] = _fingerprint(
                get_engine(engine_name).execute(network, MinIdFloodingProtocol())
            )
        assert results["vectorized"] == results["batched"]
