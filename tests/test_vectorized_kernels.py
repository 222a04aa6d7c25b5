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

import collections
import random

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
from repro.congest.sharding.engine import _ShardState, _ShardStepper
from repro.congest.vectorized import KernelFrame
from repro.core import phases
from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.graphs import generators
from repro.primitives.bfs_tree import KEY_CHILDREN, KEY_PARENT, KEY_ROOT
from repro.primitives.pipelines import Outbox

from conftest import run_fingerprint, without_kernel

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


def _deep_tree_graph():
    """Two sampled components and their audiences, built by hand.

    Component A is the path 0-1-2-3-4 (root 0, BFS depth 4) and component
    B the edge 10-11 (root 10).  Node 20 is adjacent to 1 and 11, both at
    depth 1, so it hears both components' down-broadcasts in the same
    round.  Node 3's attached leaves 21, 22 and 25 see one, two and two
    members of A (membership streams of 1, 3 and 3 subsets), and 25 is
    also attached to B at a different depth.  Node 26 sees all of A (31
    subsets, attached to the root); 30 and 31 are outside S ∪ Γ(S) and 32
    is isolated.
    """
    graph = nx.Graph()
    graph.add_nodes_from([0, 1, 2, 3, 4, 10, 11, 20, 21, 22, 25, 26, 30, 31, 32])
    graph.add_edges_from([(0, 1), (1, 2), (2, 3), (3, 4), (10, 11)])
    graph.add_edges_from([(20, 1), (20, 11), (21, 3), (22, 3), (22, 4)])
    graph.add_edges_from([(25, 3), (25, 4), (25, 11)])
    graph.add_edges_from((26, member) for member in range(5))
    graph.add_edges_from([(30, 20), (30, 21), (31, 30)])
    return graph, frozenset({0, 1, 2, 3, 4, 10, 11})


def _random_deep_tree_graph(seed):
    """A caterpillar component of depth 4 plus a path component, each with
    a random audience (1–4 sampled neighbours per audience node) and
    random edges among the audience."""
    rng = random.Random(seed)
    graph = nx.Graph()
    caterpillar = [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (3, 6), (6, 7)]
    path = [(40, 41), (41, 42)]
    graph.add_edges_from(caterpillar + path)
    sampled = sorted(graph)
    audience = list(range(8, 36))
    graph.add_nodes_from(audience)
    for node in audience:
        members = rng.sample(sampled, rng.randint(1, 4))
        graph.add_edges_from((node, member) for member in members)
        others = rng.sample(audience, 2)
        graph.add_edges_from((node, other) for other in others if other != node)
    return graph, frozenset(sampled)


DEEP_GRAPHS = [
    ("hand-built", *_deep_tree_graph()),
    ("random-7", *_random_deep_tree_graph(7)),
    ("random-19", *_random_deep_tree_graph(19)),
]
DEEP_IDS = [name for name, _, _ in DEEP_GRAPHS]

#: Engine configurations held to the reference by the chain tests.  The
#: ``callbacks`` arm runs the vectorized engine with every phase's kernel
#: suppressed (:func:`conftest.without_kernel`), so the callback loop runs
#: the kernel-covered phases too; the ``process`` arm (the sharded engine)
#: covers the workers' ``start_shard`` scope path and the context fold-back.
CHAIN_ARMS = {
    "reference": dict(engine="reference"),
    "callbacks": dict(engine="vectorized"),
    "vectorized": dict(engine="vectorized"),
    "process": dict(engine="sharded", shards=3),
}


def _queued(outbox):
    """An outbox by its queued messages (no outbox and an empty one are alike)."""
    if outbox is None:
        return {}
    return {nbr: list(queue) for nbr, queue in outbox._queues.items() if queue}


def _context_snapshot(ctx):
    """Everything a ``reuse_contexts`` successor can observe of one context.

    The whole state and the output register, plus the fold-back slots.  The
    outbox compares by its queued messages and the ``is_neighbor`` cache is
    skipped.  The *insertion order* of every dict in the state (component
    and announcer tables, counters, size and best-known tables) is captured
    on purpose, as key lists: the callback path builds them in message
    arrival order, and the kernels must reproduce that order, not just the
    mapping.
    """
    state = {
        key: value
        for key, value in ctx.state.items()
        if key not in ("__neighbor_set", Outbox.STATE_KEY)
    }
    orders = {
        key: _key_order(value)
        for key, value in state.items()
        if isinstance(value, dict)
    }
    return (
        state,
        _queued(ctx.state.get(Outbox.STATE_KEY)),
        ctx.output,
        orders,
        ctx._halted,
        ctx._round,
        len(ctx._outgoing),
    )


def _key_order(table):
    """A dict's keys in insertion order, nested dicts included."""
    return [
        (key, _key_order(value) if isinstance(value, dict) else None)
        for key, value in table.items()
    ]


def _all_snapshots(contexts):
    """Every node's snapshot, read without building contexts (``peek``), so
    a fast arm that left nodes without one stays sparse mid-chain."""
    return [_context_snapshot(contexts.peek(node_id)) for node_id in contexts]


def _arm_protocol(arm, protocol):
    """*protocol* as *arm* runs it: kernel suppressed on the callbacks arm."""
    return without_kernel(protocol) if arm == "callbacks" else protocol


def _run_chain(
    graph, arm, forced_sample=None, members_only=True, network=None, fused=False
):
    """Sampling + the full exploration/decision sequence, one session.

    A forced sample is passed as the runner passes it — inputs for the
    members only, under ``GLOBAL_FORCED_SAMPLE`` — or, with
    ``members_only=False``, as an explicit input for every node.  With
    ``fused=True`` the sequence after sampling runs as one
    ``execute_fused`` call, as the runner runs it, instead of one
    ``execute`` per phase.
    """
    network = network or Network(graph, seed=4321)
    config = CongestConfig(**CHAIN_ARMS[arm]).with_log_budget(
        max(2, graph.number_of_nodes())
    )
    global_inputs = dict(GLOBALS)
    per_node_inputs = None
    if forced_sample is not None and members_only:
        global_inputs[phases.GLOBAL_FORCED_SAMPLE] = True
        per_node_inputs = {
            node_id: {phases.KEY_FORCED_SAMPLE: True} for node_id in forced_sample
        }
    elif forced_sample is not None:
        per_node_inputs = {
            node_id: {phases.KEY_FORCED_SAMPLE: node_id in forced_sample}
            for node_id in network.node_ids
        }
    engine = get_engine(config.engine)
    snapshots = []
    with engine.open_session(network, config) as session:
        result = session.execute(
            _arm_protocol(arm, phases.SamplingPhase()),
            global_inputs=global_inputs,
            per_node_inputs=per_node_inputs,
        )
        snapshots.append(
            ("nc-sampling", run_fingerprint(result), _all_snapshots(result.contexts))
        )
        sequence = [
            _arm_protocol(arm, phase) for phase in DistNearCliqueRunner._phase_sequence()
        ]
        if fused:
            results = session.execute_fused(sequence, reuse_contexts=True)
        else:
            results = (
                session.execute(phase, reuse_contexts=True) for phase in sequence
            )
        for phase, result in zip(sequence, results):
            snapshots.append(
                (phase.name, run_fingerprint(result), _all_snapshots(result.contexts))
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
        for arm in ("vectorized", "process"):
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

    @pytest.mark.parametrize(
        "graph, forced", [(g, f) for _, g, f in CHAIN_GRAPHS], ids=CHAIN_IDS
    )
    def test_fused_chain_matches_phase_by_phase_process(self, graph, forced):
        # The process session ships the fused group with one re-arm and
        # folds the contexts back once, at its end.  Per phase, outputs,
        # metrics and round trace must match one execute per phase, and
        # the contexts after the group those after the last phase.
        stepwise = _run_chain(graph, "process", forced_sample=forced)
        fused = _run_chain(graph, "process", forced_sample=forced, fused=True)
        assert [(name, fp) for name, fp, _ in fused] == [
            (name, fp) for name, fp, _ in stepwise
        ]
        assert fused[-1][2] == stepwise[-1][2]

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

    @pytest.mark.parametrize(
        "graph, forced", [(g, f) for _, g, f in DEEP_GRAPHS], ids=DEEP_IDS
    )
    def test_deep_tree_chain_matches_reference(self, graph, forced):
        reference = _run_chain(graph, "reference", forced_sample=forced)
        for arm in ("callbacks", "vectorized"):
            candidate = _run_chain(graph, arm, forced_sample=forced)
            for (name, ref_fp, ref_state), (_, cand_fp, cand_state) in zip(
                reference, candidate
            ):
                assert cand_fp == ref_fp, "%s: phase %r diverged" % (arm, name)
                assert cand_state == ref_state, (
                    "%s: phase %r left diverging context state" % (arm, name)
                )

    def test_deep_tree_graph_covers_the_cases(self):
        graph, forced = _deep_tree_graph()
        network = Network(graph, seed=4321)
        _run_chain(graph, "reference", forced_sample=forced, network=network)
        state = {v: network.contexts.peek(v).state for v in graph}

        def depth(v):
            parent = state[v].get(KEY_PARENT)
            return 0 if parent is None else 1 + depth(parent)

        assert max(depth(v) for v in forced) >= 3
        # 20 hangs off two components through parents of equal depth.
        attach = state[20][phases.KEY_ATTACH_PARENT]
        assert len(attach) == 2
        assert len({depth(parent) for parent in attach.values()}) == 1
        # Node 3 has several leaves with different membership-stream lengths.
        leaves = state[3][phases.KEY_ATTACHED_LEAVES]
        lengths = {len(state[leaf][phases.KEY_K_MEMBERSHIP][0]) for leaf in leaves}
        assert len(leaves) >= 3 and len(lengths) >= 2

    def test_chain_charges_bits_at_the_announced_n(self):
        # A subgraph network announces the full system's n (the service's
        # incremental queries do): every kernel charges identifiers at
        # that width, as the callbacks' ctx.n does.
        graph, forced = _deep_tree_graph()
        chains = [
            _run_chain(
                graph,
                arm,
                forced_sample=forced,
                network=Network(graph, seed=4321, announced_n=1 << 12),
            )
            for arm in ("reference", "vectorized")
        ]
        assert chains[1] == chains[0]
        assert chains[0] != _run_chain(graph, "reference", forced_sample=forced)

    def test_chain_agrees_under_a_forced_sample(self):
        self._assert_forced_chains_agree(members_only=True)

    def test_chain_agrees_under_an_explicit_input_at_every_node(self):
        self._assert_forced_chains_agree(members_only=False)

    @staticmethod
    def _assert_forced_chains_agree(members_only):
        graph = nx.gnp_random_graph(20, 0.25, seed=11)
        forced = {0, 3, 4, 9}
        reference = _run_chain(
            graph, "reference", forced_sample=forced, members_only=members_only
        )
        for arm in ("callbacks", "vectorized", "process"):
            assert (
                _run_chain(graph, arm, forced_sample=forced, members_only=members_only)
                == reference
            )

    def test_kernel_arm_stays_sparse_through_the_chain(self):
        graph = dict((name, g) for name, g, _ in CHAIN_GRAPHS)["planted"]
        network = Network(graph, seed=4321)
        _run_chain(graph, "vectorized", forced_sample=PLANTED_SAMPLE, network=network)
        involved = set(PLANTED_SAMPLE).union(
            *(network.neighbors(v) for v in PLANTED_SAMPLE)
        )
        live = {ctx.node_id for ctx in network.contexts.live.values()}
        assert live == involved
        assert len(live) < network.n
        # With the kernels suppressed, the unscoped phases start every node.
        callbacks = Network(graph, seed=4321)
        _run_chain(graph, "callbacks", forced_sample=PLANTED_SAMPLE, network=callbacks)
        assert len(callbacks.contexts.live) == callbacks.n


class _MisScoped(Protocol):
    """Scoped on ``"flag"``; its out-of-scope nodes commit one *breach*."""

    name = "mis-scoped"
    scope = ("flag",)

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


class _CallCounting(Protocol):
    """Scoped on ``"flag"``; records every node it starts and harvests.

    Its kernel does the callbacks' work for the frame's started nodes, so
    the vectorized arm exercises :class:`KernelFrame`'s scope pass and
    harvest rather than the callback fallback.
    """

    name = "call-counting"
    scope = ("flag",)

    def __init__(self):
        self.started = []
        self.collected = []

    def on_start(self, ctx):
        self.started.append(ctx.node_id)
        if ctx.state.get("flag"):
            ctx.write_output(ctx.node_id)
        ctx.halt()

    def collect_output(self, ctx):
        self.collected.append(ctx.node_id)
        return ctx.output

    def vectorized_kernel(self):
        protocol = self

        class _Kernel(vectorized.VectorizedKernel):
            def execute(self, frame):
                for index in frame.started:
                    protocol.on_start(frame.live[index])
                    frame.halted[index] = True
                frame.run_schedule(())

        return _Kernel()


class _LeakyOutput(Protocol):
    """Out-of-scope nodes only halt, but still report an output."""

    name = "leaky-output"
    scope = ("flag",)

    def on_start(self, ctx):
        ctx.halt()

    def collect_output(self, ctx):
        return ctx.node_id


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

    # The sharded engine starts its nodes in worker processes, where this
    # process cannot see the protocol's record; its scope pass is pinned
    # in-process by ``test_shard_stepper_starts_only_in_scope_nodes``.
    @pytest.mark.parametrize("engine_name", ["vectorized"])
    def test_fast_engines_start_only_in_scope_nodes(self, engine_name):
        reference, candidate = _MisScoped(), _MisScoped()
        expected = self._run("reference", reference)
        result = self._run(engine_name, candidate)
        assert reference.started == [0, 1, 2, 3]
        assert candidate.started == [2]
        assert result.outputs == expected.outputs == {0: None, 1: None, 2: 2, 3: None}
        assert all(result.contexts.peek(v).halted for v in result.contexts)

    def test_reference_rejects_an_out_of_scope_output(self):
        with pytest.raises(ProtocolError, match="outside the declared scope.*reports"):
            self._run("reference", _LeakyOutput())

    @pytest.mark.parametrize("arm", ["callbacks", "vectorized"])
    def test_fast_engines_neither_start_nor_harvest_out_of_scope_nodes(self, arm):
        protocol = _CallCounting()
        config = CongestConfig(**CHAIN_ARMS[arm])
        result = get_engine(config.engine).execute(
            Network(nx.path_graph(6), seed=1),
            _arm_protocol(arm, protocol),
            config=config,
            # Node 4 holds state but no scope key; the rest hold none.
            per_node_inputs={2: {"flag": True}, 4: {"other": 1}},
        )
        assert protocol.started == protocol.collected == [2]
        assert list(result.outputs.items()) == [
            (0, None), (1, None), (2, 2), (3, None), (4, None), (5, None)
        ]
        assert all(result.contexts.peek(v).halted for v in result.contexts)

    @pytest.mark.parametrize(
        "protocol_class", [_MisScoped, _CallCounting], ids=["mis-scoped", "call-counting"]
    )
    def test_shard_stepper_starts_only_in_scope_nodes(self, protocol_class):
        # The scope pass every worker runs, here in this process: one shard
        # owning the whole path.
        network = Network(nx.path_graph(4), seed=1)
        contexts = network.build_contexts(per_node_inputs={2: {"flag": True}})
        protocol = protocol_class()
        ctx_list = contexts.materialize()
        stepper = _ShardStepper(
            protocol, CongestConfig(), ctx_list, network.node_index_of, [0] * 4
        )
        shard = _ShardState(0, range(4), 1)
        stepper.start_shard(shard)
        assert protocol.started == [2]
        assert shard.started == [network.node_index_of[2]]
        assert all(ctx.halted for ctx in ctx_list)

    @pytest.mark.parametrize(
        "protocol_class",
        [_MisScoped, _CallCounting],
        ids=["mis-scoped-process", "call-counting-process"],
    )
    def test_sharded_engine_harvests_only_in_scope_nodes(self, protocol_class):
        expected = self._run("reference", protocol_class())
        result = self._run("sharded", protocol_class())
        assert result.outputs == expected.outputs == {0: None, 1: None, 2: 2, 3: None}
        assert all(result.contexts.peek(v).halted for v in result.contexts)

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


def _tree_node(root, parent, children=(), leaves=(), **extra):
    """Hand-built state of a sampled tree node."""
    state = {
        phases.KEY_IN_SAMPLE: True,
        KEY_ROOT: root,
        KEY_PARENT: parent,
        KEY_CHILDREN: list(children),
        phases.KEY_ATTACHED_LEAVES: set(leaves),
    }
    state.update(extra)
    return state


def _leaf(attach, **extra):
    """Hand-built state of an attached (non-sampled) node."""
    state = {phases.KEY_ATTACH_PARENT: dict(attach)}
    state.update(extra)
    return state


#: The path 0-1-2-3 of sampled nodes rooted at 0, with leaf 4 under the
#: depth-3 node and leaf 5 under the root.
DEEP_PATH = nx.Graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 5)])


def _deep_path_inputs(deep_index=1):
    """K-aggregation inputs on :data:`DEEP_PATH`; node 3 (depth 3) counts
    the subset *deep_index* itself."""
    k = phases.KEY_K_MEMBERSHIP
    return {
        0: _tree_node(0, None, [1], [5], **{k: {0: {1}}}),
        1: _tree_node(0, 0, [2], **{k: {0: {1, 3}}}),
        2: _tree_node(0, 1, [3], **{k: {0: {3}}}),
        3: _tree_node(0, 2, [], [4], **{k: {0: {2, deep_index}}}),
        4: _leaf({0: 3}, **{k: {0: {1, 2, 3}}}),
        5: _leaf({0: 0}, **{k: {0: {2}}}),
    }


def _k_aggregation():
    return phases.UpAggregationPhase(
        membership_key=phases.KEY_K_MEMBERSHIP,
        result_key=phases.KEY_K_ROOT_SIZES,
        label="nc-k-aggregation",
    )


def _run_phase(engine_name, graph, protocol, inputs, config=None):
    network = Network(graph, seed=3)
    return get_engine(engine_name).execute(
        network,
        protocol,
        config=config or CongestConfig().with_log_budget(graph.number_of_nodes()),
        global_inputs=GLOBALS,
        per_node_inputs=inputs,
    )


def _phase_outcome(engine_name, graph, protocol, inputs):
    result = _run_phase(engine_name, graph, protocol, inputs)
    return run_fingerprint(result), _all_snapshots(result.contexts)


class TestHandBuiltTrees:
    """Tree kernels on hand-built states the pipeline never produces."""

    def test_deep_path_aggregation_matches_reference(self):
        reference = _phase_outcome(
            "reference", DEEP_PATH, _k_aggregation(), _deep_path_inputs()
        )
        assert reference[0][1] > 4  # rounds: the sums climb three levels
        assert _phase_outcome(
            "vectorized", DEEP_PATH, _k_aggregation(), _deep_path_inputs()
        ) == reference

    def test_stalled_wait_in_up_aggregation(self):
        # Node 1 waits on child 2, which is out of scope and never reports:
        # 1 and the root stall with partial counters, and the phase
        # quiesces once the leaves' streams drain.
        graph = nx.Graph([(0, 1), (1, 2), (0, 4), (1, 5)])
        k = phases.KEY_K_MEMBERSHIP
        inputs = {
            0: _tree_node(0, None, [1], [4], **{k: {0: {1}}}),
            1: _tree_node(0, 0, [2], [5], **{k: {0: {1, 2}}}),
            2: {"other": True},
            4: _leaf({0: 0}, **{k: {0: {1, 3}}}),
            5: _leaf({0: 1}, **{k: {0: {2}}}),
        }
        reference = _phase_outcome("reference", graph, _k_aggregation(), inputs)
        state = reference[1][0][0]
        assert state[phases.KEY_K_ROOT_SIZES] is None
        assert state[phases.KEY_K_ROOT_SIZES + ".waiting"] == {1}
        candidate = _phase_outcome("vectorized", graph, _k_aggregation(), inputs)
        assert candidate == reference

    def test_stalled_wait_in_vote(self):
        graph = nx.Graph([(0, 1), (1, 2), (0, 4), (1, 5), (5, 7)])
        best = phases.KEY_BEST_KNOWN
        inputs = {
            0: _tree_node(0, None, [1], [4]),
            1: _tree_node(0, 0, [2], [5]),
            2: {"other": True},
            4: _leaf({0: 0}, **{best: {0: (1, 3)}}),
            # Root 7 wins 5's vote but 5 has no attachment there, so 5
            # aborts candidate 0 and sends nothing for 7.
            5: _leaf({0: 1}, **{best: {0: (1, 3), 7: (2, 5)}}),
        }
        reference = _phase_outcome("reference", graph, phases.VotePhase(), inputs)
        assert reference[1][0][0]["_vote_waiting"] == {1}
        assert reference[1][1][0]["_vote_abort"] is True
        candidate = _phase_outcome("vectorized", graph, phases.VotePhase(), inputs)
        assert candidate == reference

    def test_down_broadcast_backlog_on_a_shared_child(self):
        # Roots 0 and 10 both list 5 as a child, so 5 receives two items a
        # round and its queue to 6 backs up: the forwards leave one per
        # round after the backlog, not in the round they were pushed.
        graph = nx.Graph([(0, 5), (10, 5), (5, 6)])
        sizes = {phases.KEY_K_ROOT_SIZES: {1: 3, 2: 4}}
        inputs = {
            0: _tree_node(0, None, [5], **sizes),
            10: _tree_node(10, None, [5], **sizes),
            5: _tree_node(0, 0, [6]),
            6: _tree_node(0, 5),
        }

        def phase():
            return phases.DownBroadcastPhase(
                items_fn=phases.k_size_items, store_fn=phases.store_k_size
            )

        reference = _phase_outcome("reference", graph, phase(), inputs)
        assert reference[0][1] == 6  # 4 items through 5's queue, from round 2
        assert _phase_outcome("vectorized", graph, phase(), inputs) == reference

    def test_final_labels_overwrite_in_arrival_order(self):
        # 20 hears both surviving candidates in round 2; the callbacks
        # apply the inbox in sender order, so root 10's label wins.
        graph = nx.Graph([(0, 20), (10, 20)])
        survivor = {phases.KEY_BEST: (1, 1), phases.KEY_ABORT_SEEN: False}
        inputs = {
            0: _tree_node(0, None, [], [20], **survivor),
            10: _tree_node(10, None, [], [20], **survivor),
            20: _leaf({0: 0, 10: 10}, **{phases.KEY_T_MEMBERSHIP: {0: {1}, 10: {1}}}),
        }
        reference = _phase_outcome("reference", graph, phases.FinalLabelPhase(), inputs)
        assert reference[0][0][20] == 10
        assert _phase_outcome(
            "vectorized", graph, phases.FinalLabelPhase(), inputs
        ) == reference


def _root_sizes(engine_name, graph, inputs, phase=None, roots=(0,)):
    """Each root's ``KEY_K_ROOT_SIZES`` after one aggregation phase."""
    result = _run_phase(engine_name, graph, phase or _k_aggregation(), inputs)
    return {
        root: result.contexts.peek(root).state[phases.KEY_K_ROOT_SIZES]
        for root in roots
    }


class TestUpAggregationSums:
    """What the roots of an ``UpAggregationPhase`` end with.

    These are the K and T sums of exploration Step 4c and decision Step 1:
    every contributing node counts each of its subset indices once, and
    the counts add up over the component's tree nodes and attached leaves
    at the component root.  Both engines must reach the same sums.
    """

    @pytest.mark.parametrize("engine_name", ["reference", "vectorized"])
    def test_deep_path_sums_per_subset(self, engine_name):
        # Subset 1: nodes 0, 1, 3 and leaf 4; subset 2: node 3 and both
        # leaves; subset 3: nodes 1, 2 and leaf 4.
        sizes = _root_sizes(engine_name, DEEP_PATH, _deep_path_inputs())
        assert sizes == {0: {1: 4, 2: 3, 3: 3}}

    @pytest.mark.parametrize("engine_name", ["reference", "vectorized"])
    def test_star_of_attached_leaves(self, engine_name):
        graph = nx.star_graph(9)
        k = phases.KEY_K_MEMBERSHIP
        inputs = {0: _tree_node(0, None, [], range(1, 10), **{k: {0: {5}}})}
        inputs.update({v: _leaf({0: 0}, **{k: {0: {5}}}) for v in range(1, 10)})
        assert _root_sizes(engine_name, graph, inputs) == {0: {5: 10}}

    @pytest.mark.parametrize("engine_name", ["reference", "vectorized"])
    def test_missing_memberships_count_as_empty(self, engine_name):
        # Only node 2 holds a membership table; the root, node 1 and the
        # leaf under node 2 contribute nothing but still report done.
        graph = nx.path_graph(4)
        k = phases.KEY_K_MEMBERSHIP
        inputs = {
            0: _tree_node(0, None, [1]),
            1: _tree_node(0, 0, [2]),
            2: _tree_node(0, 1, [], [3], **{k: {0: {7, 8}}}),
            3: _leaf({0: 2}),
        }
        assert _root_sizes(engine_name, graph, inputs) == {0: {7: 1, 8: 1}}

    @pytest.mark.parametrize("engine_name", ["reference", "vectorized"])
    def test_components_sum_separately(self, engine_name):
        # Leaf 2 is attached to both components and belongs to a different
        # subset in each; every root counts only its own memberships.
        graph = nx.Graph([(0, 1), (1, 2), (2, 10), (10, 11), (11, 12)])
        k = phases.KEY_K_MEMBERSHIP
        inputs = {
            0: _tree_node(0, None, [1], **{k: {0: {1}}}),
            1: _tree_node(0, 0, [], [2], **{k: {0: {1, 2}}}),
            10: _tree_node(10, None, [11], [2], **{k: {10: {4}}}),
            11: _tree_node(10, 10, [], [12], **{k: {10: {4}}}),
            2: _leaf({0: 1, 10: 10}, **{k: {0: {2}, 10: {4, 6}}}),
            12: _leaf({10: 11}, **{k: {10: {6}}}),
        }
        sizes = _root_sizes(engine_name, graph, inputs, roots=(0, 10))
        assert sizes == {0: {1: 2, 2: 2}, 10: {4: 3, 6: 2}}

    @pytest.mark.parametrize("engine_name", ["reference", "vectorized"])
    def test_root_finalize_sees_the_complete_counts(self, engine_name):
        seen = []

        def finalize(ctx, counters):
            seen.append((ctx.node_id, dict(counters)))

        phase = phases.UpAggregationPhase(
            membership_key=phases.KEY_K_MEMBERSHIP,
            result_key=phases.KEY_K_ROOT_SIZES,
            root_finalize=finalize,
        )
        sizes = _root_sizes(engine_name, DEEP_PATH, _deep_path_inputs(), phase)
        assert seen == [(0, sizes[0])]

    @pytest.mark.parametrize("engine_name", ["reference", "vectorized"])
    def test_pre_start_runs_before_counting_at_participants_only(self, engine_name):
        # pre_start gives every participant subset 9; node 6, neither in
        # the sample nor attached, never runs it.
        started = []

        def pre_start(ctx):
            started.append(ctx.node_id)
            ctx.state[phases.KEY_K_MEMBERSHIP] = {0: {9}}

        phase = phases.UpAggregationPhase(
            membership_key=phases.KEY_K_MEMBERSHIP,
            result_key=phases.KEY_K_ROOT_SIZES,
            pre_start=pre_start,
        )
        graph = nx.Graph(DEEP_PATH)
        graph.add_edge(5, 6)
        inputs = _deep_path_inputs()
        inputs[6] = {"other": True}
        sizes = _root_sizes(engine_name, graph, inputs, phase)
        assert sorted(started) == [0, 1, 2, 3, 4, 5]
        assert sizes == {0: {9: 6}}


class TestDownBroadcastReach:
    """A root's items reach its whole tree and every attached leaf."""

    @staticmethod
    def _k_sizes(engine_name, graph, inputs):
        phase = phases.DownBroadcastPhase(
            items_fn=phases.k_size_items, store_fn=phases.store_k_size
        )
        result = _run_phase(engine_name, graph, phase, inputs)
        return {
            node_id: result.contexts.peek(node_id).state.get(phases.KEY_K_SIZES)
            for node_id in sorted(graph)
        }

    @pytest.mark.parametrize("engine_name", ["reference", "vectorized"])
    def test_items_reach_tree_and_leaves_only(self, engine_name):
        # Zero sizes are not broadcast; node 5 is outside S and Γ(S).
        graph = nx.Graph([(0, 1), (1, 2), (2, 3), (0, 4), (4, 5)])
        inputs = {
            0: _tree_node(
                0, None, [1], [4], **{phases.KEY_K_ROOT_SIZES: {1: 3, 2: 0, 4: 5}}
            ),
            1: _tree_node(0, 0, [2]),
            2: _tree_node(0, 1, [], [3]),
            3: _leaf({0: 2}),
            4: _leaf({0: 0}),
            5: {"other": True},
        }
        table = {0: {1: 3, 4: 5}}
        assert self._k_sizes(engine_name, graph, inputs) == {
            0: table, 1: table, 2: table, 3: table, 4: table, 5: None
        }

    @pytest.mark.parametrize("engine_name", ["reference", "vectorized"])
    def test_shared_leaf_hears_both_roots(self, engine_name):
        graph = nx.Graph([(0, 20), (10, 20)])
        inputs = {
            0: _tree_node(0, None, [], [20], **{phases.KEY_K_ROOT_SIZES: {1: 2}}),
            10: _tree_node(10, None, [], [20], **{phases.KEY_K_ROOT_SIZES: {3: 4}}),
            20: _leaf({0: 0, 10: 10}),
        }
        assert self._k_sizes(engine_name, graph, inputs) == {
            0: {0: {1: 2}},
            10: {10: {3: 4}},
            20: {0: {1: 2}, 10: {3: 4}},
        }


class TestKernelCoverage:
    """The vectorized engine runs every tree phase as a kernel."""

    TREE_PHASES = (
        "nc-local-subsets",
        "nc-k-aggregation",
        "nc-k-size-broadcast",
        "nc-t-aggregation",
        "nc-best-broadcast",
        "nc-vote",
        "nc-final-labels",
    )

    @pytest.mark.parametrize("engine_name", ["reference", "vectorized"])
    def test_tree_phase_callbacks_run_only_off_the_vectorized_engine(
        self, engine_name, monkeypatch
    ):
        calls = collections.Counter()
        for cls in (
            phases.LocalSubsetPhase,
            phases.UpAggregationPhase,
            phases.DownBroadcastPhase,
            phases.VotePhase,
        ):
            for hook in ("on_start", "on_round"):
                original = getattr(cls, hook)

                def counting(self, ctx, *args, _original=original):
                    calls[self.name] += 1
                    return _original(self, ctx, *args)

                monkeypatch.setattr(cls, hook, counting)
        graph = dict((name, g) for name, g, _ in CHAIN_GRAPHS)["planted"]
        runner = DistNearCliqueRunner(
            epsilon=0.25,
            sample_probability=0.1,
            config=CongestConfig(engine=engine_name).with_log_budget(
                graph.number_of_nodes()
            ),
        )
        runner.run(graph, sample=PLANTED_SAMPLE)
        if engine_name == "vectorized":
            assert not calls
        else:
            assert sorted(calls) == sorted(self.TREE_PHASES)


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
        reference = run_fingerprint(self._run("reference", config, [1, 2, 3]))
        assert run_fingerprint(self._run("vectorized", config, [1, 2, 3])) == reference

    def _tree_error(self, engine_name, config, deep_index):
        with pytest.raises((MessageSizeViolation, RoundLimitExceeded)) as info:
            _run_phase(
                engine_name,
                DEEP_PATH,
                _k_aggregation(),
                _deep_path_inputs(deep_index),
                config=config,
            )
        exc = info.value
        if isinstance(exc, MessageSizeViolation):
            return (
                "size", exc.sender, exc.receiver, exc.bits, exc.budget, exc.round_index
            )
        return ("rounds", exc.max_rounds)

    def test_budget_violation_by_a_deep_tree_node(self):
        # The depth-3 node's own subset index is too wide for the budget
        # and every other item fits, so the violation is the depth-3
        # node's nc.agg item for that index, sent to its parent 2.
        config = CongestConfig(message_bit_budget=20)
        reference = self._tree_error("reference", config, 1 << 20)
        assert reference[:3] == ("size", 3, 2)
        assert reference[5] > 1
        assert self._tree_error("vectorized", config, 1 << 20) == reference

    def test_budget_violation_follows_queue_order(self):
        # Leaf 20 streams over-budget items to two parents in round 1; its
        # queue to 11 (root 0, the first root it attached to) comes first
        # although 1 has the lower id.
        graph = nx.Graph([(0, 11), (10, 1), (20, 11), (20, 1)])
        k = phases.KEY_K_MEMBERSHIP
        inputs = {
            0: _tree_node(0, None, [11]),
            11: _tree_node(0, 0, [], [20]),
            10: _tree_node(10, None, [1]),
            1: _tree_node(10, 10, [], [20]),
            20: _leaf({0: 11, 10: 1}, **{k: {0: {1 << 20}, 10: {1 << 20}}}),
        }
        config = CongestConfig(message_bit_budget=24)
        errors = []
        for engine_name in ("reference", "vectorized"):
            with pytest.raises(MessageSizeViolation) as info:
                _run_phase(engine_name, graph, _k_aggregation(), inputs, config=config)
            exc = info.value
            errors.append(
                (exc.sender, exc.receiver, exc.bits, exc.budget, exc.round_index)
            )
        assert errors[0][:2] == (20, 11)
        assert errors[1] == errors[0]

    def test_round_cap_mid_convergecast(self):
        config = CongestConfig(max_rounds=3).with_log_budget(6)
        reference = self._tree_error("reference", config, 1)
        assert reference == ("rounds", 3)
        assert self._tree_error("vectorized", config, 1) == reference


class TestKernelFrame:
    """Unit coverage of the frame's gather helper."""

    def _frame(self, graph):
        network = Network(graph, seed=9)
        return KernelFrame(
            network,
            phases.SamplingPhase(),
            CongestConfig(),
            network.build_contexts(),
        )

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
            node_id = frame.node_ids[index]
            expected = sum(
                1
                for neighbor in graph.neighbors(node_id)
                if flags[int(neighbor)]
            )
            assert int(counts[index]) == expected
