"""Differential and property tests for the vectorized kernel engine.

The chain tests drive the real ``DistNearClique`` phase sequence through one
execution session with ``reuse_contexts=True``, alternating kernel-covered
phases (sampling, component dissemination, K-announcements) with callback
phases (BFS, convergecast, aggregations) — and assert that ``vectorized``
matches the reference oracle *per phase*: outputs, metrics including the
per-round trace, the kernel-written state tables (including dict insertion
order, which the arrival-order contract pins), and the context fold-back
slots (halted flag, round counter, empty outbox) that the next phase of a
``reuse_contexts`` pipeline reads.

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
from repro.congest.errors import MessageSizeViolation, RoundLimitExceeded
from repro.congest.network import Network
from repro.congest.vectorized import KernelFrame
from repro.core import phases
from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.graphs import generators

GLOBALS = {
    phases.GLOBAL_EPSILON: 0.25,
    phases.GLOBAL_SAMPLE_PROBABILITY: 0.35,
    phases.GLOBAL_MIN_OUTPUT_SIZE: 0,
    phases.GLOBAL_STEP4F_SAMPLING: False,
    phases.GLOBAL_STEP4F_SAMPLE_SIZE: 32,
}


def _chain_graphs():
    g_isolates = nx.Graph()
    g_isolates.add_nodes_from(range(6))
    g_isolates.add_edge(0, 1)
    planted, _ = generators.planted_near_clique(
        n=40, clique_fraction=0.5, epsilon=0.008, background_p=0.05, seed=7
    )
    return [
        ("path", nx.path_graph(8)),
        ("star", nx.star_graph(9)),
        ("isolates", g_isolates),
        ("gnp", nx.gnp_random_graph(24, 0.18, seed=5)),
        ("planted", planted),
    ]


CHAIN_GRAPHS = _chain_graphs()
CHAIN_IDS = [name for name, _ in CHAIN_GRAPHS]


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


def _context_snapshot(ctx):
    """The kernel-written state a ``reuse_contexts`` successor can observe.

    Dict *insertion order* is captured on purpose (as the key lists): the
    callback path builds the component and announcer tables in message
    arrival order, and the kernels must reproduce that order, not just the
    mapping.
    """
    records = ctx.state.get(phases.KEY_ADJ_COMPONENTS)
    adj = None
    if records is not None:
        adj = [
            (root, tuple(sorted(rec["members"])), tuple(sorted(rec["senders"])))
            for root, rec in records.items()
        ]
    announcers = ctx.state.get(phases.KEY_K_NEIGHBOR_ANNOUNCERS)
    ann = None
    if announcers is not None:
        ann = [
            (key, rec["size"], tuple(sorted(rec["senders"])))
            for key, rec in announcers.items()
        ]
    return (
        bool(ctx.state.get(phases.KEY_IN_SAMPLE)),
        ctx.state.get(phases.KEY_COMP_MEMBERS),
        adj,
        ann,
        ctx._halted,
        ctx._round,
        len(ctx._outgoing),
    )


def _run_chain(graph, engine_name, forced_sample=None):
    """Sampling + the full exploration/decision sequence, one session."""
    network = Network(graph, seed=4321)
    config = CongestConfig(engine=engine_name).with_log_budget(
        max(2, graph.number_of_nodes())
    )
    per_node_inputs = None
    if forced_sample is not None:
        per_node_inputs = {
            node_id: {phases.KEY_FORCED_SAMPLE: node_id in forced_sample}
            for node_id in network.node_ids
        }
    engine = get_engine(engine_name)
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
        "graph", [g for _, g in CHAIN_GRAPHS], ids=CHAIN_IDS
    )
    def test_full_phase_chain_matches_reference(self, graph):
        reference = _run_chain(graph, "reference")
        candidate = _run_chain(graph, "vectorized")
        for (ref_name, ref_fp, ref_state), (cand_name, cand_fp, cand_state) in zip(
            reference, candidate
        ):
            assert cand_name == ref_name
            assert cand_fp == ref_fp, "phase %r diverged" % ref_name
            assert cand_state == ref_state, (
                "phase %r left diverging context state" % ref_name
            )

    def test_chain_agrees_with_batched_under_forced_sample(self):
        graph = nx.gnp_random_graph(20, 0.25, seed=11)
        forced = {0, 3, 4, 9}
        reference = _run_chain(graph, "reference", forced_sample=forced)
        for engine_name in ("batched", "vectorized"):
            assert _run_chain(graph, engine_name, forced_sample=forced) == reference

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
