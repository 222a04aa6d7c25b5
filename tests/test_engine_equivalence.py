"""Differential harness: every engine must be bit-identical to ReferenceEngine.

The contract (module docstring of :mod:`repro.congest.engine`) is that for
every protocol, graph, seed and configuration every registered engine —
``vectorized`` and ``sharded`` today — produces the same
per-node outputs, the same round count, and the same protocol message/bit
metrics including the per-round trace.  This suite runs every protocol in ``repro.primitives`` (plus
the full ``DistNearCliqueRunner`` pipeline, the boosted wrapper, the
tolerant tester's distributed companion, and the shingles baseline) under
each engine on a pool of seeded graphs and asserts exact equality.

Every test that compares a backend against the reference is parametrized by
the backend's registry name, so a failure names the diverging engine in its
test id — which is also what lets CI run the suite once per engine with
``-k <engine>``.  The sharded engine (worker processes exchanging packed
boundary batches) runs as the arm ``process`` of the engine-parametrized
classes, and :class:`TestProcessBackend` adds its shard-count and
whole-pipeline cases; their ids carry ``process`` for the same reason.  The tests that run the runner's
kernel-covered phases add a ``callbacks`` arm: the vectorized engine with
every kernel suppressed, so the callback loop runs those phases too.
"""

from __future__ import annotations

import contextlib
import random

import networkx as nx
import numpy as np
import pytest

from repro.baselines.shingles import ShinglesProtocol
from repro.congest.config import CongestConfig
from repro.congest.engine import ReferenceEngine, available_engines, get_engine
from repro.congest.errors import ProtocolError
from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.node import Protocol
from repro.congest.scheduler import run_protocol
from repro.core.boosting import BoostedNearCliqueRunner
from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.graphs import generators
from repro.proptest.tolerant import TolerantNearCliqueTester
from repro.primitives.bfs_tree import (
    KEY_PARTICIPANT,
    MinIdBFSTreeProtocol,
    ParentNotificationProtocol,
)
from repro.primitives.broadcast import TreeBroadcastProtocol
from repro.primitives.convergecast import KEY_COLLECTED, ConvergecastCollectProtocol
from repro.primitives.leader_election import MinIdFloodingProtocol

from conftest import CallbacksEngine, round_trace, run_fingerprint

#: Engine configurations by arm id: every in-process engine at its default
#: configuration, plus the sharded engine on two shards, whose direct
#: executes each run inside a one-shot worker session.
ARMS = {name: {"engine": name} for name in available_engines() if name != "sharded"}
ARMS["process"] = {"engine": "sharded", "shards": 2}

#: The arms differentially tested against the reference oracle.
FAST_ENGINES = tuple(name for name in ARMS if name != ReferenceEngine.name)

#: ... plus, where the protocols declare kernels (the runner's phases), the
#: vectorized engine with every kernel suppressed: its callback loop then
#: runs the kernel-covered phases too.
ARMS["callbacks"] = {"engine": CallbacksEngine()}
KERNEL_ARMS = FAST_ENGINES + ("callbacks",)


def _config(arm):
    return CongestConfig(**ARMS[arm])


def _graph_pool():
    """~10 seeded graphs spanning the shapes the protocols care about."""
    pool = [
        ("path", nx.path_graph(8)),
        ("star", nx.star_graph(9)),
        ("cycle", nx.cycle_graph(11)),
        ("complete", nx.complete_graph(7)),
        ("two-triangles", nx.Graph([(0, 1), (1, 2), (0, 2), (10, 11), (11, 12), (10, 12)])),
        ("isolates", nx.Graph()),
    ]
    pool[-1][1].add_nodes_from(range(5))
    pool[-1][1].add_edge(0, 1)
    for seed in (2, 5, 9):
        g = nx.gnp_random_graph(24, 0.18, seed=seed)
        pool.append(("gnp-%d" % seed, g))
    planted, _ = generators.planted_near_clique(
        n=40, clique_fraction=0.5, epsilon=0.008, background_p=0.05, seed=7
    )
    pool.append(("planted", planted))
    return pool


GRAPHS = _graph_pool()
GRAPH_IDS = [name for name, _ in GRAPHS]


def _participants(graph):
    return {v: {KEY_PARTICIPANT: True} for v in graph.nodes()}


def _run_primitive_suite(graph, engine, in_session=False, **config_fields):
    """The full primitive pipeline on one network, as the runner chains it.

    With *in_session* every phase runs through one session, which exercises
    every session transition: fresh executes (pool spawn),
    ``reuse_contexts`` chains (light re-arm), and a context build *outside*
    the session (the counters step), which the session must detect via the
    network's context epoch and answer with a respawn.
    """
    network = Network(graph, seed=1234)
    config = CongestConfig(engine=engine, **config_fields).with_log_budget(
        max(2, network.n)
    )
    per_node = _participants(graph)
    with contextlib.ExitStack() as stack:
        session = None
        if in_session:
            session = stack.enter_context(get_engine(engine).open_session(network, config))

        def run(protocol, **inputs):
            result = run_protocol(network, protocol, config=config, session=session, **inputs)
            return run_fingerprint(result)

        fingerprints = [
            run(MinIdFloodingProtocol(), per_node_inputs=per_node),
            run(MinIdBFSTreeProtocol(), per_node_inputs=per_node),
            run(ParentNotificationProtocol(), reuse_contexts=True),
            run(ConvergecastCollectProtocol(), reuse_contexts=True),
            run(
                TreeBroadcastProtocol(input_key=KEY_COLLECTED, output_key="bcast_out"),
                reuse_contexts=True,
            ),
        ]
    return fingerprints


def _runner_fingerprint(graph, config):
    """The 14-phase runner on *graph* under *config*: labels, sample, metrics."""
    result = DistNearCliqueRunner(
        epsilon=0.25,
        sample_probability=0.1,
        rng=random.Random(1003),
        config=config.with_log_budget(graph.number_of_nodes()),
    ).run(graph)
    m = result.metrics
    return (result.labels, result.sample, m.rounds, m.total_messages, m.total_bits,
            round_trace(m))


class TestPrimitiveEquivalence:
    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("graph", [g for _, g in GRAPHS], ids=GRAPH_IDS)
    def test_primitive_pipeline_identical(self, graph, engine):
        reference = _run_primitive_suite(graph, "reference")
        candidate = _run_primitive_suite(graph, **ARMS[engine])
        assert candidate == reference, "engine %r diverged" % engine

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_partial_participation_identical(self, seed, engine):
        graph = nx.gnp_random_graph(20, 0.25, seed=seed)
        rng = random.Random(seed)
        chosen = {v for v in graph.nodes() if rng.random() < 0.4}
        per_node = {v: {KEY_PARTICIPANT: v in chosen} for v in graph.nodes()}
        results = {}
        for name in ("reference", engine):
            network = Network(graph, seed=77)
            config = _config(name).with_log_budget(20)
            result = run_protocol(
                network, MinIdBFSTreeProtocol(), config=config, per_node_inputs=per_node
            )
            results[name] = run_fingerprint(result)
        assert results[engine] == results["reference"]


class TestShinglesEquivalence:
    """The shingles baseline: at most four rounds of shingle, label, report
    and verdict traffic."""

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("seed", [1, 4])
    def test_shingles_identical(self, seed, engine):
        graph, _ = generators.shingles_counterexample(n=24, delta=0.5)
        fingerprints = {}
        for name in ("reference", engine):
            network = Network(graph, seed=seed)
            config = _config(name).with_log_budget(network.n)
            result = run_protocol(network, ShinglesProtocol(), config=config)
            fingerprints[name] = run_fingerprint(result)
        assert fingerprints[engine] == fingerprints["reference"]


def _independent_sample(graph: nx.Graph, size: int, rng: random.Random):
    """*size* pairwise non-adjacent nodes of *graph*, drawn by rejection."""
    nodes = sorted(graph.nodes())
    while True:
        sample = sorted(rng.sample(nodes, size))
        if not any(graph.has_edge(u, v) for i, u in enumerate(sample) for v in sample[i + 1 :]):
            return sample


class TestRunnerEquivalence:
    """The whole 14-phase DistNearClique pipeline, sampled and forced."""

    @pytest.mark.parametrize("engine", KERNEL_ARMS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_full_runner_identical(self, seed, engine):
        graph, _ = generators.planted_near_clique(
            n=60, clique_fraction=0.5, epsilon=0.008, background_p=0.05, seed=seed
        )
        # Seed 0's coins fall into one large sampled component, and a run
        # costs 2^|S_i| in its largest one: it gets a forced independent
        # sample of fixed size instead (singleton components).  Seeds 1-4
        # keep flipping coins, so both sampling paths stay compared.
        sample = _independent_sample(graph, 6, random.Random(seed)) if seed == 0 else None
        results = {}
        for name in ("reference", engine):
            runner = DistNearCliqueRunner(
                epsilon=0.25,
                sample_probability=0.1,
                rng=random.Random(1000 + seed),
                config=_config(name).with_log_budget(graph.number_of_nodes()),
            )
            result = runner.run(graph, sample=sample)
            results[name] = (
                result.labels,
                result.sample,
                result.aborted,
                [c for c in result.candidates],
                result.metrics.rounds,
                result.metrics.total_messages,
                result.metrics.total_bits,
                result.metrics.max_message_bits,
                round_trace(result.metrics),
            )
        assert results[engine] == results["reference"]

    @pytest.mark.parametrize("engine", KERNEL_ARMS)
    def test_forced_sample_identical(self, engine):
        graph, planted = generators.planted_near_clique(
            n=50, clique_fraction=0.5, epsilon=0.008, background_p=0.05, seed=11
        )
        sample = sorted(planted.members)[:4] + [0]
        results = {}
        for name in ("reference", engine):
            runner = DistNearCliqueRunner(
                epsilon=0.25,
                sample_probability=0.1,
                max_sample_size=None,
                rng=random.Random(5),
                config=_config(name).with_log_budget(graph.number_of_nodes()),
            )
            result = runner.run(graph, sample=sample)
            results[name] = (result.labels, result.metrics.rounds,
                             result.metrics.total_bits)
        assert results[engine] == results["reference"]


    @pytest.mark.parametrize("engine", KERNEL_ARMS)
    @pytest.mark.parametrize("sample", [None, [0, 2**70]], ids=["coin", "forced"])
    def test_ids_past_int64_identical(self, engine, sample):
        # The pair-array front-end keeps ids past int64 as Python ints; with
        # no bit budget every in-process engine runs them.  The process
        # backend packs ids into int64 shared memory and refuses them.
        pairs = np.array([[0, 2**70], [2**70, 5], [0, 5]], dtype=object)
        results = {}
        for name in ("reference", engine):
            runner = DistNearCliqueRunner(
                epsilon=0.25,
                sample_probability=0.7,
                max_sample_size=None,
                config=_config(name),
            )
            network = Network(pairs, seed=4)
            if name == "process":
                with pytest.raises(ProtocolError, match="int64"):
                    runner.run(network=network, sample=sample)
                return
            result = runner.run(network=network, sample=sample)
            results[name] = (
                result.labels,
                result.sample,
                result.metrics.rounds,
                result.metrics.total_messages,
                result.metrics.total_bits,
                round_trace(result.metrics),
            )
        assert results["reference"][1]
        assert results[engine] == results["reference"]


class TestWrapperEquivalence:
    """The boosted wrapper and the tolerant tester, across engines."""

    @pytest.mark.parametrize("engine", KERNEL_ARMS)
    def test_boosted_distributed_identical(self, engine):
        graph, _ = generators.planted_near_clique(
            n=40, clique_fraction=0.5, epsilon=0.008, background_p=0.05, seed=2
        )
        results = {}
        for name in ("reference", engine):
            runner = BoostedNearCliqueRunner(
                epsilon=0.25,
                sample_probability=0.12,
                repetitions=3,
                engine="distributed",
                congest_config=_config(name).with_log_budget(graph.number_of_nodes()),
                rng=random.Random(99),
            )
            result = runner.run(graph)
            results[name] = (
                result.labels,
                result.sample,
                result.metrics.rounds,
                result.metrics.total_messages,
                result.metrics.total_bits,
            )
        assert results[engine] == results["reference"]

    @pytest.mark.parametrize("engine", KERNEL_ARMS)
    def test_tolerant_tester_find_distributed_identical(self, engine):
        graph, _ = generators.planted_near_clique(
            n=40, clique_fraction=0.6, epsilon=0.008, background_p=0.05, seed=6
        )
        results = {}
        for name in ("reference", engine):
            tester = TolerantNearCliqueTester(
                rho=0.5,
                epsilon_1=0.25 ** 3,
                epsilon_2=0.25,
                rng=random.Random(17),
                congest_config=_config(name).with_log_budget(graph.number_of_nodes()),
            )
            result = tester.find_distributed(graph)
            results[name] = (
                result.labels,
                result.sample,
                result.metrics.rounds,
                result.metrics.total_bits,
            )
        assert results[engine] == results["reference"]


class TestProcessBackend:
    """The sharded engine across shard counts: worker processes + wire codec.

    Every boundary message of these runs crosses a real process boundary in
    the packed wire format, and every context round-trips through pickle at
    the end of each execute — so this arm exercises serialization paths the
    in-process engines never touch.  The graph-pool sweep is the
    ``process`` arm of :class:`TestPrimitiveEquivalence`; these tests pin
    the contract for 1 to 4 shards — including the single-shard case, which
    must degenerate to the callback loop's semantics — and for more shards
    than nodes.  Test ids contain ``process`` so the CI engine matrix
    selects this arm with ``-k process``.
    """

    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_process_shard_counts(self, shards):
        graph, _ = generators.planted_near_clique(
            n=40, clique_fraction=0.5, epsilon=0.008, background_p=0.05, seed=7
        )
        reference = _run_primitive_suite(graph, "reference")
        candidate = _run_primitive_suite(graph, "sharded", shards=shards)
        assert candidate == reference, (
            "sharded engine diverged with %d shards" % shards
        )

    # A triangle with a pendant node in 64 shards (four one-node shards,
    # one worker each, and 60 empty ones), and a three-node path in 8.
    @pytest.mark.parametrize(
        "graph, shards",
        [
            (nx.Graph([(0, 1), (1, 2), (0, 2), (2, 3)]), 64),
            (nx.path_graph(3), 8),
        ],
        ids=["paw-64", "path-8"],
    )
    def test_more_shards_than_nodes_process(self, graph, shards):
        reference = _run_primitive_suite(graph, "reference")
        candidate = _run_primitive_suite(graph, "sharded", shards=shards)
        assert candidate == reference

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_full_runner_identical_process(self, shards):
        graph, _ = generators.planted_near_clique(
            n=60, clique_fraction=0.5, epsilon=0.008, background_p=0.05, seed=3
        )
        results = {}
        for name, config in (
            ("reference", CongestConfig(engine="reference")),
            ("process", CongestConfig().with_sharding(shards=shards)),
        ):
            results[name] = _runner_fingerprint(graph, config)
        assert results["process"] == results["reference"]

    def test_shingles_identical_process(self):
        # Three shards over the shingles counterexample, so its shingle,
        # label and report messages cross shard boundaries.
        graph, _ = generators.shingles_counterexample(n=24, delta=0.5)
        fingerprints = {}
        for name, config in (
            ("reference", CongestConfig(engine="reference")),
            ("process", CongestConfig().with_sharding(shards=3)),
        ):
            network = Network(graph, seed=4)
            result = run_protocol(
                network,
                ShinglesProtocol(),
                config=config.with_log_budget(network.n),
            )
            fingerprints[name] = run_fingerprint(result)
        assert fingerprints["process"] == fingerprints["reference"]


#: Engine configurations the session arm runs, with the sharded engine (the
#: one whose session keeps real state) carrying "process" in its id so CI's
#: ``-k process`` job includes it.
SESSION_BACKENDS = [
    pytest.param("vectorized", {}, id="vectorized"),
    pytest.param("sharded", {"shards": 2}, id="process"),
]

#: Graph subset for the session pipeline arm (the direct-execute arm already
#: sweeps the full pool per engine; this keeps the session arm affordable
#: while covering sparse, dense, disconnected and planted shapes).
SESSION_GRAPHS = [
    pytest.param(graph, id=name)
    for name, graph in GRAPHS
    if name in ("complete", "isolates", "gnp-2", "planted")
]


class _EchoSessionGlobal(Protocol):
    """Reports a global and a per-node input — pins re-arm delivery of
    ``global_inputs`` and ``per_node_inputs``."""

    name = "echo-session-global"

    def on_start(self, ctx):
        ctx.send_all(Message(kind="ping"))

    def on_round(self, ctx, inbox):
        ctx.write_output(
            (ctx.globals.get("session_tag"), ctx.state.get("session_input"), len(inbox))
        )
        ctx.halt()


class TestSessionMode:
    """The differential session arm: every backend, one session.

    Bit-identity with the reference oracle must hold when a composite
    chain runs through one :class:`repro.congest.engine.CongestSession`
    instead of direct executes — for the thin in-process wrappers
    trivially, and for the process backend's session across pool reuse,
    light re-arms and epoch-triggered respawns.  Test ids
    carry ``session`` (class and parameter ids) so CI's session job
    selects exactly this arm with ``-k session``.
    """

    @pytest.mark.parametrize("engine,fields", SESSION_BACKENDS)
    @pytest.mark.parametrize("graph", SESSION_GRAPHS)
    def test_primitive_pipeline_identical_in_session(self, graph, engine, fields):
        reference = _run_primitive_suite(graph, "reference")
        candidate = _run_primitive_suite(graph, engine, in_session=True, **fields)
        assert candidate == reference, (
            "engine %r diverged in session mode (%r)" % (engine, fields)
        )

    @pytest.mark.parametrize(
        "engine,fields",
        SESSION_BACKENDS + [pytest.param(CallbacksEngine(), {}, id="callbacks")],
    )
    def test_full_runner_identical_in_session(self, engine, fields):
        # The runner runs the 13 post-sampling phases as one fused group
        # (``execute_fused``; on the process backend one arm plus a chain
        # of finish reports, context fold-back only at the group's end).  Fusion elides coordination, never semantics: outputs,
        # rounds and the full per-round trace must stay bit-identical to
        # the reference engine.
        graph, _ = generators.planted_near_clique(
            n=60, clique_fraction=0.5, epsilon=0.008, background_p=0.05, seed=3
        )
        results = {}
        for name, config in (
            ("reference", CongestConfig(engine="reference")),
            ("candidate", CongestConfig(engine=engine, **fields)),
        ):
            results[name] = _runner_fingerprint(graph, config)
        assert results["candidate"] == results["reference"], (
            "runner diverged in session mode under %r (%r)" % (engine, fields)
        )

    def test_session_light_rearm_inputs_identical_process(self):
        # Inputs passed *through* session.execute on reuse executes travel
        # the light re-arm path (globals + per-node state deltas over the
        # pipes); they must land exactly as the reference's build_contexts
        # applies them.
        graph = nx.gnp_random_graph(20, 0.25, seed=8)
        per_node = _participants(graph)
        inputs = {v: {"session_input": v % 4} for v in graph.nodes()}
        results = {}
        for name in ("reference", "session"):
            network = Network(graph, seed=55)
            config = CongestConfig(
                engine="reference" if name == "reference" else "sharded",
                shards=3,
            ).with_log_budget(20)
            with get_engine(config.engine).open_session(network, config) as session:
                chain = []
                tree = run_protocol(
                    network,
                    MinIdBFSTreeProtocol(),
                    config=config,
                    per_node_inputs=per_node,
                    session=session,
                )
                chain.append(run_fingerprint(tree))
                children = run_protocol(
                    network,
                    ParentNotificationProtocol(),
                    config=config,
                    reuse_contexts=True,
                    session=session,
                )
                chain.append(run_fingerprint(children))
                echoed = run_protocol(
                    network,
                    _EchoSessionGlobal(),
                    config=config,
                    reuse_contexts=True,
                    global_inputs={"session_tag": 41},
                    per_node_inputs=inputs,
                    session=session,
                )
                chain.append(run_fingerprint(echoed))
            results[name] = chain
        assert results["session"] == results["reference"]
        assert all(
            value[0] == 41 for value in echoed.outputs.values()
        ), "global input did not reach the re-armed workers"
        assert all(
            value[1] == v % 4 for v, value in echoed.outputs.items()
        ), "per-node input did not reach the re-armed workers"


class TestEngineRegistry:
    def test_available_engines_sorted(self):
        engines = available_engines()
        assert engines == ("reference", "sharded", "vectorized")
        assert engines == tuple(sorted(engines))

    def test_get_engine_by_name(self):
        for name in available_engines():
            assert get_engine(name).name == name

    def test_get_engine_passthrough(self):
        engine = get_engine("vectorized")
        assert get_engine(engine) is engine

    # "async" names the deleted alpha-synchronizer engine, "batched" the
    # callback engine folded into "vectorized".
    @pytest.mark.parametrize("unknown", ["warp-drive", "async", "batched"])
    def test_get_engine_unknown_name_lists_available(self, unknown):
        with pytest.raises(ValueError, match="unknown engine") as excinfo:
            get_engine(unknown)
        assert "available engines: reference, sharded, vectorized" in str(
            excinfo.value
        )

    def test_default_engine_is_vectorized(self):
        # The fastest single-process engine is the default; the reference
        # stays the oracle above.
        assert CongestConfig().engine == "vectorized"
        assert get_engine(None).name == "vectorized"

    def test_config_carries_engine(self):
        config = CongestConfig().with_engine("vectorized")
        assert config.engine == "vectorized"
        assert config.with_log_budget(64).engine == "vectorized"
        assert config.with_max_rounds(5).engine == "vectorized"

    def test_config_with_sharding(self):
        config = CongestConfig().with_sharding(shards=2)
        assert config.engine == "sharded"
        assert config.shards == 2
        assert config.with_log_budget(64).shards == 2
