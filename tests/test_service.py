"""Tests for the service layer: deltas, incremental queries, the daemon.

The load-bearing claim is bit-identity: every service answer — full,
incremental or cached — must equal (labels, sample, candidates and
components) a fresh ``DistNearCliqueRunner`` run on a fresh
``Network(final_graph, seed=query_seed)``.  The incremental path earns
its keep only because that equality is exact, so these tests compare
against the fresh oracle everywhere, including under random delta
sequences across engines (the property arm).
"""

from __future__ import annotations

import io
import json
import multiprocessing
import random
import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import network as network_module
from repro.congest.config import CongestConfig
from repro.congest.engine import DEFAULT_ENGINE
from repro.congest.errors import (
    DeltaError,
    ShardWorkerError,
    ShardWorkerTimeout,
    WireCorruptionError,
)
from repro.congest.network import Network
from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.core.params import AlgorithmParameters
from repro.graphs import generators
from repro.service import (
    NearCliqueDaemon,
    NearCliqueService,
    RequestError,
    parse_request,
)
from repro.service.protocol import (
    ERROR_CODES,
    LabelOrder,
    delta_edges,
    encode_response,
    error_response,
    result_payload,
)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _block_graph(sizes, p=0.9, seed=7) -> nx.Graph:
    """Disjoint dense blocks on contiguous id ranges (multi-component)."""
    rng = random.Random(seed)
    graph = nx.Graph()
    base = 0
    for size in sizes:
        members = list(range(base, base + size))
        graph.add_nodes_from(members)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if rng.random() < p:
                    graph.add_edge(u, v)
        base += size
    return graph


PARAMS = AlgorithmParameters(epsilon=0.3, sample_probability=0.25)


def _fresh(graph: nx.Graph, seed: int, parameters=PARAMS):
    """The oracle: a fresh network, a fresh full run."""
    runner = DistNearCliqueRunner(parameters=parameters)
    return runner.run(network=Network(graph.copy(), seed=seed))


def _assert_identical(result, oracle):
    assert result.labels == oracle.labels
    assert result.sample == oracle.sample
    assert result.candidates == oracle.candidates
    assert result.components == oracle.components
    assert result.aborted == oracle.aborted


# ----------------------------------------------------------------------
# the Network delta API
# ----------------------------------------------------------------------
def _topology(network):
    """Node ids and CSR arrays: equal exactly when the topologies are."""
    indptr, indices = network.csr_numpy()
    return network.node_ids, indptr.tolist(), indices.tolist()


class TestNetworkDeltaAPI:
    def test_effective_delta_updates_graph_and_epoch(self):
        network = Network(nx.path_graph(6), seed=0)
        assert network.delta_epoch == 0
        record = network.apply_delta(additions=[(0, 5)], removals=[(2, 3)])
        assert record.epoch == 1 == network.delta_epoch
        assert record.added == ((0, 5),)
        assert record.removed == ((2, 3),)
        assert record.touched == frozenset({0, 2, 3, 5})
        assert network.has_edge(0, 5) and not network.has_edge(2, 3)
        expected = nx.path_graph(6)
        expected.add_edge(0, 5)
        expected.remove_edge(2, 3)
        assert _topology(network) == _topology(Network(expected))

    def test_noop_entries_are_dropped_without_epoch_bump(self):
        network = Network(nx.path_graph(4), seed=0)
        record = network.apply_delta(additions=[(0, 1)], removals=[(0, 3)])
        assert record.edges_changed == 0
        assert record.touched == frozenset()
        assert network.delta_epoch == 0
        assert _topology(network) == _topology(Network(nx.path_graph(4)))

    def test_thousand_deltas_leave_no_per_delta_records(self):
        # The network keeps one counter per delta stream, not one record
        # per delta: after 1000 deltas that end on the starting topology,
        # every container it holds has the size it had before.
        def sizes(network):
            return {
                name: len(value)
                for name, value in vars(network).items()
                if isinstance(value, (list, tuple, dict, set, frozenset))
            }

        network = Network(nx.path_graph(6), seed=0)
        network.apply_delta(additions=[(0, 5)])
        network.apply_delta(removals=[(0, 5)])
        before = sizes(network)
        for i in range(1000):
            if i % 2:
                network.apply_delta(removals=[(0, 5)])
            else:
                network.apply_delta(additions=[(0, 5)])
        assert network.delta_epoch == 1002
        assert sizes(network) == before
        assert _topology(network) == _topology(Network(nx.path_graph(6)))

    def test_validation_precedes_mutation(self):
        network = Network(nx.path_graph(4), seed=0)
        before = _topology(network)
        with pytest.raises(DeltaError, match="unknown"):
            network.apply_delta(additions=[(0, 2), (0, 99)])
        with pytest.raises(DeltaError, match="self-loop"):
            network.apply_delta(additions=[(1, 1)])
        with pytest.raises(DeltaError, match="both"):
            network.apply_delta(additions=[(1, 3)], removals=[(3, 1)])
        assert _topology(network) == before
        assert network.delta_epoch == 0

    def test_csr_matches_a_freshly_built_network(self):
        graph = _block_graph([8, 8])
        network = Network(graph.copy(), seed=0)
        network.apply_delta(additions=[(0, 9)], removals=[(0, 1)])
        graph.add_edge(0, 9)
        graph.remove_edge(0, 1)
        assert _topology(network) == _topology(Network(graph))

    def test_live_contexts_patched_in_place(self):
        network = Network(nx.path_graph(5), seed=0)
        contexts = network.build_contexts()
        contexts[2].state["keep"] = "me"
        epoch = network.context_epoch
        network.apply_delta(removals=[(1, 2)])
        assert contexts[2].neighbors == (3,)
        assert contexts[1].neighbors == (0,)
        assert contexts[2].state["keep"] == "me"
        # patched, not rebuilt: sessions detect the change via the
        # fingerprint + ledger, not the context epoch
        assert network.context_epoch == epoch


# ----------------------------------------------------------------------
# the service: full / cached / incremental
# ----------------------------------------------------------------------
class TestServiceQueries:
    def test_full_then_cached_then_incremental(self):
        graph = _block_graph([12, 12, 12])
        service = NearCliqueService(graph.copy(), PARAMS)
        with service:
            first = service.query(seed=3)
            assert first.record.kind == "full"
            _assert_identical(first.result, _fresh(graph, 3))

            again = service.query(seed=3)
            assert again.record.kind == "cached"
            assert again.result is first.result
            assert again.record.recomputed_nodes == 0

            service.apply_delta(removals=[(12, 13)])
            graph.remove_edge(12, 13)
            after = service.query(seed=3)
            assert after.record.kind == "incremental"
            assert after.record.recomputed_nodes == 12
            assert after.record.total_nodes == 36
            _assert_identical(after.result, _fresh(graph, 3))

    def test_new_seed_forces_full_recompute(self):
        graph = _block_graph([10, 10])
        service = NearCliqueService(graph.copy(), PARAMS)
        with service:
            service.query(seed=1)
            outcome = service.query(seed=2)
            assert outcome.record.kind == "full"
            _assert_identical(outcome.result, _fresh(graph, 2))

    def test_component_merging_addition_recomputes_both_blocks(self):
        graph = _block_graph([10, 10, 10])
        service = NearCliqueService(graph.copy(), PARAMS)
        with service:
            service.query(seed=5)
            service.apply_delta(additions=[(0, 10)])
            graph.add_edge(0, 10)
            outcome = service.query(seed=5)
            assert outcome.record.kind == "incremental"
            # the merged component spans blocks 0 and 1; block 2 is clean
            assert outcome.record.recomputed_nodes == 20
            _assert_identical(outcome.result, _fresh(graph, 5))

    def test_component_splitting_removal_covers_both_halves(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(13))
        for i in range(5):
            for j in range(i + 1, 5):
                graph.add_edge(i, j)
        graph.add_edge(4, 5)  # bridge to a second half
        for i in range(5, 9):
            for j in range(i + 1, 9):
                graph.add_edge(i, j)
        for i in range(9, 13):  # clean component
            for j in range(i + 1, 13):
                graph.add_edge(i, j)
        service = NearCliqueService(graph.copy(), PARAMS)
        with service:
            service.query(seed=2)
            service.apply_delta(removals=[(4, 5)])
            graph.remove_edge(4, 5)
            outcome = service.query(seed=2)
            assert outcome.record.kind == "incremental"
            assert outcome.record.recomputed_nodes == 9
            _assert_identical(outcome.result, _fresh(graph, 2))

    def test_aborted_run_is_not_cached(self):
        # probability 1 with a tiny guard: every query realises |S| = n
        # and aborts; a repeat must re-run (full), not serve the abort.
        graph = _block_graph([8])
        tight = AlgorithmParameters(
            epsilon=0.3, sample_probability=1.0, max_sample_size=3
        )
        service = NearCliqueService(graph.copy(), tight)
        with service:
            first = service.query(seed=0)
            assert first.result.aborted
            assert first.record.kind == "full"
            again = service.query(seed=0)
            assert again.record.kind == "full"
            _assert_identical(first.result, _fresh(graph, 0, tight))

    def test_incremental_abort_uses_the_global_bound(self):
        # White-box: tighten the guard between queries so the region
        # re-run trips it.  The spliced abort must carry the *global*
        # bound and the merged sample — exactly what a fresh full run
        # with the tightened parameters reports.
        graph = _block_graph([10, 10], p=1.0)
        loose = AlgorithmParameters(
            epsilon=0.3, sample_probability=0.5, max_sample_size=18
        )
        service = NearCliqueService(graph.copy(), loose)
        with service:
            first = service.query(seed=4)
            assert not first.result.aborted
            kept_outside = len(
                [v for v in first.result.sample if v >= 10]
            )
            tight = AlgorithmParameters(
                epsilon=0.3, sample_probability=0.5, max_sample_size=kept_outside
            )
            service.parameters = tight
            service._runner = DistNearCliqueRunner(
                parameters=tight, config=service.config
            )
            service.apply_delta(removals=[(0, 1)])
            graph.remove_edge(0, 1)
            outcome = service.query(seed=4)
            oracle = _fresh(graph, 4, tight)
            assert oracle.aborted, "oracle should trip the tightened guard"
            assert outcome.result.aborted
            assert outcome.result.abort_reason == oracle.abort_reason
            assert outcome.result.sample == oracle.sample

    def test_delta_with_unknown_label_is_rejected_atomically(self):
        service = NearCliqueService(_block_graph([6]), PARAMS)
        with service:
            with pytest.raises(DeltaError, match="unknown node"):
                service.apply_delta(additions=[(0, 777)])
            assert service.stats.deltas == 0
            assert service.query(seed=0).record.kind == "full"

    def test_stats_counters_accumulate(self):
        graph = _block_graph([8, 8])
        service = NearCliqueService(graph, PARAMS)
        with service:
            service.query(seed=0)
            service.query(seed=0)
            service.apply_delta(removals=[(0, 1)])
            service.query(seed=0)
        stats = service.stats
        assert stats.queries == 3
        assert stats.full_queries == 1
        assert stats.cached_hits == 1
        assert stats.incremental_queries == 1
        assert stats.deltas == 1
        assert stats.nodes_recomputed == 16 + 8

    def test_region_reruns_on_the_default_engine(self, monkeypatch):
        # The full query runs on the service's engine (here the reference
        # oracle); the dirty region runs on the default one.
        engines = []
        run = DistNearCliqueRunner.run

        def spy(runner, *args, **kwargs):
            engines.append(runner.config.engine)
            return run(runner, *args, **kwargs)

        monkeypatch.setattr(DistNearCliqueRunner, "run", spy)
        graph = _block_graph([10, 10, 10])
        config = CongestConfig(engine="reference").with_log_budget(30)
        service = NearCliqueService(graph, PARAMS, config=config)
        with service:
            assert service.query(seed=3).record.kind == "full"
            service.apply_delta(removals=[(22, 23)])
            outcome = service.query(seed=3)
            assert outcome.record.kind == "incremental"
            assert outcome.record.recomputed_nodes == 10
        assert engines == ["reference", DEFAULT_ENGINE]


def _cli_serve_workload():
    """The graph and parameters ``serve --n 48 --seed 1`` builds by default."""
    graph, _ = generators.planted_near_clique(
        n=48, clique_fraction=0.5, epsilon=0.2**3, background_p=0.05, seed=1
    )
    parameters = AlgorithmParameters(
        epsilon=0.2, sample_probability=8 / 48, max_sample_size=13
    )
    return graph, parameters


class TestCopyOnWriteLabels:
    """An incremental answer copies the labels dict only when one moved."""

    def _answer_after_removing(self, edge):
        graph, parameters = _cli_serve_workload()
        service = NearCliqueService(graph.copy(), parameters)
        with service:
            base = service.query(seed=1)
            snapshot = dict(base.result.labels)
            service.apply_delta(removals=[edge])
            graph.remove_edge(*edge)
            outcome = service.query(seed=1)
        assert outcome.record.kind == "incremental"
        assert outcome.base is base.result
        _assert_identical(outcome.result, _fresh(graph, 1, parameters))
        return base.result, snapshot, outcome.result

    def test_an_answer_whose_region_kept_its_labels_shares_the_dict(self):
        # Removing (0, 1) re-runs a 44-node region and moves no label.
        base, snapshot, result = self._answer_after_removing((0, 1))
        assert result.labels is base.labels
        assert base.labels == snapshot

    def test_an_answer_that_moves_labels_gets_a_new_dict(self):
        # Removing (0, 8) moves the labels of nodes 8 and 16 (the CI
        # transcript's first delta).
        base, snapshot, result = self._answer_after_removing((0, 8))
        assert result.labels is not base.labels
        assert {v for v in snapshot if result.labels[v] != snapshot[v]} == {8, 16}
        assert base.labels == snapshot


class TestServiceOnWorkerProcesses:
    """The service over the sharded engine: each full query opens and
    closes its own worker pool, so none outlives the query."""

    def test_process_incremental_query_then_full_query_after_delta(self):
        graph = _block_graph([10, 10, 10])
        config = CongestConfig(engine="sharded", shards=3).with_log_budget(30)
        service = NearCliqueService(graph.copy(), PARAMS, config=config)
        with service:
            first = service.query(seed=3)
            assert first.record.kind == "full"
            _assert_identical(first.result, _fresh(graph, 3))
            assert multiprocessing.active_children() == []

            service.apply_delta(removals=[(22, 23)])
            graph.remove_edge(22, 23)
            outcome = service.query(seed=3)
            assert outcome.record.kind == "incremental"
            assert outcome.record.recomputed_nodes == 10
            _assert_identical(outcome.result, _fresh(graph, 3))

            # A reseeded full query runs on a fresh pool over the
            # post-delta topology.
            follow = service.query(seed=8)
            assert follow.record.kind == "full"
            _assert_identical(follow.result, _fresh(graph, 8))
            assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# property arm: random delta sequences, every backend, one oracle
# ----------------------------------------------------------------------
def _random_delta(rng: random.Random, graph: nx.Graph, blocks):
    """A valid random delta confined to one block (keeps locality)."""
    base, size = blocks[rng.randrange(len(blocks))]
    members = list(range(base, base + size))
    present = [
        (u, v)
        for i, u in enumerate(members)
        for v in members[i + 1 :]
        if graph.has_edge(u, v)
    ]
    absent = [
        (u, v)
        for i, u in enumerate(members)
        for v in members[i + 1 :]
        if not graph.has_edge(u, v)
    ]
    removals = rng.sample(present, min(2, len(present)))
    additions = rng.sample(absent, min(2, len(absent)))
    return additions, removals


SERVICE_CONFIGS = [
    pytest.param(None, id="vectorized"),
    pytest.param(
        CongestConfig(engine="reference").with_log_budget(30), id="reference"
    ),
    pytest.param(
        CongestConfig(engine="sharded", shards=3).with_log_budget(30),
        id="process",
    ),
]


class TestServiceDeltaProperty:
    @pytest.mark.parametrize("config", SERVICE_CONFIGS)
    def test_random_delta_sequence_matches_fresh_runs(self, config):
        blocks = [(0, 10), (10, 10), (20, 10)]
        graph = _block_graph([10, 10, 10], p=0.85, seed=11)
        rng = random.Random(2009)
        service = NearCliqueService(graph.copy(), PARAMS, config=config)
        kinds = []
        with service:
            for step in range(4):
                additions, removals = _random_delta(rng, graph, blocks)
                service.apply_delta(additions, removals)
                graph.add_edges_from(additions)
                graph.remove_edges_from(removals)
                seed = 3 if step < 3 else 9  # same-seed streak, then a reseed
                outcome = service.query(seed=seed)
                kinds.append(outcome.record.kind)
                _assert_identical(outcome.result, _fresh(graph, seed))
        assert "incremental" in kinds, kinds
        assert "full" in kinds, kinds


class TestRegionSeeds:
    """An incremental query derives seeds for its dirty region only."""

    @staticmethod
    def _count_seed_columns(monkeypatch):
        lengths = []
        real = network_module.node_seed_column

        def counting(run_seed, ids):
            lengths.append(len(ids))
            return real(run_seed, ids)

        monkeypatch.setattr(network_module, "node_seed_column", counting)
        return lengths

    def test_incremental_queries_compute_seeds_for_the_region_only(
        self, monkeypatch
    ):
        lengths = self._count_seed_columns(monkeypatch)
        blocks = [(0, 10), (10, 10), (20, 10)]
        graph = _block_graph([10, 10, 10], p=0.85, seed=11)
        rng = random.Random(19)
        service = NearCliqueService(graph.copy(), PARAMS)
        with service:
            assert service.query(seed=3).record.kind == "full"
            assert lengths == [30]
            for _ in range(4):
                additions, removals = _random_delta(rng, graph, blocks)
                service.apply_delta(additions, removals)
                graph.add_edges_from(additions)
                graph.remove_edges_from(removals)
                del lengths[:]
                outcome = service.query(seed=3)
                assert outcome.record.kind == "incremental"
                assert lengths == [outcome.record.recomputed_nodes] == [10]
                _assert_identical(outcome.result, _fresh(graph, 3))

    def test_seed_switches_stay_identical_to_fresh_runs(self):
        graph = _block_graph([10, 10, 10], p=0.85, seed=11)
        service = NearCliqueService(graph.copy(), PARAMS)
        a, b = 3, 8
        # (seed, expected kind, edge removed before the query)
        steps = [
            (a, "full", None),
            (b, "full", (0, 1)),
            (b, "incremental", (10, 11)),
            (a, "full", (20, 21)),
            (a, "incremental", (2, 3)),
        ]
        with service:
            for seed, kind, edge in steps:
                if edge is not None and graph.has_edge(*edge):
                    service.apply_delta(removals=[edge])
                    graph.remove_edge(*edge)
                elif edge is not None:
                    service.apply_delta(additions=[edge])
                    graph.add_edge(*edge)
                outcome = service.query(seed=seed)
                assert outcome.record.kind == kind
                _assert_identical(outcome.result, _fresh(graph, seed))

    @pytest.mark.parametrize("seed", [3, 8, 2**70])
    def test_negated_seeds_are_distinct_runs(self, seed):
        graph = _block_graph([10, 10, 10], p=0.85, seed=11)
        with NearCliqueService(graph.copy(), PARAMS) as service:
            plus = service.query(seed=seed).result
            minus = service.query(seed=-seed).result
        _assert_identical(minus, _fresh(graph, -seed))
        assert plus.sample != minus.sample


# ----------------------------------------------------------------------
# the daemon
# ----------------------------------------------------------------------
def _drive(service, requests):
    out = io.StringIO()
    daemon = NearCliqueDaemon(
        service,
        reader=io.StringIO("".join(json.dumps(r) + "\n" for r in requests)),
        writer=out,
    )
    served = daemon.serve_forever()
    return served, [json.loads(line) for line in out.getvalue().splitlines()]


def _spy_close(service):
    """Record each ``close`` call on *service*; returns the record list."""
    calls = []
    close = service.close

    def spy():
        calls.append(True)
        close()

    service.close = spy
    return calls


class TestIncrementalPathIsLocal:
    """Delta/query cycles through the daemon never touch the whole graph."""

    def test_thirty_cycles_leave_the_installed_csr_alone(self):
        parameters = AlgorithmParameters(
            epsilon=0.3, sample_probability=0.25, max_sample_size=None
        )
        graph = _block_graph([10] * 6, p=0.85, seed=5)
        service = NearCliqueService(graph.copy(), parameters)
        daemon = NearCliqueDaemon(service, reader=io.StringIO(), writer=io.StringIO())
        query = json.dumps({"cmd": "query", "seed": 4})
        assert daemon.handle_line(query)["query"]["kind"] == "full"
        network = service.network
        installed = network._indptr, network._indices
        rng = random.Random(27)
        with service:
            for _ in range(30):
                base = 10 * rng.randrange(6)
                u, v = sorted(rng.sample(range(base, base + 10), 2))
                if graph.has_edge(u, v):
                    graph.remove_edge(u, v)
                    delta = {"cmd": "delta", "remove": [[u, v]]}
                else:
                    graph.add_edge(u, v)
                    delta = {"cmd": "delta", "add": [[u, v]]}
                response = daemon.handle_line(json.dumps(delta))
                assert response["added"] + response["removed"] == 1
                answers = [daemon.handle_line(query) for _ in range(2)]
                kinds = [answer["query"]["kind"] for answer in answers]
                assert kinds == ["incremental", "cached"]
                assert network._indptr is installed[0]
                assert network._indices is installed[1]
            assert daemon.handle_line('{"cmd":"stats"}')["incremental_queries"] == 30
        fresh = DistNearCliqueRunner(parameters=parameters).run(
            network=Network(graph, seed=4)
        )
        assert dict(answers[-1]["labels"]) == fresh.labels


class TestDaemon:
    def test_transcript_query_delta_query_stats_shutdown(self):
        graph = _block_graph([10, 10])
        service = NearCliqueService(graph, PARAMS)
        closed = _spy_close(service)
        served, responses = _drive(
            service,
            [
                {"cmd": "query", "seed": 3},
                {"cmd": "delta", "remove": [[0, 1]]},
                {"cmd": "query", "seed": 3},
                {"cmd": "stats"},
                {"cmd": "shutdown"},
            ],
        )
        assert served == 5
        assert [r["ok"] for r in responses] == [True] * 5
        assert responses[0]["query"]["kind"] == "full"
        assert responses[1]["removed"] == 1
        assert responses[2]["query"]["kind"] == "incremental"
        assert responses[2]["query"]["recomputed_nodes"] == 10
        assert responses[3]["queries"] == 2
        assert responses[3]["deltas"] == 1
        # the loop closed the service on the way out
        assert closed == [True]

    def test_bad_requests_answer_typed_errors_and_keep_serving(self):
        service = NearCliqueService(_block_graph([8]), PARAMS)
        out = io.StringIO()
        daemon = NearCliqueDaemon(
            service,
            reader=io.StringIO(
                "not json\n"
                '{"cmd": "wat"}\n'
                '[1, 2]\n'
                '{"cmd": "query", "seed": "zero"}\n'
                '{"cmd": "delta", "add": [[1, 1]]}\n'
                '{"cmd": "delta", "add": [[0, 99]]}\n'
                '{"cmd": "delta", "add": [[[1], 2]]}\n'
                '{"cmd": "delta", "remove": [[1, {"a": 2}]]}\n'
                '{"cmd": "delta", "add": [[true, 5]]}\n'
                '{"cmd": "delta", "add": [[3, false]]}\n'
                '{"cmd": "delta", "remove": [[2.0, 3]]}\n'
                '{"cmd": "delta", "add": [[null, 5]]}\n'
                "\n"
                '{"cmd": "query"}\n'
                '{"cmd": "shutdown"}\n'
            ),
            writer=out,
        )
        served = daemon.serve_forever()
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert served == 14  # the blank line is skipped, not answered
        codes = [
            r["error"]["code"] for r in responses if not r["ok"]
        ]
        # an endpoint that is not an integer or a string names no node:
        # arrays and objects are unhashable, and true, false and 2.0
        # would hash-match nodes 1, 0 and 2, so all are rejected as
        # requests before they reach the service's label lookup
        assert codes == [
            "bad-request",
            "bad-request",
            "bad-request",
            "bad-request",
            "bad-delta",
            "bad-delta",
        ] + ["bad-request"] * 6
        assert responses[-2]["ok"] and responses[-2]["cmd"] == "query"
        assert responses[-1]["cmd"] == "shutdown"

    def test_eof_without_shutdown_still_closes_the_service(self):
        service = NearCliqueService(_block_graph([8]), PARAMS)
        closed = _spy_close(service)
        served, responses = _drive(service, [{"cmd": "query"}])
        assert served == 1 and responses[0]["ok"]
        assert closed == [True]

    @pytest.mark.parametrize(
        "error",
        [
            ShardWorkerError("shard worker for shard 1 died"),
            ShardWorkerTimeout((1,), 2.0, alive_shards=(1,)),
            WireCorruptionError("pickle data was truncated"),
        ],
        ids=["crash", "timeout", "corrupt-wire"],
    )
    def test_every_worker_failure_answers_congest_error(self, error):
        # Crash, watchdog timeout and a batch that fails to unpickle are all
        # CongestErrors: one code, the cached state untouched.
        service = NearCliqueService(_block_graph([10, 10]), PARAMS)
        first = service.query(seed=3)

        def fail(*args, **kwargs):
            raise error

        service._runner.run = fail
        served, responses = _drive(
            service,
            [
                {"cmd": "delta", "remove": [[0, 1]]},
                {"cmd": "query", "seed": 5},
                {"cmd": "query", "seed": 3},
                {"cmd": "stats"},
            ],
        )
        assert served == 4
        assert responses[1]["error"] == {
            "code": "congest-error",
            "message": str(error),
        }
        # The same-seed query is still answered from the cached result.
        assert responses[2]["query"]["kind"] == "incremental"
        # The failed query is not counted: the first full one and the
        # incremental one are.
        assert responses[3]["queries"] == 2
        assert responses[3]["full_queries"] == 1
        assert first.record.kind == "full"

    def test_close_is_idempotent_and_holds_no_session(self):
        service = NearCliqueService(_block_graph([8]), PARAMS)
        service.query(seed=1)
        service.close()
        service.close()
        for name in ("_session", "_recovery_watermark", "_engine"):
            assert not hasattr(service, name), name
        assert service.query(seed=1).record.kind == "cached"

    def test_stats_response_carries_exactly_the_service_counters(self):
        service = NearCliqueService(_block_graph([8]), PARAMS)
        _served, responses = _drive(service, [{"cmd": "query"}, {"cmd": "stats"}])
        stats = responses[1]
        assert sorted(stats) == sorted(
            [
                "ok",
                "cmd",
                "queries",
                "full_queries",
                "incremental_queries",
                "cached_hits",
                "deltas",
                "edges_changed",
                "nodes_recomputed",
            ]
        )
        assert stats["queries"] == stats["full_queries"] == 1



#: Request lines well under the line bound that ``json.loads`` rejects with
#: something other than ``JSONDecodeError``: a ``ValueError`` past the
#: interpreter's integer-string digit limit (Python 3.11 and later only) and
#: a ``RecursionError``.
_HOSTILE_LINES = {
    "5000-digit-seed": '{"cmd":"query","seed":' + "9" * 5000 + "}",
    "200000-brackets": "[" * 200_000,
}
if not hasattr(sys, "get_int_max_str_digits"):
    del _HOSTILE_LINES["5000-digit-seed"]


class TestDaemonHardening:
    @pytest.mark.parametrize("name", sorted(_HOSTILE_LINES))
    def test_hostile_json_answers_bad_request(self, name):
        daemon = NearCliqueDaemon(NearCliqueService(_block_graph([8]), PARAMS))
        response = daemon.handle_line(_HOSTILE_LINES[name])
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"

    def test_serve_loop_survives_hostile_json(self):
        lines = [*_HOSTILE_LINES.values(), '{"cmd":"stats"}']
        out = io.StringIO()
        daemon = NearCliqueDaemon(
            NearCliqueService(_block_graph([8]), PARAMS),
            reader=io.StringIO("".join(line + "\n" for line in lines)),
            writer=out,
        )
        served = daemon.serve_forever()
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert served == len(responses) == len(lines)
        for response in responses[:-1]:
            assert response["error"]["code"] == "bad-request"
        assert responses[-1]["ok"] is True and responses[-1]["cmd"] == "stats"

    def test_oversized_line_is_rejected_in_bounded_memory(self):
        service = NearCliqueService(_block_graph([8]), PARAMS)
        out = io.StringIO()
        huge = '{"cmd": "query", "pad": "' + "x" * 4096 + '"}'
        daemon = NearCliqueDaemon(
            service,
            reader=io.StringIO(
                huge + "\n" + '{"cmd": "query"}\n' + '{"cmd": "shutdown"}\n'
            ),
            writer=out,
            max_line_length=256,
        )
        served = daemon.serve_forever()
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert served == 3
        assert responses[0]["ok"] is False
        assert responses[0]["error"]["code"] == "bad-request"
        assert "256" in responses[0]["error"]["message"]
        # The oversized line was drained, not re-parsed as later requests:
        # the follow-up query and the shutdown answer normally.
        assert responses[1]["ok"] is True and responses[1]["cmd"] == "query"
        assert responses[2]["cmd"] == "shutdown"

    def test_exact_limit_line_still_parses(self):
        service = NearCliqueService(_block_graph([8]), PARAMS)
        request = '{"cmd": "query", "seed": 0}'
        out = io.StringIO()
        daemon = NearCliqueDaemon(
            service,
            reader=io.StringIO(request + "\n" + '{"cmd": "shutdown"}\n'),
            writer=out,
            max_line_length=len(request),
        )
        daemon.serve_forever()
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert responses[0]["ok"] is True

    def test_max_line_length_must_be_positive(self):
        service = NearCliqueService(_block_graph([8]), PARAMS)
        with pytest.raises(ValueError, match="max_line_length"):
            NearCliqueDaemon(service, max_line_length=0)


# The mixed-label graph of the wire-bytes tests: ints whose reprs share
# prefixes, negatives, strings (one that spells an int) and tuples, which
# the wire carries as their repr.
_MIXED_BLOCKS = [
    [1, 10, 100, 1000, 11, 101, -1, -10],
    ["a", "ab", "1", "10", "abc", "b", "ba", "-1"],
    [(1,), (1, 2), (1, 2, 3), (2,), (-1,), (10,), (1, 0), (0,)],
    [2, "2", (2, 1), 20, "20", -2, 200, "x"],
]


def _mixed_label_graph() -> nx.Graph:
    graph = _block_graph([len(block) for block in _MIXED_BLOCKS], seed=5)
    labels = [label for block in _MIXED_BLOCKS for label in block]
    return nx.relabel_nodes(graph, dict(enumerate(labels)))


#: Every other edge of block 0 of ``_block_graph([12, 12, 12])``: removing
#: them dissolves that block's near-clique at query seed 3.
_HALF_OF_BLOCK_0 = [
    [u, v]
    for u, v in _block_graph([12, 12, 12]).edges()
    if max(u, v) < 12 and (u + v) % 2 == 0
]


def _legacy_query_line(outcome) -> str:
    """A ``query`` response line as the repr-sorting encoder wrote it."""

    def jsonable(label):
        if isinstance(label, (int, str)) and not isinstance(label, bool):
            return label
        return repr(label)

    def sorted_values(values):
        items = list(values)
        try:
            return sorted(items)
        except TypeError:
            return sorted(items, key=repr)

    result, record = outcome.result, outcome.record
    payload = {
        "ok": True,
        "cmd": "query",
        "aborted": result.aborted,
        "abort_reason": result.abort_reason,
        "sample": sorted_values(jsonable(v) for v in result.sample),
        "labels": sorted(
            (
                [jsonable(node), None if label is None else jsonable(label)]
                for node, label in result.labels.items()
            ),
            key=repr,
        ),
        "candidates": [
            {
                "component_root": jsonable(c.component_root),
                "size": c.size,
                "survived": c.survived,
                "members": sorted_values(jsonable(v) for v in c.members),
            }
            for c in result.candidates
        ],
        "query": {
            "kind": record.kind,
            "recomputed_nodes": record.recomputed_nodes,
            "total_nodes": record.total_nodes,
        },
    }
    if result.metrics is not None:
        payload["metrics"] = {
            "rounds": result.metrics.rounds,
            "total_messages": result.metrics.total_messages,
            "total_bits": result.metrics.total_bits,
            "max_message_bits": result.metrics.max_message_bits,
        }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _transcript_against_legacy(service, requests):
    """Serve *requests*; return (kinds, response lines, legacy lines)."""
    outcomes = []
    query = service.query

    def spy(seed=0):
        outcome = query(seed=seed)
        outcomes.append(outcome)
        return outcome

    service.query = spy
    out = io.StringIO()
    daemon = NearCliqueDaemon(
        service,
        reader=io.StringIO("".join(json.dumps(r) + "\n" for r in requests)),
        writer=out,
    )
    daemon.serve_forever()
    lines = out.getvalue().splitlines()
    legacy, pending = [], iter(outcomes)
    for line in lines:
        response = json.loads(line)
        if response.get("cmd") == "query":
            legacy.append(_legacy_query_line(next(pending)))
        else:
            legacy.append(
                json.dumps(response, sort_keys=True, separators=(",", ":"))
            )
    assert next(pending, None) is None
    return [o.record.kind for o in outcomes], lines, legacy


class TestDaemonWireBytes:
    """Response lines are byte-identical to the repr-sorting encoder's."""

    def test_mixed_label_transcript_matches_the_legacy_encoder(self):
        graph = _mixed_label_graph()
        service = NearCliqueService(graph, PARAMS)
        kinds, lines, legacy = _transcript_against_legacy(
            service,
            [
                {"cmd": "query", "seed": 3},
                {"cmd": "query", "seed": 3},
                {"cmd": "delta", "remove": [[1, 10]], "add": [[1, "a"]]},
                {"cmd": "query", "seed": 3},
                {"cmd": "query", "seed": 3},
                {"cmd": "stats"},
                {"cmd": "delta", "remove": [[1, "a"]]},
                {"cmd": "query", "seed": 4},
                {"cmd": "delta", "add": [[-1, 100]], "remove": [["ab", "b"]]},
                {"cmd": "query", "seed": 4},
                {"cmd": "query", "seed": 4},
                {"cmd": "query", "seed": 3},
                {"cmd": "delta", "add": [[1, 999]]},  # no node 999: bad-delta
                {"cmd": "query", "seed": 3},
                {"cmd": "shutdown"},
            ],
        )
        assert kinds == [
            "full",
            "cached",
            "incremental",
            "cached",
            "full",
            "incremental",
            "cached",
            "full",
            "cached",
        ]
        assert lines == legacy
        tuple_nodes = [
            pair[0] for pair in json.loads(lines[0])["labels"]
            if isinstance(pair[0], str) and pair[0].startswith("(")
        ]
        assert len(tuple_nodes) == 9

    def test_aborted_query_matches_the_legacy_encoder(self):
        tight = AlgorithmParameters(
            epsilon=0.3, sample_probability=1.0, max_sample_size=3
        )
        service = NearCliqueService(_mixed_label_graph(), tight)
        kinds, lines, legacy = _transcript_against_legacy(
            service,
            [
                {"cmd": "query", "seed": 1},
                {"cmd": "query", "seed": 1},
                {"cmd": "shutdown"},
            ],
        )
        assert kinds == ["full", "full"]
        assert json.loads(lines[0])["aborted"] is True
        assert lines == legacy

    def test_label_moving_deltas_match_the_legacy_encoder(self):
        # Cutting half of block 0's edges dissolves its near-clique (its
        # labels go null); restoring them brings it back.  The incremental
        # answers patch exactly those positions of the previous labels.
        graph = _block_graph([12, 12, 12])
        kinds, lines, legacy = _transcript_against_legacy(
            NearCliqueService(graph, PARAMS),
            [
                {"cmd": "query", "seed": 3},
                {"cmd": "delta", "remove": _HALF_OF_BLOCK_0},
                {"cmd": "query", "seed": 3},
                {"cmd": "query", "seed": 3},
                {"cmd": "delta", "add": _HALF_OF_BLOCK_0},
                {"cmd": "query", "seed": 3},
                {"cmd": "delta", "remove": [[12, 13]]},
                {"cmd": "query", "seed": 3},
                {"cmd": "shutdown"},
            ],
        )
        assert kinds == [
            "full", "incremental", "cached", "incremental", "incremental"
        ]
        assert lines == legacy
        labels = [
            dict(json.loads(line)["labels"])
            for line in lines
            if '"cmd":"query"' in line
        ]
        block = range(12)
        assert any(labels[0][v] is not None for v in block)
        assert all(labels[1][v] is None for v in block)
        assert [labels[3][v] for v in block] == [labels[0][v] for v in block]

    def test_patched_answers_leave_earlier_responses_intact(self):
        daemon = NearCliqueDaemon(
            NearCliqueService(_block_graph([12, 12, 12]), PARAMS)
        )
        query = '{"cmd": "query", "seed": 3}'
        with daemon.service:
            daemon.handle_line(query)
            daemon.handle_line(
                json.dumps({"cmd": "delta", "remove": _HALF_OF_BLOCK_0})
            )
            retained = daemon.handle_line(query)
            retained_line = encode_response(retained)
            retained_pairs = list(retained["labels"])
            later = []
            for delta in (
                {"cmd": "delta", "add": _HALF_OF_BLOCK_0},
                {"cmd": "delta", "remove": [[0, 2]]},
            ):
                daemon.handle_line(json.dumps(delta))
                later.append(daemon.handle_line(query))
        assert [r["query"]["kind"] for r in [retained] + later] == [
            "incremental"
        ] * 3
        assert later[-1]["labels"] != retained_pairs
        assert encode_response(retained) == retained_line
        assert list(retained["labels"]) == retained_pairs

    def test_daemon_rebuilds_when_its_last_answer_is_not_the_base(self):
        # A query the daemon never saw moves the service's cache on: the
        # next incremental answer is spliced from that result, not from
        # the daemon's last answer, so patching the latter would serve
        # block 0's stale labels.
        service = NearCliqueService(_block_graph([12, 12, 12]), PARAMS)
        outcomes = []
        query = service.query

        def spy(seed=0):
            outcomes.append(query(seed=seed))
            return outcomes[-1]

        service.query = spy
        daemon = NearCliqueDaemon(service)
        with service:
            first = daemon.handle_line('{"cmd": "query", "seed": 3}')
            daemon.handle_line(
                json.dumps({"cmd": "delta", "remove": _HALF_OF_BLOCK_0})
            )
            bypass = query(seed=3)
            daemon.handle_line('{"cmd": "delta", "remove": [[12, 13]]}')
            response = daemon.handle_line('{"cmd": "query", "seed": 3}')
        assert bypass.record.kind == "incremental"
        assert outcomes[-1].record.kind == "incremental"
        assert outcomes[-1].base is bypass.result
        assert outcomes[-1].base is not outcomes[0].result
        assert first["labels"] != response["labels"]
        assert encode_response(response) == _legacy_query_line(outcomes[-1])

    def test_cached_answer_shares_the_previous_payload(self):
        daemon = NearCliqueDaemon(NearCliqueService(_block_graph([8, 8]), PARAMS))
        with daemon.service:
            first = daemon.handle_line('{"cmd": "query", "seed": 2}')
            again = daemon.handle_line('{"cmd": "query", "seed": 2}')
        assert again["query"]["kind"] == "cached"
        assert again["labels"] is first["labels"]
        assert first["query"]["kind"] == "full"

    def test_incremental_answer_rebuilds_only_the_chunks_that_moved(self):
        daemon = NearCliqueDaemon(
            NearCliqueService(_block_graph([12, 12, 12]), PARAMS)
        )
        query = '{"cmd": "query", "seed": 3}'
        with daemon.service:
            first = daemon.handle_line(query)
            daemon.handle_line(
                json.dumps({"cmd": "delta", "remove": _HALF_OF_BLOCK_0})
            )
            second = daemon.handle_line(query)
            daemon.handle_line('{"cmd": "delta", "remove": [[24, 35]]}')
            third = daemon.handle_line(query)
        assert [second["query"]["kind"], third["query"]["kind"]] == [
            "incremental", "incremental"
        ]
        # Block 0's labels go null; the edge cut in block 2 moves none.
        old, new = first["labels"], second["labels"]
        size = daemon._label_order.size
        moved = {i // size for i in range(len(old)) if old[i] != new[i]}
        assert moved
        assert moved == {
            c for c, chunk in enumerate(new.chunks) if chunk is not old.chunks[c]
        }
        assert third["labels"] is second["labels"]


# ----------------------------------------------------------------------
# wire-protocol units
# ----------------------------------------------------------------------
class TestProtocol:
    def test_error_codes_are_the_four_failure_kinds(self):
        assert ERROR_CODES == (
            "bad-request",
            "bad-delta",
            "congest-error",
            "internal-error",
        )

    def test_parse_validates_commands_and_arguments(self):
        assert parse_request('{"cmd": "stats"}')["cmd"] == "stats"
        request = parse_request('{"cmd": "delta", "add": [[1, 2]]}')
        assert delta_edges(request) == ([(1, 2)], [])
        for bad in (
            "nope",
            "[]",
            '{"cmd": "nope"}',
            '{"cmd": "query", "seed": true}',
            '{"cmd": "delta", "add": [[1]]}',
            '{"cmd": "delta", "add": 7}',
            '{"cmd": "delta", "add": [[[1], 2]]}',
            '{"cmd": "delta", "remove": [[1, {"a": 2}]]}',
        ):
            with pytest.raises(RequestError):
                parse_request(bad)

    def test_unknown_error_code_degrades_to_internal(self):
        assert error_response("made-up", "x")["error"]["code"] == "internal-error"

    def test_result_payload_is_json_serialisable_and_sorted(self):
        graph = _block_graph([8])
        result = _fresh(graph, 1)
        payload = result_payload(result)
        encoded = json.dumps(payload, sort_keys=True)
        decoded = json.loads(encoded)
        assert decoded["sample"] == sorted(result.sample)
        assert len(decoded["labels"]) == 8

    # Nodes and labels mix ints, strings and tuples.  Labels are nodes of
    # one graph or null, so no two labels are equal with distinct texts
    # (the encoder memoises a labelling's label texts on that contract).
    _NODES = [v for block in _MIXED_BLOCKS for v in block] + list(range(300, 310))
    _LABEL = st.one_of(st.none(), st.sampled_from(_NODES))

    @staticmethod
    def _exact(pairs):
        return [(type(v), v, type(label), label) for v, label in pairs]

    @settings(max_examples=80, deadline=None)
    @given(n=st.sampled_from([1, 2, 25, 26, 37]), data=st.data())
    def test_patched_encode_matches_a_full_encode(self, n, data):
        # 25 and 26 are size^2 and size^2 + 1 for the chunk size 5.
        nodes = self._NODES[:n]
        order = LabelOrder(nodes)
        labels = {v: data.draw(self._LABEL) for v in nodes}
        base = order.encode(labels)
        assert base.text == json.dumps(list(base), separators=(",", ":"))
        for _ in range(data.draw(st.integers(1, 5))):
            region = data.draw(st.lists(st.sampled_from(nodes), unique=True))
            labels = dict(labels)
            for v in region:
                if data.draw(st.booleans()):
                    labels[v] = data.draw(self._LABEL)
            text, chunks, pairs = base.text, list(base.chunks), self._exact(base)
            patched = order.encode(labels, base, region)
            full = order.encode(labels)
            assert patched.text == full.text
            assert patched.chunks == full.chunks
            assert self._exact(patched) == self._exact(full)
            assert (base.text, base.chunks, self._exact(base)) == (
                text, chunks, pairs
            )
            base = patched

    def test_a_one_label_patch_rebuilds_one_chunk(self):
        nodes = list(range(37))
        order = LabelOrder(nodes)
        assert order.size == 6
        labels = dict.fromkeys(nodes)
        base = order.encode(labels)
        labels[17] = 4
        patched = order.encode(labels, base, [16, 17, 18])
        assert patched.text == order.encode(labels).text
        fresh = [
            c for c, chunk in enumerate(patched.chunks)
            if chunk is not base.chunks[c]
        ]
        assert fresh == [order.position[17] // order.size]
        assert len(patched.chunks) == len(base.chunks) == 7

    @pytest.mark.parametrize("count", [0, 1, 26], ids=["no-pairs", "one-pair", "mixed"])
    def test_encode_response_writes_what_json_dumps_writes(self, count):
        assert encode_response({}) == "{}"
        nodes = self._NODES[:count]
        order = LabelOrder(nodes)
        labels = order.encode({v: nodes[i // 3] for i, v in enumerate(nodes)})
        payloads = [
            {"labels": labels},
            {
                "ok": True,
                "cmd": "query",
                "labels": labels,
                "sample": [1, "a"],
                "metrics": {"rounds": 3, "total_bits": 10},
                "abort_reason": None,
            },
        ]
        for payload in payloads:
            plain = dict(payload, labels=[list(pair) for pair in labels])
            assert encode_response(payload) == json.dumps(
                plain, sort_keys=True, separators=(",", ":")
            )

    def test_a_patch_that_moves_no_label_returns_the_base(self):
        nodes = list(range(10))
        order = LabelOrder(nodes)
        labels = {v: v // 5 * 5 for v in nodes}
        base = order.encode(labels)
        assert order.encode(dict(labels), base, [0, 1, 7]) is base
        assert order.encode(labels, base, []) is base
