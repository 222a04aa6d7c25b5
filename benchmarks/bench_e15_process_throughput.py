"""E15 — the sharded engine's worker processes: wall time and boundary bytes.

The sharded engine (:mod:`repro.congest.sharding.workers`) runs one worker
process per shard, paying for it with serialization of the boundary
traffic, pickled once per source and destination shard.  This benchmark
reports both sides of that trade on a large chatty workload:

* **Wall time against the fastest single-process engine** — flooding +
  BFS primitives at n ≥ 4000 on a *community* workload (dense equal-size
  blocks with contiguous ids over a sparse random background — the paper's
  tightly-knit-web-communities motivation, and the structure sharding
  exists for: the contiguous partition keeps the cut small and the shards
  balanced) under the vectorized engine versus the sharded engine, same
  graph.  The engines are bit-identical by contract, so outputs and
  metrics are asserted equal before any timing is reported.  The
  process/vectorized wall-time ratio is printed, not gated.  These two
  phases have no vectorized kernel, so both engines run callback loops
  here; on the full find, whose other phases do have kernels, the
  vectorized engine is several times faster (README, "Engines").

* **Boundary bytes per round** — the pickled boundary bytes crossing the
  round barrier per round
  (:attr:`repro.congest.sharding.ShardingStats.bytes_per_round`) next to
  the contiguous plan's cut fraction: the serialization bill of the
  worker processes.

Run directly (``python benchmarks/bench_e15_process_throughput.py``) or via
the pytest-benchmark harness like the other experiments; quick mode
(``REPRO_BENCH_QUICK=1`` or ``--quick``) keeps n at 4000 but trims
repetitions.
"""

from __future__ import annotations

import os
import random
import sys
import time

import networkx as nx

from repro.analysis import tables
from repro.congest.config import CongestConfig
from repro.congest.engine import get_engine
from repro.congest.network import Network
from repro.congest.scheduler import run_protocol
from repro.primitives.bfs_tree import KEY_PARTICIPANT, MinIdBFSTreeProtocol
from repro.primitives.leader_election import MinIdFloodingProtocol

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0") or "0"))

#: Shard count (== worker processes) of the headline comparison.
SHARDS = 4


def _community_graph(n: int, blocks: int, p_in: float, p_out: float, seed: int):
    """Equal dense blocks with contiguous ids over a sparse background."""
    rng = random.Random(seed)
    graph = nx.Graph()
    size = n // blocks
    for block in range(blocks):
        dense = nx.gnp_random_graph(size, p_in, seed=seed + block)
        offset = block * size
        graph.add_edges_from((offset + u, offset + v) for u, v in dense.edges())
    graph.add_nodes_from(range(n))
    for _ in range(int(p_out * n * n / 2.0)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v)
    return graph


def _workload(quick: bool):
    # The scale stays at n >= 4000 even in quick mode — below that the
    # per-round Python work cannot amortise the barrier pipes at all;
    # quick mode trims repetitions instead.
    n = 4000 if quick else 6000
    graph = _community_graph(n, SHARDS, 0.04, 2.0 / n, seed=7)
    return "web-communities (n=%d, %d blocks)" % (n, SHARDS), graph


def _fingerprint(result):
    m = result.metrics
    return (
        result.outputs,
        m.rounds,
        m.total_messages,
        m.total_bits,
        m.max_message_bits,
    )


def _run_once(graph, config):
    network = Network(graph, seed=9)
    per_node = {v: {KEY_PARTICIPANT: True} for v in graph.nodes()}
    protocols = [MinIdFloodingProtocol(), MinIdBFSTreeProtocol()]
    start = time.perf_counter()
    fingerprints = []
    for protocol in protocols:
        result = run_protocol(
            network,
            protocol,
            config=config.with_log_budget(graph.number_of_nodes()),
            per_node_inputs=per_node,
        )
        fingerprints.append(_fingerprint(result))
    return time.perf_counter() - start, fingerprints


def _throughput_table(name, graph, quick):
    modes = [
        ("vectorized", CongestConfig(engine="vectorized")),
        ("sharded process", CongestConfig().with_sharding(SHARDS)),
    ]
    timings, fingerprints = {}, {}
    # Best-of-N with the modes interleaved, so both sides are sampled under
    # comparable load.
    repetitions = 2 if quick else 3
    for _ in range(repetitions):
        for label, config in modes:
            elapsed, fingerprint = _run_once(graph, config)
            timings[label] = min(timings.get(label, float("inf")), elapsed)
            fingerprints[label] = fingerprint

    # Bit-identity before any timing is reported (the engine contract).
    assert fingerprints["sharded process"] == fingerprints["vectorized"], (
        "sharded engine diverged from the vectorized engine on %s" % name
    )

    rows = [
        [label, round(timings[label], 3), round(timings[label] / timings["vectorized"], 2)]
        for label, _ in modes
    ]
    tables.print_table(
        ["engine", "wall s", "vs vectorized"],
        rows,
        title="E15  %s — flooding + BFS wall time (%d shards, bit-identical runs)"
        % (name, SHARDS),
    )
    print(
        "process/vectorized wall-time ratio: %.2fx (%d CPUs)"
        % (timings["sharded process"] / max(timings["vectorized"], 1e-9), os.cpu_count() or 1)
    )
    return timings


def _boundary_bytes_table(name, graph):
    """Pickled boundary traffic of the contiguous plan: the serialization bill."""
    per_node = {v: {KEY_PARTICIPANT: True} for v in graph.nodes()}
    network = Network(graph, seed=9)
    config = CongestConfig().with_sharding(SHARDS)
    config = config.with_log_budget(graph.number_of_nodes())
    with get_engine("sharded").open_session(network, config) as session:
        result = session.execute(MinIdBFSTreeProtocol(), per_node_inputs=per_node)
    stats = session.stats
    assert stats.protocol_messages == result.metrics.total_messages
    assert stats.barrier_rounds > 0 and stats.boundary_bytes > 0
    plan = stats.plan
    rows = [
        [
            "%d/%d" % (plan.cut_edges, plan.total_edges),
            round(plan.cut_fraction, 3),
            round(stats.cross_shard_fraction, 3),
            stats.boundary_bytes,
            int(stats.bytes_per_round),
        ]
    ]
    tables.print_table(
        [
            "cut edges",
            "edge cut frac",
            "msg cut frac",
            "boundary bytes",
            "bytes/round",
        ],
        rows,
        title="E15  %s — pickled boundary traffic (%d worker processes)"
        % (name, SHARDS),
    )
    return rows


def _run_suite(quick: bool):
    name, graph = _workload(quick)
    timings = _throughput_table(name, graph, quick)
    _boundary_bytes_table(name, graph)
    return timings


def bench_e15_process_throughput(benchmark):
    """pytest-benchmark entry point, matching the other E* modules."""
    _run_suite(QUICK)

    name, graph = _workload(quick=True)
    config = CongestConfig().with_sharding(SHARDS)
    benchmark(lambda: _run_once(graph, config))


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    quick = QUICK or "--quick" in argv
    _run_suite(quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
