"""E14 — sharded execution: partition-parallel throughput and cut overhead.

The paper's algorithm is neighbourhood-local, so the network can be cut
into shards that step their rounds independently and exchange only the
messages crossing the cut (:mod:`repro.congest.sharding`).  This benchmark
quantifies the two costs of that design on large planted-near-clique
workloads:

* **Wall-clock overhead** — the full ``DistNearClique`` pipeline under the
  ``sharded`` engine's serial backend versus the ``vectorized`` fast path
  on the same graph and forced sample.  The engines are bit-identical by
  contract, so the comparison is pure throughput; outputs and metrics are
  asserted equal before any timing is reported.

* **Cut-edge message fraction** — for each shard count of the contiguous
  plan, the fraction of protocol messages that crossed a shard boundary
  (measured with :class:`repro.congest.sharding.ShardingStats`) next to
  the static edge-cut fraction of the
  :class:`repro.congest.sharding.ShardPlan`.  This is the quantity the
  process backend pays serialisation for.

Quick mode (``REPRO_BENCH_QUICK=1`` or ``--quick``) shrinks the workload so
the benchmark doubles as a CI gate: serial-mode bit-identity and the
stats' agreement with the run's metrics and the plan are always checked.

Run directly (``python benchmarks/bench_e14_sharded_throughput.py``) or via
the pytest-benchmark harness like the other experiments.
"""

from __future__ import annotations

import os
import random
import sys
import time

from repro.analysis import tables
from repro.congest.config import CongestConfig
from repro.congest.network import Network
from repro.congest.sharding import ShardedEngine, partition_network
from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.graphs import generators

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0") or "0"))

#: Shard count of the headline comparison (the acceptance configuration).
SHARDS = 4


def _planted_workload(quick: bool):
    n = 500 if quick else 2000
    graph, _ = generators.planted_near_clique(
        n=n, clique_fraction=0.3, epsilon=0.008, background_p=0.01, seed=3
    )
    return "planted-near-clique (n=%d)" % n, graph


def _fingerprint(result):
    m = result.metrics
    return (
        result.labels,
        result.sample,
        m.rounds,
        m.total_messages,
        m.total_bits,
        m.max_message_bits,
    )


def _run_once(graph, sample, engine=None, config=None):
    runner = DistNearCliqueRunner(
        epsilon=0.25,
        sample_probability=len(sample) / float(graph.number_of_nodes()),
        max_sample_size=None,
        rng=random.Random(42),
        config=(config or CongestConfig()).with_log_budget(
            graph.number_of_nodes()
        ),
        engine=engine,
    )
    start = time.perf_counter()
    result = runner.run(graph, sample=sample)
    return time.perf_counter() - start, result


def _throughput_table(name, graph, quick):
    """Vectorized vs serial sharded on the same graph and sample."""
    sample = sorted(random.Random(1).sample(sorted(graph.nodes()), 7))
    modes = [
        ("vectorized", "vectorized", None),
        ("sharded serial", None, CongestConfig().with_sharding(SHARDS)),
    ]

    timings, fingerprints = {}, {}
    # Best-of-N with the modes interleaved: shared runners are noisy, and a
    # ratio gate needs both sides sampled under comparable load.  Vectorized
    # leads each sweep, so the sharded timings never benefit from a warmer
    # cache than the baseline had.
    repetitions = 2 if quick else 3
    for _ in range(repetitions):
        for label, engine, config in modes:
            elapsed, result = _run_once(graph, sample, engine=engine, config=config)
            timings[label] = min(timings.get(label, float("inf")), elapsed)
            fingerprints[label] = _fingerprint(result)

    # Bit-identity before any timing claim (the engine contract).
    for label in fingerprints:
        assert fingerprints[label] == fingerprints["vectorized"], (
            "%s diverged from vectorized on %s" % (label, name)
        )

    rows = [
        [label, round(timings[label], 3), round(timings[label] / timings["vectorized"], 2)]
        for label, _, _ in modes
    ]
    tables.print_table(
        ["mode", "wall s", "vs vectorized"],
        rows,
        title="E14  %s — DistNearClique wall time (%d shards, bit-identical runs)"
        % (name, SHARDS),
    )
    return timings


def _cut_overhead_table(name, graph):
    """Cut statistics and measured cross-shard traffic per shard count."""
    sample = sorted(random.Random(1).sample(sorted(graph.nodes()), 7))
    rows = []
    for shards in (2, SHARDS, 2 * SHARDS):
        engine = ShardedEngine(shards=shards, collect_stats=True)
        plan = partition_network(Network(graph, seed=0), shards)
        _, result = _run_once(graph, sample, engine=engine)
        stats = engine.stats
        assert stats.protocol_messages == result.metrics.total_messages
        assert stats.plan == plan
        rows.append(
            [
                shards,
                "%d/%d" % (plan.cut_edges, plan.total_edges),
                round(plan.cut_fraction, 3),
                stats.protocol_messages,
                stats.cross_shard_messages,
                round(stats.cross_shard_fraction, 3),
            ]
        )
    tables.print_table(
        [
            "shards",
            "cut edges",
            "edge cut frac",
            "messages",
            "cross-shard",
            "msg cut frac",
        ],
        rows,
        title="E14  %s — cut-edge overhead of the contiguous plan" % name,
    )
    return rows


def _run_suite(quick: bool):
    name, graph = _planted_workload(quick)
    timings = _throughput_table(name, graph, quick)
    _cut_overhead_table(name, graph)
    return timings


def bench_e14_sharded_throughput(benchmark):
    """pytest-benchmark entry point, matching the other E* modules."""
    _run_suite(QUICK)

    name, graph = _planted_workload(quick=True)
    sample = sorted(random.Random(1).sample(sorted(graph.nodes()), 7))
    config = CongestConfig().with_sharding(SHARDS)
    benchmark(lambda: _run_once(graph, sample, config=config))


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    quick = QUICK or "--quick" in argv
    _run_suite(quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
