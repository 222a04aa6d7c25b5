"""E12 — execution-engine throughput: reference versus the default engine.

Workloads: the planted-near-clique family at experiment scale (n ≈ 2000,
the size at which the per-object reference loop becomes the bottleneck) and
the multi-community web workload of the paper's introduction.

Measured: wall-clock time of the full ``DistNearClique`` pipeline under the
``reference`` engine and the default engine (``vectorized``: kernels for
the covered phases, the CSR callback loop for the rest) on the same graph,
forced sample and configuration, together with the speedup.  Because the engines are
bit-identical by contract (see :mod:`repro.congest.engine`), the comparison
is pure throughput: the outputs and the round/message/bit metrics are
asserted equal before any timing is reported, so a fast-but-wrong engine
cannot "win" this benchmark.

Quick mode (``REPRO_BENCH_QUICK=1`` or ``--quick``) shrinks the workloads
so the benchmark doubles as a CI regression gate: it still fails if the
fast path stops being faster, without pinning CI to multi-second runs.

Run directly (``python benchmarks/bench_e12_engine_throughput.py``) or via
the pytest-benchmark harness like the other experiments.
"""

from __future__ import annotations

import os
import random
import sys
import time

from repro.analysis import tables
from repro.congest.config import CongestConfig
from repro.congest.engine import DEFAULT_ENGINE
from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.graphs import generators

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0") or "0"))

#: Minimum acceptable default-over-reference speedup per workload scale.
#: Full scale reproduces the headline >= 2x claim; quick scale is a lenient
#: CI tripwire (small graphs leave less per-round overhead to amortise and
#: shared CI runners are noisy).
FULL_SPEEDUP_FLOOR = 2.0
QUICK_SPEEDUP_FLOOR = 1.1


def _planted_workload(quick: bool):
    n = 500 if quick else 2000
    graph, _ = generators.planted_near_clique(
        n=n, clique_fraction=0.3, epsilon=0.008, background_p=0.01, seed=3
    )
    return "planted-near-clique (n=%d)" % n, graph


def _web_workload(quick: bool):
    n = 400 if quick else 1500
    graph, _ = generators.web_community_graph(n=n, communities=3, seed=5)
    return "web-communities (n=%d)" % n, graph


def _run_once(graph, engine, sample):
    runner = DistNearCliqueRunner(
        epsilon=0.25,
        sample_probability=len(sample) / float(graph.number_of_nodes()),
        max_sample_size=None,
        rng=random.Random(42),
        config=CongestConfig(engine=engine).with_log_budget(
            graph.number_of_nodes()
        ),
    )
    start = time.perf_counter()
    result = runner.run(graph, sample=sample)
    elapsed = time.perf_counter() - start
    return elapsed, result


def _compare_engines(name, graph, sample_size=7, seed=1):
    sample = sorted(random.Random(seed).sample(sorted(graph.nodes()), sample_size))
    timings = {}
    results = {}
    # Fixed order: the reference run doubles as the warm-up, so the default
    # engine's timing never benefits from being measured on a warmer cache.
    for engine in ("reference", DEFAULT_ENGINE):
        timings[engine], results[engine] = _run_once(graph, engine, sample)

    reference = results["reference"]
    fast = results[DEFAULT_ENGINE]
    assert fast.labels == reference.labels
    assert fast.metrics.rounds == reference.metrics.rounds
    assert fast.metrics.total_messages == reference.metrics.total_messages
    assert fast.metrics.total_bits == reference.metrics.total_bits

    speedup = timings["reference"] / max(timings[DEFAULT_ENGINE], 1e-9)
    return {
        "workload": name,
        "edges": graph.number_of_edges(),
        "rounds": reference.metrics.rounds,
        "messages": reference.metrics.total_messages,
        "reference_s": timings["reference"],
        "default_s": timings[DEFAULT_ENGINE],
        "speedup": speedup,
    }


def _run_suite(quick: bool):
    rows = []
    for build in (_planted_workload, _web_workload):
        name, graph = build(quick)
        rows.append(_compare_engines(name, graph))
    tables.print_table(
        ["workload", "edges", "rounds", "messages", "reference s", DEFAULT_ENGINE + " s", "speedup"],
        [
            [
                row["workload"],
                row["edges"],
                row["rounds"],
                row["messages"],
                round(row["reference_s"], 3),
                round(row["default_s"], 3),
                round(row["speedup"], 2),
            ]
            for row in rows
        ],
        title="E12  engine throughput: reference vs %s (bit-identical runs)"
        % DEFAULT_ENGINE,
    )
    floor = QUICK_SPEEDUP_FLOOR if quick else FULL_SPEEDUP_FLOOR
    planted_row = rows[0]
    assert planted_row["speedup"] >= floor, (
        "%s engine speedup %.2fx on %s fell below the %.1fx floor"
        % (DEFAULT_ENGINE, planted_row["speedup"], planted_row["workload"], floor)
    )
    return rows


def bench_e12_engine_throughput(benchmark):
    """pytest-benchmark entry point, matching the other E* modules."""
    _run_suite(QUICK)

    name, graph = _planted_workload(quick=True)
    sample = sorted(random.Random(1).sample(sorted(graph.nodes()), 7))
    benchmark(lambda: _run_once(graph, DEFAULT_ENGINE, sample))


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    quick = QUICK or "--quick" in argv
    _run_suite(quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
