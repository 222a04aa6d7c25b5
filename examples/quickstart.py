#!/usr/bin/env python3
"""Quickstart: find a planted near-clique with Algorithm DistNearClique.

This is the smallest end-to-end use of the library:

1. generate a communication graph containing an ε³-near clique of size δn
   (the promise of Theorem 2.1);
2. run the distributed algorithm on the CONGEST simulator;
3. inspect the output labels, the quality of the discovered near-clique, and
   the complexity measurements (rounds, message sizes);
4. re-run under a different execution engine and observe the bit-identical
   results (the engine contract).

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import random

from repro import DistNearCliqueRunner, density, generators
from repro.analysis import tables
from repro.congest import CongestConfig, available_engines


def main() -> None:
    # ----------------------------------------------------------------- setup
    n = 100
    epsilon = 0.2          # the algorithm's epsilon
    delta = 0.5            # the planted near-clique holds delta*n nodes
    seed = 2009

    graph, planted = generators.planted_near_clique(
        n=n,
        clique_fraction=delta,
        epsilon=epsilon ** 3,     # the promise: an eps^3-near clique exists
        background_p=0.05,
        seed=seed,
    )
    print(
        "Workload: %d nodes, %d edges, planted %d-node near-clique (defect %.4f)"
        % (
            graph.number_of_nodes(),
            graph.number_of_edges(),
            planted.size,
            1.0 - density(graph, planted.members),
        )
    )

    # ------------------------------------------------------------------- run
    runner = DistNearCliqueRunner(
        epsilon=epsilon,
        sample_probability=8.0 / n,   # expected sample of ~8 nodes
        max_sample_size=13,           # Section 4.1 deterministic time guard
        rng=random.Random(seed),
    )
    result = runner.run(graph)

    # ---------------------------------------------------------------- report
    if result.aborted:
        print("Run aborted:", result.abort_reason)
        return

    found = result.largest_cluster()
    print()
    print("Sample S =", sorted(result.sample))
    print("Discovered near-cliques (label -> size):")
    for label, members in sorted(result.clusters.items()):
        print("  label %-4s size %3d  density %.3f" % (label, len(members), density(graph, members)))

    tables.print_table(
        ["measure", "value"],
        [
            ["largest cluster size", len(found)],
            ["largest cluster density", density(graph, found)],
            ["recall of planted set", result.recall_of(planted.members)],
            ["CONGEST rounds", result.metrics.rounds],
            ["total messages", result.metrics.total_messages],
            ["max message bits", result.metrics.max_message_bits],
        ],
        title="Quickstart summary",
    )

    # ------------------------------------------------- engine selection
    # The round loop is pluggable: the same algorithm runs under any of the
    # registered execution engines (the vectorized fast path — the
    # default: columnar kernels plus a CSR callback loop —, the reference
    # oracle, or partition-parallel sharded execution), and every engine is
    # bit-identical in outputs and metrics by contract.
    print()
    print("Available CONGEST engines:", ", ".join(available_engines()))
    sharded_config = CongestConfig().with_sharding(shards=4).with_log_budget(n)
    sharded = DistNearCliqueRunner(
        epsilon=epsilon,
        sample_probability=8.0 / n,
        max_sample_size=13,
        rng=random.Random(seed),      # same seed -> same coins
        config=sharded_config,
    ).run(graph)
    assert sharded.labels == result.labels
    assert sharded.metrics.rounds == result.metrics.rounds
    assert sharded.metrics.total_bits == result.metrics.total_bits
    print(
        "Re-run with engine='sharded' (4 shards): identical labels, "
        "%d rounds, %d bits — the engine contract in action."
        % (sharded.metrics.rounds, sharded.metrics.total_bits)
    )

    print()
    print(
        "Theorem 5.7 predicts an output of size >= (1 - 13eps/2)|D| - eps^-2 "
        "and defect O(eps/delta); see benchmarks/bench_e1_main_theorem.py for "
        "the systematic sweep."
    )


if __name__ == "__main__":
    main()
