#!/usr/bin/env python3
"""Clustering an ad-hoc radio network around a dense hotspot.

The paper lists radio ad-hoc networks as a second motivation: dense
subgraphs of the communication graph correspond to groups of stations that
conflict on the shared medium, and identifying them is useful for clustering
and backbone formation.  This example builds a unit-disk graph with a
geographic hotspot and runs the distributed algorithm *through the CONGEST
simulator*, so the reported rounds and message sizes are exactly what the
stations would incur.

Run with:  python examples/adhoc_clusters.py
"""

from __future__ import annotations

import random

from repro import DistNearCliqueRunner, density, generators
from repro.analysis import tables


def main() -> None:
    n = 120
    seed = 42
    graph, positions = generators.adhoc_radio_network(
        n=n,
        radio_range=0.22,
        hotspot_fraction=0.25,
        hotspot_radius=0.10,
        seed=seed,
    )
    hotspot = frozenset(range(int(0.25 * n)))
    print(
        "Ad-hoc network: %d stations, %d radio links; hotspot of %d stations "
        "with density %.3f"
        % (
            graph.number_of_nodes(),
            graph.number_of_edges(),
            len(hotspot),
            density(graph, hotspot),
        )
    )

    runner = DistNearCliqueRunner(
        epsilon=0.25,
        sample_probability=8.0 / n,
        max_sample_size=12,
        min_output_size=4,
        rng=random.Random(seed),
    )
    result = runner.run(graph)
    if result.aborted:
        print("Run aborted:", result.abort_reason)
        return

    found = result.largest_cluster()
    overlap = len(found & hotspot) / float(len(hotspot))
    tables.print_table(
        ["measure", "value"],
        [
            ["stations in the discovered cluster", len(found)],
            ["cluster density", density(graph, found)],
            ["fraction of hotspot covered", overlap],
            ["CONGEST rounds", result.metrics.rounds],
            ["max message bits", result.metrics.max_message_bits],
            ["messages per station (mean)", result.metrics.total_messages / n],
        ],
        title="Hotspot discovery on the CONGEST simulator",
    )


if __name__ == "__main__":
    main()
