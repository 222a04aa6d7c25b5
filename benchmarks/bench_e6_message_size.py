"""E6 — the CONGEST message-size guarantee: O(log n) bits, independent of ε, δ.

Workload: planted near-clique graphs with n swept over a wide range while
the expected sample is held fixed.  Measured: the largest single message (in
bits) over the whole execution, compared with log₂ n, and the same figure
for two different (ε, δ) pairs to show the independence the paper stresses.
"""

from __future__ import annotations

import math
import random

from repro.analysis import tables
from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.graphs import generators


N_SWEEP = [32, 64, 128, 256]


def _max_bits(n, epsilon, delta, seed=6):
    graph, _ = generators.planted_near_clique(
        n=n, clique_fraction=delta, epsilon=epsilon ** 3, background_p=0.04, seed=seed
    )
    runner = DistNearCliqueRunner(
        epsilon=epsilon,
        sample_probability=min(1.0, 6.0 / n),
        max_sample_size=11,
        rng=random.Random(seed),
    )
    result = runner.run(graph)
    return result.metrics.max_message_bits, result.metrics.mean_message_bits


def bench_e6_message_size(benchmark):
    rows = []
    ratios = []
    for n in N_SWEEP:
        max_bits, mean_bits = _max_bits(n, epsilon=0.2, delta=0.5)
        max_bits_b, _ = _max_bits(n, epsilon=0.3, delta=0.4, seed=7)
        log_n = math.log2(n)
        ratios.append(max_bits / log_n)
        rows.append(
            [n, round(log_n, 2), max_bits, round(max_bits / log_n, 2), max_bits_b, round(mean_bits, 1)]
        )
    tables.print_table(
        [
            "n",
            "log2 n",
            "max bits (eps=.2, d=.5)",
            "max bits / log2 n",
            "max bits (eps=.3, d=.4)",
            "mean bits",
        ],
        rows,
        title="E6  Message size: max single-message bits vs log2 n",
    )

    # Shape checks: the max message stays within a constant multiple of
    # log2 n across a decade of n, and the multiple does not grow with n.
    assert all(ratio <= 12.0 for ratio in ratios)
    assert ratios[-1] <= ratios[0] * 1.8 + 1.0

    benchmark(lambda: _max_bits(64, epsilon=0.2, delta=0.5, seed=2))
