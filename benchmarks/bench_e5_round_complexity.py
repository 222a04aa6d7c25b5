"""E5 — Lemma 5.1 and Lemma 5.2: round complexity and sample-size tail.

Workload: planted near-clique graphs; the sampling probability p is swept so
that the realised |S| varies.  For every run we record the realised sample
size and the measured CONGEST round count; the table compares the rounds
against the O(2^{|S|}) envelope of Lemma 5.1 and the realised |S| tail
against the e^{−pn/3} bound of Lemma 5.2.
"""

from __future__ import annotations

import random

from repro.analysis import tables, theory
from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.graphs import generators


def _measure_rounds(sample_sizes, seed=4):
    graph, _ = generators.planted_near_clique(
        n=70, clique_fraction=0.5, epsilon=0.008, background_p=0.05, seed=seed
    )
    rng = random.Random(seed)
    rows = []
    for size in sample_sizes:
        sample = set(rng.sample(sorted(graph.nodes()), size))
        runner = DistNearCliqueRunner(
            epsilon=0.2,
            sample_probability=size / 70.0,
            max_sample_size=None,
            rng=random.Random(rng.getrandbits(48)),
        )
        result = runner.run(graph, sample=sample)
        bound = theory.lemma_5_1_round_bound(size)
        rows.append((size, result.metrics.rounds, bound, result.metrics.total_messages))
    return rows


def bench_e5_lemma_5_1_rounds(benchmark):
    rows = _measure_rounds([2, 4, 6, 8, 10])
    table_rows = [
        [size, rounds, bound, round(rounds / (2.0 ** size), 3), messages]
        for size, rounds, bound, messages in rows
    ]
    tables.print_table(
        ["|S|", "rounds", "O(2^|S|) bound", "rounds / 2^|S|", "messages"],
        table_rows,
        title="E5a  Lemma 5.1: measured rounds vs the 2^|S| envelope",
    )
    # Every run stays under the envelope, and the normalised ratio does not
    # blow up with |S| (the growth really is Theta(2^{|S|}), not worse).
    assert all(rounds <= bound for _, rounds, bound, _ in rows)
    ratios = [rounds / (2.0 ** size) for size, rounds, _, _ in rows]
    assert max(ratios[-2:]) <= 4.0 * max(ratios[0], 1.0)

    benchmark(lambda: _measure_rounds([4], seed=1))


def bench_e5_lemma_5_2_sample_tail(benchmark):
    """Empirical Pr[|S| > 2pn] against the Chernoff bound e^{-pn/3}."""
    n = 400
    trials = 4000
    rng = random.Random(99)
    rows = []
    for p in (0.01, 0.02, 0.04):
        exceed = 0
        for _ in range(trials):
            size = sum(1 for _ in range(n) if rng.random() < p)
            if size > 2 * p * n:
                exceed += 1
        empirical = exceed / trials
        bound = theory.lemma_5_2_sample_tail(n, p)
        rows.append([p, p * n, empirical, bound])
    tables.print_table(
        ["p", "p*n", "Pr[|S| > 2pn] empirical", "e^(-pn/3) bound"],
        rows,
        title="E5b  Lemma 5.2: sample-size tail vs Chernoff bound",
    )
    assert all(empirical <= bound + 0.02 for _, _, empirical, bound in rows)

    benchmark(
        lambda: sum(1 for _ in range(n) if random.Random(1).random() < 0.02)
    )
