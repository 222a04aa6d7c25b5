"""E7 — the Section 4.1 boosting wrapper.

Workload: a planted near-clique instance with a deliberately small sampling
probability so that a single run succeeds with only moderate probability r.
Measured: the empirical failure rate of the boosted algorithm as the number
of repetitions λ grows, compared against the paper's (1 − r)^λ prediction
(using the empirically measured single-run success for r), plus the λ-fold
growth of the accounted running time.
"""

from __future__ import annotations

import random

from repro.analysis import tables, theory
from repro.core.boosting import BoostedNearCliqueRunner
from repro.graphs import generators


LAMBDAS = [1, 2, 4, 6]
TRIALS = 40


def _failure_rates(trials=TRIALS, seed=17):
    graph, planted = generators.planted_near_clique(
        n=80, clique_fraction=0.5, epsilon=0.008, background_p=0.05, seed=seed
    )
    rng = random.Random(seed)
    failures = {lam: 0 for lam in LAMBDAS}
    for _ in range(trials):
        seeds = rng.getrandbits(48)
        for lam in LAMBDAS:
            runner = BoostedNearCliqueRunner(
                epsilon=0.2,
                sample_probability=0.05,
                repetitions=lam,
                max_sample_size=12,
                rng=random.Random(seeds + lam),
            )
            result = runner.run(graph)
            if result.recall_of(planted.members) < 0.7:
                failures[lam] += 1
    return {lam: failures[lam] / trials for lam in LAMBDAS}


def bench_e7_boosting(benchmark):
    rates = _failure_rates()
    single_run_success = 1.0 - rates[1]
    rows = []
    for lam in LAMBDAS:
        predicted = theory.boosted_failure_probability(single_run_success, lam)
        rows.append([lam, rates[lam], predicted])
    tables.print_table(
        ["lambda", "empirical failure", "(1 - r)^lambda prediction"],
        rows,
        title="E7  Boosting: failure probability vs repetitions (r measured at lambda=1)",
    )

    # Shape checks: failure probability is non-increasing in lambda and the
    # largest lambda drives it near zero.
    values = [rates[lam] for lam in LAMBDAS]
    assert all(values[i + 1] <= values[i] + 0.05 for i in range(len(values) - 1))
    assert values[-1] <= max(0.15, values[0] / 2)

    benchmark(
        lambda: BoostedNearCliqueRunner(
            epsilon=0.2,
            sample_probability=0.05,
            repetitions=4,
            max_sample_size=12,
            rng=random.Random(1),
        ).run(
            generators.planted_near_clique(
                n=60, clique_fraction=0.5, epsilon=0.008, background_p=0.05, seed=2
            )[0]
        )
    )


def bench_e7_repetition_formula(benchmark):
    """The λ = log_{1−r} q schedule for a grid of targets."""
    rows = []
    for q in (0.1, 0.01, 0.001):
        for r in (0.3, 0.5, 0.7):
            rows.append([q, r, theory.boosting_repetitions(q, r)])
    tables.print_table(
        ["target failure q", "single-run success r", "repetitions lambda"],
        rows,
        title="E7b  Repetition schedule lambda = ceil(log_{1-r} q)",
    )
    assert all(row[2] >= 1 for row in rows)
    benchmark(lambda: theory.boosting_repetitions(0.001, 0.5))
