"""E1 — Theorem 2.1 / Theorem 5.7 (the main result).

Workload: a planted ε³-near clique of size δn in a sparse background.
Measured per parameter point: success rate (Theorem 5.7's size + defect
criteria, see ``repro.analysis.experiment.theorem_success``), mean recall of
the planted set, mean output defect against the paper's defect bound, and
the abort rate of the deterministic running-time guard.

Paper prediction: with probability Ω(1) the output is a ≈(2ε/δ)-near clique
of size (1 − 13ε/2)|D| − ε⁻²; success improves as ε shrinks or the expected
sample grows.
"""

from __future__ import annotations

from repro.analysis import experiment, tables
from repro.core import near_clique


SWEEP = [
    {"epsilon": 0.15, "delta": 0.5, "n": 80},
    {"epsilon": 0.20, "delta": 0.5, "n": 80},
    {"epsilon": 0.30, "delta": 0.5, "n": 80},
    {"epsilon": 0.20, "delta": 0.3, "n": 120},
    {"epsilon": 0.20, "delta": 0.5, "n": 160},
]
TRIALS = 30


def _run_point(point, trials=TRIALS, seed=11):
    return experiment.run_planted_trials(
        n=point["n"],
        epsilon=point["epsilon"],
        delta=point["delta"],
        trials=trials,
        seed=seed,
        engine="centralized",
        expected_sample=9.0,
    )


def bench_e1_main_theorem(benchmark, bench_rng):
    rows = []
    for point in SWEEP:
        aggregate = _run_point(point)
        defect_bound = near_clique.theorem_5_7_defect_bound(
            point["epsilon"], point["delta"]
        )
        fallback = min(1.0, 2 * point["epsilon"] / point["delta"])
        rows.append(
            [
                point["epsilon"],
                point["delta"],
                point["n"],
                aggregate.trials,
                aggregate.success.rate,
                aggregate.mean_of("recall"),
                aggregate.mean_of("output_defect"),
                max(defect_bound, fallback),
                aggregate.abort_rate,
            ]
        )
    tables.print_table(
        [
            "eps",
            "delta",
            "n",
            "trials",
            "success",
            "recall",
            "defect",
            "defect_bound",
            "abort_rate",
        ],
        rows,
        title="E1  Theorem 5.7: planted eps^3-near clique of size delta*n",
    )

    # Shape checks: the algorithm succeeds with constant probability across
    # the sweep and its output respects the defect bound on average.
    assert all(row[4] >= 0.5 for row in rows), "success probability not Omega(1)"
    assert all(row[6] <= row[7] + 0.05 for row in rows), "defect bound violated"

    benchmark(
        lambda: _run_point({"epsilon": 0.2, "delta": 0.5, "n": 80}, trials=3, seed=7)
    )


def bench_e1_distributed_spot_check(benchmark):
    """The same experiment on the CONGEST simulator, at the paper's scale.

    n=1000 planted graphs (an ε³-near clique on half the nodes), an
    expected sample of 9 and the runner's default engine.
    """
    aggregate = experiment.run_planted_trials(
        n=1000,
        epsilon=0.2,
        delta=0.5,
        trials=TRIALS,
        seed=13,
        engine="distributed",
        expected_sample=9.0,
    )
    tables.print_table(
        ["trials", "success", "recall", "mean_rounds", "max_message_bits"],
        [
            [
                aggregate.trials,
                aggregate.success.rate,
                aggregate.mean_of("recall"),
                aggregate.mean_of("rounds"),
                aggregate.max_of("max_message_bits"),
            ]
        ],
        title="E1b  Theorem 5.7 on the CONGEST simulator",
    )
    assert aggregate.success.rate >= 0.4
    benchmark(
        lambda: experiment.run_planted_trials(
            n=50,
            epsilon=0.2,
            delta=0.5,
            trials=1,
            seed=3,
            engine="distributed",
            expected_sample=6.0,
        )
    )
