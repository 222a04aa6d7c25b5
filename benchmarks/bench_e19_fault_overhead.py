"""E19 — the price of supervision: watchdog + retry overhead on clean runs.

The fault-tolerance stack added for multi-host readiness — the barrier
watchdog (``CongestConfig.round_timeout``), supervised retry
(``CongestConfig.retry_policy``) and the recovery ledger — must be close
to free on the path everyone actually runs: a clean, fault-less
execution.  The watchdog swaps the coordinator's blocking ``recv`` barrier
for ``multiprocessing.connection.wait`` with a deadline, and the retry
supervisor wraps every phase execute in a replay loop; both are designed
to cost one comparison when nothing fails, and this benchmark holds them
to that design.

The comparison is the full ``DistNearCliqueRunner`` on the E15 community
workload (process session, forced sample) in two arms:

* **baseline** — PR 8 semantics: no ``round_timeout``, no
  ``retry_policy``; barriers are plain blocking ``recv``.
* **supervised** — ``round_timeout=30`` (never reached) and
  ``retry_policy=RetryPolicy(max_attempts=3)`` (never consulted): every
  barrier pays the watchdog bookkeeping, every phase the supervisor
  wrapper.

Bit-identity of both arms against the vectorized oracle is asserted before
any timing is reported, then an interleaved best-of-N gates the
supervised/baseline wall-clock ratio at ``OVERHEAD_CEILING`` (full) /
``QUICK_OVERHEAD_CEILING`` (quick CI mode; shared runners are noisy).
The gate needs no CPU-count escape hatch: both arms run the same engine
on the same host, so the ratio is meaningful anywhere.

Run directly (``python benchmarks/bench_e19_fault_overhead.py``) or via
the pytest-benchmark harness; quick mode (``REPRO_BENCH_QUICK=1`` or
``--quick``) trims the scale and repetitions so it doubles as a CI gate.
"""

from __future__ import annotations

import os
import random
import sys
import time

from repro.analysis import tables
from repro.congest.config import CongestConfig, RetryPolicy
from repro.core.dist_near_clique import DistNearCliqueRunner

from bench_e15_process_throughput import SHARDS, _community_graph

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0") or "0"))

#: Forced sample (block-0 node ids of the community workload): keeps the
#: sampling stage deterministic and the exploration stage bounded, so both
#: arms do byte-identical protocol work.
FORCED_SAMPLE = (2, 7, 19, 41, 83)

#: Maximum acceptable supervised/baseline wall-clock ratio on clean runs.
#: The issue's acceptance bar is 5% at full scale; quick mode keeps a
#: looser tripwire because one noisy scheduler tick at the quick scale is
#: a visible fraction of the run.
OVERHEAD_CEILING = 1.05
QUICK_OVERHEAD_CEILING = 1.15

#: The watchdog deadline of the supervised arm — far above any real round
#: on this workload, so it never fires and only its bookkeeping is timed.
ROUND_TIMEOUT = 30.0


def _workload(quick: bool):
    n = 3000 if quick else 6000
    graph = _community_graph(n, SHARDS, 0.04, 2.0 / n, seed=7)
    return "web-communities (n=%d, %d blocks)" % (n, SHARDS), graph


def _result_fingerprint(result):
    m = result.metrics
    return (
        result.labels,
        result.sample,
        result.aborted,
        m.rounds,
        m.total_messages,
        m.total_bits,
        m.max_message_bits,
        [
            (r.round_index, r.messages_sent, r.bits_sent, r.active_nodes)
            for r in m.per_round
        ],
    )


def _run_vectorized_oracle(graph, seed=11):
    n = graph.number_of_nodes()
    runner = DistNearCliqueRunner(
        epsilon=0.25,
        sample_probability=0.001,
        max_sample_size=None,
        rng=random.Random(seed),
        config=CongestConfig(engine="vectorized").with_log_budget(n),
    )
    return _result_fingerprint(runner.run(graph, sample=FORCED_SAMPLE))


def _config(n: int, supervised: bool) -> CongestConfig:
    config = CongestConfig(
        engine="sharded",
        shards=SHARDS,
        round_timeout=ROUND_TIMEOUT if supervised else None,
        retry_policy=RetryPolicy(max_attempts=3) if supervised else None,
    ).with_log_budget(n)
    return config


def _run_once(graph, supervised: bool, seed=11):
    n = graph.number_of_nodes()
    runner = DistNearCliqueRunner(
        epsilon=0.25,
        sample_probability=0.001,
        max_sample_size=None,
        rng=random.Random(seed),
        config=_config(n, supervised),
    )
    start = time.perf_counter()
    result = runner.run(graph, sample=FORCED_SAMPLE)
    elapsed = time.perf_counter() - start
    assert not result.aborted, "benchmark workload aborted: %s" % result.abort_reason
    stats = runner.last_session_stats
    return elapsed, _result_fingerprint(result), stats


def _overhead_table(name, graph, quick):
    # Bit-identity before any timing claim: both arms against the vectorized
    # fast path — supervision must be invisible in the output, not just
    # cheap.
    oracle = _run_vectorized_oracle(graph)

    timings = {"baseline": float("inf"), "supervised": float("inf")}
    supervised_stats = None
    repetitions = 2 if quick else 3
    # Interleaved best-of-N: a ratio gate needs both arms sampled under
    # comparable load.
    for _ in range(repetitions):
        elapsed, fingerprint, _stats = _run_once(graph, supervised=False)
        assert fingerprint == oracle, "baseline arm diverged from vectorized"
        timings["baseline"] = min(timings["baseline"], elapsed)

        elapsed, fingerprint, stats = _run_once(graph, supervised=True)
        assert fingerprint == oracle, "supervised arm diverged from vectorized"
        timings["supervised"] = min(timings["supervised"], elapsed)
        supervised_stats = stats

    # A clean run must never touch the recovery machinery.
    assert supervised_stats.worker_failures == 0
    assert supervised_stats.retries == 0
    assert supervised_stats.degradations == 0

    ratio = timings["supervised"] / max(timings["baseline"], 1e-9)
    rows = [
        [label, round(timings[label], 3), round(timings[label] / timings["baseline"], 3)]
        for label in ("baseline", "supervised")
    ]
    tables.print_table(
        ["arm", "wall s", "vs baseline"],
        rows,
        title="E19  %s — watchdog + retry supervision on clean runs "
        "(%d shards, process session, bit-identical arms)"
        % (name, SHARDS),
    )
    print(
        "supervised/baseline overhead: %.3fx  |  round_timeout=%.0fs armed "
        "over %d barrier rounds, 0 recoveries"
        % (ratio, ROUND_TIMEOUT, supervised_stats.barrier_rounds)
    )

    ceiling = QUICK_OVERHEAD_CEILING if quick else OVERHEAD_CEILING
    assert ratio <= ceiling, (
        "supervision costs %.3fx baseline on clean runs of %s, above the "
        "%.2fx ceiling" % (ratio, name, ceiling)
    )
    return timings


def _run_suite(quick: bool):
    name, graph = _workload(quick)
    return _overhead_table(name, graph, quick)


def bench_e19_fault_overhead(benchmark):
    """pytest-benchmark entry point, matching the other E* modules."""
    _run_suite(QUICK)

    _name, graph = _workload(quick=True)
    benchmark(lambda: _run_once(graph, supervised=True))


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    quick = QUICK or "--quick" in argv
    _run_suite(quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
