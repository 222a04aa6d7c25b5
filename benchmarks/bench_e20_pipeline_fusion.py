"""E20 — pipeline compiler: fused phase groups on the process backend.

PR 6's persistent sessions (E16) amortise pool *spawn* across the ~14
phases of the composite ``DistNearCliqueRunner``, but still pay a full
coordination round-trip per phase: ship a re-arm over every worker pipe,
run the phase, pack and fold the complete per-node context state back into
the parent, repeat.  The pipeline compiler
(:mod:`repro.congest.pipeline`, ``CongestConfig.pipeline_mode="fuse"``)
compiles the declared phase graph into maximal fused groups: one
``arm-seq`` ships the whole group, workers self-arm the next phase on
phase completion (a ``finish-light`` that skips state packing entirely),
and the context fold-back happens once per *group* instead of once per
phase.  On the composite run the full 13-phase exploration+decision
suffix fuses into a single group — 2 pool re-arms instead of 14.

This benchmark holds the compiler to the contract and the claim:

* **Bit-identity before any timing** — ``pipeline_mode="fuse"`` versus
  ``"off"`` on *every* backend (reference, batched, vectorized, async,
  sharded serial / thread / process-persistent) on a differential-scale
  workload, every fingerprint (labels, sample, rounds, message/bit
  totals, the full per-round trace) equal to the reference engine's;
  then, at the gate scale, both timed process arms against the batched
  oracle.  Fusion that changes one bit fails here, not in the timing
  table.

* **Wall-clock speedup** — the full ``DistNearCliqueRunner`` at n >= 4000
  on the E15/E16 community workload, process backend, one persistent
  session in both arms: ``pipeline_mode="off"`` (per-phase re-arm + fold,
  the E16 configuration) versus ``"fuse"``.  Interleaved best-of-N; the
  gate on a host with >= 2 CPUs is ``FUSION_SPEEDUP_FLOOR`` (full) /
  ``QUICK_SPEEDUP_FLOOR`` (quick CI mode).  Single-CPU hosts skip the
  ratio gate, as in E14–E16.

* **Re-arm elision** — from :class:`~repro.congest.sharding.ShardingStats`:
  the fused run's ``rearms`` must stay strictly below the phase count
  executed, with ``fused_phases`` accounting for the difference.

Results are emitted through the shared ``--json`` machinery in
``benchmarks/conftest.py`` (one ``{bench, config, measured, gate,
passed}`` record per gate), both under pytest and from ``main()``.

Run directly (``python benchmarks/bench_e20_pipeline_fusion.py``) or via
the pytest-benchmark harness; quick mode (``REPRO_BENCH_QUICK=1`` or
``--quick``) keeps n at the gate scale but trims repetitions.
"""

from __future__ import annotations

import os
import random
import sys
import time

import networkx as nx

from repro.analysis import tables
from repro.congest.config import CongestConfig
from repro.core.dist_near_clique import DistNearCliqueRunner

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import record_result, set_json_path

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0") or "0"))

#: Shard count (== worker processes) of the timed comparison.
SHARDS = 4

#: Minimum acceptable fuse-over-off speedup when >= 2 CPUs exist.  Full
#: scale is the acceptance gate; quick scale is a lenient CI tripwire.
FUSION_SPEEDUP_FLOOR = 1.3
QUICK_SPEEDUP_FLOOR = 1.1

#: Forced sample (block-0 node ids of the community workload): keeps the
#: sampling stage deterministic and the exploration stage bounded, so the
#: two timed modes do byte-identical protocol work.
FORCED_SAMPLE = (2, 7, 19, 41, 83)

#: Every backend held to off/fuse bit-identity before timing.  Label ->
#: CongestConfig kwargs (``pipeline_mode`` is filled in per arm).
BACKENDS = (
    ("reference", dict(engine="reference")),
    ("batched", dict(engine="batched")),
    ("vectorized", dict(engine="vectorized")),
    ("async", dict(engine="async")),
    ("sharded-serial", dict(engine="sharded", shards=SHARDS, shard_backend="serial")),
    (
        "sharded-thread",
        dict(
            engine="sharded",
            shards=SHARDS,
            shard_backend="thread",
            # Without workers the thread backend steps its shards serially.
            shard_workers=SHARDS,
            session_mode="persistent",
        ),
    ),
    (
        "sharded-process",
        dict(
            engine="sharded",
            shards=SHARDS,
            shard_backend="process",
            session_mode="persistent",
        ),
    ),
)


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
    # The gate scale stays at n >= 4000 even in quick mode — the ISSUE's
    # acceptance bar; quick mode trims repetitions instead.
    n = 4000 if quick else 6000
    graph = _community_graph(n, SHARDS, 0.04, 2.0 / n, seed=7)
    return "web-communities (n=%d, %d blocks)" % (n, SHARDS), graph


def _differential_workload():
    # Small enough for the reference engine, dense enough that every phase
    # of the composite does real work.
    n = 600
    graph = _community_graph(n, SHARDS, 0.08, 4.0 / n, seed=7)
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


def _run_once(graph, backend_kwargs, pipeline_mode, seed=11):
    """One full DistNearClique run; returns (seconds, fingerprint, runner)."""
    n = graph.number_of_nodes()
    config = CongestConfig(
        pipeline_mode=pipeline_mode, **backend_kwargs
    ).with_log_budget(n)
    runner = DistNearCliqueRunner(
        epsilon=0.25,
        sample_probability=0.001,
        max_sample_size=None,
        rng=random.Random(seed),
        config=config,
    )
    start = time.perf_counter()
    result = runner.run(graph, sample=FORCED_SAMPLE)
    elapsed = time.perf_counter() - start
    assert not result.aborted, "benchmark workload aborted: %s" % result.abort_reason
    return elapsed, _result_fingerprint(result), runner


def _identity_sweep():
    """off/fuse bit-identity on every backend, pinned to the reference."""
    name, graph = _differential_workload()
    oracle = None
    for label, backend_kwargs in BACKENDS:
        for mode in ("off", "fuse"):
            _, fingerprint, _ = _run_once(graph, backend_kwargs, mode)
            if oracle is None:
                oracle = fingerprint  # reference engine, pipeline off
            assert fingerprint == oracle, (
                "%s with pipeline_mode=%r diverged from the reference "
                "engine on %s" % (label, mode, name)
            )
    print(
        "E20  bit-identity: %d backends x {off, fuse} identical to the "
        "reference engine on %s" % (len(BACKENDS), name)
    )
    record_result(
        "e20-pipeline-fusion",
        {"workload": name, "backends": [label for label, _ in BACKENDS]},
        {"arms": len(BACKENDS) * 2},
        {"criterion": "off/fuse fingerprints identical to reference"},
        True,
    )


def _fusion_table(name, graph, quick):
    process_kwargs = dict(BACKENDS)["sharded-process"]

    # Gate-scale bit-identity for both timed arms before any timing claim:
    # against the batched fast path (itself differentially pinned to the
    # reference engine, and re-pinned across modes by _identity_sweep).
    _, oracle, _ = _run_once(graph, dict(BACKENDS)["batched"], "off")

    timings = {"off": float("inf"), "fuse": float("inf")}
    fused_runner = None
    repetitions = 2 if quick else 3
    # Interleaved best-of-N: a ratio gate needs both sides sampled under
    # comparable load.
    for _ in range(repetitions):
        for mode in ("off", "fuse"):
            elapsed, fingerprint, runner = _run_once(graph, process_kwargs, mode)
            assert fingerprint == oracle, (
                "process backend with pipeline_mode=%r diverged from the "
                "batched oracle" % mode
            )
            timings[mode] = min(timings[mode], elapsed)
            if mode == "fuse":
                fused_runner = runner

    stats = fused_runner.last_session_stats
    plan = fused_runner.last_pipeline_plan
    phases_executed = stats.rearms + stats.fused_phases
    assert stats.rearms < phases_executed, (
        "fusion elided nothing: %d re-arms for %d phases"
        % (stats.rearms, phases_executed)
    )

    speedup = timings["off"] / max(timings["fuse"], 1e-9)
    rows = [
        ["per-phase re-arm (off)", round(timings["off"], 3), 1.0],
        [
            "fused groups (fuse)",
            round(timings["fuse"], 3),
            round(timings["fuse"] / timings["off"], 2),
        ],
    ]
    tables.print_table(
        ["pipeline mode", "wall s", "vs off"],
        rows,
        title="E20  %s — DistNearCliqueRunner end to end (%d shards, "
        "process backend, persistent session, bit-identical runs)"
        % (name, SHARDS),
    )
    print(plan.describe())
    print(
        "fuse-over-off speedup: %.2fx  |  pool re-arms: %d for %d phases "
        "(%d elided by fusion)"
        % (speedup, stats.rearms, phases_executed, stats.fused_phases)
    )

    cpus = os.cpu_count() or 1
    floor = QUICK_SPEEDUP_FLOOR if quick else FUSION_SPEEDUP_FLOOR
    gated = cpus >= 2
    record_result(
        "e20-pipeline-fusion",
        {
            "workload": name,
            "backend": "sharded-process",
            "shards": SHARDS,
            "quick": quick,
            "cpus": cpus,
        },
        {
            "wall_seconds_off": timings["off"],
            "wall_seconds_fuse": timings["fuse"],
            "speedup": speedup,
            "rearms": stats.rearms,
            "fused_phases": stats.fused_phases,
        },
        {"criterion": "speedup >= floor", "floor": floor, "gated": gated},
        (not gated) or speedup >= floor,
    )
    if gated:
        assert speedup >= floor, (
            "fused pipeline is only %.2fx the per-phase session on %s "
            "(%d CPUs), below the %.2fx floor" % (speedup, name, cpus, floor)
        )
    else:
        print(
            "(fusion-speedup gate skipped: %d CPU(s) available; the "
            "process backend needs >= 2 to be the configuration anyone "
            "runs)" % cpus
        )
    return timings


def _run_suite(quick: bool):
    _identity_sweep()
    name, graph = _workload(quick)
    return _fusion_table(name, graph, quick)


def bench_e20_pipeline_fusion(benchmark):
    """pytest-benchmark entry point, matching the other E* modules."""
    _run_suite(QUICK)

    _name, graph = _workload(quick=True)
    process_kwargs = dict(BACKENDS)["sharded-process"]
    benchmark(lambda: _run_once(graph, process_kwargs, "fuse"))


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--json" in argv:
        index = argv.index("--json")
        set_json_path(argv[index + 1])
        del argv[index : index + 2]
    quick = QUICK or "--quick" in argv
    _run_suite(quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
