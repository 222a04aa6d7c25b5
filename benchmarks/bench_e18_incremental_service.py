"""E18 — the incremental service: small deltas, small recomputes.

The service layer (:mod:`repro.service`) answers a query after a batched
topology delta by re-running the CONGEST pipeline only on the *dirty
region* — the current graph's components containing a touched node — and
splicing the cached clean components back in (component locality: CONGEST
messages never cross components, so a clean component's outputs are
bitwise what a fresh run would recompute).  This benchmark quantifies the
payoff on a planted many-component workload:

* **Workload** — disjoint dense blocks on contiguous id ranges at
  n >= 4000 (the acceptance scale).  Disjoint by construction: a
  background edge probability would glue everything into one giant
  component and the dirty region would be the whole graph — the regime
  where the service correctly degrades to a full recompute and there is
  nothing to measure.

* **Bit-identity before timing** — for every delta, the incremental
  answer's outputs (labels, sample, candidates, components) are asserted
  equal to a fresh full ``DistNearCliqueRunner`` run on a fresh
  ``Network`` of the final edge set, *then* the clocks are compared.
  (The incremental result's *metrics* cover only the region actually
  executed — that is the saving being measured, not a divergence.)

* **The gate** — summed over k single-block deltas, the incremental
  query must beat the fresh full recompute by ``SPEEDUP_FLOOR`` (full) /
  ``QUICK_SPEEDUP_FLOOR`` (quick CI mode).  Both sides run the default
  single-process engine (``vectorized``; the service's region re-run uses
  it whatever the service's configuration), so the floor holds on any
  host — no CPU-count skip.

Run directly (``python benchmarks/bench_e18_incremental_service.py``) or
via the pytest-benchmark harness; quick mode (``REPRO_BENCH_QUICK=1`` or
``--quick``) keeps n at the gate scale and trims the delta count.
"""

from __future__ import annotations

import os
import random
import sys
import time

import networkx as nx

from repro.analysis import tables
from repro.congest.network import Network
from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.core.params import AlgorithmParameters
from repro.service import NearCliqueService

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0") or "0"))

#: Minimum acceptable incremental-over-full speedup, summed over deltas.
SPEEDUP_FLOOR = 2.0
QUICK_SPEEDUP_FLOOR = 1.3

#: Nodes per dense block; the dirty region of a single-block delta.
BLOCK = 80

#: The query seed every comparison runs under.
SEED = 11


def _blocks_graph(n: int, p_in: float, seed: int) -> nx.Graph:
    """Disjoint dense blocks on contiguous id ranges (no background)."""
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for offset in range(0, n, BLOCK):
        dense = nx.gnp_random_graph(BLOCK, p_in, seed=seed + offset)
        graph.add_edges_from((offset + u, offset + v) for u, v in dense.edges())
    return graph


def _parameters(n: int) -> AlgorithmParameters:
    return AlgorithmParameters(
        epsilon=0.25,
        sample_probability=8.0 / n,
        max_sample_size=None,
    )


def _workload(quick: bool):
    n = 4000 if quick else 6000
    return (
        "planted blocks (n=%d, %d components of %d)" % (n, n // BLOCK, BLOCK),
        _blocks_graph(n, p_in=0.1, seed=5),
    )


def _outputs(result):
    return (
        result.labels,
        result.sample,
        tuple(result.candidates),
        result.components,
        result.aborted,
    )


def _fresh_full(graph: nx.Graph, parameters: AlgorithmParameters):
    """A fresh full run on the current edge set; returns (seconds, outputs).

    The runner's default configuration: the default (vectorized) engine.
    """
    runner = DistNearCliqueRunner(parameters=parameters)
    start = time.perf_counter()
    result = runner.run(network=Network(graph.copy(), seed=SEED))
    elapsed = time.perf_counter() - start
    assert not result.aborted, "benchmark workload aborted: %s" % result.abort_reason
    return elapsed, _outputs(result)


def _delta_for_step(graph: nx.Graph, step: int):
    """One remove + one add inside block *step* (deterministic)."""
    rng = random.Random(1000 + step)
    offset = (step * 7 % (graph.number_of_nodes() // BLOCK)) * BLOCK
    members = range(offset, offset + BLOCK)
    present = [
        (u, v) for u in members for v in members if u < v and graph.has_edge(u, v)
    ]
    absent = [
        (u, v)
        for u in members
        for v in members
        if u < v and not graph.has_edge(u, v)
    ]
    return [rng.choice(absent)], [rng.choice(present)]


def _service_table(name, graph, quick):
    parameters = _parameters(graph.number_of_nodes())
    deltas = 3 if quick else 6
    # Default configuration: full and incremental queries alike run the
    # default (vectorized) engine.
    service = NearCliqueService(graph.copy(), parameters)
    rows = []
    inc_total = full_total = 0.0
    with service:
        warmup = service.query(seed=SEED)
        assert warmup.record.kind == "full"
        assert not warmup.result.aborted

        for step in range(deltas):
            additions, removals = _delta_for_step(graph, step)
            service.apply_delta(additions, removals)
            graph.add_edges_from(additions)
            graph.remove_edges_from(removals)

            start = time.perf_counter()
            outcome = service.query(seed=SEED)
            inc_seconds = time.perf_counter() - start

            full_seconds, oracle = _fresh_full(graph, parameters)
            # Bit-identity before any timing claim.
            assert outcome.record.kind == "incremental", outcome.record
            assert _outputs(outcome.result) == oracle, (
                "incremental query diverged from the fresh full run at "
                "delta %d" % step
            )

            inc_total += inc_seconds
            full_total += full_seconds
            rows.append(
                [
                    step,
                    outcome.record.recomputed_nodes,
                    round(100.0 * outcome.record.recomputed_fraction, 2),
                    round(inc_seconds * 1e3, 1),
                    round(full_seconds * 1e3, 1),
                    round(full_seconds / max(inc_seconds, 1e-9), 1),
                ]
            )

    tables.print_table(
        ["delta", "recomputed nodes", "% of n", "incremental ms", "full ms", "speedup"],
        rows,
        title="E18  %s — query after one-block deltas (bit-identical outputs)"
        % name,
    )
    speedup = full_total / max(inc_total, 1e-9)
    stats = service.stats
    print(
        "incremental-over-full speedup (summed over %d deltas): %.1fx  |  "
        "nodes recomputed: %d of %d-node queries  |  kinds: %d full / %d "
        "incremental / %d cached"
        % (
            deltas,
            speedup,
            stats.nodes_recomputed,
            graph.number_of_nodes(),
            stats.full_queries,
            stats.incremental_queries,
            stats.cached_hits,
        )
    )
    floor = QUICK_SPEEDUP_FLOOR if quick else SPEEDUP_FLOOR
    assert speedup >= floor, (
        "incremental service is only %.2fx a fresh full recompute on %s, "
        "below the %.2fx floor" % (speedup, name, floor)
    )
    return speedup


def _run_suite(quick: bool):
    name, graph = _workload(quick)
    return _service_table(name, graph, quick)


def bench_e18_incremental_service(benchmark):
    """pytest-benchmark entry point, matching the other E* modules."""
    _run_suite(QUICK)

    _name, graph = _workload(quick=True)
    parameters = _parameters(graph.number_of_nodes())
    service = NearCliqueService(graph.copy(), parameters)
    with service:
        service.query(seed=SEED)
        step = {"i": 0}

        def one_delta_query():
            additions, removals = _delta_for_step(graph, step["i"])
            step["i"] += 1
            service.apply_delta(additions, removals)
            graph.add_edges_from(additions)
            graph.remove_edges_from(removals)
            return service.query(seed=SEED)

        benchmark(one_delta_query)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    quick = QUICK or "--quick" in argv
    _run_suite(quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
