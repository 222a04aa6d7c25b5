"""E17 — vectorized gather/apply/scatter kernels vs the per-node callbacks.

The regular phases of ``DistNearClique`` — sampling, component
dissemination, K-membership announcements — have closed-form round
structure: every node runs the same recipe and the traffic is a pipelined
``on_start``-enqueued broadcast.  On a callback loop they still pay
one Python callback per node per round; at n >= 20000 the component
dissemination alone is rounds x n dispatches that mostly fold an empty
inbox.  PR 6's vectorized engine (:mod:`repro.congest.vectorized`) executes
these phases as columnar kernels — packed halt registers, CSR
segment-reductions for the gather, a closed-form broadcast schedule for the
scatter — and runs everything else on its CSR callback loop.

Both arms run the vectorized engine.  The ``callbacks`` arm suppresses the
kernel on each phase instance (``vectorized_kernel`` patched to return
``None``), so the engine runs those phases on its callback loop.

This benchmark times the neighbourhood-broadcast kernels, chained through
one session with ``reuse_contexts`` (the composite-pipeline shape), on a
sparse background graph (n >= 20000) with a planted sampled component whose
member stream forces a deep pipelined broadcast:

* **Bit-identity before timing** — per phase, outputs and metrics
  (including the per-round trace) of ``vectorized`` must equal
  ``callbacks`` (itself differentially pinned to the reference); any
  mismatch aborts the benchmark before a single number is printed.
* **The gate** — summed over the kernel-covered phases, ``vectorized``
  must beat ``callbacks`` by ``VECTORIZED_SPEEDUP_FLOOR``.  The kernels are
  single-process numpy, so the gate holds on any host — no CPU-count skip.

A second, tree-shaped workload covers the tree-schedule kernels
(local-subsets, both up-aggregations, both down-broadcasts, vote and
final-labels): a sampled component of 8 nodes whose BFS tree has depth
>= 3, with an audience of a few hundred attached leaves.  The whole
exploration and decision chain runs on both arms; each of the seven
tree phases must be bit-identical to ``callbacks`` before timing, and their
vectorized/callbacks ratio is printed (no floor: at this size the subset
evaluation both arms share is a large part of the phases).

Run directly (``python benchmarks/bench_e17_vectorized_kernels.py``) or via
the pytest-benchmark harness; quick mode (``REPRO_BENCH_QUICK=1`` or
``--quick``) keeps n at the gate scale and trims repetitions so it doubles
as a CI gate.
"""

from __future__ import annotations

import os
import random
import sys
import time

import networkx as nx

from repro.analysis import tables
from repro.congest.config import CongestConfig
from repro.congest.engine import get_engine
from repro.congest.network import Network
from repro.congest.node import Protocol
from repro.core import phases
from repro.core.dist_near_clique import DistNearCliqueRunner

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0") or "0"))

#: Minimum acceptable vectorized-over-callbacks speedup on the kernel-covered
#: phases.  Single-process numpy against single-process callbacks: the
#: ratio is stable across hosts, so quick mode keeps the full gate.
VECTORIZED_SPEEDUP_FLOOR = 3.0

#: Size of the planted sampled component.  Its member stream is what every
#: sampled node pipelines to all neighbours, so this is also the broadcast
#: depth (rounds) of the dissemination phase under either engine.
COMPONENT_SIZE = 48


class _WarmupPhase(Protocol):
    """Zero-round phase that builds the contexts outside the timed region.

    In the real composite pipeline the contexts are built once and reused
    across ~15 phases; timing the 20000-node context construction (identical
    under every engine) inside the first kernel phase would only dilute the
    ratio being gated.  The warm-up also carries the n-sized forced-sample
    injection, so the timed phases measure phase execution, not input
    plumbing.
    """

    name = "e17-warmup"

    def on_start(self, ctx) -> None:
        ctx.halt()


def _workload(quick: bool):
    """Sparse background + one planted sampled clique with deep streams."""
    n = 20000 if quick else 30000
    rng = random.Random(17)
    graph = nx.gnp_random_graph(n, 4.0 / n, seed=29)
    graph.add_nodes_from(range(n))
    clique = sorted(rng.sample(range(n), COMPONENT_SIZE))
    for i, u in enumerate(clique):
        for v in clique[i + 1 :]:
            graph.add_edge(u, v)
    return "sparse+planted (n=%d, |S|=%d)" % (n, COMPONENT_SIZE), graph, clique


def _phase_plan(n, clique):
    """The kernel-covered phase chain with its injected per-node state.

    The BFS/convergecast phases that normally produce the component state
    are callback-only and benchmarked elsewhere; injecting their outputs
    isolates the kernel-covered phases being compared.  Returns
    ``(warmup_inputs, plan)`` — the n-sized forced-sample injection rides
    on the untimed warm-up execute.
    """
    members = list(clique)
    root = min(members)
    warmup_inputs = {
        v: {phases.KEY_FORCED_SAMPLE: False} for v in range(n)
    }
    comp_inputs = {}
    announce_inputs = {}
    for v in members:
        warmup_inputs[v] = {phases.KEY_FORCED_SAMPLE: True}
        comp_inputs[v] = {
            phases.KEY_ROOT: root,
            phases.KEY_COMP_BCAST: members,
        }
        announce_inputs[v] = {
            phases.KEY_K_MEMBERSHIP: {root: {1, 2, 3}},
            phases.KEY_K_SIZES: {root: {1: 10, 2: 12, 3: 9}},
        }
    plan = [
        ("nc-sampling", phases.SamplingPhase, None),
        ("nc-comp-dissemination", phases.CompDisseminationPhase, comp_inputs),
        ("nc-k-announce", phases.KAnnouncePhase, announce_inputs),
    ]
    return warmup_inputs, plan


#: The timed arms: the vectorized engine with every phase's kernel
#: suppressed (its callback loop), then as is.
ARMS = ("callbacks", "vectorized")


def _arm_protocol(arm, protocol):
    """*protocol* as *arm* runs it: kernel suppressed on the callbacks arm."""
    if arm == "callbacks":
        protocol.vectorized_kernel = lambda: None
    return protocol


def _trace(metrics):
    return [
        (
            r.round_index,
            r.messages_sent,
            r.bits_sent,
            r.max_message_bits,
            r.active_nodes,
        )
        for r in metrics.per_round
    ]


def _fingerprint(result):
    m = result.metrics
    return (
        result.outputs,
        m.rounds,
        m.total_messages,
        m.total_bits,
        m.max_message_bits,
        m.max_messages_per_round,
        _trace(m),
    )


def _run_phases(graph, arm, warmup_inputs, plan):
    """One pass over the kernel-covered chain; per-phase seconds + prints."""
    n = graph.number_of_nodes()
    network = Network(graph, seed=23)
    config = CongestConfig(engine="vectorized").with_log_budget(n)
    engine = get_engine(config.engine)
    seconds = {}
    fingerprints = []
    with engine.open_session(network, config) as session:
        # Untimed: context construction + the n-sized input injection.
        session.execute(
            _WarmupPhase(),
            global_inputs={phases.GLOBAL_EPSILON: 0.25},
            per_node_inputs=warmup_inputs,
        )
        for label, phase_cls, per_node_inputs in plan:
            protocol = _arm_protocol(arm, phase_cls())
            start = time.perf_counter()
            result = session.execute(
                protocol,
                per_node_inputs=per_node_inputs,
                reuse_contexts=True,
            )
            seconds[label] = time.perf_counter() - start
            fingerprints.append((label, _fingerprint(result)))
    return seconds, fingerprints


def _kernel_table(name, graph, warmup_inputs, plan, quick):
    best = {arm: {label: float("inf") for label, _, _ in plan} for arm in ARMS}
    oracle = None
    repetitions = 2 if quick else 3
    # Interleaved best-of-N: the ratio gate needs both arms sampled
    # under comparable load, and identity is re-asserted every pass.
    for _ in range(repetitions):
        for arm in ARMS:
            seconds, fingerprints = _run_phases(graph, arm, warmup_inputs, plan)
            if oracle is None:
                oracle = fingerprints
            assert fingerprints == oracle, (
                "arm %r diverged on the kernel-covered phases" % arm
            )
            for label, elapsed in seconds.items():
                best[arm][label] = min(best[arm][label], elapsed)

    rows = []
    for label, _, _ in plan:
        callback_s = best["callbacks"][label]
        vector_s = best["vectorized"][label]
        rounds = next(fp[1] for lbl, fp in oracle if lbl == label)
        rows.append(
            [
                label,
                rounds,
                round(callback_s * 1e3, 1),
                round(vector_s * 1e3, 1),
                round(callback_s / max(vector_s, 1e-9), 2),
            ]
        )
    total_callbacks = sum(best["callbacks"].values())
    total_vector = sum(best["vectorized"].values())
    speedup = total_callbacks / max(total_vector, 1e-9)
    rows.append(
        [
            "total",
            "",
            round(total_callbacks * 1e3, 1),
            round(total_vector * 1e3, 1),
            round(speedup, 2),
        ]
    )
    tables.print_table(
        ["phase", "rounds", "callbacks ms", "vectorized ms", "speedup"],
        rows,
        title="E17  %s — kernel-covered phases, bit-identical runs" % name,
    )
    assert speedup >= VECTORIZED_SPEEDUP_FLOOR, (
        "vectorized kernels are only %.2fx the callbacks on %s, below the %.1fx "
        "floor" % (speedup, name, VECTORIZED_SPEEDUP_FLOOR)
    )
    return speedup


#: The tree-schedule phases the second workload times.
TREE_PHASES = (
    "nc-local-subsets",
    "nc-k-aggregation",
    "nc-k-size-broadcast",
    "nc-t-aggregation",
    "nc-best-broadcast",
    "nc-vote",
    "nc-final-labels",
)

#: A caterpillar on 8 sampled nodes, as edges between positions: every
#: node has eccentricity >= 3, so the BFS tree from the minimum id has
#: depth >= 3 whichever position it lands on.
TREE_SHAPE = [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (3, 6), (6, 7)]


def _tree_workload(quick: bool):
    """Sparse background + one sampled tree component with a wide audience."""
    n = 4000 if quick else 8000
    rng = random.Random(41)
    graph = nx.gnp_random_graph(n, 4.0 / n, seed=43)
    graph.add_nodes_from(range(n))
    sample = rng.sample(range(n), len(TREE_SHAPE) + 1)
    graph.remove_edges_from([(u, v) for u in sample for v in sample if u < v])
    graph.add_edges_from((sample[a], sample[b]) for a, b in TREE_SHAPE)
    others = [v for v in range(n) if v not in set(sample)]
    for member in sample:
        graph.add_edges_from((member, v) for v in rng.sample(others, 40))
    tree = graph.subgraph(sample)
    assert nx.is_tree(tree) and nx.eccentricity(tree, min(sample)) >= 3
    return (
        "tree-shaped planted (n=%d, |S_i|=%d, depth>=3)" % (n, len(sample)),
        graph,
        sorted(sample),
    )


def _run_tree_chain(graph, arm, sample):
    """Sampling + the exploration/decision chain; tree-phase seconds + prints."""
    n = graph.number_of_nodes()
    network = Network(graph, seed=23)
    config = CongestConfig(engine="vectorized").with_log_budget(n)
    engine = get_engine(config.engine)
    seconds = {}
    fingerprints = []
    with engine.open_session(network, config) as session:
        session.execute(
            _arm_protocol(arm, phases.SamplingPhase()),
            global_inputs={
                phases.GLOBAL_EPSILON: 0.25,
                phases.GLOBAL_MIN_OUTPUT_SIZE: 0,
                phases.GLOBAL_FORCED_SAMPLE: True,
            },
            per_node_inputs={v: {phases.KEY_FORCED_SAMPLE: True} for v in sample},
        )
        for protocol in DistNearCliqueRunner._phase_sequence():
            _arm_protocol(arm, protocol)
            start = time.perf_counter()
            result = session.execute(protocol, reuse_contexts=True)
            if protocol.name in TREE_PHASES:
                seconds[protocol.name] = time.perf_counter() - start
                fingerprints.append((protocol.name, _fingerprint(result)))
    return seconds, fingerprints


def _tree_table(quick):
    name, graph, sample = _tree_workload(quick)
    best = {arm: dict.fromkeys(TREE_PHASES, float("inf")) for arm in ARMS}
    oracle = None
    for _ in range(2 if quick else 3):
        for arm in ARMS:
            seconds, fingerprints = _run_tree_chain(graph, arm, sample)
            if oracle is None:
                oracle = fingerprints
            assert fingerprints == oracle, (
                "arm %r diverged on the tree-schedule phases" % arm
            )
            for label, elapsed in seconds.items():
                best[arm][label] = min(best[arm][label], elapsed)
    rows = []
    for label in TREE_PHASES + ("total",):
        if label == "total":
            callback_s = sum(best["callbacks"].values())
            vector_s = sum(best["vectorized"].values())
            rounds = ""
        else:
            callback_s = best["callbacks"][label]
            vector_s = best["vectorized"][label]
            rounds = next(fp[1] for lbl, fp in oracle if lbl == label)
        rows.append(
            [
                label,
                rounds,
                round(callback_s * 1e3, 1),
                round(vector_s * 1e3, 1),
                round(callback_s / max(vector_s, 1e-9), 2),
            ]
        )
    tables.print_table(
        ["phase", "rounds", "callbacks ms", "vectorized ms", "ratio"],
        rows,
        title="E17  %s — tree-schedule phases, bit-identical runs" % name,
    )


def _run_suite(quick: bool):
    name, graph, clique = _workload(quick)
    warmup_inputs, plan = _phase_plan(graph.number_of_nodes(), clique)
    speedup = _kernel_table(name, graph, warmup_inputs, plan, quick)
    _tree_table(quick)
    return speedup


def bench_e17_vectorized_kernels(benchmark):
    """pytest-benchmark entry point, matching the other E* modules."""
    _run_suite(QUICK)

    name, graph, clique = _workload(quick=True)
    warmup_inputs, plan = _phase_plan(graph.number_of_nodes(), clique)
    benchmark(lambda: _run_phases(graph, "vectorized", warmup_inputs, plan))


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    quick = QUICK or "--quick" in argv
    _run_suite(quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
