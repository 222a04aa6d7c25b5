#!/usr/bin/env python3
"""End-to-end benchmark of the near-clique finder and its query daemon.

Run from the repository root::

    python3 perfbench/run.py --workload find-vectorized --seed 1 --seconds 30 --trace 0

Workloads (each a closed loop: one client, no think time):

``find-vectorized``
    One operation is a whole file-to-result find: ``load_snap_edgelist``
    -> ``Network`` -> ``open_session`` -> ``DistNearCliqueRunner.run``
    with a forced sample -> ``close``, on the vectorized engine.
``find-process``
    The same inputs on the sharded engine's process backend (2 shards,
    persistent session, fused pipeline).
``serve-deltas``
    ``NearCliqueDaemon.handle_line`` driven in-process with cycles of a
    one-edge ``delta``, a ``query`` (answered incrementally) and the same
    ``query`` again (answered from cache).  One operation is one request.

All inputs come from ``--seed`` and are generated before timing.  Every
operation's output is checked (untimed); a failed check counts as a
failed operation.

End-to-end metrics (``--trace 0``).  Every time is in reference-host
seconds: its wall time scaled by how much slower than nominal a fixed
pure-Python loop ran just before and just after it (``reference_loop``),
so a shared host's swings in speed largely cancel.  The loop runs
between operations, never inside one, and uses none of the program's code.

* ``op_s_p50`` / ``op_s_p90``: latency of one operation (nearest rank).
* ``ops_per_s``: operations completed per second of operation time.
* ``query_s_p50`` / ``delta_s_p50``: reads and writes.  On serve-deltas,
  a write is a ``delta`` request and a read is an incremental ``query``,
  the read that does work (cached reads show in ``op_s_p50``; pooling the
  two kinds would put the median in the gap between them).  On the find
  workloads the write is the ingest of the graph
  (``load_snap_edgelist`` + ``Network``) and the read is the rest
  (session, run, close).
* ``setup_s``: find workloads, the median over fresh interpreters of
  importing ``repro`` plus ``get_engine``; serve-deltas, the median over
  repeats of building ``NearCliqueService`` plus its first, full query.
* ``peak_rss_mb``: peak RSS of this process plus its largest child
  (the process backend's workers).
* ``ok_frac``: operations that completed and passed their check, over
  operations attempted (a share of failures could read 0, which no
  relative bound can hold).

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` every other operation
is traced and the metrics are per layer (see ``spans.py``), a per-layer
table is printed and the spans are written as JSONL under
``.perfbench_out/``.

``--scale smoke`` shrinks every workload to a few hundred nodes, and
``--tamper`` corrupts one checked label; ``smoke.py`` uses both.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import spans  # the benchmark's own module, beside this file

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: Fresh-interpreter set-ups per find run; serve set-ups per run.
SETUP_REPEATS = 9
SERVE_SETUP_REPEATS = 3

#: The host-speed probe (see ``reference_loop``): items it builds, the
#: seconds it is taken to last on the reference host, and the least time
#: between two probes while operations are timed.  A shared host's speed
#: swings by a third within seconds; scaling each timing by the mean of
#: the probes just before and just after it removes most of that swing
#: (measured over 150 s of find operations: the spread of 30-second
#: medians fell from 15% to 4%).
REFERENCE_LOOP_ITEMS = 150000
REFERENCE_LOOP_S = 0.05
REFERENCE_INTERVAL_S = 0.25

#: Request cycles generated per second of ``--seconds`` for serve-deltas;
#: far above what the daemon answers (about 10 cycles a second at n=20000).
MAX_CYCLES_PER_SECOND = 60

#: CongestConfig keyword arguments of the find workloads.
FIND_ENGINES = {
    "find-vectorized": dict(engine="vectorized"),
    "find-process": dict(
        engine="sharded",
        shard_backend="process",
        shards=2,
        session_mode="persistent",
        pipeline_mode="fuse",
    ),
}

#: The phase labels of one DistNearClique run, in execution order.
PHASE_LABELS = (
    "nc-sampling",
    "min-id-bfs-tree",
    "bfs-parent-notification",
    "convergecast-collect",
    "tree-broadcast",
    "nc-comp-dissemination",
    "nc-local-subsets",
    "nc-k-aggregation",
    "nc-k-size-broadcast",
    "nc-k-announce",
    "nc-t-aggregation",
    "nc-best-broadcast",
    "nc-vote",
    "nc-final-labels",
)

#: (name, unit) of every end-to-end metric, emitted with ``--trace 0``.
END_TO_END = (
    ("op_s_p50", "s"),
    ("op_s_p90", "s"),
    ("ops_per_s", "1/s"),
    ("query_s_p50", "s"),
    ("delta_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)

#: Layers that occur on the gc attribution (first dotted span component).
GC_LAYERS = ("op", "io", "network", "session", "runner", "phase", "group", "service", "daemon")

#: (name, unit) of every per-layer metric, emitted with ``--trace 1``.
PER_LAYER = (
    (
        ("io.load_s", "s"),
        ("network.build_s", "s"),
        ("network.contexts_s", "s"),
        ("network.contexts_calls", "count"),
        ("network.delta_s", "s"),
    )
    + tuple(("phase.%s_s" % label, "s") for label in PHASE_LABELS)
    + (
        ("group.fused_s", "s"),
        ("session.open_s", "s"),
        ("session.close_s", "s"),
        ("sharding.setup_s", "s"),
        ("sharding.rearms", "count"),
        ("sharding.fused_phases", "count"),
        ("sharding.boundary_bytes", "bytes"),
        ("sharding.barrier_rounds", "count"),
        ("sharding.shm_bytes", "bytes"),
        ("sharding.recoveries", "count"),
        ("runner.self_s", "s"),
        ("congest.rounds", "count"),
        ("congest.messages", "count"),
        ("congest.bits", "bits"),
        ("service.query_s.full", "s"),
        ("service.query_s.incremental", "s"),
        ("service.query_s.cached", "s"),
        ("service.recomputed_nodes", "count"),
        ("service.delta_s", "s"),
        ("daemon.self_s", "s"),
        ("op.self_s", "s"),
        ("runtime.gc_s", "s"),
        ("runtime.gc_collections", "count"),
        ("runtime.gc_gen2", "count"),
    )
    + tuple(("%s.gc_s" % layer, "s") for layer in GC_LAYERS)
    + (("trace.overhead_s", "s"),)
)


def metric_of(span_name: str) -> str:
    """Per-layer metric name of a span: ``op``, ``runner`` and ``daemon`` are self times."""
    if span_name in (spans.OP, "runner", "daemon"):
        return span_name + ".self_s"
    if span_name.startswith("service.query."):
        return "service.query_s." + span_name[len("service.query."):]
    return span_name + "_s"


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _child_pids() -> List[int]:
    """Pids of this process's live (not zombie) children, read from ``/proc``."""
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry, encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[-1].split()  # state, ppid, ...
        if len(fields) > 1 and int(fields[1]) == me and fields[0] != "Z":
            children.append(int(entry))
    return children


def _reaped(pid: int) -> bool:
    try:
        return os.waitpid(pid, os.WNOHANG)[0] == pid
    except ChildProcessError:
        return True


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    ``session.close`` joins the process backend's workers; what outlives
    them is the ``multiprocessing`` resource tracker that the shared-memory
    segment started, which would otherwise exit some seconds after this
    process.  Anything else still running is terminated, then killed.
    """
    import multiprocessing
    import signal
    import time

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    shm = sys.modules.get("repro.congest.sharding.shm")
    if shm is not None:
        # A segment left mapped would be unlinked at exit, which restarts
        # the tracker stopped below; unlink it while the tracker still runs.
        shm._unlink_leaked_segments()
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    if tracker_module is not None:
        tracker = tracker_module._resource_tracker
        if getattr(tracker, "_fd", None) is not None:
            tracker._stop()  # closes the tracker's pipe and waits for it
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = _child_pids()
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 5
        while pids and time.monotonic() < deadline:
            pids = [pid for pid in pids if not _reaped(pid)]
            if pids:
                time.sleep(0.05)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def reference_loop() -> float:
    """Seconds one fixed pure-Python loop takes now: the host-speed probe.

    It builds and walks a dict of small lists with the collector off — the
    kind of object work the program does, with none of its code, so a
    change to the program cannot move it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = perf_counter()
        table = {}
        for i in range(REFERENCE_LOOP_ITEMS):
            table[i] = [i, str(i)]
        total = 0
        for value in table.values():
            total += value[0]
        del table
        return perf_counter() - began
    finally:
        if enabled:
            gc.enable()


#: A timed sample: its wall seconds and the index of the probe before it.
Sample = Tuple[float, int]


class Run:
    """What one benchmark run observed."""

    def __init__(self) -> None:
        self.op_seconds: List[Sample] = []
        self.query_seconds: List[Sample] = []
        self.delta_seconds: List[Sample] = []
        self.setup_seconds: List[Sample] = []
        self.traced_seconds: List[float] = []
        self.untraced_seconds: List[float] = []
        self.reference_seconds: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.final_ok = True
        self.peak_rss_mb = 0.0
        self.timed_ops: List[str] = []  # traced operation ids
        self.setup_ops: List[str] = []
        self._last_probe = -math.inf

    def fail(self, op: str, reason: str) -> None:
        self.failed += 1
        print("FAILED %s: %s" % (op, reason), file=sys.stderr)

    def probe_host(self, force: bool = False) -> None:
        """Run the reference loop if the last one is older than the interval."""
        if force or perf_counter() - self._last_probe >= REFERENCE_INTERVAL_S:
            self.reference_seconds.append(reference_loop())
            self._last_probe = perf_counter()

    def record(self, samples: List[Sample], wall: float) -> None:
        samples.append((wall, len(self.reference_seconds) - 1))

    def scaled(self, samples: List[Sample]) -> List[float]:
        """*samples* in reference-host seconds.

        Each wall time is scaled by ``REFERENCE_LOOP_S`` over the mean of
        the probes that bracket it (the probe before it alone when it is
        the last).
        """
        probes = self.reference_seconds
        out = []
        for wall, before in samples:
            bracket = probes[before : before + 2]
            out.append(wall * REFERENCE_LOOP_S * len(bracket) / sum(bracket))
        return out


def _tampered(labels: Dict[Any, Any]) -> Dict[Any, Any]:
    flipped = dict(labels)
    node = min(flipped)
    flipped[node] = -1 if flipped[node] != -1 else None
    return flipped


# ----------------------------------------------------------------------
# find workloads
# ----------------------------------------------------------------------
def _setup_subprocess(engine: str) -> float:
    """Seconds a fresh interpreter spends importing repro and getting *engine*."""
    code = (
        "import time; t = time.perf_counter(); import repro; "
        "from repro.congest.engine import get_engine; get_engine(%r); "
        "print(time.perf_counter() - t)" % engine
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _check_sharding(stats: Any) -> Optional[str]:
    from repro.congest.sharding import ShardingStats

    if not isinstance(stats, ShardingStats):
        return "session stats are %s, not ShardingStats" % type(stats).__name__
    if stats.shm_bytes <= 0 or stats.rearms < 1:
        return "process backend did not run (shm_bytes=%d, rearms=%d)" % (
            stats.shm_bytes,
            stats.rearms,
        )
    if stats.degradations or stats.retries or stats.recovery_events:
        return "session recovered from worker failures (%d retries, %d degradations)" % (
            stats.retries,
            stats.degradations,
        )
    return None


def run_find(workload: str, args: argparse.Namespace, tracer: Any, run: Run) -> None:
    from repro.congest.config import CongestConfig
    from repro.congest.engine import get_engine
    from repro.congest.network import Network
    from repro.core.dist_near_clique import DistNearCliqueRunner
    from repro.core.reference import CentralizedNearCliqueFinder
    from repro.graphs.io import load_snap_edgelist
    import workloads

    edge_file = os.path.join(OUT, "%s-seed%d.edges" % (workload, args.seed))
    inputs = workloads.make_find_inputs(
        workloads.FIND_SCALES[args.scale], args.seed, edge_file
    )
    try:
        oracle = CentralizedNearCliqueFinder(inputs.graph, workloads.EPSILON).run_with_sample(
            inputs.sample
        ).labels
        inputs.graph = None
        print(
            "%s: n=%d, m=%d, forced sample %s"
            % (workload, inputs.n, inputs.edges, list(inputs.sample))
        )
        config = CongestConfig(**FIND_ENGINES[workload]).with_log_budget(inputs.n)
        engine = get_engine(config.engine)
        runner = DistNearCliqueRunner(
            epsilon=workloads.EPSILON,
            sample_probability=1.0 / inputs.n,
            max_sample_size=None,
            config=config,
        )
        counts: Optional[Tuple[int, int, int]] = None

        def find_once(active: Any) -> Tuple[Any, float]:
            with active.span("io.load"):
                graph = load_snap_edgelist(edge_file)
            with active.span("network.build"):
                network = Network(graph, seed=inputs.network_seed)
            ingested = perf_counter()
            active.wrap(network, "build_contexts", lambda *a, **k: "network.contexts")
            with active.span("session.open"):
                session = engine.open_session(network, config)
            active.wrap(session, "execute", lambda protocol, **k: "phase." + protocol.name)
            active.wrap(session, "execute_fused", lambda protocols, **k: "group.fused")
            try:
                with active.span("runner"):
                    result = runner.run(
                        network=network, sample=inputs.sample, session=session
                    )
            finally:
                with active.span("session.close"):
                    session.close()
            return result, ingested

        # A traced run alternates untraced and traced operations, so it
        # needs at least two.
        minimum = 2 if tracer.enabled else 1
        start = perf_counter()
        while run.attempted < minimum or perf_counter() - start < args.seconds:
            op = "op%d" % run.attempted
            traced = tracer.enabled and run.attempted % 2 == 1
            active = tracer if traced else spans.NULL_TRACER
            run.attempted += 1
            # Start every find from a collected heap, as a fresh one-shot
            # run would: otherwise the previous operation's garbage moves
            # the collector's schedule from one operation to the next.
            gc.collect()
            run.probe_host()
            try:
                with active.operation(op):
                    began = perf_counter()
                    result, ingested = find_once(active)
                    ended = perf_counter()
            except Exception:
                traceback.print_exc()
                run.fail(op, "raised")
                continue
            wall = ended - began
            run.record(run.op_seconds, wall)
            run.record(run.delta_seconds, ingested - began)
            run.record(run.query_seconds, ended - ingested)
            (run.traced_seconds if traced else run.untraced_seconds).append(wall)
            if traced:
                run.timed_ops.append(op)

            # --- untimed correctness check ---------------------------------
            metrics = result.metrics
            these = (metrics.rounds, metrics.total_messages, metrics.total_bits)
            labels = result.labels
            if args.tamper and run.attempted == 1:
                labels = _tampered(labels)
            stats = runner.last_session_stats
            if traced:
                tracer.counters[op].update(
                    {
                        "congest.rounds": these[0],
                        "congest.messages": these[1],
                        "congest.bits": these[2],
                    }
                )
                if stats is not None:
                    tracer.counters[op].update(
                        {
                            "sharding.setup_s": stats.setup_seconds,
                            "sharding.rearms": stats.rearms,
                            "sharding.fused_phases": stats.fused_phases,
                            "sharding.boundary_bytes": stats.boundary_bytes,
                            "sharding.barrier_rounds": stats.barrier_rounds,
                            "sharding.shm_bytes": stats.shm_bytes,
                            "sharding.recoveries": len(stats.recovery_events),
                        }
                    )
            problem = None
            if result.aborted:
                problem = "aborted: %s" % result.abort_reason
            elif labels != oracle:
                problem = "labels differ from the centralized oracle"
            elif counts is not None and these != counts:
                problem = "protocol counts %s moved from %s" % (these, counts)
            elif workload == "find-process":
                problem = _check_sharding(stats)
            counts = counts or these
            if problem:
                run.fail(op, problem)
            del result
        run.probe_host(force=True)
        run.peak_rss_mb = peak_rss_mb()
    finally:
        if os.path.exists(edge_file):
            os.remove(edge_file)

    if not tracer.enabled:
        for _ in range(SETUP_REPEATS):
            run.probe_host(force=True)
            run.record(run.setup_seconds, _setup_subprocess(config.engine))
        run.probe_host(force=True)


# ----------------------------------------------------------------------
# serve workload
# ----------------------------------------------------------------------
def run_serve(args: argparse.Namespace, tracer: Any, run: Run) -> None:
    from repro.congest.network import Network
    from repro.core.dist_near_clique import DistNearCliqueRunner
    from repro.core.params import AlgorithmParameters
    from repro.service import NearCliqueDaemon, NearCliqueService
    from repro.service import protocol
    import workloads

    scale = workloads.SERVE_SCALES[args.scale]
    inputs = workloads.make_serve_inputs(
        scale, args.seed, cycles=max(20, int(args.seconds * MAX_CYCLES_PER_SECOND))
    )
    n = inputs.graph.number_of_nodes()
    parameters = AlgorithmParameters(
        epsilon=workloads.EPSILON,
        sample_probability=workloads.SERVE_EXPECTED_SAMPLE / n,
        max_sample_size=None,
    )
    print(
        "serve-deltas: n=%d, m=%d, %d blocks of %d, query seed %d"
        % (n, inputs.graph.number_of_edges(), scale.blocks, scale.block_size, inputs.query_seed)
    )
    query_line = inputs.cycles[0][1]

    def request(daemon: Any, line: str) -> Dict[str, Any]:
        with tracer.span("daemon"):
            response = daemon.handle_line(line)
            protocol.encode_response(response)
        return response

    def instrument(service: Any) -> None:
        query = service.query

        def traced_query(seed: int = 0) -> Any:
            with tracer.span("service.query") as span:
                outcome = query(seed=seed)
            if span is not None:
                span.name = "service.query." + outcome.record.kind
                if outcome.record.kind == "incremental":
                    tracer.count("service.recomputed_nodes", outcome.record.recomputed_nodes)
            return outcome

        service.query = traced_query
        tracer.wrap(service, "apply_delta", lambda *a, **k: "service.delta")
        tracer.wrap(service.network, "apply_delta", lambda *a, **k: "network.delta")
        tracer.wrap(service.network, "build_contexts", lambda *a, **k: "network.contexts")

    daemon = None
    try:
        for index in range(SERVE_SETUP_REPEATS):
            if daemon is not None:
                daemon.service.close()
            op = "setup%d" % index
            run.probe_host(force=True)
            with tracer.operation(op):
                began = perf_counter()
                with tracer.span("network.build"):
                    service = NearCliqueService(inputs.graph, parameters)
                daemon = NearCliqueDaemon(service, reader=io.StringIO(), writer=io.StringIO())
                if tracer.enabled:
                    instrument(service)
                response = request(daemon, query_line)
                run.record(run.setup_seconds, perf_counter() - began)
            if tracer.enabled:
                run.setup_ops.append(op)
                metrics = response.get("metrics", {})
                tracer.counters[op].update(
                    {
                        "congest.rounds": metrics.get("rounds", 0),
                        "congest.messages": metrics.get("total_messages", 0),
                        "congest.bits": metrics.get("total_bits", 0),
                    }
                )
            if not response.get("ok") or response["query"]["kind"] != "full":
                raise RuntimeError("cold query was not answered in full: %r" % response)

        expected = ("delta", "incremental", "cached")
        last_query: Optional[Dict[str, Any]] = None
        cycles = 0
        minimum = 2 if tracer.enabled else 1
        start = perf_counter()
        while cycles < len(inputs.cycles) and (
            cycles < minimum or perf_counter() - start < args.seconds
        ):
            traced = tracer.enabled and cycles % 2 == 1
            active = tracer if traced else spans.NULL_TRACER
            run.probe_host()
            for slot, line in enumerate(inputs.cycles[cycles]):
                op = "c%d.%d" % (cycles, slot)
                run.attempted += 1
                try:
                    with active.operation(op):
                        began = perf_counter()
                        response = request(daemon, line)
                        wall = perf_counter() - began
                except Exception:
                    traceback.print_exc()
                    run.fail(op, "raised")
                    continue
                run.record(run.op_seconds, wall)
                (run.traced_seconds if traced else run.untraced_seconds).append(wall)
                if slot == 0:
                    run.record(run.delta_seconds, wall)
                elif slot == 1:
                    run.record(run.query_seconds, wall)
                if traced:
                    run.timed_ops.append(op)
                # --- untimed correctness check -----------------------------
                if not response.get("ok"):
                    run.fail(op, "error response %r" % response.get("error"))
                elif slot == 0:
                    if response["added"] + response["removed"] != 1:
                        run.fail(op, "delta changed %d edges, not 1" % (
                            response["added"] + response["removed"]))
                else:
                    last_query = response
                    if response["query"]["kind"] != expected[slot]:
                        run.fail(op, "query answered %s, expected %s" % (
                            response["query"]["kind"], expected[slot]))
            cycles += 1
        run.probe_host(force=True)
        run.peak_rss_mb = peak_rss_mb()

        # --- untimed end-of-run checks ------------------------------------
        stats = daemon.handle_line(json.dumps({"cmd": "stats"}))
        if stats.get("incremental_queries") != cycles:
            run.final_ok = False
            print("FAILED stats: %r incremental queries for %d deltas"
                  % (stats.get("incremental_queries"), cycles), file=sys.stderr)
        mirror = inputs.graph.copy()
        for flip in inputs.flips[:cycles]:
            workloads.apply_flip(mirror, flip)
        fresh = DistNearCliqueRunner(parameters=parameters).run(
            network=Network(mirror, seed=inputs.query_seed)
        )
        served = {node: label for node, label in (last_query or {}).get("labels", [])}
        if args.tamper and served:
            served = _tampered(served)
        if served != fresh.labels:
            run.final_ok = False
            print("FAILED final query: labels differ from a fresh full run", file=sys.stderr)
        if not run.final_ok:
            run.failed = min(run.failed + 1, run.attempted)
    finally:
        if daemon is not None:
            daemon.service.close()


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def end_to_end(run: Run) -> Dict[str, float]:
    ok = run.attempted - run.failed
    ops = run.scaled(run.op_seconds)
    return {
        "op_s_p50": statistics.median(ops),
        "op_s_p90": percentile(ops, 0.9),
        "ops_per_s": len(ops) / math.fsum(ops),
        "query_s_p50": statistics.median(run.scaled(run.query_seconds)),
        "delta_s_p50": statistics.median(run.scaled(run.delta_seconds)),
        "setup_s": statistics.median(run.scaled(run.setup_seconds)),
        "peak_rss_mb": run.peak_rss_mb,
        "ok_frac": ok / run.attempted,
    }


def per_layer(workload: str, seed: int, run: Run, tracer: spans.Tracer) -> Dict[str, float]:
    values = spans.layer_values(tracer, run.timed_ops, run.setup_ops, metric_of)
    values["trace.overhead_s"] = spans.median_or_zero(run.traced_seconds) - spans.median_or_zero(
        run.untraced_seconds
    )
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "trace-%s-seed%d.jsonl" % (workload, seed))
    tracer.write_jsonl(path)
    lines, worst = spans.layer_table(
        tracer,
        run.timed_ops,
        "per-layer self time, %s (%d traced operations, mean per operation)"
        % (workload, len(run.timed_ops)),
    )
    print("\n".join(lines))
    untraced = spans.median_or_zero(run.untraced_seconds)
    print(
        "  tracing overhead: traced op p50 %.4f s vs untraced %.4f s (%+.1f%%)"
        % (
            spans.median_or_zero(run.traced_seconds),
            untraced,
            100.0 * values["trace.overhead_s"] / untraced if untraced else 0.0,
        )
    )
    print("  spans written to %s" % os.path.relpath(path, ROOT))
    if workload in FIND_ENGINES and abs(1.0 - worst) > 0.05:
        run.final_ok = False
        print("FAILED trace: layers cover only %.1f%% of a find operation" % (100 * worst),
              file=sys.stderr)
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("find-vectorized", "find-process", "serve-deltas"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--tamper", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: the program's source (src/repro) is not in this checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)

    tracer: Any = spans.Tracer() if args.trace else spans.NULL_TRACER
    run = Run()
    try:
        if args.workload == "serve-deltas":
            run_serve(args, tracer, run)
        else:
            run_find(args.workload, args, tracer, run)
    finally:
        stop_children()

    if run.attempted == 0 or not run.op_seconds:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    figures = end_to_end(run) if not args.trace else None
    if figures is not None:
        print("  reference loop: median %.4f s over %d probes (nominal %.4f s)" % (
            statistics.median(run.reference_seconds), len(run.reference_seconds),
            REFERENCE_LOOP_S))
        for name, unit in END_TO_END:
            print("  %-14s %14.6f %s" % (name, figures[name], unit))
        metrics = {name: {"value": figures[name], "unit": unit} for name, unit in END_TO_END}
    else:
        values = per_layer(args.workload, args.seed, run, tracer)
        metrics = {
            name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER
        }
    print(
        json.dumps(
            {
                "correct": run.failed == 0 and run.final_ok,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
