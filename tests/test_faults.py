"""Chaos suite: fault injection, the barrier watchdog, supervised retry.

The claims under test, in increasing order of machinery:

1. **Fault plans are values** — seeded, validated, picklable, reproducible;
   the same seed always describes the same failures.
2. **The watchdog converts hangs into typed errors** — a worker that sleeps
   through a barrier raises :class:`ShardWorkerTimeout` within the
   configured deadline instead of blocking the coordinator forever, and no
   worker process outlives the failed call.
3. **Supervised retry is invisible in the output** — a process session
   that crashes, hangs or decodes garbage mid-pipeline and recovers
   (phase replay on a fresh pool, or degradation to the serial backend)
   produces a result *bit-identical* to a clean run on the reference
   engine.  That is the whole point of deterministic replay: recovery is an
   implementation detail, not an observable event.

The matrix class at the bottom is the CI chaos job's entry point — it
selects one scenario cell per job with ``-k``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import multiprocessing
import pickle
import random
import time

import networkx as nx
import pytest

from repro.congest.config import CongestConfig, RetryPolicy
from repro.congest.engine import get_engine
from repro.congest.errors import (
    ShardWorkerError,
    ShardWorkerTimeout,
    WireCorruptionError,
)
from repro.congest.message import Inbound, Message
from repro.congest.network import Network
from repro.congest.scheduler import run_protocol
from repro.congest.sharding.faults import (
    FAULT_KINDS,
    FAULT_POINTS,
    FaultPlan,
    FaultSpec,
)
from repro.congest.sharding.wire import WireDecoder, WireEncoder
from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.core.params import AlgorithmParameters
from repro.primitives.bfs_tree import KEY_PARTICIPANT, MinIdBFSTreeProtocol
from repro.service import NearCliqueDaemon, NearCliqueService


# ----------------------------------------------------------------------
# workloads and oracles
# ----------------------------------------------------------------------
PARAMS = AlgorithmParameters(epsilon=0.3, sample_probability=0.25)

#: The forced sample of every pipeline run here: two nodes in each of the
#: three contiguous shards of both workload sizes (n=40 and n=48).  Coin
#: flips at p=0.25 would make a run's cost exponential in the realized
#: |S_i|; a fixed sample pins it, and the fault specs below fire on worker
#: commands that every shard receives whatever the sample is.
SAMPLE = (3, 10, 17, 24, 31, 38)

#: Phases of the full near-clique pipeline that fault specs bind to.
PIPELINE_PHASES = (
    "nc-sampling",
    "nc-comp-dissemination",
    "min-id-bfs-tree",
    "nc-vote",
)


def _connected_gnp(n: int, p: float, seed: int) -> nx.Graph:
    graph = nx.gnp_random_graph(n, p, seed=seed)
    nodes = sorted(graph.nodes())
    # A spanning path keeps the workload one component, so every pipeline
    # phase runs exactly once and phase-bound specs fire exactly once.
    graph.add_edges_from(zip(nodes, nodes[1:]))
    return graph


def _fingerprint(result):
    metrics = result.metrics
    return (
        result.labels,
        result.sample,
        result.candidates,
        result.components,
        result.aborted,
        metrics.rounds,
        metrics.total_messages,
        metrics.total_bits,
        metrics.max_message_bits,
    )


def _run_pipeline(graph, config, seed=5):
    runner = DistNearCliqueRunner(
        parameters=PARAMS, rng=random.Random(seed), config=config
    )
    result = runner.run(graph, sample=SAMPLE)
    return result, runner.last_session_stats


def _reference_fingerprint(graph, n, seed=5):
    config = CongestConfig(engine="reference").with_log_budget(n)
    result, _ = _run_pipeline(graph, config, seed=seed)
    return _fingerprint(result)


def _faulty_config(n, fault_plan, *, round_timeout=None, retry=None, shards=3):
    return dataclasses.replace(
        CongestConfig()
        .with_sharding(shards=shards, backend="process")
        .with_log_budget(n),
        fault_plan=fault_plan,
        round_timeout=round_timeout,
        retry_policy=retry,
    )


def _assert_no_worker_processes():
    deadline = time.time() + 5.0
    while multiprocessing.active_children() and time.time() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# fault plans are values
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="point"):
            FaultSpec(point="warmup", kind="crash")
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(point="round", kind="meteor")
        with pytest.raises(ValueError, match="corrupt"):
            FaultSpec(point="finish", kind="corrupt")
        with pytest.raises(ValueError, match="round_index"):
            FaultSpec(point="round", kind="crash", round_index=0)
        with pytest.raises(ValueError, match="hang_seconds"):
            FaultSpec(point="round", kind="hang", hang_seconds=0.0)
        with pytest.raises(ValueError, match="shard"):
            FaultSpec(point="round", kind="crash", shard=-1)

    def test_vocabulary_is_closed(self):
        assert set(FAULT_POINTS) == {"arm", "start", "round", "finish"}
        assert set(FAULT_KINDS) == {"crash", "hang", "eof", "corrupt"}

    def test_seeded_plans_are_reproducible(self):
        kwargs = dict(seed=42, shards=4, phases=PIPELINE_PHASES, faults=3)
        first = FaultPlan.seeded(**kwargs)
        second = FaultPlan.seeded(**kwargs)
        assert first == second
        assert len(first.specs) == 3
        # Every seeded spec is phase-bound: after a respawn the injector's
        # fired-set restarts empty, and only the phase binding prevents the
        # same spec from firing again in every later phase.
        assert all(spec.phase in PIPELINE_PHASES for spec in first.specs)
        assert FaultPlan.seeded(seed=43, shards=4, phases=PIPELINE_PHASES) != first

    def test_for_attempt_threads_the_retry_cursor(self):
        plan = FaultPlan.seeded(seed=1, shards=2, phases=("nc-vote",))
        assert plan.for_attempt(0) is plan
        bumped = plan.for_attempt(2)
        assert bumped.attempt == 2 and bumped.specs == plan.specs

    def test_plans_are_picklable(self):
        plan = FaultPlan.seeded(seed=9, shards=3, phases=PIPELINE_PHASES)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan


# ----------------------------------------------------------------------
# the config surface
# ----------------------------------------------------------------------
class TestConfigKnobs:
    def test_round_timeout_none_or_positive(self):
        assert CongestConfig().round_timeout is None
        assert CongestConfig(round_timeout=2.5).round_timeout == 2.5
        with pytest.raises(ValueError, match="round_timeout"):
            CongestConfig(round_timeout=0.0)

    def test_retry_policy_validation(self):
        policy = RetryPolicy(max_attempts=3, backoff_seconds=0.5)
        assert CongestConfig(retry_policy=policy).retry_policy is policy
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_seconds"):
            RetryPolicy(backoff_seconds=-1.0)
        with pytest.raises(ValueError, match="retry_policy"):
            CongestConfig(retry_policy="twice")

    def test_retry_backoff_schedule(self):
        policy = RetryPolicy(max_attempts=4, backoff_seconds=0.1, backoff_multiplier=2.0)
        assert policy.delay_before(1) == pytest.approx(0.1)
        assert policy.delay_before(2) == pytest.approx(0.2)
        assert policy.delay_before(3) == pytest.approx(0.4)
        assert RetryPolicy().delay_before(1) == 0.0

    def test_fault_plan_is_duck_checked(self):
        plan = FaultPlan.seeded(seed=0, shards=2, phases=("nc-vote",))
        assert CongestConfig(fault_plan=plan).fault_plan is plan
        with pytest.raises(ValueError, match="fault_plan"):
            CongestConfig(fault_plan="chaos, please")


# ----------------------------------------------------------------------
# wire corruption is a typed, picklable error
# ----------------------------------------------------------------------
class TestWireCorruption:
    def test_garbage_blob_raises_wire_corruption_error(self):
        encoder = WireEncoder()
        decoder = WireDecoder()
        batch = encoder.encode(
            [1, 4],
            [
                Inbound(sender=0, message=Message(kind="ping", payload=(7,))),
                Inbound(sender=2, message=Message(kind="ping", payload=(9,))),
            ],
        )
        corrupted = batch._replace(payloads=b"\xff" * max(1, len(batch.payloads)))
        with pytest.raises(WireCorruptionError):
            decoder.decode(corrupted)

    def test_corruption_error_is_retryable_and_picklable(self):
        error = WireCorruptionError("unknown tag 255")
        assert isinstance(error, ShardWorkerError)
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, WireCorruptionError)
        assert clone.detail == error.detail

    def test_timeout_error_is_picklable(self):
        error = ShardWorkerTimeout((0, 2), 1.5, alive_shards=(2,))
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, ShardWorkerTimeout)
        assert clone.shard_indices == (0, 2)
        assert clone.alive_shards == (2,)
        assert clone.timeout == 1.5
        assert isinstance(clone, ShardWorkerError)


# ----------------------------------------------------------------------
# the serial backend has no worker to fail
# ----------------------------------------------------------------------
def _bfs_inputs(graph):
    return {v: {KEY_PARTICIPANT: True} for v in graph.nodes()}


class TestInProcessSimulation:
    def _serial_config(self, plan, *, round_timeout=None):
        return dataclasses.replace(
            CongestConfig().with_sharding(shards=3, backend="serial"),
            fault_plan=plan,
            round_timeout=round_timeout,
        ).with_log_budget(30)

    def test_empty_simulated_plan_is_bit_identical_noop(self):
        graph = nx.gnp_random_graph(30, 0.2, seed=12)
        results = {}
        for plan in (None, FaultPlan()):
            network = Network(graph, seed=2)
            result = run_protocol(
                network,
                MinIdBFSTreeProtocol(),
                config=self._serial_config(plan),
                per_node_inputs=_bfs_inputs(graph),
            )
            results[plan is None] = (
                dict(result.outputs),
                result.metrics.rounds,
                result.metrics.total_messages,
            )
        assert results[True] == results[False]

    def test_unsimulated_plan_is_ignored_off_process_backend(self):
        # A real (simulate=False) plan only means something to process
        # workers; the serial backend must run it clean, not crash.
        graph = nx.gnp_random_graph(24, 0.2, seed=4)
        plan = FaultPlan(
            specs=(FaultSpec(point="round", kind="crash", shard=0),)
        )
        result = run_protocol(
            Network(graph, seed=2),
            MinIdBFSTreeProtocol(),
            config=self._serial_config(plan),
            per_node_inputs=_bfs_inputs(graph),
        )
        assert result.outputs


# ----------------------------------------------------------------------
# the barrier watchdog (process backend)
# ----------------------------------------------------------------------
class TestWatchdog:
    def _config(self, plan, *, round_timeout=None, shards=3):
        return dataclasses.replace(
            CongestConfig().with_sharding(shards=shards, backend="process"),
            fault_plan=plan,
            round_timeout=round_timeout,
        ).with_log_budget(30)

    def test_hung_worker_raises_timeout_within_deadline(self):
        graph = _connected_gnp(24, 0.15, seed=3)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    point="round",
                    kind="hang",
                    shard=1,
                    round_index=1,
                    hang_seconds=30.0,
                ),
            )
        )
        started = time.time()
        with pytest.raises(ShardWorkerTimeout) as excinfo:
            run_protocol(
                Network(graph, seed=2),
                MinIdBFSTreeProtocol(),
                config=self._config(plan, round_timeout=1.5),
                per_node_inputs=_bfs_inputs(graph),
            )
        elapsed = time.time() - started
        assert elapsed < 20.0, "watchdog should fire at ~1.5s, not at join"
        assert 1 in excinfo.value.shard_indices
        # The sleeping worker was still alive when the watchdog gave up —
        # that is precisely what distinguishes a hang from a crash.
        assert 1 in excinfo.value.alive_shards
        _assert_no_worker_processes()

    def test_no_timeout_means_blocking_recv_path(self):
        # Clean run with a deadline set: the watchdog must be inert.
        graph = _connected_gnp(24, 0.15, seed=3)
        results = {}
        for timeout in (None, 30.0):
            result = run_protocol(
                Network(graph, seed=2),
                MinIdBFSTreeProtocol(),
                config=self._config(None, round_timeout=timeout),
                per_node_inputs=_bfs_inputs(graph),
            )
            results[timeout] = (dict(result.outputs), result.metrics.rounds)
        assert results[None] == results[30.0]
        _assert_no_worker_processes()


# ----------------------------------------------------------------------
# supervised retry and degradation (the acceptance scenario)
# ----------------------------------------------------------------------
class TestSupervisedRetry:
    N = 48

    def _graph(self):
        return _connected_gnp(self.N, 0.12, seed=3)

    def test_crash_and_hang_mid_pipeline_recover_bit_identically(self):
        # One worker crash in one phase plus one hang in another, both on
        # the process session; the run must complete via replay and match
        # the reference engine bit for bit.  Both phases sit in the same
        # fused group — the replay unit — so the hang is bound to the
        # group's first replay: crash, replay, hang, replay, clean.
        graph = self._graph()
        oracle = _reference_fingerprint(graph, self.N)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    point="round",
                    kind="crash",
                    shard=1,
                    phase="nc-comp-dissemination",
                    round_index=1,
                ),
                FaultSpec(
                    point="round",
                    kind="hang",
                    shard=0,
                    phase="min-id-bfs-tree",
                    round_index=1,
                    hang_seconds=30.0,
                    attempt=1,
                ),
            )
        )
        config = _faulty_config(
            self.N,
            plan,
            round_timeout=2.0,
            retry=RetryPolicy(max_attempts=3),
        )
        result, stats = _run_pipeline(graph, config)
        assert _fingerprint(result) == oracle
        assert stats is not None
        assert stats.retries >= 2, "both faults should have been retried"
        assert stats.timeouts >= 1, "the hang should be a watchdog timeout"
        assert stats.degradations == 0
        assert {event.action for event in stats.recovery_events} == {"retry"}
        _assert_no_worker_processes()

    def test_persistent_failure_degrades_to_serial_bit_identically(self):
        # The same phase fails on the first attempt AND its replay: the
        # supervisor must fall back to the serial sharded backend and
        # still answer bit-identically.
        graph = self._graph()
        oracle = _reference_fingerprint(graph, self.N)
        specs = tuple(
            FaultSpec(
                point="round",
                kind="crash",
                shard=1,
                phase="nc-comp-dissemination",
                round_index=1,
                attempt=attempt,
            )
            for attempt in (0, 1)
        )
        config = _faulty_config(
            self.N,
            FaultPlan(specs=specs),
            retry=RetryPolicy(max_attempts=2),
        )
        result, stats = _run_pipeline(graph, config)
        assert _fingerprint(result) == oracle
        assert stats.degradations == 1
        assert stats.retries == 1  # first replay, which then failed too
        actions = [event.action for event in stats.recovery_events]
        assert actions == ["retry", "degrade"]
        _assert_no_worker_processes()

    def test_fused_group_crash_replays_transactionally_bit_identically(self):
        # Per-phase context fold-backs inside a fused group are elided, so
        # the *group* is the transaction unit —
        # a crash in a mid-group phase must replay the whole group from
        # the pristine group-start contexts and still match the reference
        # engine bit for bit.
        graph = self._graph()
        oracle = _reference_fingerprint(graph, self.N)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    point="round",
                    kind="crash",
                    shard=1,
                    phase="nc-vote",
                    round_index=1,
                ),
            )
        )
        config = _faulty_config(self.N, plan, retry=RetryPolicy(max_attempts=2))
        result, stats = _run_pipeline(graph, config)
        assert _fingerprint(result) == oracle
        assert stats.retries == 1
        assert stats.degradations == 0
        (event,) = [e for e in stats.recovery_events if e.action == "retry"]
        # The recovery event names the fused group, not a single phase.
        assert "+" in event.phase and "nc-vote" in event.phase
        # Fusion accounting survives recovery, and phase metrics are not
        # double-counted by the replay (partials are flushed only after
        # the group-final fold).
        assert stats.fused_phases > 0
        labels = [phase.label for phase in stats.phases]
        assert len(labels) == len(set(labels))
        _assert_no_worker_processes()

    def test_fused_group_persistent_failure_degrades_bit_identically(self):
        # A mid-group phase that fails on the first attempt AND on the
        # group's replay: the whole fused group degrades to the serial
        # backend, still bit-identical to the reference engine.
        graph = self._graph()
        oracle = _reference_fingerprint(graph, self.N)
        specs = tuple(
            FaultSpec(
                point="round",
                kind="crash",
                shard=1,
                phase="nc-vote",
                round_index=1,
                attempt=attempt,
            )
            for attempt in (0, 1)
        )
        config = _faulty_config(
            self.N, FaultPlan(specs=specs), retry=RetryPolicy(max_attempts=2)
        )
        result, stats = _run_pipeline(graph, config)
        assert _fingerprint(result) == oracle
        assert stats.degradations == 1
        actions = [event.action for event in stats.recovery_events]
        assert actions == ["retry", "degrade"]
        _assert_no_worker_processes()

    def test_no_policy_means_failures_propagate(self):
        graph = self._graph()
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    point="round",
                    kind="crash",
                    shard=1,
                    phase="nc-comp-dissemination",
                    round_index=1,
                ),
            )
        )
        config = _faulty_config(self.N, plan, retry=None)
        with pytest.raises(ShardWorkerError):
            _run_pipeline(graph, config)
        _assert_no_worker_processes()

    def test_abort_when_policy_forbids_degradation(self):
        graph = self._graph()
        specs = tuple(
            FaultSpec(
                point="round",
                kind="crash",
                shard=1,
                phase="nc-comp-dissemination",
                round_index=1,
                attempt=attempt,
            )
            for attempt in (0, 1)
        )
        config = _faulty_config(
            self.N,
            FaultPlan(specs=specs),
            retry=RetryPolicy(max_attempts=2, degrade=False),
        )
        with pytest.raises(ShardWorkerError):
            _run_pipeline(graph, config)
        _assert_no_worker_processes()

    def test_light_rearm_with_inputs_replays_and_matches_fused_group_of_one(self):
        # A crash in a phase whose inputs travel on the light re-arm: the
        # replay respawns from the parent's contexts, which already hold
        # those inputs, and must answer as the reference engine does.
        graph = self._graph()
        phase = MinIdBFSTreeProtocol()
        first = _bfs_inputs(graph)
        second = {v: {KEY_PARTICIPANT: v % 4 != 1} for v in graph.nodes()}

        def two_runs(session, config=None):
            session.execute(phase, per_node_inputs=first)
            result = session.execute(
                phase,
                config=config,
                reuse_contexts=True,
                per_node_inputs=second,
                global_inputs={"bfs-epoch": 2},
            )
            metrics = result.metrics
            return (
                dict(result.outputs),
                metrics.rounds,
                metrics.total_messages,
                metrics.total_bits,
            )

        reference = CongestConfig(engine="reference").with_log_budget(self.N)
        network = Network(graph, seed=2)
        with get_engine("reference").open_session(network, reference) as session:
            oracle = two_runs(session)

        clean = _faulty_config(self.N, None, retry=RetryPolicy(max_attempts=2))
        crash = FaultSpec(
            point="round", kind="crash", shard=1, phase=phase.name, round_index=1
        )
        faulty = dataclasses.replace(clean, fault_plan=FaultPlan(specs=(crash,)))
        network = Network(graph, seed=2)
        with get_engine("sharded").open_session(network, clean) as session:
            assert two_runs(session, faulty) == oracle
            stats = session.stats
            events = [(e.phase, e.action) for e in stats.recovery_events]
            assert events == [(phase.name, "retry")]

            # execute(p) and execute_fused([p]) are one group of one.
            def delta(run):
                before = (stats.rearms, stats.fused_phases, len(stats.phases))
                run()
                (partial,) = stats.phases[before[2]:]
                return (
                    stats.rearms - before[0],
                    stats.fused_phases - before[1],
                    dataclasses.replace(partial, setup_seconds=0.0),
                )

            single = delta(lambda: session.execute(phase, reuse_contexts=True))
            fused = delta(lambda: session.execute_fused([phase]))
        assert single == fused
        assert single[:2] == (1, 0)
        _assert_no_worker_processes()


class TestChaosDifferential:
    """Randomised plans: whatever the seed injects, the answer is the oracle's."""

    N = 40

    @pytest.mark.parametrize("chaos_seed", [11, 23, 47])
    def test_seeded_chaos_recovers_bit_identically(self, chaos_seed):
        graph = _connected_gnp(self.N, 0.12, seed=6)
        oracle = _reference_fingerprint(graph, self.N)
        plan = FaultPlan.seeded(
            seed=chaos_seed,
            shards=3,
            phases=PIPELINE_PHASES,
            faults=2,
        )
        config = _faulty_config(
            self.N,
            plan,
            round_timeout=5.0,
            retry=RetryPolicy(max_attempts=2),
        )
        result, stats = _run_pipeline(graph, config)
        assert _fingerprint(result) == oracle
        # Seeded specs all live at attempt 0, so the first replay of any
        # failing phase is guaranteed clean: no chaos run may degrade.
        assert stats.degradations == 0
        _assert_no_worker_processes()


# ----------------------------------------------------------------------
# the daemon: input hardening and the timeout error code
# ----------------------------------------------------------------------
def _block_graph(sizes, p=0.9, seed=7) -> nx.Graph:
    rng = random.Random(seed)
    graph = nx.Graph()
    base = 0
    for size in sizes:
        members = list(range(base, base + size))
        graph.add_nodes_from(members)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if rng.random() < p:
                    graph.add_edge(u, v)
        base += size
    return graph


class TestDaemonHardening:
    def test_oversized_line_is_rejected_in_bounded_memory(self):
        service = NearCliqueService(_block_graph([8]), PARAMS)
        out = io.StringIO()
        huge = '{"cmd": "query", "pad": "' + "x" * 4096 + '"}'
        daemon = NearCliqueDaemon(
            service,
            reader=io.StringIO(
                huge + "\n" + '{"cmd": "query"}\n' + '{"cmd": "shutdown"}\n'
            ),
            writer=out,
            max_line_length=256,
        )
        served = daemon.serve_forever()
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert served == 3
        assert responses[0]["ok"] is False
        assert responses[0]["error"]["code"] == "bad-request"
        assert "256" in responses[0]["error"]["message"]
        # The oversized line was drained, not re-parsed as later requests:
        # the follow-up query and the shutdown answer normally.
        assert responses[1]["ok"] is True and responses[1]["cmd"] == "query"
        assert responses[2]["cmd"] == "shutdown"

    def test_exact_limit_line_still_parses(self):
        service = NearCliqueService(_block_graph([8]), PARAMS)
        request = '{"cmd": "query", "seed": 0}'
        out = io.StringIO()
        daemon = NearCliqueDaemon(
            service,
            reader=io.StringIO(request + "\n" + '{"cmd": "shutdown"}\n'),
            writer=out,
            max_line_length=len(request),
        )
        daemon.serve_forever()
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert responses[0]["ok"] is True

    def test_max_line_length_must_be_positive(self):
        service = NearCliqueService(_block_graph([8]), PARAMS)
        with pytest.raises(ValueError, match="max_line_length"):
            NearCliqueDaemon(service, max_line_length=0)

    def test_worker_timeout_answers_typed_error_and_daemon_recovers(self):
        graph = _block_graph([10, 10])
        service = NearCliqueService(graph.copy(), PARAMS)
        real_run = service._runner.run
        hangs = {"left": 1}

        def hang_once(*args, **kwargs):
            if hangs["left"]:
                hangs["left"] -= 1
                raise ShardWorkerTimeout((1,), 2.0, alive_shards=(1,))
            return real_run(*args, **kwargs)

        service._runner.run = hang_once
        out = io.StringIO()
        requests = [
            {"cmd": "query", "seed": 3},
            {"cmd": "query", "seed": 3},
            {"cmd": "stats"},
            {"cmd": "shutdown"},
        ]
        daemon = NearCliqueDaemon(
            service,
            reader=io.StringIO("".join(json.dumps(r) + "\n" for r in requests)),
            writer=out,
        )
        served = daemon.serve_forever()
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert served == 4
        assert responses[0]["ok"] is False
        assert responses[0]["error"]["code"] == "worker-timeout"
        assert responses[1]["ok"] is True
        assert responses[2]["worker_timeouts"] == 1
        assert responses[2]["worker_crashes"] == 0

    def test_session_retries_surface_in_service_stats(self):
        # A service configured with a retry policy absorbs an injected
        # crash silently (the query succeeds); the recovery still shows
        # up in the stats response, harvested from the session ledger.
        graph = _block_graph([10, 10])
        n = graph.number_of_nodes()
        plan = FaultPlan(
            specs=(
                # The sampling phase is start-only (coins flip in on_start,
                # zero rounds), so bind to a phase that actually rounds.
                FaultSpec(
                    point="round",
                    kind="crash",
                    shard=0,
                    phase="nc-comp-dissemination",
                    round_index=1,
                ),
            )
        )
        config = _faulty_config(n, plan, retry=RetryPolicy(max_attempts=2))
        service = NearCliqueService(graph, PARAMS, config=config)
        out = io.StringIO()
        requests = [
            {"cmd": "query", "seed": 3},
            {"cmd": "stats"},
            {"cmd": "shutdown"},
        ]
        daemon = NearCliqueDaemon(
            service,
            reader=io.StringIO("".join(json.dumps(r) + "\n" for r in requests)),
            writer=out,
        )
        daemon.serve_forever()
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert responses[0]["ok"] is True, responses[0]
        assert responses[1]["retries"] == 1
        assert responses[1]["worker_crashes"] == 0  # nothing escaped
        assert responses[1]["degradations"] == 0


# ----------------------------------------------------------------------
# the CI chaos matrix: one scenario cell per job via -k
# ----------------------------------------------------------------------
def _matrix_plan(scenario: str) -> FaultPlan:
    specs = {
        "crash_arm": FaultSpec(point="arm", kind="crash", shard=1),
        "crash_round": FaultSpec(
            point="round", kind="crash", shard=1, round_index=1
        ),
        "hang": FaultSpec(
            point="round",
            kind="hang",
            shard=0,
            round_index=1,
            hang_seconds=30.0,
        ),
        "corrupt_wire": FaultSpec(point="round", kind="corrupt", shard=0),
    }
    return FaultPlan(specs=(specs[scenario],))


EXPECTED_ERROR = {
    "crash_arm": ShardWorkerError,
    "crash_round": ShardWorkerError,
    "hang": ShardWorkerTimeout,
    "corrupt_wire": WireCorruptionError,
}


class TestFaultMatrix:
    """Every fault kind surfaces as its typed error on the process backend.

    CI runs each cell as its own job:
    ``pytest tests/test_faults.py -k "<scenario> and process"``.
    """

    @pytest.mark.parametrize("backend", ["process"])
    @pytest.mark.parametrize(
        "scenario", ["crash_arm", "crash_round", "hang", "corrupt_wire"]
    )
    def test_fault_surfaces_as_typed_error(self, scenario, backend):
        graph = _connected_gnp(24, 0.15, seed=3)
        plan = _matrix_plan(scenario)
        config = CongestConfig().with_sharding(shards=3, backend=backend)
        round_timeout = 1.5 if scenario == "hang" else None
        config = dataclasses.replace(
            config, fault_plan=plan, round_timeout=round_timeout
        ).with_log_budget(30)
        started = time.time()
        with pytest.raises(EXPECTED_ERROR[scenario]):
            run_protocol(
                Network(graph, seed=2),
                MinIdBFSTreeProtocol(),
                config=config,
                per_node_inputs=_bfs_inputs(graph),
            )
        assert time.time() - started < 30.0
        _assert_no_worker_processes()
