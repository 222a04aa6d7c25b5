"""The process backend's failure contract, injected from the test side.

The CONGEST model has reliable nodes, so a worker process that dies,
hangs or garbles its traffic is a fault of the host, and the session
fails fast on it:

1. **Every failure is a typed error** — a worker that exits raises
   :class:`ShardWorkerError`, a worker that hangs under ``round_timeout``
   raises :class:`ShardWorkerTimeout` within the deadline and names its
   shard, a corrupt wire batch raises :class:`WireCorruptionError`.
2. **No worker outlives the failure** — the pool is torn down before the
   error reaches the caller, and the session's shared-memory segment is
   unlinked when it closes.
3. **The session stays usable** — its next ``execute`` spawns a fresh
   pool and answers bit for bit as the vectorized engine does.

No production code helps: workers are forked, so a protocol defined here
that exits or sleeps at a victim node — only when ``os.getpid()`` is not
the test process's — or a method patched before the pool spawns runs
inside the workers as it is.  Every test id carries "process", the word
CI's differential job selects the worker-process arm by.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import random
import signal
import time

import networkx as nx
import pytest

from repro.congest.config import CongestConfig
from repro.congest.engine import get_engine
from repro.congest.errors import (
    ShardWorkerError,
    ShardWorkerTimeout,
    WireCorruptionError,
)
from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.node import Protocol
from repro.congest.scheduler import run_protocol
from repro.congest.sharding import SharedCSR, WireEncoder
from repro.congest.sharding.engine import _ShardStepper
from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.primitives.bfs_tree import KEY_PARTICIPANT, MinIdBFSTreeProtocol
from repro.service import NearCliqueService

from conftest import run_fingerprint
from test_service import PARAMS, _block_graph, _drive, _fresh
from test_sharding import _assert_no_worker_processes, _OutputIsPid

#: The test process: a failure fires only in a process that is not it.
_PARENT_PID = os.getpid()

N = 48
SHARDS = 3
#: A node of shard 1 (the shards are contiguous blocks of 16 nodes).
VICTIM = 20
VICTIM_SHARD = 1
#: The watchdog deadline of the hang tests; a hang sleeps far past it.
ROUND_TIMEOUT = 1.0
HANG_SECONDS = 30.0

#: The forced sample of every pipeline run here: two nodes in each of the
#: three shards, so a run's cost does not hang on coin flips.
SAMPLE = (3, 10, 17, 24, 31, 38)

#: Phases of the near-clique pipeline that a pipeline failure is put in.
PIPELINE_PHASES = (
    "nc-sampling",
    "nc-comp-dissemination",
    "min-id-bfs-tree",
    "nc-vote",
)


class _UnpicklableError(RuntimeError):
    """An exception a worker cannot ship back: it holds a lambda."""

    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


def _fail(action: str) -> None:
    if action == "exit":
        os._exit(3)  # no finally, no flush: a segfault's signature
    if action == "hang":
        time.sleep(HANG_SECONDS)
    if action == "raise":
        raise RuntimeError("victim node failed")
    if action == "unpicklable":
        raise _UnpicklableError("victim node failed")


class _FailAt(Protocol):
    """One ping round; fails at the victim node's *point*, in workers only.

    *point* is ``"start"`` (``on_start``), ``"round"`` (``on_round``) or
    ``"finish"`` (``collect_output``, which runs when the worker reports
    its outputs); any other value never fails.
    """

    name = "fail-at"

    def __init__(self, point: str = "never", action: str = "exit") -> None:
        self.point = point
        self.action = action

    def _maybe_fail(self, ctx, point: str) -> None:
        if (
            point == self.point
            and ctx.node_id == VICTIM
            and os.getpid() != _PARENT_PID
        ):
            _fail(self.action)

    def on_start(self, ctx):
        self._maybe_fail(ctx, "start")
        ctx.send_all(Message(kind="ping", payload=(ctx.node_id,)))

    def on_round(self, ctx, inbox):
        self._maybe_fail(ctx, "round")
        ctx.write_output(len(inbox))
        ctx.halt()

    def collect_output(self, ctx):
        self._maybe_fail(ctx, "finish")
        return ctx.output


class _FailWhileArming(_FailAt):
    """Fails as a worker unpickles it from the ``arm`` command."""

    def __setstate__(self, state):
        self.__dict__.update(state)
        if os.getpid() != _PARENT_PID:
            _fail(self.action)


# ----------------------------------------------------------------------
# workloads and oracles
# ----------------------------------------------------------------------
#: One component, so every pipeline phase runs once.
GRAPH = nx.connected_watts_strogatz_graph(N, 4, 0.3, seed=3)


def _process_config(round_timeout=None) -> CongestConfig:
    return CongestConfig(
        engine="sharded", shards=SHARDS, round_timeout=round_timeout
    ).with_log_budget(N)


def _bfs_inputs(graph):
    return {v: {KEY_PARTICIPANT: True} for v in graph.nodes()}


@functools.lru_cache(maxsize=None)
def _vectorized_bfs_fingerprint():
    result = run_protocol(
        Network(GRAPH, seed=2),
        MinIdBFSTreeProtocol(),
        config=CongestConfig(engine="vectorized").with_log_budget(N),
        per_node_inputs=_bfs_inputs(GRAPH),
    )
    return run_fingerprint(result)


def _pipeline_fingerprint(config):
    runner = DistNearCliqueRunner(
        parameters=PARAMS, rng=random.Random(5), config=config
    )
    result = runner.run(GRAPH, sample=SAMPLE)
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


@functools.lru_cache(maxsize=None)
def _reference_pipeline_fingerprint():
    return _pipeline_fingerprint(CongestConfig(engine="reference").with_log_budget(N))


def _assert_session_respawns(session):
    """The session's next execute spawns a pool and answers correctly."""
    result = session.execute(
        MinIdBFSTreeProtocol(), per_node_inputs=_bfs_inputs(GRAPH)
    )
    assert run_fingerprint(result) == _vectorized_bfs_fingerprint()


@pytest.fixture
def segments(monkeypatch):
    """Names of the shared-memory segments created during the test."""
    created = []
    create = SharedCSR.create.__func__

    def recording_create(cls, network, plan):
        mapping = create(cls, network, plan)
        created.append(mapping.name)
        return mapping

    monkeypatch.setattr(SharedCSR, "create", classmethod(recording_create))
    return created


def _assert_unlinked(names):
    assert names, "the run mapped no shared-memory segment"
    for name in names:
        with pytest.raises(FileNotFoundError):
            SharedCSR.attach(name)


# ----------------------------------------------------------------------
# a worker that fails inside a phase
# ----------------------------------------------------------------------
CRASHES = {
    # id: (group, expected error, message fragment)
    "exit-while-arming": ([_FailWhileArming()], ShardWorkerError, "died"),
    "exception-while-arming": (
        [_FailWhileArming(action="raise")],
        RuntimeError,
        "victim node",
    ),
    "exit-at-start": ([_FailAt("start")], ShardWorkerError, "died"),
    "exit-mid-round": ([_FailAt("round")], ShardWorkerError, "died"),
    "exit-at-finish": ([_FailAt("finish")], ShardWorkerError, "died"),
    "exit-mid-fused-group": (
        [_FailAt(), _FailAt("round")],
        ShardWorkerError,
        "died",
    ),
    "unpicklable-exception": (
        [_FailAt("round", "unpicklable")],
        ShardWorkerError,
        "unpicklable _UnpicklableError",
    ),
    "exception": ([_FailAt("round", "raise")], RuntimeError, "victim node"),
}


class TestProcessWorkerFailure:
    @pytest.mark.parametrize(
        "case", sorted(CRASHES), ids=lambda case: case + "-process"
    )
    def test_failure_raises_then_session_respawns(self, case, segments):
        group, error, fragment = CRASHES[case]
        session = get_engine("sharded").open_session(
            Network(GRAPH, seed=2), _process_config()
        )
        started = time.time()
        with session:
            with pytest.raises(error, match=fragment):
                session.execute_fused(group, reuse_contexts=False)
            assert time.time() - started < 10.0
            _assert_no_worker_processes()
            _assert_session_respawns(session)
        _assert_no_worker_processes()
        _assert_unlinked(segments)

    @pytest.mark.parametrize("point", ["round", "finish"], ids=lambda p: p + "-process")
    def test_hang_raises_timeout_within_deadline(self, point):
        session = get_engine("sharded").open_session(
            Network(GRAPH, seed=2), _process_config(round_timeout=ROUND_TIMEOUT)
        )
        with session:
            started = time.time()
            with pytest.raises(ShardWorkerTimeout) as excinfo:
                session.execute(_FailAt(point, "hang"))
            assert time.time() - started < ROUND_TIMEOUT + 2.0
            # The sleeping worker was alive when the watchdog gave up:
            # that is what tells a hang from a crash.
            assert excinfo.value.shard_indices == (VICTIM_SHARD,)
            assert excinfo.value.alive_shards == (VICTIM_SHARD,)
            _assert_no_worker_processes()
            _assert_session_respawns(session)
        _assert_no_worker_processes()

    def test_corrupt_batch_raises_wire_corruption_then_respawns_process(
        self, monkeypatch
    ):
        # Every worker garbles the payload blob of each batch it sends, so
        # the first worker to decode one raises.
        encode = WireEncoder.encode

        def garbling_encode(self, indices, inbounds):
            batch = encode(self, indices, inbounds)
            if os.getpid() == _PARENT_PID:
                return batch
            # Tag byte 255 is outside the payload vocabulary.
            return batch._replace(payloads=b"\xff" * max(1, len(batch.payloads)))

        monkeypatch.setattr(WireEncoder, "encode", garbling_encode)
        session = get_engine("sharded").open_session(
            Network(GRAPH, seed=2), _process_config()
        )
        with session:
            with pytest.raises(WireCorruptionError):
                session.execute(_FailAt())
            _assert_no_worker_processes()
            monkeypatch.undo()
            _assert_session_respawns(session)
        _assert_no_worker_processes()


# ----------------------------------------------------------------------
# a worker killed between two phases
# ----------------------------------------------------------------------
class TestProcessWorkerKilledBetweenPhases:
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(
                lambda session: session.execute(
                    MinIdBFSTreeProtocol(),
                    per_node_inputs=_bfs_inputs(GRAPH),
                    reuse_contexts=True,
                ),
                id="execute-process",
            ),
            pytest.param(
                lambda session: session.execute_fused([_FailAt(), _FailAt()]),
                id="execute_fused-process",
            ),
        ],
    )
    def test_sigkill_reports_death_then_session_respawns(self, call):
        session = get_engine("sharded").open_session(
            Network(GRAPH, seed=2), _process_config()
        )
        with session:
            pids = session.execute(_OutputIsPid()).outputs
            victim_pid = pids[VICTIM]
            assert victim_pid != _PARENT_PID
            (victim,) = [
                process
                for process in multiprocessing.active_children()
                if process.pid == victim_pid
            ]
            os.kill(victim_pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            assert victim.exitcode == -signal.SIGKILL
            # The re-arm meets the dead worker: it is reported as dead,
            # not as a protocol that failed to pickle.
            with pytest.raises(ShardWorkerError, match="died") as excinfo:
                call(session)
            assert "picklable" not in str(excinfo.value)
            _assert_no_worker_processes()
            _assert_session_respawns(session)
        _assert_no_worker_processes()

    def test_unpicklable_protocol_on_rearm_keeps_the_hint_process(self):
        class LocalProtocol(_FailAt):  # locally defined: cannot pickle
            pass

        session = get_engine("sharded").open_session(
            Network(GRAPH, seed=2), _process_config()
        )
        with session:
            session.execute(_FailAt())
            with pytest.raises(ShardWorkerError, match="must be picklable"):
                session.execute(LocalProtocol(), reuse_contexts=True)
            _assert_no_worker_processes()
            _assert_session_respawns(session)
        _assert_no_worker_processes()


# ----------------------------------------------------------------------
# the pipeline and the daemon
# ----------------------------------------------------------------------
def _fail_at_start_shard(monkeypatch, action, when):
    """Make a worker of shard 1 fail as it starts a phase ``when`` accepts."""
    start_shard = _ShardStepper.start_shard

    def failing_start_shard(self, shard):
        if (
            shard.index == VICTIM_SHARD
            and os.getpid() != _PARENT_PID
            and when(self.protocol.name)
        ):
            _fail(action)
        return start_shard(self, shard)

    monkeypatch.setattr(_ShardStepper, "start_shard", failing_start_shard)


class TestProcessPipelineFailure:
    @pytest.mark.parametrize(
        "phase", PIPELINE_PHASES, ids=lambda phase: phase + "-process"
    )
    def test_crash_mid_pipeline_fails_fast(self, phase, monkeypatch, segments):
        _fail_at_start_shard(monkeypatch, "exit", lambda name: name == phase)
        started = time.time()
        with pytest.raises(ShardWorkerError, match="died"):
            _pipeline_fingerprint(_process_config())
        assert time.time() - started < 20.0
        _assert_no_worker_processes()
        _assert_unlinked(segments)
        # A run on healthy workers answers as the reference engine does.
        monkeypatch.undo()
        assert _pipeline_fingerprint(_process_config()) == (
            _reference_pipeline_fingerprint()
        )
        _assert_no_worker_processes()

    @pytest.mark.parametrize(
        "action,round_timeout",
        [("exit", None), ("hang", ROUND_TIMEOUT)],
        ids=["crash-process", "hang-process"],
    )
    def test_daemon_answers_congest_error_then_serves_next_query(
        self, action, round_timeout, monkeypatch, tmp_path
    ):
        # The first worker to start a phase of shard 1 removes the marker
        # and fails; workers spawned later find no marker and run clean.
        marker = tmp_path / "fail-once"
        marker.touch()

        def first_time(_name):
            try:
                os.remove(marker)
            except FileNotFoundError:
                return False
            return True

        _fail_at_start_shard(monkeypatch, action, first_time)
        graph = _block_graph([10, 10])
        config = CongestConfig(
            engine="sharded", shards=SHARDS, round_timeout=round_timeout
        ).with_log_budget(graph.number_of_nodes())
        service = NearCliqueService(graph.copy(), PARAMS, config=config)
        served, responses = _drive(
            service,
            [
                {"cmd": "query", "seed": 3},
                {"cmd": "query", "seed": 3},
                {"cmd": "shutdown"},
            ],
        )
        assert served == 3
        assert responses[0]["ok"] is False
        assert responses[0]["error"]["code"] == "congest-error"
        assert responses[1]["ok"] is True
        assert responses[1]["query"]["kind"] == "full"
        fresh = _fresh(graph, 3)
        assert responses[1]["sample"] == sorted(fresh.sample)
        assert dict(responses[1]["labels"]) == fresh.labels
        assert not marker.exists()
        _assert_no_worker_processes()


# ----------------------------------------------------------------------
# the watchdog on clean runs
# ----------------------------------------------------------------------
def test_watchdog_is_inert_on_clean_runs_process():
    # A clean run with a deadline set answers as the blocking barrier does.
    results = {}
    for timeout in (None, 30.0):
        result = run_protocol(
            Network(GRAPH, seed=2),
            MinIdBFSTreeProtocol(),
            config=_process_config(round_timeout=timeout),
            per_node_inputs=_bfs_inputs(GRAPH),
        )
        results[timeout] = run_fingerprint(result)
    assert results[None] == results[30.0] == _vectorized_bfs_fingerprint()
    _assert_no_worker_processes()
