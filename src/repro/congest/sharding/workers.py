"""Worker processes of the sharded engine.

One long-lived worker process per non-empty shard: the worker receives its
shard's contexts and routing tables once at startup, is *armed* with a
protocol and configuration, then steps its frontier every round, exchanging
only *boundary* traffic with the coordinator at the round barrier — packed
by :mod:`repro.congest.sharding.wire` into flat arrays instead of pickled
per-message objects.  The coordinator (:class:`ProcessShardedRun`) keeps
the round-loop structure of the single-process engines: per-shard
:class:`repro.congest.metrics.RoundMetrics` partials are folded in ascending
shard order at the barrier, and the termination rule and the round cap
are evaluated centrally on the aggregated view — so the process boundary
is invisible to the engine contract (same outputs, same round counts,
same metrics, same exception types).

Protocol of one phase group (all traffic over one duplex pipe per worker)::

    coordinator                         worker
    -----------                         ------
    init payload  ────────────────────▶ build harness (contexts + tables)
    ("arm", protocols, config, ...) ──▶ apply inputs, arm protocols[0]
    ("start",)    ────────────────────▶ on_start + drain owned nodes
                  ◀──────────────────── ("ok", metrics, pending, open, batches)
    ("round", r, batches) ────────────▶ deliver + step + drain
                  ◀──────────────────── ("ok", metrics, pending, open, batches)
    ...                                 ...
    ("finish", r, fold) ──────────────▶ collect started outputs (+ state)
                  ◀──────────────────── ("done", outputs, states, traffic)
                                        arm the next queued protocol, if any
    ("start",) ... for each further protocol of the group
    (worker stays; the next "arm" starts the next group, EOF exits)

``protocols`` is a tuple: a plain ``execute`` ships a group of one, a
fused group (``execute_fused``) ships the whole sequence once.  Only the
group-final ``finish`` carries ``fold=True`` and ships per-node state
back; before it the state stays worker-side for the next queued phase.

Every pool lives in a :class:`ProcessSession`, which keeps one
:class:`_WorkerPool` alive across the calls of a composite pipeline and
**re-arms** it between groups: the ``("arm", ...)`` command above carries
the protocols, the model-rule knobs and the context *deltas* (the
per-execute inputs; each worker's ``start_shard`` resets the nodes it
starts), so neither processes nor per-node state are re-shipped for
``reuse_contexts`` phases.  A direct
:meth:`~repro.congest.sharding.engine.ShardedEngine.execute` is a one-shot
session: opened, run once and closed.  The session's
routing tables live in one :mod:`multiprocessing.shared_memory` CSR mapping
(:mod:`repro.congest.sharding.shm`) attached once per worker.  A fresh
context build, or any ``build_contexts`` call outside the session
(detected via :attr:`repro.congest.network.Network.context_epoch`), falls
back to a pool respawn — under fork that re-ships the contexts by memory
inheritance, paid only when state actually diverged.  The epoch observes
``build_contexts`` calls, not writes: state fed to a session's phases must
travel through ``per_node_inputs`` / ``global_inputs`` or a
``build_contexts`` call (as every caller in this package does); poking a
live context's ``state`` dict directly between phases is invisible to any
engine-side check and unsupported in sessions.  A session is bound to the
topology it was opened on: after an effective
:meth:`repro.congest.network.Network.apply_delta` (the network's
``delta_epoch`` moves) its next ``execute`` raises ``ProtocolError``.

A model-rule violation inside a worker (``CongestionViolation``,
``MessageSizeViolation``, ``ProtocolError``...) is pickled back and
re-raised by the coordinator with its original type.  A worker that dies
without reporting — hard crash, ``os._exit``, unpicklable exception — is
detected at the next ``recv`` (the pipe returns EOF) and surfaces as
:class:`repro.congest.errors.ShardWorkerError` instead of leaving the
barrier waiting on a corpse.  A worker that is alive but stuck in
protocol code is indistinguishable from a legitimately slow round, so by
default it is *not* timed out (see the ``ShardWorkerError`` docstring);
``CongestConfig.round_timeout`` opts into a coordinator-side **barrier
watchdog** — every barrier then collects reports through
``multiprocessing.connection.wait`` against one per-round deadline, and
a worker missing it raises
:class:`repro.congest.errors.ShardWorkerTimeout` carrying a liveness
probe of the missing workers (hung vs silently dead).  Workers are
daemonic and the sessions context-managed: closing a pool closes the pipes
(unblocking any worker still waiting on a command) and joins, escalating
to ``terminate`` only for processes that ignore the EOF within
``_JOIN_TIMEOUT`` seconds — except after a watchdog timeout, where
still-alive workers are known-stuck and terminated straight away.  A
session never leaks its pool or its shared-memory segment past ``close``
— including violation and worker-crash paths, where the session tears
the pool down immediately rather than waiting for the context exit.

The session fails fast.  The CONGEST model has reliable nodes, so a dead
worker is a fault of the host, not an event of the simulated network:
every worker failure escapes the ``execute`` that met it, and the next
``execute`` of the session spawns a fresh pool.

State round trip
----------------
The engine contract includes composite pipelines that chain protocols over
the same contexts (``reuse_contexts=True``), so after the final round every
worker ships back the mutable face of each owned context — ``state``,
``output``, halted flag, globals and the private RNG state — and the
coordinator folds it into the parent's context objects in place.  The cost
of that round trip is one pickle per run, not per round; everything a
protocol may put in per-node state must therefore be picklable (true for
every protocol in this package).  Sessions rely on the fold-back too: it
keeps the parent contexts authoritative between phases, which is what lets
a light re-arm ship only deltas.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
import time
import weakref
from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.congest.config import CongestConfig
from repro.congest.engine import (
    CongestSession,
    RunResult,
    collect_outputs,
    coordinator_should_stop,
    get_engine,
    merge_startup_metrics,
)
from repro.congest.errors import (
    ProtocolError,
    ShardWorkerError,
    ShardWorkerTimeout,
)
from repro.congest.metrics import RoundMetrics, RunMetrics
from repro.congest.network import ContextRegistry, Network
from repro.congest.node import NodeContext, Protocol
from repro.congest.sharding.engine import (
    ShardingStats,
    _ShardState,
    _ShardStepper,
)
from repro.congest.sharding.partition import ShardPlan, partition_network
from repro.congest.sharding.shm import SharedCSR
from repro.congest.sharding.wire import WireBatch, WireDecoder, WireEncoder

__all__ = ["ProcessSession", "ProcessShardedRun"]

#: Seconds a worker gets to exit after its pipe is closed before the pool
#: escalates to ``terminate``.  Generous: a healthy worker exits on EOF
#: immediately; only a worker stuck in protocol code ever waits this long.
_JOIN_TIMEOUT = 5.0

#: Parent-side pipe ends of every live worker of every pool in this
#: process.  Fork-started children inherit every fd open at fork time —
#: including the coordinator ends of *other* pools (a concurrent
#: session) — and any child holding such a write end would defeat that
#: pool's EOF-based teardown (its workers would sit out the join timeout
#: and be terminated).  Each fork therefore snapshots
#: this registry and the child closes the whole set first thing.  Entries
#: are weak references (no GC callbacks — dead entries are pruned under
#: the lock at the next snapshot): a session abandoned without ``close``
#: must stay collectable, and collecting its conns closes their fds,
#: which EOFs its workers — the pre-registry safety net, preserved.
_LIVE_PARENT_CONNS: "Dict[int, weakref.ref]" = {}
_LIVE_PARENT_CONNS_LOCK = threading.Lock()

def _reset_after_fork() -> None:  # pragma: no cover - runs in fork children
    # The spawn path forks while holding the lock; a *different* pool's
    # fork landing in that window would hand the child a held lock.  No
    # worker code touches the registry, but reset both anyway so nothing
    # in a child can ever block on or act through the parent's registry.
    global _LIVE_PARENT_CONNS_LOCK
    _LIVE_PARENT_CONNS_LOCK = threading.Lock()
    _LIVE_PARENT_CONNS.clear()


if hasattr(os, "register_at_fork"):  # POSIX; spawn children re-import anyway
    os.register_at_fork(after_in_child=_reset_after_fork)


def _snapshot_parent_conns() -> Tuple:
    """Live registered conns; prunes dead entries.  Caller holds the lock."""
    alive = []
    dead = []
    for key, ref in _LIVE_PARENT_CONNS.items():
        conn = ref()
        if conn is None:
            dead.append(key)
        else:
            alive.append(conn)
    for key in dead:
        del _LIVE_PARENT_CONNS[key]
    return tuple(alive)


def _close_and_unregister_parent_conn(conn) -> None:
    """Atomically retire a coordinator pipe end from the registry.

    Pop and close must happen under one lock hold: unregistering first
    and closing after releasing would open a window where a concurrent
    pool's fork snapshots the registry without this conn while its fd is
    still open — the forked worker would then hold an untracked write end
    and defeat this pool's EOF-based teardown.
    """
    with _LIVE_PARENT_CONNS_LOCK:
        _LIVE_PARENT_CONNS.pop(id(conn), None)
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


def _mp_context():
    """``fork`` when the platform offers it (cheap startup), else default.

    The fork start method also makes the per-worker init payload — the
    shard's contexts, the routing tables — free to ship: it travels as a
    ``Process`` argument, which fork passes by copy-on-write memory
    inheritance instead of pickling (measurably the dominant setup cost at
    n in the thousands: per-node RNG states alone pickle to ~2.5 KB each).
    Under spawn the same argument is pickled by ``Process.start``, which is
    simply the explicit-shipping behaviour.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _pack_rng_state(state) -> Tuple:
    """Compact a ``random.Random`` state for the wire.

    The default Mersenne state is ``(3, <625-tuple of uint32>, gauss)``;
    pickling 625 individual ints per node dominates the finish-time state
    round trip, so the tuple is flattened to one ``bytes`` object.  Any
    other shape (subclassed generators) passes through unpacked.
    """
    if state[0] == 3 and len(state[1]) == 625:
        return ("mt3", array("I", state[1]).tobytes(), state[2])
    return ("raw", state)


def _unpack_rng_state(packed: Tuple):
    if packed[0] == "mt3":
        internal = array("I")
        internal.frombytes(packed[1])
        return (3, tuple(internal), packed[2])
    return packed[1]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _WorkerHarness:
    """One shard's round machinery inside its worker process.

    The harness is built once per worker lifetime from the static init
    payload (contexts, plus the routing tables attached from the session's
    shared-memory CSR segment) and re-armed per ``execute`` with
    the protocol and configuration; the inbox buffers and the per-channel
    wire codecs survive re-arms, so a session phase allocates no per-node
    structures.
    """

    def __init__(self, init: Dict[str, Any]) -> None:
        n = init["n"]
        # The id/owner tables live in the session's shared CSR mapping;
        # attach once and unpack the hot tables locally.
        self.shared = SharedCSR.attach(init["shm_name"])
        self.index_of: Dict[int, int] = self.shared.build_index_of()
        self.owner: Sequence[int] = list(self.shared.owner)
        ctx_list: List[Optional[NodeContext]] = [None] * n
        for dense_index, ctx in init["contexts"].items():
            ctx_list[dense_index] = ctx
        self.ctx_list = ctx_list
        self.shard_index: int = init["shard_index"]
        self.owned: Tuple[int, ...] = tuple(init["owned"])
        self.n_shards: int = init["n_shards"]
        self.inbox_buffers: List[List] = [[] for _ in ctx_list]
        # One wire channel per (this shard → destination) and per
        # (source → this shard); kind-interning tables stay synchronized
        # because batches travel and decode in round order — across every
        # execute of a session, since encoder and decoder persist together.
        self.encoders: Dict[int, WireEncoder] = {}
        self.decoders: Dict[int, WireDecoder] = {}
        self.stepper: Optional[_ShardStepper] = None
        self.shard: Optional[_ShardState] = None
        #: Protocols of the armed group still to run, and their config:
        #: :meth:`arm_next` promotes them one at a time — at ``arm``, then
        #: right after each ``finish`` report, so a fused group's next
        #: phase arms while the coordinator folds the previous one.
        self._queue: List[Protocol] = []
        self._config: Optional[CongestConfig] = None

    # ------------------------------------------------------------------
    def arm(
        self,
        protocols: Sequence[Protocol],
        config: CongestConfig,
        global_inputs: Optional[Dict[str, Any]],
        per_node_state: Optional[Dict[int, Dict[str, Any]]],
    ) -> None:
        """Prepare one phase group: context deltas, then its first protocol.

        The inputs replay exactly what the parent's ``build_contexts``
        applied; a worker whose contexts were inherited after that call
        applies them a second time, which changes nothing.  Halt flags and
        outboxes are reset by ``start_shard``, for the nodes it starts.
        """
        ctx_list = self.ctx_list
        if global_inputs:
            for i in self.owned:
                ctx_list[i].globals.update(global_inputs)
        if per_node_state:
            index_of = self.index_of
            for node_id, inputs in per_node_state.items():
                ctx_list[index_of[node_id]].state.update(inputs)
        self._queue = list(protocols)
        self._config = config
        self.arm_next()

    def arm_next(self) -> bool:
        """Arm the next queued protocol of the group, if any.

        No input deltas exist mid-group, so this is exactly what the
        parent's ``build_contexts(fresh=False)`` would have done between
        unfused phases: nothing to replay.
        """
        if not self._queue:
            return False
        protocol = self._queue.pop(0)
        config = self._config
        self.stepper = _ShardStepper(
            protocol=protocol,
            config=config,
            ctx_list=self.ctx_list,
            index_of=self.index_of,
            owner=self.owner,
            inbox_buffers=self.inbox_buffers,
        )
        self.shard = _ShardState(self.shard_index, self.owned, self.n_shards)
        return True

    # ------------------------------------------------------------------
    def _report(self, rm: RoundMetrics) -> Tuple:
        """Pack one round's results for the coordinator."""
        shard = self.shard
        batches: List[Tuple[int, WireBatch]] = []
        out_buckets = shard.out_buckets
        for destination, (indices, inbounds) in enumerate(out_buckets):
            if not indices:
                continue
            encoder = self.encoders.get(destination)
            if encoder is None:
                encoder = self.encoders[destination] = WireEncoder()
            batches.append((destination, encoder.encode(indices, inbounds)))
            out_buckets[destination] = ([], [])
        packed_metrics = (
            rm.messages_sent,
            rm.bits_sent,
            rm.max_message_bits,
            rm.active_nodes,
        )
        return (
            "ok",
            packed_metrics,
            len(shard.pending_index),
            len(shard.frontier),
            batches,
        )

    def start(self) -> Tuple:
        return self._report(self.stepper.start_shard(self.shard))

    def step(
        self, rounds: int, incoming: Sequence[Tuple[int, WireBatch]]
    ) -> Tuple:
        shard = self.shard
        for source, batch in incoming:
            decoder = self.decoders.get(source)
            if decoder is None:
                decoder = self.decoders[source] = WireDecoder()
            shard.remote_from[source] = decoder.decode(batch)
        return self._report(self.stepper.step_shard(shard, rounds))

    def finish(self, rounds: int, fold: bool) -> Tuple:
        """Report the phase's outputs and traffic, plus state when *fold*.

        Without *fold* (every phase of a fused group but the last) the
        per-node state stays here: the next queued phase arms on it, and
        only the group-final ``finish`` ships it back to the parent.
        """
        stepper = self.stepper
        ctx_list = stepper.ctx_list
        # The parent aligns the round counters when it folds the states.
        outputs = collect_outputs(
            stepper.protocol, map(ctx_list.__getitem__, self.shard.started), {}
        )
        states: Dict[int, Tuple] = {}
        if fold:
            for i in self.shard.owned:
                ctx = ctx_list[i]
                # Only RNGs this worker actually built ship a state: an
                # unbuilt one is still at its seed, which the parent
                # context holds too.
                states[ctx.node_id] = (
                    ctx.state,
                    ctx.output,
                    ctx._halted,
                    ctx.globals,
                    _pack_rng_state(ctx._rng.getstate())
                    if ctx._rng is not None
                    else None,
                )
        traffic = (self.shard.local_messages, self.shard.remote_messages)
        return ("done", outputs, states, traffic)


def _send_error(conn, exc: BaseException) -> None:
    """Ship an exception to the coordinator, falling back to text if needed."""
    try:
        conn.send(("error", exc))
    except Exception:
        try:
            conn.send(("error_text", type(exc).__name__, str(exc)))
        except Exception:  # pragma: no cover - pipe already gone
            pass


def _worker_main(conn, init: Dict[str, Any], inherited_peers=()) -> None:
    """Entry point of one worker process (module-level: spawn-safe).

    *init* — the shard's contexts and routing tables — arrives as a process
    argument: free under fork (memory inheritance), pickled by ``start``
    under spawn.  The protocol object arrives over the pipe with each
    ``arm``, so "process-backend protocols must be picklable" holds on
    every platform.  The worker survives ``finish`` — a session re-arms it
    for the next phase — and exits on EOF (pool teardown) or "abort".

    *inherited_peers* are weak references to the parent-side pipe ends
    this fork-started child inherited by fd duplication — its own pipe's
    coordinator end and those of every other live pool at fork time.  They
    are closed first thing: otherwise the coordinator closing *its* copy
    would never EOF the worker's ``recv`` (the worker itself would be
    keeping the write end alive), turning every pool teardown into a
    join-timeout-and-terminate and leaving crash-orphaned workers blocked
    forever.  Weak because the tuple also lives in the *parent's*
    ``Process`` object until the pool is reaped — strong references there
    would pin an abandoned session's conns and defeat the GC safety net
    the registry's weak entries exist for.  In the child every target is
    alive by construction: it was strongly held on the forking thread's
    stack at fork time, and that stack is part of the child's snapshot.
    """
    for peer_ref in inherited_peers:
        peer = peer_ref()
        if peer is not None:  # pragma: no branch - see docstring
            peer.close()
    try:
        try:
            harness = _WorkerHarness(init)
        except BaseException as exc:
            # A failed harness build (shm attach race, corrupt init) must
            # reach the coordinator as the real exception, not as a bare
            # "died without reporting" EOF.
            _send_error(conn, exc)
            return
        while True:
            try:
                command = conn.recv()
            except (EOFError, OSError):
                break  # coordinator went away; nothing left to do
            except BaseException as exc:
                # A command that fails to *unpickle* (a protocol whose
                # import/__setstate__ raises in this process, spawn-mode
                # module mismatches) must reach the coordinator as the
                # real exception, not as a bare broken pipe.
                _send_error(conn, exc)
                break
            op = command[0]
            response = None
            try:
                if op == "arm":
                    # No response: the coordinator pipelines "start".
                    harness.arm(command[1], command[2], command[3], command[4])
                elif op == "start":
                    response = harness.start()
                elif op == "round":
                    response = harness.step(command[1], command[2])
                elif op == "finish":
                    response = harness.finish(command[1], command[2])
                else:  # "abort" or anything unrecognized: exit quietly
                    break
            except BaseException as exc:
                _send_error(conn, exc)
                break
            if response is not None:
                try:
                    conn.send(response)
                except (BrokenPipeError, OSError):
                    break  # coordinator aborted mid-report
            # Self-arm the group's next phase right after its predecessor
            # reported, overlapping the coordinator's fold.
            if op == "finish":
                harness.arm_next()
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class _WorkerHandle:
    __slots__ = ("shard_index", "process", "conn")

    def __init__(self, shard_index: int, process, conn) -> None:
        self.shard_index = shard_index
        self.process = process
        self.conn = conn


def _reap(handles: List[_WorkerHandle], force: bool = False) -> None:
    """Tear down workers: close pipes, join, escalate to terminate.

    Closing the pipe first unblocks any worker waiting in ``recv`` (it
    exits on the EOF); a worker that ignores the EOF past
    :data:`_JOIN_TIMEOUT` is terminated.  *force* skips the grace period
    for workers already known to be stuck — the barrier watchdog's
    teardown path, where waiting the join timeout on a worker that just
    missed a round deadline would only stack delays.  ``Process.close``
    releases the fds eagerly rather than at garbage collection, which
    keeps ``active_children()`` truthful — the leak regressions in
    ``tests/test_sharding.py`` rely on it.
    """
    for handle in handles:
        _close_and_unregister_parent_conn(handle.conn)
    for handle in handles:
        if force and handle.process.is_alive():
            handle.process.terminate()
        handle.process.join(timeout=_JOIN_TIMEOUT)
        if handle.process.is_alive():  # pragma: no cover - stuck worker
            handle.process.terminate()
            handle.process.join()
        handle.process.close()


def _spawn_workers(
    plan: ShardPlan,
    ids: Sequence[int],
    contexts: ContextRegistry,
    shared_csr: SharedCSR,
) -> List[_WorkerHandle]:
    """Start one worker process per non-empty shard of *plan*.

    The shard's contexts ride as a ``Process`` argument (inherited for free
    under fork, pickled by ``start`` under spawn); the routing tables come
    from the session's shared-memory mapping, which workers attach by name
    — one mapping serving every spawn and every phase of the session.
    """
    context = _mp_context()
    fork_start = context.get_start_method() == "fork"
    ctx_list = contexts.materialize()
    handles: List[_WorkerHandle] = []
    init_common: Dict[str, Any] = {
        "n": len(ids),
        "n_shards": plan.n_shards,
        "shm_name": shared_csr.name,
    }
    for shard_index, owned in enumerate(plan.shards):
        if not owned:
            continue
        init = dict(init_common)
        init.update(
            shard_index=shard_index,
            owned=owned,
            contexts={i: ctx_list[i] for i in owned},
        )
        # Under fork the child inherits every parent-side pipe end open at
        # fork time — its own, those of earlier siblings, and those of any
        # *other* live pool in this process (module registry); hand the
        # full set over so the child can close them, or EOF-based teardown
        # cannot work (see _worker_main).  Pipe creation, the registry
        # snapshot, the fork itself and the registration all happen under
        # the registry lock, so no fork anywhere in the process can
        # observe a live-but-unregistered coordinator end.  Under spawn no
        # fds are inherited.
        start_error: Optional[Exception] = None
        with _LIVE_PARENT_CONNS_LOCK:
            parent_conn, child_conn = context.Pipe(duplex=True)
            # ``live`` keeps the snapshot strongly referenced on this
            # stack across the fork; the child receives only weak refs
            # (see _worker_main) so the parent-side Process args cannot
            # pin another pool's conns.
            live = _snapshot_parent_conns() + (parent_conn,)
            inherited_peers = (
                tuple(weakref.ref(conn) for conn in live)
                if fork_start
                else ()
            )
            process = context.Process(
                target=_worker_main,
                args=(child_conn, init, inherited_peers),
                name="repro-shard-%d" % shard_index,
                daemon=True,
            )
            try:
                process.start()
            except Exception as exc:  # spawn-mode pickling failures
                start_error = exc
            else:
                _LIVE_PARENT_CONNS[id(parent_conn)] = weakref.ref(parent_conn)
        if start_error is not None:
            parent_conn.close()
            child_conn.close()
            _reap(handles)
            raise ShardWorkerError(
                "failed to ship shard %d to its worker process: %s "
                "(process-backend per-node state must be picklable)"
                % (shard_index, start_error)
            ) from start_error
        child_conn.close()
        handles.append(_WorkerHandle(shard_index, process, parent_conn))
    return handles


def _raise_buffered_error(conn, shard_index: int) -> None:
    """Re-raise an error report a dead worker left in the pipe, if any.

    A worker that fails *between* barriers — harness build, arm — ships
    the exception and exits; the coordinator only notices at its next
    ``send`` (broken pipe).  The real error is still buffered on the pipe,
    and raising it beats a generic "worker died" that hides the cause.
    Returns silently when nothing useful is buffered.
    """
    try:
        if not conn.poll(0.05):
            return
        message = conn.recv()
    except (EOFError, OSError):
        return
    if not message:
        return
    if message[0] == "error":
        raise message[1]
    if message[0] == "error_text":
        raise ShardWorkerError(
            "worker process for shard %d failed with unpicklable %s: %s"
            % (shard_index, message[1], message[2])
        )


class _WorkerPool:
    """Owns the worker processes of one session.

    The session holds the pool across executes and calls :meth:`rearm`
    between phases; the session's own close paths — context exit,
    violations, worker deaths — call :meth:`close`, so no worker outlives
    the session (the engine registry shares one ``ShardedEngine``
    singleton across all callers, so pool lifetime must never attach to
    the engine).
    """

    def __init__(self, handles: List[_WorkerHandle]) -> None:
        self.handles = handles
        self.closed = False

    # ------------------------------------------------------------------
    def rearm(
        self,
        protocols: Sequence[Protocol],
        config: CongestConfig,
        global_inputs: Optional[Dict[str, Any]] = None,
        per_shard_state: Optional[Dict[int, Dict[int, Dict[str, Any]]]] = None,
    ) -> None:
        """Arm every worker for the next phase group in one ship.

        The first arm after a spawn passes no inputs (the inherited
        contexts are current); a session's light re-arm passes the
        per-execute input deltas, routed per shard.  Workers self-arm each
        follow-on phase after reporting the previous one, so a group costs
        one pool re-arm however many phases it fuses.  A failed ship — an
        unpicklable protocol, a dead worker — surfaces as
        :class:`ShardWorkerError`; callers tear the pool down on it.
        """
        protocols = tuple(protocols)
        for handle in self.handles:
            inputs = (
                per_shard_state.get(handle.shard_index)
                if per_shard_state
                else None
            )
            try:
                handle.conn.send(
                    ("arm", protocols, config, global_inputs, inputs)
                )
            except OSError as exc:  # BrokenPipeError included
                _raise_buffered_error(handle.conn, handle.shard_index)
                raise ShardWorkerError(
                    "worker process for shard %d (pid %s) died before 'arm'"
                    % (handle.shard_index, handle.process.pid)
                ) from exc
            except Exception as exc:
                raise ShardWorkerError(
                    "failed to ship the protocol to the shard %d worker: %s "
                    "(process-backend protocols and per-node state must be "
                    "picklable)" % (handle.shard_index, exc)
                ) from exc

    # ------------------------------------------------------------------
    def close(self, force: bool = False) -> None:
        """Reap every worker (idempotent).

        *force* skips the EOF grace period and terminates still-alive
        workers straight away — used after a barrier-watchdog timeout,
        when an alive worker is known-stuck, not merely slow to exit.
        """
        if self.closed:
            return
        self.closed = True
        _reap(self.handles, force=force)


class ProcessShardedRun:
    """One process-backed sharded execution.

    The single-process engines' coordinator loop — startup barrier, the
    same termination and round-cap decisions — with a per-round fold in
    ascending shard order; the shards live in worker processes and
    boundary buckets cross the barrier as packed
    :class:`repro.congest.sharding.wire.WireBatch` columns.

    The :class:`ProcessSession` passes its (already armed) *pool*; the run
    only drives the round loop and leaves pool lifetime to the session.

    Attributes
    ----------
    boundary_bytes / barrier_rounds:
        Packed boundary traffic shipped over the run and the number of
        barriers (startup plus one per round); feeds
        :class:`repro.congest.sharding.engine.ShardingStats` and the E15
        benchmark's bytes-per-round reports.
    """

    def __init__(
        self,
        protocol: Protocol,
        config: CongestConfig,
        contexts: ContextRegistry,
        pool: _WorkerPool,
        fold_contexts: bool = True,
    ) -> None:
        self.protocol = protocol
        self.config = config
        self.contexts = contexts
        self.pool = pool
        #: ``False`` for every phase of a fused group except the last: the
        #: ``finish`` harvest ships outputs and traffic only; the per-node
        #: state stays worker-side for the self-armed next phase and is
        #: folded back by the group-final phase's ``finish``.
        self.fold_contexts = fold_contexts
        self.boundary_bytes = 0
        self.barrier_rounds = 0
        self._traffic: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    def traffic_totals(self) -> Tuple[int, int]:
        """(protocol messages, cross-shard messages) over the whole run."""
        local = sum(pair[0] for pair in self._traffic)
        remote = sum(pair[1] for pair in self._traffic)
        return local + remote, remote

    # ------------------------------------------------------------------
    def _send(self, handle: _WorkerHandle, command: Tuple) -> None:
        """Send a command, surfacing a dead worker as the documented error.

        A worker can die *between* barriers (OOM kill, segfault) with its
        last report already buffered — the next send then hits a broken
        pipe, which must surface as :class:`ShardWorkerError` like every
        other worker-death path, not as a raw ``OSError`` that escapes the
        ``CongestError`` hierarchy callers catch uniformly.
        """
        try:
            handle.conn.send(command)
        except (BrokenPipeError, OSError) as exc:
            _raise_buffered_error(handle.conn, handle.shard_index)
            raise ShardWorkerError(
                "worker process for shard %d (pid %s) died before %r"
                % (handle.shard_index, handle.process.pid, command[0])
            ) from exc

    def _recv(self, handle: _WorkerHandle) -> Tuple:
        try:
            message = handle.conn.recv()
        except (EOFError, OSError):
            raise ShardWorkerError(
                "worker process for shard %d (pid %s) died without reporting"
                % (handle.shard_index, handle.process.pid)
            ) from None
        except Exception as exc:
            # The report pickled on the worker side but failed to decode
            # here — e.g. a protocol's custom exception whose __init__
            # takes structured arguments but whose default reduction
            # replays the formatted message (the trap this package's own
            # violations dodge via __reduce__).  Surface the decode
            # failure instead of letting an unrelated TypeError mask it.
            raise ShardWorkerError(
                "report from the shard %d worker could not be decoded: %s: %s"
                % (handle.shard_index, type(exc).__name__, exc)
            ) from exc
        op = message[0]
        if op == "error":
            raise message[1]
        if op == "error_text":
            raise ShardWorkerError(
                "worker process for shard %d failed with unpicklable "
                "%s: %s" % (handle.shard_index, message[1], message[2])
            )
        return message

    @staticmethod
    def _raise_timeout(
        pending: Sequence[_WorkerHandle], timeout: float
    ) -> None:
        """Missed deadline: probe the stragglers' liveness and raise."""
        shard_indices = sorted(h.shard_index for h in pending)
        alive = sorted(
            h.shard_index for h in pending if h.process.is_alive()
        )
        raise ShardWorkerTimeout(shard_indices, timeout, alive_shards=alive)

    def _collect(self, handles: List[_WorkerHandle]) -> List[Tuple]:
        """One report per handle, in handle order — the barrier's recv side.

        Without ``CongestConfig.round_timeout`` this is the original
        blocking loop (zero overhead on the watchdog-free path).  With a
        timeout set, reports are gathered through
        ``multiprocessing.connection.wait`` against one deadline for the
        whole barrier; workers still missing at the deadline surface as
        :class:`ShardWorkerTimeout` with a liveness probe (hung vs dead).
        Either way, error reports and EOFs raise from :meth:`_recv` with
        their documented types.
        """
        timeout = self.config.round_timeout
        if timeout is None:
            return [self._recv(handle) for handle in handles]
        deadline = time.monotonic() + timeout
        pending = {handle.conn: handle for handle in handles}
        collected: Dict[int, Tuple] = {}
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._raise_timeout(list(pending.values()), timeout)
            ready = multiprocessing.connection.wait(
                list(pending), timeout=remaining
            )
            if not ready:
                self._raise_timeout(list(pending.values()), timeout)
            for conn in ready:
                handle = pending.pop(conn)
                collected[handle.shard_index] = self._recv(handle)
        return [collected[handle.shard_index] for handle in handles]

    def _barrier(
        self,
        handles: List[_WorkerHandle],
        into: RoundMetrics,
        routed: Dict[int, List[Tuple[int, WireBatch]]],
    ) -> Tuple[int, int]:
        """Collect one round's reports in ascending shard order.

        Folds the packed metrics partials into *into*, stages each outbound
        batch for its destination worker in *routed*, and returns
        ``(in_flight, open_nodes)`` — pending local deliveries plus routed
        boundary deliveries, and the surviving frontier size.
        """
        in_flight = 0
        open_nodes = 0
        barrier_bytes = 0
        for handle, message in zip(handles, self._collect(handles)):
            _op, packed, pending_local, shard_open, batches = message
            messages_sent, bits_sent, max_bits, active = packed
            into.messages_sent += messages_sent
            into.bits_sent += bits_sent
            into.active_nodes += active
            if max_bits > into.max_message_bits:
                into.max_message_bits = max_bits
            in_flight += pending_local
            open_nodes += shard_open
            for destination, batch in batches:
                routed.setdefault(destination, []).append(
                    (handle.shard_index, batch)
                )
                in_flight += batch.deliveries
                barrier_bytes += batch.wire_bytes()
        self.boundary_bytes += barrier_bytes
        self.barrier_rounds += 1
        return in_flight, open_nodes

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        # The termination rule and the round-1 startup-metrics merge
        # are the helpers the single-process engines share — evaluated here
        # on worker-reported aggregates — so the engine contract's round
        # counts cannot drift between the coordinators.
        config = self.config
        handles = self.pool.handles
        metrics = RunMetrics()
        rounds = 0
        for handle in handles:
            self._send(handle, ("start",))
        startup_metrics = RoundMetrics(round_index=0)
        routed: Dict[int, List[Tuple[int, WireBatch]]] = {}
        in_flight, open_nodes = self._barrier(
            handles, startup_metrics, routed
        )

        while not coordinator_should_stop(
            open_nodes == 0, in_flight, rounds, config.max_rounds
        ):
            rounds += 1
            round_metrics = RoundMetrics(round_index=rounds)
            if rounds == 1:
                merge_startup_metrics(round_metrics, startup_metrics)
            outgoing, routed = routed, {}
            for handle in handles:
                self._send(
                    handle,
                    ("round", rounds, outgoing.get(handle.shard_index, [])),
                )
            in_flight, open_nodes = self._barrier(
                handles, round_metrics, routed
            )
            metrics.absorb_round(round_metrics)

        # Harvest: outputs plus the mutable context state, folded back
        # into the parent's context objects so composite pipelines
        # (reuse_contexts=True) chain across engines transparently.  The
        # fold is transactional: every report is received (through the
        # watchdog-aware _collect) *before* any worker state touches the
        # parent's contexts, so a worker failing at finish leaves them
        # as they were at the phase start.
        # Workers report only the nodes they started; every other node
        # was out of scope and reports None.
        outputs: Dict[int, Any] = self.contexts.blank_outputs()
        for handle in handles:
            self._send(handle, ("finish", rounds, self.fold_contexts))
        reports = self._collect(handles)
        for report in reports:
            _op, started_outputs, states, traffic = report
            outputs.update(started_outputs)
            self._traffic.append(traffic)
            for node_id, packed_state in states.items():
                state, output, halted, globals_, rng_state = packed_state
                ctx = self.contexts[node_id]
                ctx.state.clear()
                ctx.state.update(state)
                ctx.output = output
                ctx._halted = halted
                ctx._round = rounds
                ctx._outgoing = {}
                ctx.globals.clear()
                ctx.globals.update(globals_)
                if rng_state is not None:
                    # Builds the parent's RNG if only the worker drew.
                    ctx.rng.setstate(_unpack_rng_state(rng_state))

        return RunResult(outputs=outputs, metrics=metrics, contexts=self.contexts)


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
class ProcessSession(CongestSession):
    """A sharded-engine session: one pool, one shm CSR mapping.

    Opened by :meth:`repro.congest.sharding.engine.ShardedEngine.open_session`
    (and, as a one-shot session, by a direct ``execute``).  The
    shard plan is fixed at open time; across the session's ``execute``
    calls:

    * the worker pool survives and is **re-armed** per phase — for a
      ``reuse_contexts`` execute only the protocol, the model-rule knobs
      and the per-execute input deltas cross the pipes;
    * the CSR/owner tables live in one shared-memory segment
      (:class:`repro.congest.sharding.shm.SharedCSR`) created at first
      spawn and unlinked at close — on every close path, with atexit and
      resource-tracker guards for abnormal exits;
    * a fresh context build, or a ``build_contexts`` call outside the
      session (detected via
      :attr:`repro.congest.network.Network.context_epoch`), respawns the
      pool so worker state never diverges from the parent's — direct
      writes to a live context's ``state`` dict are the one thing no
      engine-side check can see (module docstring), so session callers
      must feed state through inputs or ``build_contexts``;
    * any error escaping an ``execute`` — model violations, worker deaths —
      tears the pool down *immediately*; the next ``execute`` (if any)
      starts a fresh pool, and ``close`` is then a no-op for workers;
    * the session is bound to the topology it was opened on: once
      :attr:`repro.congest.network.Network.delta_epoch` moves (an
      effective :meth:`~repro.congest.network.Network.apply_delta`), every
      later ``execute`` raises ``ProtocolError``, because the plan, the
      mapping and the worker routing tables describe the old topology.
      Open a new session on the changed network.

    Per-phase partials and session totals (boundary bytes, barrier rounds,
    setup seconds, shm bytes) are exposed as :attr:`stats`, a
    :class:`repro.congest.sharding.engine.ShardingStats`.
    """

    def __init__(
        self,
        engine,
        network: Network,
        config: CongestConfig,
        shards: int,
    ) -> None:
        super().__init__(engine, network, config)
        ids = network.node_ids
        if ids and not (-(1 << 63) <= ids[0] and ids[-1] < 1 << 63):
            raise ProtocolError(
                "the process backend packs node ids into int64 shared memory; "
                "ids %d..%d exceed the int64 limit" % (ids[0], ids[-1])
            )
        self._ids = ids
        self.stats = ShardingStats()
        self._shards = shards
        self.plan = self.stats.plan = partition_network(network, shards)
        self._pool: Optional[_WorkerPool] = None
        self.shared_csr: Optional[SharedCSR] = None
        #: ``network.context_epoch`` as of the last execute whose fold-back
        #: synchronised parent and worker context state; ``None`` until the
        #: first execute completes.
        self._epoch: Optional[int] = None
        #: ``network.delta_epoch`` at open: the topology the plan describes.
        self._delta_epoch: int = network.delta_epoch

    # ------------------------------------------------------------------
    def _check_config(self, config: CongestConfig) -> None:
        """Reject per-execute overrides that conflict with the fixed plan."""
        if config.shards != self._shards:
            raise ValueError(
                "per-execute config resolves to %r shards, but this session "
                "was opened with %r; the shard count is fixed for a "
                "session's lifetime" % (config.shards, self._shards)
            )

    def _teardown_pool(self, force: bool = False) -> None:
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.close(force=force)

    # ------------------------------------------------------------------
    def execute(
        self,
        protocol: Protocol,
        *,
        config: Optional[CongestConfig] = None,
        global_inputs: Optional[Dict[str, Any]] = None,
        per_node_inputs: Optional[Dict[int, Dict[str, Any]]] = None,
        reuse_contexts: bool = False,
    ) -> RunResult:
        if self.closed:
            raise ProtocolError("execute on a closed CongestSession")
        (result,) = self._run_group(
            [protocol], config, global_inputs, per_node_inputs, reuse_contexts
        )
        return result

    def execute_fused(
        self,
        protocols: Sequence[Protocol],
        *,
        config: Optional[CongestConfig] = None,
        reuse_contexts: bool = True,
    ) -> List[RunResult]:
        """Run a fused phase group: one pool re-arm for the whole group.

        The protocol tuple ships with one ``arm``; workers self-arm each
        follow-on phase right after its predecessor's ``finish`` report,
        overlapping the elided re-arm with the coordinator's output merge.
        Context state stays worker-side until the group-final phase's
        ``finish`` folds it back — so each phase still runs the exact
        round loop, metrics and outputs it would have run unfused, and a
        mid-group failure leaves the parent's contexts as they were at
        the group start.
        """
        if self.closed:
            raise ProtocolError("execute_fused on a closed CongestSession")
        protocols = list(protocols)
        if not protocols:
            return []
        return self._run_group(protocols, config, None, None, reuse_contexts)

    def _run_group(
        self,
        protocols: List[Protocol],
        config: Optional[CongestConfig],
        global_inputs: Optional[Dict[str, Any]],
        per_node_inputs: Optional[Dict[int, Dict[str, Any]]],
        reuse_contexts: bool,
    ) -> List[RunResult]:
        """The session's one execution path; ``execute`` is a group of one.

        Fails fast on *every* escaping error — a changed topology, config
        rejection, a bad per-node input, model violations, worker deaths: the pool is torn
        down here, not deferred to close(), so the teardown guarantee
        holds after any failed call.  The next call (if any) respawns.
        """
        config = config if config is not None else self.config
        try:
            network = self.network
            if network.delta_epoch != self._delta_epoch:
                raise ProtocolError(
                    "the network changed during an execution session; "
                    "open a new session"
                )
            self._check_config(config)
            # Contexts mutated outside the session (a direct
            # build_contexts call between phases) make worker-held state
            # stale; detect via the epoch and respawn, which re-ships them.
            external = (
                self._epoch is None or network.context_epoch != self._epoch
            )
            contexts = network.build_contexts(
                global_inputs=global_inputs,
                per_node_inputs=per_node_inputs,
                fresh=not reuse_contexts,
            )
            if not any(self.plan.shards):
                # An empty network has nothing to keep a pool for.
                return self._run_in_process(protocols, config)
            setup_started = time.perf_counter()
            if self._pool is None or not reuse_contexts or external:
                self._spawn_pool(contexts)
                self._pool.rearm(protocols, config)
            else:
                self._pool.rearm(
                    protocols,
                    config,
                    global_inputs=global_inputs,
                    per_shard_state=self._split_inputs(per_node_inputs),
                )
            self.stats.rearms += 1
            self.stats.fused_phases += len(protocols) - 1
            setup_seconds = time.perf_counter() - setup_started

            results: List[RunResult] = []
            last = len(protocols) - 1
            for i, protocol in enumerate(protocols):
                run = ProcessShardedRun(
                    protocol=protocol,
                    config=config,
                    contexts=contexts,
                    pool=self._pool,
                    fold_contexts=i == last,
                )
                results.append(run.run())
                total, cross = run.traffic_totals()
                self.stats.observe_phase(
                    protocol.name,
                    total,
                    cross,
                    run.boundary_bytes,
                    run.barrier_rounds,
                    setup_seconds if i == 0 else 0.0,
                )
            self._epoch = network.context_epoch
            return results
        except BaseException as exc:
            # A watchdog timeout marks still-alive workers as known-stuck:
            # terminate them immediately instead of granting the EOF grace
            # period they would sit out anyway.
            self._teardown_pool(force=isinstance(exc, ShardWorkerTimeout))
            raise

    def _run_in_process(
        self, protocols: List[Protocol], config: CongestConfig
    ) -> List[RunResult]:
        """Run an empty network's group phase by phase on the vectorized engine.

        An empty plan has no shard to give a worker, and the engine
        contract makes this bit-identical to a pool.  ``_run_group`` has
        already built the group's contexts, so every phase reuses them.
        Each phase is recorded with its message count and no cross-shard
        traffic.
        """
        engine = get_engine("vectorized")
        results: List[RunResult] = []
        for protocol in protocols:
            result = engine.execute(
                self.network, protocol, config=config, reuse_contexts=True
            )
            results.append(result)
            self._epoch = self.network.context_epoch
            self.stats.observe_phase(
                protocol.name, result.metrics.total_messages, 0, 0, 0, 0.0
            )
        return results

    # ------------------------------------------------------------------
    def _spawn_pool(self, contexts: ContextRegistry) -> None:
        """Replace the pool with one fresh worker per non-empty shard."""
        self._teardown_pool()
        if self.shared_csr is None:
            self.shared_csr = SharedCSR.create(self.network, self.plan)
            self.stats.shm_bytes = self.shared_csr.nbytes
        handles = _spawn_workers(
            self.plan, self._ids, contexts, shared_csr=self.shared_csr
        )
        self._pool = _WorkerPool(handles)

    # ------------------------------------------------------------------
    def _split_inputs(
        self, per_node_inputs: Optional[Dict[int, Dict[str, Any]]]
    ) -> Optional[Dict[int, Dict[int, Dict[str, Any]]]]:
        """Route per-node inputs to the shard that owns each node.

        Only reached after ``build_contexts`` accepted the same dict, so
        every id is known here.
        """
        if not per_node_inputs:
            return None
        index_of = self.network.node_index_of
        owner = self.plan.owner
        per_shard: Dict[int, Dict[int, Dict[str, Any]]] = {}
        for node_id, inputs in per_node_inputs.items():
            per_shard.setdefault(owner[index_of[node_id]], {})[node_id] = inputs
        return per_shard

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down the pool and unlink the shared mapping (idempotent)."""
        if self.closed:
            return
        self.closed = True
        try:
            self._teardown_pool()
        finally:
            if self.shared_csr is not None:
                shared, self.shared_csr = self.shared_csr, None
                shared.destroy()
