"""Partition-parallel execution of the synchronous round loop.

:class:`ShardedEngine` (``engine="sharded"``) splits the network into ``k``
shards with :func:`repro.congest.sharding.partition.partition_network` and
steps each shard's frontier independently within a round, exchanging the
messages that cross a shard boundary at the round barrier.  Per shard the
machinery is the :class:`repro.congest.engine.BatchedEngine` design — dense
CSR indices, reused inbox buffers, per-sender ``Inbound`` interning, an
incremental active frontier — restricted to the shard's owned nodes.

**The engine contract applies** (module docstring of
:mod:`repro.congest.engine`): outputs, round count and protocol
message/bit metrics — including the per-round trace — are bit-identical to
:class:`repro.congest.engine.ReferenceEngine` for every shard count,
strategy and execution backend, and the model rules raise the same
:class:`repro.congest.errors.MessageSizeViolation` /
:class:`repro.congest.errors.CongestionViolation` types from the shard-local
drain.  Two mechanisms make the partition invisible:

* *Inbox-order repair.*  Within one shard, nodes drain in ascending dense
  index, so a receiver's inbox arrives grouped by sender ascending — the
  contract order — for free.  Senders owned by *other* shards arrive at the
  barrier in source-shard order, so any inbox that received boundary mail is
  stably re-sorted by sender id before delivery (stability preserves the
  per-sender send order; a sender's messages all originate in one shard).
* *Barrier-time aggregation.*  Round metrics are accumulated per shard and
  folded in ascending shard order at the barrier — sums for message/bit
  counts, ``max`` for the message-size peak — so the global
  :class:`repro.congest.metrics.RoundMetrics` equals the reference's
  regardless of how the round's work was interleaved.  Termination (all
  frontiers empty, no messages in flight), quiescence and the stall counter
  are evaluated by the coordinator on the aggregated view, exactly like the
  single-shard engines.

Execution backends (``CongestConfig.shard_backend``)
----------------------------------------------------
``"thread"`` (the default)
    In-process execution.  ``shard_workers <= 1`` steps the shards
    sequentially in ascending shard order — fully deterministic, which is
    what the differential harness runs.  ``shard_workers >= 2`` steps the
    shards on a thread pool; shard state is disjoint by construction (a
    shard only touches the contexts and inbox buffers of the nodes it owns,
    and writes cross-shard messages into its own per-destination buckets),
    so the pool only changes wall-clock interleaving, never the result.
    Thread mode is GIL-bound: its wall-clock winnings are cache locality,
    not parallelism.

``"serial"``
    Force the sequential mode regardless of ``shard_workers``.

``"process"``
    True multi-core execution (:mod:`repro.congest.sharding.workers`): one
    long-lived worker process per non-empty shard owns that shard's
    contexts, CSR slice and inbox buffers for the whole run; only boundary
    traffic crosses the round barrier, packed by
    :mod:`repro.congest.sharding.wire` into flat arrays instead of pickled
    per-message objects.  Requires the protocol object and all per-node
    state to be picklable.  Model-rule violations cross the process
    boundary with their in-process exception types; a worker that dies
    without reporting raises
    :class:`repro.congest.errors.ShardWorkerError` instead of hanging the
    barrier.

Note that a *protocol* mutating shared instrumentation state in its
callbacks (for example a test harness appending to one global log) will
observe a nondeterministic interleaving under thread mode and fully
isolated per-worker copies under process mode; per-node outputs and metrics
remain bit-identical in every backend.  Pools of either kind are created
per ``execute`` call and torn down before it returns — the registry's
shared engine singleton never holds live workers.
"""

from __future__ import annotations

import operator
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.congest.config import CongestConfig
from repro.congest.engine import (
    _EMPTY_INBOX,
    _STALL_LIMIT,
    CongestSession,
    Engine,
    RunResult,
    harvest_outputs,
    register_engine,
)
from repro.congest.errors import (
    CongestionViolation,
    MessageSizeViolation,
    ProtocolError,
    RoundLimitExceeded,
)
from repro.congest.message import Inbound
from repro.congest.metrics import RoundMetrics, RunMetrics
from repro.congest.network import Network
from repro.congest.node import NodeContext, Protocol, reset_in_scope
from repro.congest.sharding.faults import SimulatedFaults
from repro.congest.sharding.partition import (
    ShardPlan,
    cached_partition,
)

#: Execution backends accepted by ``CongestConfig.shard_backend`` and the
#: engine's ``backend=`` constructor argument.
SHARD_BACKENDS: Tuple[str, ...] = ("serial", "thread", "process")

#: Stable-sort key restoring the contract's ascending-sender inbox order
#: (C-implemented: this runs on every boundary inbox every round).
_sender_key = operator.attrgetter("sender")


def coordinator_should_stop(
    all_done: bool,
    in_flight: int,
    rounds: int,
    silent_rounds: int,
    quiesce_ok: bool,
    max_rounds: Optional[int],
    protocol_name: str,
) -> Tuple[bool, int]:
    """The sharded coordinators' termination decision, in one place.

    Evaluated at the top of every round on the barrier-aggregated view;
    shared verbatim by the in-process coordinator (:class:`_ShardedRun`)
    and the process-backend coordinator
    (:class:`repro.congest.sharding.workers.ProcessShardedRun`) so the
    engine contract's round counts cannot drift between them.  Returns
    ``(stop, new_silent_rounds)``; raises
    :class:`repro.congest.errors.ProtocolError` on a stall and
    :class:`repro.congest.errors.RoundLimitExceeded` at the round cap —
    mirroring the single-shard engines exactly.
    """
    if all_done and not in_flight:
        return True, silent_rounds
    if not in_flight and rounds > 0 and quiesce_ok:
        return True, silent_rounds
    if not in_flight and rounds > 0:
        silent_rounds += 1
        if silent_rounds >= _STALL_LIMIT:
            raise ProtocolError(
                "protocol %r stalled: no messages in flight, nodes "
                "not finished, after %d silent rounds"
                % (protocol_name, silent_rounds)
            )
    else:
        silent_rounds = 0
    if max_rounds is not None and rounds >= max_rounds:
        raise RoundLimitExceeded(max_rounds)
    return False, silent_rounds


def merge_startup_metrics(round_metrics: RoundMetrics, startup: RoundMetrics) -> None:
    """Fold round-0 (``on_start``) traffic into the first round's metrics.

    Messages queued during ``on_start`` are delivered in round 1 and
    accounted to it, exactly as in the single-shard engines; shared by both
    sharded coordinators.
    """
    round_metrics.messages_sent = startup.messages_sent
    round_metrics.bits_sent = startup.bits_sent
    round_metrics.max_message_bits = startup.max_message_bits


class _ShardState:
    """All mutable per-shard state of one sharded execution.

    A shard owns a subset of the dense indices; during a round it reads and
    writes only the contexts and inbox buffers of its owned nodes plus its
    own outbound buckets, which is the disjointness that makes thread-mode
    execution safe without locks — and process-mode execution possible with
    no shared memory at all.
    """

    __slots__ = (
        "index",
        "owned",
        "frontier",
        "pending_index",
        "pending_inbound",
        "remote_from",
        "out_buckets",
        "interned",
        "touched",
        "remote_messages",
        "local_messages",
    )

    def __init__(self, index: int, owned: Sequence[int], n_shards: int) -> None:
        self.index = index
        self.owned: Tuple[int, ...] = tuple(owned)
        self.frontier: List[int] = []
        # Shard-local deliveries (receiver owned by this shard), as the
        # batched engine's two parallel flat lists.
        self.pending_index: List[int] = []
        self.pending_inbound: List[Inbound] = []
        # Boundary deliveries routed *to* this shard at the last barrier,
        # kept grouped by source shard so delivery can walk the groups in
        # ascending sender order (see ``_ShardStepper.step_shard``).
        # Each group is two parallel flat lists (receiver index / Inbound),
        # like the local pending lists — no tuple per boundary message.
        self.remote_from: List[Tuple[List[int], List[Inbound]]] = [
            ([], []) for _ in range(n_shards)
        ]
        # Boundary messages produced by this shard, bucketed by destination,
        # in the same parallel-list shape.
        self.out_buckets: List[Tuple[List[int], List[Inbound]]] = [
            ([], []) for _ in range(n_shards)
        ]
        # Per-sender Inbound intern cache, reset every round (per shard:
        # senders are owned by exactly one shard).
        self.interned: Dict[int, Dict[int, Inbound]] = {}
        self.touched: List[int] = []
        self.remote_messages = 0
        self.local_messages = 0

    def out_bucket_total(self) -> int:
        return sum(len(indices) for indices, _ in self.out_buckets)

    def remote_total(self) -> int:
        return sum(len(indices) for indices, _ in self.remote_from)


@dataclass
class SessionPhaseStats:
    """One ``execute`` of a session, as the session's stats record it."""

    label: str
    protocol_messages: int
    cross_shard_messages: int
    boundary_bytes: int
    barrier_rounds: int
    setup_seconds: float


@dataclass
class RecoveryEvent:
    """One worker failure a supervised session observed, and its outcome.

    ``action`` is what the retry loop decided: ``"retry"`` (the phase was
    replayed on a fresh pool), ``"degrade"`` (attempts exhausted, the
    session fell back to the serial sharded backend) or ``"abort"`` (no
    policy, or a policy with ``degrade=False`` out of attempts — the error
    escaped to the caller).  ``attempt`` is the 0-based attempt that
    failed; ``timed_out`` marks failures surfaced by the barrier watchdog
    (:class:`repro.congest.errors.ShardWorkerTimeout`).
    """

    phase: str
    error: str
    action: str
    attempt: int
    timed_out: bool


class ShardingStats:
    """Cross-shard traffic accounting for one or more sharded executions.

    Populated by :class:`ShardedEngine` when constructed with
    ``collect_stats=True`` (the registry instance does not collect, keeping
    it stateless) and by persistent sessions, which expose an instance as
    :attr:`repro.congest.engine.CongestSession.stats`; the E14/E15/E16
    benchmarks use this to report the cut-edge message fraction per
    partitioner strategy, the serialized boundary traffic of the process
    backend, and the per-phase setup cost a session amortises.

    Attributes
    ----------
    boundary_bytes / barrier_rounds:
        Packed wire bytes shipped across round barriers and the number of
        barriers that shipped them.  Only the process backend serializes
        boundary traffic, so both stay zero for the in-process backends.
    setup_seconds:
        Coordinator-side seconds spent on per-``execute`` setup (worker
        spawn, arming) summed over the recorded runs — the figure the E16
        benchmark divides by phases.
    shm_bytes:
        Bytes of CSR/owner tables held in the session's shared-memory
        mapping (zero outside persistent process sessions).
    phases:
        Per-``execute`` partials (:class:`SessionPhaseStats`), appended by
        sessions in phase order; the counters above are the session totals.
    rearms / fused_phases:
        Pool-wide protocol ships (one per ``arm``/``arm-seq`` that crossed
        the pipes) and re-arms *elided* by the pipeline compiler's phase
        fusion (``len(group) - 1`` per fused group).  Under full fusion a
        composite's ``rearms`` stays strictly below its phase count — the
        invariant ``tests/test_sharding.py`` pins.
    worker_failures / timeouts / retries / degradations / recovery_events:
        The fault-tolerance ledger, populated by supervised persistent
        sessions via :meth:`observe_recovery`: every observed worker
        failure (``worker_failures``), how many were barrier-watchdog
        timeouts (``timeouts``), and how many led to a phase replay
        (``retries``) or to the session degrading to the serial backend
        (``degradations``).  ``recovery_events`` keeps the full
        per-failure :class:`RecoveryEvent` records in observation order —
        the service layer harvests them into its own
        :class:`repro.service.stats.ServiceStats` ledger.
    """

    def __init__(self) -> None:
        self.runs = 0
        self.protocol_messages = 0
        self.cross_shard_messages = 0
        self.boundary_bytes = 0
        self.barrier_rounds = 0
        self.setup_seconds = 0.0
        self.shm_bytes = 0
        self.rearms = 0
        self.fused_phases = 0
        self.worker_failures = 0
        self.timeouts = 0
        self.retries = 0
        self.degradations = 0
        self.recovery_events: List[RecoveryEvent] = []
        self.plans: List[ShardPlan] = []
        self.phases: List[SessionPhaseStats] = []

    @property
    def cross_shard_fraction(self) -> float:
        """Fraction of protocol messages that crossed a shard boundary."""
        if self.protocol_messages == 0:
            return 0.0
        return self.cross_shard_messages / self.protocol_messages

    @property
    def bytes_per_round(self) -> float:
        """Mean packed boundary bytes per round barrier (process backend)."""
        if self.barrier_rounds == 0:
            return 0.0
        return self.boundary_bytes / self.barrier_rounds

    @property
    def setup_seconds_per_phase(self) -> float:
        """Mean setup seconds per recorded phase (0.0 before any phase)."""
        if not self.phases:
            return 0.0
        return self.setup_seconds / len(self.phases)

    def observe_run(
        self,
        protocol_messages: int,
        cross_shard_messages: int,
        boundary_bytes: int,
        barrier_rounds: int,
        setup_seconds: float,
        plan: Optional[ShardPlan] = None,
    ) -> None:
        """Fold one execution into the session totals.

        The **only** accumulation path: :meth:`observe_phase` delegates
        here, and :meth:`ShardedEngine.execute` calls this directly, so one
        ``execute`` can never be added to the totals twice no matter which
        observer fires (the double-accounting risk when a stats-collecting
        engine and a session both observed the same run).
        """
        self.runs += 1
        self.protocol_messages += protocol_messages
        self.cross_shard_messages += cross_shard_messages
        self.boundary_bytes += boundary_bytes
        self.barrier_rounds += barrier_rounds
        self.setup_seconds += setup_seconds
        if plan is not None:
            self.plans.append(plan)

    def observe_phase(
        self,
        label: str,
        protocol_messages: int,
        cross_shard_messages: int,
        boundary_bytes: int,
        barrier_rounds: int,
        setup_seconds: float,
    ) -> None:
        """Record one session ``execute`` (partial plus session totals)."""
        self.observe_run(
            protocol_messages,
            cross_shard_messages,
            boundary_bytes,
            barrier_rounds,
            setup_seconds,
        )
        self.phases.append(
            SessionPhaseStats(
                label=label,
                protocol_messages=protocol_messages,
                cross_shard_messages=cross_shard_messages,
                boundary_bytes=boundary_bytes,
                barrier_rounds=barrier_rounds,
                setup_seconds=setup_seconds,
            )
        )

    def observe_recovery(self, event: RecoveryEvent) -> None:
        """Record one worker failure and the supervisor's decision."""
        self.worker_failures += 1
        if event.timed_out:
            self.timeouts += 1
        if event.action == "retry":
            self.retries += 1
        elif event.action == "degrade":
            self.degradations += 1
        self.recovery_events.append(event)


class _ShardStepper:
    """The per-shard round machinery, independent of where shards live.

    Everything a single shard needs to start, step and drain its owned
    nodes: the dense context list, the shared inbox buffers, the routing
    tables and the model-rule knobs.  The in-process coordinator
    (:class:`_ShardedRun`) holds one stepper for all shards; each worker
    process of the ``"process"`` backend
    (:mod:`repro.congest.sharding.workers`) holds a stepper whose
    ``ctx_list`` is populated only at its own shard's indices.
    """

    def __init__(
        self,
        protocol: Protocol,
        config: CongestConfig,
        ctx_list: List[Optional[NodeContext]],
        index_of: Dict[int, int],
        owner: Sequence[int],
        ordered_delivery: bool,
        inbox_buffers: Optional[List[List[Inbound]]] = None,
    ) -> None:
        self.protocol = protocol
        self.ctx_list = ctx_list
        self.index_of = index_of
        self.owner = owner
        self.ordered_delivery = ordered_delivery
        # A session worker re-arms a fresh stepper per phase but keeps its
        # (empty-between-runs) inbox buffers, so passing them in avoids n
        # list allocations per phase.
        self.inbox_buffers: List[List[Inbound]] = (
            inbox_buffers
            if inbox_buffers is not None
            else [[] for _ in ctx_list]
        )

        self.enforce = config.enforce_congestion
        budget = config.message_bit_budget
        self.budget = budget
        self.budget_limit: float = float("inf") if budget is None else budget
        self.fast_finished = type(protocol).finished is Protocol.finished

    @staticmethod
    def ranges_are_ordered(plan: ShardPlan) -> bool:
        """True when shard id ranges are disjoint and ascending.

        Always true for the contiguous strategy: delivering the per-source
        message groups in shard order then yields each inbox already in
        ascending-sender order, so no per-box sort is needed.
        """
        ranges = [(owned[0], owned[-1]) for owned in plan.shards if owned]
        return all(ranges[i][1] < ranges[i + 1][0] for i in range(len(ranges) - 1))

    # ------------------------------------------------------------------
    def drain(
        self,
        shard: _ShardState,
        ctx: NodeContext,
        round_index: int,
        rm: RoundMetrics,
        pairs: Optional[Set[Tuple[int, int]]],
    ) -> None:
        """Move one node's queued messages into the shard's delivery state.

        The batched engine's drain with one extra step: a receiver owned by
        another shard routes through the per-destination bucket exchanged at
        the barrier instead of the local pending lists.  Rule checks and
        accounting are identical.
        """
        sender = ctx.node_id
        outgoing = ctx._outgoing
        enforce = self.enforce
        budget_limit = self.budget_limit
        index_of = self.index_of
        owner = self.owner
        shard_index = shard.index
        out_buckets = shard.out_buckets
        append_index = shard.pending_index.append
        append_inbound = shard.pending_inbound.append
        messages_seen = 0
        bits_seen = 0
        remote_seen = 0
        max_bits = rm.max_message_bits
        cache = shard.interned.get(sender)
        if cache is None:
            cache = shard.interned[sender] = {}
        cache_get = cache.get
        for receiver, messages in outgoing.items():
            if enforce and len(messages) > 1:
                raise CongestionViolation(sender, receiver, round_index)
            receiver_index = index_of[receiver]
            destination = owner[receiver_index]
            for message in messages:
                bits = message.bits
                if bits > budget_limit:
                    raise MessageSizeViolation(
                        sender, receiver, bits, self.budget, round_index
                    )
                messages_seen += 1
                bits_seen += bits
                if bits > max_bits:
                    max_bits = bits
                message_id = id(message)
                inbound = cache_get(message_id)
                if inbound is None:
                    inbound = Inbound(sender=sender, message=message)
                    cache[message_id] = inbound
                if destination == shard_index:
                    append_index(receiver_index)
                    append_inbound(inbound)
                else:
                    remote_seen += 1
                    bucket_indices, bucket_inbound = out_buckets[destination]
                    bucket_indices.append(receiver_index)
                    bucket_inbound.append(inbound)
                if pairs is not None:
                    pairs.add((sender, receiver))
        outgoing.clear()
        rm.messages_sent += messages_seen
        rm.bits_sent += bits_seen
        rm.max_message_bits = max_bits
        shard.remote_messages += remote_seen
        shard.local_messages += messages_seen - remote_seen

    # ------------------------------------------------------------------
    def start_shard(self, shard: _ShardState) -> RoundMetrics:
        """Round 0 for one shard: ``on_start`` every owned in-scope node, then drain.

        Owned nodes outside the protocol's scope are marked halted and
        never started (:func:`repro.congest.node.reset_in_scope`).
        """
        rm = RoundMetrics(round_index=0)
        ctx_list = self.ctx_list
        on_start = self.protocol.on_start
        started = reset_in_scope(self.protocol, ctx_list, shard.owned)
        for i in started:
            ctx = ctx_list[i]
            ctx._round = 0
            on_start(ctx)
        for i in started:
            ctx = ctx_list[i]
            if ctx._outgoing:
                self.drain(shard, ctx, 0, rm, None)
        if self.fast_finished:
            shard.frontier = [i for i in started if not ctx_list[i]._halted]
        return rm

    def step_shard(self, shard: _ShardState, rounds: int) -> RoundMetrics:
        """One round for one shard: deliver, invoke the frontier, drain."""
        rm = RoundMetrics(round_index=rounds)
        pairs: Optional[Set[Tuple[int, int]]] = None if self.enforce else set()
        buffers = self.inbox_buffers
        touched = shard.touched

        # --- delivery -----------------------------------------------------
        # Local pending and the barrier-routed boundary groups are walked in
        # ascending source-shard order; when the shard id ranges are ordered
        # (``ordered_delivery``) that *is* ascending-sender order and the
        # boxes come out contract-ordered for free.  Otherwise any box that
        # received boundary mail is stably re-sorted by sender id below —
        # stability keeps each sender's messages in send order (a sender's
        # messages all originate in one shard).
        remote_from = shard.remote_from
        own_index = shard.index
        dirty: Optional[Set[int]] = (
            None if self.ordered_delivery else set()
        )
        for source in range(len(remote_from)):
            if source == own_index:
                for receiver_index, inbound in zip(
                    shard.pending_index, shard.pending_inbound
                ):
                    box = buffers[receiver_index]
                    if not box:
                        touched.append(receiver_index)
                    box.append(inbound)
                continue
            group_indices, group_inbound = remote_from[source]
            if not group_indices:
                continue
            if dirty is None:
                for receiver_index, inbound in zip(group_indices, group_inbound):
                    box = buffers[receiver_index]
                    if not box:
                        touched.append(receiver_index)
                    box.append(inbound)
            else:
                for receiver_index, inbound in zip(group_indices, group_inbound):
                    box = buffers[receiver_index]
                    if not box:
                        touched.append(receiver_index)
                    box.append(inbound)
                    dirty.add(receiver_index)
            remote_from[source] = ([], [])
        if dirty:
            for receiver_index in dirty:
                box = buffers[receiver_index]
                if len(box) > 1:
                    box.sort(key=_sender_key)
        shard.pending_index = []
        shard.pending_inbound = []
        shard.interned.clear()

        # --- invoke + drain ------------------------------------------------
        ctx_list = self.ctx_list
        protocol = self.protocol
        on_round = protocol.on_round
        if self.fast_finished:
            frontier = shard.frontier
            rm.active_nodes = len(frontier)
            any_halted = False
            for i in frontier:
                ctx = ctx_list[i]
                ctx._round = rounds
                box = buffers[i]
                on_round(ctx, box if box else _EMPTY_INBOX)
                if ctx._halted:
                    any_halted = True
                if ctx._outgoing:
                    self.drain(shard, ctx, rounds, rm, pairs)
            if any_halted:
                shard.frontier = [
                    i for i in frontier if not ctx_list[i]._halted
                ]
        else:
            active = 0
            finished = protocol.finished
            for i in shard.owned:
                ctx = ctx_list[i]
                ctx._round = rounds
                if finished(ctx):
                    continue
                active += 1
                box = buffers[i]
                on_round(ctx, box if box else _EMPTY_INBOX)
                if ctx._outgoing:
                    self.drain(shard, ctx, rounds, rm, pairs)
            rm.active_nodes = active

        for i in touched:
            buffers[i].clear()
        del touched[:]

        rm.edges_used = (
            len(shard.pending_index) + shard.out_bucket_total()
            if pairs is None
            else len(pairs)
        )
        return rm


class _ShardedRun(_ShardStepper):
    """One in-process sharded execution (serial or thread-pool backend)."""

    def __init__(
        self,
        network: Network,
        protocol: Protocol,
        config: CongestConfig,
        contexts: Dict[int, NodeContext],
        plan: ShardPlan,
        workers: int,
    ) -> None:
        super().__init__(
            protocol=protocol,
            config=config,
            ctx_list=network.context_list,
            index_of=network.node_index_of,
            owner=plan.owner,
            ordered_delivery=self.ranges_are_ordered(plan),
        )
        self.network = network
        self.config = config
        self.contexts = contexts
        self.plan = plan
        self.quiesce_ok = bool(getattr(protocol, "quiesce_terminates", False))

        self.shards = [
            _ShardState(index, owned, plan.n_shards)
            for index, owned in enumerate(plan.shards)
        ]

        active = [shard for shard in self.shards if shard.owned]
        self.pool: Optional[ThreadPoolExecutor] = None
        self.pool_width = 0
        if workers >= 2 and len(active) >= 2:
            self.pool_width = min(workers, len(active))

    # ------------------------------------------------------------------
    #: A round whose estimated work (messages in flight plus nodes to
    #: invoke) falls below this is stepped inline even in thread mode: the
    #: cross-thread wakeups of a pool dispatch cost more than the round
    #: itself.  Heavy rounds — where parallelism can pay — still go to the
    #: pool, so the quiet convergecast tails of a protocol don't turn the
    #: barrier into pure overhead.
    POOL_MIN_WORK = 4096

    def _run_shards(self, step, work_hint: int) -> List[RoundMetrics]:
        """Apply *step* to every non-empty shard, serially or on the pool.

        Thread mode submits one task per *worker* (each stepping a
        round-robin chunk of shards), not one per shard, so a round costs
        ``pool_width`` wakeups regardless of the shard count.  Results are
        re-ordered by shard index before merging, so the folded metrics are
        mode-independent; a model-rule violation surfaces from whichever
        chunk raises first, with the same exception type as the serial
        mode.
        """
        active = [shard for shard in self.shards if shard.owned]
        if self.pool is None or work_hint < self.POOL_MIN_WORK:
            return [step(shard) for shard in active]
        width = self.pool_width
        chunks = [active[offset::width] for offset in range(width)]

        def run_chunk(chunk):
            return [(shard.index, step(shard)) for shard in chunk]

        futures = [
            self.pool.submit(run_chunk, chunk) for chunk in chunks if chunk
        ]
        indexed: List[Tuple[int, RoundMetrics]] = []
        for future in futures:
            indexed.extend(future.result())
        indexed.sort(key=operator.itemgetter(0))
        return [rm for _, rm in indexed]

    def _barrier(self, partials: List[RoundMetrics], into: RoundMetrics) -> int:
        """Fold shard metrics, route boundary buckets, count mail in flight."""
        for rm in partials:
            into.messages_sent += rm.messages_sent
            into.bits_sent += rm.bits_sent
            into.edges_used += rm.edges_used
            into.active_nodes += rm.active_nodes
            if rm.max_message_bits > into.max_message_bits:
                into.max_message_bits = rm.max_message_bits
        shards = self.shards
        for source in shards:
            buckets = source.out_buckets
            source_index = source.index
            for destination_index, bucket in enumerate(buckets):
                if bucket[0]:
                    # Hand the lists over wholesale; the source starts the
                    # next round with a fresh bucket.
                    shards[destination_index].remote_from[source_index] = bucket
                    buckets[destination_index] = ([], [])
        return sum(
            len(shard.pending_index) + shard.remote_total()
            for shard in shards
        )

    # ------------------------------------------------------------------
    def traffic_totals(self) -> Tuple[int, int]:
        """(protocol messages, cross-shard messages) over the whole run."""
        local = sum(shard.local_messages for shard in self.shards)
        remote = sum(shard.remote_messages for shard in self.shards)
        return local + remote, remote

    #: Packed boundary traffic: the in-process backends never serialize, so
    #: the stats fields stay zero (contrast ``ProcessShardedRun``); likewise
    #: there is no pool to spawn, so setup time is not accounted.
    boundary_bytes = 0
    barrier_rounds = 0
    setup_seconds = 0.0

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        config = self.config
        protocol = self.protocol
        ctx_list = self.ctx_list
        metrics = RunMetrics()
        # Simulated fault injection (chaos matrix on the in-process
        # backends): only a plan that explicitly opted in via
        # ``simulate=True`` is honoured here, so a process-backend plan
        # carried by a config that degraded to serial does not re-inject
        # the fault it is recovering from.  ``fault_plan=None`` — the
        # default everywhere outside tests — costs nothing.
        plan_faults = getattr(config, "fault_plan", None)
        faults = None
        if plan_faults is not None and getattr(plan_faults, "simulate", False):
            faults = SimulatedFaults(
                plan_faults,
                [shard.index for shard in self.shards if shard.owned],
                config.round_timeout,
                protocol.name,
            )
        with ExitStack() as stack:
            if self.pool_width >= 2:
                # The pool lives exactly as long as this execute call; the
                # ExitStack guarantees teardown on every exit path, so the
                # shared registry singleton never leaks worker threads.
                self.pool = stack.enter_context(
                    ThreadPoolExecutor(
                        max_workers=self.pool_width,
                        thread_name_prefix="repro-shard",
                    )
                )
            if faults is not None:
                faults.check("arm")
                faults.check("start")
            startup_metrics = RoundMetrics(round_index=0)
            in_flight = self._barrier(
                self._run_shards(self.start_shard, work_hint=len(ctx_list)),
                startup_metrics,
            )
            startup_metrics.edges_used = 0  # startup edges are not counted
            startup_metrics.active_nodes = 0

            rounds = 0
            silent_rounds = 0
            while True:
                if self.fast_finished:
                    all_done = not any(
                        shard.frontier for shard in self.shards
                    )
                else:
                    finished = protocol.finished
                    all_done = all(finished(ctx) for ctx in ctx_list)
                stop, silent_rounds = coordinator_should_stop(
                    all_done,
                    in_flight,
                    rounds,
                    silent_rounds,
                    self.quiesce_ok,
                    config.max_rounds,
                    protocol.name,
                )
                if stop:
                    break

                rounds += 1
                if faults is not None:
                    faults.check("round", rounds)
                round_metrics = RoundMetrics(round_index=rounds)
                if rounds == 1:
                    merge_startup_metrics(round_metrics, startup_metrics)
                current_round = rounds
                if self.fast_finished:
                    to_invoke = sum(
                        len(shard.frontier) for shard in self.shards
                    )
                else:
                    to_invoke = len(ctx_list)
                in_flight = self._barrier(
                    self._run_shards(
                        lambda shard: self.step_shard(shard, current_round),
                        work_hint=in_flight + to_invoke,
                    ),
                    round_metrics,
                )
                metrics.absorb_round(round_metrics, config.record_round_metrics)
            if faults is not None:
                faults.check("finish")
        self.pool = None

        outputs = harvest_outputs(protocol, ctx_list, rounds)
        return RunResult(outputs=outputs, metrics=metrics, contexts=self.contexts)


class ShardedEngine(Engine):
    """Partition-parallel round loop; see the module docstring for details.

    Selectable as ``engine="sharded"``.  The registry instance reads every
    knob from the configuration (``CongestConfig.shards``,
    ``CongestConfig.shard_workers``, ``CongestConfig.shard_strategy``,
    ``CongestConfig.shard_backend``); constructor arguments override the
    configuration for callers that build their own instance (the E14/E15
    benchmarks, tests).

    Parameters
    ----------
    shards / workers / strategy / backend:
        Shard count, thread-pool width (``<= 1`` means the serial
        deterministic mode), partitioner strategy and execution backend
        (one of :data:`SHARD_BACKENDS`).  ``None`` defers to the
        configuration.
    partition_seed:
        Seed of the partitioner's RNG (plans are deterministic for a fixed
        seed).
    collect_stats:
        When True, accumulate cross-shard traffic statistics into
        :attr:`stats` across executions.  Off for the registry instance —
        engines are stateless by convention — and not thread-safe across
        concurrent ``execute`` calls.
    """

    name = "sharded"

    def __init__(
        self,
        shards: Optional[int] = None,
        workers: Optional[int] = None,
        strategy: Optional[str] = None,
        backend: Optional[str] = None,
        partition_seed: int = 0,
        collect_stats: bool = False,
    ) -> None:
        if shards is not None and shards < 1:
            raise ValueError("shards must be at least 1 when given")
        if backend is not None and backend not in SHARD_BACKENDS:
            raise ValueError(
                "unknown shard backend %r; available backends: %s"
                % (backend, ", ".join(SHARD_BACKENDS))
            )
        self.shards = shards
        self.workers = workers
        self.strategy = strategy
        self.backend = backend
        self.partition_seed = partition_seed
        self.stats: Optional[ShardingStats] = (
            ShardingStats() if collect_stats else None
        )

    # ------------------------------------------------------------------
    def resolve_structure(
        self, config: CongestConfig
    ) -> Tuple[int, str, str]:
        """``(shards, strategy, backend)`` for *config* under this instance.

        Instance constructor arguments override the configuration's
        fields.  This is the single resolution used by :meth:`execute`,
        :meth:`open_session` and a persistent session's per-call config
        validation, so the three can never drift.
        """
        shards = self.shards if self.shards is not None else config.shards
        strategy = (
            self.strategy if self.strategy is not None else config.shard_strategy
        )
        backend = self.backend if self.backend is not None else config.shard_backend
        if backend not in SHARD_BACKENDS:
            raise ValueError(
                "unknown shard backend %r; available backends: %s"
                % (backend, ", ".join(SHARD_BACKENDS))
            )
        if shards < 1:
            raise ValueError("shards must be at least 1, got %r" % (shards,))
        return shards, strategy, backend

    # ------------------------------------------------------------------
    def execute(
        self,
        network: Network,
        protocol: Protocol,
        config: Optional[CongestConfig] = None,
        global_inputs: Optional[Dict[str, Any]] = None,
        per_node_inputs: Optional[Dict[int, Dict[str, Any]]] = None,
        reuse_contexts: bool = False,
    ) -> RunResult:
        config = config or CongestConfig()
        shards, strategy, backend = self.resolve_structure(config)
        workers = self.workers if self.workers is not None else config.shard_workers
        plan = cached_partition(
            network, shards, strategy=strategy, seed=self.partition_seed
        )
        contexts = network.build_contexts(
            global_inputs=global_inputs,
            per_node_inputs=per_node_inputs,
            fresh=not reuse_contexts,
        )
        if backend == "process" and any(owned for owned in plan.shards):
            # Imported lazily: workers.py needs this module's stepper.
            from repro.congest.sharding.workers import ProcessShardedRun

            run = ProcessShardedRun(
                network=network,
                protocol=protocol,
                config=config,
                contexts=contexts,
                plan=plan,
            )
        else:
            run = _ShardedRun(
                network=network,
                protocol=protocol,
                config=config,
                contexts=contexts,
                plan=plan,
                workers=0 if backend == "serial" else workers,
            )
        result = run.run()
        if self.stats is not None:
            total, cross = run.traffic_totals()
            self.stats.observe_run(
                total,
                cross,
                run.boundary_bytes,
                run.barrier_rounds,
                run.setup_seconds,
                plan=plan,
            )
        return result

    # ------------------------------------------------------------------
    def open_session(
        self,
        network: Network,
        config: Optional[CongestConfig] = None,
    ) -> CongestSession:
        """Open an execution session on *network*.

        With ``config.session_mode == "persistent"`` and the ``"process"``
        backend this returns a
        :class:`repro.congest.sharding.workers.ProcessSession`: one worker
        pool and one shared-memory CSR mapping serve every ``execute`` of
        the session, re-armed between phases.  The in-process backends
        have no per-``execute`` setup worth keeping (the shard plan is
        already memoised per network), so every other combination returns
        the default per-call session.
        """
        config = config or CongestConfig()
        shards, strategy, backend = self.resolve_structure(config)
        if config.session_mode == "persistent" and backend == "process":
            # Imported lazily: workers.py needs this module's stepper.
            from repro.congest.sharding.workers import ProcessSession

            return ProcessSession(
                engine=self,
                network=network,
                config=config,
                shards=shards,
                strategy=strategy,
                partition_seed=self.partition_seed,
            )
        # Everything else — per-call mode, in-process backends, and any
        # invalid session mode (validated there) — gets the base session.
        return super().open_session(network, config)


register_engine(ShardedEngine())
