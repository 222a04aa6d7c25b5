"""Partition-parallel execution of the synchronous round loop.

:class:`ShardedEngine` (``engine="sharded"``) splits the network into ``k``
contiguous shards with
:func:`repro.congest.sharding.partition.partition_network` and steps each
shard's frontier independently within a round, exchanging the
messages that cross a shard boundary at the round barrier.  Per shard the
machinery is the vectorized engine's callback loop design — dense
CSR indices, reused inbox buffers, per-sender ``Inbound`` interning, an
incremental active frontier — restricted to the shard's owned nodes.

**The engine contract applies** (module docstring of
:mod:`repro.congest.engine`): outputs, round count and protocol
message/bit metrics — including the per-round trace — are bit-identical to
:class:`repro.congest.engine.ReferenceEngine` for every shard count, and
the model rules raise the same
:class:`repro.congest.errors.MessageSizeViolation` /
:class:`repro.congest.errors.CongestionViolation` types from the shard-local
drain.  Two mechanisms make the partition invisible:

* *Ordered delivery.*  Within one shard, nodes drain in ascending dense
  index, so a receiver's inbox arrives grouped by sender ascending — the
  contract order — for free.  Senders owned by *other* shards arrive at the
  barrier grouped by source shard, and delivery walks those groups (and the
  shard's own mail) in ascending shard order; the shards are contiguous
  blocks of the dense index, so that order *is* ascending-sender order and
  no inbox needs a sort.
* *Barrier-time aggregation.*  Round metrics are accumulated per shard and
  folded in ascending shard order at the barrier — sums for message/bit
  counts, ``max`` for the message-size peak — so the global
  :class:`repro.congest.metrics.RoundMetrics` equals the reference's
  regardless of how the round's work was interleaved.  The termination
  rule (no messages in flight, and all frontiers empty or a round run) is
  evaluated by the coordinator on the aggregated view, exactly like the
  single-shard engines.

Execution (:mod:`repro.congest.sharding.workers`): one long-lived worker
process per non-empty shard owns that shard's contexts, CSR slice and inbox
buffers; only boundary traffic crosses the round barrier, packed by
:mod:`repro.congest.sharding.wire` into flat arrays instead of pickled
per-message objects.  Requires the protocol object and all per-node state
to be picklable.  Model-rule violations cross the process boundary with
their in-process exception types; a worker that dies without reporting
raises :class:`repro.congest.errors.ShardWorkerError` instead of hanging
the barrier.  The workers always live in a
:class:`~repro.congest.sharding.workers.ProcessSession`: a composite
runner's session keeps them across its phases, and a direct
:meth:`ShardedEngine.execute` opens a one-shot session and closes it before
returning — the registry's shared engine singleton never holds live
workers.

Note that a *protocol* mutating shared instrumentation state in its
callbacks (for example a test harness appending to one global log) will
observe fully isolated per-worker copies; per-node outputs and metrics
remain bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.congest.config import CongestConfig
from repro.congest.engine import (
    _EMPTY_INBOX,
    CongestSession,
    Engine,
    RunResult,
    register_engine,
)
from repro.congest.errors import CongestionViolation, MessageSizeViolation
from repro.congest.message import Inbound
from repro.congest.metrics import RoundMetrics
from repro.congest.network import Network
from repro.congest.node import NodeContext, Protocol, reset_in_scope
from repro.congest.sharding.partition import ShardPlan


class _ShardState:
    """All mutable per-shard state of one sharded execution.

    A shard owns a subset of the dense indices; during a round it reads and
    writes only the contexts and inbox buffers of its owned nodes plus its
    own outbound buckets, which is the disjointness that lets each shard
    live in its own worker process with no shared mutable memory.
    """

    __slots__ = (
        "index",
        "owned",
        "started",
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
        # The owned nodes this phase started (its in-scope ones).
        self.started: List[int] = []
        self.frontier: List[int] = []
        # Shard-local deliveries (receiver owned by this shard), as the
        # callback loop's two parallel flat lists.
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


@dataclass
class SessionPhaseStats:
    """One ``execute`` of a session, as the session's stats record it."""

    label: str
    protocol_messages: int
    cross_shard_messages: int
    boundary_bytes: int
    barrier_rounds: int
    setup_seconds: float


class ShardingStats:
    """Cross-shard traffic accounting of one process session.

    Populated by the session, which exposes it as
    :attr:`repro.congest.engine.CongestSession.stats`; the E15 benchmark
    uses this to report the cut-edge message fraction and the serialized
    boundary traffic.  A worker failure records nothing here: it escapes
    the session as a :class:`repro.congest.errors.ShardWorkerError`.

    Attributes
    ----------
    boundary_bytes / barrier_rounds:
        Packed wire bytes shipped across round barriers and the number of
        barriers that shipped them.  Both stay zero for phases an empty
        network ran in-process.
    setup_seconds:
        Coordinator-side seconds spent on per-``execute`` setup (worker
        spawn, arming) summed over the recorded runs.
    shm_bytes:
        Bytes of CSR/owner tables held in the session's shared-memory
        mapping (zero outside process sessions).
    phases:
        Per-``execute`` partials (:class:`SessionPhaseStats`), appended by
        sessions in phase order; the counters above are the session totals.
    plan:
        The session's :class:`ShardPlan`, fixed when it opens.
    rearms / fused_phases:
        Pool-wide protocol ships (one per ``arm`` that crossed the pipes)
        and re-arms *elided* by ``execute_fused`` (``len(group) - 1`` per
        fused group).  A full ``DistNearCliqueRunner`` run records 2 and
        12: the sampling phase, then one group of the other 13.
    """

    # Read only by perfbench's _check_sharding and its sharding.recoveries row.
    retries = 0
    degradations = 0
    recovery_events = ()

    def __init__(self) -> None:
        self.protocol_messages = 0
        self.cross_shard_messages = 0
        self.boundary_bytes = 0
        self.barrier_rounds = 0
        self.setup_seconds = 0.0
        self.shm_bytes = 0
        self.rearms = 0
        self.fused_phases = 0
        self.plan: Optional[ShardPlan] = None
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
        self.protocol_messages += protocol_messages
        self.cross_shard_messages += cross_shard_messages
        self.boundary_bytes += boundary_bytes
        self.barrier_rounds += barrier_rounds
        self.setup_seconds += setup_seconds
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


class _ShardStepper:
    """The per-shard round machinery, independent of where shards live.

    Everything a single shard needs to start, step and drain its owned
    nodes: the dense context list, the shared inbox buffers, the routing
    tables and the model-rule knobs.  Each worker process
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
        inbox_buffers: Optional[List[List[Inbound]]] = None,
    ) -> None:
        self.protocol = protocol
        self.ctx_list = ctx_list
        self.index_of = index_of
        self.owner = owner
        # A session worker re-arms a fresh stepper per phase but keeps its
        # (empty-between-runs) inbox buffers, so passing them in avoids n
        # list allocations per phase.
        self.inbox_buffers: List[List[Inbound]] = (
            inbox_buffers
            if inbox_buffers is not None
            else [[] for _ in ctx_list]
        )

        budget = config.message_bit_budget
        self.budget = budget
        self.budget_limit: float = float("inf") if budget is None else budget

    # ------------------------------------------------------------------
    def drain(
        self,
        shard: _ShardState,
        ctx: NodeContext,
        round_index: int,
        rm: RoundMetrics,
    ) -> None:
        """Move one node's queued messages into the shard's delivery state.

        The callback loop's drain with one extra step: a receiver owned by
        another shard routes through the per-destination bucket exchanged at
        the barrier instead of the local pending lists.  Rule checks and
        accounting are identical.
        """
        sender = ctx.node_id
        outgoing = ctx._outgoing
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
            if len(messages) > 1:
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
        never started (:func:`repro.congest.node.reset_in_scope`); the
        started ones are kept on the shard for the output harvest.
        """
        rm = RoundMetrics(round_index=0)
        ctx_list = self.ctx_list
        on_start = self.protocol.on_start
        started = shard.started = reset_in_scope(
            self.protocol, ctx_list, shard.owned
        )
        for i in started:
            ctx = ctx_list[i]
            ctx._round = 0
            on_start(ctx)
        for i in started:
            ctx = ctx_list[i]
            if ctx._outgoing:
                self.drain(shard, ctx, 0, rm)
        shard.frontier = [i for i in started if not ctx_list[i]._halted]
        return rm

    def step_shard(self, shard: _ShardState, rounds: int) -> RoundMetrics:
        """One round for one shard: deliver, invoke the frontier, drain."""
        rm = RoundMetrics(round_index=rounds)
        buffers = self.inbox_buffers
        touched = shard.touched

        # --- delivery -----------------------------------------------------
        # Local pending and the barrier-routed boundary groups are walked in
        # ascending source-shard order, which over contiguous shards *is*
        # ascending-sender order: the boxes come out contract-ordered.
        remote_from = shard.remote_from
        own_index = shard.index
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
            for receiver_index, inbound in zip(group_indices, group_inbound):
                box = buffers[receiver_index]
                if not box:
                    touched.append(receiver_index)
                box.append(inbound)
            remote_from[source] = ([], [])
        shard.pending_index = []
        shard.pending_inbound = []
        shard.interned.clear()

        # --- invoke + drain ------------------------------------------------
        ctx_list = self.ctx_list
        on_round = self.protocol.on_round
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
                self.drain(shard, ctx, rounds, rm)
        if any_halted:
            shard.frontier = [i for i in frontier if not ctx_list[i]._halted]

        for i in touched:
            buffers[i].clear()
        del touched[:]
        return rm


class ShardedEngine(Engine):
    """Partition-parallel round loop; see the module docstring for details.

    Selectable as ``engine="sharded"``; the shard count is
    ``CongestConfig.shards``.  Traffic statistics live on the session
    (:attr:`repro.congest.engine.CongestSession.stats`).
    """

    name = "sharded"

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
        # A one-shot session: spawned, run and closed (workers reaped,
        # shared-memory segment unlinked) on every exit path.
        with self.open_session(network, config) as session:
            return session.execute(
                protocol,
                config=config,
                global_inputs=global_inputs,
                per_node_inputs=per_node_inputs,
                reuse_contexts=reuse_contexts,
            )

    # ------------------------------------------------------------------
    def open_session(
        self,
        network: Network,
        config: Optional[CongestConfig] = None,
    ) -> CongestSession:
        """Open a :class:`repro.congest.sharding.workers.ProcessSession`.

        One worker pool and one shared-memory CSR mapping serve every
        ``execute`` of the session, re-armed between phases.
        """
        config = config or CongestConfig()
        # Imported lazily: workers.py needs this module's stepper.
        from repro.congest.sharding.workers import ProcessSession

        return ProcessSession(
            engine=self, network=network, config=config, shards=config.shards
        )


register_engine(ShardedEngine())
