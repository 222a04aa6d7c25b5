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
:class:`repro.congest.engine.ReferenceEngine` for every shard count and
execution backend, and the model rules raise the same
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
  regardless of how the round's work was interleaved.  Termination (all
  frontiers empty, no messages in flight), quiescence and the stall counter
  are evaluated by the coordinator on the aggregated view, exactly like the
  single-shard engines.

Execution backends (``CongestConfig.shard_backend``)
----------------------------------------------------
``"serial"`` (the default)
    In-process execution: the shards step sequentially in ascending shard
    order — fully deterministic, which is what the differential harness
    runs, and the degradation target of a supervised process session.

``"process"``
    Multi-core execution (:mod:`repro.congest.sharding.workers`): one
    long-lived worker process per non-empty shard owns that shard's
    contexts, CSR slice and inbox buffers; only boundary traffic crosses
    the round barrier, packed by :mod:`repro.congest.sharding.wire` into
    flat arrays instead of pickled per-message objects.  Requires the
    protocol object and all per-node state to be picklable.  Model-rule
    violations cross the process boundary with their in-process exception
    types; a worker that dies without reporting raises
    :class:`repro.congest.errors.ShardWorkerError` instead of hanging the
    barrier.  The workers always live in a
    :class:`~repro.congest.sharding.workers.ProcessSession`: a composite
    runner's session keeps them across its phases, and a direct
    :meth:`ShardedEngine.execute` opens a one-shot session and closes it
    before returning — the registry's shared engine singleton never holds
    live workers.

Note that a *protocol* mutating shared instrumentation state in its
callbacks (for example a test harness appending to one global log) will
observe fully isolated per-worker copies under the process backend;
per-node outputs and metrics remain bit-identical in every backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.congest.config import CongestConfig
from repro.congest.engine import (
    _EMPTY_INBOX,
    CongestSession,
    Engine,
    RunResult,
    coordinator_should_stop,
    harvest_outputs,
    merge_startup_metrics,
    register_engine,
)
from repro.congest.errors import CongestionViolation, MessageSizeViolation
from repro.congest.message import Inbound
from repro.congest.metrics import RoundMetrics, RunMetrics
from repro.congest.network import ContextRegistry, Network
from repro.congest.node import NodeContext, Protocol, reset_in_scope
from repro.congest.sharding.partition import (
    ShardPlan,
    cached_partition,
)

#: Execution backends accepted by ``CongestConfig.shard_backend`` and the
#: engine's ``backend=`` constructor argument.
SHARD_BACKENDS: Tuple[str, ...] = ("serial", "process")


class _ShardState:
    """All mutable per-shard state of one sharded execution.

    A shard owns a subset of the dense indices; during a round it reads and
    writes only the contexts and inbox buffers of its owned nodes plus its
    own outbound buckets, which is the disjointness that makes process-mode
    execution possible with no shared memory at all.
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
    it stateless) and by process sessions, which expose an instance as
    :attr:`repro.congest.engine.CongestSession.stats`; the E14/E15
    benchmarks use this to report the cut-edge message fraction and the
    serialized boundary traffic of the process backend.

    Attributes
    ----------
    boundary_bytes / barrier_rounds:
        Packed wire bytes shipped across round barriers and the number of
        barriers that shipped them.  Only the process backend serializes
        boundary traffic, so both stay zero for the serial backend.
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
        The :class:`ShardPlan` of the latest recorded execution (``None``
        before the first).
    rearms / fused_phases:
        Pool-wide protocol ships (one per ``arm`` that crossed the pipes) and re-arms *elided* by the pipeline compiler's phase
        fusion (``len(group) - 1`` per fused group).  Under full fusion a
        composite's ``rearms`` stays strictly below its phase count — the
        invariant ``tests/test_sharding.py`` pins.
    worker_failures / timeouts / retries / degradations / recovery_events:
        The fault-tolerance ledger, populated by supervised process
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
        observer fires.
        """
        self.runs += 1
        self.protocol_messages += protocol_messages
        self.cross_shard_messages += cross_shard_messages
        self.boundary_bytes += boundary_bytes
        self.barrier_rounds += barrier_rounds
        self.setup_seconds += setup_seconds
        if plan is not None:
            self.plan = plan

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
    tables and the model-rule knobs.  The serial coordinator
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

        self.enforce = config.enforce_congestion
        budget = config.message_bit_budget
        self.budget = budget
        self.budget_limit: float = float("inf") if budget is None else budget
        self.fast_finished = type(protocol).finished is Protocol.finished

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

        The callback loop's drain with one extra step: a receiver owned by
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
    """One in-process sharded execution (the serial backend)."""

    def __init__(
        self,
        network: Network,
        protocol: Protocol,
        config: CongestConfig,
        contexts: ContextRegistry,
        plan: ShardPlan,
    ) -> None:
        super().__init__(
            protocol=protocol,
            config=config,
            ctx_list=contexts.materialize(),
            index_of=network.node_index_of,
            owner=plan.owner,
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

    # ------------------------------------------------------------------
    def _run_shards(self, step) -> List[RoundMetrics]:
        """Apply *step* to every non-empty shard, in ascending shard order."""
        return [step(shard) for shard in self.shards if shard.owned]

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

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        config = self.config
        protocol = self.protocol
        ctx_list = self.ctx_list
        metrics = RunMetrics()
        startup_metrics = RoundMetrics(round_index=0)
        in_flight = self._barrier(
            self._run_shards(self.start_shard), startup_metrics
        )
        startup_metrics.edges_used = 0  # startup edges are not counted
        startup_metrics.active_nodes = 0

        rounds = 0
        silent_rounds = 0
        while True:
            if self.fast_finished:
                all_done = not any(shard.frontier for shard in self.shards)
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
            round_metrics = RoundMetrics(round_index=rounds)
            if rounds == 1:
                merge_startup_metrics(round_metrics, startup_metrics)
            current_round = rounds
            in_flight = self._barrier(
                self._run_shards(
                    lambda shard: self.step_shard(shard, current_round)
                ),
                round_metrics,
            )
            metrics.absorb_round(round_metrics, config.record_round_metrics)

        outputs = harvest_outputs(
            protocol,
            self.contexts,
            rounds,
            (ctx_list[i] for shard in self.shards for i in shard.started),
        )
        return RunResult(outputs=outputs, metrics=metrics, contexts=self.contexts)


class ShardedEngine(Engine):
    """Partition-parallel round loop; see the module docstring for details.

    Selectable as ``engine="sharded"``.  The registry instance reads every
    knob from the configuration (``CongestConfig.shards``,
    ``CongestConfig.shard_backend``); constructor arguments override the
    configuration for callers that build their own instance (the E14/E15
    benchmarks, tests).

    Parameters
    ----------
    shards / backend:
        Shard count and execution backend (one of :data:`SHARD_BACKENDS`).
        ``None`` defers to the configuration.
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
        backend: Optional[str] = None,
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
        self.backend = backend
        self.stats: Optional[ShardingStats] = (
            ShardingStats() if collect_stats else None
        )

    # ------------------------------------------------------------------
    def resolve_structure(self, config: CongestConfig) -> Tuple[int, str]:
        """``(shards, backend)`` for *config* under this instance.

        Instance constructor arguments override the configuration's
        fields.  This is the single resolution used by :meth:`execute`,
        :meth:`open_session` and a process session's per-execute config
        validation, so the three can never drift.
        """
        shards = self.shards if self.shards is not None else config.shards
        backend = self.backend if self.backend is not None else config.shard_backend
        if backend not in SHARD_BACKENDS:
            raise ValueError(
                "unknown shard backend %r; available backends: %s"
                % (backend, ", ".join(SHARD_BACKENDS))
            )
        if shards < 1:
            raise ValueError("shards must be at least 1, got %r" % (shards,))
        return shards, backend

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
        shards, backend = self.resolve_structure(config)
        if backend == "process":
            # A one-shot session: spawned, run and closed (workers reaped,
            # shared-memory segment unlinked) on every exit path.
            with self.open_session(network, config) as session:
                result = session.execute(
                    protocol,
                    config=config,
                    global_inputs=global_inputs,
                    per_node_inputs=per_node_inputs,
                    reuse_contexts=reuse_contexts,
                )
            if self.stats is not None:
                totals = session.stats
                self.stats.observe_run(
                    totals.protocol_messages,
                    totals.cross_shard_messages,
                    totals.boundary_bytes,
                    totals.barrier_rounds,
                    totals.setup_seconds,
                    plan=session.plan,
                )
            return result
        plan = cached_partition(network, shards)
        contexts = network.build_contexts(
            global_inputs=global_inputs,
            per_node_inputs=per_node_inputs,
            fresh=not reuse_contexts,
        )
        run = _ShardedRun(
            network=network,
            protocol=protocol,
            config=config,
            contexts=contexts,
            plan=plan,
        )
        result = run.run()
        if self.stats is not None:
            total, cross = run.traffic_totals()
            self.stats.observe_run(total, cross, 0, 0, 0.0, plan=plan)
        return result

    # ------------------------------------------------------------------
    def open_session(
        self,
        network: Network,
        config: Optional[CongestConfig] = None,
    ) -> CongestSession:
        """Open an execution session on *network*.

        On the ``"process"`` backend this returns a
        :class:`repro.congest.sharding.workers.ProcessSession`: one worker
        pool and one shared-memory CSR mapping serve every ``execute`` of
        the session, re-armed between phases.  The serial backend has no
        per-``execute`` setup worth keeping (the shard plan is already
        memoised per network), so it gets the default session.
        """
        config = config or CongestConfig()
        shards, backend = self.resolve_structure(config)
        if backend == "process":
            # Imported lazily: workers.py needs this module's stepper.
            from repro.congest.sharding.workers import ProcessSession

            return ProcessSession(
                engine=self,
                network=network,
                config=config,
                shards=shards,
            )
        return super().open_session(network, config)


register_engine(ShardedEngine())
