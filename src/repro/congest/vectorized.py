"""Columnar gather/apply/scatter execution of protocol phases.

The callback engines drive per-node callbacks: ``on_start`` once, then
``on_round`` once per non-halted node per round.  For phases whose
sends all go through pipelined Outbox queues, that dispatch is mostly
interpreter overhead: the round loop calls Python functions that flush one
queued message or fold an inbox whose timing follows from the queues alone
— a closed form in stream lengths and tree depths, even where a node waits
on its subtree (a node's up-stream starts the round after the last of the
streams it waits on ends).

This module splits such a phase into the three stages of the classic
vertex-centric decomposition (GraVF's ``core_apply`` / ``core_scatter``
split; DGL's gSpMM kernels):

``gather``
    The inbox fold, computed from the senders' columns and their CSR rows
    (:meth:`KernelFrame.neighbor_slice`, :attr:`KernelFrame.indptr` /
    :attr:`~KernelFrame.indices`) instead of from delivered messages.
``apply``
    Numpy updates of packed per-node registers: the halted flags
    (:attr:`KernelFrame.halted`), round counter and any phase-specific
    columns, folded back into the
    :class:`~repro.congest.node.NodeContext` of every started node that
    has one.  A node without a context keeps its flag in the registry's
    column (:class:`repro.congest.network.ContextRegistry`), so a kernel
    touches only the nodes it writes.
``scatter``
    Outbox emission without messages: every phase the kernels cover sends
    through :class:`repro.primitives.pipelines.Outbox` queues, drained one
    item per queue per round.  A kernel describes its traffic as *streams*
    — sender, receiver or "all neighbours", first round, and a column of
    per-item bit charges — and :meth:`KernelFrame.run_schedule` turns them
    into the exact per-round trace, quiescence and model-rule errors the
    callbacks would have produced.  This is the one schedule every kernel
    uses: the neighbourhood broadcasts (comp-dissemination, k-announce)
    hand it one ``push_all`` stream per sender, and the one tree kernel of
    :mod:`repro.core.phases`, which runs all seven tree phases through the
    hooks their callbacks run, times their point-to-point queues with an
    :class:`OutboxSchedule`, which also delivers each item to the kernel in
    the callbacks' arrival order (round, receiver, sender).

A protocol opts in by returning a :class:`VectorizedKernel` from
:meth:`repro.congest.node.Protocol.vectorized_kernel`;
:class:`VectorizedEngine` (``engine="vectorized"``, the default) executes
it over the whole frontier as array operations and **runs the CSR callback
loop** for every protocol that declares no kernel — so a composite pipeline
mixes kernel-covered and callback phases freely.  The ``on_round`` path
remains the executable semantics: the differential suite holds the kernels
to bit-identity — outputs, per-node state, round count, message/bit metrics
including the per-round trace — against :class:`ReferenceEngine`, exactly
like every other backend.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from itertools import groupby
from operator import itemgetter
from typing import (
    Any,
    DefaultDict,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.congest.config import CongestConfig
from repro.congest.engine import (
    _EMPTY_INBOX,
    Engine,
    RunResult,
    coordinator_should_stop,
    harvest_outputs,
    merge_startup_metrics,
    register_engine,
)
from repro.congest.errors import (
    CongestionViolation,
    MessageSizeViolation,
    RoundLimitExceeded,
)
from repro.congest.message import Inbound
from repro.congest.metrics import RoundMetrics, RunMetrics
from repro.congest.network import ContextRegistry, Network
from repro.congest.node import NodeContext, Protocol, reset_in_scope


#: The receivers of a stream pushed to every neighbour (``Outbox.push_all``).
ALL_NEIGHBORS = -1

#: ``(sender, receivers, first round, per-item bits)``; see
#: :meth:`KernelFrame.run_schedule`.
Stream = Tuple[int, Union[int, Tuple[int, ...]], int, Sequence[int]]


class VectorizedKernel:
    """A columnar execution plan for one protocol phase.

    :meth:`execute` receives a :class:`KernelFrame` and must reproduce, via
    array operations and direct state writes, exactly what the protocol's
    callbacks would have done under the reference engine: the same per-node
    ``state`` / ``output`` mutations, the same halt decisions (recorded in
    ``frame.halted``), the same RNG consumption, and the same message
    traffic (described to :meth:`KernelFrame.run_schedule`, which derives
    the bit-identical per-round metrics).  Kernels fit phases whose sends
    follow the Outbox discipline, so that their timing can be derived from
    the queues alone.
    """

    def execute(self, frame: "KernelFrame") -> None:
        raise NotImplementedError


class KernelFrame:
    """Packed per-node registers plus the CSR views a kernel computes over.

    One frame is built per ``execute`` by :class:`VectorizedEngine`; the
    kernel mutates contexts/registers through it and the engine folds the
    registers back before harvesting outputs.

    Attributes
    ----------
    indptr / indices / degrees:
        The network CSR as int64 numpy arrays (the neighbours of dense
        index ``i`` are the dense indices ``indices[indptr[i]:indptr[i+1]]``,
        ascending).
    contexts / live:
        The network's :class:`~repro.congest.network.ContextRegistry` and
        its built contexts, keyed by dense index in ascending (= reference
        iteration) order, which kernels must follow wherever per-node work
        consumes randomness or builds ordered state.
    node_ids / index_of:
        ``node_ids[i]`` is the node id at dense index ``i`` (Python ints);
        ``index_of`` maps it back.
    started:
        Dense indices of the built contexts in the protocol's
        :attr:`~repro.congest.node.Protocol.scope`, ascending (every built
        one for an unscoped protocol).  A kernel does the ``on_start`` work
        of exactly these nodes; the others in scope are nodes without a
        context and with an empty state, which exist only under an unscoped
        protocol.  A kernel either covers those with column writes or
        builds the ones it writes with :meth:`touch`.
    halted:
        Packed halt register (bool column, the registry's own), preset for
        the out-of-scope nodes.  A kernel marks the nodes the callbacks
        would have halted in ``on_start``; the covered phases never halt
        mid-phase (their receivers stay active until global quiescence), so
        one column captures the whole run.
    rounds / metrics:
        Filled by :meth:`run_schedule`.
    """

    def __init__(
        self,
        network: Network,
        protocol: Protocol,
        config: CongestConfig,
        contexts: ContextRegistry,
    ) -> None:
        self.network = network
        self.protocol = protocol
        self.config = config
        self.contexts = contexts
        #: The numpy module, so kernels in protocol modules can use array
        #: operations without importing numpy themselves.
        self.np = np
        self.indptr, self.indices = network.csr_numpy()
        self.node_ids = contexts.ids
        self.index_of = network.node_index_of
        self.n = len(self.node_ids)
        self.live = contexts.live
        self.started: List[int] = reset_in_scope(protocol, self.live, self.live)
        # Without a scope every node starts, built or not; with one, only
        # the started contexts are in it.
        self.halted = contexts.halted
        self.halted.fill(protocol.scope is not None)
        self.halted[self.started] = False
        self.rounds = 0
        self.metrics = RunMetrics()

    @functools.cached_property
    def degrees(self) -> Any:
        """Per-node degree column (built on first use)."""
        return np.diff(self.indptr)

    def touch(self, index: int) -> NodeContext:
        """The context of the started node at *index*, built if it has none.

        A node built here joins :attr:`started` (appended, so that list is
        no longer ascending) and is folded back and harvested like the rest.
        """
        ctx = self.live.get(index)
        if ctx is None:
            ctx = self.contexts.at(index)
            self.started.append(index)
        return ctx

    def blank_fill(self) -> Any:
        """What the started nodes without a context report.

        ``None`` under a scope (they are out of it); otherwise the
        protocol's report for one such node, which is the report for all:
        a kernel leaves a node without a context only when its ``on_start``
        would have written nothing.
        """
        live = self.contexts.live
        if self.protocol.scope is None and len(live) < self.n:
            blank = next(i for i in range(self.n) if i not in live)
            return self.protocol.collect_output(
                self.contexts.peek(self.node_ids[blank])
            )
        return None

    def neighbor_slice(self, dense_index: int) -> "Any":
        """Dense indices of one node's neighbours (ascending)."""
        return self.indices[self.indptr[dense_index] : self.indptr[dense_index + 1]]

    # ------------------------------------------------------------------
    # scatter: the stream schedule
    # ------------------------------------------------------------------
    def outbox_schedule(self) -> "OutboxSchedule":
        """Point-to-point queues for this frame's :meth:`run_schedule`."""
        return OutboxSchedule(self.halted, self.config.max_rounds)

    def run_schedule(self, streams: Sequence[Stream]) -> int:
        """Account a phase's traffic, given as Outbox-discipline streams.

        ``streams[k] = (sender, receivers, first, bits)``: dense sender
        index; a tuple of dense receiver indices, one queue each, or
        :data:`ALL_NEIGHBORS` (an ``Outbox.push_all`` stream, one queue per
        neighbour); the round its first item leaves on every one of those
        queues; and the column of per-item bit charges, item ``p`` leaving
        in round ``first + p``.  A sender's queues appear in the order they
        were created.  The phase quiesces one
        round after the last send, and the kernels' streams leave no silent
        round before it (each starts in round 1 or in the round a message
        arrives).  This method reproduces the callback engines exactly:

        * round count ``last + 1``, or ``1`` when nothing is sent but
          nodes are active, or ``0`` when every node halted in
          ``on_start``;
        * per-round trace: messages/bits/peak size from the columns (one
          message per queue per round), ``active_nodes`` constant at the
          non-halted count (the covered phases never halt after
          ``on_start``);
        * the bit budget, enforced in the drain order (round, then sender,
          then the sender's queue order), raising the same
          :class:`MessageSizeViolation`; congestion holds by construction;
        * ``max_rounds``: :class:`RoundLimitExceeded` exactly when the
          callback loop would have started round ``max_rounds + 1``; a
          size violation wins when its round is within the cap.

        Returns the round count (also stored in :attr:`rounds`).
        """
        active = int(self.n - int(self.halted.sum()))
        if active == 0:
            # Everyone halted at on_start with nothing queued: the loop
            # breaks before executing a single round.
            self.rounds = 0
            return 0
        send_rounds: List[int] = []
        flat_bits: List[int] = []
        lengths: List[int] = []
        queues: List[int] = []
        for sender, receivers, first, column in streams:
            if receivers == ALL_NEIGHBORS:
                count = int(self.degrees[sender])
            else:
                count = len(receivers)
            if count and column:
                send_rounds += range(first, first + len(column))
                flat_bits += column
                lengths.append(len(column))
                queues.append(count)
        last = max(send_rounds) if send_rounds else 0
        rounds = last + 1

        max_rounds = self.config.max_rounds
        budget = self.config.message_bit_budget
        if budget is not None and flat_bits and max(flat_bits) > budget:
            self._check_budget(streams, budget, max_rounds)
        if max_rounds is not None and rounds > max_rounds:
            raise RoundLimitExceeded(max_rounds)

        msgs_by_round = bits_by_round = peak_by_round = None
        if last:
            at = np.array(send_rounds, dtype=np.int64)
            sizes = np.array(flat_bits, dtype=np.int64)
            copies = np.repeat(np.array(queues, dtype=np.float64), lengths)
            msgs_by_round = np.bincount(at, weights=copies, minlength=last + 1)
            if not msgs_by_round[1:].all():
                raise AssertionError(
                    "stream schedule has a silent round before its last send"
                )
            bits_by_round = np.bincount(at, weights=copies * sizes, minlength=last + 1)
            peak_by_round = np.zeros(last + 1, dtype=np.int64)
            np.maximum.at(peak_by_round, at, sizes)

        for round_index in range(1, rounds + 1):
            rm = RoundMetrics(round_index=round_index)
            if round_index <= last:
                rm.messages_sent = int(msgs_by_round[round_index])
                rm.bits_sent = int(bits_by_round[round_index])
                rm.max_message_bits = int(peak_by_round[round_index])
            rm.active_nodes = active
            self.metrics.absorb_round(rm)
        self.rounds = rounds
        return rounds

    def _check_budget(
        self, streams: Sequence[Stream], budget: int, max_rounds: Optional[int]
    ) -> None:
        """Raise the violation the drain would hit first, if within the cap.

        The drain walks rounds ascending, senders ascending within a round,
        and a sender's queues in creation order; a ``push_all`` stream's
        first queue is the sender's lowest-id neighbour.
        """
        queue_order: Dict[Tuple[int, int], int] = {}
        first_over = None
        for sender, receivers, first, column in streams:
            if receivers == ALL_NEIGHBORS:
                if not self.degrees[sender]:
                    continue
                receivers = (ALL_NEIGHBORS,)
            orders = [
                (queue_order.setdefault((sender, receiver), len(queue_order)), receiver)
                for receiver in receivers
            ]
            if not orders:
                continue
            order, receiver = min(orders)
            for position, bits in enumerate(column):
                if bits > budget:
                    key = (first + position, sender, order, receiver, bits)
                    if first_over is None or key < first_over:
                        first_over = key
                    break
        if first_over is None:  # pragma: no cover - the caller saw one
            return
        round_index, sender, _order, receiver, bits = first_over
        if max_rounds is not None and round_index > max_rounds:
            return
        if receiver == ALL_NEIGHBORS:
            receiver = int(self.neighbor_slice(sender)[0])
        raise MessageSizeViolation(
            self.node_ids[sender], self.node_ids[receiver], bits, budget, round_index
        )

    # ------------------------------------------------------------------
    # apply: fold the packed registers back into the contexts
    # ------------------------------------------------------------------
    def fold_back(self) -> List[NodeContext]:
        """Write the packed halt register back into the started contexts.

        The out-of-scope contexts were marked halted when the frame was
        built and the kernel never touches them; a started one gets the
        halt flag its callbacks would have left (its outbox was emptied
        when the frame was built, and kernels send nothing through it).
        The nodes without a context keep theirs in the column itself.  State
        dicts, outputs and RNGs were mutated in place by the kernel, so a
        ``reuse_contexts`` successor phase — kernel or callback — observes
        exactly the state the callbacks would have left.  The engine
        aligns the round counters when it harvests the outputs.  Returns
        the started contexts.
        """
        live = self.live
        started = [live[index] for index in self.started]
        for ctx, halted in zip(started, self.halted[self.started].tolist()):
            ctx._halted = halted
        return started


class OutboxSchedule:
    """Outbox-discipline timing of point-to-point queues, without messages.

    One FIFO per (sender, receiver), as in
    :class:`repro.primitives.pipelines.Outbox`: items pushed in round ``r``
    (``on_start`` counts as round 1, its first flush) leave one per round,
    the first no earlier than ``r`` and no earlier than the round after
    the queue's previous item.  :meth:`push` records a push as streams for
    :meth:`KernelFrame.run_schedule` — one for each run of receivers whose
    queues start in the same round, so usually one — and files each item
    for delivery one round after it leaves; :meth:`deliveries` hands the
    items back in the callbacks' order.  A
    receiver that is halted (or out of scope) drops its mail, as in the
    callback engines.
    """

    def __init__(self, halted: Any, max_rounds: Optional[int]) -> None:
        self.streams: List[Stream] = []
        self._halted = halted
        self._max_rounds = max_rounds
        self._last: Dict[Tuple[int, int], int] = {}
        self._arrivals: DefaultDict[int, List[Tuple[Any, ...]]] = defaultdict(list)

    def push(
        self,
        sender: int,
        receivers: Sequence[int],
        round_index: int,
        bits: Sequence[int],
        sends: Sequence[Tuple[Any, str, Any]],
    ) -> None:
        """Queue the items (``bits``/``sends`` entries) for each receiver.

        An item of *sends* is a ``(receivers, kind, payload)`` triple, of
        which the kind and the payload (a tuple) are delivered.  Receivers
        are taken in order, as ``Outbox.push`` loops would queue them; a
        receiver listed twice gets the items twice.
        """
        last_of = self._last
        arrivals = self._arrivals
        count = len(bits)
        run: List[int] = []
        run_first = 0
        for receiver in receivers:
            key = (sender, receiver)
            last = last_of.get(key, 0)
            first = round_index if round_index > last else last + 1
            last_of[key] = first + count - 1
            if first != run_first:
                if run:
                    self.streams.append((sender, tuple(run), run_first, bits))
                run = []
                run_first = first
            run.append(receiver)
            arrival = first + 1
            for _to, kind, payload in sends:
                # One flat tuple, which the collector untracks at once: a
                # nested one can outlive two collections and load the oldest
                # generation.
                arrivals[arrival].append((receiver, sender, kind) + payload)
                arrival += 1
        if run:
            self.streams.append((sender, tuple(run), run_first, bits))

    def deliveries(self) -> Iterator[Tuple[int, int, Iterable[Tuple[Any, ...]]]]:
        """Yield ``(round, receiver, inbox)``; ``inbox`` holds
        ``(receiver, sender, kind, *payload)`` entries, to be read before the
        next step of the iteration.

        Rounds ascend, receivers ascend within a round and each inbox is
        sorted by sender: the order in which the callback engines run
        ``on_round``.  Pushes made while iterating are delivered in later
        rounds.  Nothing past ``max_rounds`` is delivered: the callback
        loop stops there with :class:`RoundLimitExceeded`, which
        :meth:`KernelFrame.run_schedule` then raises.
        """
        arrivals = self._arrivals
        halted = self._halted
        round_index = 1
        while arrivals:
            round_index += 1
            if self._max_rounds is not None and round_index > self._max_rounds:
                return
            bucket = arrivals.pop(round_index, None)
            if not bucket:
                continue
            # (receiver, sender) is unique within a round: one item per
            # queue per round.
            bucket.sort()
            for receiver, inbox in groupby(bucket, itemgetter(0)):
                if not halted[receiver]:
                    yield round_index, receiver, inbox


class VectorizedEngine(Engine):
    """The single-process fast path; see the module docstring.

    ``execute`` asks the protocol for a :class:`VectorizedKernel`; with one
    the phase runs columnar, otherwise it runs on the callback loop
    (:class:`_CallbackStepper`) described in :mod:`repro.congest.engine`.
    """

    name = "vectorized"

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
        kernel: Optional[VectorizedKernel] = None
        maker = getattr(protocol, "vectorized_kernel", None)
        if callable(maker):
            kernel = maker()
        contexts = network.build_contexts(
            global_inputs=global_inputs,
            per_node_inputs=per_node_inputs,
            fresh=not reuse_contexts,
        )
        if kernel is None:
            return self._execute_callbacks(network, protocol, config, contexts)
        frame = KernelFrame(network, protocol, config, contexts)
        kernel.execute(frame)
        outputs = harvest_outputs(
            protocol, contexts, frame.rounds, frame.fold_back(), frame.blank_fill()
        )
        return RunResult(outputs=outputs, metrics=frame.metrics, contexts=contexts)

    def _execute_callbacks(
        self,
        network: Network,
        protocol: Protocol,
        config: CongestConfig,
        contexts: ContextRegistry,
    ) -> RunResult:
        """Run a kernel-less protocol: one :class:`_CallbackStepper`, every node."""
        started = contexts.start(protocol)
        live = contexts.live
        stepper = _CallbackStepper(protocol, config, live, network.node_index_of)
        startup_metrics = stepper.start(started)
        metrics = RunMetrics()
        rounds = 0
        while not coordinator_should_stop(
            not stepper.frontier, len(stepper.pending[0]), rounds, config.max_rounds
        ):
            rounds += 1
            round_metrics = stepper.step(rounds, (stepper.pending,))
            if rounds == 1:
                merge_startup_metrics(round_metrics, startup_metrics)
            metrics.absorb_round(round_metrics)
        outputs = harvest_outputs(
            protocol, contexts, rounds, map(live.__getitem__, started)
        )
        return RunResult(outputs=outputs, metrics=metrics, contexts=contexts)


#: ``(dense receiver indices, Inbound)`` as two parallel flat lists, to
#: avoid a tuple per message.
MailGroup = Tuple[List[int], List[Inbound]]


class _CallbackStepper:
    """The callback round loop over dense indices: the only one.

    :class:`VectorizedEngine` drives it over every node for a protocol
    without a kernel; each worker process of the sharded engine
    (:mod:`repro.congest.sharding.workers`) drives one over its shard's
    owned nodes.  The caller owns the termination rule
    (:func:`~repro.congest.engine.coordinator_should_stop`) and the round
    metrics' fold; the stepper owns delivery, the callbacks, the model
    rules and the active frontier.

    *contexts* maps a dense index to its context (the registry's live
    contexts, or a worker's dense list).  With an *owner* table (dense
    index → shard) the stepper runs shard *shard* of *n_shards*: a message
    to a node owned by another shard goes to that shard's outbound bucket
    in :attr:`out_buckets` instead of :attr:`pending`.

    Attributes
    ----------
    pending:
        Mail for this stepper's own nodes, to deliver next round.
    out_buckets:
        Per destination shard, the mail for nodes it owns (sharded only).
    started / frontier:
        The nodes :meth:`start` started, and those of them not halted.
    remote_messages:
        Messages drained over the run that left the shard.
    """

    def __init__(
        self,
        protocol: Protocol,
        config: CongestConfig,
        contexts: Union[Dict[int, NodeContext], List[Optional[NodeContext]]],
        index_of: Dict[int, int],
        owner: Optional[Sequence[int]] = None,
        shard: int = 0,
        n_shards: int = 1,
    ) -> None:
        self.protocol = protocol
        self.contexts = contexts
        self.index_of = index_of
        self.owner = owner
        self.shard = shard
        self.budget = config.message_bit_budget
        # A disabled budget is modelled as an unexceedable limit so the hot
        # loop needs a single comparison instead of a None check per message.
        self.budget_limit: float = (
            float("inf") if self.budget is None else self.budget
        )
        self.pending: MailGroup = ([], [])
        self.out_buckets: List[MailGroup] = [([], []) for _ in range(n_shards)]
        # Per-sender Inbound intern caches, keyed by message object identity
        # and reset every round (the cache keeps its messages alive, so ids
        # cannot be recycled while an entry is live).
        self.interned: Dict[int, Dict[int, Inbound]] = {}
        self.started: List[int] = []
        self.frontier: List[int] = []
        self.remote_messages = 0

    def drain(self, ctx: NodeContext, round_index: int, rm: RoundMetrics) -> None:
        """Move one node's queued messages to their receivers' mail.

        Rule checks and accounting included; reuses the node's outbox dict.
        A receiver owned by another shard gets its message through that
        shard's outbound bucket, exchanged at the round barrier.
        """
        sender = ctx.node_id
        outgoing = ctx._outgoing
        budget_limit = self.budget_limit
        index_of = self.index_of
        owner = self.owner
        shard = self.shard
        out_buckets = self.out_buckets
        pending_index, pending_inbound = self.pending
        append_index = pending_index.append
        append_inbound = pending_inbound.append
        messages_seen = 0
        bits_seen = 0
        remote_seen = 0
        max_bits = rm.max_message_bits
        cache = self.interned.get(sender)
        if cache is None:
            cache = self.interned[sender] = {}
        cache_get = cache.get
        for receiver, messages in outgoing.items():
            if len(messages) > 1:
                raise CongestionViolation(sender, receiver, round_index)
            receiver_index = index_of[receiver]
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
                if owner is None or owner[receiver_index] == shard:
                    append_index(receiver_index)
                    append_inbound(inbound)
                else:
                    remote_seen += 1
                    bucket_index, bucket_inbound = out_buckets[owner[receiver_index]]
                    bucket_index.append(receiver_index)
                    bucket_inbound.append(inbound)
        outgoing.clear()
        rm.messages_sent += messages_seen
        rm.bits_sent += bits_seen
        rm.max_message_bits = max_bits
        self.remote_messages += remote_seen

    def start(self, started: List[int]) -> RoundMetrics:
        """Round 0: ``on_start`` the *started* nodes, then drain them.

        *started* are the in-scope nodes, already reset
        (:func:`repro.congest.node.reset_in_scope`); they are kept for
        the output harvest.  Returns the round-0 metrics.
        """
        rm = RoundMetrics(round_index=0)
        contexts = self.contexts
        on_start = self.protocol.on_start
        self.started = started
        for i in started:
            ctx = contexts[i]
            ctx._round = 0
            on_start(ctx)
        for i in started:
            ctx = contexts[i]
            if ctx._outgoing:
                self.drain(ctx, 0, rm)
        self.frontier = [i for i in started if not contexts[i]._halted]
        return rm

    def step(self, rounds: int, groups: Iterable[MailGroup]) -> RoundMetrics:
        """One round: deliver *groups*, invoke the frontier, drain it.

        The groups are delivered in the order given, so the caller hands
        them over in ascending sender order: the stepper's own
        :attr:`pending`, or for a shard its own pending and the groups
        routed to it at the barrier, in ascending source shard.
        """
        rm = RoundMetrics(round_index=rounds)
        # Inboxes exist only for this round's receivers.
        boxes: Dict[int, List[Inbound]] = {}
        for indices, inbounds in groups:
            for receiver_index, inbound in zip(indices, inbounds):
                box = boxes.get(receiver_index)
                if box is None:
                    boxes[receiver_index] = [inbound]
                else:
                    box.append(inbound)
        box_of = boxes.get
        self.pending = ([], [])
        self.interned.clear()

        contexts = self.contexts
        on_round = self.protocol.on_round
        frontier = self.frontier
        rm.active_nodes = len(frontier)
        any_halted = False
        for i in frontier:
            ctx = contexts[i]
            ctx._round = rounds
            on_round(ctx, box_of(i, _EMPTY_INBOX))
            if ctx._halted:
                any_halted = True
            if ctx._outgoing:
                self.drain(ctx, rounds, rm)
        if any_halted:
            self.frontier = [i for i in frontier if not contexts[i]._halted]
        return rm


register_engine(VectorizedEngine())
