"""Columnar gather/apply/scatter execution of regular protocol phases.

Every engine so far drives the same per-node callbacks: ``on_start`` once,
then ``on_round`` once per non-halted node per round.  For *regular* phases
— every node runs the same closed-form recipe, no data-dependent waiting —
that dispatch is pure interpreter overhead: at n ≥ 10⁴ the round loop spends
its time calling Python functions that mostly flush one queued message or
fold an inbox whose content is fully determined by the phase's inputs.

This module splits such a phase into the three stages of the classic
vertex-centric decomposition (GraVF's ``core_apply`` / ``core_scatter``
split; DGL's gSpMM kernels):

``gather``
    Segment-reductions of per-node columns over the CSR adjacency
    (:meth:`KernelFrame.count_flagged_neighbors` and friends) — the inbox
    fold, computed from the sender columns instead of delivered messages.
``apply``
    Numpy updates of packed per-node registers: the halted flags
    (:attr:`KernelFrame.halted`), round counter and any phase-specific
    columns, folded back into the
    :class:`~repro.congest.node.NodeContext` of every node the phase
    started (its in-scope nodes).
``scatter``
    Columnar outbox emission: a phase whose sends are enqueued at
    ``on_start`` and drained one-per-neighbour-per-round (the
    :class:`repro.primitives.pipelines.Outbox` discipline) is described by
    per-sender *streams* — interned message kind plus a column of per-item
    bit charges, the same kind-vocabulary idea
    :mod:`repro.congest.sharding.wire` uses on the process barrier — and
    :meth:`KernelFrame.run_broadcast_schedule` turns the streams into the
    exact per-round trace the callbacks would have produced.

A protocol opts in by returning a :class:`VectorizedKernel` from
:meth:`repro.congest.node.Protocol.vectorized_kernel`;
:class:`VectorizedEngine` (``engine="vectorized"``) executes it over the
whole frontier as array operations and **falls back to the batched callback
path** for every protocol that declares no kernel — so a composite pipeline
mixes kernel-covered and callback phases freely.  The ``on_round`` path
remains the executable semantics: the differential suite holds the kernels
to bit-identity — outputs, per-node state, round count, message/bit metrics
including the per-round trace — against :class:`ReferenceEngine`, exactly
like every other backend.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.congest.config import CongestConfig
from repro.congest.engine import (
    BatchedEngine,
    RunResult,
    harvest_outputs,
    register_engine,
)
from repro.congest.errors import MessageSizeViolation, RoundLimitExceeded
from repro.congest.metrics import RoundMetrics, RunMetrics
from repro.congest.network import Network
from repro.congest.node import NodeContext, Protocol, reset_in_scope


class VectorizedKernel:
    """A columnar execution plan for one regular protocol phase.

    :meth:`execute` receives a :class:`KernelFrame` and must reproduce, via
    array operations and direct state writes, exactly what the protocol's
    callbacks would have done under the reference engine: the same per-node
    ``state`` / ``output`` mutations, the same halt decisions (recorded in
    ``frame.halted``), the same RNG consumption, and the same message
    traffic (described to :meth:`KernelFrame.run_broadcast_schedule`, which
    derives the bit-identical per-round metrics).  Kernels fit phases whose
    rounds are *closed-form*; anything with data-dependent waiting belongs
    on the callback path.
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
    ids / indptr / indices / degrees:
        The network CSR as int64 numpy arrays (``ids[i]`` is the node id at
        dense index ``i``; neighbours of ``i`` are the dense indices
        ``indices[indptr[i]:indptr[i+1]]``, ascending).
    ctx_list:
        Contexts in dense-index (= ascending id) order — the iteration
        order of the reference engine, which kernels must follow wherever
        per-node work consumes randomness or builds ordered state.
    started:
        Dense indices of the nodes in the protocol's
        :attr:`~repro.congest.node.Protocol.scope`, ascending (every index
        for an unscoped protocol).  A kernel does the ``on_start`` work of
        exactly these nodes; the others are already halted.
    halted:
        Packed halt register (bool column), preset for the out-of-scope
        nodes.  A kernel marks the nodes the callbacks would have halted in
        ``on_start``; the covered phases never halt mid-phase (their
        receivers stay active until global quiescence), so one column
        captures the whole run.
    rounds / metrics:
        Filled by :meth:`run_broadcast_schedule`.
    """

    def __init__(
        self,
        network: Network,
        protocol: Protocol,
        config: CongestConfig,
        contexts: Dict[int, NodeContext],
    ) -> None:
        self.network = network
        self.protocol = protocol
        self.config = config
        self.contexts = contexts
        #: The numpy module, so kernels in protocol modules can use array
        #: operations without importing numpy themselves.
        self.np = np
        self.ids, self.indptr, self.indices = network.csr_numpy()
        self.degrees = np.diff(self.indptr)
        self.n = len(self.ids)
        self.ctx_list: List[NodeContext] = network.context_list
        self.started: List[int] = reset_in_scope(
            protocol, self.ctx_list, range(self.n)
        )
        self.halted = np.ones(self.n, dtype=bool)
        self.halted[self.started] = False
        self.rounds = 0
        self.metrics = RunMetrics()
        # Scatter-side kind vocabulary: append-only string → small-int
        # interning, the same idea the process barrier's wire format uses
        # (:class:`repro.congest.sharding.wire.WireEncoder`).  Streams carry
        # the interned id, not the string, so a broadcast of one kind over
        # thousands of senders costs one table entry.
        self._kind_table: Dict[str, int] = {}
        self._kind_names: List[str] = []
        #: Interned kind per stream of the last broadcast schedule, when the
        #: kernel supplied them (diagnostics only).
        self.stream_kinds: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # scatter: interning vocabulary
    # ------------------------------------------------------------------
    def intern_kind(self, kind: str) -> int:
        """Intern a message kind, mirroring the wire format's vocabulary."""
        kind_id = self._kind_table.get(kind)
        if kind_id is None:
            kind_id = len(self._kind_names)
            self._kind_table[kind] = kind_id
            self._kind_names.append(kind)
        return kind_id

    def kind_name(self, kind_id: int) -> str:
        return self._kind_names[kind_id]

    # ------------------------------------------------------------------
    # gather: segment reductions over the CSR
    # ------------------------------------------------------------------
    def count_flagged_neighbors(self, flags: "Any") -> "Any":
        """Per-node count of flagged neighbours (segment-reduce over CSR).

        ``flags`` is a boolean column indexed by dense node index; the
        result column holds ``|{w ∈ Γ(v) : flags[w]}|`` for every ``v`` —
        zero for isolated nodes and for nodes of a fully unflagged
        component, which is exactly the inbox-emptiness predicate the
        covered phases' receivers branch on.
        """
        if len(self.indices) == 0:
            return np.zeros(self.n, dtype=np.int64)
        prefix = np.concatenate(
            (
                np.zeros(1, dtype=np.int64),
                np.cumsum(flags[self.indices].astype(np.int64)),
            )
        )
        return prefix[self.indptr[1:]] - prefix[self.indptr[:-1]]

    def neighbor_slice(self, dense_index: int) -> "Any":
        """Dense indices of one node's neighbours (ascending)."""
        return self.indices[self.indptr[dense_index] : self.indptr[dense_index + 1]]

    # ------------------------------------------------------------------
    # scatter: closed-form pipelined broadcast accounting
    # ------------------------------------------------------------------
    def run_broadcast_schedule(
        self,
        senders: Sequence[int],
        streams: Sequence[Sequence[int]],
        kind_ids: Optional[Sequence[int]] = None,
    ) -> int:
        """Account an ``on_start``-enqueued pipelined broadcast phase.

        ``senders`` are dense indices in ascending order; ``streams[k]`` is
        the column of per-item bit charges sender ``senders[k]`` pushed to
        *every* neighbour via ``Outbox.push_all`` during ``on_start``
        (``kind_ids`` optionally carries the interned kind per stream, for
        diagnostics and future backends).  Under the Outbox discipline the
        item at position ``t-1`` is flushed — to all ``deg`` neighbours at
        once — in round ``t``, and the phase quiesces one round after the
        longest stream drains.  This method reproduces the callback
        engines' behaviour exactly:

        * round count ``T + 1`` for the longest stream ``T`` (one trailing
          silent round consumes the last deliveries, then quiescence), or
          ``1`` when nothing is queued but nodes are still active, or ``0``
          when every node halted in ``on_start``;
        * per-round trace: messages/bits from the columns, ``edges_used ==
          messages_sent`` (one message per pair), ``active_nodes`` constant
          at the non-halted count;
        * the model rules: the bit budget is enforced in the batched
          engine's drain order (round-ascending, then sender id), raising
          the same :class:`MessageSizeViolation`; congestion is satisfied
          by construction (one flush per neighbour per round);
        * ``max_rounds``: :class:`RoundLimitExceeded` exactly when the
          callback loop would have started round ``max_rounds + 1``.

        Returns the round count (also stored in :attr:`rounds`).
        """
        # Kept for introspection (tests, tracing, future compiled backends);
        # the metrics only need the bit columns.
        self.stream_kinds = list(kind_ids) if kind_ids is not None else None
        active = int(self.n - int(self.halted.sum()))
        lens = np.array([len(stream) for stream in streams], dtype=np.int64)
        longest = int(lens.max()) if len(lens) else 0
        if active == 0:
            # Everyone halted at on_start with nothing queued: the loop
            # breaks before executing a single round.
            self.rounds = 0
            return 0
        rounds = longest + 1

        # Error precedence mirrors the callback loop: an over-budget item at
        # queue position p is raised *during* round p + 1, while the round
        # cap is raised at the top of round max_rounds + 1 — so the size
        # violation wins exactly when its round is within the cap.
        max_rounds = self.config.max_rounds
        budget = self.config.message_bit_budget
        if budget is not None and any(
            bits > budget for stream in streams for bits in stream
        ):
            violation_round = 1 + min(
                position
                for stream in streams
                for position, bits in enumerate(stream)
                if bits > budget
            )
            if max_rounds is None or violation_round <= max_rounds:
                self._raise_budget_violation(senders, streams, budget)
        if max_rounds is not None and rounds > max_rounds:
            raise RoundLimitExceeded(max_rounds)

        degs = self.degrees[np.asarray(senders, dtype=np.int64)] if len(lens) else lens
        # messages per round t = sum of deg over streams with >= t items:
        # bincount the stream lengths (weighted by degree), then suffix-sum.
        counts = np.bincount(lens, weights=degs.astype(np.float64), minlength=longest + 1)
        msgs_by_round = np.cumsum(counts[::-1])[::-1]
        # bits per round via the flattened (position, degree * bits) pairs;
        # the per-round message-size peak via a segmented maximum.
        bits_by_round = np.zeros(longest + 1, dtype=np.float64)
        peak_by_round = np.zeros(longest + 1, dtype=np.int64)
        if longest:
            positions = np.concatenate(
                [np.arange(1, length + 1) for length in lens]
            )
            flat_bits = np.concatenate(
                [np.asarray(stream, dtype=np.int64) for stream in streams]
            )
            flat_weights = np.repeat(degs, lens) * flat_bits
            bits_by_round = np.bincount(
                positions, weights=flat_weights.astype(np.float64), minlength=longest + 1
            )
            np.maximum.at(peak_by_round, positions, flat_bits)

        keep_trace = self.config.record_round_metrics
        for round_index in range(1, rounds + 1):
            rm = RoundMetrics(round_index=round_index)
            if round_index <= longest:
                rm.messages_sent = int(msgs_by_round[round_index])
                rm.bits_sent = int(bits_by_round[round_index])
                rm.max_message_bits = int(peak_by_round[round_index])
                rm.edges_used = rm.messages_sent
            rm.active_nodes = active
            self.metrics.absorb_round(rm, keep_trace)
        self.rounds = rounds
        return rounds

    def _raise_budget_violation(
        self, senders: Sequence[int], streams: Sequence[Sequence[int]], budget: int
    ) -> None:
        """Raise exactly the violation the batched drain would have raised.

        The drain walks rounds ascending and, within a round, senders in
        frontier (ascending id) order; a sender's first queued receiver is
        its lowest-id neighbour (``push_all`` fills the outbox in neighbour
        order).
        """
        longest = max(len(stream) for stream in streams)
        for position in range(longest):
            for sender, stream in zip(senders, streams):
                if position < len(stream) and stream[position] > budget:
                    receiver_dense = int(self.neighbor_slice(sender)[0])
                    raise MessageSizeViolation(
                        int(self.ids[sender]),
                        int(self.ids[receiver_dense]),
                        int(stream[position]),
                        budget,
                        position + 1,
                    )
        raise AssertionError("no over-budget item found")  # pragma: no cover

    # ------------------------------------------------------------------
    # apply: fold the packed registers back into the contexts
    # ------------------------------------------------------------------
    def fold_back(self) -> None:
        """Write the packed halt register back into the started contexts.

        The out-of-scope contexts were marked halted when the frame was
        built and the kernel never touches them; a started one gets the
        halt flag its callbacks would have left and an empty outbox.  State
        dicts, outputs and RNGs were mutated in place by the kernel, so a
        ``reuse_contexts`` successor phase — kernel or callback — observes
        exactly the state the callbacks would have left.  The engine
        aligns the round counters when it harvests the outputs.
        """
        halted = self.halted.tolist()
        ctx_list = self.ctx_list
        for index in self.started:
            ctx = ctx_list[index]
            ctx._halted = halted[index]
            ctx._outgoing = {}


class VectorizedEngine(BatchedEngine):
    """Kernel fast paths over the batched machinery; see module docstring.

    ``execute`` asks the protocol for a :class:`VectorizedKernel`; with one
    the phase runs columnar, otherwise the call is
    exactly :class:`BatchedEngine.execute` — same CSR, frontier and drain
    machinery, so un-kernelled phases cost nothing extra.
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
        if kernel is None:
            return super().execute(
                network,
                protocol,
                config=config,
                global_inputs=global_inputs,
                per_node_inputs=per_node_inputs,
                reuse_contexts=reuse_contexts,
            )
        contexts = network.build_contexts(
            global_inputs=global_inputs,
            per_node_inputs=per_node_inputs,
            fresh=not reuse_contexts,
        )
        frame = KernelFrame(network, protocol, config, contexts)
        kernel.execute(frame)
        frame.fold_back()
        outputs = harvest_outputs(protocol, frame.ctx_list, frame.rounds)
        return RunResult(outputs=outputs, metrics=frame.metrics, contexts=contexts)


register_engine(VectorizedEngine())
