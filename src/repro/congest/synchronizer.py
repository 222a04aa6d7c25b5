"""Asynchronous execution engine built on an alpha synchronizer.

Section 2 of the paper notes that because no processor crashes are assumed,
"any synchronous algorithm can be executed in an asynchronous environment
using a synchronizer" (Awerbuch's synchronizers, reference [3]).  This module
implements the classic *alpha* synchronizer on top of an event-driven
asynchronous message simulation and exposes it as a first-class execution
engine, :class:`AsyncEngine`, registered as ``engine="async"`` alongside
``"reference"`` and ``"batched"`` (see :mod:`repro.congest.engine`):

* every message (protocol payload, acknowledgement, or safety notification)
  experiences an independent random link delay;
* after a node's pulse-*k* protocol messages have all been acknowledged the
  node is *safe* for pulse *k* and announces this to its neighbours;
* a node generates its pulse-*k+1* messages only when it is safe for pulse
  *k* and has heard that all its neighbours are safe for pulse *k*.

The guarantee of the alpha synchronizer is that when a node executes pulse
*k + 1*, every pulse-*k* message addressed to it has already been delivered;
consequently the asynchronous execution computes exactly the same thing as
the synchronous one, at the cost of the acknowledgement / safety overhead
reported in the run's control-message fields.

**The engine contract applies.**  ``AsyncEngine`` is held to the same
differential contract as ``BatchedEngine`` (``tests/test_engine_equivalence``):
per-node outputs, the pulse count (== the synchronous round count), and the
protocol message/bit metrics — including the per-round trace — are
bit-identical to :class:`repro.congest.engine.ReferenceEngine`.  To meet the
inbox-ordering clause of that contract, each pulse's inbox is delivered
grouped by sender in ascending node-id order with per-sender messages in
send order, regardless of the randomized arrival order.  The model rules are
enforced at dispatch time with the same exception types as the synchronous
engines: a second message on an edge in one pulse raises
:class:`repro.congest.errors.CongestionViolation` and an oversized message
raises :class:`repro.congest.errors.MessageSizeViolation`.

Synchronizer overhead (one ack per payload message, one safety notification
per edge direction per pulse) is engine-specific and therefore *excluded*
from the protocol metrics; it is reported separately in
:attr:`repro.congest.metrics.RunMetrics.ack_messages` /
:attr:`repro.congest.metrics.RunMetrics.safety_messages` and summarised by
:attr:`repro.congest.metrics.RunMetrics.control_messages`.  Control messages
carry O(1) bits each and do not contribute to the bit totals.

Because the protocols in this package detect termination by network
quiescence (see :mod:`repro.congest.scheduler`), the number of pulses to
execute is determined up front: either supplied by the caller, or derived by
first executing the protocol synchronously on the batched fast path against
a snapshot of the per-node state, so the asynchronous replay starts from
exactly the state — including every per-node random generator — that a
direct synchronous run would have seen.
"""

from __future__ import annotations

import copy
import heapq
import pickle
import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.congest.config import CongestConfig
from repro.congest.engine import (
    BatchedEngine,
    Engine,
    RunResult,
    get_engine,
    register_engine,
)
from repro.congest.errors import (
    CongestionViolation,
    MessageSizeViolation,
    ProtocolError,
)
from repro.congest.message import Inbound
from repro.congest.metrics import RoundMetrics, RunMetrics
from repro.congest.network import ContextRegistry, Network
from repro.congest.node import NodeContext, Protocol

_PROTO = "proto"
_ACK = "ack"
_SAFE = "safe"

#: Engine used for the synchronous pre-run that derives the pulse budget.
_PULSE_BUDGET_ENGINE = BatchedEngine.name


@dataclass
class AsyncRunResult(RunResult):
    """Outcome of an asynchronous (synchronized) execution.

    A :class:`repro.congest.engine.RunResult` whose ``metrics`` cover the
    *protocol* traffic only (bit-identical to the synchronous engines, with
    the synchronizer's ack/safety overhead in the metrics' control fields),
    extended with the quantities that only exist asynchronously.

    Attributes
    ----------
    pulses:
        Number of synchronizer pulses executed; equals the synchronous round
        count when the pulse budget was derived automatically.
    completion_time:
        The simulated wall-clock time at which the last event was processed;
        with unit-mean link delays this is Theta(pulses) in expectation.
    """

    pulses: int = 0
    completion_time: float = 0.0

    # Convenience views kept from the pre-engine AsyncRunResult API.
    @property
    def protocol_messages(self) -> int:
        """Payload messages sent (== ``metrics.total_messages``)."""
        return self.metrics.total_messages

    @property
    def protocol_bits(self) -> int:
        """Payload bits sent (== ``metrics.total_bits``)."""
        return self.metrics.total_bits

    @property
    def control_messages(self) -> int:
        """Synchronizer overhead (== ``metrics.control_messages``)."""
        return self.metrics.control_messages


class _NodeRuntime:
    """Synchronizer bookkeeping for one node."""

    __slots__ = (
        "node_id",
        "pulse",
        "pending_acks",
        "safe",
        "safe_neighbors",
        "inbox_by_pulse",
        "done_generating",
    )

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.pulse = 0
        self.pending_acks: Dict[int, int] = {}
        self.safe: Dict[int, bool] = {}
        self.safe_neighbors: Dict[int, set] = {}
        # pulse -> [(sender, send_seq, Inbound)] in arrival order; sorted by
        # (sender, send_seq) at delivery to honour the inbox-ordering clause
        # of the engine contract.
        self.inbox_by_pulse: Dict[int, List[Tuple[int, int, Inbound]]] = {}
        self.done_generating = False


class _SynchronizedRun:
    """One event-driven alpha-synchronizer execution (all mutable state)."""

    def __init__(
        self,
        network: Network,
        protocol: Protocol,
        config: CongestConfig,
        contexts: ContextRegistry,
        pulse_budget: int,
        delay_rng: random.Random,
        min_delay: float,
        max_delay: float,
    ) -> None:
        self.network = network
        self.protocol = protocol
        self.config = config
        self.contexts = contexts
        #: Every context, built in one bulk pass (this engine walks them all).
        self.ctx_of: Dict[int, NodeContext] = dict(contexts.items())
        self.pulse_budget = pulse_budget
        self.delay_rng = delay_rng
        self.min_delay = min_delay
        self.max_delay = max_delay
        self.runtimes = {node_id: _NodeRuntime(node_id) for node_id in contexts}
        # One RoundMetrics per pulse; index 0 collects the on_start traffic,
        # which the engine contract folds into round 1.
        self.records = [
            RoundMetrics(round_index=k) for k in range(pulse_budget + 1)
        ]
        self.ack_messages = 0
        self.safety_messages = 0
        self._events: List[Tuple[float, int, Tuple]] = []
        self._event_seq = 0
        self._send_seq = 0
        self._now = 0.0

    # ------------------------------------------------------------------
    def run(self) -> AsyncRunResult:
        contexts = self.ctx_of
        protocol = self.protocol

        # Pulse 0: on_start plays the role of the first message generation.
        for ctx in contexts.values():
            ctx._reset_for_new_protocol()
            ctx._advance_round(0)
            protocol.on_start(ctx)
        for node_id, ctx in contexts.items():
            self._dispatch_pulse_output(node_id, ctx, pulse=0)

        if self.pulse_budget > 0:
            # Nodes that are already safe with no unsafe neighbours (for
            # example isolated nodes, which never receive an event) advance
            # here; everyone else advances from the event handlers.
            for node_id in contexts:
                self._try_advance(node_id)
            while self._events:
                when, _, event = heapq.heappop(self._events)
                self._now = when
                self._handle_event(event)

        metrics = RunMetrics()
        if self.pulse_budget >= 1:
            first, startup = self.records[1], self.records[0]
            first.messages_sent += startup.messages_sent
            first.bits_sent += startup.bits_sent
            if startup.max_message_bits > first.max_message_bits:
                first.max_message_bits = startup.max_message_bits
            for round_metrics in self.records[1:]:
                metrics.absorb_round(round_metrics, self.config.record_round_metrics)
        metrics.ack_messages = self.ack_messages
        metrics.safety_messages = self.safety_messages

        outputs = {
            node_id: protocol.collect_output(ctx)
            for node_id, ctx in contexts.items()
        }
        return AsyncRunResult(
            outputs=outputs,
            metrics=metrics,
            contexts=self.contexts,
            pulses=self.pulse_budget,
            completion_time=self._now,
        )

    # ------------------------------------------------------------------
    # event machinery
    # ------------------------------------------------------------------
    def _schedule(self, event: Tuple) -> None:
        delay = self.delay_rng.uniform(self.min_delay, self.max_delay)
        self._event_seq += 1
        heapq.heappush(self._events, (self._now + delay, self._event_seq, event))

    def _dispatch_pulse_output(
        self, node_id: int, ctx: NodeContext, pulse: int
    ) -> None:
        """Ship the messages a node queued while executing *pulse*.

        This is the async counterpart of the synchronous engines' collect
        step, and it enforces the same model rules with the same exception
        types: one message per edge direction per pulse
        (:class:`CongestionViolation`) and the per-message bit budget
        (:class:`MessageSizeViolation`).
        """
        config = self.config
        budget = config.message_bit_budget
        round_metrics = self.records[pulse]
        outgoing = ctx._collect_outgoing()
        count = 0
        for receiver, messages in outgoing.items():
            if config.enforce_congestion and len(messages) > 1:
                raise CongestionViolation(node_id, receiver, pulse)
            if pulse >= 1:
                # Round 1's edges_used excludes the on_start traffic, per
                # the reference engine's accounting convention.
                round_metrics.edges_used += 1
            for message in messages:
                bits = message.bits
                if budget is not None and bits > budget:
                    raise MessageSizeViolation(
                        node_id, receiver, bits, budget, pulse
                    )
                count += 1
                round_metrics.observe_message(bits)
                self._send_seq += 1
                self._schedule((_PROTO, node_id, receiver, pulse, self._send_seq, message))
        self.runtimes[node_id].pending_acks[pulse] = count
        if count == 0:
            self._mark_safe(node_id, pulse)

    def _mark_safe(self, node_id: int, pulse: int) -> None:
        runtime = self.runtimes[node_id]
        if runtime.safe.get(pulse):
            return
        runtime.safe[pulse] = True
        for neighbor in self.network.neighbors(node_id):
            self.safety_messages += 1
            self._schedule((_SAFE, node_id, neighbor, pulse))

    def _handle_event(self, event: Tuple) -> None:
        kind = event[0]
        if kind == _PROTO:
            _, sender, receiver, pulse, send_seq, message = event
            self.runtimes[receiver].inbox_by_pulse.setdefault(pulse, []).append(
                (sender, send_seq, Inbound(sender=sender, message=message))
            )
            self.ack_messages += 1
            self._schedule((_ACK, receiver, sender, pulse))
            self._try_advance(receiver)
        elif kind == _ACK:
            _, sender, receiver, pulse = event
            runtime = self.runtimes[receiver]
            runtime.pending_acks[pulse] -= 1
            if runtime.pending_acks[pulse] == 0:
                self._mark_safe(receiver, pulse)
            self._try_advance(receiver)
        elif kind == _SAFE:
            _, sender, receiver, pulse = event
            self.runtimes[receiver].safe_neighbors.setdefault(pulse, set()).add(sender)
            self._try_advance(receiver)
        else:  # pragma: no cover - defensive
            raise ProtocolError("unknown event kind %r" % (kind,))

    def _try_advance(self, node_id: int) -> None:
        """Execute the node's next pulse(s) while the synchronizer permits."""
        runtime = self.runtimes[node_id]
        ctx = self.ctx_of[node_id]
        protocol = self.protocol
        while True:
            if runtime.done_generating:
                return
            current = runtime.pulse
            next_pulse = current + 1
            if next_pulse > self.pulse_budget:
                runtime.done_generating = True
                return
            if not runtime.safe.get(current, False):
                return
            neighbors = self.network.neighbors(node_id)
            safe_neighbors = runtime.safe_neighbors.get(current, ())
            if len(safe_neighbors) < len(neighbors):
                return
            entries = runtime.inbox_by_pulse.pop(current, [])
            ctx._advance_round(next_pulse)
            if not protocol.finished(ctx):
                self.records[next_pulse].active_nodes += 1
                # Deliver grouped by sender (ascending) with per-sender
                # messages in send order, exactly like the sync engines.
                entries.sort(key=lambda entry: (entry[0], entry[1]))
                protocol.on_round(ctx, [entry[2] for entry in entries])
            runtime.pulse = next_pulse
            self._dispatch_pulse_output(node_id, ctx, pulse=next_pulse)


class AsyncEngine(Engine):
    """Asynchronous execution of a synchronous protocol, as an engine.

    Selectable as ``engine="async"``.  The execution is semantically the
    alpha synchronizer: outputs, pulse count and protocol metrics are
    bit-identical to :class:`repro.congest.engine.ReferenceEngine`, with the
    acknowledgement / safety overhead reported separately (see the module
    docstring).

    Parameters
    ----------
    pulses:
        Number of synchronizer pulses to execute.  ``None`` (the default,
        and the registry instance's mode) derives the budget by first
        running the protocol synchronously on the batched fast path against
        a snapshot of the per-node state; the snapshot is restored before
        the asynchronous replay, so the replay consumes exactly the state
        and randomness a direct synchronous run would have.  An explicit
        budget skips the pre-run (messages generated in the final pulse are
        sent but never consumed, as with any truncated execution).
    delay_seed:
        Seed of the per-run link-delay generator.  Delays only affect event
        order and :attr:`AsyncRunResult.completion_time`, never the outputs
        or the protocol metrics — that independence is what the async arm of
        the property suite asserts.
    min_delay / max_delay:
        Link delays are uniform on ``[min_delay, max_delay]``.
    """

    name = "async"

    def __init__(
        self,
        pulses: Optional[int] = None,
        delay_seed: int = 0,
        min_delay: float = 0.05,
        max_delay: float = 1.0,
    ) -> None:
        if min_delay <= 0 or max_delay < min_delay:
            raise ValueError("delays must satisfy 0 < min_delay <= max_delay")
        if pulses is not None and pulses < 0:
            raise ValueError("pulses must be non-negative when given")
        self.pulses = pulses
        self.delay_seed = delay_seed
        self.min_delay = min_delay
        self.max_delay = max_delay

    # ------------------------------------------------------------------
    def execute(
        self,
        network: Network,
        protocol: Protocol,
        config: Optional[CongestConfig] = None,
        global_inputs: Optional[Dict[str, Any]] = None,
        per_node_inputs: Optional[Dict[int, Dict[str, Any]]] = None,
        reuse_contexts: bool = False,
    ) -> AsyncRunResult:
        return self._run(
            network,
            protocol,
            config=config,
            global_inputs=global_inputs,
            per_node_inputs=per_node_inputs,
            reuse_contexts=reuse_contexts,
            delay_rng=random.Random(self.delay_seed),
        )

    # ------------------------------------------------------------------
    def _run(
        self,
        network: Network,
        protocol: Protocol,
        config: Optional[CongestConfig],
        global_inputs: Optional[Dict[str, Any]],
        per_node_inputs: Optional[Dict[int, Dict[str, Any]]],
        reuse_contexts: bool,
        delay_rng: random.Random,
    ) -> AsyncRunResult:
        config = config or CongestConfig()
        pulse_budget = self.pulses
        if pulse_budget is None:
            pulse_budget = self._derive_pulse_budget(
                network,
                protocol,
                config,
                global_inputs,
                per_node_inputs,
                reuse_contexts,
            )
        contexts = network.build_contexts(
            global_inputs=global_inputs,
            per_node_inputs=per_node_inputs,
            fresh=not reuse_contexts,
        )
        run = _SynchronizedRun(
            network=network,
            protocol=protocol,
            config=config,
            contexts=contexts,
            pulse_budget=pulse_budget,
            delay_rng=delay_rng,
            min_delay=self.min_delay,
            max_delay=self.max_delay,
        )
        return run.run()

    @staticmethod
    def _derive_pulse_budget(
        network: Network,
        protocol: Protocol,
        config: CongestConfig,
        global_inputs: Optional[Dict[str, Any]],
        per_node_inputs: Optional[Dict[int, Dict[str, Any]]],
        reuse_contexts: bool,
    ) -> int:
        """Measure the synchronous round count without disturbing the run.

        The pre-run executes on the batched fast path (bit-identical to the
        reference by contract, so the measured round count is exact) against
        snapshots of the protocol and the network's contexts; the
        network-level RNG state and the contexts are then restored, so the
        asynchronous replay draws the same per-node seeds and sees the same
        composite-pipeline state as a direct synchronous run.  Model-rule
        violations and round-limit/stall errors therefore surface from the
        pre-run with exactly the synchronous exception types.

        The snapshot is one ``pickle`` round trip of ``(contexts,
        protocol)`` rather than two ``copy.deepcopy`` calls: pickling walks
        the object graph in C and — because both live in one dump — keeps
        any protocol↔context aliasing intact.  E13 reports the setup-cost
        drop.  A protocol that cannot be pickled (locally defined classes,
        ad-hoc instrumentation) silently falls back to the ``deepcopy``
        path; every protocol in this package takes the fast path, as the
        sharded engine's process backend requires of protocols anyway.
        """
        rng_state = network._rng.getstate()
        # A fresh run rebuilds the contexts anyway (only the RNG state must
        # be rewound); the snapshot is needed only to preserve the state a
        # reused composite pipeline has accumulated.
        try:
            contexts_backup, protocol_snapshot = pickle.loads(
                pickle.dumps(
                    (network._contexts if reuse_contexts else None, protocol),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            )
        except Exception:
            contexts_backup = (
                copy.deepcopy(network._contexts) if reuse_contexts else None
            )
            protocol_snapshot = copy.deepcopy(protocol)
        prerun_config = replace(
            config, engine=_PULSE_BUDGET_ENGINE, record_round_metrics=False
        )
        try:
            prerun = get_engine(_PULSE_BUDGET_ENGINE).execute(
                network,
                protocol_snapshot,
                config=prerun_config,
                global_inputs=global_inputs,
                per_node_inputs=per_node_inputs,
                reuse_contexts=reuse_contexts,
            )
        finally:
            network._rng.setstate(rng_state)
            if contexts_backup is not None:
                network._install_contexts(contexts_backup)
        return prerun.metrics.rounds


class AlphaSynchronizer:
    """Pre-engine entry point for one asynchronous execution.

    Kept as a thin convenience wrapper around :class:`AsyncEngine` for
    callers that want to run one protocol asynchronously with explicit
    knobs (pulse budget, delay generator) without going through the engine
    registry.  New code should prefer ``run_protocol(..., engine="async")``.

    Parameters
    ----------
    network, protocol, config, global_inputs, per_node_inputs:
        As for :class:`repro.congest.scheduler.SynchronousScheduler`.
    pulses:
        Number of synchronizer pulses to execute.  ``None`` (default)
        derives the synchronous round count via the batched fast path, as
        :class:`AsyncEngine` does.
    delay_rng:
        Random source for link delays.  Delays are uniform on
        ``[min_delay, max_delay]``.
    """

    def __init__(
        self,
        network: Network,
        protocol: Protocol,
        config: Optional[CongestConfig] = None,
        global_inputs: Optional[Dict[str, Any]] = None,
        per_node_inputs: Optional[Dict[int, Dict[str, Any]]] = None,
        pulses: Optional[int] = None,
        delay_rng: Optional[random.Random] = None,
        min_delay: float = 0.05,
        max_delay: float = 1.0,
    ) -> None:
        # The engine constructor validates the delay window and pulses; it
        # is also the single owner of those knobs (see the properties).
        self._engine = AsyncEngine(
            pulses=pulses, min_delay=min_delay, max_delay=max_delay
        )
        self.network = network
        self.protocol = protocol
        self.config = config or CongestConfig()
        self.global_inputs = global_inputs
        self.per_node_inputs = per_node_inputs
        self.delay_rng = delay_rng or random.Random(0)

    @property
    def pulses(self) -> Optional[int]:
        return self._engine.pulses

    @property
    def min_delay(self) -> float:
        return self._engine.min_delay

    @property
    def max_delay(self) -> float:
        return self._engine.max_delay

    def run(self) -> AsyncRunResult:
        """Execute the protocol asynchronously and return the result."""
        return self._engine._run(
            self.network,
            self.protocol,
            config=self.config,
            global_inputs=self.global_inputs,
            per_node_inputs=self.per_node_inputs,
            reuse_contexts=False,
            delay_rng=self.delay_rng,
        )


register_engine(AsyncEngine())
