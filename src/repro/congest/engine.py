"""Pluggable execution engines for the synchronous round loop.

The round loop that drives a :class:`repro.congest.node.Protocol` over a
:class:`repro.congest.network.Network` is factored out of the scheduler into
an :class:`Engine` so that alternative executions (vectorized, sharded
backends) can be plugged in without touching protocol code.  Three engines
ship today:

``ReferenceEngine`` (``engine="reference"``)
    The original per-object round loop, moved here intact.  It is the
    executable definition of the simulator's semantics: one dict-backed
    inbox per node per round, every context visited every round, model
    rules enforced as messages are collected.  It is the oracle the
    differential suite compares every other engine against.

``VectorizedEngine`` (``engine="vectorized"``, the default; defined in
:mod:`repro.congest.vectorized`)
    The single-process fast path.  A protocol that declares a
    :class:`~repro.congest.vectorized.VectorizedKernel` (via
    :meth:`Protocol.vectorized_kernel`) runs columnar, over packed per-node
    registers and one stream schedule instead of per-node callbacks.  Every
    other protocol runs on the callback loop, which drives the same
    protocol callbacks as the reference but organises the bookkeeping
    around flat arrays and reuse:

    * node ids are mapped to dense indices (ascending id order), only the
      contexts a phase starts are built (see
      :class:`repro.congest.network.ContextRegistry`), and each round
      builds inboxes only for the nodes that receive mail;
    * a node's outbox dict is drained in place;
    * a protocol that declares a :attr:`~repro.congest.node.Protocol.scope`
      has only its in-scope nodes reset, started and harvested; the rest
      are marked halted (one column write for the nodes without a
      context) and report ``None``;
    * :class:`repro.congest.message.Inbound` wrappers are interned per
      round, so a broadcast of one message object to k neighbours allocates
      one wrapper instead of k;
    * an *active frontier* — the nodes that have not locally terminated —
      is maintained incrementally, so silent or halted regions of the graph
      cost nothing per round instead of O(n).

``ShardedEngine`` (``engine="sharded"``, defined in
:mod:`repro.congest.sharding`)
    Partition-parallel execution: the network is split into ``k`` shards
    (:func:`repro.congest.sharding.partition_network`) and one worker
    process per shard steps that shard's frontier with the callback loop
    itself (:class:`repro.congest.vectorized._CallbackStepper`, given an
    owner table).  Mail for another shard's nodes is exchanged at the round
    barrier as one pickled byte string per source and destination shard.

**The reference-vs-fast-path contract.**  For every protocol, graph, seed
and configuration, every non-reference engine must produce bit-identical
results to ``ReferenceEngine``: the same per-node outputs, the same round
count, and the same protocol message/bit metrics (including the per-round
trace).  The differential suite in
``tests/test_engine_equivalence.py`` asserts this for every protocol in the
package; any observable divergence is a bug in the backend, never a
tolerated approximation.  Two consequences for engine authors:

* inbox ordering is part of the contract — messages are delivered grouped
  by sender in ascending node-id order, multiple messages from one sender
  in send order — because protocols may fold their inbox in arrival order;
* the frontier may only skip work that provably has no observable effect:
  a halted node's ``on_round`` is never invoked (late messages are dropped,
  as in the reference), but a node that has not halted is always invoked,
  even with an empty inbox.

Protocols must treat the inbox list handed to ``on_round`` as borrowed: it
is only valid for the duration of the call and must not be mutated or
retained (the callback loop hands every node without mail one shared empty
tuple; no engine promises a fresh list).  Every protocol in this package
complies.

The active frontier relies on termination being "has this node halted",
which is monotone: a halted node never resumes.  Every round loop applies
the one termination rule of :mod:`repro.congest.scheduler` through
:func:`coordinator_should_stop`.

**Execution sessions.**  Composite pipelines (the 14-phase
``DistNearClique`` runner) execute many protocols on one network;
:meth:`Engine.open_session` returns a :class:`CongestSession` that owns
whatever engine state is worth keeping alive across those ``execute``
calls.  The default session is a thin wrapper (bit-identical to calling
the engine directly); the sharded engine keeps its
worker pool and shared-memory CSR mapping for the session's lifetime and
re-arms the workers between phases (:mod:`repro.congest.sharding.workers`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.congest.config import CongestConfig
from repro.congest.errors import (
    CongestionViolation,
    MessageSizeViolation,
    ProtocolError,
    RoundLimitExceeded,
)
from repro.congest.message import Inbound
from repro.congest.metrics import RoundMetrics, RunMetrics
from repro.congest.network import ContextRegistry, Network
from repro.congest.node import NodeContext, Protocol, in_scope

#: Shared inbox handed to nodes with no mail this round (fast path).  It is
#: a tuple, not a list, so a protocol that violates the borrowed-inbox
#: contract by mutating it fails loudly at the violation site instead of
#: leaking phantom messages into later runs.
_EMPTY_INBOX: Sequence[Inbound] = ()

_MISSING = object()


def coordinator_should_stop(
    all_halted: bool, in_flight: int, rounds: int, max_rounds: Optional[int]
) -> bool:
    """The termination rule, in one place.

    Evaluated at the top of every round by every round loop — on the
    barrier-aggregated view by the process coordinator
    (:class:`repro.congest.sharding.workers.ProcessShardedRun`) — so the
    engine contract's round counts cannot drift between them.  A run stops
    when no message is in flight and either every node has halted or at
    least one round has run; otherwise it raises
    :class:`RoundLimitExceeded` at the round cap.
    """
    if not in_flight and (all_halted or rounds > 0):
        return True
    if max_rounds is not None and rounds >= max_rounds:
        raise RoundLimitExceeded(max_rounds)
    return False


def merge_startup_metrics(round_metrics: RoundMetrics, startup: RoundMetrics) -> None:
    """Fold round-0 (``on_start``) traffic into the first round's metrics.

    Messages queued during ``on_start`` are delivered in round 1 and
    accounted to it, alongside whatever round 1 itself sent.
    """
    round_metrics.messages_sent += startup.messages_sent
    round_metrics.bits_sent += startup.bits_sent
    if startup.max_message_bits > round_metrics.max_message_bits:
        round_metrics.max_message_bits = startup.max_message_bits


def harvest_outputs(
    protocol: Protocol,
    contexts: ContextRegistry,
    rounds: int,
    started: Iterable[NodeContext],
    fill: Any = None,
) -> Dict[int, Any]:
    """Align every round counter, then collect the started nodes' outputs.

    The reference advances every context each round, so every node ends at
    the run's round count, halted or not: the registry sets its live
    contexts and its round register.  The outputs are keyed by every node
    id in ascending order with *fill* — ``None``, what an out-of-scope node
    reports, unless an unscoped kernel left started nodes without a context
    — and only the *started* nodes' entries are then filled in.
    """
    contexts.align_rounds(rounds)
    if fill is None:
        outputs = contexts.blank_outputs()
    else:
        outputs = dict.fromkeys(contexts, fill)
    return collect_outputs(protocol, started, outputs)


def collect_outputs(
    protocol: Protocol, started: Iterable[NodeContext], outputs: Dict[int, Any]
) -> Dict[int, Any]:
    """Fill *outputs* with the *started* nodes' reports.

    Straight from ``ctx.output`` when the protocol keeps the default
    :meth:`Protocol.collect_output`.
    """
    if type(protocol).collect_output is Protocol.collect_output:
        for ctx in started:
            outputs[ctx.node_id] = ctx.output
    else:
        collect = protocol.collect_output
        for ctx in started:
            outputs[ctx.node_id] = collect(ctx)
    return outputs


def _start_out_of_scope(protocol: Protocol, ctx: NodeContext) -> None:
    """``on_start`` for a node outside ``protocol.scope``, checked.

    The fast engines never start such a node, so its ``on_start`` may only
    halt it; anything else would make them diverge from this engine.
    """
    state = ctx.state
    before = dict(state)
    output = ctx.output
    protocol.on_start(ctx)
    broken = None
    if ctx._outgoing:
        broken = "sent a message"
    elif len(state) != len(before) or any(
        state.get(key, _MISSING) is not value for key, value in before.items()
    ):
        broken = "wrote its state"
    elif ctx.output is not output:
        broken = "wrote its output"
    elif not ctx._halted:
        broken = "did not halt"
    if broken is not None:
        raise ProtocolError(
            "protocol %r: node %r is outside the declared scope %r but %s "
            "in on_start (an out-of-scope node may only halt)"
            % (protocol.name, ctx.node_id, protocol.scope, broken)
        )


@dataclass
class RunResult:
    """Outcome of one protocol execution.

    Attributes
    ----------
    outputs:
        Mapping from node id to the value reported by
        :meth:`Protocol.collect_output` (by default the node's output
        register).
    metrics:
        Round / message / bit accounting for the run.
    contexts:
        The per-node contexts after the run (the network's
        :class:`~repro.congest.network.ContextRegistry`); composite
        protocols read intermediate per-node state from here.
        ``contexts.peek(v)`` reads a node without building its context.
    """

    outputs: Dict[int, Any]
    metrics: RunMetrics
    contexts: Mapping[int, NodeContext] = field(default_factory=dict)


class CongestSession:
    """Engine-owned execution state shared across ``execute`` calls.

    The paper's algorithm is a *composite* of ~14 pipelined CONGEST phases
    over one fixed network; an engine whose per-``execute`` setup is
    expensive (spawning the sharded engine's worker pool, shipping CSR
    slices) pays it once per phase unless something owns that setup across
    the phases.  A session is that owner: open it once per (network,
    configuration), run every phase through :meth:`execute`, and close it
    (sessions are context managers) to release whatever the engine kept
    alive.

    This base class is the **default session**: a thin wrapper that
    delegates straight to :meth:`Engine.execute`, so the semantics of the
    in-process engines are untouched — running a pipeline through a
    default session is byte-for-byte a sequence of direct executes.
    Engines with setup worth amortising override :meth:`Engine.open_session`
    to return a richer session (today:
    :class:`repro.congest.sharding.workers.ProcessSession`, for the sharded
    engine).  The engine contract is unchanged in either case:
    outputs, round counts and protocol metrics are bit-identical to
    ``ReferenceEngine`` in session mode, enforced by the differential
    suite's session arm.

    Attributes
    ----------
    network / config:
        The network the session is bound to and the configuration
        ``execute`` falls back to when none is passed per call.
    stats:
        Session-level accounting, or ``None`` when the engine collects
        none.  Process-backend sessions expose a
        :class:`repro.congest.sharding.ShardingStats` with per-phase
        partials and session totals.
    """

    def __init__(
        self,
        engine: "Engine",
        network: Network,
        config: Optional[CongestConfig] = None,
    ) -> None:
        self.engine = engine
        self.network = network
        self.config = config or CongestConfig()
        self.stats = None
        self.closed = False

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
        """Run one protocol within the session (same contract as the engine).

        ``config`` defaults to the configuration the session was opened
        with; a per-execute config is honoured, except that a process
        session's shard count is fixed at open time and a config naming
        another raises ``ValueError``.
        """
        if self.closed:
            raise ProtocolError("execute on a closed CongestSession")
        return self.engine.execute(
            self.network,
            protocol,
            config=config if config is not None else self.config,
            global_inputs=global_inputs,
            per_node_inputs=per_node_inputs,
            reuse_contexts=reuse_contexts,
        )

    def execute_fused(
        self,
        protocols: Sequence[Protocol],
        *,
        config: Optional[CongestConfig] = None,
        reuse_contexts: bool = True,
    ) -> List[RunResult]:
        """Run a fused group of protocols, returning one result per phase.

        The group executes sequentially in declared order — fusion is a
        *coordination* optimisation, never a semantic one — so this default
        implementation is simply an :meth:`execute` loop and is trivially
        bit-identical to unfused execution.  Sessions that pay per-phase
        coordination costs (the process session's re-arm and
        context fold-back) override it to elide those costs within the
        group; outputs, round counts and per-phase metrics must remain
        bit-identical, enforced by the differential suite.

        Inputs (globals, per-node state) are deliberately not accepted:
        fused groups always run mid-pipeline on already-armed contexts
        (``reuse_contexts=True``); a phase needing fresh inputs belongs at a
        group boundary, executed via :meth:`execute`.
        """
        if self.closed:
            raise ProtocolError("execute_fused on a closed CongestSession")
        if not protocols:
            return []
        return [
            self.execute(
                protocol,
                config=config,
                reuse_contexts=reuse_contexts,
            )
            for protocol in protocols
        ]

    def close(self) -> None:
        """Release session-held resources (idempotent)."""
        self.closed = True

    def __enter__(self) -> "CongestSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class Engine:
    """One strategy for executing a protocol to termination.

    Engines are stateless: all per-run state lives in local variables of
    :meth:`execute`, so a single engine instance may be shared freely across
    schedulers and threads.  State that must outlive one ``execute`` —
    worker pools, shared-memory mappings — belongs to a
    :class:`CongestSession` (see :meth:`open_session`), never to the engine.
    """

    #: Registry name (the value of ``CongestConfig.engine`` that selects it).
    name = "engine"

    def execute(
        self,
        network: Network,
        protocol: Protocol,
        config: Optional[CongestConfig] = None,
        global_inputs: Optional[Dict[str, Any]] = None,
        per_node_inputs: Optional[Dict[int, Dict[str, Any]]] = None,
        reuse_contexts: bool = False,
    ) -> RunResult:
        raise NotImplementedError

    def open_session(
        self,
        network: Network,
        config: Optional[CongestConfig] = None,
    ) -> CongestSession:
        """Open an execution session on *network* under *config*.

        The default implementation returns the thin
        :class:`CongestSession` — engines without per-``execute`` setup
        have nothing to persist.  Engines that do (the sharded engine)
        override this.
        """
        return CongestSession(self, network, config)


class ReferenceEngine(Engine):
    """The original per-object round loop — the semantics oracle."""

    name = "reference"

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
        contexts = network.build_contexts(
            global_inputs=global_inputs,
            per_node_inputs=per_node_inputs,
            fresh=not reuse_contexts,
        )
        ctx_list = contexts.materialize()
        metrics = RunMetrics()

        # Every node is started and harvested, in or out of the protocol's
        # scope, so this engine is the full-sweep oracle for the scoped fast
        # paths; an out-of-scope node is checked against the scope contract.
        scope = protocol.scope
        out_of_scope: List[NodeContext] = []
        # Messages queued during on_start are delivered in round 1; their
        # volume is accounted to that first round.
        startup_metrics = RoundMetrics(round_index=0)
        for ctx in ctx_list:
            ctx._reset_for_new_protocol()
            ctx._advance_round(0)
            if scope is not None and not in_scope(scope, ctx.state):
                _start_out_of_scope(protocol, ctx)
                out_of_scope.append(ctx)
            else:
                protocol.on_start(ctx)
        pending = self._collect_all(
            ctx_list, config, round_index=0, metrics=startup_metrics
        )

        rounds = 0
        while not coordinator_should_stop(
            all(ctx._halted for ctx in ctx_list),
            len(pending),
            rounds,
            config.max_rounds,
        ):
            rounds += 1
            round_metrics = RoundMetrics(round_index=rounds)
            if rounds == 1:
                merge_startup_metrics(round_metrics, startup_metrics)
            inboxes: Dict[int, List[Inbound]] = {}
            for (sender, receiver), message in pending:
                inboxes.setdefault(receiver, []).append(
                    Inbound(sender=sender, message=message)
                )

            active = 0
            for ctx in ctx_list:
                ctx._advance_round(rounds)
                if ctx._halted:
                    # A halted node ignores late messages, mirroring the
                    # convention that its output is already committed.
                    continue
                active += 1
                protocol.on_round(ctx, inboxes.get(ctx.node_id, []))
            round_metrics.active_nodes = active

            pending = self._collect_all(ctx_list, config, rounds, round_metrics)
            metrics.absorb_round(round_metrics)

        outputs = {ctx.node_id: protocol.collect_output(ctx) for ctx in ctx_list}
        for ctx in out_of_scope:
            if outputs[ctx.node_id] is not None:
                raise ProtocolError(
                    "protocol %r: node %r is outside the declared scope %r but "
                    "reports the output %r (an out-of-scope node reports None)"
                    % (protocol.name, ctx.node_id, scope, outputs[ctx.node_id])
                )
        return RunResult(outputs=outputs, metrics=metrics, contexts=contexts)

    # ------------------------------------------------------------------
    def _collect_all(
        self,
        ctx_list: List[NodeContext],
        config: CongestConfig,
        round_index: int,
        metrics: Optional[RoundMetrics],
    ) -> List:
        """Gather queued messages from every node, enforcing the model rules."""
        budget = config.message_bit_budget
        pending = []
        for ctx in ctx_list:
            node_id = ctx.node_id
            outgoing = ctx._collect_outgoing()
            for receiver, messages in outgoing.items():
                if len(messages) > 1:
                    raise CongestionViolation(node_id, receiver, round_index)
                for message in messages:
                    if budget is not None and message.bits > budget:
                        raise MessageSizeViolation(
                            node_id, receiver, message.bits, budget, round_index
                        )
                    if metrics is not None:
                        metrics.observe_message(message.bits)
                    pending.append(((node_id, receiver), message))
        return pending


#: Shared engine singletons, keyed by registry name.  ``ShardedEngine`` and
#: ``VectorizedEngine`` register themselves here when their modules
#: (:mod:`repro.congest.sharding`, :mod:`repro.congest.vectorized`) are
#: imported (see :func:`register_engine`).
ENGINES: Dict[str, Engine] = {ReferenceEngine.name: ReferenceEngine()}

#: Name of the engine used when neither the caller nor the configuration
#: selects one: the fastest single-process engine.  ``ReferenceEngine``
#: remains the oracle the differential suite compares against.
DEFAULT_ENGINE = "vectorized"


def register_engine(engine: Engine) -> None:
    """Register *engine* under its :attr:`Engine.name` in the registry.

    Re-registration under the same name replaces the previous instance,
    which keeps module reloads idempotent.
    """
    ENGINES[engine.name] = engine


def _ensure_builtin_engines() -> None:
    # ShardedEngine and VectorizedEngine live in modules that
    # import this one, so a top-level import here would be circular;
    # importing them lazily makes the registry complete no matter which
    # module the caller reached first.
    import repro.congest.sharding  # noqa: F401
    import repro.congest.vectorized  # noqa: F401


def available_engines() -> Tuple[str, ...]:
    """Registry names of the engines that can be selected."""
    _ensure_builtin_engines()
    return tuple(sorted(ENGINES))


def get_engine(spec: Union[None, str, Engine] = None) -> Engine:
    """Resolve an engine selector to an :class:`Engine` instance.

    ``spec`` may be ``None`` (the default engine), a registry name, or an
    already-constructed :class:`Engine` (returned as-is, which is how
    external backends plug in without registration).
    """
    if isinstance(spec, Engine):
        return spec
    _ensure_builtin_engines()
    if spec is None:
        return ENGINES[DEFAULT_ENGINE]
    try:
        return ENGINES[spec]
    except KeyError:
        raise ValueError(
            "unknown engine %r; available engines: %s"
            % (spec, ", ".join(available_engines()))
        )
