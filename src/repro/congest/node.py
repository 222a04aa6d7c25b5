"""The per-node programming interface of the simulator.

A distributed algorithm is expressed as a :class:`Protocol`: a factory of
per-node state plus two callbacks, ``on_start`` (round 0 initialisation,
before any message is delivered) and ``on_round`` (one invocation per node
per round, receiving the messages sent to this node in the previous round).

The :class:`NodeContext` is the only handle a node has on the world.  It
deliberately exposes *local information only* — the node's identifier, its
incident edges, the global parameters every node is assumed to know (n and
the algorithm's input parameters), and a ``send`` primitive.  Protocol code
that respects this interface is, by construction, a legitimate distributed
algorithm: it cannot peek at another node's state or at non-adjacent parts of
the topology.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.congest.errors import ProtocolError
from repro.congest.message import Inbound, Message


class NodeContext:
    """Local execution context handed to protocol callbacks for one node.

    Attributes
    ----------
    node_id:
        The node's unique identifier (an integer label).
    neighbors:
        Tuple of identifiers of adjacent nodes, in sorted order.
    n:
        Number of nodes in the system (every node is assumed to know n, as
        is standard in the CONGEST model).
    state:
        A per-node dictionary for protocol state.  It persists across rounds
        and across protocols run in sequence on the same network (composite
        protocols use it to pass stage outputs along).
    output:
        The node's output register.  The paper's problem statement requires
        each node to hold, on termination, either a label or the special
        value ``None`` (the paper's ``⊥``).
    """

    __slots__ = (
        "node_id",
        "neighbors",
        "n",
        "state",
        "output",
        "globals",
        "_round",
        "_outgoing",
        "_halted",
        "_rng",
        "_seed",
    )

    def __init__(
        self,
        node_id: int,
        neighbors: Sequence[int],
        n: int,
        global_inputs: Optional[Dict[str, Any]] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.node_id = node_id
        self.neighbors: Tuple[int, ...] = tuple(sorted(neighbors))
        self.n = n
        self.state: Dict[str, Any] = {}
        self.output: Any = None
        #: Parameters known to all nodes (epsilon, p, round bounds...).
        self.globals: Dict[str, Any] = dict(global_inputs or {})
        self._round = 0
        self._outgoing: Dict[int, List[Message]] = {}
        self._halted = False
        #: The random source, or ``None`` until ``rng`` first builds it
        #: from ``_seed`` (code reading ``_rng`` directly must expect that).
        self._rng: Optional[random.Random] = None
        self._seed = seed

    # ------------------------------------------------------------------
    # read-only views
    # ------------------------------------------------------------------
    @property
    def round_index(self) -> int:
        """Index of the current round (0-based)."""
        return self._round

    @property
    def degree(self) -> int:
        """Number of incident edges."""
        return len(self.neighbors)

    @property
    def halted(self) -> bool:
        """Whether this node has declared local termination."""
        return self._halted

    @property
    def seed(self) -> int:
        """The node's private seed, source of its sampling coin and :attr:`rng`."""
        if self._seed is None:
            raise ProtocolError(
                "node %r requested randomness but the scheduler did not "
                "provide a random source" % (self.node_id,)
            )
        return self._seed

    @property
    def rng(self):
        """The node's private random source (set by the scheduler).

        A context built with a ``seed`` creates its ``random.Random(seed)``
        here, on first access, so nodes that never draw never pay for one.
        """
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self.seed)
        return rng

    def is_neighbor(self, other: int) -> bool:
        """Return True when *other* is adjacent to this node."""
        return other in self._neighbor_set()

    def _neighbor_set(self):
        cached = self.state.get("__neighbor_set")
        if cached is None:
            cached = frozenset(self.neighbors)
            self.state["__neighbor_set"] = cached
        return cached

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------
    def _check_can_send(self, message: Message) -> None:
        """The send-side validations that do not depend on the receiver."""
        if self._halted:
            raise ProtocolError(
                "node %r attempted to send after halting" % (self.node_id,)
            )
        if not isinstance(message, Message):
            raise ProtocolError(
                "node %r attempted to send a %r instead of a Message"
                % (self.node_id, type(message).__name__)
            )

    def send(self, neighbor: int, message: Message) -> None:
        """Queue *message* for delivery to *neighbor* at the next round.

        The scheduler enforces the one-message-per-edge-per-round rule and
        the bit budget; this method only validates adjacency and type.
        """
        self._check_can_send(message)
        if neighbor not in self._neighbor_set():
            raise ProtocolError(
                "node %r attempted to send to %r which is not a neighbour"
                % (self.node_id, neighbor)
            )
        self._outgoing.setdefault(neighbor, []).append(message)

    def send_all(self, message: Message, exclude: Iterable[int] = ()) -> None:
        """Queue *message* to every neighbour except those in *exclude*.

        Broadcast is the hot send path of every protocol in this package
        (the E12 profile shows per-send validation dominating large runs),
        so the checks run once here and the queueing goes through the
        trusted bulk path: adjacency is guaranteed by iterating
        ``self.neighbors``, and the one-message-per-edge rule remains
        enforced by the engines when the outbox is drained.
        """
        if exclude:
            excluded = set(exclude)
            receivers = [v for v in self.neighbors if v not in excluded]
        else:
            receivers = self.neighbors
        if not receivers:
            # Matches the per-send loop: zero sends means zero validations.
            return
        self._check_can_send(message)
        self._extend_trusted(receivers, message)

    def _extend_trusted(self, receivers: Sequence[int], message: Message) -> None:
        """Trusted bulk enqueue: one validated message to many receivers.

        Engine/scheduler-facing fast path (the ``Outbox.extend_trusted`` of
        the roadmap's message-layer item): the caller vouches that *message*
        passed :meth:`_check_can_send` and that every receiver is a
        neighbour, so no per-receiver validation runs.  Protocol code must
        use :meth:`send` / :meth:`send_all` instead — those keep the model's
        guarantees checkable, and the engines still enforce the
        one-message-per-edge rule and the bit budget at drain time for
        every path, trusted or not.
        """
        outgoing = self._outgoing
        for neighbor in receivers:
            queue = outgoing.get(neighbor)
            if queue is None:
                outgoing[neighbor] = [message]
            else:
                queue.append(message)

    def halt(self) -> None:
        """Declare local termination.

        A halted node takes no further part in the protocol; the scheduler
        stops once every node has halted and no messages remain in flight.
        """
        self._halted = True

    def write_output(self, value: Any) -> None:
        """Write the node's output register (the paper's label or ``⊥``)."""
        self.output = value

    # ------------------------------------------------------------------
    # scheduler-facing internals
    # ------------------------------------------------------------------
    def _collect_outgoing(self) -> Dict[int, List[Message]]:
        outgoing = self._outgoing
        self._outgoing = {}
        return outgoing

    def _advance_round(self, round_index: int) -> None:
        self._round = round_index

    def _reset_for_new_protocol(self) -> None:
        """Clear termination status between protocols of a composite run."""
        self._halted = False
        self._outgoing = {}


class Protocol:
    """Base class for distributed algorithms run by the scheduler.

    Subclasses override :meth:`on_start` and :meth:`on_round`.  The default
    implementations do nothing, so trivial protocols (for example a protocol
    that only inspects its local neighbourhood) can override a single hook.

    Subclasses are bound by the engine contract — hooks must be
    deterministic given ``ctx.rng`` (no module-level randomness, clocks or
    ``id()``), per-node state must be picklable (the sharded engine's
    process backend ships it across worker pipes), payloads must stay
    inside the wire vocabulary and the O(log n) bit budget, and only the
    public :class:`NodeContext` API may be used.  ``repro lint``
    (:mod:`repro.lint`) checks these rules statically, with one rule id per
    invariant; the README's "Protocol contract" section lists them.
    """

    #: Human-readable protocol name used in metrics and error messages.
    name = "protocol"

    #: The nodes a phase can involve, as a tuple of ``ctx.state`` keys, or
    #: ``None`` for every node.  A node is *out of scope* when none of the
    #: keys is truthy in its state — in particular every node whose state
    #: is empty — and an out-of-scope node's ``on_start`` may only call
    #: ``ctx.halt()`` (no state or output write, no send) and its
    #: :meth:`collect_output` must report ``None``.  The fast engines then
    #: skip such nodes entirely — they mark them halted without resetting,
    #: starting or harvesting them — while
    #: :class:`repro.congest.engine.ReferenceEngine` still starts and
    #: harvests every node and raises :class:`ProtocolError` when an
    #: out-of-scope one breaks the contract.  A scope is honoured only under
    #: the default :meth:`finished` predicate (:func:`effective_scope`).
    scope: Optional[Tuple[str, ...]] = None

    def on_start(self, ctx: NodeContext) -> None:
        """Round-0 initialisation for one node (no messages available yet)."""

    def on_round(self, ctx: NodeContext, inbox: List[Inbound]) -> None:
        """Process the messages delivered this round and queue replies."""

    def finished(self, ctx: NodeContext) -> bool:
        """Local termination predicate.

        By default a node is finished once it has called
        :meth:`NodeContext.halt`.  Protocols whose nodes terminate implicitly
        (for example "run for exactly T rounds") may override this instead of
        calling ``halt`` explicitly.
        """
        return ctx.halted

    def vectorized_kernel(self) -> Optional[Any]:
        """Columnar execution plan for this protocol, or ``None``.

        A protocol whose sends all go through pipelined Outbox queues, so
        that their timing follows from the queues alone, may return a
        :class:`repro.congest.vectorized.VectorizedKernel` here.  The
        ``vectorized`` engine then executes the whole phase over packed
        per-node registers and one stream schedule instead of dispatching
        ``on_start`` / ``on_round`` once per node per round, and holds the
        result to the engine contract: outputs, per-node state, round count
        and message/bit metrics (including the per-round trace) must be
        bit-identical to what the callbacks would have produced — the
        callbacks above remain the executable semantics, enforced by the
        differential suite.

        The default is ``None``: the vectorized engine runs this protocol
        on its callback loop.
        """
        return None

    def collect_output(self, ctx: NodeContext) -> Any:
        """Value reported for this node in the run result (default: output)."""
        return ctx.output


def effective_scope(protocol: Protocol) -> Optional[Tuple[str, ...]]:
    """The scope every engine applies to *protocol*: its declared one, or
    ``None`` when it overrides :meth:`Protocol.finished`, because a halted
    node may still count as unfinished there."""
    if type(protocol).finished is not Protocol.finished:
        return None
    return protocol.scope


def in_scope(scope: Tuple[str, ...], state: Dict[str, Any]) -> bool:
    """Whether a node with this *state* is in a protocol's *scope*."""
    for key in scope:
        if state.get(key):
            return True
    return False


def reset_in_scope(
    protocol: Protocol,
    contexts: "Sequence[NodeContext] | Mapping[int, NodeContext]",
    indices: Iterable[int],
) -> List[int]:
    """Round-0 preparation of the fast engines over ``contexts[i]``, ``i`` in *indices*.

    *contexts* maps dense indices to contexts: a dense list, or the live
    contexts of a :class:`repro.congest.network.ContextRegistry`.  One
    pass: an out-of-scope context (see :attr:`Protocol.scope`) is marked
    halted — the only effect its ``on_start`` may have — and every other one
    is reset for the new protocol.  Returns the in-scope indices, in order;
    the caller starts exactly those.  An empty state is tested first: it
    costs no call, and its halt flag is written only when it changes.
    """
    scope = effective_scope(protocol)
    started: List[int] = []
    append = started.append
    for i in indices:
        ctx = contexts[i]
        if ctx._outgoing:
            ctx._outgoing = {}
        state = ctx.state
        if scope is not None and state:
            # in_scope, inlined: this loop runs over every live context.
            for key in scope:
                if state.get(key):
                    break
            else:
                state = None
        if scope is None or state:
            ctx._halted = False
            append(i)
        elif not ctx._halted:
            ctx._halted = True
    return started
