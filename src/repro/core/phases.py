"""The CONGEST-model phases of Algorithm ``DistNearClique``.

The algorithm of Section 4 is implemented as a sequence of protocols executed
on the same network contexts (``reuse_contexts=True``), each corresponding to
one or two numbered steps of the paper's pseudo-code:

======================  ===================================================  ================================
Phase (this module)     Paper step                                           ``scope`` (nodes it starts)
======================  ===================================================  ================================
SamplingPhase           Sampling stage (i.i.d. coin flips)                   every node
MinIdBFSTreeProtocol    Exploration Step 1 (BFS tree per component of G[S])  ``participant`` (S)
ParentNotification      — (children discovery needed for convergecast)       ``participant`` (S)
ConvergecastCollect     Exploration Step 2 (component membership to root)    ``participant`` (S)
TreeBroadcast           Exploration Step 2 (membership back down the tree)   ``participant`` (S)
CompDisseminationPhase  Exploration Step 3 (members of S_i to neighbours)    every node
LocalSubsetPhase        Exploration Step 4a (+ leaf attachment to the tree)  in sample, or component table
UpAggregationPhase(K)   Exploration Steps 4b–4c (|K_{2ε²}(X)| at the root)   in sample, or attach parent
DownBroadcastPhase(K)   Exploration Step 4d (|K_{2ε²}(X)| back to Γ(S_i))    in sample, or attach parent
KAnnouncePhase          Exploration Steps 4e–4f (membership in T_ε(X))       K-membership table
UpAggregationPhase(T)   Decision Step 1 (|T_ε(X)| at the root, pick X(S_i))  in sample, or attach parent
DownBroadcastPhase(B)   Decision Step 2 (announce |T_ε(X(S_i))|)             in sample, or attach parent
VotePhase               Decision Step 3 (acknowledge / abort votes)          in sample, or best-known table
FinalLabelPhase         Decision Step 4 (labels for surviving candidates)    in sample, or attach parent
======================  ===================================================  ================================

The scope column is each phase's :attr:`repro.congest.node.Protocol.scope`:
after sampling, only S and Γ(S) take part, so the fast engines start only
the nodes holding one of the listed state keys and mark the rest halted.
Sampling flips a coin at every node and comp-dissemination listens at
every non-isolated node, so those two have no scope.  Sampling writes the
sample keys (``KEY_IN_SAMPLE``, ``participant``) only at sampled nodes and
every reader treats a missing key as ``False``, so until comp-dissemination
delivers a component a non-sampled node's state stays empty — the case the
engines' scope pass handles without a call.  The two unscoped phases'
kernels leave such a node without a context too
(:class:`repro.congest.network.ContextRegistry`): sampling builds one only
for a node in S (its coin is a column entry, or its forced input), and
comp-dissemination builds one only for a node that receives a component.

All phases respect the CONGEST discipline: every message carries a constant
number of identifiers / polynomially-bounded counters (O(log n) bits), and a
node sends at most one message per neighbour per round (larger transfers are
pipelined through :class:`repro.primitives.pipelines.Outbox`).

State shared between phases lives in each node's ``ctx.state`` under the
``KEY_*`` names below; the runner (:mod:`repro.core.dist_near_clique`) wires
the phases together and harvests the final outputs.

**Vectorized-kernel coverage.**  Under ``engine="vectorized"``
(:mod:`repro.congest.vectorized`) every phase of this module executes as
a kernel instead of per-node callbacks: the sends all go through
pipelined :class:`~repro.primitives.pipelines.Outbox` queues, so their
timing follows from the queues alone (one stream schedule,
:meth:`~repro.congest.vectorized.KernelFrame.run_schedule`), and only the
four tree primitives of :mod:`repro.primitives` run on the engine's
callback loop.  The callbacks below remain the executable semantics
either way (the kernels are held to bit-identity by the differential
suite):

=====================  ================================================
Phase                  ``engine="vectorized"`` execution
=====================  ================================================
SamplingPhase          kernel (local coin flips, zero rounds)
MinIdBFSTreeProtocol   callback fallback (data-dependent waves)
ParentNotification     callback fallback
ConvergecastCollect    callback fallback
TreeBroadcast          callback fallback
CompDisseminationPhase kernel (pipelined neighbourhood broadcast)
LocalSubsetPhase       kernel (one ``nc.attach`` stream per parent)
UpAggregationPhase     kernel (a node's stream starts once its waits end)
DownBroadcastPhase     kernel (depth-d node forwards item k in round d+1+k)
KAnnouncePhase         kernel (pipelined neighbourhood broadcast)
VotePhase              kernel (a node's vote starts once its waits end)
FinalLabelPhase        kernel (the down-broadcast kernel)
=====================  ================================================

The tree kernels deliver each message's payload in the callbacks' arrival
order — round, then receiver, then sender — and run the injected
``pre_start`` / ``root_finalize`` / ``items_fn`` / ``store_fn`` at the
same nodes, as often, in the same order and at the same round index.
Like the broadcast kernels they assume the started nodes' outbox queues
are empty when the phase starts (every phase here drains its queues
before it quiesces) and that the tree keys name neighbours.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.congest.message import Inbound, Message, id_bits_for, KIND_TAG_BITS
from repro.congest.node import NodeContext, Protocol
from repro.congest.randomness import node_coin, node_coin_column
from repro.congest.vectorized import (
    ALL_NEIGHBORS,
    KernelFrame,
    OutboxSchedule,
    Stream,
    VectorizedKernel,
)
from repro.core import near_clique
from repro.primitives.bfs_tree import (
    KEY_CHILDREN,
    KEY_PARENT,
    KEY_PARTICIPANT,
    KEY_ROOT,
)
from repro.primitives.pipelines import Outbox

# ---------------------------------------------------------------------------
# shared state keys
# ---------------------------------------------------------------------------
KEY_IN_SAMPLE = "nc_in_sample"
KEY_FORCED_SAMPLE = "nc_forced_sample"
KEY_COMP_BCAST = "nc_comp_bcast"
KEY_COMP_MEMBERS = "nc_comp_members"
KEY_ADJ_COMPONENTS = "nc_adjacent_components"
KEY_ADJ_MEMBERS = "nc_adjacent_members"
KEY_ATTACH_PARENT = "nc_attach_parent"
KEY_ATTACHED_LEAVES = "nc_attached_leaves"
KEY_K_MEMBERSHIP = "nc_k_membership"
KEY_K_SIZES = "nc_k_sizes"
KEY_K_NEIGHBOR_ANNOUNCERS = "nc_k_neighbor_announcers"
KEY_T_MEMBERSHIP = "nc_t_membership"
KEY_K_ROOT_SIZES = "nc_root_k_sizes"
KEY_T_ROOT_SIZES = "nc_root_t_sizes"
KEY_BEST = "nc_best"
KEY_BEST_KNOWN = "nc_best_known"
KEY_ABORT_SEEN = "nc_abort_seen"
KEY_SURVIVED = "nc_survived"

#: Read-only default for the ``state.get`` calls of the kernel sweeps.
_NOTHING: Dict[Any, Any] = {}

# global input keys (ctx.globals)
GLOBAL_EPSILON = "epsilon"
GLOBAL_SAMPLE_PROBABILITY = "sample_probability"
GLOBAL_MIN_OUTPUT_SIZE = "min_output_size"
GLOBAL_STEP4F_SAMPLING = "use_step4f_sampling"
GLOBAL_STEP4F_SAMPLE_SIZE = "step4f_sample_size"
#: Set when the runner forces the sample: a node without a
#: ``KEY_FORCED_SAMPLE`` input is then out of the sample, not a coin flip.
GLOBAL_FORCED_SAMPLE = "forced_sample"

# message kinds
_COMP = "nc.comp"
_ATTACH = "nc.attach"
_AGG = "nc.agg"
_AGG_DONE = "nc.agg_done"
_DOWN = "nc.down"
_KSIZE = "nc.ksize"
_VOTE = "nc.vote"
_ABORT_STATE = "nc.abort_state"


@functools.lru_cache(maxsize=4096)
def wire_bits(payload: Tuple, n: int) -> int:
    """Bits of a message whose integers are charged at identifier width.

    All ``DistNearClique`` messages carry a constant number of identifiers,
    subset indices and counters; each element is charged at
    ``max(⌈log₂ n⌉, bit length)`` bits so that the accounting is an honest
    Theta(log n) per element for the parameter regime of the paper.  The
    kernels charge their bit columns with this directly, without building
    messages.  Memoised: a phase charges the same few payloads (a root's
    done marker, a subset's unit count) at hundreds of nodes.
    """
    width = id_bits_for(n)
    # An element charged at its own length is one with |e| >= 2**(width-1).
    limit = 1 << (width - 1)
    bits = KIND_TAG_BITS + width * len(payload)
    for element in payload:
        if not -limit < element < limit:
            bits += abs(int(element)).bit_length() + 1 - width
    return bits


def _wire(kind: str, payload: Tuple, n: int) -> Message:
    """Build a message charged by :func:`wire_bits`."""
    return Message(
        kind=kind, payload=tuple(int(e) for e in payload), bits=wire_bits(payload, n)
    )


def _epsilon(ctx: NodeContext) -> float:
    return float(ctx.globals[GLOBAL_EPSILON])


def _in_sample(ctx: NodeContext) -> bool:
    return bool(ctx.state.get(KEY_IN_SAMPLE))


def _k_membership_indices(
    members: Sequence[int], neighbor_ids: Sequence[int], inner_epsilon: float
) -> Set[int]:
    """Indices of the non-empty X ⊆ members with ``v ∈ K_{2ε²}(X)``.

    ``neighbor_ids`` are the neighbours of the evaluating node v in ascending
    order (``ctx.neighbors``); membership is ``|Γ(v) ∩ X| ≥ (1 − 2ε²)|X|``
    evaluated with the shared tolerance, via bitmask popcounts (exploration
    Step 4a — purely local computation).
    """
    mask = near_clique.sorted_neighbor_mask(members, neighbor_ids)
    return set(_qualifying_subsets(len(members), mask, inner_epsilon))


def _qualifying_subsets(
    member_count: int, mask: int, inner_epsilon: float
) -> Tuple[int, ...]:
    """The indices X with ``|mask ∩ X| ≥ (1 − 2ε²)|X|``, ascending."""
    return tuple(
        index
        for index in near_clique.iter_nonempty_subset_indices(member_count)
        if near_clique.meets_fraction(
            near_clique.popcount(mask & index),
            near_clique.popcount(index),
            inner_epsilon,
        )
    )


# ---------------------------------------------------------------------------
# sampling stage
# ---------------------------------------------------------------------------
class SamplingPhase(Protocol):
    """Each node joins S independently with probability p (purely local).

    A node's coin is :func:`repro.congest.randomness.node_coin` of its
    seed.  If the runner supplies a predetermined sample the coin flip is
    skipped — used by tests that cross-check the distributed execution against the
    centralized oracle on the very same sample.  A per-node
    ``KEY_FORCED_SAMPLE`` input forces that node in (truthy) or out
    (``False``); under ``GLOBAL_FORCED_SAMPLE`` a node without one is out.

    The sample keys are written only at sampled nodes (every reader treats
    a missing key as ``False``), so a non-sampled node keeps an empty state
    and the scoped phases after this one skip it without a call
    (:func:`repro.congest.node.reset_in_scope`).
    """

    name = "nc-sampling"

    def on_start(self, ctx: NodeContext) -> None:
        self.draw(ctx)
        ctx.halt()

    def draw(self, ctx: NodeContext) -> None:
        """Decide this node's membership in S and record it (no halt)."""
        state = ctx.state
        forced = state.get(KEY_FORCED_SAMPLE)
        if forced is not None:
            in_sample = bool(forced)
        elif ctx.globals.get(GLOBAL_FORCED_SAMPLE):
            in_sample = False
        else:
            probability = float(ctx.globals.get(GLOBAL_SAMPLE_PROBABILITY, 0.0))
            in_sample = node_coin(ctx.seed) < probability
        if in_sample:
            state[KEY_IN_SAMPLE] = True
            state[KEY_PARTICIPANT] = True
        elif KEY_IN_SAMPLE in state or KEY_PARTICIPANT in state:
            state.pop(KEY_IN_SAMPLE, None)
            state.pop(KEY_PARTICIPANT, None)
        ctx.write_output(None)

    def collect_output(self, ctx: NodeContext) -> bool:
        return bool(ctx.state.get(KEY_IN_SAMPLE))

    def vectorized_kernel(self) -> "_SamplingKernel":
        return _SamplingKernel()


class _SamplingKernel(VectorizedKernel):
    """Columnar form of :class:`SamplingPhase`.

    Pure apply stage, zero rounds of communication (the empty broadcast
    schedule).  Every node's coin is a function of its seed alone
    (:func:`repro.congest.randomness.node_coin`), so the kernel computes
    all n coins as one column and builds a context only for a node whose
    coin lands in S.  A node without a context has no input, so its draw
    would write nothing: it keeps an empty state, as under
    ``GLOBAL_FORCED_SAMPLE``, where no coin is flipped.  The built nodes
    run :meth:`SamplingPhase.draw`, and the halts are one column write.
    """

    def execute(self, frame: KernelFrame) -> None:
        contexts = frame.contexts
        if not contexts.globals.get(GLOBAL_FORCED_SAMPLE):
            probability = float(contexts.globals.get(GLOBAL_SAMPLE_PROBABILITY, 0.0))
            coins = node_coin_column(contexts.seeds())
            for index in frame.np.flatnonzero(coins < probability).tolist():
                frame.touch(index)
        live = frame.live
        draw = frame.protocol.draw
        for index in frame.started:
            draw(live[index])
        frame.halted.fill(True)
        frame.run_schedule(())


# ---------------------------------------------------------------------------
# exploration step 3: component membership to all neighbours
# ---------------------------------------------------------------------------
class CompDisseminationPhase(Protocol):
    """Every sampled node streams Comp(v) to all its neighbours.

    Receivers that are not sampled record, for every adjacent component, the
    component's root, its member list, and which neighbours delivered it
    (candidate attachment parents); the table is created by the first
    ``nc.comp`` a node receives, so only Γ(S) holds one.  Sampled receivers
    ignore the traffic — a sampled node can only ever be adjacent to its
    own component.
    """

    name = "nc-comp-dissemination"

    def on_start(self, ctx: NodeContext) -> None:
        if _in_sample(ctx):
            members = near_clique.canonical_members(ctx.state.get(KEY_COMP_BCAST, []))
            ctx.state[KEY_COMP_MEMBERS] = members
            root = ctx.state[KEY_ROOT]
            outbox = Outbox.for_ctx(ctx)
            for member in members:
                outbox.push_all(_wire(_COMP, (root, member), ctx.n))
        elif not ctx.neighbors:
            ctx.halt()

    def on_round(self, ctx: NodeContext, inbox: List[Inbound]) -> None:
        if _in_sample(ctx):
            Outbox.for_ctx(ctx).flush()
            return
        records: Optional[Dict[int, Dict[str, set]]] = ctx.state.get(
            KEY_ADJ_COMPONENTS
        )
        for inbound in inbox:
            if inbound.kind != _COMP:
                continue
            if records is None:
                records = ctx.state[KEY_ADJ_COMPONENTS] = {}
            root, member = inbound.payload
            record = records.setdefault(root, {"members": set(), "senders": set()})
            record["members"].add(member)
            record["senders"].add(inbound.sender)

    def vectorized_kernel(self) -> "_CompDisseminationKernel":
        return _CompDisseminationKernel()


class _CompDisseminationKernel(VectorizedKernel):
    """Columnar form of :class:`CompDisseminationPhase`.

    *Apply*: one sweep over the built contexts performs the ``on_start``
    state writes (canonical member lists at sampled nodes), and one column
    write the isolation halts of the rest.  *Gather*: instead of folding
    one delivered message at a time, each receiver with a broadcasting
    neighbour creates its component table (building its context) and folds
    that neighbour's whole member column at once — the segment count over
    the sampled mask prunes the sweep to receivers that actually have
    mail.  *Scatter*: each sampled node's stream (one
    ``nc.comp`` item per member, pushed to every neighbour) goes to the
    stream schedule as one ``push_all`` stream, which reproduces the
    pipelined flush's rounds and metrics exactly.
    """

    def execute(self, frame: KernelFrame) -> None:
        np = frame.np
        live = frame.live
        node_ids = frame.node_ids
        degrees = frame.degrees

        sampled = np.zeros(frame.n, dtype=bool)
        broadcasting = np.zeros(frame.n, dtype=bool)
        roots: Dict[int, int] = {}
        member_lists: Dict[int, Tuple[int, ...]] = {}
        streams: List[Stream] = []
        for index in frame.started:
            ctx = live[index]
            state = ctx.state
            if state.get(KEY_IN_SAMPLE):
                sampled[index] = True
                members = near_clique.canonical_members(
                    state.get(KEY_COMP_BCAST, [])
                )
                state[KEY_COMP_MEMBERS] = members
                root = state[KEY_ROOT]
                roots[index] = root
                member_lists[index] = members
                if members:
                    broadcasting[index] = True
                    if degrees[index]:
                        streams.append(
                            (
                                index,
                                ALL_NEIGHBORS,
                                1,
                                [
                                    wire_bits((root, member), ctx.n)
                                    for member in members
                                ],
                            )
                        )
        frame.halted[~sampled & (degrees == 0)] = True

        # Receivers: non-sampled nodes with at least one broadcasting
        # neighbour fold whole member columns; everyone else has no mail.
        mail_counts = frame.count_flagged_neighbors(broadcasting)
        for index in np.nonzero(~sampled & (mail_counts > 0))[0].tolist():
            ctx = frame.touch(index)
            records = ctx.state.setdefault(KEY_ADJ_COMPONENTS, {})
            for neighbor in frame.neighbor_slice(index).tolist():
                if not broadcasting[neighbor]:
                    continue
                record = records.get(roots[neighbor])
                if record is None:
                    record = records[roots[neighbor]] = {
                        "members": set(),
                        "senders": set(),
                    }
                record["members"].update(member_lists[neighbor])
                record["senders"].add(node_ids[neighbor])

        frame.run_schedule(streams)


# ---------------------------------------------------------------------------
# exploration step 4a: local subset membership + leaf attachment
# ---------------------------------------------------------------------------
class LocalSubsetPhase(Protocol):
    """Local evaluation of ``v ∈ K_{2ε²}(X)`` for every X, plus attachment.

    Non-sampled nodes adjacent to a component pick one neighbour from that
    component as their attachment parent (the paper's ``parent^{S_i}(u)``)
    and notify it, so that the subsequent aggregations know exactly which
    leaves hang off each tree node.
    """

    name = "nc-local-subsets"
    scope = (KEY_IN_SAMPLE, KEY_ADJ_COMPONENTS)

    def on_start(self, ctx: NodeContext) -> None:
        eps = _epsilon(ctx)
        inner_eps = 2.0 * eps * eps
        memberships: Dict[int, Set[int]] = {}
        if _in_sample(ctx):
            members = ctx.state.get(KEY_COMP_MEMBERS, ())
            root = ctx.state[KEY_ROOT]
            memberships[root] = _k_membership_indices(members, ctx.neighbors, inner_eps)
            ctx.state[KEY_ATTACHED_LEAVES] = set()
            ctx.state[KEY_ADJ_MEMBERS] = {root: tuple(members)}
        else:
            records = ctx.state.get(KEY_ADJ_COMPONENTS, {})
            if not records:
                ctx.halt()
                return
            attach: Dict[int, int] = {}
            adjacent_members: Dict[int, Tuple[int, ...]] = {}
            outbox = Outbox.for_ctx(ctx)
            for root in sorted(records):
                record = records[root]
                members = near_clique.canonical_members(record["members"])
                adjacent_members[root] = members
                parent = min(record["senders"])
                attach[root] = parent
                outbox.push(parent, _wire(_ATTACH, (root,), ctx.n))
                memberships[root] = _k_membership_indices(
                    members, ctx.neighbors, inner_eps
                )
            ctx.state[KEY_ATTACH_PARENT] = attach
            ctx.state[KEY_ADJ_MEMBERS] = adjacent_members
        ctx.state[KEY_K_MEMBERSHIP] = memberships

    def on_round(self, ctx: NodeContext, inbox: List[Inbound]) -> None:
        if _in_sample(ctx):
            leaves: Set[int] = ctx.state[KEY_ATTACHED_LEAVES]
            for inbound in inbox:
                if inbound.kind == _ATTACH:
                    leaves.add(inbound.sender)
        Outbox.for_ctx(ctx).flush()

    def vectorized_kernel(self) -> "_LocalSubsetKernel":
        return _LocalSubsetKernel()


class _LocalSubsetKernel(VectorizedKernel):
    """Columnar form of :class:`LocalSubsetPhase`.

    *Apply*: the ``on_start`` sweep over the started nodes (the subset
    evaluation is local computation, evaluated once per distinct
    neighbour mask).  *Scatter*: each leaf's ``nc.attach`` items leave
    from round 1, one queue per attachment parent.  *Gather*: a sampled
    parent adds the senders to its attached leaves in arrival order.
    """

    def execute(self, frame: KernelFrame) -> None:
        live = frame.live
        index_of = frame.index_of
        node_ids = frame.node_ids
        queues = frame.outbox_schedule()
        leaves_of: Dict[int, Set[int]] = {}
        qualifying: Dict[Tuple[int, int, float], Tuple[int, ...]] = {}

        def k_membership(
            members: Sequence[int], ctx: NodeContext, inner_eps: float
        ) -> Set[int]:
            # _k_membership_indices, with the subset scan shared by every
            # node that sees the same members of the component.
            mask = near_clique.sorted_neighbor_mask(members, ctx.neighbors)
            key = (len(members), mask, inner_eps)
            found = qualifying.get(key)
            if found is None:
                found = qualifying[key] = _qualifying_subsets(*key)
            return set(found)

        for index in frame.started:
            ctx = live[index]
            state = ctx.state
            eps = _epsilon(ctx)
            inner_eps = 2.0 * eps * eps
            memberships: Dict[int, Set[int]] = {}
            if state.get(KEY_IN_SAMPLE):
                members = state.get(KEY_COMP_MEMBERS, ())
                root = state[KEY_ROOT]
                memberships[root] = k_membership(members, ctx, inner_eps)
                leaves_of[index] = state[KEY_ATTACHED_LEAVES] = set()
                state[KEY_ADJ_MEMBERS] = {root: tuple(members)}
            else:
                records = state.get(KEY_ADJ_COMPONENTS, _NOTHING)
                if not records:
                    frame.halted[index] = True
                    continue
                attach: Dict[int, int] = {}
                adjacent_members: Dict[int, Tuple[int, ...]] = {}
                for root in sorted(records):
                    record = records[root]
                    members = near_clique.canonical_members(record["members"])
                    adjacent_members[root] = members
                    parent = min(record["senders"])
                    attach[root] = parent
                    bits = [wire_bits((root,), ctx.n)]
                    queues.push(index, (index_of[parent],), 1, bits, bits)
                    memberships[root] = k_membership(members, ctx, inner_eps)
                state[KEY_ATTACH_PARENT] = attach
                state[KEY_ADJ_MEMBERS] = adjacent_members
            state[KEY_K_MEMBERSHIP] = memberships

        for _round, receiver, inbox in queues.deliveries():
            leaves = leaves_of.get(receiver)
            if leaves is not None:
                for _receiver, sender, _bits in inbox:
                    leaves.add(node_ids[sender])
        frame.run_schedule(queues.streams)


# ---------------------------------------------------------------------------
# generic aggregation up the tree (exploration 4b-4c, decision step 1)
# ---------------------------------------------------------------------------
class UpAggregationPhase(Protocol):
    """Sum per-subset membership counts over a component's tree + leaves.

    Every contributing node holds ``ctx.state[membership_key]`` — a mapping
    ``root → set of subset indices it belongs to``.  Attached leaves stream
    their indices to their attachment parent; tree nodes add their own
    indices, wait for all attached leaves and all tree children to finish,
    and forward partial sums to their tree parent; each root ends with the
    component-wide counts in ``ctx.state[result_key]``.

    ``pre_start`` (if given) runs at every node before anything else — the
    T-count aggregation uses it to turn the Step 4e announcements into
    ``T_ε(X)`` membership.  ``root_finalize`` (if given) runs at each root
    once its counts are complete — the decision-stage instance uses it to
    select the maximising subset X(S_i).
    """

    name = "nc-up-aggregation"
    scope = (KEY_IN_SAMPLE, KEY_ATTACH_PARENT)

    def __init__(
        self,
        membership_key: str,
        result_key: str,
        pre_start: Optional[Callable[[NodeContext], None]] = None,
        root_finalize: Optional[Callable[[NodeContext, Dict[int, int]], None]] = None,
        label: str = "nc-up-aggregation",
    ) -> None:
        self.membership_key = membership_key
        self.result_key = result_key
        self.pre_start = pre_start
        self.root_finalize = root_finalize
        self.name = label

    # local state keys (per phase instance we prefix with the result key so
    # that successive aggregations do not trample each other's bookkeeping)
    def _key(self, suffix: str) -> str:
        return "%s.%s" % (self.result_key, suffix)

    def on_start(self, ctx: NodeContext) -> None:
        if self.pre_start is not None and (
            _in_sample(ctx) or ctx.state.get(KEY_ATTACH_PARENT)
        ):
            self.pre_start(ctx)
        memberships: Dict[int, Set[int]] = ctx.state.get(self.membership_key, {})
        if _in_sample(ctx):
            root = ctx.state[KEY_ROOT]
            counters: Dict[int, int] = {}
            for index in memberships.get(root, ()):  # own contribution
                counters[index] = counters.get(index, 0) + 1
            waiting = set(ctx.state.get(KEY_CHILDREN, []))
            waiting |= set(ctx.state.get(KEY_ATTACHED_LEAVES, set()))
            ctx.state[self._key("counters")] = counters
            ctx.state[self._key("waiting")] = waiting
            ctx.state[self._key("flushed")] = False
            ctx.state[self.result_key] = None
        else:
            attach: Dict[int, int] = ctx.state.get(KEY_ATTACH_PARENT, {})
            if not attach:
                ctx.halt()
                return
            outbox = Outbox.for_ctx(ctx)
            for root in sorted(attach):
                parent = attach[root]
                for index in sorted(memberships.get(root, ())):
                    outbox.push(parent, _wire(_AGG, (root, index, 1), ctx.n))
                outbox.push(parent, _wire(_AGG_DONE, (root,), ctx.n))

    def on_round(self, ctx: NodeContext, inbox: List[Inbound]) -> None:
        outbox = Outbox.for_ctx(ctx)
        if not _in_sample(ctx):
            outbox.flush()
            return
        counters: Dict[int, int] = ctx.state[self._key("counters")]
        waiting: Set[int] = ctx.state[self._key("waiting")]
        for inbound in inbox:
            if inbound.kind == _AGG:
                _root, index, count = inbound.payload
                counters[index] = counters.get(index, 0) + count
            elif inbound.kind == _AGG_DONE:
                waiting.discard(inbound.sender)

        if not waiting and not ctx.state[self._key("flushed")]:
            ctx.state[self._key("flushed")] = True
            parent = ctx.state.get(KEY_PARENT)
            root = ctx.state[KEY_ROOT]
            if parent is None:
                ctx.state[self.result_key] = dict(counters)
                if self.root_finalize is not None:
                    self.root_finalize(ctx, counters)
            else:
                for index in sorted(counters):
                    if counters[index]:
                        outbox.push(
                            parent, _wire(_AGG, (root, index, counters[index]), ctx.n)
                        )
                outbox.push(parent, _wire(_AGG_DONE, (root,), ctx.n))
        outbox.flush()

    def vectorized_kernel(self) -> "_UpAggregationKernel":
        return _UpAggregationKernel()


def _converge(
    queues: OutboxSchedule,
    tree: Dict[int, NodeContext],
    waiting_key: str,
    flushed_key: str,
    fold: Callable[[NodeContext, Iterable[Tuple[int, int, Any]]], None],
    flush: Callable[[NodeContext, int, int], None],
) -> None:
    """Drive a wait-on-subtree convergecast over its tree nodes.

    A tree node folds each round's inbox (``fold(ctx, inbox)``, which also
    discards the senders whose stream ended from ``state[waiting_key]``);
    in the first round after which it waits on nobody,
    ``flush(ctx, index, round)`` pushes its own stream to its parent — the
    stream starts in round 1 when it waits on nobody from the start, else
    in the round the last stream it waits on delivers its final item.  A
    node whose wait never ends keeps its partial state, as the callbacks
    leave it when the phase quiesces.
    """
    for index, ctx in tree.items():
        if not ctx.state[waiting_key]:
            flush(ctx, index, 1)
    for round_index, receiver, inbox in queues.deliveries():
        ctx = tree.get(receiver)
        if ctx is None:
            continue
        fold(ctx, inbox)
        state = ctx.state
        if not state[waiting_key] and not state[flushed_key]:
            flush(ctx, receiver, round_index)


class _UpAggregationKernel(VectorizedKernel):
    """Columnar form of :class:`UpAggregationPhase`.

    *Apply*: the ``on_start`` sweep (``pre_start``, own contributions and
    wait sets) over the started nodes.  *Scatter*: each leaf's ``nc.agg``
    items and ``nc.agg_done`` leave from round 1; each tree node's
    partial sums leave once it waits on nobody (:func:`_converge`), and a
    root publishes its counts and runs ``root_finalize`` then.  *Gather*:
    the counters fold in arrival order.
    """

    def execute(self, frame: KernelFrame) -> None:
        phase: UpAggregationPhase = frame.protocol  # type: ignore[assignment]
        live = frame.live
        index_of = frame.index_of
        node_ids = frame.node_ids
        counters_key = phase._key("counters")
        waiting_key = phase._key("waiting")
        flushed_key = phase._key("flushed")
        pre_start = phase.pre_start
        membership_key = phase.membership_key
        queues = frame.outbox_schedule()
        tree: Dict[int, NodeContext] = {}
        for index in frame.started:
            ctx = live[index]
            state = ctx.state
            if pre_start is not None and (
                state.get(KEY_IN_SAMPLE) or state.get(KEY_ATTACH_PARENT)
            ):
                ctx._round = 0
                pre_start(ctx)
            memberships: Dict[int, Set[int]] = state.get(membership_key, _NOTHING)
            if state.get(KEY_IN_SAMPLE):
                root = state[KEY_ROOT]
                counters: Dict[int, int] = {}
                for subset_index in memberships.get(root, ()):
                    counters[subset_index] = counters.get(subset_index, 0) + 1
                waiting = set(state.get(KEY_CHILDREN, []))
                waiting |= set(state.get(KEY_ATTACHED_LEAVES, set()))
                state[counters_key] = counters
                state[waiting_key] = waiting
                state[flushed_key] = False
                state[phase.result_key] = None
                tree[index] = ctx
                continue
            attach: Dict[int, int] = state.get(KEY_ATTACH_PARENT, _NOTHING)
            if not attach:
                frame.halted[index] = True
                continue
            # Payload (subset index, count), or None for nc.agg_done.
            n = ctx.n
            for root in sorted(attach):
                subsets = sorted(memberships.get(root, ()))
                bits = [wire_bits((root, subset, 1), n) for subset in subsets]
                bits.append(wire_bits((root,), n))
                items: List[Any] = [(subset, 1) for subset in subsets]
                items.append(None)
                queues.push(index, (index_of[attach[root]],), 1, bits, items)

        def fold(ctx: NodeContext, inbox: Iterable[Tuple[int, int, Any]]) -> None:
            counters = ctx.state[counters_key]
            waiting = ctx.state[waiting_key]
            for _receiver, sender, item in inbox:
                if item is None:
                    waiting.discard(node_ids[sender])
                else:
                    subset_index, count = item
                    counters[subset_index] = counters.get(subset_index, 0) + count

        def flush(ctx: NodeContext, index: int, round_index: int) -> None:
            state = ctx.state
            state[flushed_key] = True
            parent = state.get(KEY_PARENT)
            root = state[KEY_ROOT]
            counters = state[counters_key]
            if parent is None:
                state[phase.result_key] = dict(counters)
                if phase.root_finalize is not None:
                    ctx._round = round_index
                    phase.root_finalize(ctx, counters)
                return
            items: List[Any] = [
                (subset_index, counters[subset_index])
                for subset_index in sorted(counters)
                if counters[subset_index]
            ]
            bits = [wire_bits((root,) + item, ctx.n) for item in items]
            bits.append(wire_bits((root,), ctx.n))
            items.append(None)
            queues.push(index, (index_of[parent],), round_index, bits, items)

        _converge(queues, tree, waiting_key, flushed_key, fold, flush)
        frame.run_schedule(queues.streams)


# ---------------------------------------------------------------------------
# generic broadcast down the tree and to attached leaves
# ---------------------------------------------------------------------------
class DownBroadcastPhase(Protocol):
    """Stream items from every component root to S_i and to Γ(S_i).

    ``items_fn(ctx)`` is evaluated at each root and must return a list of
    integer tuples (each becomes one O(log n)-bit message, prefixed with the
    component root on the wire).  ``store_fn(ctx, root, item)`` is applied at
    every receiving node — including the root itself — in arrival order.
    """

    name = "nc-down-broadcast"
    scope = (KEY_IN_SAMPLE, KEY_ATTACH_PARENT)

    def __init__(
        self,
        items_fn: Callable[[NodeContext], List[Tuple[int, ...]]],
        store_fn: Callable[[NodeContext, int, Tuple[int, ...]], None],
        label: str = "nc-down-broadcast",
    ) -> None:
        self.items_fn = items_fn
        self.store_fn = store_fn
        self.name = label

    def _forward(self, ctx: NodeContext, root: int, item: Tuple[int, ...]) -> None:
        outbox = Outbox.for_ctx(ctx)
        message = _wire(_DOWN, (root,) + tuple(item), ctx.n)
        for child in ctx.state.get(KEY_CHILDREN, []):
            outbox.push(child, message)
        for leaf in sorted(ctx.state.get(KEY_ATTACHED_LEAVES, set())):
            outbox.push(leaf, message)

    def on_start(self, ctx: NodeContext) -> None:
        if _in_sample(ctx):
            if ctx.state.get(KEY_PARENT) is None:
                root = ctx.state[KEY_ROOT]
                for item in self.items_fn(ctx):
                    self.store_fn(ctx, root, tuple(item))
                    self._forward(ctx, root, tuple(item))
        elif not ctx.state.get(KEY_ATTACH_PARENT):
            ctx.halt()

    def on_round(self, ctx: NodeContext, inbox: List[Inbound]) -> None:
        for inbound in inbox:
            if inbound.kind != _DOWN:
                continue
            payload = inbound.payload
            root, item = payload[0], tuple(payload[1:])
            self.store_fn(ctx, root, item)
            if _in_sample(ctx):
                self._forward(ctx, root, item)
        Outbox.for_ctx(ctx).flush()

    def vectorized_kernel(self) -> "_DownBroadcastKernel":
        return _DownBroadcastKernel()


class _DownBroadcastKernel(VectorizedKernel):
    """Columnar form of :class:`DownBroadcastPhase` (and final-labels).

    *Apply*: each root evaluates ``items_fn`` and stores its own items;
    the rest only record the ``on_start`` halts.  *Scatter*: a root's
    items leave from round 1 on one queue per child and attached leaf;
    a tree node forwards each item in the round it arrives, so at depth
    ``d`` item ``k`` leaves in round ``d + 1 + k``.  *Gather*: every
    receiver runs ``store_fn`` in arrival order.
    """

    def execute(self, frame: KernelFrame) -> None:
        phase: DownBroadcastPhase = frame.protocol  # type: ignore[assignment]
        items_fn, store_fn = phase.items_fn, phase.store_fn
        live = frame.live
        index_of = frame.index_of
        queues = frame.outbox_schedule()
        targets_of: Dict[int, List[int]] = {}

        def targets(index: int, state: Dict[str, Any]) -> List[int]:
            found = targets_of.get(index)
            if found is None:
                found = targets_of[index] = [
                    index_of[child] for child in state.get(KEY_CHILDREN, [])
                ] + [
                    index_of[leaf]
                    for leaf in sorted(state.get(KEY_ATTACHED_LEAVES, set()))
                ]
            return found

        for index in frame.started:
            ctx = live[index]
            state = ctx.state
            if state.get(KEY_IN_SAMPLE):
                if state.get(KEY_PARENT) is None:
                    root = state[KEY_ROOT]
                    ctx._round = 0
                    items = [tuple(item) for item in items_fn(ctx)]
                    for item in items:
                        store_fn(ctx, root, item)
                    if items:
                        bits = [wire_bits((root,) + item, ctx.n) for item in items]
                        # What the receivers decode: the wire carries ints.
                        payloads = [
                            (int(root), tuple(int(e) for e in item)) for item in items
                        ]
                        queues.push(index, targets(index, state), 1, bits, payloads)
            elif not state.get(KEY_ATTACH_PARENT):
                frame.halted[index] = True

        for round_index, receiver, inbox in queues.deliveries():
            ctx = live[receiver]
            ctx._round = round_index
            state = ctx.state
            for _receiver, _sender, payload in inbox:
                root, item = payload
                store_fn(ctx, root, item)
                if state.get(KEY_IN_SAMPLE):
                    bits = [wire_bits((root,) + item, ctx.n)]
                    forward_to = targets(receiver, state)
                    queues.push(receiver, forward_to, round_index, bits, (payload,))
        frame.run_schedule(queues.streams)


# ---------------------------------------------------------------------------
# exploration steps 4e-4f: K-membership announcements
# ---------------------------------------------------------------------------
class KAnnouncePhase(Protocol):
    """Every node of ``K_{2ε²}(X)`` announces |K_{2ε²}(X)| to its neighbours.

    A receiver that is itself in ``K_{2ε²}(X)`` counts how many of its
    neighbours announced for the same (component, subset) pair; this count is
    exactly ``|Γ(u) ∩ K_{2ε²}(X)|``, which together with the announced size
    determines membership in ``K_ε(K_{2ε²}(X))`` and hence in ``T_ε(X)``
    (computed by :func:`build_t_membership` at the start of the next phase).
    """

    name = "nc-k-announce"
    scope = (KEY_K_MEMBERSHIP,)

    def on_start(self, ctx: NodeContext) -> None:
        memberships: Dict[int, Set[int]] = ctx.state.get(KEY_K_MEMBERSHIP, {})
        sizes: Dict[int, Dict[int, int]] = ctx.state.get(KEY_K_SIZES, {})
        if not memberships or not any(memberships.values()):
            ctx.halt()
            return
        ctx.state[KEY_K_NEIGHBOR_ANNOUNCERS] = {}
        outbox = Outbox.for_ctx(ctx)
        for root in sorted(memberships):
            root_sizes = sizes.get(root, {})
            for index in sorted(memberships[root]):
                size = root_sizes.get(index, 0)
                if size <= 0:
                    continue
                outbox.push_all(_wire(_KSIZE, (root, index, size), ctx.n))

    def on_round(self, ctx: NodeContext, inbox: List[Inbound]) -> None:
        announcers: Dict[Tuple[int, int], Dict[str, Any]] = ctx.state[
            KEY_K_NEIGHBOR_ANNOUNCERS
        ]
        memberships: Dict[int, Set[int]] = ctx.state.get(KEY_K_MEMBERSHIP, {})
        for inbound in inbox:
            if inbound.kind != _KSIZE:
                continue
            root, index, size = inbound.payload
            if index not in memberships.get(root, ()):  # only K-members need it
                continue
            record = announcers.setdefault(
                (root, index), {"size": size, "senders": set()}
            )
            record["size"] = size
            record["senders"].add(inbound.sender)
        Outbox.for_ctx(ctx).flush()

    def vectorized_kernel(self) -> "_KAnnounceKernel":
        return _KAnnounceKernel()


class _KAnnounceKernel(VectorizedKernel):
    """Columnar form of :class:`KAnnouncePhase`.

    *Apply*: one sweep computes each node's sorted ``(root, index, size)``
    announcement column (and the ``on_start`` halts for nodes with nothing
    to announce).  *Gather*: receivers with announcing neighbours merge
    those columns position-major (queue position ascending, then sender
    ascending) — the exact arrival order of the pipelined flush, so the
    announcer tables are built entry for entry as the callbacks build them.
    *Scatter*: the announcement columns go to the stream schedule as
    ``push_all`` streams.
    """

    def execute(self, frame: KernelFrame) -> None:
        np = frame.np
        live = frame.live
        node_ids = frame.node_ids
        degrees = frame.degrees
        halted = frame.halted

        announcing = np.zeros(frame.n, dtype=bool)
        items_by_node: Dict[int, List[Tuple[int, int, int]]] = {}
        streams: List[Stream] = []
        for index in frame.started:
            ctx = live[index]
            state = ctx.state
            memberships: Dict[int, Set[int]] = state.get(KEY_K_MEMBERSHIP, {})
            sizes: Dict[int, Dict[int, int]] = state.get(KEY_K_SIZES, {})
            if not memberships or not any(memberships.values()):
                halted[index] = True
                continue
            state[KEY_K_NEIGHBOR_ANNOUNCERS] = {}
            items: List[Tuple[int, int, int]] = []
            for root in sorted(memberships):
                root_sizes = sizes.get(root, {})
                for subset_index in sorted(memberships[root]):
                    size = root_sizes.get(subset_index, 0)
                    if size <= 0:
                        continue
                    items.append((root, subset_index, size))
            if items and degrees[index]:
                announcing[index] = True
                items_by_node[index] = items
                streams.append(
                    (
                        index,
                        ALL_NEIGHBORS,
                        1,
                        [wire_bits(item, ctx.n) for item in items],
                    )
                )

        mail_counts = frame.count_flagged_neighbors(announcing)
        for index in np.nonzero(~halted & (mail_counts > 0))[0].tolist():
            ctx = live[index]
            memberships = ctx.state.get(KEY_K_MEMBERSHIP, {})
            announcers = ctx.state[KEY_K_NEIGHBOR_ANNOUNCERS]
            columns = [
                (node_ids[j], items_by_node[j])
                for j in frame.neighbor_slice(index).tolist()
                if j in items_by_node
            ]
            depth = max(len(items) for _sender, items in columns)
            for position in range(depth):
                for sender_id, items in columns:
                    if position >= len(items):
                        continue
                    root, subset_index, size = items[position]
                    if subset_index not in memberships.get(root, ()):
                        continue
                    record = announcers.setdefault(
                        (root, subset_index), {"size": size, "senders": set()}
                    )
                    record["size"] = size
                    record["senders"].add(sender_id)

        frame.run_schedule(streams)


def build_t_membership(ctx: NodeContext) -> None:
    """Turn Step 4e announcements into ``T_ε(X)`` membership (Step 4f).

    Runs as the ``pre_start`` hook of the decision-stage aggregation.  When
    the Section 5.3 optimisation is enabled (``use_step4f_sampling``), the
    count ``|Γ(u) ∩ K_{2ε²}(X)|`` is *estimated* from a uniform sample of
    the node's neighbours instead of being read exactly.
    """
    eps = _epsilon(ctx)
    memberships: Dict[int, Set[int]] = ctx.state.get(KEY_K_MEMBERSHIP, {})
    announcers: Dict[Tuple[int, int], Dict[str, Any]] = ctx.state.get(
        KEY_K_NEIGHBOR_ANNOUNCERS, {}
    )
    use_sampling = bool(ctx.globals.get(GLOBAL_STEP4F_SAMPLING, False))
    sample_size = int(ctx.globals.get(GLOBAL_STEP4F_SAMPLE_SIZE, 32))

    sampled_neighbors: Optional[Set[int]] = None
    scale = 1.0
    if use_sampling and ctx.degree > sample_size:
        chosen = ctx.rng.sample(list(ctx.neighbors), sample_size)
        sampled_neighbors = set(chosen)
        scale = ctx.degree / float(sample_size)

    t_membership: Dict[int, Set[int]] = {}
    for root, indices in memberships.items():
        qualified: Set[int] = set()
        for index in indices:
            record = announcers.get((root, index))
            if record is None:
                continue
            size = record["size"]
            senders: Set[int] = record["senders"]
            if sampled_neighbors is None:
                count = float(len(senders))
            else:
                count = scale * len(senders & sampled_neighbors)
            if near_clique.meets_fraction(count, size, eps):
                qualified.add(index)
        t_membership[root] = qualified
    ctx.state[KEY_T_MEMBERSHIP] = t_membership


def select_best_subset(ctx: NodeContext, counters: Dict[int, int]) -> None:
    """Decision Step 1 at the root: pick X(S_i) maximising |T_ε(X)|.

    Ties are broken towards the smallest canonical subset index, matching the
    centralized oracle exactly.
    """
    members = ctx.state.get(KEY_COMP_MEMBERS, ())
    best_index = 0
    best_size = -1
    for index in near_clique.iter_nonempty_subset_indices(len(members)):
        size = counters.get(index, 0)
        if size > best_size:
            best_size = size
            best_index = index
    ctx.state[KEY_BEST] = (best_index, max(best_size, 0))


# ---------------------------------------------------------------------------
# decision step 3: acknowledge / abort votes, aggregated to each root
# ---------------------------------------------------------------------------
class VotePhase(Protocol):
    """Every audience node acknowledges its best candidate and aborts the rest.

    Attached leaves send one vote per adjacent component to their attachment
    parent; tree nodes OR together the abort indications of their own vote,
    their attached leaves and their children's subtrees, and forward the
    result to their parent; each root learns whether anyone aborted its
    candidate (``KEY_ABORT_SEEN``).
    """

    name = "nc-vote"
    scope = (KEY_IN_SAMPLE, KEY_BEST_KNOWN)

    def on_start(self, ctx: NodeContext) -> None:
        best_known: Dict[int, Tuple[int, int]] = ctx.state.get(KEY_BEST_KNOWN, {})
        if _in_sample(ctx):
            waiting = set(ctx.state.get(KEY_CHILDREN, []))
            waiting |= set(ctx.state.get(KEY_ATTACHED_LEAVES, set()))
            ctx.state["_vote_waiting"] = waiting
            ctx.state["_vote_abort"] = False
            ctx.state["_vote_flushed"] = False
            # A sampled node is only in the audience of its own component, so
            # its own vote is always an acknowledgement.
            return
        if not best_known:
            ctx.halt()
            return
        choice = self._choice(best_known)
        attach: Dict[int, int] = ctx.state.get(KEY_ATTACH_PARENT, {})
        outbox = Outbox.for_ctx(ctx)
        for root in sorted(best_known):
            parent = attach.get(root)
            if parent is None:
                continue
            ack = 1 if root == choice else 0
            outbox.push(parent, _wire(_VOTE, (root, ack), ctx.n))

    @staticmethod
    def _choice(best_known: Dict[int, Tuple[int, int]]) -> int:
        """The paper's rule: largest |T|, ties towards the largest root id."""
        return max(best_known, key=lambda root: (best_known[root][1], root))

    def on_round(self, ctx: NodeContext, inbox: List[Inbound]) -> None:
        outbox = Outbox.for_ctx(ctx)
        if not _in_sample(ctx):
            outbox.flush()
            return
        waiting: Set[int] = ctx.state["_vote_waiting"]
        for inbound in inbox:
            if inbound.kind == _VOTE:
                _root, ack = inbound.payload
                if not ack:
                    ctx.state["_vote_abort"] = True
                waiting.discard(inbound.sender)
            elif inbound.kind == _ABORT_STATE:
                (flag,) = inbound.payload
                if flag:
                    ctx.state["_vote_abort"] = True
                waiting.discard(inbound.sender)

        if not waiting and not ctx.state["_vote_flushed"]:
            ctx.state["_vote_flushed"] = True
            parent = ctx.state.get(KEY_PARENT)
            abort = 1 if ctx.state["_vote_abort"] else 0
            if parent is None:
                ctx.state[KEY_ABORT_SEEN] = bool(abort)
            else:
                outbox.push(parent, _wire(_ABORT_STATE, (abort,), ctx.n))
        outbox.flush()

    def vectorized_kernel(self) -> "_VoteKernel":
        return _VoteKernel()


class _VoteKernel(VectorizedKernel):
    """Columnar form of :class:`VotePhase`.

    *Apply*: the ``on_start`` sweep (wait sets at tree nodes, the choice
    at each audience node).  *Scatter*: each leaf's ``nc.vote`` items
    leave from round 1; each tree node's ``nc.abort_state`` leaves once
    it waits on nobody (:func:`_converge`).  *Gather*: a tree node ORs the
    abort indications in arrival order; a root records what it saw.
    """

    def execute(self, frame: KernelFrame) -> None:
        live = frame.live
        index_of = frame.index_of
        node_ids = frame.node_ids
        queues = frame.outbox_schedule()
        tree: Dict[int, NodeContext] = {}
        for index in frame.started:
            ctx = live[index]
            state = ctx.state
            best_known: Dict[int, Tuple[int, int]] = state.get(KEY_BEST_KNOWN, _NOTHING)
            if state.get(KEY_IN_SAMPLE):
                waiting = set(state.get(KEY_CHILDREN, []))
                waiting |= set(state.get(KEY_ATTACHED_LEAVES, set()))
                state["_vote_waiting"] = waiting
                state["_vote_abort"] = False
                state["_vote_flushed"] = False
                tree[index] = ctx
                continue
            if not best_known:
                frame.halted[index] = True
                continue
            choice = VotePhase._choice(best_known)
            attach: Dict[int, int] = state.get(KEY_ATTACH_PARENT, _NOTHING)
            # Payload: whether the item is an abort indication.
            for root in sorted(best_known):
                parent = attach.get(root)
                if parent is None:
                    continue
                ack = 1 if root == choice else 0
                bits = [wire_bits((root, ack), ctx.n)]
                queues.push(index, (index_of[parent],), 1, bits, (not ack,))

        def fold(ctx: NodeContext, inbox: Iterable[Tuple[int, int, Any]]) -> None:
            state = ctx.state
            waiting = state["_vote_waiting"]
            for _receiver, sender, abort in inbox:
                if abort:
                    state["_vote_abort"] = True
                waiting.discard(node_ids[sender])

        def flush(ctx: NodeContext, index: int, round_index: int) -> None:
            state = ctx.state
            state["_vote_flushed"] = True
            parent = state.get(KEY_PARENT)
            abort = 1 if state["_vote_abort"] else 0
            if parent is None:
                state[KEY_ABORT_SEEN] = bool(abort)
            else:
                queues.push(
                    index,
                    (index_of[parent],),
                    round_index,
                    [wire_bits((abort,), ctx.n)],
                    [bool(abort)],
                )

        _converge(queues, tree, "_vote_waiting", "_vote_flushed", fold, flush)
        frame.run_schedule(queues.streams)


# ---------------------------------------------------------------------------
# decision step 4: final labels
# ---------------------------------------------------------------------------
class FinalLabelPhase(DownBroadcastPhase):
    """Roots of surviving candidates broadcast X(S_i); members label themselves.

    A node's output register receives the component root — the label of its
    near-clique — when the candidate survived, its size clears the optional
    lower bound, and the node belongs to ``T_ε(X(S_i))``.  Every other node
    keeps the ⊥ output (``None``) written by the sampling phase.
    """

    name = "nc-final-labels"

    def __init__(self) -> None:
        super().__init__(
            items_fn=self._items, store_fn=self._store, label="nc-final-labels"
        )

    @staticmethod
    def _items(ctx: NodeContext) -> List[Tuple[int, ...]]:
        best = ctx.state.get(KEY_BEST, (0, 0))
        abort_seen = bool(ctx.state.get(KEY_ABORT_SEEN, False))
        min_size = int(ctx.globals.get(GLOBAL_MIN_OUTPUT_SIZE, 0))
        survived = (not abort_seen) and best[1] >= min_size and best[0] != 0
        ctx.state[KEY_SURVIVED] = survived
        if not survived:
            return []
        return [(best[0],)]

    @staticmethod
    def _store(ctx: NodeContext, root: int, item: Tuple[int, ...]) -> None:
        (best_index,) = item
        t_membership: Dict[int, Set[int]] = ctx.state.get(KEY_T_MEMBERSHIP, {})
        if best_index in t_membership.get(root, ()):  # this node is in T_ε(X(S_i))
            ctx.write_output(root)


# ---------------------------------------------------------------------------
# store/items helpers used by the runner to build DownBroadcastPhase instances
# ---------------------------------------------------------------------------
def k_size_items(ctx: NodeContext) -> List[Tuple[int, ...]]:
    """Root items for the Step 4d broadcast: all non-zero (index, |K|) pairs."""
    sums: Optional[Dict[int, int]] = ctx.state.get(KEY_K_ROOT_SIZES)
    if not sums:
        return []
    return [(index, size) for index, size in sorted(sums.items()) if size > 0]


def store_k_size(ctx: NodeContext, root: int, item: Tuple[int, ...]) -> None:
    """Receiver side of the Step 4d broadcast."""
    index, size = item
    ctx.state.setdefault(KEY_K_SIZES, {}).setdefault(root, {})[index] = size


def best_items(ctx: NodeContext) -> List[Tuple[int, ...]]:
    """Root items for the decision Step 2 broadcast: (X(S_i), |T_ε(X(S_i))|)."""
    best = ctx.state.get(KEY_BEST)
    if best is None:
        return []
    return [tuple(best)]


def store_best(ctx: NodeContext, root: int, item: Tuple[int, ...]) -> None:
    """Receiver side of the decision Step 2 broadcast."""
    index, size = item
    ctx.state.setdefault(KEY_BEST_KNOWN, {})[root] = (index, size)
