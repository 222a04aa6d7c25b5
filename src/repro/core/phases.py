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

Seven of them — local-subsets, the K and T aggregations, the K-size and
best broadcasts, vote and final-labels — run over each component's BFS
tree and its attached leaves, as a convergecast that waits on a node's
subtree or a broadcast from the root.  They are :class:`TreePhase`
subclasses, each written once as three hooks.

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
callback loop.  A tree phase's callbacks run its :class:`TreePhase`
hooks through the node's ``Outbox`` and remain the executable semantics;
one :class:`_TreeKernel` runs the same hooks over an
:class:`~repro.congest.vectorized.OutboxSchedule`.  The differential
suite holds every kernel to bit-identity with the callbacks:

=====================  ================================================
Phase                  ``engine="vectorized"`` execution
=====================  ================================================
SamplingPhase          kernel (local coin flips, zero rounds)
MinIdBFSTreeProtocol   callback fallback (data-dependent waves)
ParentNotification     callback fallback
ConvergecastCollect    callback fallback
TreeBroadcast          callback fallback
CompDisseminationPhase kernel (pipelined neighbourhood broadcast)
LocalSubsetPhase       tree kernel (``nc.attach`` to each attach parent)
UpAggregationPhase     tree kernel (convergecast, flushed by ``settle``)
DownBroadcastPhase     tree kernel (each item forwarded as it arrives)
KAnnouncePhase         kernel (pipelined neighbourhood broadcast)
VotePhase              tree kernel (convergecast, flushed by ``settle``)
FinalLabelPhase        tree kernel (a down-broadcast)
=====================  ================================================

The tree kernel delivers each item in the callbacks' arrival order —
round, then receiver, then sender — and sets the round index before each
hook, so the injected ``pre_start`` / ``root_finalize`` / ``items_fn`` /
``store_fn`` run at the same nodes, as often, in the same order and at
the same round index on both drivers.  Like the broadcast kernels it
assumes the started nodes' outbox queues are empty when the phase starts
(every phase here drains its queues before it quiesces) and that the
tree keys name neighbours.
"""

from __future__ import annotations

import functools
from itertools import groupby
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.congest.message import Inbound, Message, id_bits_for, KIND_TAG_BITS
from repro.congest.node import NodeContext, Protocol
from repro.congest.randomness import node_coin, node_coin_column
from repro.congest.vectorized import (
    ALL_NEIGHBORS,
    KernelFrame,
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
KEY_STEP4F_NEIGHBORS = "nc_step4f_neighbors"
KEY_T_MEMBERSHIP = "nc_t_membership"
KEY_K_ROOT_SIZES = "nc_root_k_sizes"
KEY_T_ROOT_SIZES = "nc_root_t_sizes"
KEY_BEST = "nc_best"
KEY_BEST_KNOWN = "nc_best_known"
KEY_ABORT_SEEN = "nc_abort_seen"
KEY_SURVIVED = "nc_survived"

#: Read-only default for the ``state.get`` calls that only read the table.
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
        if ctx.state.get(KEY_IN_SAMPLE):
            members = near_clique.canonical_members(ctx.state.get(KEY_COMP_BCAST, []))
            ctx.state[KEY_COMP_MEMBERS] = members
            root = ctx.state[KEY_ROOT]
            outbox = Outbox.for_ctx(ctx)
            for member in members:
                outbox.push_all(_wire(_COMP, (root, member), ctx.n))
        elif not ctx.neighbors:
            ctx.halt()

    def on_round(self, ctx: NodeContext, inbox: List[Inbound]) -> None:
        if ctx.state.get(KEY_IN_SAMPLE):
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
    one delivered message at a time, the receivers are read off the
    broadcasters' own CSR rows (O(vol(S)), not O(m)); each non-sampled one
    creates its component table (building its context) in ascending order,
    and then every broadcaster, in ascending order, folds its whole member
    column into its neighbours' tables — so each receiver sees its senders
    in the ascending order the callbacks' inbox has.  *Scatter*: each
    sampled node's stream (one ``nc.comp`` item per member, pushed to every
    neighbour) goes to the stream schedule as one ``push_all`` stream,
    which reproduces the pipelined flush's rounds and metrics exactly.
    """

    def execute(self, frame: KernelFrame) -> None:
        np = frame.np
        live = frame.live
        node_ids = frame.node_ids
        degrees = frame.degrees

        sampled = np.zeros(frame.n, dtype=bool)
        broadcasters: List[Tuple[int, int, Tuple[int, ...]]] = []
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
                if members and degrees[index]:
                    broadcasters.append((index, root, members))
                    streams.append(
                        (
                            index,
                            ALL_NEIGHBORS,
                            1,
                            [wire_bits((root, member), ctx.n) for member in members],
                        )
                    )
        frame.halted[~sampled & (degrees == 0)] = True

        if broadcasters:
            rows = [frame.neighbor_slice(index) for index, _, _ in broadcasters]
            receivers = np.unique(np.concatenate(rows))
            tables: Dict[int, Dict[int, Dict[str, set]]] = {
                index: frame.touch(index).state.setdefault(KEY_ADJ_COMPONENTS, {})
                for index in receivers[~sampled[receivers]].tolist()
            }
            for (index, root, members), row in zip(broadcasters, rows):
                sender = node_ids[index]
                for neighbor in row.tolist():
                    table = tables.get(neighbor)
                    if table is None:
                        continue
                    record = table.get(root)
                    if record is None:
                        record = table[root] = {"members": set(), "senders": set()}
                    record["members"].update(members)
                    record["senders"].add(sender)

        frame.run_schedule(streams)


# ---------------------------------------------------------------------------
# tree phases: one set of hooks, run by the callbacks or by one kernel
# ---------------------------------------------------------------------------
#: One send of a tree phase: a tuple of receiver ids, the message kind and
#: an integer payload, charged by :func:`wire_bits`.
Send = Tuple[Tuple[int, ...], str, Tuple[int, ...]]


class TreePhase(Protocol):
    """A phase over each component's BFS tree and its attached leaves.

    Steps 4a–4d and Decision Steps 1–4 are each a convergecast that waits
    on a node's subtree or a broadcast from the root, and each is written
    once, as three hooks that return the sends a node makes:

    ``start(ctx)``
        The node's round-0 work: its sends, or ``None`` to halt it.
    ``receive(ctx, sender, kind, payload)``
        The sends that answer one delivered item.
    ``settle(ctx)``
        Runs after the node's inbox of each round; no sends by default.
        A convergecast flushes here once it waits on nobody.  What it
        does may change only when the node receives: the tree kernel
        calls it at round 1 and after each of the node's deliveries.

    The callbacks run the hooks and push the sends through the node's
    :class:`Outbox`; they are the executable semantics.  Under
    ``engine="vectorized"``, :class:`_TreeKernel` runs the same hooks.
    """

    def start(self, ctx: NodeContext) -> Optional[List[Send]]:
        raise NotImplementedError

    def receive(
        self, ctx: NodeContext, sender: int, kind: str, payload: Tuple[int, ...]
    ) -> Sequence[Send]:
        return ()

    def settle(self, ctx: NodeContext) -> Sequence[Send]:
        return ()

    def on_start(self, ctx: NodeContext) -> None:
        sends = self.start(ctx)
        if sends is None:
            ctx.halt()
        else:
            _push(ctx, sends)

    def on_round(self, ctx: NodeContext, inbox: List[Inbound]) -> None:
        for inbound in inbox:
            _push(ctx, self.receive(ctx, inbound.sender, inbound.kind, inbound.payload))
        _push(ctx, self.settle(ctx))
        Outbox.for_ctx(ctx).flush()

    def vectorized_kernel(self) -> "_TreeKernel":
        return _TreeKernel()


def _push(ctx: NodeContext, sends: Sequence[Send]) -> None:
    """Queue *sends* on the node's outbox, receivers in the order given."""
    if sends:
        outbox = Outbox.for_ctx(ctx)
        for receivers, kind, payload in sends:
            message = _wire(kind, payload, ctx.n)
            for receiver in receivers:
                outbox.push(receiver, message)


def _waiting_on_subtree(state: Dict[str, Any]) -> Set[int]:
    """A tree node's tree children and attached leaves."""
    waiting = set(state.get(KEY_CHILDREN, []))
    waiting |= set(state.get(KEY_ATTACHED_LEAVES, set()))
    return waiting


class _TreeKernel(VectorizedKernel):
    """Columnar driver of a :class:`TreePhase`'s hooks.

    *Apply*: ``start`` at every started node (round 0), then ``settle`` at
    every node it did not halt (round 1, which delivers nothing).
    *Gather*: the schedule's deliveries, in the callbacks' arrival order,
    each run ``receive`` per item and then ``settle``.  A tree phase's
    ``settle`` can change only when its node receives, so the callbacks'
    other calls return no sends and are skipped.  *Scatter*: each hook's
    sends join the frame's :class:`~repro.congest.vectorized.OutboxSchedule`
    in the round the hook ran, consecutive sends to the same receivers as
    one push.
    """

    def execute(self, frame: KernelFrame) -> None:
        phase: TreePhase = frame.protocol  # type: ignore[assignment]
        live = frame.live
        index_of = frame.index_of
        node_ids = frame.node_ids
        queues = frame.outbox_schedule()
        dense_of: Dict[Tuple[int, ...], Tuple[int, ...]] = {}

        def push(sender: int, n: int, sends: Sequence[Send], round_index: int) -> None:
            if len(sends) == 1:
                runs: Sequence[Tuple[Any, Sequence[Send]]] = ((sends[0][0], sends),)
            else:
                runs = [(to, list(run)) for to, run in groupby(sends, itemgetter(0))]
            for receivers, chunk in runs:
                dense = dense_of.get(receivers)
                if dense is None:
                    dense = dense_of[receivers] = tuple(index_of[r] for r in receivers)
                bits = [wire_bits(payload, n) for _, _, payload in chunk]
                queues.push(sender, dense, round_index, bits, chunk)

        start = phase.start
        active: List[int] = []
        for index in frame.started:
            ctx = live[index]
            ctx._round = 0
            sends = start(ctx)
            if sends is None:
                frame.halted[index] = True
                continue
            active.append(index)
            if sends:
                push(index, ctx.n, sends, 1)
        settle = None if type(phase).settle is TreePhase.settle else phase.settle
        if settle is not None:
            for index in active:
                ctx = live[index]
                ctx._round = 1
                sends = settle(ctx)
                if sends:
                    push(index, ctx.n, sends, 1)

        receive = phase.receive
        for round_index, receiver, inbox in queues.deliveries():
            ctx = live[receiver]
            ctx._round = round_index
            for entry in inbox:  # (receiver, sender, kind, *payload)
                sends = receive(ctx, node_ids[entry[1]], entry[2], entry[3:])
                if sends:
                    push(receiver, ctx.n, sends, round_index)
            if settle is not None:
                sends = settle(ctx)
                if sends:
                    push(receiver, ctx.n, sends, round_index)
        frame.run_schedule(queues.streams)


# ---------------------------------------------------------------------------
# exploration step 4a: local subset membership + leaf attachment
# ---------------------------------------------------------------------------
class LocalSubsetPhase(TreePhase):
    """Local evaluation of ``v ∈ K_{2ε²}(X)`` for every X, plus attachment.

    Non-sampled nodes adjacent to a component pick one neighbour from that
    component as their attachment parent (the paper's ``parent^{S_i}(u)``)
    and notify it, so that the subsequent aggregations know exactly which
    leaves hang off each tree node.
    """

    name = "nc-local-subsets"
    scope = (KEY_IN_SAMPLE, KEY_ADJ_COMPONENTS)

    def __init__(self) -> None:
        #: This run's Step 4a rows, by (component size, neighbour mask, ε).
        self._memo: Dict[Tuple[int, int, float], Tuple[int, ...]] = {}

    def _k_membership(
        self, members: Sequence[int], neighbor_ids: Sequence[int], inner_epsilon: float
    ) -> Set[int]:
        """Step 4a at node v: the indices X with ``v ∈ K_{2ε²}(X)`` (local).

        ``neighbor_ids`` are v's neighbours in ascending order; v's
        neighbour mask over the members picks its row of
        :func:`near_clique.subset_membership`, computed once per run for
        every node with the same component size, mask and ε.
        """
        mask = near_clique.sorted_neighbor_mask(members, neighbor_ids)
        key = (len(members), mask, inner_epsilon)
        row = self._memo.get(key)
        if row is None:
            row = self._memo[key] = tuple(
                index
                for indices, _sizes, member in near_clique.subset_membership(
                    (mask,), len(members), inner_epsilon
                )
                for index in indices[member[0]].tolist()
            )
        return set(row)

    def start(self, ctx: NodeContext) -> Optional[List[Send]]:
        state = ctx.state
        eps = _epsilon(ctx)
        inner_eps = 2.0 * eps * eps
        memberships: Dict[int, Set[int]] = {}
        sends: List[Send] = []
        if state.get(KEY_IN_SAMPLE):
            members = state.get(KEY_COMP_MEMBERS, ())
            root = state[KEY_ROOT]
            memberships[root] = self._k_membership(members, ctx.neighbors, inner_eps)
            state[KEY_ATTACHED_LEAVES] = set()
            state[KEY_ADJ_MEMBERS] = {root: tuple(members)}
        else:
            records = state.get(KEY_ADJ_COMPONENTS)
            if not records:
                return None
            attach: Dict[int, int] = {}
            adjacent_members: Dict[int, Tuple[int, ...]] = {}
            for root in sorted(records):
                record = records[root]
                members = near_clique.canonical_members(record["members"])
                adjacent_members[root] = members
                parent = attach[root] = min(record["senders"])
                sends.append(((parent,), _ATTACH, (root,)))
                memberships[root] = self._k_membership(
                    members, ctx.neighbors, inner_eps
                )
            state[KEY_ATTACH_PARENT] = attach
            state[KEY_ADJ_MEMBERS] = adjacent_members
        state[KEY_K_MEMBERSHIP] = memberships
        return sends

    def receive(
        self, ctx: NodeContext, sender: int, kind: str, payload: Tuple[int, ...]
    ) -> Sequence[Send]:
        if ctx.state.get(KEY_IN_SAMPLE):  # an nc.attach from a leaf
            ctx.state[KEY_ATTACHED_LEAVES].add(sender)
        return ()


# ---------------------------------------------------------------------------
# generic aggregation up the tree (exploration 4b-4c, decision step 1)
# ---------------------------------------------------------------------------
class UpAggregationPhase(TreePhase):
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
        # Local state keys, prefixed with the result key so that successive
        # aggregations do not trample each other's bookkeeping.
        self._counters = result_key + ".counters"
        self._waiting = result_key + ".waiting"
        self._flushed = result_key + ".flushed"

    def start(self, ctx: NodeContext) -> Optional[List[Send]]:
        state = ctx.state
        if self.pre_start is not None and (
            state.get(KEY_IN_SAMPLE) or state.get(KEY_ATTACH_PARENT)
        ):
            self.pre_start(ctx)
        memberships: Dict[int, Set[int]] = state.get(self.membership_key, _NOTHING)
        if state.get(KEY_IN_SAMPLE):
            counters: Dict[int, int] = {}
            for index in memberships.get(state[KEY_ROOT], ()):  # own contribution
                counters[index] = counters.get(index, 0) + 1
            state[self._counters] = counters
            state[self._waiting] = _waiting_on_subtree(state)
            state[self._flushed] = False
            state[self.result_key] = None
            return []
        attach: Dict[int, int] = state.get(KEY_ATTACH_PARENT, _NOTHING)
        if not attach:
            return None
        sends: List[Send] = []
        for root in sorted(attach):
            parent = (attach[root],)
            sends += [
                (parent, _AGG, (root, index, 1))
                for index in sorted(memberships.get(root, ()))
            ]
            sends.append((parent, _AGG_DONE, (root,)))
        return sends

    def receive(
        self, ctx: NodeContext, sender: int, kind: str, payload: Tuple[int, ...]
    ) -> Sequence[Send]:
        if ctx.state.get(KEY_IN_SAMPLE):
            if kind == _AGG:
                _root, index, count = payload
                counters: Dict[int, int] = ctx.state[self._counters]
                counters[index] = counters.get(index, 0) + count
            elif kind == _AGG_DONE:
                ctx.state[self._waiting].discard(sender)
        return ()

    def settle(self, ctx: NodeContext) -> Sequence[Send]:
        state = ctx.state
        if (
            not state.get(KEY_IN_SAMPLE)
            or state[self._waiting]
            or state[self._flushed]
        ):
            return ()
        state[self._flushed] = True
        counters: Dict[int, int] = state[self._counters]
        parent = state.get(KEY_PARENT)
        if parent is None:
            state[self.result_key] = dict(counters)
            if self.root_finalize is not None:
                self.root_finalize(ctx, counters)
            return ()
        root = state[KEY_ROOT]
        to_parent = (parent,)
        sends: List[Send] = [
            (to_parent, _AGG, (root, index, counters[index]))
            for index in sorted(counters)
            if counters[index]
        ]
        sends.append((to_parent, _AGG_DONE, (root,)))
        return sends


# ---------------------------------------------------------------------------
# generic broadcast down the tree and to attached leaves
# ---------------------------------------------------------------------------
class DownBroadcastPhase(TreePhase):
    """Stream items from every component root to S_i and to Γ(S_i).

    ``items_fn(ctx)`` is evaluated at each root and must return a list of
    integer tuples (each becomes one O(log n)-bit message, prefixed with the
    component root on the wire).  ``store_fn(ctx, root, item)`` is applied at
    every receiving node — including the root itself — in arrival order.
    A tree node forwards each item to its children and attached leaves in
    the round it arrives.
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
        #: Each tree node's children, then its attached leaves in ascending
        #: order; set by ``start``, reused for every item the node forwards.
        self._targets: Dict[int, Tuple[int, ...]] = {}

    def start(self, ctx: NodeContext) -> Optional[List[Send]]:
        state = ctx.state
        if not state.get(KEY_IN_SAMPLE):
            return [] if state.get(KEY_ATTACH_PARENT) else None
        targets = self._targets[ctx.node_id] = tuple(
            state.get(KEY_CHILDREN, [])
        ) + tuple(sorted(state.get(KEY_ATTACHED_LEAVES, ())))
        if state.get(KEY_PARENT) is not None:
            return []
        root = state[KEY_ROOT]
        # What the receivers decode: the wire carries ints.
        items = [tuple(int(e) for e in item) for item in self.items_fn(ctx)]
        for item in items:
            self.store_fn(ctx, root, item)
        return [(targets, _DOWN, (root,) + item) for item in items]

    def receive(
        self, ctx: NodeContext, sender: int, kind: str, payload: Tuple[int, ...]
    ) -> Sequence[Send]:
        self.store_fn(ctx, payload[0], payload[1:])
        if ctx.state.get(KEY_IN_SAMPLE):
            return [(self._targets[ctx.node_id], _DOWN, payload)]
        return ()


# ---------------------------------------------------------------------------
# exploration steps 4e-4f: K-membership announcements
# ---------------------------------------------------------------------------
class KAnnouncePhase(Protocol):
    """Every node of ``K_{2ε²}(X)`` announces |K_{2ε²}(X)| to its neighbours.

    A node needs only the count ``|Γ(u) ∩ K_{2ε²}(X)|`` for each item X it
    is itself a K-member of: with the size, that count decides membership
    in ``K_ε(K_{2ε²}(X))`` and hence in ``T_ε(X)`` (computed by
    :func:`build_t_membership` at the start of the next phase).  So
    ``on_start`` creates the node's whole ``KEY_K_NEIGHBOR_ANNOUNCERS``
    table up front — one ``{"size": s, "count": 0}`` record per item it
    announces, keyed ``(root, index)`` in ascending order, with the size
    from its own ``KEY_K_SIZES`` — and each ``nc.ksize`` for one of those
    items adds one to its count; the others are ignored.  Under Section
    5.3's Step 4f estimate (``use_step4f_sampling``) a node of degree above
    the sample size draws its sample of neighbours here, from ``ctx.rng``,
    into ``KEY_STEP4F_NEIGHBORS``, and counts only the announcements of
    those neighbours.
    """

    name = "nc-k-announce"
    scope = (KEY_K_MEMBERSHIP,)

    def on_start(self, ctx: NodeContext) -> None:
        items = _start_k_announce(ctx)
        if items is None:
            ctx.halt()
            return
        outbox = Outbox.for_ctx(ctx)
        for item in items:
            outbox.push_all(_wire(_KSIZE, item, ctx.n))

    def on_round(self, ctx: NodeContext, inbox: List[Inbound]) -> None:
        announcers: Dict[Tuple[int, int], Dict[str, int]] = ctx.state[
            KEY_K_NEIGHBOR_ANNOUNCERS
        ]
        counted: Optional[Set[int]] = ctx.state.get(KEY_STEP4F_NEIGHBORS)
        for inbound in inbox:
            if inbound.kind != _KSIZE:
                continue
            if counted is not None and inbound.sender not in counted:
                continue
            root, index, _size = inbound.payload
            record = announcers.get((root, index))
            if record is not None:
                record["count"] += 1
        Outbox.for_ctx(ctx).flush()

    def vectorized_kernel(self) -> "_KAnnounceKernel":
        return _KAnnounceKernel()


def _start_k_announce(ctx: NodeContext) -> Optional[List[Tuple[int, int, int]]]:
    """:meth:`KAnnouncePhase.on_start`'s state writes; its announcements.

    Returns the node's ``(root, index, size)`` items in ascending order, or
    ``None`` when it has no K-membership and halts.  Writes the zero-count
    announcer table and, under Step 4f, draws the counted neighbours.
    """
    state = ctx.state
    memberships: Dict[int, Set[int]] = state.get(KEY_K_MEMBERSHIP, _NOTHING)
    if not any(memberships.values()):
        return None
    sizes: Dict[int, Dict[int, int]] = state.get(KEY_K_SIZES, _NOTHING)
    items: List[Tuple[int, int, int]] = []
    for root in sorted(memberships):
        root_sizes = sizes.get(root, _NOTHING)
        for index in sorted(memberships[root]):
            size = root_sizes.get(index, 0)
            if size > 0:
                items.append((root, index, size))
    state[KEY_K_NEIGHBOR_ANNOUNCERS] = {
        (root, index): {"size": size, "count": 0} for root, index, size in items
    }
    sample_size = int(ctx.globals.get(GLOBAL_STEP4F_SAMPLE_SIZE, 32))
    if (
        items
        and ctx.globals.get(GLOBAL_STEP4F_SAMPLING)
        and ctx.degree > sample_size
    ):
        state[KEY_STEP4F_NEIGHBORS] = set(
            ctx.rng.sample(list(ctx.neighbors), sample_size)
        )
    return items


#: Byte budget of one (receivers × announcers) float32 adjacency block of
#: :class:`_KAnnounceKernel`; the receivers are processed in row blocks
#: that fit it.
_K_BLOCK_BYTES = 8 << 20


class _KAnnounceKernel(VectorizedKernel):
    """Columnar form of :class:`KAnnouncePhase`.

    *Apply*: one sweep runs ``on_start``'s state writes
    (:func:`_start_k_announce`) over the started nodes and records the
    halts.  *Gather*: a record's count is ``|Γ(u) ∩ K_{2ε²}(X)|``, so all
    counts are one product — the (receivers × announcers) 0/1 adjacency
    block times the announcers' 0/1 (announcer × item) incidence, the
    ``spmm(adjmat, mask)`` degree count.  Only a node that announces holds
    records, so the receivers are the announcers themselves and the block
    is read off their own CSR rows; a Step 4f node's row keeps only its
    sampled neighbours.  The product runs in float32 (exact: every count is
    below 2^24), in row blocks of at most :data:`_K_BLOCK_BYTES`.
    *Scatter*: the announcement columns go to the stream schedule as
    ``push_all`` streams.
    """

    def execute(self, frame: KernelFrame) -> None:
        np = frame.np
        live = frame.live
        degrees = frame.degrees
        announcers: List[int] = []
        samples: Dict[int, Set[int]] = {}
        # One entry per announced item: its record, announcer row, column.
        records: List[Dict[str, int]] = []
        rows: List[int] = []
        columns: List[int] = []
        column_of: Dict[Tuple[int, int], int] = {}
        streams: List[Stream] = []
        for index in frame.started:
            ctx = live[index]
            items = _start_k_announce(ctx)
            if items is None:
                frame.halted[index] = True
                continue
            if not items or not degrees[index]:
                continue
            row = len(announcers)
            announcers.append(index)
            if KEY_STEP4F_NEIGHBORS in ctx.state:
                samples[row] = ctx.state[KEY_STEP4F_NEIGHBORS]
            records += ctx.state[KEY_K_NEIGHBOR_ANNOUNCERS].values()
            for root, subset_index, _size in items:
                rows.append(row)
                column = column_of.setdefault((root, subset_index), len(column_of))
                columns.append(column)
            streams.append(
                (index, ALL_NEIGHBORS, 1, [wire_bits(item, ctx.n) for item in items])
            )

        k = len(announcers)
        if k > 1:
            item_rows = np.asarray(rows)
            item_columns = np.asarray(columns)
            incidence = np.zeros((k, len(column_of)), dtype=np.float32)
            incidence[item_rows, item_columns] = 1.0
            arc_rows, arc_columns = _announcer_arcs(frame, announcers, samples)
            step = max(1, _K_BLOCK_BYTES // (4 * k))
            for first in range(0, k, step):
                last = min(first + step, k)
                block = np.zeros((last - first, k), dtype=np.float32)
                lo, hi = np.searchsorted(arc_rows, (first, last))
                block[arc_rows[lo:hi] - first, arc_columns[lo:hi]] = 1.0
                counts = block @ incidence
                lo, hi = np.searchsorted(item_rows, (first, last))
                found = counts[item_rows[lo:hi] - first, item_columns[lo:hi]]
                for record, count in zip(records[lo:hi], found.tolist()):
                    if count:
                        record["count"] = int(count)
        frame.run_schedule(streams)


def _announcer_arcs(
    frame: KernelFrame, announcers: List[int], samples: Dict[int, Set[int]]
) -> Tuple[Any, Any]:
    """The arcs between announcers as (row, column) positions, row-sorted.

    Read off the announcers' CSR rows.  ``samples`` maps the row of a node
    that drew a Step 4f sample to that sample (node ids); such a row keeps
    only the arcs to its sampled neighbours.
    """
    np = frame.np
    n = frame.n
    k = len(announcers)
    dense = np.asarray(announcers)
    slot = np.full(n, -1, dtype=np.int64)
    slot[dense] = np.arange(k)
    rows = np.repeat(np.arange(k), frame.degrees[dense])
    neighbors = np.concatenate([frame.neighbor_slice(index) for index in announcers])
    keep = slot[neighbors] >= 0
    if samples:
        masked = np.zeros(k, dtype=bool)
        masked[list(samples)] = True
        index_of = frame.index_of
        sampled_arcs = [
            row * n + index_of[neighbor]
            for row, sample in samples.items()
            for neighbor in sample
        ]
        keep &= ~masked[rows] | np.isin(rows * n + neighbors, sampled_arcs)
    return rows[keep], slot[neighbors[keep]]


def build_t_membership(ctx: NodeContext) -> None:
    """Turn Step 4e counts into ``T_ε(X)`` membership (Step 4f).

    Runs as the ``pre_start`` hook of the decision-stage aggregation.  A
    node is in ``T_ε(X)`` when the count of its ``KEY_K_NEIGHBOR_ANNOUNCERS``
    record for X reaches ``(1 − ε)`` of the record's size; a zero count
    never qualifies, as a node no K-member announced to.  Under the
    Section 5.3 optimisation (``use_step4f_sampling``), a node that drew a
    sample of neighbours in :class:`KAnnouncePhase` counted over that
    sample only, and its count is scaled by ``degree / sample size`` — the
    estimate of ``|Γ(u) ∩ K_{2ε²}(X)|``.
    """
    state = ctx.state
    eps = _epsilon(ctx)
    memberships: Dict[int, Set[int]] = state.get(KEY_K_MEMBERSHIP, _NOTHING)
    announcers: Dict[Tuple[int, int], Dict[str, int]] = state.get(
        KEY_K_NEIGHBOR_ANNOUNCERS, _NOTHING
    )
    counted: Optional[Set[int]] = state.get(KEY_STEP4F_NEIGHBORS)
    scale = 1.0 if counted is None else ctx.degree / float(len(counted))

    t_membership: Dict[int, Set[int]] = {}
    for root, indices in memberships.items():
        qualified: Set[int] = set()
        for index in indices:
            record = announcers.get((root, index))
            if (
                record is not None
                and record["count"]
                and near_clique.meets_fraction(
                    scale * record["count"], record["size"], eps
                )
            ):
                qualified.add(index)
        t_membership[root] = qualified
    state[KEY_T_MEMBERSHIP] = t_membership


def select_best_subset(ctx: NodeContext, counters: Dict[int, int]) -> None:
    """Decision Step 1 at the root: pick X(S_i) maximising |T_ε(X)|.

    Ties are broken towards the smallest canonical subset index, matching the
    centralized oracle exactly.  With no positive count the choice is index 1
    with size 0, and with no members it is ``(0, 0)``.
    """
    best = (0, 0)
    if ctx.state.get(KEY_COMP_MEMBERS):
        best = min(
            ((index, size) for index, size in counters.items() if size > 0),
            key=lambda item: (-item[1], item[0]),
            default=(1, 0),
        )
    ctx.state[KEY_BEST] = best


# ---------------------------------------------------------------------------
# decision step 3: acknowledge / abort votes, aggregated to each root
# ---------------------------------------------------------------------------
class VotePhase(TreePhase):
    """Every audience node acknowledges its best candidate and aborts the rest.

    Attached leaves send one vote per adjacent component to their attachment
    parent; tree nodes OR together the abort indications of their own vote,
    their attached leaves and their children's subtrees, and forward the
    result to their parent; each root learns whether anyone aborted its
    candidate (``KEY_ABORT_SEEN``).
    """

    name = "nc-vote"
    scope = (KEY_IN_SAMPLE, KEY_BEST_KNOWN)

    def start(self, ctx: NodeContext) -> Optional[List[Send]]:
        state = ctx.state
        if state.get(KEY_IN_SAMPLE):
            state["_vote_waiting"] = _waiting_on_subtree(state)
            state["_vote_abort"] = False
            state["_vote_flushed"] = False
            # A sampled node is only in the audience of its own component, so
            # its own vote is always an acknowledgement.
            return []
        best_known: Dict[int, Tuple[int, int]] = state.get(KEY_BEST_KNOWN, _NOTHING)
        if not best_known:
            return None
        choice = self._choice(best_known)
        attach: Dict[int, int] = state.get(KEY_ATTACH_PARENT, _NOTHING)
        sends: List[Send] = []
        for root in sorted(best_known):
            parent = attach.get(root)
            if parent is not None:
                ack = 1 if root == choice else 0
                sends.append(((parent,), _VOTE, (root, ack)))
        return sends

    @staticmethod
    def _choice(best_known: Dict[int, Tuple[int, int]]) -> int:
        """The paper's rule: largest |T|, ties towards the largest root id."""
        return max(best_known, key=lambda root: (best_known[root][1], root))

    def receive(
        self, ctx: NodeContext, sender: int, kind: str, payload: Tuple[int, ...]
    ) -> Sequence[Send]:
        if not ctx.state.get(KEY_IN_SAMPLE):
            return ()
        if kind == _VOTE:
            _root, ack = payload
            abort = not ack
        elif kind == _ABORT_STATE:
            (abort,) = payload
        else:
            return ()
        if abort:
            ctx.state["_vote_abort"] = True
        ctx.state["_vote_waiting"].discard(sender)
        return ()

    def settle(self, ctx: NodeContext) -> Sequence[Send]:
        state = ctx.state
        if (
            not state.get(KEY_IN_SAMPLE)
            or state["_vote_waiting"]
            or state["_vote_flushed"]
        ):
            return ()
        state["_vote_flushed"] = True
        abort = 1 if state["_vote_abort"] else 0
        parent = state.get(KEY_PARENT)
        if parent is None:
            state[KEY_ABORT_SEEN] = bool(abort)
            return ()
        return [((parent,), _ABORT_STATE, (abort,))]


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
