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
every non-isolated node, so those two have no scope.

All phases respect the CONGEST discipline: every message carries a constant
number of identifiers / polynomially-bounded counters (O(log n) bits), and a
node sends at most one message per neighbour per round (larger transfers are
pipelined through :class:`repro.primitives.pipelines.Outbox`).

State shared between phases lives in each node's ``ctx.state`` under the
``KEY_*`` names below; the runner (:mod:`repro.core.dist_near_clique`) wires
the phases together and harvests the final outputs.

**Vectorized-kernel coverage.**  Under ``engine="vectorized"``
(:mod:`repro.congest.vectorized`) the *regular* phases — those whose round
structure is a closed-form pipelined broadcast, with no data-dependent
waiting — execute as columnar gather/apply/scatter kernels instead of
per-node callbacks; the rest fall back to the batched callback path.  The
callbacks below remain the executable semantics either way (the kernels are
held to bit-identity by the differential suite):

=====================  ==========================================
Phase                  ``engine="vectorized"`` execution
=====================  ==========================================
SamplingPhase          kernel (local coin flips, zero rounds)
MinIdBFSTreeProtocol   callback fallback (data-dependent waves)
ParentNotification     callback fallback
ConvergecastCollect    callback fallback (waits on subtrees)
TreeBroadcast          callback fallback
CompDisseminationPhase kernel (pipelined neighbourhood broadcast)
LocalSubsetPhase       callback fallback (single-shot sends)
UpAggregationPhase     callback fallback (waits on leaves/children)
DownBroadcastPhase     callback fallback (multi-hop relay)
KAnnouncePhase         kernel (pipelined neighbourhood broadcast)
VotePhase              callback fallback (waits on subtrees)
FinalLabelPhase        callback fallback (multi-hop relay)
=====================  ==========================================
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.congest.message import Inbound, Message, id_bits_for, KIND_TAG_BITS
from repro.congest.node import NodeContext, Protocol
from repro.congest.pipeline import (
    ARTIFACT_BFS_TREE,
    ARTIFACT_COMPONENT_MAP,
    ARTIFACT_TREE_CHILDREN,
    PhaseEffects,
)
from repro.congest.vectorized import KernelFrame, VectorizedKernel
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

# global input keys (ctx.globals)
GLOBAL_EPSILON = "epsilon"
GLOBAL_SAMPLE_PROBABILITY = "sample_probability"
GLOBAL_MIN_OUTPUT_SIZE = "min_output_size"
GLOBAL_STEP4F_SAMPLING = "use_step4f_sampling"
GLOBAL_STEP4F_SAMPLE_SIZE = "step4f_sample_size"

# message kinds
_COMP = "nc.comp"
_ATTACH = "nc.attach"
_AGG = "nc.agg"
_AGG_DONE = "nc.agg_done"
_DOWN = "nc.down"
_KSIZE = "nc.ksize"
_VOTE = "nc.vote"
_ABORT_STATE = "nc.abort_state"


def _wire(kind: str, payload: Tuple, n: int) -> Message:
    """Build a message whose integers are charged at identifier width.

    All ``DistNearClique`` messages carry a constant number of identifiers,
    subset indices and counters; each element is charged at
    ``max(⌈log₂ n⌉, bit length)`` bits so that the accounting is an honest
    Theta(log n) per element for the parameter regime of the paper.
    """
    bits = KIND_TAG_BITS
    for element in payload:
        bits += max(id_bits_for(n), int(abs(int(element))).bit_length() + 1)
    return Message(kind=kind, payload=tuple(int(e) for e in payload), bits=bits)


def _epsilon(ctx: NodeContext) -> float:
    return float(ctx.globals[GLOBAL_EPSILON])


def _in_sample(ctx: NodeContext) -> bool:
    return bool(ctx.state.get(KEY_IN_SAMPLE))


def _k_membership_indices(
    members: Sequence[int], neighbor_ids: Sequence[int], inner_epsilon: float
) -> Set[int]:
    """Indices of the non-empty X ⊆ members with ``v ∈ K_{2ε²}(X)``.

    ``neighbor_ids`` are the neighbours of the evaluating node v; membership
    is ``|Γ(v) ∩ X| ≥ (1 − 2ε²)|X|`` evaluated with the shared tolerance, via
    bitmask popcounts (exploration Step 4a — purely local computation).
    """
    mask = near_clique.neighbor_mask(members, neighbor_ids)
    result: Set[int] = set()
    for index in near_clique.iter_nonempty_subset_indices(len(members)):
        if near_clique.meets_fraction(
            near_clique.popcount(mask & index),
            near_clique.popcount(index),
            inner_epsilon,
        ):
            result.add(index)
    return result


# ---------------------------------------------------------------------------
# sampling stage
# ---------------------------------------------------------------------------
class SamplingPhase(Protocol):
    """Each node joins S independently with probability p (purely local).

    If the runner supplies a predetermined sample (``KEY_FORCED_SAMPLE`` in
    the per-node inputs) the coin flip is skipped — used by tests that
    cross-check the distributed execution against the centralized oracle on
    the very same sample.
    """

    name = "nc-sampling"
    quiesce_terminates = True

    def effects(self) -> PhaseEffects:
        return PhaseEffects(
            reads=(KEY_FORCED_SAMPLE, KEY_IN_SAMPLE),
            writes=(KEY_IN_SAMPLE, KEY_PARTICIPANT),
            globals_read=(GLOBAL_SAMPLE_PROBABILITY,),
            writes_output=True,
        )

    def on_start(self, ctx: NodeContext) -> None:
        forced = ctx.state.get(KEY_FORCED_SAMPLE)
        if forced is None:
            probability = float(ctx.globals.get(GLOBAL_SAMPLE_PROBABILITY, 0.0))
            in_sample = ctx.rng.random() < probability
        else:
            in_sample = bool(forced)
        ctx.state[KEY_IN_SAMPLE] = in_sample
        ctx.state[KEY_PARTICIPANT] = in_sample
        ctx.write_output(None)
        ctx.halt()

    def collect_output(self, ctx: NodeContext) -> bool:
        return bool(ctx.state.get(KEY_IN_SAMPLE))

    def vectorized_kernel(self) -> "_SamplingKernel":
        return _SamplingKernel()


class _SamplingKernel(VectorizedKernel):
    """Columnar form of :class:`SamplingPhase`.

    Pure apply stage: every node flips its coin (through its own private
    RNG, drawn in dense-index order so the consumption matches the callback
    engines draw for draw), writes the sample flags and halts — the whole
    phase is zero rounds of communication, which the empty broadcast
    schedule reproduces.
    """

    def execute(self, frame: KernelFrame) -> None:
        halted = frame.halted
        ctx_list = frame.ctx_list
        for index in frame.started:
            ctx = ctx_list[index]
            state = ctx.state
            forced = state.get(KEY_FORCED_SAMPLE)
            if forced is None:
                probability = float(
                    ctx.globals.get(GLOBAL_SAMPLE_PROBABILITY, 0.0)
                )
                in_sample = ctx.rng.random() < probability
            else:
                in_sample = bool(forced)
            state[KEY_IN_SAMPLE] = in_sample
            state[KEY_PARTICIPANT] = in_sample
            ctx.output = None
            halted[index] = True
        frame.run_broadcast_schedule((), ())


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
    quiesce_terminates = True

    def effects(self) -> PhaseEffects:
        return PhaseEffects(
            reads=(
                KEY_IN_SAMPLE,
                KEY_COMP_BCAST,
                KEY_ROOT,
                KEY_ADJ_COMPONENTS,
                Outbox.STATE_KEY,
            ),
            writes=(KEY_COMP_MEMBERS, KEY_ADJ_COMPONENTS, Outbox.STATE_KEY),
            consumes=(ARTIFACT_COMPONENT_MAP,),
        )

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

    *Apply*: one sweep over the contexts performs the ``on_start`` state
    writes (canonical member lists at sampled nodes, isolation halts at the
    rest).  *Gather*: instead of folding one delivered message at a time,
    each receiver with a broadcasting neighbour creates its component table
    and folds that neighbour's whole member column at once — the segment
    count over the sampled mask prunes the sweep to receivers that actually
    have mail.  *Scatter*: each sampled node's stream (one
    ``nc.comp`` item per member, pushed to every neighbour) goes to the
    closed-form broadcast schedule, which reproduces the pipelined flush's
    rounds and metrics exactly.
    """

    def execute(self, frame: KernelFrame) -> None:
        np = frame.np
        ctx_list = frame.ctx_list
        degrees = frame.degrees
        halted = frame.halted
        n = frame.network.n
        comp_kind = frame.intern_kind(_COMP)

        sampled = np.zeros(frame.n, dtype=bool)
        broadcasting = np.zeros(frame.n, dtype=bool)
        roots: List[Optional[int]] = [None] * frame.n
        member_lists: List[Tuple[int, ...]] = [()] * frame.n
        senders: List[int] = []
        streams: List[List[int]] = []
        for index in frame.started:
            ctx = ctx_list[index]
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
                        senders.append(index)
                        streams.append(
                            [_wire(_COMP, (root, member), n).bits for member in members]
                        )
            elif not degrees[index]:
                halted[index] = True

        # Receivers: non-sampled nodes with at least one broadcasting
        # neighbour fold whole member columns; everyone else has no mail.
        mail_counts = frame.count_flagged_neighbors(broadcasting)
        for index in np.nonzero(~sampled & (mail_counts > 0))[0]:
            ctx = ctx_list[index]
            records = ctx.state.setdefault(KEY_ADJ_COMPONENTS, {})
            for neighbor in frame.neighbor_slice(int(index)):
                neighbor = int(neighbor)
                if not broadcasting[neighbor]:
                    continue
                record = records.get(roots[neighbor])
                if record is None:
                    record = records[roots[neighbor]] = {
                        "members": set(),
                        "senders": set(),
                    }
                record["members"].update(member_lists[neighbor])
                record["senders"].add(ctx_list[neighbor].node_id)

        frame.run_broadcast_schedule(
            senders, streams, [comp_kind] * len(senders)
        )


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
    quiesce_terminates = True
    scope = (KEY_IN_SAMPLE, KEY_ADJ_COMPONENTS)

    def effects(self) -> PhaseEffects:
        return PhaseEffects(
            reads=(
                KEY_IN_SAMPLE,
                KEY_COMP_MEMBERS,
                KEY_ROOT,
                KEY_ADJ_COMPONENTS,
                KEY_ATTACHED_LEAVES,
                Outbox.STATE_KEY,
            ),
            writes=(
                KEY_ATTACHED_LEAVES,
                KEY_ADJ_MEMBERS,
                KEY_ATTACH_PARENT,
                KEY_K_MEMBERSHIP,
                Outbox.STATE_KEY,
            ),
            globals_read=(GLOBAL_EPSILON,),
        )

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
    quiesce_terminates = True
    scope = (KEY_IN_SAMPLE, KEY_ATTACH_PARENT)

    def __init__(
        self,
        membership_key: str,
        result_key: str,
        pre_start: Optional[Callable[[NodeContext], None]] = None,
        root_finalize: Optional[Callable[[NodeContext, Dict[int, int]], None]] = None,
        label: str = "nc-up-aggregation",
        extra_effects: Optional[PhaseEffects] = None,
    ) -> None:
        self.membership_key = membership_key
        self.result_key = result_key
        self.pre_start = pre_start
        self.root_finalize = root_finalize
        self.name = label
        self.extra_effects = extra_effects

    # local state keys (per phase instance we prefix with the result key so
    # that successive aggregations do not trample each other's bookkeeping)
    def _key(self, suffix: str) -> str:
        return "%s.%s" % (self.result_key, suffix)

    def effects(self) -> PhaseEffects:
        # ``extra_effects`` covers the injected ``pre_start`` /
        # ``root_finalize`` callables, whose footprint the class cannot know.
        return PhaseEffects(
            reads=(
                KEY_IN_SAMPLE,
                KEY_ROOT,
                KEY_PARENT,
                KEY_CHILDREN,
                KEY_ATTACHED_LEAVES,
                KEY_ATTACH_PARENT,
                self.membership_key,
                self._key("counters"),
                self._key("waiting"),
                self._key("flushed"),
                Outbox.STATE_KEY,
            ),
            writes=(
                self.result_key,
                self._key("counters"),
                self._key("waiting"),
                self._key("flushed"),
                Outbox.STATE_KEY,
            ),
            consumes=(ARTIFACT_BFS_TREE, ARTIFACT_TREE_CHILDREN),
        ).merged(self.extra_effects)

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
    quiesce_terminates = True
    scope = (KEY_IN_SAMPLE, KEY_ATTACH_PARENT)

    def __init__(
        self,
        items_fn: Callable[[NodeContext], List[Tuple[int, ...]]],
        store_fn: Callable[[NodeContext, int, Tuple[int, ...]], None],
        label: str = "nc-down-broadcast",
        extra_effects: Optional[PhaseEffects] = None,
    ) -> None:
        self.items_fn = items_fn
        self.store_fn = store_fn
        self.name = label
        self.extra_effects = extra_effects

    def effects(self) -> PhaseEffects:
        # ``extra_effects`` covers the injected ``items_fn`` / ``store_fn``
        # callables, whose footprint the class cannot know.
        return PhaseEffects(
            reads=(
                KEY_IN_SAMPLE,
                KEY_ROOT,
                KEY_PARENT,
                KEY_CHILDREN,
                KEY_ATTACHED_LEAVES,
                KEY_ATTACH_PARENT,
                Outbox.STATE_KEY,
            ),
            writes=(Outbox.STATE_KEY,),
            consumes=(ARTIFACT_BFS_TREE, ARTIFACT_TREE_CHILDREN),
        ).merged(self.extra_effects)

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
    quiesce_terminates = True
    scope = (KEY_K_MEMBERSHIP,)

    def effects(self) -> PhaseEffects:
        return PhaseEffects(
            reads=(KEY_K_MEMBERSHIP, KEY_K_SIZES, Outbox.STATE_KEY),
            writes=(KEY_K_NEIGHBOR_ANNOUNCERS, Outbox.STATE_KEY),
        )

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
    *Scatter*: the announcement columns go to the closed-form broadcast
    schedule.
    """

    def execute(self, frame: KernelFrame) -> None:
        np = frame.np
        ctx_list = frame.ctx_list
        degrees = frame.degrees
        halted = frame.halted
        n = frame.network.n
        ksize_kind = frame.intern_kind(_KSIZE)

        announcing = np.zeros(frame.n, dtype=bool)
        items_by_node: List[Optional[List[Tuple[int, int, int]]]] = [None] * frame.n
        senders: List[int] = []
        streams: List[List[int]] = []
        for index in frame.started:
            ctx = ctx_list[index]
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
                senders.append(index)
                streams.append([_wire(_KSIZE, item, n).bits for item in items])

        mail_counts = frame.count_flagged_neighbors(announcing)
        for index in np.nonzero(~halted & (mail_counts > 0))[0]:
            ctx = ctx_list[index]
            memberships = ctx.state.get(KEY_K_MEMBERSHIP, {})
            announcers = ctx.state[KEY_K_NEIGHBOR_ANNOUNCERS]
            columns = [
                (ctx_list[int(j)].node_id, items_by_node[int(j)])
                for j in frame.neighbor_slice(int(index))
                if items_by_node[int(j)] is not None
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

        frame.run_broadcast_schedule(
            senders, streams, [ksize_kind] * len(senders)
        )


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
    quiesce_terminates = True
    scope = (KEY_IN_SAMPLE, KEY_BEST_KNOWN)

    def effects(self) -> PhaseEffects:
        return PhaseEffects(
            reads=(
                KEY_IN_SAMPLE,
                KEY_BEST_KNOWN,
                KEY_PARENT,
                KEY_CHILDREN,
                KEY_ATTACHED_LEAVES,
                KEY_ATTACH_PARENT,
                "_vote_waiting",
                "_vote_abort",
                "_vote_flushed",
                Outbox.STATE_KEY,
            ),
            writes=(
                KEY_ABORT_SEEN,
                "_vote_waiting",
                "_vote_abort",
                "_vote_flushed",
                Outbox.STATE_KEY,
            ),
            consumes=(ARTIFACT_BFS_TREE, ARTIFACT_TREE_CHILDREN),
        )

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

    def effects(self) -> PhaseEffects:
        return super().effects().merged(
            PhaseEffects(
                reads=(KEY_BEST, KEY_ABORT_SEEN, KEY_T_MEMBERSHIP),
                writes=(KEY_SURVIVED,),
                globals_read=(GLOBAL_MIN_OUTPUT_SIZE,),
                writes_output=True,
            )
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
