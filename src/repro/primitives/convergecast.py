"""Convergecast primitives: aggregating information up a spanning tree.

Two flavours are needed by ``DistNearClique``:

* :class:`ConvergecastCollectProtocol` — every participant's identifier is
  collected at the root of its tree (exploration Step 2 of the paper, before
  the root sends the component membership back down).  Identifiers are
  pipelined one per round per edge, so the round complexity is
  O(|component| + depth), matching the pipelining argument in the proof of
  Lemma 5.1.

* :class:`ConvergecastSumProtocol` — every participant holds a dictionary of
  per-key integer counters; the sums over each tree are computed at the root
  (exploration Step 4c and decision Step 1, where the keys are subset
  indices and the counters are memberships in :math:`K_{2\\epsilon^2}(X)` or
  :math:`T_\\epsilon(X)`).  A node forwards its partial sums only after all
  its children have reported, and streams one ``(key, partial sum)`` pair per
  round.

Both protocols require the tree structure produced by
:class:`repro.primitives.bfs_tree.MinIdBFSTreeProtocol` followed by
:class:`repro.primitives.bfs_tree.ParentNotificationProtocol`, and must be
run with ``reuse_contexts=True`` so that they can read it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.congest.message import Inbound, Message, id_bits_for, KIND_TAG_BITS
from repro.congest.node import NodeContext, Protocol
from repro.congest.pipeline import (
    ARTIFACT_BFS_TREE,
    ARTIFACT_COMPONENT_MAP,
    ARTIFACT_TREE_CHILDREN,
    PhaseEffects,
)
from repro.primitives.bfs_tree import (
    KEY_CHILDREN,
    KEY_PARENT,
    KEY_PARTICIPANT,
)
from repro.primitives.pipelines import Outbox

_ID_ITEM = "cc.id"
_ID_DONE = "cc.id_done"
_SUM_ITEM = "cc.sum"
_SUM_DONE = "cc.sum_done"

#: State key holding the identifiers collected at a root.
KEY_COLLECTED = "cc_collected"
#: State key holding the per-key sums computed at a root.
KEY_SUMS = "cc_sums"
#: Input state key for :class:`ConvergecastSumProtocol` (per-node counters).
KEY_LOCAL_COUNTERS = "cc_local_counters"


def _id_message(node_id: int, n: int) -> Message:
    return Message(
        kind=_ID_ITEM,
        payload=(node_id,),
        bits=KIND_TAG_BITS + id_bits_for(n),
    )


def _sum_message(key: int, value: int, n: int) -> Message:
    # A key is a subset index (at most |S_i| bits); a value is a counter
    # bounded by n.  Both are polynomially bounded, hence O(log n) bits for
    # the parameter regimes of the paper.
    key_bits = max(1, int(key).bit_length())
    return Message(
        kind=_SUM_ITEM,
        payload=(key, value),
        bits=KIND_TAG_BITS + key_bits + id_bits_for(max(n, value + 1)),
    )


class ConvergecastCollectProtocol(Protocol):
    """Collect all participant identifiers of each tree at its root."""

    name = "convergecast-collect"
    quiesce_terminates = True

    def __init__(self, participant_key: str = KEY_PARTICIPANT) -> None:
        self.participant_key = participant_key
        self.scope = (participant_key,)

    def _participates(self, ctx: NodeContext) -> bool:
        return bool(ctx.state.get(self.participant_key))

    def effects(self) -> PhaseEffects:
        return PhaseEffects(
            reads=(
                self.participant_key,
                KEY_PARENT,
                KEY_CHILDREN,
                KEY_COLLECTED,
                "_cc_waiting_children",
                "_cc_seen",
                "_cc_done_sent",
                Outbox.STATE_KEY,
            ),
            writes=(
                KEY_COLLECTED,
                "_cc_waiting_children",
                "_cc_seen",
                "_cc_done_sent",
                Outbox.STATE_KEY,
            ),
            consumes=(ARTIFACT_BFS_TREE, ARTIFACT_TREE_CHILDREN),
            produces=(ARTIFACT_COMPONENT_MAP,),
        )

    def on_start(self, ctx: NodeContext) -> None:
        if not self._participates(ctx):
            ctx.halt()
            return
        children = ctx.state.get(KEY_CHILDREN, [])
        ctx.state["_cc_waiting_children"] = set(children)
        ctx.state["_cc_seen"] = {ctx.node_id}
        ctx.state["_cc_done_sent"] = False
        ctx.state[KEY_COLLECTED] = [ctx.node_id]
        parent = ctx.state.get(KEY_PARENT)
        outbox = Outbox.for_ctx(ctx)
        if parent is not None:
            outbox.push(parent, _id_message(ctx.node_id, ctx.n))

    def on_round(self, ctx: NodeContext, inbox: List[Inbound]) -> None:
        if not self._participates(ctx):
            return
        parent = ctx.state.get(KEY_PARENT)
        outbox = Outbox.for_ctx(ctx)
        seen = ctx.state["_cc_seen"]
        waiting = ctx.state["_cc_waiting_children"]

        for inbound in inbox:
            if inbound.kind == _ID_ITEM:
                (node_id,) = inbound.payload
                if node_id not in seen:
                    seen.add(node_id)
                    ctx.state[KEY_COLLECTED].append(node_id)
                    if parent is not None:
                        outbox.push(parent, _id_message(node_id, ctx.n))
            elif inbound.kind == _ID_DONE:
                waiting.discard(inbound.sender)

        done_sent = ctx.state["_cc_done_sent"]
        if parent is not None and not done_sent and not waiting and outbox.pending_for(parent) == 0:
            outbox.push(parent, Message(kind=_ID_DONE, payload=None, bits=KIND_TAG_BITS + 1))
            ctx.state["_cc_done_sent"] = True
        outbox.flush()
        ctx.state[KEY_COLLECTED].sort()

    def collect_output(self, ctx: NodeContext) -> Optional[List[int]]:
        if not self._participates(ctx):
            return None
        if ctx.state.get(KEY_PARENT) is None:
            return sorted(ctx.state["_cc_seen"])
        return None


class ConvergecastSumProtocol(Protocol):
    """Sum per-key integer counters over each tree at its root.

    Every participant must have ``ctx.state[KEY_LOCAL_COUNTERS]`` set to a
    ``dict`` mapping integer keys to integer counts before the protocol
    starts (an absent entry is treated as an empty dictionary).  On
    termination the root of every tree holds the component-wide sums in
    ``ctx.state[KEY_SUMS]``.
    """

    name = "convergecast-sum"
    quiesce_terminates = True

    def __init__(
        self,
        participant_key: str = KEY_PARTICIPANT,
        counters_key: str = KEY_LOCAL_COUNTERS,
        sums_key: str = KEY_SUMS,
    ) -> None:
        self.participant_key = participant_key
        self.scope = (participant_key,)
        self.counters_key = counters_key
        self.sums_key = sums_key

    def _participates(self, ctx: NodeContext) -> bool:
        return bool(ctx.state.get(self.participant_key))

    def effects(self) -> PhaseEffects:
        return PhaseEffects(
            reads=(
                self.participant_key,
                self.counters_key,
                self.sums_key,
                KEY_PARENT,
                KEY_CHILDREN,
                "_cs_sums",
                "_cs_waiting",
                "_cs_flushed",
                Outbox.STATE_KEY,
            ),
            writes=(
                self.sums_key,
                "_cs_sums",
                "_cs_waiting",
                "_cs_flushed",
                Outbox.STATE_KEY,
            ),
            consumes=(ARTIFACT_BFS_TREE, ARTIFACT_TREE_CHILDREN),
        )

    def on_start(self, ctx: NodeContext) -> None:
        if not self._participates(ctx):
            ctx.halt()
            return
        local = dict(ctx.state.get(self.counters_key, {}))
        children = ctx.state.get(KEY_CHILDREN, [])
        ctx.state["_cs_sums"] = local
        ctx.state["_cs_waiting"] = set(children)
        ctx.state["_cs_flushed"] = False
        ctx.state[self.sums_key] = None

    def on_round(self, ctx: NodeContext, inbox: List[Inbound]) -> None:
        if not self._participates(ctx):
            return
        parent = ctx.state.get(KEY_PARENT)
        outbox = Outbox.for_ctx(ctx)
        sums: Dict[int, int] = ctx.state["_cs_sums"]
        waiting = ctx.state["_cs_waiting"]

        for inbound in inbox:
            if inbound.kind == _SUM_ITEM:
                key, value = inbound.payload
                sums[key] = sums.get(key, 0) + value
            elif inbound.kind == _SUM_DONE:
                waiting.discard(inbound.sender)

        if not waiting and not ctx.state["_cs_flushed"]:
            ctx.state["_cs_flushed"] = True
            if parent is None:
                ctx.state[self.sums_key] = dict(sums)
            else:
                for key in sorted(sums):
                    outbox.push(parent, _sum_message(key, sums[key], ctx.n))
                outbox.push(
                    parent,
                    Message(kind=_SUM_DONE, payload=None, bits=KIND_TAG_BITS + 1),
                )
        if parent is None and ctx.state["_cs_flushed"]:
            # Late contributions cannot arrive once every child reported, but
            # keep the root's published view current for observability.
            ctx.state[self.sums_key] = dict(sums)
        outbox.flush()

    def collect_output(self, ctx: NodeContext) -> Optional[Dict[int, int]]:
        if not self._participates(ctx):
            return None
        if ctx.state.get(KEY_PARENT) is None:
            published = ctx.state.get(self.sums_key)
            return dict(published) if published is not None else dict(ctx.state["_cs_sums"])
        return None
