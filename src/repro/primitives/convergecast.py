"""Convergecast: collecting identifiers up a spanning tree.

:class:`ConvergecastCollectProtocol` collects every participant's identifier
at the root of its tree (exploration Step 2 of the paper, before the root
sends the component membership back down).  Identifiers are pipelined one per
round per edge, so the round complexity is O(|component| + depth), matching
the pipelining argument in the proof of Lemma 5.1.  The per-subset sums of
exploration Step 4c and decision Step 1 are computed by
:class:`repro.core.phases.UpAggregationPhase`.

The protocol requires the tree structure produced by
:class:`repro.primitives.bfs_tree.MinIdBFSTreeProtocol` followed by
:class:`repro.primitives.bfs_tree.ParentNotificationProtocol`, and must be
run with ``reuse_contexts=True`` so that it can read it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.congest.message import Inbound, Message, id_bits_for, KIND_TAG_BITS
from repro.congest.node import NodeContext, Protocol
from repro.primitives.bfs_tree import (
    KEY_CHILDREN,
    KEY_PARENT,
    KEY_PARTICIPANT,
)
from repro.primitives.pipelines import Outbox

_ID_ITEM = "cc.id"
_ID_DONE = "cc.id_done"

#: State key holding the identifiers collected at a root.
KEY_COLLECTED = "cc_collected"


def _id_message(node_id: int, n: int) -> Message:
    return Message(
        kind=_ID_ITEM,
        payload=(node_id,),
        bits=KIND_TAG_BITS + id_bits_for(n),
    )


class ConvergecastCollectProtocol(Protocol):
    """Collect all participant identifiers of each tree at its root."""

    name = "convergecast-collect"

    def __init__(self, participant_key: str = KEY_PARTICIPANT) -> None:
        self.participant_key = participant_key
        self.scope = (participant_key,)

    def _participates(self, ctx: NodeContext) -> bool:
        return bool(ctx.state.get(self.participant_key))

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
