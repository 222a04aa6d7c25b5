"""BFS spanning-tree construction rooted at the minimum identifier.

Exploration Step 1 of ``DistNearClique`` constructs, for every connected
component of the sampled subgraph G[S], a BFS spanning tree rooted at the
component's smallest identifier.  This module provides that construction for
an arbitrary participant set:

* :class:`MinIdBFSTreeProtocol` — flooding of ``(root candidate, distance)``
  offers; on termination every participant knows its component's root (which
  doubles as the component identifier), its parent pointer and its depth.
* :class:`ParentNotificationProtocol` — a follow-up protocol in which every
  non-root participant informs its parent, so that parents learn their
  children (needed for convergecast).

Both protocols use O(log n)-bit messages (an identifier plus a distance
counter) and terminate by network quiescence; the flooding stabilises after
at most diameter-of-component rounds, which is bounded by |S| as used in the
proof of Lemma 5.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.congest.message import Inbound, Message, id_bits_for, KIND_TAG_BITS
from repro.congest.node import NodeContext, Protocol

#: State keys written by the protocols in this module.
KEY_PARTICIPANT = "participant"
KEY_ROOT = "tree_root"
KEY_PARENT = "tree_parent"
KEY_DEPTH = "tree_depth"
KEY_CHILDREN = "tree_children"

_OFFER = "bfs.offer"
_CHILD = "bfs.child"


@dataclass(frozen=True)
class BFSTreeOutput:
    """Per-node result of the BFS tree construction."""

    root: int
    parent: Optional[int]
    depth: int

    @property
    def is_root(self) -> bool:
        return self.parent is None


def _offer_message(root: int, depth: int, n: int) -> Message:
    """An offer carries one identifier and one distance counter."""
    return Message(
        kind=_OFFER,
        payload=(root, depth),
        bits=KIND_TAG_BITS + 2 * id_bits_for(n),
    )


class MinIdBFSTreeProtocol(Protocol):
    """Build a min-ID-rooted BFS tree in every participant component.

    Participation is read from ``ctx.state[participant_key]`` (missing or
    falsy means the node does not participate).  Non-participants halt
    immediately and ignore all traffic, so the protocol behaves exactly as if
    it were executed on the induced subgraph G[S].
    """

    name = "min-id-bfs-tree"

    def __init__(self, participant_key: str = KEY_PARTICIPANT) -> None:
        self.participant_key = participant_key
        self.scope = (participant_key,)

    # ------------------------------------------------------------------
    def _participates(self, ctx: NodeContext) -> bool:
        return bool(ctx.state.get(self.participant_key))

    def on_start(self, ctx: NodeContext) -> None:
        if not self._participates(ctx):
            ctx.halt()
            return
        ctx.state[KEY_ROOT] = ctx.node_id
        ctx.state[KEY_PARENT] = None
        ctx.state[KEY_DEPTH] = 0
        ctx.send_all(_offer_message(ctx.node_id, 0, ctx.n))

    def on_round(self, ctx: NodeContext, inbox: List[Inbound]) -> None:
        if not self._participates(ctx):
            return
        best_root = ctx.state[KEY_ROOT]
        best_depth = ctx.state[KEY_DEPTH]
        best_parent = ctx.state[KEY_PARENT]
        changed = False
        for inbound in inbox:
            if inbound.kind != _OFFER:
                continue
            offered_root, offered_depth = inbound.payload
            candidate_depth = offered_depth + 1
            better_root = offered_root < best_root
            shorter_path = offered_root == best_root and candidate_depth < best_depth
            if better_root or shorter_path:
                best_root = offered_root
                best_depth = candidate_depth
                best_parent = inbound.sender
                changed = True
        if changed:
            ctx.state[KEY_ROOT] = best_root
            ctx.state[KEY_DEPTH] = best_depth
            ctx.state[KEY_PARENT] = best_parent
            ctx.send_all(_offer_message(best_root, best_depth, ctx.n))

    def collect_output(self, ctx: NodeContext) -> Optional[BFSTreeOutput]:
        if not self._participates(ctx):
            return None
        return BFSTreeOutput(
            root=ctx.state[KEY_ROOT],
            parent=ctx.state[KEY_PARENT],
            depth=ctx.state[KEY_DEPTH],
        )


class ParentNotificationProtocol(Protocol):
    """Let every tree parent learn the identities of its children.

    Must run after :class:`MinIdBFSTreeProtocol` on the same contexts
    (``reuse_contexts=True``): it reads the parent pointers written by the
    tree construction and writes ``ctx.state["tree_children"]``.
    """

    name = "bfs-parent-notification"

    def __init__(self, participant_key: str = KEY_PARTICIPANT) -> None:
        self.participant_key = participant_key
        self.scope = (participant_key,)

    def _participates(self, ctx: NodeContext) -> bool:
        return bool(ctx.state.get(self.participant_key))

    def on_start(self, ctx: NodeContext) -> None:
        if not self._participates(ctx):
            ctx.halt()
            return
        ctx.state[KEY_CHILDREN] = []
        parent = ctx.state.get(KEY_PARENT)
        if parent is not None:
            ctx.send(
                parent,
                Message(
                    kind=_CHILD,
                    payload=(ctx.node_id,),
                    bits=KIND_TAG_BITS + id_bits_for(ctx.n),
                ),
            )

    def on_round(self, ctx: NodeContext, inbox: List[Inbound]) -> None:
        if not self._participates(ctx):
            return
        for inbound in inbox:
            if inbound.kind == _CHILD:
                ctx.state[KEY_CHILDREN].append(inbound.sender)
        ctx.state[KEY_CHILDREN].sort()

    def collect_output(self, ctx: NodeContext) -> Optional[List[int]]:
        if not self._participates(ctx):
            return None
        return list(ctx.state.get(KEY_CHILDREN, []))
