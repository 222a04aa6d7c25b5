"""Minimum-identifier flooding (leader election).

A classic CONGEST primitive: every participant repeatedly forwards the
smallest identifier it has heard of; after at most diameter rounds every node
in a connected participant component agrees on the component's minimum
identifier.  ``DistNearClique`` roots its BFS trees at this minimum
identifier (the flooding is folded into
:class:`repro.primitives.bfs_tree.MinIdBFSTreeProtocol`); the standalone
protocol here is used by tests, by the shingles-baseline analysis, and as a
simple first example of the simulator API.
"""

from __future__ import annotations

from typing import List, Optional

from repro.congest.message import Inbound, Message, id_bits_for, KIND_TAG_BITS
from repro.congest.node import NodeContext, Protocol
from repro.primitives.bfs_tree import KEY_PARTICIPANT

_CANDIDATE = "le.candidate"

#: State key holding the elected leader (per participant).
KEY_LEADER = "leader"


def _candidate_message(leader: int, n: int) -> Message:
    return Message(
        kind=_CANDIDATE,
        payload=(leader,),
        bits=KIND_TAG_BITS + id_bits_for(n),
    )


class MinIdFloodingProtocol(Protocol):
    """Elect the minimum identifier of each connected participant component."""

    name = "min-id-flooding"

    def __init__(self, participant_key: str = KEY_PARTICIPANT) -> None:
        self.participant_key = participant_key
        self.scope = (participant_key,)

    def _participates(self, ctx: NodeContext) -> bool:
        return bool(ctx.state.get(self.participant_key))

    def on_start(self, ctx: NodeContext) -> None:
        if not self._participates(ctx):
            ctx.halt()
            return
        ctx.state[KEY_LEADER] = ctx.node_id
        ctx.send_all(_candidate_message(ctx.node_id, ctx.n))

    def on_round(self, ctx: NodeContext, inbox: List[Inbound]) -> None:
        if not self._participates(ctx):
            return
        best = ctx.state[KEY_LEADER]
        improved = False
        for inbound in inbox:
            if inbound.kind != _CANDIDATE:
                continue
            (candidate,) = inbound.payload
            if candidate < best:
                best = candidate
                improved = True
        if improved:
            ctx.state[KEY_LEADER] = best
            ctx.send_all(_candidate_message(best, ctx.n))

    def collect_output(self, ctx: NodeContext) -> Optional[int]:
        if not self._participates(ctx):
            return None
        return ctx.state.get(KEY_LEADER)
