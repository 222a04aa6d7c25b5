"""Tree broadcast: streaming a list of values from each root to its tree.

Used by exploration Step 2 (the root sends the component membership back
down), Step 4d (the root distributes the sizes |K_{2ε²}(X)|) and decision
Steps 2 and 4 of ``DistNearClique``.  Values are pipelined one per round per
edge; by the pipelining argument of Lemma 5.1 a broadcast of m values over a
tree of depth h completes in O(m + h) rounds.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.congest.message import Inbound, Message, id_bits_for, KIND_TAG_BITS
from repro.congest.node import NodeContext, Protocol
from repro.primitives.bfs_tree import KEY_CHILDREN, KEY_PARENT, KEY_PARTICIPANT
from repro.primitives.pipelines import Outbox

_ITEM = "bc.item"
_DONE = "bc.done"

#: Input state key: the list of values held by a root before the broadcast.
KEY_BROADCAST_INPUT = "bc_input"
#: Output state key: the list of values received by every participant.
KEY_BROADCAST_OUTPUT = "bc_output"


def _item_message(value: Any, n: int) -> Message:
    """Encode one broadcast value.

    Values are integers or small tuples of integers (identifiers, counters,
    subset indices); each component is charged at identifier width so that
    message-size accounting is an honest upper bound for experiment E6.
    """
    if isinstance(value, tuple):
        payload: Any = value
        bits = KIND_TAG_BITS + sum(
            max(id_bits_for(n), int(abs(part)).bit_length() + 1) for part in value
        )
    else:
        payload = (value,)
        bits = KIND_TAG_BITS + max(id_bits_for(n), int(abs(value)).bit_length() + 1)
    return Message(kind=_ITEM, payload=payload, bits=bits)


class TreeBroadcastProtocol(Protocol):
    """Stream each root's value list to every node of its tree.

    Roots must hold the list to broadcast in ``ctx.state[input_key]``; every
    participant (roots included) ends with the full list, in the root's
    order, in ``ctx.state[output_key]``.
    """

    name = "tree-broadcast"

    def __init__(
        self,
        participant_key: str = KEY_PARTICIPANT,
        input_key: str = KEY_BROADCAST_INPUT,
        output_key: str = KEY_BROADCAST_OUTPUT,
    ) -> None:
        self.participant_key = participant_key
        self.scope = (participant_key,)
        self.input_key = input_key
        self.output_key = output_key

    def _participates(self, ctx: NodeContext) -> bool:
        return bool(ctx.state.get(self.participant_key))

    def on_start(self, ctx: NodeContext) -> None:
        if not self._participates(ctx):
            ctx.halt()
            return
        parent = ctx.state.get(KEY_PARENT)
        children = ctx.state.get(KEY_CHILDREN, [])
        outbox = Outbox.for_ctx(ctx)
        ctx.state[self.output_key] = []
        if parent is None:
            values = list(ctx.state.get(self.input_key, []))
            ctx.state[self.output_key] = list(values)
            for child in children:
                for value in values:
                    outbox.push(child, _item_message(value, ctx.n))
                outbox.push(
                    child, Message(kind=_DONE, payload=None, bits=KIND_TAG_BITS + 1)
                )

    def on_round(self, ctx: NodeContext, inbox: List[Inbound]) -> None:
        if not self._participates(ctx):
            return
        children = ctx.state.get(KEY_CHILDREN, [])
        outbox = Outbox.for_ctx(ctx)
        received: List[Any] = ctx.state[self.output_key]
        for inbound in inbox:
            if inbound.kind == _ITEM:
                payload = inbound.payload
                value: Any = payload[0] if len(payload) == 1 else tuple(payload)
                received.append(value)
                for child in children:
                    outbox.push(child, _item_message(value, ctx.n))
            elif inbound.kind == _DONE:
                for child in children:
                    outbox.push(
                        child,
                        Message(kind=_DONE, payload=None, bits=KIND_TAG_BITS + 1),
                    )
        outbox.flush()

    def collect_output(self, ctx: NodeContext) -> Optional[List[Any]]:
        if not self._participates(ctx):
            return None
        return list(ctx.state.get(self.output_key, []))
