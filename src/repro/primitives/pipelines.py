"""Pipelining helpers for CONGEST protocols.

The CONGEST model allows a single O(log n)-bit message per edge direction per
round, so any protocol step that needs to transmit more than a constant
amount of information to a neighbour must *pipeline* it: queue the pieces and
emit one per round.  The paper's complexity analysis (proof of Lemma 5.1)
relies on this repeatedly ("using pipelining once again...").

:class:`Outbox` encapsulates the queueing discipline so that protocol code
can enqueue freely and simply call :meth:`Outbox.flush` once per round.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Tuple

from repro.congest.message import Message
from repro.congest.node import NodeContext


class Outbox:
    """Per-neighbour FIFO queues drained at one message per round.

    The outbox is stored in the node's state dictionary so that it survives
    across the phases of a composite protocol; use :meth:`for_ctx` to obtain
    the (single) outbox of a node.
    """

    STATE_KEY = "__outbox"

    def __init__(self, ctx: NodeContext) -> None:
        self._ctx = ctx
        self._queues: Dict[int, Deque[Message]] = {}

    # ------------------------------------------------------------------
    @classmethod
    def for_ctx(cls, ctx: NodeContext) -> "Outbox":
        """Return the node's outbox, creating it on first use.

        The outbox lives in ``ctx.state`` and therefore travels whenever
        per-node state is copied — the sharded engine pickles it to its
        worker processes and back — so the context binding is
        (re-)established here rather than trusted from the copy: a
        queued-but-unsent pipeline must drain into the context that is
        actually being executed, not into the copy it came from.
        """
        outbox = ctx.state.get(cls.STATE_KEY)
        if outbox is None:
            outbox = cls(ctx)
            ctx.state[cls.STATE_KEY] = outbox
        elif outbox._ctx is not ctx:
            outbox._ctx = ctx
        return outbox

    def __getstate__(self):
        # Only the queues travel; the context binding would drag a stale
        # NodeContext copy through every pickle and is repaired by
        # :meth:`for_ctx` on first use after a round trip.
        return self._queues

    def __setstate__(self, queues) -> None:
        self._ctx = None  # rebound by for_ctx
        self._queues = queues

    # ------------------------------------------------------------------
    def push(self, neighbor: int, message: Message) -> None:
        """Queue *message* for *neighbor* (sent in some future round)."""
        self._queues.setdefault(neighbor, deque()).append(message)

    def push_many(self, neighbor: int, messages: Iterable[Message]) -> None:
        queue = self._queues.setdefault(neighbor, deque())
        queue.extend(messages)

    def push_all(self, message: Message, exclude: Iterable[int] = ()) -> None:
        """Queue *message* for every neighbour except those in *exclude*."""
        excluded = set(exclude)
        for neighbor in self._ctx.neighbors:
            if neighbor not in excluded:
                self.push(neighbor, message)

    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Send at most one queued message per neighbour; return #sent."""
        sent = 0
        for neighbor, queue in self._queues.items():
            if queue:
                self._ctx.send(neighbor, queue.popleft())
                sent += 1
        return sent

    def pending(self) -> bool:
        """True when any queue still holds messages."""
        return any(queue for queue in self._queues.values())

    def pending_for(self, neighbor: int) -> int:
        """Number of messages still queued for *neighbor*."""
        queue = self._queues.get(neighbor)
        return len(queue) if queue else 0

    def total_pending(self) -> int:
        return sum(len(queue) for queue in self._queues.values())


def chunk_id_list(ids: Iterable[int]) -> Tuple[int, ...]:
    """Return *ids* as a canonical (sorted, deduplicated) tuple.

    Protocols that stream a set of identifiers over several rounds use a
    canonical order so that senders and receivers agree on stream positions
    without transmitting indices.
    """
    return tuple(sorted(set(ids)))
