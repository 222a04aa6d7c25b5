"""Deliberately-defective protocols: exactly one violation per lint rule.

This module is a *lint fixture*, never imported or executed — the analyzer
works on source text only.  Each offending line carries an ``# expect: ID``
marker; ``tests/test_lint.py`` parses the markers and asserts that
``repro lint`` reports exactly those (rule id, line) pairs and nothing else.
"""

import random
import threading

from repro.congest.message import Message
from repro.congest.node import NodeContext, Protocol


class BadRandomnessProtocol(Protocol):
    """DET001 — module-level RNG instead of the per-node ctx.rng stream."""

    name = "bad-randomness"

    def on_start(self, ctx: NodeContext) -> None:
        if random.random() < 0.5:  # expect: DET001
            ctx.halt()


class BadSetOrderProtocol(Protocol):
    """DET002 — hash-ordered set iteration decides the send order."""

    name = "bad-set-order"

    def on_start(self, ctx: NodeContext) -> None:
        for neighbor in set(ctx.neighbors):  # expect: DET002
            ctx.send(neighbor, Message(kind="probe", payload=(0,)))


class BadIdOrderProtocol(Protocol):
    """DET003 — object addresses used as an ordering key."""

    name = "bad-id-order"

    def on_round(self, ctx: NodeContext, inbox) -> None:
        ranked = sorted(inbox, key=id)  # expect: DET003
        if ranked:
            ctx.write_output(ranked[0].sender)


class BadStateProtocol(Protocol):
    """PROC001 — a closure stored in pickled per-node state."""

    name = "bad-state"

    def on_start(self, ctx: NodeContext) -> None:
        ctx.state["scorer"] = lambda value: value + 1  # expect: PROC001


class BadLockProtocol(Protocol):
    """PROC001 — a lock stored on the protocol object that crosses the pipe."""

    name = "bad-lock"

    def on_start(self, ctx: NodeContext) -> None:
        self.guard = threading.Lock()  # expect: PROC001


_HITS = 0


class BadGlobalProtocol(Protocol):
    """PROC002 — module-global mutation diverges across worker processes."""

    name = "bad-global"

    def on_round(self, ctx: NodeContext, inbox) -> None:
        global _HITS  # expect: PROC002
        _HITS += 1


class BadPayloadProtocol(Protocol):
    """WIRE001 — a list payload, outside the wire vocabulary."""

    name = "bad-payload"

    def on_start(self, ctx: NodeContext) -> None:
        ctx.send_all(Message(kind="adj", payload=[1, 2, 3]))  # expect: WIRE001


class BadBudgetProtocol(Protocol):
    """BDG001 — the whole neighbour list in one message (Θ(Δ log n) bits)."""

    name = "bad-budget"

    def on_start(self, ctx: NodeContext) -> None:
        ctx.send_all(Message(kind="adj", payload=tuple(ctx.neighbors)))  # expect: BDG001


class BadHaltProtocol(Protocol):
    """HOOK001 — a send enqueued after local termination."""

    name = "bad-halt"

    def on_start(self, ctx: NodeContext) -> None:
        ctx.halt()
        ctx.send_all(Message(kind="late", payload=(1,)))  # expect: HOOK001


class BadPrivateProtocol(Protocol):
    """HOOK002 — context mutation through engine-internal fields."""

    name = "bad-private"

    def on_round(self, ctx: NodeContext, inbox) -> None:
        ctx._halted = True  # expect: HOOK002


class BadKernelProtocol(Protocol):
    """HOOK003 — a kernel with no callback semantics to be identical to."""

    name = "bad-kernel"

    def vectorized_kernel(self):  # expect: HOOK003
        return object()
