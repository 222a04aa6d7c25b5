"""Exception hierarchy for the CONGEST simulator.

Every error raised by the simulator derives from :class:`CongestError`, so
callers that want to treat any simulation failure uniformly (for example the
boosting wrapper, which treats an aborted repetition as a failed coin flip)
can catch a single type.
"""

from __future__ import annotations


class CongestError(Exception):
    """Base class for every error raised by the CONGEST simulator."""


class ProtocolError(CongestError):
    """A protocol implementation violated the simulator's programming model.

    Examples: sending to a non-neighbour, sending after halting, or writing a
    non-serialisable payload.
    """


class CongestionViolation(CongestError):
    """A node attempted to send more than one message on an edge in a round.

    The CONGEST model allows a single message per edge direction per round.
    Protocols that need to transmit more data must pipeline it across rounds
    (see :mod:`repro.primitives.pipelines`).
    """

    def __init__(self, sender, receiver, round_index):
        super().__init__(
            "node %r sent more than one message to %r in round %d"
            % (sender, receiver, round_index)
        )
        self.sender = sender
        self.receiver = receiver
        self.round_index = round_index

    def __reduce__(self):
        # The default exception reduction replays ``args`` (the formatted
        # message) into ``__init__``, which takes the structured fields —
        # rebuild from those instead so the error crosses the process
        # boundary of the sharded engine's worker pool intact.
        return (type(self), (self.sender, self.receiver, self.round_index))


class MessageSizeViolation(CongestError):
    """A message exceeded the configured O(log n)-bit budget."""

    def __init__(self, sender, receiver, bits, budget, round_index):
        super().__init__(
            "message from %r to %r carries %d bits, exceeding the budget of "
            "%d bits in round %d" % (sender, receiver, bits, budget, round_index)
        )
        self.sender = sender
        self.receiver = receiver
        self.bits = bits
        self.budget = budget
        self.round_index = round_index

    def __reduce__(self):
        return (
            type(self),
            (self.sender, self.receiver, self.bits, self.budget, self.round_index),
        )


class RoundLimitExceeded(CongestError):
    """The scheduler hit its deterministic round cap before quiescence.

    The paper's Section 4.1 "bounding the running time" wrapper aborts the
    algorithm when a specified time limit is exceeded; the scheduler raises
    this error so the wrapper can record the repetition as failed.
    """

    def __init__(self, max_rounds):
        super().__init__(
            "protocol did not terminate within %d rounds" % max_rounds
        )
        self.max_rounds = max_rounds

    def __reduce__(self):
        return (type(self), (self.max_rounds,))


class DeltaError(CongestError):
    """A batched topology update (:meth:`Network.apply_delta`) was rejected.

    Raised *before* any mutation is applied — a rejected delta leaves the
    network exactly as it was, so service loops can report the error to the
    client and keep serving on the unchanged topology.  Examples: an edge
    addition naming an unknown node (the delta API changes edges, never the
    node set), a self-loop, or a removal of an edge that does not exist.
    """


class ShardWorkerError(CongestError):
    """A sharded-engine worker process failed outside the model's rules.

    Raised by the process backend when a worker *dies* without reporting a
    protocol-level error (segfault, ``os._exit``, unpicklable exception) —
    death is detected as EOF on the worker's pipe, so the round barrier
    errors out instead of waiting on a corpse.  A worker that is alive but
    stuck in protocol code is indistinguishable from a legitimately slow
    round, so by default it is not timed out (an infinite ``on_round``
    hangs every backend alike; use ``CongestConfig.max_rounds`` to bound
    runs); opting into ``CongestConfig.round_timeout`` arms a barrier
    watchdog that turns a worker missing the per-round deadline into the
    :class:`ShardWorkerTimeout` subclass instead of an eternal hang.
    Model-rule violations inside a worker are *not* wrapped: they cross
    the process boundary as their own types
    (:class:`CongestionViolation`, :class:`MessageSizeViolation`,
    :class:`ProtocolError`...), exactly as the in-process modes raise
    them.  Every ``ShardWorkerError`` (subclasses included) marks an
    infrastructure failure, not a semantic one.  The session fails fast
    on it: the pool is torn down, the error reaches the caller, and the
    session's next ``execute`` spawns a fresh pool.
    """


class ShardWorkerTimeout(ShardWorkerError):
    """A shard worker missed the coordinator's per-round barrier deadline.

    Raised only when ``CongestConfig.round_timeout`` is set: the barrier
    then waits with :func:`multiprocessing.connection.wait` instead of a
    blocking ``recv`` and, at the deadline, probes each missing worker's
    liveness — ``alive_shards`` names the shards whose process still runs
    (hung in protocol code), the rest died without even an EOF reaching
    the coordinator yet.  The error is an infrastructure failure like its
    base class; hung workers are force-terminated at teardown rather than
    waited on.
    """

    def __init__(self, shard_indices, timeout, alive_shards=()):
        shard_indices = tuple(shard_indices)
        alive_shards = tuple(alive_shards)
        dead = tuple(s for s in shard_indices if s not in set(alive_shards))
        detail = []
        if alive_shards:
            detail.append("stuck (alive): %s" % (list(alive_shards),))
        if dead:
            detail.append("dead: %s" % (list(dead),))
        super().__init__(
            "shard worker(s) %s missed the %.6gs round deadline (%s)"
            % (list(shard_indices), timeout, "; ".join(detail) or "no detail")
        )
        self.shard_indices = shard_indices
        self.timeout = timeout
        self.alive_shards = alive_shards

    def __reduce__(self):
        return (type(self), (self.shard_indices, self.timeout, self.alive_shards))


class WireCorruptionError(ShardWorkerError):
    """A packed :class:`~repro.congest.sharding.wire.WireBatch` failed to decode.

    Raised by :meth:`repro.congest.sharding.wire.WireDecoder.decode` when a
    batch's columns or payload blob are structurally invalid (unknown
    payload tag, truncated varint, out-of-range kind id...).  A corrupt
    batch means the transport delivered damaged bytes, not that the
    protocol misbehaved, so this is a :class:`ShardWorkerError` subclass
    and crosses the worker pipe intact.
    """

    def __init__(self, detail):
        super().__init__("corrupt wire batch: %s" % (detail,))
        self.detail = detail

    def __reduce__(self):
        return (type(self), (self.detail,))

