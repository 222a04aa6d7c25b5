"""Simulator configuration.

The configuration object collects every knob the scheduler honours, so that
experiments can state their execution assumptions explicitly.  The model's
rules are not among them: every run enforces one message per edge direction
per round and keeps the per-round metrics trace.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, replace
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:
    from repro.congest.engine import Engine

#: The constant in front of log n in :meth:`CongestConfig.with_log_budget`.
#: The protocols in this package fit comfortably within 12·log2(n) bits per
#: message (a constant number of identifiers and counters plus a constant
#: header).
LOG_BUDGET_MULTIPLIER = 12.0


@dataclass
class CongestConfig:
    """Configuration for :func:`repro.congest.scheduler.run_protocol` and the engines.

    Parameters
    ----------
    max_rounds:
        Deterministic cap on the number of rounds.  ``None`` means no cap.
        The paper's Section 4.1 wrapper corresponds to setting a finite cap
        and treating :class:`repro.congest.errors.RoundLimitExceeded` as a
        failed repetition.
    message_bit_budget:
        Hard per-message bit limit.  ``None`` (the default) disables the
        check.  Use :meth:`CongestConfig.with_log_budget` to derive a
        budget of ``LOG_BUDGET_MULTIPLIER * ceil(log2 n)`` bits.
    engine:
        The execution engine driving the round loop, and the only engine
        selector: a registry name — ``"vectorized"`` (columnar kernels, a
        CSR callback loop for the phases without one; the default),
        ``"reference"`` (the per-object semantics oracle kept for the
        differential harness) or ``"sharded"`` (one worker process per
        shard over ``shards`` shards) — or an
        :class:`~repro.congest.engine.Engine` instance, which is how an
        unregistered engine plugs in; see :mod:`repro.congest.engine`.  All
        engines are guaranteed to produce bit-identical outputs and
        protocol metrics, so the choice is a throughput knob.
    shards:
        Shard count for ``engine="sharded"`` (ignored by the other
        engines).  The shards are contiguous blocks of the dense node
        index (:mod:`repro.congest.sharding.partition`).  May exceed the
        node count; surplus shards are empty.  The sharded engine runs one
        long-lived worker process per non-empty shard, each owning its
        shard's contexts and stepping them, inside a
        :class:`~repro.congest.sharding.workers.ProcessSession`: a
        composite runner's session keeps one worker pool and one
        shared-memory CSR mapping across its phases, re-armed between
        them, and a direct ``execute`` opens a one-shot session.  Boundary
        traffic crosses the round barrier as one pickled byte string per
        source and destination shard.  Requires the protocol object, all
        per-node state and every payload to be picklable.
    round_timeout:
        Per-round barrier deadline in seconds for the sharded engine's
        worker processes.  Every barrier gathers the reports through
        ``multiprocessing.connection.wait``; ``None`` (the default) waits
        with no deadline, so a worker that hangs in protocol code is
        indistinguishable from a slow round and is waited on forever.
        A positive value gives that wait a per-round deadline, a
        coordinator-side watchdog: a worker missing the deadline raises
        :class:`~repro.congest.errors.ShardWorkerTimeout` — with a
        liveness probe distinguishing hung from silently-dead workers —
        instead of blocking the barrier.  In-process engines have no
        cross-process barrier to time out and ignore the knob.
    shard_backend / session_mode / pipeline_mode:
        Accepted for backward compatibility only, and only with the values
        ``"process"`` / ``"persistent"`` / ``"fuse"`` — the sole behaviour
        left: the sharded engine always runs worker processes inside a
        session, and the composite runner always fuses its phases.
        None is stored.
    """

    max_rounds: Optional[int] = None
    message_bit_budget: Optional[int] = None
    engine: Union[str, "Engine"] = "vectorized"
    shards: int = 4
    round_timeout: Optional[float] = None
    shard_backend: InitVar[str] = "process"
    session_mode: InitVar[str] = "persistent"
    pipeline_mode: InitVar[str] = "fuse"

    def __post_init__(
        self, shard_backend: str, session_mode: str, pipeline_mode: str
    ) -> None:
        # ``engine`` is validated with its allowed values listed when the
        # registry resolves it.
        if shard_backend != "process":
            raise ValueError(
                "unknown shard backend %r; the serial backend was removed "
                "and the only shard backend is 'process'" % (shard_backend,)
            )
        if session_mode != "persistent":
            raise ValueError(
                "unknown session mode %r; the only session mode is "
                "'persistent'" % (session_mode,)
            )
        if pipeline_mode != "fuse":
            raise ValueError(
                "unknown pipeline mode %r; the only pipeline mode is 'fuse'"
                % (pipeline_mode,)
            )
        # ``shards=0`` used to produce an empty plan that only blew up once
        # the partitioner ran; fail at construction instead —
        # ``dataclasses.replace`` re-runs this, so every ``with_*``
        # derivation is covered too.
        if self.shards < 1:
            raise ValueError(
                "shards must be >= 1 (got %d); the sharded engine needs at "
                "least one shard, and surplus shards beyond the node count "
                "are simply left empty" % self.shards
            )
        # The watchdog deadline fails at construction for the same reason:
        # it is consumed deep inside a phase execute, where a bad value
        # would otherwise surface mid-pipeline (or silently disable it).
        if self.round_timeout is not None and not self.round_timeout > 0:
            raise ValueError(
                "round_timeout must be positive or None (got %r); None "
                "disables the barrier watchdog" % (self.round_timeout,)
            )

    def with_log_budget(self, n: int) -> "CongestConfig":
        """Return a copy whose message budget is ``LOG_BUDGET_MULTIPLIER * log2 n``.

        The budget never drops below 32 bits so that tiny test graphs (n of a
        few nodes) do not spuriously reject constant-size headers.
        """
        budget = max(32, int(math.ceil(LOG_BUDGET_MULTIPLIER * math.log2(max(2, n)))))
        return replace(self, message_bit_budget=budget)

    def with_max_rounds(self, max_rounds: Optional[int]) -> "CongestConfig":
        """Return a copy with a different deterministic round cap."""
        return replace(self, max_rounds=max_rounds)

    def with_engine(self, engine: Union[str, "Engine"]) -> "CongestConfig":
        """Return a copy that selects a different execution engine."""
        return replace(self, engine=engine)

    def with_sharding(self, shards: Optional[int] = None) -> "CongestConfig":
        """Return a copy selecting the sharded engine with *shards* shards.

        ``None`` keeps the current shard count; the engine is always
        switched to ``"sharded"``.
        """
        return replace(
            self,
            engine="sharded",
            shards=self.shards if shards is None else shards,
        )
