"""Simulator configuration.

The configuration object collects every knob the scheduler honours, so that
experiments can state their execution assumptions explicitly (and tests can
exercise both the strict and the permissive behaviours).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, replace
from typing import Any, Optional

#: The constant in front of log n in :meth:`CongestConfig.with_log_budget`.
#: The protocols in this package fit comfortably within 12·log2(n) bits per
#: message (a constant number of identifiers and counters plus a constant
#: header).
LOG_BUDGET_MULTIPLIER = 12.0


@dataclass(frozen=True)
class RetryPolicy:
    """Supervised-retry policy for process sessions.

    When a phase group of a :class:`~repro.congest.sharding.workers.ProcessSession`
    (a fused group, or the group of one an ``execute`` runs) dies with a
    :class:`~repro.congest.errors.ShardWorkerError` (a crashed, hung or
    corrupt-wire worker — infrastructure failures, never model-rule
    violations), the session respawns the pool and **replays the group
    from its starting contexts**.  Replay is provably safe: the parent's
    contexts are only folded after *every* worker reported, so a failed
    group left them bit-identical to its start, and the engine contract
    makes the replay deterministic.  Defined here (not in the sharding
    package) so :class:`CongestConfig` can carry a policy without an import
    cycle.

    Parameters
    ----------
    max_attempts:
        Total attempts per group, the first one included (``2`` = one
        retry).  Must be at least 1.
    backoff_seconds / backoff_multiplier:
        Deterministic delay before retry *k* (1-based):
        ``backoff_seconds * backoff_multiplier ** (k - 1)``.  The default
        0.0 retries immediately — respawning a pool is already a pause.
    degrade:
        After exhausting the attempts, complete the group (and every later
        one of the session) in-process on the vectorized engine instead of
        raising — bit-identical by the engine contract, and immune to
        worker-process failures.  ``False`` lets the final error escape.
    """

    max_attempts: int = 2
    backoff_seconds: float = 0.0
    backoff_multiplier: float = 2.0
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                "max_attempts must be >= 1 (got %d); 1 means no retry, "
                "only the optional degradation" % self.max_attempts
            )
        if self.backoff_seconds < 0:
            raise ValueError(
                "backoff_seconds must be >= 0, got %r" % (self.backoff_seconds,)
            )
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                "backoff_multiplier must be >= 1, got %r"
                % (self.backoff_multiplier,)
            )

    def delay_before(self, attempt: int) -> float:
        """Deterministic backoff before retry *attempt* (1-based)."""
        if attempt <= 0 or self.backoff_seconds <= 0:
            return 0.0
        return self.backoff_seconds * self.backoff_multiplier ** (attempt - 1)


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
    enforce_congestion:
        When True (the default) a node may send at most one message per
        neighbour per round, as the CONGEST model requires; a second send on
        the same edge raises
        :class:`repro.congest.errors.CongestionViolation`.
    message_bit_budget:
        Hard per-message bit limit.  ``None`` disables the check (used by the
        LOCAL-model neighbours'-neighbours baseline, whose whole point is
        that its messages are *not* O(log n) bits).  Use
        :meth:`CongestConfig.with_log_budget` to derive a budget of
        ``LOG_BUDGET_MULTIPLIER * ceil(log2 n)`` bits.
    record_round_metrics:
        When True the scheduler keeps a per-round metrics trace; disable for
        very long runs to save memory.
    engine:
        Name of the execution engine driving the round loop —
        ``"vectorized"`` (columnar kernels, a CSR callback loop for the
        phases without one; the default), ``"reference"`` (the per-object
        semantics oracle kept for the differential harness) or
        ``"sharded"`` (one worker process per shard over ``shards``
        shards); see :mod:`repro.congest.engine`.  All engines are
        guaranteed to produce bit-identical outputs and protocol metrics,
        so the choice is a throughput knob.
    shards:
        Shard count for ``engine="sharded"`` (ignored by the other
        engines).  The shards are contiguous blocks of the dense node
        index (:mod:`repro.congest.sharding.partition`).  May exceed the
        node count; surplus shards are empty.  The sharded engine runs one
        long-lived worker process per non-empty shard, each owning its
        shard's contexts and inbox buffers, inside a
        :class:`~repro.congest.sharding.workers.ProcessSession`: a
        composite runner's session keeps one worker pool and one
        shared-memory CSR mapping across its phases, re-armed between
        them, and a direct ``execute`` opens a one-shot session.  Boundary
        traffic crosses the round barrier in the packed wire format of
        :mod:`repro.congest.sharding.wire`.  Requires the protocol object
        and all per-node state to be picklable.
    round_timeout:
        Per-round barrier deadline in seconds for the sharded engine's
        worker processes.  ``None`` (the default) keeps the original
        blocking barrier: a worker that hangs in protocol code is
        indistinguishable from a slow round and is waited on forever.
        A positive value arms a coordinator-side watchdog
        (``multiprocessing.connection.wait`` instead of blocking ``recv``):
        a worker missing the deadline raises
        :class:`~repro.congest.errors.ShardWorkerTimeout` — with a
        liveness probe distinguishing hung from silently-dead workers —
        instead of blocking the barrier.  In-process engines have no
        cross-process barrier to time out and ignore the knob.
    retry_policy:
        Optional :class:`RetryPolicy` enabling supervised retry (and, by
        default, graceful degradation to the in-process vectorized engine)
        for process sessions.  ``None`` (the default) keeps the original
        fail-fast semantics: any worker failure aborts the ``execute``.
    fault_plan:
        Optional :class:`repro.congest.sharding.faults.FaultPlan` injecting
        deterministic failures into the sharded execution stack — worker
        crash/hang/pipe-EOF at named points, corrupted wire batches.  Only
        the worker processes read it; a degraded in-process run is clean.
        Testing machinery: ``None`` (always the default outside tests)
        injects nothing and costs nothing.  Typed loosely to keep this
        module import-cycle-free; validated structurally at construction.
    shard_backend / session_mode / pipeline_mode:
        Accepted for backward compatibility only, and only with the values
        ``"process"`` / ``"persistent"`` / ``"fuse"`` — the sole behaviour
        left: the sharded engine always runs worker processes inside a
        session, and composite runners always execute the fused plan.
        None is stored.
    """

    max_rounds: Optional[int] = None
    enforce_congestion: bool = True
    message_bit_budget: Optional[int] = None
    record_round_metrics: bool = True
    engine: str = "vectorized"
    shards: int = 4
    round_timeout: Optional[float] = None
    retry_policy: Optional[RetryPolicy] = None
    fault_plan: Optional[Any] = None
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
        # The fault-tolerance knobs fail at construction for the same
        # reason: all of them are consumed deep inside a phase execute,
        # where a bad value would otherwise surface mid-pipeline (or worse,
        # silently disable the watchdog).
        if self.round_timeout is not None and not self.round_timeout > 0:
            raise ValueError(
                "round_timeout must be positive or None (got %r); None "
                "disables the barrier watchdog" % (self.round_timeout,)
            )
        if self.retry_policy is not None and not isinstance(
            self.retry_policy, RetryPolicy
        ):
            raise ValueError(
                "retry_policy must be a RetryPolicy or None, got %r"
                % (self.retry_policy,)
            )
        if self.fault_plan is not None and not (
            hasattr(self.fault_plan, "specs")
            and hasattr(self.fault_plan, "for_attempt")
        ):
            # Structural check instead of an isinstance: importing the
            # sharding package here would create a cycle (it imports this
            # module for the config type).
            raise ValueError(
                "fault_plan must be a repro.congest.sharding.faults."
                "FaultPlan or None, got %r" % (self.fault_plan,)
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

    def with_engine(self, engine: str) -> "CongestConfig":
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

    @staticmethod
    def local_model(max_rounds: Optional[int] = None) -> "CongestConfig":
        """Configuration for LOCAL-model protocols (unbounded message size).

        Used by the neighbours'-neighbours baseline of Section 3, whose
        messages may contain all node identifiers.
        """
        return CongestConfig(
            max_rounds=max_rounds,
            enforce_congestion=True,
            message_bit_budget=None,
        )
