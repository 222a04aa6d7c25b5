"""Partition-parallel execution of the synchronous round loop.

:class:`ShardedEngine` (``engine="sharded"``) splits the network into ``k``
contiguous shards with
:func:`repro.congest.sharding.partition.partition_network` and steps each
shard's frontier independently within a round, exchanging the
messages that cross a shard boundary at the round barrier.  Each shard
runs the vectorized engine's callback loop itself
(:class:`repro.congest.vectorized._CallbackStepper`) over its owned nodes,
with an owner table that sends mail for another shard's nodes to the
round barrier.

**The engine contract applies** (module docstring of
:mod:`repro.congest.engine`): outputs, round count and protocol
message/bit metrics — including the per-round trace — are bit-identical to
:class:`repro.congest.engine.ReferenceEngine` for every shard count, and
the model rules raise the same
:class:`repro.congest.errors.MessageSizeViolation` /
:class:`repro.congest.errors.CongestionViolation` types from the shard-local
drain.  Two mechanisms make the partition invisible:

* *Ordered delivery.*  Within one shard, nodes drain in ascending dense
  index, so a receiver's inbox arrives grouped by sender ascending — the
  contract order — for free.  Senders owned by *other* shards arrive at the
  barrier grouped by source shard, and the stepper is handed those groups
  (and the shard's own mail) in ascending shard order; the shards are
  contiguous blocks of the dense index, so that order *is* ascending-sender
  order and no inbox needs a sort.
* *Barrier-time aggregation.*  Round metrics are accumulated per shard and
  folded in ascending shard order at the barrier — sums for message/bit
  counts, ``max`` for the message-size peak — so the global
  :class:`repro.congest.metrics.RoundMetrics` equals the reference's
  regardless of how the round's work was interleaved.  The termination
  rule (no messages in flight, and all frontiers empty or a round run) is
  evaluated by the coordinator on the aggregated view, exactly like the
  single-shard engines.

Execution (:mod:`repro.congest.sharding.workers`): one long-lived worker
process per non-empty shard owns that shard's contexts and routing tables
and arms one stepper per phase; only boundary traffic crosses the round
barrier, pickled once per source and destination shard and routed
unopened by the coordinator.
Requires the protocol object, all per-node state and every payload to be
picklable.  Model-rule violations cross the process boundary with
their in-process exception types; a worker that dies without reporting
raises :class:`repro.congest.errors.ShardWorkerError` instead of hanging
the barrier.  The workers always live in a
:class:`~repro.congest.sharding.workers.ProcessSession`: a composite
runner's session keeps them across its phases, and a direct
:meth:`ShardedEngine.execute` opens a one-shot session and closes it before
returning — the registry's shared engine singleton never holds live
workers.

Note that a *protocol* mutating shared instrumentation state in its
callbacks (for example a test harness appending to one global log) will
observe fully isolated per-worker copies; per-node outputs and metrics
remain bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.congest.config import CongestConfig
from repro.congest.engine import CongestSession, Engine, RunResult, register_engine
from repro.congest.network import Network
from repro.congest.node import Protocol
from repro.congest.sharding.partition import ShardPlan


@dataclass
class SessionPhaseStats:
    """One ``execute`` of a session, as the session's stats record it."""

    label: str
    protocol_messages: int
    cross_shard_messages: int
    boundary_bytes: int
    barrier_rounds: int
    setup_seconds: float


class ShardingStats:
    """Cross-shard traffic accounting of one process session.

    Populated by the session, which exposes it as
    :attr:`repro.congest.engine.CongestSession.stats`; the E15 benchmark
    uses this to report the cut-edge message fraction and the serialized
    boundary traffic.  A worker failure records nothing here: it escapes
    the session as a :class:`repro.congest.errors.ShardWorkerError`.

    Attributes
    ----------
    boundary_bytes / barrier_rounds:
        Pickled boundary bytes shipped across round barriers and the
        number of barriers that shipped them.  Both stay zero for phases an empty
        network ran in-process.
    setup_seconds:
        Coordinator-side seconds spent on per-``execute`` setup (worker
        spawn, arming) summed over the recorded runs.
    shm_bytes:
        Bytes of CSR/owner tables held in the session's shared-memory
        mapping (zero outside process sessions).
    phases:
        Per-``execute`` partials (:class:`SessionPhaseStats`), appended by
        sessions in phase order; the counters above are the session totals.
    plan:
        The session's :class:`ShardPlan`, fixed when it opens.
    rearms / fused_phases:
        Pool-wide protocol ships (one per ``arm`` that crossed the pipes)
        and re-arms *elided* by ``execute_fused`` (``len(group) - 1`` per
        fused group).  A full ``DistNearCliqueRunner`` run records 2 and
        12: the sampling phase, then one group of the other 13.
    """

    # Read only by perfbench's _check_sharding and its sharding.recoveries row.
    retries = 0
    degradations = 0
    recovery_events = ()

    def __init__(self) -> None:
        self.protocol_messages = 0
        self.cross_shard_messages = 0
        self.boundary_bytes = 0
        self.barrier_rounds = 0
        self.setup_seconds = 0.0
        self.shm_bytes = 0
        self.rearms = 0
        self.fused_phases = 0
        self.plan: Optional[ShardPlan] = None
        self.phases: List[SessionPhaseStats] = []

    @property
    def cross_shard_fraction(self) -> float:
        """Fraction of protocol messages that crossed a shard boundary."""
        if self.protocol_messages == 0:
            return 0.0
        return self.cross_shard_messages / self.protocol_messages

    @property
    def bytes_per_round(self) -> float:
        """Mean pickled boundary bytes per round barrier (process backend)."""
        if self.barrier_rounds == 0:
            return 0.0
        return self.boundary_bytes / self.barrier_rounds

    @property
    def setup_seconds_per_phase(self) -> float:
        """Mean setup seconds per recorded phase (0.0 before any phase)."""
        if not self.phases:
            return 0.0
        return self.setup_seconds / len(self.phases)

    def observe_phase(
        self,
        label: str,
        protocol_messages: int,
        cross_shard_messages: int,
        boundary_bytes: int,
        barrier_rounds: int,
        setup_seconds: float,
    ) -> None:
        """Record one session ``execute`` (partial plus session totals)."""
        self.protocol_messages += protocol_messages
        self.cross_shard_messages += cross_shard_messages
        self.boundary_bytes += boundary_bytes
        self.barrier_rounds += barrier_rounds
        self.setup_seconds += setup_seconds
        self.phases.append(
            SessionPhaseStats(
                label=label,
                protocol_messages=protocol_messages,
                cross_shard_messages=cross_shard_messages,
                boundary_bytes=boundary_bytes,
                barrier_rounds=barrier_rounds,
                setup_seconds=setup_seconds,
            )
        )


class ShardedEngine(Engine):
    """Partition-parallel round loop; see the module docstring for details.

    Selectable as ``engine="sharded"``; the shard count is
    ``CongestConfig.shards``.  Traffic statistics live on the session
    (:attr:`repro.congest.engine.CongestSession.stats`).
    """

    name = "sharded"

    def execute(
        self,
        network: Network,
        protocol: Protocol,
        config: Optional[CongestConfig] = None,
        global_inputs: Optional[Dict[str, Any]] = None,
        per_node_inputs: Optional[Dict[int, Dict[str, Any]]] = None,
        reuse_contexts: bool = False,
    ) -> RunResult:
        config = config or CongestConfig()
        # A one-shot session: spawned, run and closed (workers reaped,
        # shared-memory segment unlinked) on every exit path.
        with self.open_session(network, config) as session:
            return session.execute(
                protocol,
                config=config,
                global_inputs=global_inputs,
                per_node_inputs=per_node_inputs,
                reuse_contexts=reuse_contexts,
            )

    # ------------------------------------------------------------------
    def open_session(
        self,
        network: Network,
        config: Optional[CongestConfig] = None,
    ) -> CongestSession:
        """Open a :class:`repro.congest.sharding.workers.ProcessSession`.

        One worker pool and one shared-memory CSR mapping serve every
        ``execute`` of the session, re-armed between phases.
        """
        config = config or CongestConfig()
        # Imported lazily: workers.py needs this module's ShardingStats.
        from repro.congest.sharding.workers import ProcessSession

        return ProcessSession(
            engine=self, network=network, config=config, shards=config.shards
        )


register_engine(ShardedEngine())
