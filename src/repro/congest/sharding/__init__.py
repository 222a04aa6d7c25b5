"""Sharded CONGEST execution: graph partitioning plus a parallel engine.

The paper's algorithm is local by design — every node's work depends only
on its neighbourhood — which is exactly the structure a sharded executor
exploits: partition the network into ``k`` regions, step each region's
round independently, and exchange only the messages that cross a region
boundary at the round barrier.  This package provides:

:mod:`repro.congest.sharding.partition`
    :func:`partition_network` splits a network's dense CSR index into ``k``
    contiguous blocks and returns a :class:`ShardPlan` recording owned
    nodes, boundary edges and cut statistics.

:mod:`repro.congest.sharding.engine`
    :class:`ShardedEngine` (``engine="sharded"``) executes a protocol in
    one worker process per shard, reusing the callback loop's
    CSR/inbox-buffer machinery per shard.  Bit-identical to
    :class:`repro.congest.engine.ReferenceEngine` by the engine contract,
    for every shard count.

:mod:`repro.congest.sharding.wire`
    The packed wire format boundary traffic travels in between worker
    processes: flat arrays plus one payload byte blob per bucket, message
    kinds interned to small integers per channel.

:mod:`repro.congest.sharding.workers`
    The worker-process side of the engine, its coordinator,
    the re-armable worker pool and the ``ProcessSession`` that keeps pool
    plus shared-memory CSR mapping alive across the phases of a composite
    pipeline (a direct ``execute`` runs in a one-shot session).

:mod:`repro.congest.sharding.shm`
    The shared-memory CSR segment (``SharedCSR``) a session's workers
    attach to: one mapping of the id/adjacency/owner tables serving every
    phase, with unlink guaranteed on session close and guarded on crash.

Importing this package registers the engine; the registry in
:mod:`repro.congest.engine` imports it lazily so ``engine="sharded"`` works
no matter which module a caller reaches first.
"""

from repro.congest.sharding.engine import (
    SessionPhaseStats,
    ShardedEngine,
    ShardingStats,
)
from repro.congest.sharding.partition import (
    ShardPlan,
    cached_partition,
    invalidate_partition_cache,
    partition_network,
)
from repro.congest.sharding.shm import SharedCSR
from repro.congest.sharding.wire import WireBatch, WireDecoder, WireEncoder

__all__ = [
    "SessionPhaseStats",
    "SharedCSR",
    "ShardPlan",
    "ShardedEngine",
    "ShardingStats",
    "WireBatch",
    "WireDecoder",
    "WireEncoder",
    "cached_partition",
    "invalidate_partition_cache",
    "partition_network",
]
