"""Graph partitioning for sharded CONGEST execution.

A :class:`ShardPlan` splits a :class:`repro.congest.network.Network` into
``k`` shards over the network's dense CSR index (see
:meth:`repro.congest.network.Network.csr`): every node is *owned* by exactly
one shard, an edge whose endpoints live in different shards is a *boundary*
(cut) edge, and the plan records the cut statistics that determine how much
cross-shard traffic a sharded execution will pay per round.

The paper's algorithm is local by design — each node's work depends only on
its neighbourhood — so any partition is *correct*; a partitioner could only
move the cut fraction, never the outputs.  There is one plan: the dense
index ``0..n-1`` split into ``k`` near-equal contiguous blocks, the first
``n % k`` blocks one node larger.  Its owner array depends only on
``(n, k)``, and because the blocks are ordered, delivering boundary mail in
source-shard order already yields every inbox in the contract's
ascending-sender order.  A plan built twice for the same inputs is equal
(``ShardPlan`` is a frozen dataclass).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, Optional, Tuple

import numpy as np

from repro.congest.network import Network


@dataclass(frozen=True)
class ShardPlan:
    """An assignment of a network's nodes to ``k`` shards, plus cut stats.

    All node references are *dense CSR indices* (``0..n-1``), not node ids;
    the sharded engine works on the same dense index as the vectorized engine,
    and ids map to indices via
    :attr:`repro.congest.network.Network.node_index_of`.

    Attributes
    ----------
    n_shards:
        The requested shard count ``k``.  Shards may be empty when ``k``
        exceeds the node count.
    owner:
        ``owner[i]`` is the shard that owns dense index ``i``.
    shards:
        ``shards[s]`` is the tuple of dense indices owned by shard ``s``,
        ascending.
    boundary_edges:
        The cut: undirected edges ``(u, v)`` with ``u < v`` (dense indices)
        whose endpoints live in different shards, ascending.
    internal_edges:
        Number of undirected edges with both endpoints in one shard.
    """

    n_shards: int
    owner: Tuple[int, ...]
    shards: Tuple[Tuple[int, ...], ...]
    boundary_edges: Tuple[Tuple[int, int], ...] = field(repr=False)
    internal_edges: int = 0

    @property
    def n(self) -> int:
        """Number of nodes covered by the plan."""
        return len(self.owner)

    @property
    def cut_edges(self) -> int:
        """Number of undirected edges crossing a shard boundary."""
        return len(self.boundary_edges)

    @property
    def total_edges(self) -> int:
        return self.internal_edges + self.cut_edges

    @property
    def cut_fraction(self) -> float:
        """Fraction of edges in the cut (0.0 for an edgeless network)."""
        total = self.total_edges
        return (self.cut_edges / total) if total else 0.0

    @property
    def shard_sizes(self) -> Tuple[int, ...]:
        return tuple(len(owned) for owned in self.shards)


def partition_network(network: Network, shards: int) -> ShardPlan:
    """Split *network* into *shards* contiguous blocks; return the :class:`ShardPlan`.

    *shards* is the shard count ``k`` (at least 1).  ``k`` may exceed the
    node count, in which case the surplus shards are empty.  Only the
    network's CSR arrays are read.
    """
    if shards < 1:
        raise ValueError("shard count must be at least 1, got %r" % (shards,))
    indptr, indices = network.csr_numpy()
    n = len(indptr) - 1
    base, extra = divmod(n, shards)
    sizes = [base + (1 if shard < extra else 0) for shard in range(shards)]
    starts = [0] + list(accumulate(sizes))
    owner = np.repeat(np.arange(shards), sizes)

    # Each undirected edge once, as its (u < v) orientation, in CSR order:
    # rows ascending and each row's columns ascending.
    rows = np.repeat(np.arange(n), np.diff(indptr))
    upper = rows < indices
    rows, columns = rows[upper], indices[upper]
    cut = owner[rows] != owner[columns]
    return ShardPlan(
        n_shards=shards,
        owner=tuple(owner.tolist()),
        shards=tuple(
            tuple(range(starts[shard], starts[shard + 1]))
            for shard in range(shards)
        ),
        boundary_edges=tuple(zip(rows[cut].tolist(), columns[cut].tolist())),
        internal_edges=int(len(rows) - np.count_nonzero(cut)),
    )


#: Per-network memo of computed plans, stored as ``(fingerprint, plans)``
#: where the fingerprint is :meth:`repro.congest.network.Network.csr_fingerprint`
#: at memoisation time and ``plans`` maps a shard count to its plan.  The
#: owner array survives any ``Network.apply_delta``, but the cut statistics
#: do not, so keying the entry by the fingerprint turns a delta into a
#: recompute.  Keying weakly keeps retired networks collectable; plans are
#: frozen, so sharing them is safe.
_PLAN_CACHE: "weakref.WeakKeyDictionary[Network, Tuple[Tuple[int, ...], Dict[int, ShardPlan]]]" = (
    weakref.WeakKeyDictionary()
)


def cached_partition(
    network: Network,
    shards: int,
    fingerprint: Optional[Tuple[int, ...]] = None,
) -> ShardPlan:
    """Memoised :func:`partition_network`.

    The sharded engine partitions once per protocol execution; a composite
    pipeline (the 14-phase ``DistNearClique`` runner) executes many
    protocols on one network, so the plan is computed once and reused.  The
    memo is keyed by the network's identity *and* its CSR fingerprint: if
    the visible topology diverges from the one the memo was built for, the
    stale plans are dropped and the partition is recomputed.  A caller that
    already holds the current fingerprint (a session opening) may pass it.

    The fingerprint is cached until the CSR changes, so a repeated probe is
    O(1); its checksum covers the arrays, so a count-preserving delta (an edge
    swapped for another) still misses the memo (pinned by
    ``TestPartitionCacheStaleness``).
    """
    if fingerprint is None:
        fingerprint = network.csr_fingerprint()
    entry = _PLAN_CACHE.get(network)
    if entry is None or entry[0] != fingerprint:
        entry = _PLAN_CACHE[network] = (fingerprint, {})
    plan = entry[1].get(shards)
    if plan is None:
        plan = entry[1][shards] = partition_network(network, shards)
    return plan


def invalidate_partition_cache(network: Network) -> None:
    """Drop every memoised plan for *network*.

    Called by execution sessions when they detect that the network mutated
    behind :meth:`repro.congest.network.Network.apply_delta` (the CSR
    fingerprint changed unexplained), so no later caller can be served a
    plan computed for the pre-mutation topology.
    """
    _PLAN_CACHE.pop(network, None)
