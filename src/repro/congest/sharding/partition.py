"""Graph partitioning for sharded CONGEST execution.

A :class:`ShardPlan` splits a :class:`repro.congest.network.Network` into
``k`` shards over the network's dense CSR index (see
:meth:`repro.congest.network.Network.csr`): every node is *owned* by exactly
one shard, an edge whose endpoints live in different shards is a *boundary*
(cut) edge, and the plan records the cut statistics that determine how much
cross-shard traffic a sharded execution will pay per round.

The paper's algorithm is local by design — each node's work depends only on
its neighbourhood — so any partition is *correct*; the strategy only moves
the cut fraction, never the outputs.  Two deterministic seeded strategies
ship today:

``"contiguous"``
    Split the dense index ``0..n-1`` into ``k`` near-equal contiguous
    blocks.  Oblivious to the topology (the seed is unused), but free to
    compute and a good match for workloads whose node ids already carry
    locality (generated planted families, relabelled edge lists).

``"bfs"``
    Grow ``k`` regions by balanced round-robin breadth-first search from
    ``k`` seed nodes drawn with a seeded RNG.  Each region claims one node
    per turn up to a capacity of ``ceil(n / k)``, so the shards stay
    balanced while following the topology; nodes no region can reach
    (disconnected components, capacity-locked pockets) are assigned to the
    smallest shard in ascending index order.  Deterministic for a fixed
    ``(network, k, seed)``.

``"bfs+refine"``
    The ``"bfs"`` plan followed by one greedy boundary-refinement sweep in
    the Fiduccia–Mattheyses style: every boundary node is scored by its
    *gain* — cut edges removed minus cut edges created if it moved to a
    neighbouring shard — and strictly-positive-gain moves are applied in
    descending gain order (each node moves at most once per sweep), with
    gains of affected neighbours recomputed as moves land.  A move must
    respect balance: the target stays within the ``ceil(n / k)`` capacity
    and the source keeps at least one node.  This is the strategy for real
    edge lists, where node ids carry no locality and plain ``"bfs"`` can
    cut more edges than ``"contiguous"`` (E14 measures the reduction).

All strategies are deterministic functions of the network's CSR arrays, so
a plan built twice for the same inputs is equal (``ShardPlan`` is a frozen
dataclass) — the property the differential harness relies on when it replays
a sharded run.
"""

from __future__ import annotations

import heapq
import math
import random
import weakref
import zlib
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.congest.network import Network

#: Registry of partitioning strategies accepted by :func:`partition_network`.
PARTITION_STRATEGIES: Tuple[str, ...] = ("contiguous", "bfs", "bfs+refine")


@dataclass(frozen=True)
class ShardPlan:
    """An assignment of a network's nodes to ``k`` shards, plus cut stats.

    All node references are *dense CSR indices* (``0..n-1``), not node ids;
    the sharded engine works on the same dense index as the vectorized engine,
    and ids map to indices via
    :attr:`repro.congest.network.Network.node_index_of`.

    Attributes
    ----------
    strategy / seed:
        The inputs that produced this plan (the seed is recorded even for
        strategies that ignore it, so plans are self-describing).
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

    strategy: str
    seed: int
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

    def repair(
        self, network: Network, touched: Iterable[int]
    ) -> Tuple["ShardPlan", Tuple[int, ...]]:
        """Incremental repair after a delta; see :func:`repair_plan`."""
        return repair_plan(network, self, touched)

    def describe(self) -> str:
        """One-line human-readable summary (used by the E14 benchmark)."""
        return (
            "%s(k=%d, seed=%d): sizes=%s, cut %d/%d edges (%.1f%%)"
            % (
                self.strategy,
                self.n_shards,
                self.seed,
                list(self.shard_sizes),
                self.cut_edges,
                self.total_edges,
                100.0 * self.cut_fraction,
            )
        )


def _contiguous_owners(n: int, k: int) -> List[int]:
    """Near-equal contiguous blocks: the first ``n % k`` shards get one extra."""
    owner = [0] * n
    base, extra = divmod(n, k)
    index = 0
    for shard in range(k):
        size = base + (1 if shard < extra else 0)
        for _ in range(size):
            owner[index] = shard
            index += 1
    return owner


def _bfs_owners(network: Network, n: int, k: int, seed: int) -> List[int]:
    """Balanced round-robin multi-source BFS growth (see module docstring)."""
    owner = [-1] * n
    if n == 0:
        return owner
    _ids, indptr, indices = network.csr()
    rng = random.Random(seed)
    num_seeds = min(k, n)
    seed_nodes = sorted(rng.sample(range(n), num_seeds))
    capacity = int(math.ceil(n / float(num_seeds)))

    sizes = [0] * k
    queues: List[deque] = [deque((s,)) for s in seed_nodes]
    pending = True
    while pending:
        pending = False
        for shard in range(num_seeds):
            queue = queues[shard]
            if sizes[shard] >= capacity:
                queue.clear()
                continue
            # Claim (at most) one node this turn so regions grow in lockstep.
            while queue:
                candidate = queue.popleft()
                if owner[candidate] != -1:
                    continue
                owner[candidate] = shard
                sizes[shard] += 1
                for neighbor in indices[indptr[candidate]:indptr[candidate + 1]]:
                    if owner[neighbor] == -1:
                        queue.append(neighbor)
                break
            if queue:
                pending = True

    # Unreached nodes (components without a seed, capacity-locked pockets):
    # smallest shard first, ties to the lowest shard id — deterministic.
    for index in range(n):
        if owner[index] == -1:
            shard = min(range(k), key=lambda s: (sizes[s], s))
            owner[index] = shard
            sizes[shard] += 1
    return owner


def _refine_owners(
    network: Network,
    owner: List[int],
    k: int,
    candidates: Optional[List[int]] = None,
) -> List[int]:
    """One greedy FM-style boundary-refinement sweep over *owner* (in place).

    Candidates default to every node with at least one neighbour in another
    shard; a *candidates* list restricts the sweep's seed set to those
    nodes (incremental repair seeds it with the delta-touched region), with
    chained improvements still propagating to their neighbours as moves
    land.
    A candidate's *gain* for moving to shard ``t`` is ``(neighbours in t) -
    (neighbours in its own shard)`` — exactly the cut-edge reduction of the
    move.  Moves are applied best-gain-first (ties to the lower node index,
    then the lower target shard: deterministic) using a lazy heap whose
    entries are revalidated against the current assignment when popped;
    each applied move re-scores the mover's neighbours, so chains of
    improvements within one sweep are found.  Only strictly positive gains
    are applied — the cut shrinks monotonically, and since every node moves
    at most once the sweep terminates after at most ``n`` moves.

    Balance is respected with the usual FM tolerance: a move is legal only
    while the target shard stays within ``ceil(n / k) + max(1, 5% of n/k)``
    — the BFS growth capacity plus a small slack, without which a plan
    whose every shard sits exactly at capacity (the common BFS outcome)
    would have no legal move at all — and the source shard keeps at least
    one node.
    """
    _ids, indptr, indices = network.csr()
    n = len(owner)
    if n == 0 or k < 2:
        return owner
    base_capacity = int(math.ceil(n / float(min(k, n))))
    capacity = base_capacity + max(1, base_capacity // 20)
    sizes = [0] * k
    for shard in owner:
        sizes[shard] += 1

    def best_move(u: int):
        """(gain, target) of u's best legal move, or None."""
        home = owner[u]
        counts: Dict[int, int] = {}
        for v in indices[indptr[u]:indptr[u + 1]]:
            shard = owner[v]
            counts[shard] = counts.get(shard, 0) + 1
        internal = counts.get(home, 0)
        best = None
        for shard in sorted(counts):
            if shard == home or sizes[shard] >= capacity:
                continue
            gain = counts[shard] - internal
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, shard)
        return best

    heap: List[Tuple[int, int, int]] = []
    for u in (range(n) if candidates is None else candidates):
        home = owner[u]
        if any(owner[v] != home for v in indices[indptr[u]:indptr[u + 1]]):
            move = best_move(u)
            if move is not None:
                heapq.heappush(heap, (-move[0], u, move[1]))
    moved = [False] * n
    while heap:
        negated_gain, u, target = heapq.heappop(heap)
        if moved[u]:
            continue
        current = best_move(u)
        if current is None:
            continue
        if (-negated_gain, target) != current:
            # Stale entry (a neighbour moved since scoring): re-queue at
            # the current gain and let the heap order decide again.
            heapq.heappush(heap, (-current[0], u, current[1]))
            continue
        if sizes[owner[u]] <= 1:
            continue
        sizes[owner[u]] -= 1
        sizes[target] += 1
        owner[u] = target
        moved[u] = True
        for v in indices[indptr[u]:indptr[u + 1]]:
            if not moved[v]:
                move = best_move(v)
                if move is not None:
                    heapq.heappush(heap, (-move[0], v, move[1]))
    return owner


def partition_network(
    network: Network,
    shards: int,
    strategy: str = "contiguous",
    seed: int = 0,
) -> ShardPlan:
    """Split *network* into *shards* shards and return the :class:`ShardPlan`.

    Parameters
    ----------
    network:
        The network to partition; only its CSR arrays are read.
    shards:
        The shard count ``k`` (at least 1).  ``k`` may exceed the node
        count, in which case the surplus shards are empty.
    strategy:
        One of :data:`PARTITION_STRATEGIES`.
    seed:
        Seed of the partitioner's private RNG (``"bfs"`` seed placement).
        Plans are deterministic for a fixed ``(network, shards, strategy,
        seed)``.
    """
    if shards < 1:
        raise ValueError("shard count must be at least 1, got %r" % (shards,))
    if strategy not in PARTITION_STRATEGIES:
        raise ValueError(
            "unknown partition strategy %r; available strategies: %s"
            % (strategy, ", ".join(PARTITION_STRATEGIES))
        )

    _ids, indptr, indices = network.csr()
    n = len(_ids)
    if strategy == "contiguous":
        owner = _contiguous_owners(n, shards)
    else:
        owner = _bfs_owners(network, n, shards, seed)
        if strategy == "bfs+refine":
            owner = _refine_owners(network, owner, shards)

    return _plan_from_owner(network, owner, shards, strategy, seed)


def _plan_from_owner(
    network: Network,
    owner: List[int],
    shards: int,
    strategy: str,
    seed: int,
) -> ShardPlan:
    """Assemble a :class:`ShardPlan` from a complete owner assignment.

    Shared tail of :func:`partition_network` and :func:`repair_plan`: the
    owned lists and the cut statistics are always recomputed from the
    *current* CSR arrays, so a repaired plan's stats describe the
    post-delta topology.
    """
    _ids, indptr, indices = network.csr()
    n = len(_ids)
    owned: Dict[int, List[int]] = {shard: [] for shard in range(shards)}
    for index in range(n):
        owned[owner[index]].append(index)

    boundary: List[Tuple[int, int]] = []
    internal = 0
    for u in range(n):
        owner_u = owner[u]
        for v in indices[indptr[u]:indptr[u + 1]]:
            if v <= u:
                continue
            if owner_u == owner[v]:
                internal += 1
            else:
                boundary.append((u, v))

    return ShardPlan(
        strategy=strategy,
        seed=seed,
        n_shards=shards,
        owner=tuple(owner),
        shards=tuple(tuple(owned[shard]) for shard in range(shards)),
        boundary_edges=tuple(boundary),
        internal_edges=internal,
    )


def repair_plan(
    network: Network,
    plan: ShardPlan,
    touched: Iterable[int],
) -> Tuple[ShardPlan, Tuple[int, ...]]:
    """Incrementally repair *plan* after a delta touching *touched* indices.

    Instead of repartitioning from scratch, the FM-style gain sweep of
    ``"bfs+refine"`` is re-run *locally*: seeded only with the touched
    nodes and their current neighbours, so ownership outside the delta's
    neighbourhood moves only when a chain of strictly-improving moves
    reaches it (in practice: almost never, which is what keeps clean
    shards' fingerprints stable).  The cut statistics are recomputed
    against the post-delta CSR.

    Returns ``(new_plan, dirty_shards)``.  A shard is *dirty* when it owns
    a touched node (its adjacency rows changed — worker-held neighbour
    views are stale) or when the sweep moved any node into or out of it;
    every other shard's owned set and adjacency rows are unchanged, which
    :func:`shard_fingerprints` certifies.

    *touched* are dense CSR indices (node ids map via
    :attr:`repro.congest.network.Network.node_index_of`).
    """
    touched = sorted(set(touched))
    k = plan.n_shards
    owner = list(plan.owner)
    _ids, indptr, indices = network.csr()
    seeds = set(touched)
    for u in touched:
        seeds.update(indices[indptr[u]:indptr[u + 1]])
    if k >= 2 and seeds:
        _refine_owners(network, owner, k, candidates=sorted(seeds))

    dirty = {plan.owner[u] for u in touched}
    for u in range(plan.n):
        if owner[u] != plan.owner[u]:
            dirty.add(plan.owner[u])
            dirty.add(owner[u])

    new_plan = _plan_from_owner(network, owner, k, plan.strategy, plan.seed)
    return new_plan, tuple(sorted(dirty))


def shard_fingerprints(network: Network, plan: ShardPlan) -> Tuple[int, ...]:
    """Per-shard topology digests: membership plus each owned adjacency row.

    ``digest[s]`` covers shard *s*'s owned index set and the CSR adjacency
    row of every owned node, so it changes exactly when the shard gains or
    loses a node or one of its nodes gains or loses an edge — and stays
    bit-stable otherwise.  The incremental-service tests use this to
    *prove* that a delta plus repair left clean shards untouched.
    """
    _ids, indptr, indices = network.csr()
    digests = []
    for owned in plan.shards:
        crc = zlib.crc32(array("q", owned).tobytes())
        for u in owned:
            crc = zlib.crc32(indices[indptr[u]:indptr[u + 1]].tobytes(), crc)
        digests.append(crc)
    return tuple(digests)


#: Per-network memo of computed plans, stored as ``(fingerprint, plans)``
#: where the fingerprint is :meth:`repro.congest.network.Network.csr_fingerprint`
#: at memoisation time.  A network's topology changes through
#: ``Network.apply_delta``; a caller that applies a delta would otherwise
#: keep being served plans for the old topology from this memo forever.
#: Keying the entry by the fingerprint turns that staleness into a
#: recompute (execution sessions reconcile the change against the delta
#: ledger separately, because their worker pools and shared-memory mappings
#: hold the old CSR).
#: Keying weakly keeps retired networks collectable; plans are frozen, so
#: sharing them is safe.
_PLAN_CACHE: "weakref.WeakKeyDictionary[Network, Tuple[Tuple[int, ...], Dict[Tuple[int, str, int], ShardPlan]]]" = (
    weakref.WeakKeyDictionary()
)


def cached_partition(
    network: Network,
    shards: int,
    strategy: str = "contiguous",
    seed: int = 0,
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
    per_network = entry[1]
    key = (shards, strategy, seed)
    plan = per_network.get(key)
    if plan is None:
        plan = per_network[key] = partition_network(
            network, shards, strategy=strategy, seed=seed
        )
    return plan


def invalidate_partition_cache(network: Network) -> None:
    """Drop every memoised plan for *network*.

    Called by execution sessions when they detect that the network mutated
    between phases (the CSR fingerprint changed), so no later caller can be
    served a plan computed for the pre-mutation topology.
    """
    _PLAN_CACHE.pop(network, None)
