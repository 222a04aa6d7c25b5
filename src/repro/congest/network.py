"""The communication graph and per-node contexts.

A :class:`Network` is constructed from an undirected ``networkx`` graph or
from an ``(m, 2)`` integer array of endpoint pairs (what
:func:`repro.graphs.io.load_snap_edgelist` returns).  Graph node labels
must be hashable; they are mapped to integer identifiers
(preserving integer labels when possible) because the paper assumes each
node carries a unique O(log n)-bit identifier that supports comparisons
(smallest-ID root election, largest-root tie breaking).

Relabelling is deterministic for *any* mix of label types: labels are
ordered first by type name and then by ``repr``, so a graph mixing integer
and string labels (as real edge-list files sometimes do) always produces
the same ``0..n-1`` assignment regardless of insertion order, instead of
tripping over ``sorted`` refusing to compare heterogeneous keys.

Storage is CSR-native: the topology lives in two flat int64 numpy arrays
(``indptr`` and ``indices``) over a dense ``0..n-1`` index in ascending id
order, built in one sort plus a ``bincount`` / ``cumsum`` pass from the
graph's adjacency or, for a pair array, from both orientations of every
row after one ``np.unique`` assigns the dense indices.  No copy of the
input is kept.  Everything else is derived from those arrays: a node's
sorted neighbour tuple is sliced from them on first access and cached,
the ``array('q')`` pair :meth:`Network.csr` returns is copied once per
topology, and the read-only :attr:`Network.graph` view is built on first
access and dropped by every delta.  :meth:`Network.apply_delta` splices
only the rows of the touched nodes and replaces only their cached tuples,
and the topology fingerprint (node count, edge count, CRC of the arrays)
is recorded whenever the arrays change, so reading it costs O(1).

Per-node contexts live in a :class:`ContextRegistry`, which builds a
:class:`NodeContext` on first touch.  After sampling, a ``DistNearClique``
run involves only S ∪ Γ(S), so the other nodes never get one: their halt
flags sit in one column and their round counters in one number.  Every
node's 63-bit RNG seed is still drawn at :meth:`Network.build_contexts`
time, and a context builds its ``random.Random`` only when ``ctx.rng`` is
first read: phases that never draw randomness never pay for one.
"""

from __future__ import annotations

import random
import zlib
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import networkx as nx
import numpy as np

from repro.congest.errors import DeltaError, ProtocolError
from repro.congest.node import NodeContext, Protocol, effective_scope, reset_in_scope


@dataclass(frozen=True)
class GraphDelta:
    """A batch of edge insertions and deletions over a fixed node set.

    The service layer's unit of topology change: edges come and go, nodes do
    not (the paper's model fixes the processor set; a "new node" workload is
    modelled by including isolated nodes up front).  Edges are undirected
    pairs; orientation and duplicates are normalised by
    :meth:`Network.apply_delta`, which validates the batch against the live
    topology before touching anything.
    """

    additions: Tuple[Tuple[int, int], ...] = ()
    removals: Tuple[Tuple[int, int], ...] = ()

    @property
    def touched_nodes(self) -> frozenset:
        """Every endpoint named by the batch."""
        return frozenset(
            v for edge in self.additions + self.removals for v in edge
        )


@dataclass(frozen=True)
class AppliedDelta:
    """The record of one successful :meth:`Network.apply_delta` call.

    Attributes
    ----------
    epoch:
        The network's :attr:`Network.delta_epoch` after this application —
        a monotone counter execution sessions compare against their own
        watermark to tell "mutated via the delta API" (repairable) from
        "mutated behind the API" (fatal).
    added / removed:
        The *effective* edge sets, canonically oriented (``u < v``): no-op
        entries (an addition already present, a removal already absent)
        are dropped during normalisation.
    touched:
        Endpoints of the effective edges — the dirty-node seed set for
        shard repair and incremental recomputation.
    fingerprint_after:
        :meth:`Network.csr_fingerprint` immediately after the splice; a
        session whose live fingerprint matches the last record's value
        knows the divergence is fully explained by the delta ledger.
    """

    epoch: int
    added: Tuple[Tuple[int, int], ...]
    removed: Tuple[Tuple[int, int], ...]
    touched: frozenset = field(repr=False)
    fingerprint_after: Tuple[int, int, int] = field(repr=False)

    @property
    def edges_changed(self) -> int:
        return len(self.added) + len(self.removed)


def _relabel_sort_key(label: Any) -> Tuple[str, str]:
    """Total order over arbitrary hashable labels: (type name, repr).

    Plain ``sorted`` raises ``TypeError`` on heterogeneous labels (``3 < "a"``
    is undefined), which would make the relabelling of a mixed int/str graph
    depend on whether the comparison ever happens.  Grouping by type name
    first and ``repr`` second is deterministic for any label mix and for any
    insertion order (labels of types with value-stable reprs, which covers
    every wire-friendly label type).
    """
    return (type(label).__name__, repr(label))


def _build_csr(n: int, src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of the directed dense-index pairs ``src → dst``.

    Self-loops and repeated pairs are dropped.  Rows come out in ascending
    index order with ascending neighbours.  One sort of the combined
    ``src * n + dst`` keys, a mask over adjacent equal keys, then
    ``bincount`` / ``cumsum`` for the row bounds.
    """
    indptr = np.zeros(n + 1, dtype=np.int64)
    keys = src * n + dst
    keys = keys[src != dst]
    if not len(keys):
        return indptr, np.zeros(0, dtype=np.int64)
    keys.sort()
    # Sort plus mask, not np.unique: the same result at a fraction of
    # np.unique's cost on int64 keys.
    fresh = np.empty(len(keys), dtype=bool)
    fresh[0] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    keys = keys[fresh]
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, keys % n


class _NeighborRows:
    """Neighbour tuples sliced from the CSR arrays on first access, by node id.

    Shared by a network and its context registries, so a registry can build
    contexts without holding the network (which would make a reference
    cycle that only the cyclic collector frees).
    """

    __slots__ = ("ids", "index_of", "dense_ids", "indptr", "indices", "cache")

    def __init__(
        self, ids: Tuple[int, ...], index_of: Dict[int, int], dense_ids: bool
    ) -> None:
        self.ids = ids
        self.index_of = index_of
        self.dense_ids = dense_ids
        self.cache: Dict[int, Tuple[int, ...]] = {}

    def row(self, node_id: int) -> Tuple[int, ...]:
        row = self.cache.get(node_id)
        if row is None:
            index = self.index_of[node_id]
            indptr = self.indptr
            flat = self.indices[indptr[index] : indptr[index + 1]].tolist()
            if not self.dense_ids:
                flat = map(self.ids.__getitem__, flat)
            row = self.cache[node_id] = tuple(flat)
        return row

    def all(self) -> Iterator[Tuple[int, ...]]:
        """Every tuple in dense-index order, sliced in one bulk pass."""
        if len(self.cache) < len(self.ids):
            flat = self.indices.tolist()
            if not self.dense_ids:
                flat = list(map(self.ids.__getitem__, flat))
            bounds = self.indptr.tolist()
            self.cache = {
                node_id: tuple(flat[bounds[index] : bounds[index + 1]])
                for index, node_id in enumerate(self.ids)
            }
        return map(self.cache.__getitem__, self.ids)


class ContextRegistry(Mapping):
    """The per-node contexts of one :meth:`Network.build_contexts` call.

    A read-only mapping from every node id, in ascending order, to its
    :class:`NodeContext`.  A context is built on first touch: a per-node
    input, a read through the mapping, a started node of an unscoped phase,
    or a kernel write.  Until then the node has an empty state and a
    ``None`` output, and two registers stand in for its slots: the
    :attr:`halted` column and the :attr:`rounds` count.  A context built
    late takes its pre-drawn seed and the current register values, so it is
    exactly the context an eager build would show at that point.

    Engines that walk every node each round (reference, async, sharded)
    call :meth:`materialize` once per phase.  The fast engines work on
    :attr:`live` and the registers only, so their cost per phase is
    O(live contexts) plus a few O(n) numpy writes.
    """

    def __init__(
        self,
        network: "Network",
        seeds: List[int],
        global_inputs: Optional[Dict[str, Any]],
        announced_n: int,
    ) -> None:
        self._attach(network)
        self._seeds = seeds
        self._announced_n = announced_n
        #: The globals a context is built with: the build's global inputs
        #: plus those of every later call that reuses the contexts.
        self.globals: Dict[str, Any] = dict(global_inputs or {})
        self._live: Dict[int, NodeContext] = {}
        self._ordered = True
        self._dense: Optional[List[NodeContext]] = None
        #: Halt flags by dense index.  An entry is authoritative only while
        #: its node has no context; a kernel frame uses the whole column as
        #: its halt register.
        self.halted = np.zeros(len(seeds), dtype=bool)
        #: The round counter of every node without a context: the last
        #: phase's round count (every engine ends every node there).
        self.rounds = 0

    def _attach(self, network: "Network") -> None:
        self._rows = network._rows
        self.ids: Tuple[int, ...] = network._ids
        self._index_of = network._index_of

    def __getstate__(self) -> Dict[str, Any]:
        # The network's tables are re-attached by Network._install_contexts.
        state = dict(self.__dict__)
        for key in ("_rows", "ids", "_index_of"):
            del state[key]
        return state

    # ------------------------------------------------------------------
    # the mapping
    # ------------------------------------------------------------------
    def __getitem__(self, node_id: int) -> NodeContext:
        return self.at(self._index_of[node_id])

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._index_of

    def values(self) -> List[NodeContext]:  # type: ignore[override]
        """Every context, in ascending id order (builds the missing ones)."""
        return list(self.materialize())

    def items(self) -> List[Tuple[int, NodeContext]]:  # type: ignore[override]
        """Every ``(id, context)`` pair, ascending (builds the missing ones)."""
        return list(zip(self.ids, self.materialize()))

    # ------------------------------------------------------------------
    # building contexts
    # ------------------------------------------------------------------
    def at(self, index: int) -> NodeContext:
        """The context at dense *index*, built if it has none yet."""
        live = self._live
        ctx = live.get(index)
        if ctx is None:
            if live and index < next(reversed(live)):
                self._ordered = False
            ctx = live[index] = self._build(index)
        return ctx

    def _build(self, index: int) -> NodeContext:
        node_id = self.ids[index]
        ctx = NodeContext(
            node_id, (), self._announced_n, self.globals, None, self._seeds[index]
        )
        # Share the network's tuple, already sorted, instead of the sorted
        # copy the constructor would make.
        ctx.neighbors = self._rows.row(node_id)
        ctx._halted = bool(self.halted[index])
        ctx._round = self.rounds
        return ctx

    def materialize(self) -> List[NodeContext]:
        """Every context in ascending id order, building the missing ones.

        One bulk pass, made once per registry; callers must not mutate the
        list.
        """
        if self._dense is None:
            live = self.live
            dense = list(live.values())
            if len(dense) < len(self.ids):
                # _build inlined: this loop is the whole cost of a dense run.
                halted = self.halted.tolist()
                n, global_inputs, rounds = self._announced_n, self.globals, self.rounds
                dense = []
                for index, (node_id, seed, neighbors) in enumerate(
                    zip(self.ids, self._seeds, self._rows.all())
                ):
                    ctx = live.get(index)
                    if ctx is None:
                        ctx = NodeContext(node_id, (), n, global_inputs, None, seed)
                        ctx.neighbors = neighbors
                        ctx._halted = halted[index]
                        ctx._round = rounds
                    dense.append(ctx)
                # Keyed by the network's own index objects, and with every
                # seed now held by its context: a dense registry costs no
                # more memory than the eager build did.
                live.clear()
                live.update(zip(self._index_of.values(), dense))
                self._seeds = []
            self._dense = dense
        return self._dense

    # ------------------------------------------------------------------
    # the fast engines' view
    # ------------------------------------------------------------------
    @property
    def live(self) -> Dict[int, NodeContext]:
        """The contexts built so far, keyed by dense index in ascending order."""
        if not self._ordered:
            ordered = sorted(self._live.items())
            self._live.clear()
            self._live.update(ordered)
            self._ordered = True
        return self._live

    def get_live(self, node_id: int) -> Optional[NodeContext]:
        """The context of *node_id* if it has been built, else ``None``."""
        return self._live.get(self._index_of[node_id])

    def peek(self, node_id: int) -> NodeContext:
        """*node_id*'s context, or a detached copy of the one it would get.

        Reads every node's state, output, halt flag and round counter
        without building contexts, so a test can compare all nodes with
        the reference without forcing the registry dense.
        """
        index = self._index_of[node_id]
        ctx = self._live.get(index)
        return ctx if ctx is not None else self._build(index)

    def update_globals(self, global_inputs: Dict[str, Any]) -> None:
        """Add *global_inputs* to every context, built or not."""
        self.globals.update(global_inputs)
        for ctx in self._live.values():
            ctx.globals.update(global_inputs)

    def start(self, protocol: Protocol) -> List[int]:
        """Round-0 preparation of a callback phase; returns the started indices.

        A node without a context has an empty state, so it is out of every
        scope: one column write marks all of them halted, and
        :func:`reset_in_scope` walks only the live contexts.  A phase
        without a scope starts every node, which builds every context.
        """
        if effective_scope(protocol) is None:
            self.materialize()
        else:
            self.halted.fill(True)
        live = self.live
        return reset_in_scope(protocol, live, live)

    def align_rounds(self, rounds: int) -> None:
        """End every node's round counter at *rounds*, as the reference does."""
        self.rounds = rounds
        for ctx in self._live.values():
            ctx._round = rounds


class Network:
    """An undirected communication network with integer node identifiers.

    Parameters
    ----------
    graph:
        Undirected simple graph, read once through ``graph.adjacency()``,
        or an ``(m, 2)`` numpy array of integer endpoint pairs (int or
        uint dtype, or ``object`` holding ints, e.g. ids past int64).  The
        array's distinct entries are the node ids; rows may repeat and
        come in either orientation.  Either way, self-loops are ignored (a
        processor does not have a link to itself) and multi-edges collapse
        to one link, so an array and the ``nx.Graph`` of the same pairs
        build the same network.  The network keeps no reference to the
        input.  Any other array dtype or shape raises ``ValueError``.
    relabel:
        When True (default) and the graph's labels are not all integers, the
        nodes are relabelled ``0..n-1`` in (type name, repr) order — a total
        order that is well-defined even when integer and string labels are
        mixed in one graph.  The mapping is available as :attr:`label_of` /
        :attr:`id_of` and depends only on the label set, never on insertion
        order.
    seed:
        Seed for the network-level random source from which per-node private
        random generators are derived.
    node_seeds:
        Optional explicit per-node RNG seeds, keyed by node id.  A node with
        an entry here gets ``random.Random(node_seeds[id])`` instead of a
        seed drawn from the network RNG.  This is how the incremental
        service replays the exact seed a node *would* have received in a
        full run when re-executing only a sub-network: the full draw order
        is computed once and the relevant slice injected, keeping sub-run
        outputs bit-identical to the full run's.
    announced_n:
        The system size the per-node contexts announce as ``ctx.n``.
        Defaults to the actual node count.  The CONGEST model assumes every
        node knows the *system* size; a sub-network standing in for the
        dirty region of a larger evolving graph must announce the full
        system's ``n`` so identifier widths and message-bit accounting
        match the full run exactly.

    The topology is stored as int64 CSR arrays only (see the module
    docstring).  A node's neighbour tuple is sliced from them on first
    access (:meth:`neighbors`, :meth:`degree`, :meth:`has_edge`, a built
    context's ``neighbors``) and cached.  :attr:`graph` is a frozen
    ``networkx`` view built from them on demand; the topology changes only
    through :meth:`apply_delta`.

    Contexts are built on first touch (:class:`ContextRegistry`): a fresh
    :meth:`build_contexts` draws every seed but builds a context only for
    the nodes with per-node inputs.  The reference, async and sharded
    engines build every context in one bulk pass per phase; the batched
    and vectorized engines build only those of the nodes a phase starts
    or a kernel writes.
    """

    def __init__(
        self,
        graph: Union[nx.Graph, np.ndarray],
        relabel: bool = True,
        seed: Optional[int] = None,
        node_seeds: Optional[Dict[int, int]] = None,
        announced_n: Optional[int] = None,
    ) -> None:
        if isinstance(graph, np.ndarray):
            src, dst = self._read_pairs(graph)
        else:
            src, dst = self._read_adjacency(graph, relabel)
        self._rows = _NeighborRows(self._ids, self._index_of, self._dense_ids)
        self._install(*_build_csr(len(self._ids), src, dst))

        self._rng = random.Random(seed)
        self._node_seeds: Dict[int, int] = dict(node_seeds or {})
        self._announced_n = announced_n
        self._contexts: Optional[ContextRegistry] = None
        self._ctx_epoch = 0
        self._delta_epoch = 0
        self._delta_log: List[AppliedDelta] = []

    def _read_pairs(self, pairs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The pair-array front-end: assign ids, return the dense ``src → dst`` pairs.

        The node ids are the distinct endpoints (self-loop endpoints
        included), and every row yields both orientations.
        """
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(
                "a pair array must have shape (m, 2); got %r" % (pairs.shape,)
            )
        if pairs.dtype.kind not in "iuO" or (
            pairs.dtype.kind == "O"
            and not all(isinstance(end, int) for end in pairs.flat)
        ):
            raise ValueError("pair array entries must be integers; got %s" % pairs.dtype)
        ids, inverse = np.unique(pairs, return_inverse=True)
        ids = ids.tolist()
        self._assign_ids({node_id: node_id for node_id in ids}, ids)
        inverse = inverse.reshape(pairs.shape).astype(np.int64, copy=False)
        src = np.concatenate((inverse[:, 0], inverse[:, 1]))
        dst = np.concatenate((inverse[:, 1], inverse[:, 0]))
        return src, dst

    def _read_adjacency(self, graph: nx.Graph, relabel: bool) -> Tuple[np.ndarray, np.ndarray]:
        """The ``nx.Graph`` front-end: assign ids, return the dense ``src → dst`` pairs."""
        if graph.is_directed():
            raise ValueError("the CONGEST simulator models undirected networks")
        labels: List[Any] = []
        rows: List[Any] = []
        for label, neighbours in graph.adjacency():
            labels.append(label)
            rows.append(neighbours)
        all_int = all(isinstance(label, int) for label in labels)
        if all_int:
            self._assign_ids({label: label for label in labels}, sorted(labels))
        elif relabel:
            ordered = sorted(labels, key=_relabel_sort_key)
            self._assign_ids(
                {label: index for index, label in enumerate(ordered)},
                list(range(len(ordered))),
            )
        else:
            raise ValueError(
                "node labels must be integers when relabel=False; got %r"
                % (sorted(map(type, labels), key=repr)[:3],)
            )

        # Labels -> dense indices.  Integer labels 0..n-1 are their own
        # indices; other integer labels go through _index_of, and relabelled
        # ones through id_of (their ids are the dense indices).
        to_index = None
        if not (all_int and self._dense_ids):
            to_index = (self._index_of if all_int else self.id_of).__getitem__

        def dense(items: Iterable[Any], count: int) -> np.ndarray:
            if to_index is not None:
                items = map(to_index, items)
            return np.fromiter(items, dtype=np.int64, count=count)

        degrees = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        src = np.repeat(dense(labels, len(labels)), degrees)
        dst = dense(chain.from_iterable(rows), int(degrees.sum()))
        return src, dst

    def _assign_ids(self, id_of: Dict[Any, int], ids: List[int]) -> None:
        """Install the label → id mapping and the ascending node ids."""
        self.id_of: Dict[Any, int] = id_of
        self.label_of: Dict[int, Any] = {v: k for k, v in self.id_of.items()}
        self._ids: Tuple[int, ...] = tuple(ids)
        self._index_of: Dict[int, int] = {
            node_id: index for index, node_id in enumerate(ids)
        }
        self._dense_ids = ids == list(range(len(ids)))
        self._ids_array: Optional[np.ndarray] = None

    def _install(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        # Kernels read these arrays in place; a delta installs new ones
        # instead of writing into them.
        indptr.flags.writeable = indices.flags.writeable = False
        self._indptr = self._rows.indptr = indptr
        self._indices = self._rows.indices = indices
        # Derived views, rebuilt on demand from the arrays above.
        self._csr_arrays: Optional[Tuple[array, array]] = None
        self._graph_view: Optional[nx.Graph] = None
        # The topology fingerprint caches and execution sessions key on.
        self._fingerprint = (
            len(self._ids),
            len(indices) // 2,
            zlib.crc32(indices, zlib.crc32(indptr)),
        )

    # ------------------------------------------------------------------
    # topology accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.Graph:
        """A frozen ``networkx`` view of the topology (integer node ids).

        Built from the CSR arrays on first access and dropped by every
        delta; mutating it raises ``networkx.NetworkXError`` — change the
        topology through :meth:`apply_delta`.
        """
        if self._graph_view is None:
            view = nx.Graph()
            view.add_nodes_from(self._ids)
            view.add_edges_from(
                (u, v)
                for u, neighbours in zip(self._ids, self._rows.all())
                for v in neighbours
                if u < v
            )
            self._graph_view = nx.freeze(view)
        return self._graph_view

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self._ids)

    @property
    def node_ids(self) -> List[int]:
        """Sorted list of node identifiers."""
        return list(self._ids)

    @property
    def node_index_of(self) -> Dict[int, int]:
        """Mapping from node id to its dense ``0..n-1`` CSR index."""
        return self._index_of

    def csr(self) -> Tuple[Tuple[int, ...], array, array]:
        """The flat-array adjacency: ``(ids, indptr, indices)``.

        ``ids[i]`` is the node id at dense index ``i`` (ascending id order);
        the neighbours of dense index ``i`` are the dense indices
        ``indices[indptr[i]:indptr[i + 1]]``, also ascending.  The arrays are
        ``array('q')`` copies of the int64 storage, made once per topology
        and shared — callers must not mutate them.
        """
        if self._csr_arrays is None:
            indptr, indices = array("q"), array("q")
            indptr.frombytes(self._indptr.tobytes())
            indices.frombytes(self._indices.tobytes())
            self._csr_arrays = (indptr, indices)
        return (self._ids,) + self._csr_arrays

    def csr_numpy(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`csr` as the int64 storage itself: ``(ids, indptr, indices)``.

        No copies are made; the arrays are flagged read-only.
        """
        if self._ids_array is None:
            self._ids_array = np.asarray(self._ids, dtype=np.int64)
        self._ids_array.flags.writeable = False
        return self._ids_array, self._indptr, self._indices

    def csr_fingerprint(self) -> Tuple[int, int, int]:
        """Fingerprint of the current topology: ``(nodes, edges, CSR checksum)``.

        Recorded whenever the CSR arrays change (construction and every
        effective :meth:`apply_delta`), so reading it is O(1).  The checksum
        covers both arrays, so it tells any two topologies apart that differ
        in an edge — count-preserving swaps included — up to CRC collisions.
        It is the key :func:`repro.congest.sharding.partition.cached_partition`
        memoises plans under and the value execution sessions compare
        against the delta ledger to detect a network that changed between
        phases.
        """
        return self._fingerprint

    @property
    def context_epoch(self) -> int:
        """Counter bumped by every :meth:`build_contexts` call.

        Persistent execution sessions record the epoch after synchronising
        worker-held context state; a different value at the next ``execute``
        means the contexts were rebuilt or mutated outside the session
        (e.g. a direct ``build_contexts`` call between phases), so the
        session must re-ship state instead of re-arming in place.
        """
        return self._ctx_epoch

    def neighbors(self, node_id: int) -> Tuple[int, ...]:
        """Adjacent node identifiers of *node_id* (sorted).

        Sliced from the CSR arrays on first access and cached.
        """
        return self._rows.row(node_id)

    def degree(self, node_id: int) -> int:
        return len(self.neighbors(node_id))

    def has_edge(self, u: int, v: int) -> bool:
        if u not in self._index_of or v not in self._index_of:
            return False
        neighbours = self.neighbors(u)
        at = bisect_left(neighbours, v)
        return at < len(neighbours) and neighbours[at] == v

    def number_of_edges(self) -> int:
        return self._fingerprint[1]

    # ------------------------------------------------------------------
    # batched topology updates (the service layer's delta API)
    # ------------------------------------------------------------------
    @property
    def delta_epoch(self) -> int:
        """Counter bumped by every effective :meth:`apply_delta` call.

        Execution sessions keep a watermark of this counter: a changed CSR
        fingerprint whose divergence is fully explained by ledger entries
        above the watermark is a *repairable* delta; a changed fingerprint
        with no such entries is an external mutation and stays fatal.
        """
        return self._delta_epoch

    def deltas_since(self, epoch: int) -> Tuple[AppliedDelta, ...]:
        """The applied-delta records with :attr:`AppliedDelta.epoch` > *epoch*."""
        return tuple(
            record for record in self._delta_log if record.epoch > epoch
        )

    def _normalize_delta_edges(
        self, edges: Iterable[Tuple[int, int]], kind: str
    ) -> List[Tuple[int, int]]:
        """Canonical ``(u, v)`` with ``u < v``; validates before any mutation."""
        normalized: List[Tuple[int, int]] = []
        seen = set()
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise DeltaError(
                    "delta %s entry %r is not an edge pair" % (kind, edge)
                )
            if u == v:
                raise DeltaError(
                    "delta %s entry (%r, %r) is a self-loop; processors have "
                    "no link to themselves" % (kind, u, v)
                )
            for endpoint in (u, v):
                if endpoint not in self._index_of:
                    raise DeltaError(
                        "delta %s entry (%r, %r) names unknown node %r; the "
                        "delta API changes edges over the fixed node set "
                        "(include future nodes as isolated nodes up front)"
                        % (kind, u, v, endpoint)
                    )
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                continue
            seen.add(pair)
            normalized.append(pair)
        return sorted(normalized)

    def apply_delta(
        self,
        additions: Iterable[Tuple[int, int]] = (),
        removals: Iterable[Tuple[int, int]] = (),
    ) -> AppliedDelta:
        """Apply a batch of edge insertions/deletions and return the record.

        Validation happens entirely before mutation — a raised
        :class:`repro.congest.errors.DeltaError` leaves the network
        untouched.  No-op entries (adding a present edge, removing an
        absent one) are dropped; an edge named in both lists is rejected
        as ambiguous.  On an effective change only the touched nodes' rows
        are rebuilt and spliced between the untouched ``indices`` slices;
        ``indptr`` is redone from the degree column, the touched rows'
        cached tuples are replaced and the fingerprint retaken.  Built
        contexts of touched nodes have their ``neighbors`` view refreshed
        *in place* (state, output and RNG streams are
        preserved — an evolving-graph service keeps its nodes), the delta
        epoch advances and the application is recorded on the ledger for
        sessions to reconcile against.

        ``context_epoch`` is deliberately *not* bumped: contexts were
        patched, not rebuilt, and persistent sessions detect the topology
        change through the CSR fingerprint + delta ledger instead.
        """
        added = self._normalize_delta_edges(additions, "addition")
        removed = self._normalize_delta_edges(removals, "removal")
        overlap = set(added) & set(removed)
        if overlap:
            raise DeltaError(
                "edges %s appear as both addition and removal in one delta"
                % sorted(overlap)
            )
        added = [edge for edge in added if not self.has_edge(*edge)]
        removed = [edge for edge in removed if self.has_edge(*edge)]
        if not added and not removed:
            return AppliedDelta(
                epoch=self._delta_epoch,
                added=(),
                removed=(),
                touched=frozenset(),
                fingerprint_after=self._fingerprint,
            )
        touched = frozenset(v for edge in added + removed for v in edge)
        rows = {node_id: set(self.neighbors(node_id)) for node_id in touched}
        for u, v in added:
            rows[u].add(v)
            rows[v].add(u)
        for u, v in removed:
            rows[u].remove(v)
            rows[v].remove(u)
        self._splice_rows(rows)
        for node_id in touched if self._contexts is not None else ():
            ctx = self._contexts.get_live(node_id)
            if ctx is not None:
                ctx.neighbors = self._rows.cache[node_id]
                # is_neighbor caches a frozenset in state; drop it so the
                # patched view is authoritative.
                ctx.state.pop("__neighbor_set", None)
        self._delta_epoch += 1
        record = AppliedDelta(
            epoch=self._delta_epoch,
            added=tuple(added),
            removed=tuple(removed),
            touched=touched,
            fingerprint_after=self._fingerprint,
        )
        self._delta_log.append(record)
        return record

    def _splice_rows(self, rows: Dict[int, set]) -> None:
        """Replace the CSR rows of the nodes in *rows* (id → new neighbour set)."""
        index_of = self._index_of
        indptr, indices = self._indptr, self._indices
        degrees = np.diff(indptr)
        pieces: List[np.ndarray] = []
        cursor = 0
        for node_id in sorted(rows, key=index_of.__getitem__):
            neighbours = self._rows.cache[node_id] = tuple(sorted(rows[node_id]))
            index = index_of[node_id]
            pieces.append(indices[cursor : indptr[index]])
            pieces.append(
                np.fromiter(
                    map(index_of.__getitem__, neighbours),
                    dtype=np.int64,
                    count=len(neighbours),
                )
            )
            cursor = indptr[index + 1]
            degrees[index] = len(neighbours)
        pieces.append(indices[cursor:])
        new_indptr = np.zeros_like(indptr)
        np.cumsum(degrees, out=new_indptr[1:])
        self._install(new_indptr, np.concatenate(pieces))

    def reseed(self, seed: Optional[int]) -> None:
        """Reset the network-level RNG the per-node seeds are drawn from.

        A long-lived network serving many queries calls this before each
        fresh context build so that query *k* on topology *G* produces
        exactly the seeds — hence exactly the outputs — of
        ``Network(G, seed=seed)`` built from scratch.
        """
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    # contexts
    # ------------------------------------------------------------------
    def build_contexts(
        self,
        global_inputs: Optional[Dict[str, Any]] = None,
        per_node_inputs: Optional[Dict[int, Dict[str, Any]]] = None,
        fresh: bool = True,
    ) -> ContextRegistry:
        """Create (or refresh) the per-node execution contexts.

        Parameters
        ----------
        global_inputs:
            Values known to every node before the protocol starts (the
            algorithm's parameters epsilon and p, for instance).
        per_node_inputs:
            Values placed in each node's ``state`` before the protocol starts
            (used by composite protocols to pass a previous stage's per-node
            output to the next stage).
        fresh:
            When True, brand-new contexts are built (erasing all state);
            when False, the existing contexts are reused and only the inputs
            are updated — this is how a composite protocol lets later stages
            read the state accumulated by earlier stages.  Their halt flags
            and outboxes are left as they are: each engine resets the
            contexts it starts (see :attr:`repro.congest.node.Protocol.scope`).

        A fresh build draws every node's 63-bit RNG seed from the network
        RNG in ascending id order (or takes it from ``node_seeds``) but
        builds a context only for the nodes named in *per_node_inputs*; the
        rest are built on first touch (:class:`ContextRegistry`).  A context
        turns its seed into a ``random.Random`` on first ``ctx.rng``
        access, which replays exactly the stream an eager build would have
        produced.
        """
        # Bumped before any mutation, not after the last one: a call that
        # raises mid-way (an unknown id in per_node_inputs) may already
        # have applied some updates, and a persistent session must see
        # that as "state possibly diverged" too.
        self._ctx_epoch += 1
        contexts = self._contexts
        if fresh or contexts is None:
            draw = self._rng.getrandbits
            if self._node_seeds:
                seeds = []
                for node_id in self._ids:
                    node_seed = self._node_seeds.get(node_id)
                    seeds.append(draw(63) if node_seed is None else node_seed)
            else:
                seeds = [draw(63) for _ in self._ids]
            announced = self._announced_n if self._announced_n is not None else self.n
            contexts = self._contexts = ContextRegistry(
                self, seeds, global_inputs, announced
            )
        elif global_inputs:
            contexts.update_globals(global_inputs)
        if per_node_inputs:
            index_of = self._index_of
            for node_id, inputs in per_node_inputs.items():
                index = index_of.get(node_id)
                if index is None:
                    raise ProtocolError("unknown node id %r in per-node inputs" % node_id)
                contexts.at(index).state.update(inputs)
        return contexts

    def _install_contexts(self, contexts: ContextRegistry) -> None:
        """Make *contexts* (a registry restored from a copy) the current ones."""
        contexts._attach(self)
        self._contexts = contexts

    @property
    def contexts(self) -> ContextRegistry:
        """The contexts of the most recent :meth:`build_contexts` call."""
        if self._contexts is None:
            raise ProtocolError("contexts have not been built yet")
        return self._contexts

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        nodes: Optional[Iterable[int]] = None,
        seed: Optional[int] = None,
    ) -> "Network":
        """Build a network from an edge list (and optional isolated nodes)."""
        graph = nx.Graph()
        if nodes is not None:
            graph.add_nodes_from(nodes)
        graph.add_edges_from(edges)
        return cls(graph, seed=seed)

    def induced_subgraph(self, nodes: Iterable[int]) -> nx.Graph:
        """Return the subgraph induced by *nodes* (a new, mutable graph).

        Ids that are not nodes of the network are ignored.
        """
        keep = {node for node in nodes if node in self._index_of}
        subgraph = nx.Graph()
        subgraph.add_nodes_from(sorted(keep))
        subgraph.add_edges_from(
            (u, v)
            for u in sorted(keep)
            for v in self.neighbors(u)
            if u < v and v in keep
        )
        return subgraph
