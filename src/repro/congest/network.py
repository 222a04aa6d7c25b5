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
row once its ids are compacted to dense indices (a linear presence table
for non-negative ids in a narrow range, ``np.unique`` otherwise).  No
copy of the input is kept, and the arrays are the network's one
topology: a node's sorted neighbour tuple is sliced from them on first
access and cached.  :meth:`Network.apply_delta` costs the degree of the
touched nodes: it writes their new tuples into the cache and marks those
rows stale, so the cache is an overlay over the arrays.  Every reader of
single rows (:meth:`Network.neighbors`, :meth:`Network.induced`, the
contexts) reads the overlay; the one whole-graph read,
:meth:`Network.csr_numpy`, first compacts every stale row into the arrays
in one splice.  Whether the topology changed is one counter,
:attr:`Network.delta_epoch`.

Per-node contexts live in a :class:`ContextRegistry`, which builds a
:class:`NodeContext` on first touch.  After sampling, a ``DistNearClique``
run involves only S ∪ Γ(S), so the other nodes never get one: their halt
flags sit in one column and their round counters in one number.  A
node's seed is a function of the run seed and its id
(:mod:`repro.congest.randomness`), and a context builds its
``random.Random`` only when ``ctx.rng`` is first read.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import networkx as nx
import numpy as np

from repro.congest.errors import DeltaError, ProtocolError
from repro.congest.node import NodeContext, Protocol, reset_in_scope
from repro.congest.randomness import node_seed, node_seed_column


@dataclass(frozen=True)
class AppliedDelta:
    """The record of one successful :meth:`Network.apply_delta` call.

    Attributes
    ----------
    epoch:
        The network's :attr:`Network.delta_epoch` after this application,
        a monotone counter of effective deltas.
    added / removed:
        The *effective* edge sets, canonically oriented (``u < v``): no-op
        entries (an addition already present, a removal already absent)
        are dropped during normalisation.
    touched:
        Endpoints of the effective edges — the dirty-node seed set for
        incremental recomputation.
    """

    epoch: int
    added: Tuple[Tuple[int, int], ...]
    removed: Tuple[Tuple[int, int], ...]
    touched: frozenset = field(repr=False)

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


#: A presence table may be this many times longer than the endpoint count.
_PRESENCE_SPAN = 4


def _compact_ids(pairs: np.ndarray) -> Tuple[List[int], np.ndarray]:
    """The distinct entries of *pairs* ascending, and *pairs* as their indices.

    Non-negative integer ids below a small multiple of the endpoint count
    are compacted through a boolean presence table over ``0..max``: the
    ids are its set positions, and an id's index is the count of set
    positions before it, or the id itself when the ids are ``0..n-1``.
    That is linear in the array.  Negative ids, very wide ranges and
    object ids go through ``np.unique``, whose sort is the cost avoided.
    """
    if pairs.dtype.kind in "iu" and pairs.size:
        low, high = int(pairs.min()), int(pairs.max())
        if low >= 0 and high < _PRESENCE_SPAN * pairs.size:
            present = np.zeros(high + 1, dtype=bool)
            present[pairs.ravel()] = True
            if present.all():
                return list(range(high + 1)), pairs.astype(np.int64, copy=False)
            rank = np.cumsum(present, dtype=np.int64)
            rank -= 1
            return np.flatnonzero(present).tolist(), rank[pairs]
    ids, inverse = np.unique(pairs, return_inverse=True)
    return ids.tolist(), inverse.reshape(pairs.shape).astype(np.int64, copy=False)


class _NeighborRows:
    """Neighbour tuples sliced from the CSR arrays on first access, by node id.

    A delta writes the new tuples of the nodes it touches into the cache
    before the arrays catch up (:meth:`Network.apply_delta`), so a cached
    tuple is always current, and the arrays are current for every row
    that is not cached.  Shared by a network and its context registries,
    so a registry can build contexts without holding the network (which
    would make a reference cycle that only the cyclic collector frees).
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
        """Every tuple in dense-index order, sliced in one bulk pass.

        The tuples already cached win over the arrays: a row a delta
        changed is cached and not yet compacted into them.
        """
        if len(self.cache) < len(self.ids):
            flat = self.indices.tolist()
            if not self.dense_ids:
                flat = list(map(self.ids.__getitem__, flat))
            bounds = self.indptr.tolist()
            cache = {
                node_id: tuple(flat[bounds[index] : bounds[index + 1]])
                for index, node_id in enumerate(self.ids)
            }
            cache.update(self.cache)
            self.cache = cache
        return map(self.cache.__getitem__, self.ids)


class ContextRegistry(Mapping):
    """The per-node contexts of one :meth:`Network.build_contexts` call.

    A read-only mapping from every node id, in ascending order, to its
    :class:`NodeContext`.  A context is built on first touch: a per-node
    input, a read through the mapping, a started node of an unscoped phase,
    or a kernel write.  Until then the node has an empty state and a
    ``None`` output, and two registers stand in for its slots: the
    :attr:`halted` column and the :attr:`rounds` count.  A context built
    late computes its seed from :attr:`run_seed` and its id and takes the
    current register values, so it is exactly the context an eager build
    would show at that point.

    Engines that walk every node each round (reference, sharded) call
    :meth:`materialize` once per phase.  The vectorized engine works on
    :attr:`live` and the registers only, so its cost per phase is
    O(live contexts) plus a few O(n) numpy writes.
    """

    def __init__(
        self,
        network: "Network",
        run_seed: int,
        global_inputs: Optional[Dict[str, Any]],
        announced_n: int,
    ) -> None:
        self._rows = network._rows
        self.ids: Tuple[int, ...] = network._ids
        self._index_of = network._index_of
        self._blank_outputs: Optional[Dict[int, Any]] = None
        #: The run seed every node's seed is derived from.
        self.run_seed = run_seed
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
        self.halted = np.zeros(len(self.ids), dtype=bool)
        #: The round counter of every node without a context: the last
        #: phase's round count (every engine ends every node there).
        self.rounds = 0

    def blank_outputs(self) -> Dict[int, Any]:
        """A fresh ``{id: None}`` dict over every node, ids ascending.

        Copied from a template built once per registry: a copy is an order
        of magnitude cheaper than ``dict.fromkeys`` over the ids, and the
        engines harvest one such dict per phase.
        """
        if self._blank_outputs is None:
            self._blank_outputs = dict.fromkeys(self.ids)
        return self._blank_outputs.copy()

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
            node_id, (), self._announced_n, self.globals, node_seed(self.run_seed, node_id)
        )
        # Share the network's tuple, already sorted, instead of the sorted
        # copy the constructor would make.
        ctx.neighbors = self._rows.row(node_id)
        ctx._halted = bool(self.halted[index])
        ctx._round = self.rounds
        return ctx

    def seeds(self) -> np.ndarray:
        """Every node's seed by dense index, as one int64 column."""
        ids = np.arange(len(self.ids)) if self._rows.dense_ids else self.ids
        return node_seed_column(self.run_seed, ids)

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
                    zip(self.ids, self.seeds().tolist(), self._rows.all())
                ):
                    ctx = live.get(index)
                    if ctx is None:
                        ctx = NodeContext(node_id, (), n, global_inputs, seed)
                        ctx.neighbors = neighbors
                        ctx._halted = halted[index]
                        ctx._round = rounds
                    dense.append(ctx)
                # Keyed by the network's own index objects: a dense registry
                # costs no more memory than the eager build did.  The index
                # map iterates in ascending id order (Network.node_index_of),
                # so its values line up with the dense list.
                live.clear()
                live.update(zip(self._index_of.values(), dense))
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
        if protocol.scope is None:
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
        When the graph's labels are not all integers, the nodes are
        relabelled ``0..n-1`` in (type name, repr) order — a total order
        that is well-defined even when integer and string labels are mixed
        in one graph.  The mapping is available as :attr:`label_of` /
        :attr:`id_of` and depends only on the label set, never on insertion
        order.
    seed:
        The run seed, any int.  Node ``v``'s private seed is
        ``node_seed(seed, v)`` (:mod:`repro.congest.randomness`), so a
        sub-network with the same run seed gives its nodes the seeds they
        have here.  ``None`` draws a fresh run seed once.
    announced_n:
        The system size the per-node contexts announce as ``ctx.n``.
        Defaults to the actual node count.  The CONGEST model assumes every
        node knows the *system* size; a sub-network standing in for the
        dirty region of a larger evolving graph must announce the full
        system's ``n`` so identifier widths and message-bit accounting
        match the full run exactly.

    The topology is stored as int64 CSR arrays, plus the cached tuples of
    the rows deltas changed since the last whole-graph read (see the
    module docstring).  A node's neighbour tuple is sliced from the arrays
    on first access (:meth:`neighbors`, :meth:`degree`, :meth:`has_edge`,
    a built context's ``neighbors``) and cached.  The topology changes
    only through :meth:`apply_delta`, which advances :attr:`delta_epoch`.

    Contexts are built on first touch (:class:`ContextRegistry`): a fresh
    :meth:`build_contexts` builds a context only for the nodes with
    per-node inputs.  The reference and sharded engines build every
    context in one bulk pass per phase; the vectorized engine builds only
    those of the nodes a phase starts or a kernel writes.
    """

    def __init__(
        self,
        graph: Union[nx.Graph, np.ndarray],
        seed: Optional[int] = None,
        announced_n: Optional[int] = None,
    ) -> None:
        if isinstance(graph, np.ndarray):
            src, dst = self._read_pairs(graph)
        else:
            src, dst = self._read_adjacency(graph)
        self._finish_init(src, dst, seed, announced_n)

    def _finish_init(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        seed: Optional[int],
        announced_n: Optional[int],
    ) -> None:
        """Build the CSR from the dense pairs of the assigned ids; reset the rest."""
        self._rows = _NeighborRows(self._ids, self._index_of, self._dense_ids)
        #: Ids whose cached row a delta changed and the arrays do not hold yet.
        self._stale: set = set()
        self._install(*_build_csr(len(self._ids), src, dst))

        self.reseed(seed)
        self._announced_n = announced_n
        self._contexts: Optional[ContextRegistry] = None
        self._ctx_epoch = 0
        self._delta_epoch = 0

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
        ids, inverse = _compact_ids(pairs)
        self._assign_ids(ids)
        src = np.concatenate((inverse[:, 0], inverse[:, 1]))
        dst = np.concatenate((inverse[:, 1], inverse[:, 0]))
        return src, dst

    def _read_adjacency(self, graph: nx.Graph) -> Tuple[np.ndarray, np.ndarray]:
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
            self._assign_ids(sorted(labels))
        else:
            ordered = sorted(labels, key=_relabel_sort_key)
            self._assign_ids(
                list(range(len(ordered))),
                {label: index for index, label in enumerate(ordered)},
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

    def _assign_ids(self, ids: List[int], id_of: Optional[Dict[Any, int]] = None) -> None:
        """Install the ascending node *ids* and the label → id mapping.

        ``id_of=None`` means every label is its own id.  The identity map
        is then built here, over *ids* in ascending order, so it serves as
        both :attr:`id_of` and :attr:`label_of`, and when the ids are
        exactly ``0..n-1`` it is also the id → index map: one dict instead
        of three, still iterating in ascending id order.
        """
        self._ids: Tuple[int, ...] = tuple(ids)
        # n distinct ascending ints are 0..n-1 exactly when they span it.
        self._dense_ids = not ids or (ids[0] == 0 and ids[-1] == len(ids) - 1)
        if id_of is None:
            self.id_of: Dict[Any, int] = dict(zip(self._ids, self._ids))
            self.label_of: Dict[int, Any] = self.id_of
        else:
            self.id_of = id_of
            self.label_of = {v: k for k, v in id_of.items()}
        if id_of is None and self._dense_ids:
            self._index_of: Dict[int, int] = self.id_of
        else:
            self._index_of = {node_id: index for index, node_id in enumerate(self._ids)}

    def _install(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        # Kernels read these arrays in place; compaction installs new
        # ones instead of writing into them.
        indptr.flags.writeable = indices.flags.writeable = False
        self._indptr = self._rows.indptr = indptr
        self._indices = self._rows.indices = indices
        self._counts = (len(self._ids), len(indices) // 2)

    def _compact(self) -> None:
        """Splice every stale row's cached tuple into the CSR arrays, in one pass.

        Only whole-graph reads call this; a row reader takes the tuple.
        """
        if not self._stale:
            return
        index_of, cache = self._index_of, self._rows.cache
        indptr, indices = self._indptr, self._indices
        degrees = np.diff(indptr)
        pieces: List[np.ndarray] = []
        cursor = 0
        for index in sorted(map(index_of.__getitem__, self._stale)):
            neighbours = cache[self._ids[index]]
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
        self._stale = set()

    # ------------------------------------------------------------------
    # topology accessors
    # ------------------------------------------------------------------
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
        """Mapping from node id to its dense ``0..n-1`` CSR index.

        Iterates in ascending id order, so its values run ``0..n-1`` in
        order: :meth:`ContextRegistry.materialize` relies on that.  When
        the ids are ``0..n-1`` it is the same dict as :attr:`id_of` and
        :attr:`label_of`; callers must not mutate it.
        """
        return self._index_of

    def csr_numpy(self) -> Tuple[np.ndarray, np.ndarray]:
        """The int64 CSR storage itself: ``(indptr, indices)``.

        The neighbours of dense index ``i`` are the dense indices
        ``indices[indptr[i]:indptr[i + 1]]``, ascending.  No copies are
        made; the arrays are flagged read-only.  Node ids have no int64
        column (they may not fit one): the id at dense index ``i`` is
        ``node_ids[i]``.  The rows deltas changed since the last
        whole-graph read are spliced in first.
        """
        self._compact()
        return self._indptr, self._indices

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
        return self._counts[1]

    # ------------------------------------------------------------------
    # batched topology updates (the service layer's delta API)
    # ------------------------------------------------------------------
    @property
    def delta_epoch(self) -> int:
        """Counter bumped by every effective :meth:`apply_delta` call.

        The one answer to "has the topology changed?": a process session
        refuses to run once it differs from its value at open, and the
        service daemon reports it as its ``epoch``.
        """
        return self._delta_epoch

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
        as ambiguous.  An effective change costs the degree of the touched
        nodes, not the size of the graph: their new sorted tuples replace
        their cached ones and their rows are marked stale, and the edge
        count is updated.  The CSR arrays are left as they are until the
        next whole-graph read (:meth:`csr_numpy`), which splices every
        stale row in at once.  Built contexts of touched nodes have their
        ``neighbors`` view refreshed *in place* (state, output and RNG
        streams are preserved — an evolving-graph service keeps its
        nodes), and :attr:`delta_epoch` advances.

        ``context_epoch`` is deliberately *not* bumped: contexts were
        patched, not rebuilt.  A process session open on this network
        sees the moved :attr:`delta_epoch` and refuses to run.
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
                epoch=self._delta_epoch, added=(), removed=(), touched=frozenset()
            )
        touched = frozenset(v for edge in added + removed for v in edge)
        rows = {node_id: set(self.neighbors(node_id)) for node_id in touched}
        for u, v in added:
            rows[u].add(v)
            rows[v].add(u)
        for u, v in removed:
            rows[u].remove(v)
            rows[v].remove(u)
        cache = self._rows.cache
        for node_id, neighbours in rows.items():
            cache[node_id] = tuple(sorted(neighbours))
        self._stale.update(touched)
        nodes, edges = self._counts
        self._counts = (nodes, edges + len(added) - len(removed))
        for node_id in touched if self._contexts is not None else ():
            ctx = self._contexts.get_live(node_id)
            if ctx is not None:
                ctx.neighbors = cache[node_id]
                # is_neighbor caches a frozenset in state; drop it so the
                # patched view is authoritative.
                ctx.state.pop("__neighbor_set", None)
        self._delta_epoch += 1
        return AppliedDelta(
            epoch=self._delta_epoch,
            added=tuple(added),
            removed=tuple(removed),
            touched=touched,
        )

    def reseed(self, seed: Optional[int]) -> None:
        """Set the run seed the next :meth:`build_contexts` derives node seeds from.

        A long-lived network serving many queries calls this before each
        fresh context build so that query *k* on topology *G* produces
        exactly the seeds, hence exactly the outputs, of
        ``Network(G, seed=seed)`` built from scratch.  ``None`` draws a
        fresh run seed.
        """
        self._run_seed = random.SystemRandom().getrandbits(64) if seed is None else seed

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

        A fresh build takes the current run seed and builds a context only
        for the nodes named in *per_node_inputs*; the rest are built on
        first touch (:class:`ContextRegistry`), each with the seed
        ``node_seed(run seed, id)``.  A context turns its seed into a
        ``random.Random`` on first ``ctx.rng`` access.
        """
        # Bumped before any mutation, not after the last one: a call that
        # raises mid-way (an unknown id in per_node_inputs) may already
        # have applied some updates, and a process session must see
        # that as "state possibly diverged" too.
        self._ctx_epoch += 1
        contexts = self._contexts
        if fresh or contexts is None:
            announced = self._announced_n if self._announced_n is not None else self.n
            contexts = self._contexts = ContextRegistry(
                self, self._run_seed, global_inputs, announced
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

    def induced(
        self,
        nodes: Iterable[int],
        seed: Optional[int] = None,
        announced_n: Optional[int] = None,
    ) -> "Network":
        """The sub-network induced by *nodes*, sliced from this network's CSR.

        Ids that are not nodes of the network are ignored; a kept node
        whose neighbours are all outside *nodes* stays, isolated.  The
        result is the ``Network`` of the induced ``nx.Graph`` (integer
        ids, no relabelling) with the given run *seed* and *announced_n*,
        built without one: the kept rows are gathered, neighbours outside
        the set masked out and the survivors renumbered to local indices.
        A kept row a delta changed is read from the cached tuples, so the
        cost stays that of the kept rows: nothing is compacted, and no
        array of the whole network's size is allocated.
        """
        index_of = self._index_of
        rows = np.array(
            sorted({index_of[v] for v in nodes if v in index_of}), dtype=np.int64
        )
        sub = Network.__new__(Network)
        kept = [self._ids[i] for i in rows.tolist()]
        sub._assign_ids(kept)
        starts = self._indptr[rows]
        degrees = self._indptr[rows + 1] - starts
        stale = [pos for pos, v in enumerate(kept) if v in self._stale]
        # Stale rows take no entries from the arrays; their cached tuples
        # are appended after the gather.
        degrees[stale] = 0
        # Positions of the kept rows' entries in ``indices``: each row's
        # start, plus 0..degree-1.
        firsts = np.cumsum(degrees) - degrees
        at = np.arange(int(degrees.sum()), dtype=np.int64)
        at += np.repeat(starts - firsts, degrees)
        dst = self._indices[at]
        src = np.repeat(np.arange(len(rows), dtype=np.int64), degrees)
        if stale:
            overlay = [self._rows.cache[kept[pos]] for pos in stale]
            lengths = list(map(len, overlay))
            ends = np.fromiter(
                map(index_of.__getitem__, chain.from_iterable(overlay)),
                dtype=np.int64,
                count=sum(lengths),
            )
            dst = np.concatenate((dst, ends))
            src = np.concatenate((src, np.repeat(np.array(stale, dtype=np.int64), lengths)))
        # ``rows`` is sorted, so a neighbour's local index is its rank in
        # it; a neighbour whose rank points at another row is outside.
        local = np.searchsorted(rows, dst)
        inside = rows[np.minimum(local, len(rows) - 1)] == dst
        sub._finish_init(src[inside], local[inside], seed, announced_n)
        return sub
