"""Differential tests of the CSR-native ``Network`` builder.

The reference below is the construction ``Network`` used before its
storage became CSR-native: copy the input into a fresh ``nx.Graph``,
relabel, derive per-node sorted neighbour tuples, and fill an
``array('q')`` CSR with a Python loop.  The numpy builder and the delta
splice must agree with it exactly.  The pair-array front-end must in
turn build exactly the network its pairs' ``nx.Graph`` builds, through
either id compaction.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, NamedTuple, Tuple

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import network as network_module
from repro.congest.network import Network
from repro.congest.randomness import node_seed


class Reference(NamedTuple):
    ids: Tuple[int, ...]
    indptr: array
    indices: array
    adjacency: Dict[int, Tuple[int, ...]]
    id_of: Dict[Any, int]
    graph: nx.Graph


def reference_build(graph: nx.Graph) -> Reference:
    """nx copy -> sorted tuples -> Python-filled ``array('q')`` CSR."""
    working = nx.Graph()
    working.add_nodes_from(graph.nodes())
    working.add_edges_from((u, v) for u, v in graph.edges() if u != v)
    if all(isinstance(node, int) for node in working.nodes()):
        id_of = {node: node for node in working.nodes()}
        relabelled = working
    else:
        ordered = sorted(
            working.nodes(), key=lambda label: (type(label).__name__, repr(label))
        )
        id_of = {label: index for index, label in enumerate(ordered)}
        relabelled = nx.relabel_nodes(working, id_of, copy=True)
    ids = tuple(sorted(relabelled.nodes()))
    index_of = {node_id: index for index, node_id in enumerate(ids)}
    adjacency = {v: tuple(sorted(relabelled.neighbors(v))) for v in ids}
    indptr = array("q", [0])
    indices = array("q")
    for v in ids:
        indices.extend(index_of[w] for w in adjacency[v])
        indptr.append(len(indices))
    return Reference(ids, indptr, indices, adjacency, id_of, relabelled)


def topology(network: Network) -> Tuple[List[int], List[int], List[int]]:
    """``(node_ids, indptr, indices)``: equal exactly when the topologies are."""
    indptr, indices = network.csr_numpy()
    return network.node_ids, indptr.tolist(), indices.tolist()


def as_graph(network: Network) -> nx.Graph:
    """The ``nx.Graph`` of *network*'s neighbour tuples."""
    graph = nx.Graph()
    graph.add_nodes_from(network.node_ids)
    graph.add_edges_from((u, v) for u in network.node_ids for v in network.neighbors(u))
    return graph


#: Node label sets: dense ints, gappy/negative ints, ints past int64, and
#: mixed int/str labels (which relabel).
LABELS = st.one_of(
    st.integers(0, 12).map(lambda n: list(range(n))),
    st.lists(st.integers(-40, 40), unique=True, max_size=14),
    st.lists(
        st.one_of(st.integers(0, 5), st.integers(2**63, 2**64)),
        unique=True,
        max_size=10,
    ),
    st.lists(
        st.one_of(st.integers(0, 20), st.text(alphabet="abcxyz", min_size=1, max_size=3)),
        unique=True,
        max_size=14,
    ),
)


@st.composite
def graphs(draw) -> nx.Graph:
    labels = draw(st.permutations(draw(LABELS)))
    graph = nx.Graph()
    graph.add_nodes_from(labels)  # isolated nodes survive
    if labels:
        # Endpoints drawn independently, so self-loops and both
        # orientations of one edge occur.
        edges = draw(
            st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels)), max_size=40)
        )
        graph.add_edges_from(edges)
    return graph


def assert_matches_reference(network: Network, reference: Reference) -> None:
    indptr, indices = network.csr_numpy()
    assert tuple(network.node_ids) == reference.ids
    assert indptr.dtype == indices.dtype == np.int64
    assert indptr.tolist() == reference.indptr.tolist()
    assert indices.tolist() == reference.indices.tolist()
    assert network.n == len(reference.ids)
    for node_id in reference.ids:
        assert network.neighbors(node_id) == reference.adjacency[node_id]
    assert network.number_of_edges() == reference.graph.number_of_edges()
    for u in reference.ids:
        for v in reference.ids:
            assert network.has_edge(u, v) == reference.graph.has_edge(u, v)


class TestBuilderMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(graphs())
    def test_random_graphs(self, graph):
        network = Network(graph)
        reference = reference_build(graph)
        assert_matches_reference(network, reference)
        assert network.id_of == reference.id_of
        assert network.label_of == {v: k for k, v in reference.id_of.items()}

    def test_empty_graph(self):
        network = Network(nx.Graph())
        assert_matches_reference(network, reference_build(nx.Graph()))
        assert (network.n, network.number_of_edges()) == (0, 0)

    def test_from_edges_matches_constructor(self):
        edges = [(3, 1), (1, 3), (2, 2), (7, 3), (9, 1), (9, 4, {"weight": 2})]
        graph = nx.Graph()
        graph.add_nodes_from([4, 3])
        graph.add_edges_from(edges)
        network = Network.from_edges(edges, nodes=[4, 3])
        assert_matches_reference(network, reference_build(graph))

    def test_has_edge_on_non_members(self):
        network = Network(nx.path_graph(4))
        assert not network.has_edge(0, 99)
        assert not network.has_edge(99, 0)
        assert not network.has_edge("a", 1)

    def test_neighbors_follow_deltas(self):
        network = Network(nx.path_graph(4))
        before = [network.neighbors(v) for v in range(4)]
        assert before == [(1,), (0, 2), (1, 3), (2,)]
        network.apply_delta(additions=[(0, 3)], removals=[(1, 2)])
        assert [network.neighbors(v) for v in range(4)] == [(1, 3), (0,), (3,), (0, 2)]
        assert sorted(as_graph(network).edges()) == [(0, 1), (0, 3), (2, 3)]

    def test_induced(self):
        network = Network(nx.cycle_graph(6))
        sub = network.induced([0, 1, 2, 4, 99])
        assert sub.node_ids == [0, 1, 2, 4]
        assert [sub.neighbors(v) for v in sub.node_ids] == [(1,), (0, 2), (1,), ()]
        sub.apply_delta(additions=[(0, 4)])  # a copy, not a view
        assert not network.has_edge(0, 4)
        network.apply_delta(removals=[(0, 1)])
        assert sub.has_edge(0, 1)


#: Run seeds: small, negative, and past 2^64.
RUN_SEEDS = st.one_of(
    st.integers(-50, 50), st.integers(-(2**80), 2**80), st.integers(2**64, 2**70)
)


@st.composite
def induced_cases(draw):
    """A network, a node selection, a run seed and an announced size.

    The selection is a random subset of the ids (possibly none) plus stray
    ids, some of them not nodes of the network, in any order.
    """
    network = Network(draw(graphs()))
    ids = network.node_ids
    strays = draw(st.lists(st.integers(-3, 30), max_size=4))
    nodes = draw(st.permutations([v for v in ids if draw(st.booleans())] + strays))
    seed = draw(RUN_SEEDS)
    return network, nodes, seed, draw(st.sampled_from([None, network.n + 7]))


class TestInducedSubNetwork:
    @settings(max_examples=150, deadline=None)
    @given(induced_cases())
    def test_induced_equals_the_network_of_the_induced_graph(self, case):
        network, nodes, seed, announced_n = case
        keep = [v for v in nodes if v in network.node_index_of]
        expected = Network(
            nx.Graph(as_graph(network).subgraph(keep)), seed=seed, announced_n=announced_n
        )
        sub = network.induced(nodes, seed=seed, announced_n=announced_n)
        assert topology(sub) == topology(expected)
        got, want = sub.build_contexts(), expected.build_contexts()
        for v in expected.node_ids:
            assert got[v].n == want[v].n and got[v].neighbors == want[v].neighbors
            assert got[v].seed == want[v].seed
            assert got[v].rng.getstate() == want[v].rng.getstate()

    # A 6-cycle plus node 7, isolated in the network itself.
    @pytest.mark.parametrize("nodes, ids, edges", [
        ([], [], []), ([6, 99, -1], [], []), ([0, 3, 7], [0, 3, 7], []),
        ([4, 4, 5], [4, 5], [(4, 5)]),
        (range(8), [0, 1, 2, 3, 4, 5, 7], sorted(nx.cycle_graph(6).edges())),
    ], ids=["empty", "strays-only", "isolated", "repeated", "all"])
    def test_selection_edge_cases(self, nodes, ids, edges):
        graph = nx.cycle_graph(6)
        graph.add_node(7)
        sub = Network(graph, seed=3).induced(nodes)
        assert sub.node_ids == ids
        assert sub.n == len(ids)
        assert sorted(as_graph(sub).edges()) == edges
        assert topology(sub) == topology(Network(nx.Graph(graph.subgraph(ids))))


#: Pair-array endpoints: small ints (so rows repeat, in both orientations,
#: and self-loops occur), gappy and negative int64 ids, and ids past int64
#: (which need an object array).
ENDPOINTS = st.sampled_from(
    [
        st.integers(0, 3),
        st.integers(0, 8),
        st.integers(-(2**40), 2**40),
        st.one_of(st.integers(0, 4), st.integers(2**63, 2**64 + 8)),
    ]
)


@st.composite
def pair_arrays(draw) -> np.ndarray:
    endpoints = draw(ENDPOINTS)
    rows = draw(st.lists(st.tuples(endpoints, endpoints), max_size=30))
    if rows and draw(st.booleans()):
        rows += draw(st.lists(st.sampled_from(rows + [row[::-1] for row in rows])))
    try:
        return np.array(rows, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(-1, 2)


def context_seeds(network: Network) -> Dict[int, int]:
    return {v: ctx.seed for v, ctx in network.build_contexts().items()}


class TestPairArrayFrontEnd:
    """``Network(pairs)`` builds exactly the network of the pairs' ``nx.Graph``."""

    @settings(max_examples=150, deadline=None)
    @given(pair_arrays(), st.integers(0, 2**32))
    def test_random_pair_arrays(self, pairs, seed):
        graph = nx.Graph()
        graph.add_edges_from(pairs.tolist())
        network = Network(pairs, seed=seed)
        expected = Network(graph, seed=seed)
        assert topology(network) == topology(expected)
        assert network.id_of == expected.id_of
        assert network.label_of == expected.label_of
        for node_id in expected.node_ids:
            assert network.neighbors(node_id) == expected.neighbors(node_id)
        assert context_seeds(network) == context_seeds(expected)
        assert_matches_reference(network, reference_build(graph))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64, object])
    def test_empty_and_other_integer_dtypes(self, dtype):
        empty = Network(np.zeros((0, 2), dtype=dtype))
        assert (empty.n, empty.number_of_edges()) == (0, 0)
        pairs = np.array([[4, 1], [1, 2], [2, 4], [4, 1]], dtype=dtype)
        expected = Network(nx.Graph([(4, 1), (1, 2), (2, 4)]))
        assert topology(Network(pairs)) == topology(expected)

    @pytest.mark.parametrize(
        "pairs, via_unique",
        [
            pytest.param(
                np.array([[0, 1], [1, 2], [2, 0], [3, 3], [1, 0], [4, 2]]), False, id="dense"
            ),
            pytest.param(
                np.array([[0, 1], [1, 2], [3, 2], [2, 1]], dtype=np.int32), False, id="dense-int32"
            ),
            pytest.param(
                np.array([[0, 5], [5, 9], [9, 2], [2, 5], [7, 7]]), False, id="gappy"
            ),
            pytest.param(np.array([[0, 1], [1, 10**9], [3, 1]]), True, id="far-id"),
            pytest.param(np.array([[-3, 1], [1, 4], [4, -3]]), True, id="negative"),
            pytest.param(
                np.array([[2**63 + 1, 3], [3, 2**64 - 1], [0, 3]], dtype=np.uint64),
                True,
                id="uint64-past-int64",
            ),
            pytest.param(
                np.array([[2**70, 1], [1, 5], [5, 2**70]], dtype=object), True, id="object"
            ),
        ],
    )
    def test_both_id_compaction_branches(self, monkeypatch, pairs, via_unique):
        graph = nx.Graph()
        graph.add_edges_from(pairs.tolist())
        expected = Network(graph, seed=3)
        unique_calls = []
        real_unique = np.unique

        def counting_unique(*args, **kwargs):
            unique_calls.append(args)
            return real_unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting_unique)
        network = Network(pairs, seed=3)
        monkeypatch.undo()
        # Non-negative ids in a narrow range take the presence table.
        assert bool(unique_calls) == via_unique
        assert topology(network) == topology(expected)
        assert network.id_of == expected.id_of
        assert network.label_of == expected.label_of
        for node_id in expected.node_ids:
            assert network.neighbors(node_id) == expected.neighbors(node_id)
        assert context_seeds(network) == context_seeds(expected)
        assert_matches_reference(network, reference_build(graph))

    @pytest.mark.parametrize(
        "pairs",
        [
            np.array([[0.0, 1.0], [1.0, 2.0]]),
            np.array([[0, 1, 2], [1, 2, 3]]),
            np.array([0, 1, 1, 2]),
            np.array([["a", "b"], ["b", "c"]], dtype=object),
            np.array([[0, 1], [1, 2.5]], dtype=object),
            np.array([[True, False]]),
        ],
        ids=["float", "three-columns", "one-dimensional", "str-objects", "float-object", "bool"],
    )
    def test_rejects_non_integer_or_misshapen_arrays(self, pairs):
        with pytest.raises(ValueError):
            Network(pairs)


@st.composite
def delta_scripts(draw):
    ids = draw(st.one_of(
        st.integers(2, 10).map(lambda n: list(range(n))),
        st.lists(st.integers(-30, 30), min_size=2, max_size=10, unique=True),
    ))
    graph = nx.Graph()
    graph.add_nodes_from(ids)
    graph.add_edges_from(
        (u, v)
        for u, v in draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=20))
        if u != v
    )
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda e: e[0] != e[1])
    steps = draw(
        st.lists(st.tuples(st.lists(pair, max_size=4), st.lists(pair, max_size=4)), max_size=6)
    )
    return graph, steps


def _shuffled_graph(labels, seed):
    import random

    labels = list(labels)
    random.Random(seed).shuffle(labels)
    graph = nx.Graph()
    graph.add_nodes_from(labels)
    graph.add_edges_from(zip(labels, labels[1:]))
    return graph


class TestNodeIndexOrder:
    """``node_index_of`` iterates in ascending id order on every front-end.

    :meth:`ContextRegistry.materialize` zips its values with the dense
    context list, so an index map in any other order would give contexts
    the wrong neighbours.
    """

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: Network(np.array([[3, 0], [1, 2], [2, 0], [4, 3]])), id="pairs-dense"),
            pytest.param(lambda: Network(np.array([[30, 4], [17, 2], [2, 4], [9, 30]])), id="pairs-gappy"),
            pytest.param(lambda: Network(_shuffled_graph(range(12), 5)), id="nx-shuffled"),
            pytest.param(
                lambda: Network(_shuffled_graph([40, 7, 19, 3, 88, 12], 2)), id="nx-shuffled-gappy"
            ),
            pytest.param(
                lambda: Network(_shuffled_graph(["d", "a", "c", "b", "e"], 1)), id="nx-relabelled"
            ),
        ],
    )
    def test_index_map_iterates_in_ascending_id_order(self, make):
        network = make()
        assert list(network.node_index_of) == network.node_ids
        assert list(network.node_index_of.values()) == list(range(network.n))
        contexts = network.build_contexts()
        assert [ctx.node_id for ctx in contexts.materialize()] == network.node_ids
        for index, ctx in contexts.live.items():
            assert ctx.node_id == network.node_ids[index]
            assert ctx.neighbors == network.neighbors(ctx.node_id)


class TestDeltasMatchAFreshBuild:
    @settings(max_examples=120, deadline=None)
    @given(delta_scripts())
    def test_random_delta_sequences(self, script):
        graph, steps = script
        network = Network(graph.copy())
        contexts = network.build_contexts()
        mirror = graph.copy()
        for additions, removals in steps:
            added = {tuple(sorted(edge)) for edge in additions}
            removals = [edge for edge in removals if tuple(sorted(edge)) not in added]
            record = network.apply_delta(additions=additions, removals=removals)
            mirror.add_edges_from(additions)
            mirror.remove_edges_from(removals)
            fresh = Network(mirror)
            assert topology(network) == topology(fresh)
            for node_id in record.touched:
                assert contexts[node_id].neighbors == fresh.neighbors(node_id)
        assert_matches_reference(network, reference_build(mirror))

    def test_count_preserving_swap_changes_the_arrays(self):
        # An edge swapped for another keeps the node and edge counts; the
        # arrays must still be those of the new topology.
        network = Network(nx.cycle_graph(10), seed=0)
        before = topology(network)
        network.apply_delta(additions=[(0, 5)], removals=[(0, 1)])
        assert network.number_of_edges() == 10
        expected = nx.cycle_graph(10)
        expected.add_edge(0, 5)
        expected.remove_edge(0, 1)
        assert topology(network) == topology(Network(expected)) != before


class TestDeltaOverlay:
    """Rows a delta changed are read from the overlay until a whole-graph read."""

    @settings(max_examples=120, deadline=None)
    @given(delta_scripts(), st.data())
    def test_every_row_reader_sees_the_overlay(self, script, data):
        graph, steps = script
        network = Network(graph.copy())
        mirror = graph.copy()
        ids = network.node_ids
        for additions, removals in steps:
            added = {tuple(sorted(edge)) for edge in additions}
            removals = [edge for edge in removals if tuple(sorted(edge)) not in added]
            arrays = network._indptr, network._indices
            record = network.apply_delta(additions=additions, removals=removals)
            mirror.add_edges_from(additions)
            mirror.remove_edges_from(removals)
            fresh = Network(mirror)
            # Contexts first: after the first delta the cache is partial,
            # so materialize slices every row from the arrays and must
            # keep the overlay.
            contexts = network.build_contexts().materialize()
            assert [ctx.neighbors for ctx in contexts] == list(map(fresh.neighbors, ids))
            chosen = data.draw(st.lists(st.sampled_from(ids), max_size=len(ids)))
            region = sorted(set(chosen) | record.touched)
            sub = network.induced(region, seed=5)
            assert sub.node_ids == region
            assert topology(sub) == topology(Network(nx.Graph(mirror.subgraph(region))))
            for u in ids:
                assert network.neighbors(u) == fresh.neighbors(u)
                for v in ids:
                    assert network.has_edge(u, v) == fresh.has_edge(u, v)
            assert network.number_of_edges() == fresh.number_of_edges()
            # None of the reads above compacted the overlay.
            assert all(a is b for a, b in zip((network._indptr, network._indices), arrays))
            if data.draw(st.booleans()):  # stale rows may pile up over deltas
                assert topology(network) == topology(fresh)
        assert topology(network) == topology(Network(mirror))

    def test_delta_does_no_whole_graph_work(self, monkeypatch):
        numpy_reads = []
        installs = []

        class WatchedNumpy:
            def __getattr__(self, name):
                numpy_reads.append(name)
                return getattr(np, name)

        real_install = Network._install

        def counting_install(self, indptr, indices):
            installs.append(len(indices))
            real_install(self, indptr, indices)

        network = Network(nx.path_graph(50))
        patched = network.build_contexts()[3]
        arrays = network.csr_numpy()
        monkeypatch.setattr(network_module, "np", WatchedNumpy())
        monkeypatch.setattr(Network, "_install", counting_install)
        network.apply_delta(additions=[(0, 49)], removals=[(10, 11)])
        network.apply_delta(additions=[(10, 11), (3, 30)])
        network.apply_delta(removals=[(0, 49)])
        assert numpy_reads == [] and installs == []
        assert patched.neighbors == (2, 4, 30)
        assert network.number_of_edges() == 50
        monkeypatch.setattr(network_module, "np", np)
        indptr, indices = network.csr_numpy()
        assert installs == [100] and indices is not arrays[1]
        assert all(a is b for a, b in zip(network.csr_numpy(), (indptr, indices)))
        assert installs == [100]
        expected = nx.path_graph(50)
        expected.add_edge(3, 30)
        assert topology(network) == topology(Network(expected))


class TestLazyNodeRngs:
    def test_rng_is_built_on_first_access_and_replays_the_seeded_stream(self):
        import random

        network = Network(nx.path_graph(5), seed=11)
        contexts = network.build_contexts()
        assert all(ctx._rng is None for ctx in contexts.values())
        for node_id in network.node_ids:
            expected = random.Random(node_seed(11, node_id))
            ctx = contexts[node_id]
            assert ctx.seed == node_seed(11, node_id)
            assert ctx.rng.random() == expected.random()
            assert ctx._rng is not None

    @pytest.mark.parametrize("seed", [7, -7, 2**70])
    def test_induced_nodes_keep_their_seeds(self, seed):
        network = Network(nx.path_graph(6), seed=seed)
        full = network.build_contexts()
        sub = network.induced([1, 4, 5], seed=seed).build_contexts()
        assert [sub[v].seed for v in (1, 4, 5)] == [full[v].seed for v in (1, 4, 5)]
        assert network.induced([1], seed=-seed).build_contexts()[1].seed != full[1].seed
