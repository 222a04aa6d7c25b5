"""Graph generators used by the experiments.

Every generator returns plain ``networkx.Graph`` objects with integer node
labels in ``0..n−1`` (the identifiers the CONGEST simulator uses directly)
plus, where applicable, the planted structure so that experiments can
measure recall against the ground truth.

The generators correspond to the workloads of the paper:

* :func:`planted_near_clique` / :func:`planted_clique` — the promise of
  Theorem 2.1 / 5.7 and Corollaries 2.2 / 2.3: a dense set of δn vertices
  hidden in a sparse background.
* :func:`shingles_counterexample` — the Claim 1 / **Figure 1** family
  (C₁, C₂, I₁, I₂ with complete bipartite connections) on which the shingles
  heuristic provably fails.
* :func:`path_of_cliques` — the Section 6 impossibility construction: an
  n/2-clique and an n/4-clique joined by an n/4-long path.
* :func:`web_community_graph` — a multi-community workload motivated by the
  paper's introduction (tightly-knit web communities / link farms).
* :func:`erdos_renyi` — background-only null model.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import networkx as nx

from repro.core import near_clique


@dataclass(frozen=True)
class PlantedStructure:
    """Ground-truth information attached to a generated workload."""

    members: FrozenSet[int]
    target_defect: float

    @property
    def size(self) -> int:
        return len(self.members)


def _background(graph: nx.Graph, nodes: Sequence[int], p: float, rng: random.Random) -> None:
    """Add background G(n, p) edges between the given nodes (in place)."""
    for u, v in itertools.combinations(nodes, 2):
        if not graph.has_edge(u, v) and rng.random() < p:
            graph.add_edge(u, v)


def erdos_renyi(n: int, p: float, seed: Optional[int] = None) -> nx.Graph:
    """A plain G(n, p) background graph with integer labels ``0..n−1``."""
    if n <= 0:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    _background(graph, range(n), p, rng)
    return graph


def planted_clique(
    n: int,
    clique_size: int,
    background_p: float = 0.05,
    seed: Optional[int] = None,
) -> Tuple[nx.Graph, PlantedStructure]:
    """A strict clique of *clique_size* nodes planted in a G(n, p) background.

    Used by Corollary 2.3 (strict cliques of slightly sub-linear size) and by
    the baseline comparisons.
    """
    return planted_near_clique(
        n=n,
        clique_fraction=clique_size / float(n),
        epsilon=0.0,
        background_p=background_p,
        seed=seed,
    )


def planted_near_clique(
    n: int,
    clique_fraction: float,
    epsilon: float,
    background_p: float = 0.05,
    seed: Optional[int] = None,
) -> Tuple[nx.Graph, PlantedStructure]:
    """Plant an ε-near clique of ``⌈clique_fraction · n⌉`` nodes in G(n, p).

    The planted set D starts as a clique on nodes ``0..|D|−1`` and then a
    uniformly random ε fraction of its (unordered) pairs is deleted, so that
    D's defect (Definition 1) is as close to ε as the integrality allows —
    this realises the promise "there exists an ε³-near clique of size δn"
    when called with ``epsilon = ε³`` and ``clique_fraction = δ``.

    Returns the graph and the planted structure.  The construction never
    deletes so many pairs that the defect exceeds ε.
    """
    if not 0 < clique_fraction <= 1:
        raise ValueError("clique_fraction must lie in (0, 1]")
    if not 0 <= epsilon < 1:
        raise ValueError("epsilon must lie in [0, 1)")
    rng = random.Random(seed)
    size = max(1, int(round(clique_fraction * n)))
    members = list(range(size))

    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(itertools.combinations(members, 2))

    pairs = list(itertools.combinations(members, 2))
    removable = int(epsilon * len(pairs) * 0.999)
    rng.shuffle(pairs)
    for u, v in pairs[:removable]:
        graph.remove_edge(u, v)

    _background(graph, range(n), background_p, rng)
    # Background edges may re-densify D slightly; that only helps the promise.
    planted = PlantedStructure(
        members=frozenset(members),
        target_defect=epsilon,
    )
    return graph, planted


def shingles_counterexample(
    n: int,
    delta: float,
    seed: Optional[int] = None,
) -> Tuple[nx.Graph, Dict[str, FrozenSet[int]]]:
    """The Claim 1 / Figure 1 family G_n that defeats the shingles heuristic.

    The node set is partitioned into C₁, C₂ (each of size δn/2, complete
    subgraphs) and I₁, I₂ (each of size (1 − δ)n/2, independent sets); the
    pairs (I₁, C₁), (C₁, C₂), (C₂, I₂) are joined by complete bipartite
    graphs.  The graph contains the clique C = C₁ ∪ C₂ of size δn, yet the
    shingles algorithm cannot output an ε-near clique of size (1 − ε)δn for
    any ε < min{(1 − δ)/(1 + δ), 1/9} (Claim 1).

    *n* is rounded so that δn and n are even, as in the paper's proof.

    Returns the graph and the partition ``{"C1", "C2", "I1", "I2", "clique"}``.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    half_clique = max(1, int(round(delta * n / 2.0)))
    half_independent = max(1, int(round((1.0 - delta) * n / 2.0)))
    del seed  # the construction is deterministic

    c1 = list(range(0, half_clique))
    c2 = list(range(half_clique, 2 * half_clique))
    i1 = list(range(2 * half_clique, 2 * half_clique + half_independent))
    i2 = list(
        range(
            2 * half_clique + half_independent,
            2 * half_clique + 2 * half_independent,
        )
    )

    graph = nx.Graph()
    graph.add_nodes_from(c1 + c2 + i1 + i2)
    graph.add_edges_from(itertools.combinations(c1, 2))
    graph.add_edges_from(itertools.combinations(c2, 2))
    graph.add_edges_from((u, v) for u in i1 for v in c1)
    graph.add_edges_from((u, v) for u in c1 for v in c2)
    graph.add_edges_from((u, v) for u in c2 for v in i2)

    partition = {
        "C1": frozenset(c1),
        "C2": frozenset(c2),
        "I1": frozenset(i1),
        "I2": frozenset(i2),
        "clique": frozenset(c1 + c2),
    }
    return graph, partition


def path_of_cliques(
    n: int,
) -> Tuple[nx.Graph, Dict[str, FrozenSet[int]]]:
    """The Section 6 impossibility construction.

    An n/2-vertex clique A and an n/4-vertex clique B connected by an
    n/4-long path P.  The globally largest near-clique is A; deleting all of
    A's internal edges makes it B — yet no node of B can distinguish the two
    scenarios in fewer than |P| = n/4 rounds, so no sub-diameter-time
    algorithm can output *only* the globally largest near-clique.

    Returns the graph and the partition ``{"A", "B", "P"}``.
    """
    if n < 8:
        raise ValueError("n must be at least 8")
    a_size = n // 2
    b_size = n // 4
    p_size = n - a_size - b_size

    a_nodes = list(range(a_size))
    p_nodes = list(range(a_size, a_size + p_size))
    b_nodes = list(range(a_size + p_size, a_size + p_size + b_size))

    graph = nx.Graph()
    graph.add_nodes_from(a_nodes + p_nodes + b_nodes)
    graph.add_edges_from(itertools.combinations(a_nodes, 2))
    graph.add_edges_from(itertools.combinations(b_nodes, 2))
    path_chain = [a_nodes[-1]] + p_nodes + [b_nodes[0]]
    graph.add_edges_from(zip(path_chain, path_chain[1:]))

    partition = {
        "A": frozenset(a_nodes),
        "B": frozenset(b_nodes),
        "P": frozenset(p_nodes),
    }
    return graph, partition


def delete_clique_edges(graph: nx.Graph, members: Sequence[int]) -> nx.Graph:
    """Return a copy of *graph* with all edges inside *members* removed.

    Used by the impossibility experiment (E8): the second scenario of the
    Section 6 argument deletes all edges of the large clique A.
    """
    clone = graph.copy()
    member_set = set(members)
    clone.remove_edges_from(
        [(u, v) for u, v in graph.edges() if u in member_set and v in member_set]
    )
    return clone


def web_community_graph(
    n: int,
    communities: int = 3,
    community_fraction: float = 0.15,
    intra_defect: float = 0.05,
    background_p: float = 0.02,
    seed: Optional[int] = None,
) -> Tuple[nx.Graph, List[PlantedStructure]]:
    """A multi-community workload ("tightly knit communities" of the intro).

    Plants *communities* disjoint near-cliques, each of size
    ``community_fraction · n`` and defect ``intra_defect``, in a sparse
    background — the web-graph / blog-burst scenario the paper's introduction
    motivates.  Returns the graph and one :class:`PlantedStructure` per
    community, ordered by decreasing size.
    """
    if communities < 1:
        raise ValueError("communities must be at least 1")
    if communities * community_fraction > 1.0 + 1e-9:
        raise ValueError("communities do not fit in the graph")
    rng = random.Random(seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))

    planted: List[PlantedStructure] = []
    cursor = 0
    for index in range(communities):
        # Later communities are slightly smaller so that there is a unique
        # largest one (useful for recall measurements).
        size = max(2, int(round(community_fraction * n)) - 2 * index)
        members = list(range(cursor, min(n, cursor + size)))
        cursor += size
        pairs = list(itertools.combinations(members, 2))
        graph.add_edges_from(pairs)
        rng.shuffle(pairs)
        for u, v in pairs[: int(intra_defect * len(pairs) * 0.999)]:
            graph.remove_edge(u, v)
        planted.append(
            PlantedStructure(members=frozenset(members), target_defect=intra_defect)
        )

    _background(graph, range(n), background_p, rng)
    planted.sort(key=lambda structure: -structure.size)
    return graph, planted


def adhoc_radio_network(
    n: int,
    area: float = 1.0,
    radio_range: float = 0.22,
    hotspot_fraction: float = 0.3,
    hotspot_radius: float = 0.12,
    seed: Optional[int] = None,
) -> Tuple[nx.Graph, Dict[int, Tuple[float, float]]]:
    """A unit-disk ad-hoc radio network with one dense hotspot.

    Motivated by the paper's radio ad-hoc conflict scenario: nodes are placed
    uniformly in a square of side *area*, except a *hotspot_fraction* of them
    which are clustered inside a disc of radius *hotspot_radius* (and hence
    form a near-clique under the unit-disk connectivity rule).  Two nodes are
    connected when their distance is at most *radio_range*.

    Returns the graph and the node positions (for plotting / debugging).
    """
    rng = random.Random(seed)
    positions: Dict[int, Tuple[float, float]] = {}
    hotspot_count = int(round(hotspot_fraction * n))
    center = (area * 0.3, area * 0.3)
    for node in range(n):
        if node < hotspot_count:
            angle = rng.uniform(0.0, 6.283185307179586)
            radius = hotspot_radius * rng.random() ** 0.5
            positions[node] = (
                center[0] + radius * _cos(angle),
                center[1] + radius * _sin(angle),
            )
        else:
            positions[node] = (rng.uniform(0, area), rng.uniform(0, area))

    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            du = positions[u][0] - positions[v][0]
            dv = positions[u][1] - positions[v][1]
            if du * du + dv * dv <= radio_range * radio_range:
                graph.add_edge(u, v)
    return graph, positions


def _cos(x: float) -> float:
    import math

    return math.cos(x)


def _sin(x: float) -> float:
    import math

    return math.sin(x)


def verify_promise(
    graph: nx.Graph, members: Sequence[int], epsilon: float
) -> bool:
    """Check that *members* really is an ε-near clique of *graph*.

    Generators call this in tests to certify that the produced workload
    satisfies the promise the algorithm is given.
    """
    return near_clique.is_near_clique(graph, members, epsilon)
