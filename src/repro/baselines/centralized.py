"""Centralized dense-subgraph comparators from the related-work section.

The paper situates ``DistNearClique`` against the centralized literature:
the Dense-k-Subgraph problem of Feige, Kortsarz and Peleg [7, 8], the
quasi-clique heuristic of Abello, Resende and Sudarsky [1], and the classic
densest-subgraph objective.  Experiment E10 runs these comparators on the
same planted-near-clique workloads.

Objectives differ subtly and matter for interpreting E10:

* :func:`charikar_peeling` maximises *average degree* |E(S)| / |S| — a
  densest subgraph is usually much larger and sparser (as a near-clique)
  than the planted set;
* :func:`greedy_dense_k_subgraph` maximises edges under a hard cardinality
  constraint k, the DkS objective;
* :func:`quasi_clique_local_search` looks directly for a large γ-quasi-clique
  (our ε-near clique with ε = 1 − γ), the objective closest to the paper's;
* :func:`peel_to_near_clique` is the natural greedy the paper's Definition 1
  suggests: repeatedly drop the vertex with the fewest internal neighbours
  until the remaining set is an ε-near clique.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

import networkx as nx

from repro.core import near_clique


def _internal_degrees(adjacency, members: Set[int]) -> Dict[int, int]:
    return {v: len(adjacency[v] & members) for v in members}


def charikar_peeling(graph: nx.Graph) -> Tuple[FrozenSet[int], float]:
    """Greedy peeling 2-approximation for the densest-subgraph problem.

    Repeatedly removes a minimum-degree vertex and remembers the prefix with
    the best average degree |E(S)|/|S|.  Returns the best set and its average
    degree.
    """
    if graph.number_of_nodes() == 0:
        return frozenset(), 0.0
    adjacency = {v: set(graph[v]) for v in graph.nodes()}
    members: Set[int] = set(graph.nodes())
    edges = graph.number_of_edges()

    best_set = frozenset(members)
    best_score = edges / float(len(members))
    degrees = {v: len(adjacency[v]) for v in members}

    while len(members) > 1:
        victim = min(members, key=lambda v: (degrees[v], v))
        members.discard(victim)
        edges -= degrees[victim]
        for neighbor in adjacency[victim]:
            if neighbor in members:
                degrees[neighbor] -= 1
                adjacency[neighbor].discard(victim)
        score = edges / float(len(members))
        if score > best_score:
            best_score = score
            best_set = frozenset(members)
    return best_set, best_score


def greedy_dense_k_subgraph(graph: nx.Graph, k: int) -> FrozenSet[int]:
    """Greedy heuristic for Dense-k-Subgraph.

    Seeds the set with the endpoints of a maximum-degree edge, then
    repeatedly adds the outside vertex with the most neighbours inside until
    the set has k members.  (This is the standard greedy that achieves the
    trivial n/k-type guarantee; the sophisticated O(n^δ)-approximation of
    Feige-Kortsarz-Peleg is not needed for the shape comparison in E10.)
    """
    if k <= 0:
        return frozenset()
    nodes = list(graph.nodes())
    if not nodes:
        return frozenset()
    if k >= len(nodes):
        return frozenset(nodes)
    adjacency = near_clique.adjacency_sets(graph)

    if graph.number_of_edges() > 0:
        seed_edge = max(
            graph.edges(),
            key=lambda e: (len(adjacency[e[0]]) + len(adjacency[e[1]]), e),
        )
        members: Set[int] = {seed_edge[0], seed_edge[1]}
    else:
        members = {max(nodes, key=lambda v: (len(adjacency[v]), -v))}

    while len(members) < k:
        outside = [v for v in nodes if v not in members]
        best = max(outside, key=lambda v: (len(adjacency[v] & members), -v))
        members.add(best)
    return frozenset(members)


def peel_to_near_clique(
    graph: nx.Graph, epsilon: float, start: Optional[Iterable[int]] = None
) -> FrozenSet[int]:
    """Peel minimum-internal-degree vertices until an ε-near clique remains.

    Starting from *start* (the whole graph by default), repeatedly removes
    the member with the fewest internal neighbours as long as the current set
    is not an ε-near clique.  Always terminates (singletons are 0-near
    cliques) and returns the first ε-near clique reached — a natural greedy
    upper-envelope for the "how large an ε-near clique can we find"
    question.
    """
    adjacency = near_clique.adjacency_sets(graph)
    members: Set[int] = set(graph.nodes()) if start is None else set(start)
    while len(members) > 1:
        if near_clique.is_near_clique(adjacency, members, epsilon):
            break
        degrees = _internal_degrees(adjacency, members)
        victim = min(members, key=lambda v: (degrees[v], v))
        members.discard(victim)
    return frozenset(members)


def quasi_clique_local_search(
    graph: nx.Graph,
    epsilon: float,
    seed: Optional[int] = None,
    restarts: int = 8,
) -> FrozenSet[int]:
    """Abello-style GRASP heuristic for large ε-near cliques (quasi-cliques).

    Each restart grows a set greedily from a random high-degree seed vertex —
    adding the outside vertex that keeps the density above ``1 − ε`` and has
    the most internal neighbours — followed by a local-search phase that
    tries swap moves (drop the weakest member, add a better outsider).  The
    best set over all restarts is returned.
    """
    if graph.number_of_nodes() == 0:
        return frozenset()
    rng = random.Random(seed)
    adjacency = near_clique.adjacency_sets(graph)
    nodes = sorted(graph.nodes(), key=lambda v: -len(adjacency[v]))
    pool = nodes[: max(1, len(nodes) // 3)]

    def grow(seed_vertex: int) -> Set[int]:
        members: Set[int] = {seed_vertex}
        while True:
            frontier = set()
            for member in members:
                frontier |= adjacency[member]
            frontier -= members
            best_vertex = None
            best_key: Tuple[int, int] = (-1, 0)
            for candidate in frontier:
                inside = len(adjacency[candidate] & members)
                key = (inside, -candidate)
                if key > best_key:
                    best_key = key
                    best_vertex = candidate
            if best_vertex is None:
                return members
            trial = members | {best_vertex}
            if near_clique.is_near_clique(adjacency, trial, epsilon):
                members = trial
            else:
                return members

    def local_search(members: Set[int]) -> Set[int]:
        improved = True
        while improved and len(members) > 1:
            improved = False
            degrees = _internal_degrees(adjacency, members)
            weakest = min(members, key=lambda v: (degrees[v], v))
            without = members - {weakest}
            frontier = set()
            for member in without:
                frontier |= adjacency[member]
            frontier -= members
            additions = []
            for candidate in frontier:
                trial = without | {candidate}
                if near_clique.is_near_clique(adjacency, trial, epsilon):
                    additions.append(candidate)
            if len(additions) >= 2:
                additions.sort(key=lambda v: -len(adjacency[v] & without))
                grown = without | {additions[0], additions[1]}
                if near_clique.is_near_clique(adjacency, grown, epsilon):
                    members = grown
                    improved = True
        return members

    best: Set[int] = set()
    for _ in range(max(1, restarts)):
        seed_vertex = rng.choice(pool)
        candidate = local_search(grow(seed_vertex))
        if len(candidate) > len(best):
            best = candidate
    return frozenset(best)
