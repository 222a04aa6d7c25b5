"""Adjacency-query oracle for the dense-graph property-testing model.

In the dense-graph model the basic action of a tester is to ask "is the pair
(u, v) an edge?".  Complexity is measured in the number of such queries; the
:class:`AdjacencyOracle` wraps a graph, answers queries, and counts them
(deduplicating repeats, since a sensible tester caches answers).
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence, Set, Tuple

import networkx as nx


class AdjacencyOracle:
    """Query-counting adjacency oracle over a fixed graph."""

    def __init__(self, graph: nx.Graph) -> None:
        self._graph = graph
        self._nodes = sorted(graph.nodes())
        self._asked: Set[Tuple[int, int]] = set()
        self.queries = 0

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices of the underlying graph."""
        return len(self._nodes)

    @property
    def nodes(self) -> List[int]:
        return list(self._nodes)

    def is_edge(self, u: int, v: int) -> bool:
        """Answer one adjacency query (repeat queries are not re-charged)."""
        if u == v:
            return False
        key = (u, v) if u < v else (v, u)
        if key not in self._asked:
            self._asked.add(key)
            self.queries += 1
        return self._graph.has_edge(u, v)

    def degree_into(self, v: int, targets: Iterable[int]) -> int:
        """``|Γ(v) ∩ targets|`` via individual queries."""
        return sum(1 for u in targets if u != v and self.is_edge(v, u))

    # ------------------------------------------------------------------
    def sample_vertices(
        self, count: int, rng: random.Random, replace: bool = False
    ) -> List[int]:
        """A uniform vertex sample (without replacement unless asked)."""
        if count <= 0:
            return []
        if replace or count > len(self._nodes):
            return [rng.choice(self._nodes) for _ in range(count)]
        return rng.sample(self._nodes, count)

    def pair_density(self, members: Sequence[int], rng: random.Random, pairs: int) -> float:
        """Estimate the Definition 1 density of *members* from random pairs."""
        members = list(members)
        if len(members) <= 1:
            return 1.0
        hits = 0
        for _ in range(max(1, pairs)):
            u, v = rng.sample(members, 2)
            if self.is_edge(u, v):
                hits += 1
        return hits / float(max(1, pairs))

    def exact_density(self, members: Iterable[int]) -> float:
        """Exact Definition 1 density (charges one query per unordered pair)."""
        members = sorted(set(members))
        size = len(members)
        if size <= 1:
            return 1.0
        present = 0
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if self.is_edge(u, v):
                    present += 1
        return 2.0 * present / float(size * (size - 1))
