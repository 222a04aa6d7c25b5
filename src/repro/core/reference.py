"""Centralized reference implementation of the ``DistNearClique`` computation.

Given the same random sample S, the distributed protocol and this oracle
perform *exactly* the same computation — the distributed protocol merely
spreads it over message exchanges.  The oracle therefore serves three
purposes:

1. it is the correctness baseline the integration tests compare the
   distributed runner against (identical labels for identical samples);
2. it is the fast engine used by large experiment sweeps (thousands of
   trials) where simulating every message would be wasteful;
3. its intermediate artefacts (per-subset candidate sets, votes) are exposed
   for the analysis experiments (E9 density guarantee, Lemma 5.6 checks).

The computation follows Section 4 of the paper:

* components of G[S] are identified, each named by its minimum identifier;
* for every non-empty subset X of a component, ``K_{2ε²}(X)`` and
  ``T_ε(X)`` are evaluated over the component's *audience*
  (S_i ∪ Γ(S_i) — the only nodes that can possibly belong to them);
* each component's candidate is the subset maximising ``|T_ε(X)|``
  (ties broken towards the smallest canonical subset index);
* the decision stage lets every audience node acknowledge the best candidate
  it is adjacent to (largest ``|T|``, ties towards the largest root
  identifier) and abort all others; a candidate survives only if nobody
  aborted it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from repro.core import near_clique
from repro.core.params import AlgorithmParameters
from repro.core.result import CandidateSet, NearCliqueResult


@dataclass
class ComponentAnalysis:
    """Everything the oracle knows about one sampled component S_i."""

    root: int
    members: Tuple[int, ...]
    audience: FrozenSet[int]
    #: ``{subset index: K_{2ε²}(X)}`` for every non-empty subset X.
    k_sets: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    #: ``{subset index: T_ε(X)}`` for every non-empty subset X.
    t_sets: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    best_index: int = 0
    best_size: int = 0

    @property
    def best_t_set(self) -> FrozenSet[int]:
        return self.t_sets.get(self.best_index, frozenset())

    @property
    def best_subset(self) -> FrozenSet[int]:
        return near_clique.subset_from_index(self.members, self.best_index)


class CentralizedNearCliqueFinder:
    """Centralized execution of the near-clique discovery computation.

    Parameters
    ----------
    graph:
        The communication graph (undirected, integer node labels — the same
        graph handed to the distributed runner).
    epsilon:
        The ε parameter of the algorithm.
    min_output_size:
        Candidates smaller than this are disqualified after the vote (the
        paper's optional lower-bound filter).
    """

    def __init__(
        self,
        graph: nx.Graph,
        epsilon: float,
        min_output_size: int = 0,
    ) -> None:
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1), got %r" % epsilon)
        self.graph = graph
        self.epsilon = epsilon
        self.min_output_size = min_output_size
        self.adjacency = near_clique.adjacency_sets(graph)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def draw_sample(self, probability: float, rng: random.Random) -> Set[int]:
        """Draw the sampling-stage set S (each node i.i.d. with probability p)."""
        return {v for v in sorted(self.graph.nodes()) if rng.random() < probability}

    # ------------------------------------------------------------------
    # exploration stage
    # ------------------------------------------------------------------
    def sample_components(self, sample: Iterable[int]) -> List[Tuple[int, ...]]:
        """Connected components of G[S], each as a canonical member tuple."""
        sample_set = set(sample)
        induced = self.graph.subgraph(sample_set)
        components = [
            near_clique.canonical_members(component)
            for component in nx.connected_components(induced)
        ]
        components.sort(key=lambda members: members[0])
        return components

    def audience_of(self, members: Sequence[int]) -> FrozenSet[int]:
        """S_i ∪ Γ(S_i): the nodes that take part in component i's candidate."""
        audience = set(members)
        for member in members:
            audience |= self.adjacency[member]
        return frozenset(audience)

    def analyze_component(self, members: Sequence[int]) -> ComponentAnalysis:
        """Evaluate ``K_{2ε²}(X)`` and ``T_ε(X)`` for every non-empty X ⊆ S_i."""
        members = near_clique.canonical_members(members)
        audience = self.audience_of(members)
        eps = self.epsilon
        inner_eps = 2.0 * eps * eps

        nodes = np.array(list(audience), dtype=object)
        masks = [near_clique.neighbor_mask(members, self.adjacency[v]) for v in nodes]
        analysis = ComponentAnalysis(
            root=members[0], members=members, audience=audience
        )
        best_index = 0
        best_size = -1
        for indices, _sizes, member in near_clique.subset_membership(
            masks, len(members), inner_eps
        ):
            for index, column in zip(indices.tolist(), member.T):
                k_set = frozenset(nodes[column].tolist())
                t_set = frozenset(
                    near_clique.k_eps(self.adjacency, k_set, eps, universe=k_set)
                )
                analysis.k_sets[index] = k_set
                analysis.t_sets[index] = t_set
                if len(t_set) > best_size:
                    best_size = len(t_set)
                    best_index = index
        analysis.best_index = best_index
        analysis.best_size = max(best_size, 0)
        return analysis

    # ------------------------------------------------------------------
    # decision stage
    # ------------------------------------------------------------------
    @staticmethod
    def _vote(options: Iterable[Tuple[int, int]]) -> Optional[int]:
        """A node's acknowledgement among ``(root, |T|)`` options.

        The paper's rule: acknowledge the component reporting the largest
        ``|T_ε(X(S_i))|``, breaking ties in favour of the largest root
        identifier; abort all the others.
        """
        best_root = None
        best_key = None
        for root, size in options:
            key = (size, root)
            if best_key is None or key > best_key:
                best_key = key
                best_root = root
        return best_root

    def decide(
        self, analyses: Sequence[ComponentAnalysis]
    ) -> Tuple[Dict[int, bool], Dict[int, Optional[int]]]:
        """Run the acknowledge/abort vote.

        Returns ``(survived, votes)`` where ``survived[root]`` says whether
        the component's candidate received no abort and ``votes[node]`` is
        the root each audience node acknowledged.
        """
        audiences: Dict[int, List[ComponentAnalysis]] = {}
        for analysis in analyses:
            for node in analysis.audience:
                audiences.setdefault(node, []).append(analysis)

        votes: Dict[int, Optional[int]] = {}
        survived = {analysis.root: True for analysis in analyses}
        for node, adjacent in audiences.items():
            choice = self._vote((a.root, a.best_size) for a in adjacent)
            votes[node] = choice
            for analysis in adjacent:
                if analysis.root != choice:
                    survived[analysis.root] = False
        return survived, votes

    # ------------------------------------------------------------------
    # full runs
    # ------------------------------------------------------------------
    def run_with_sample(self, sample: Iterable[int]) -> NearCliqueResult:
        """Execute exploration + decision for a given sample S."""
        sample_set = frozenset(sample)
        components = self.sample_components(sample_set)
        analyses = [self.analyze_component(members) for members in components]
        survived, _votes = self.decide(analyses)

        labels: Dict[int, Optional[int]] = {v: None for v in self.graph.nodes()}
        candidates: List[CandidateSet] = []
        for analysis in analyses:
            alive = survived[analysis.root] and (
                analysis.best_size >= self.min_output_size
            )
            members = analysis.best_t_set
            if alive:
                for node in members:
                    labels[node] = analysis.root
            candidates.append(
                CandidateSet(
                    component_root=analysis.root,
                    component_members=frozenset(analysis.members),
                    subset_index=analysis.best_index,
                    subset=analysis.best_subset,
                    members=members,
                    survived=alive,
                )
            )
        return NearCliqueResult(
            labels=labels,
            candidates=candidates,
            sample=sample_set,
            components=tuple(frozenset(members) for members in components),
            epsilon=self.epsilon,
        )

    def run(
        self,
        parameters: AlgorithmParameters,
        rng: Optional[random.Random] = None,
    ) -> NearCliqueResult:
        """Sampling stage + exploration + decision (one full execution)."""
        rng = rng or random.Random()
        sample = self.draw_sample(parameters.sample_probability, rng)
        if (
            parameters.max_sample_size is not None
            and len(sample) > parameters.max_sample_size
        ):
            return NearCliqueResult(
                labels={v: None for v in self.graph.nodes()},
                sample=frozenset(sample),
                epsilon=self.epsilon,
                sample_probability=parameters.sample_probability,
                aborted=True,
                abort_reason=(
                    "sample size %d exceeds the deterministic bound %d"
                    % (len(sample), parameters.max_sample_size)
                ),
            )
        result = self.run_with_sample(sample)
        result.sample_probability = parameters.sample_probability
        return result
