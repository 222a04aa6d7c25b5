"""A ρ-clique property tester in the Goldreich–Goldwasser–Ron style.

The tester decides, with constant error probability and a number of
adjacency queries that depends only on ε and ρ (never on n), between

* the graph contains a ρ-clique (more tolerantly: a very dense set of ρn
  vertices), and
* no set of ρn vertices is an ε-near clique,

and — when it accepts — can additionally *find* an ε-near clique of size
≈ ρn using O(n) further work ("approximate find", as described in the
paper's related-work section).

Construction
------------
This is the same two-sample scheme the paper adapts (and that underlies its
``K``/``T`` operators):

1. draw a primary sample ``X`` of ``m₁ = O(log(1/ε)/ε²)`` vertices;
2. draw a secondary sample ``W`` of ``m₂ = O(log(1/ε)/ε⁴)`` vertices;
3. for every subset ``X' ⊆ X`` of at least ``(ρ − ε/4)·m₁`` vertices, look at
   the vertices of ``W`` that are adjacent to all but a ``2ε²`` fraction of
   ``X'`` (the sampled analogue of ``K_{2ε²}(X')``); accept if for some
   ``X'`` this witness set contains at least ``(ρ − ε/2)`` fraction of ``W``
   and its sampled pair-density is at least ``1 − ε/2``.

The query complexity is ``O(m₁·m₂ + m₂·pairs)`` = poly(1/ε), matching the
paper's "Õ(1/ε⁶) queries" regime in shape; the *time* is exponential in
``m₁`` (subsets are enumerated), which is a property of the original GGR
tester as well — testers in the dense model are query-efficient, not
time-efficient.  The constants below were chosen so that the tester is
reliable at the graph sizes used by experiment E11 while keeping the subset
enumeration tractable; they are implementation choices, not the paper's.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.core import near_clique
from repro.proptest.sampling import AdjacencyOracle


@dataclass(frozen=True)
class TesterVerdict:
    """Outcome of one tester invocation."""

    accepted: bool
    queries: int
    witness_subset: FrozenSet[int]
    witness_fraction: float
    witness_density: float


@dataclass(frozen=True)
class ApproximateFindResult:
    """Outcome of the approximate-find procedure."""

    members: FrozenSet[int]
    density: float
    queries: int


class GGRCliqueTester:
    """ρ-clique tester with poly(1/ε) query complexity.

    Parameters
    ----------
    rho:
        Target relative clique size (the property is "G has a clique of size
        ρn").
    epsilon:
        Distance parameter of the tester.
    primary_sample_cap:
        Upper bound on ``m₁`` (the subset-enumerated sample) so that the
        2^{m₁} local enumeration stays tractable; 14 by default.
    rng:
        Randomness source.
    """

    def __init__(
        self,
        rho: float,
        epsilon: float,
        primary_sample_cap: int = 14,
        density_pairs: int = 400,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0 < rho <= 1:
            raise ValueError("rho must lie in (0, 1]")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        self.rho = rho
        self.epsilon = epsilon
        self.primary_sample_cap = primary_sample_cap
        self.density_pairs = density_pairs
        self.rng = rng or random.Random()

    # ------------------------------------------------------------------
    def sample_sizes(self, n: int) -> Tuple[int, int]:
        """(m₁, m₂): primary and secondary sample sizes for an n-vertex graph."""
        eps = self.epsilon
        m1 = int(math.ceil(2.0 * math.log(4.0 / eps) / (eps * eps)))
        m1 = max(4, min(self.primary_sample_cap, m1, n))
        m2 = int(math.ceil(4.0 * math.log(4.0 / eps) / (eps ** 3)))
        m2 = max(8, min(m2, n))
        return m1, m2

    # ------------------------------------------------------------------
    def test(self, graph: nx.Graph) -> TesterVerdict:
        """Run the tester once and return its verdict."""
        oracle = AdjacencyOracle(graph)
        n = oracle.n
        if n == 0:
            return TesterVerdict(False, 0, frozenset(), 0.0, 0.0)
        m1, m2 = self.sample_sizes(n)
        eps = self.epsilon
        rho = self.rho

        primary = oracle.sample_vertices(m1, self.rng)
        secondary = oracle.sample_vertices(m2, self.rng)

        # Adjacency of every secondary vertex into the primary sample, via
        # individual queries (m1 * m2 of them).
        members = near_clique.canonical_members(primary)
        masks = [
            near_clique.neighbor_mask(
                members, [u for u in members if oracle.is_edge(w, u)]
            )
            for w in secondary
        ]

        witnesses = np.array(secondary, dtype=object)
        min_subset = max(1, int(math.floor((rho - eps / 4.0) * len(members))))
        best: Tuple[float, float, FrozenSet[int]] = (0.0, 0.0, frozenset())
        accepted = False
        blocks = near_clique.subset_membership(masks, len(members), 2.0 * eps * eps)
        for indices, sizes, member in blocks:
            fractions = member.sum(axis=0) / float(len(secondary))
            keep = (sizes >= min_subset) & (fractions >= rho - eps / 2.0)
            for index, fraction, column in zip(
                indices[keep].tolist(), fractions[keep].tolist(), member.T[keep]
            ):
                witness = witnesses[column].tolist()
                density = oracle.pair_density(witness, self.rng, self.density_pairs)
                accepted = density >= 1.0 - eps / 2.0
                if accepted or (fraction, density) > best[:2]:
                    subset = near_clique.subset_from_index(members, index)
                    best = (fraction, density, subset)
                if accepted:
                    break
            if accepted:
                break

        return TesterVerdict(
            accepted=accepted,
            queries=oracle.queries,
            witness_subset=best[2],
            witness_fraction=best[0],
            witness_density=best[1],
        )

    # ------------------------------------------------------------------
    def approximate_find(
        self, graph: nx.Graph, witness_subset: Sequence[int]
    ) -> ApproximateFindResult:
        """Extract an ε-near clique of size ≈ ρn from an accepting witness.

        This is the O(n)-work "approximate find" companion: evaluate the
        paper's ``T_ε`` operator on the witness subset over the whole vertex
        set (O(n·|X'|) adjacency queries plus one densification pass), and
        return the resulting set.
        """
        oracle = AdjacencyOracle(graph)
        witness = list(witness_subset)
        if not witness:
            return ApproximateFindResult(frozenset(), 0.0, 0)
        eps = self.epsilon
        inner_eps = 2.0 * eps * eps

        k_set = [
            v
            for v in oracle.nodes
            if near_clique.meets_fraction(
                oracle.degree_into(v, witness), len(witness), inner_eps
            )
        ]
        t_set = [
            v
            for v in k_set
            if near_clique.meets_fraction(
                oracle.degree_into(v, k_set), len(k_set), eps
            )
        ]
        density = near_clique.density(graph, t_set)
        return ApproximateFindResult(
            members=frozenset(t_set), density=density, queries=oracle.queries
        )

    # ------------------------------------------------------------------
    def test_with_confidence(
        self, graph: nx.Graph, repetitions: int = 3
    ) -> TesterVerdict:
        """Majority vote over independent repetitions (error reduction)."""
        verdicts = [self.test(graph) for _ in range(max(1, repetitions))]
        accepts = [v for v in verdicts if v.accepted]
        queries = sum(v.queries for v in verdicts)
        majority = len(accepts) * 2 > len(verdicts)
        exemplar = max(
            accepts if majority and accepts else verdicts,
            key=lambda v: (v.witness_fraction, v.witness_density),
        )
        return TesterVerdict(
            accepted=majority,
            queries=queries,
            witness_subset=exemplar.witness_subset,
            witness_fraction=exemplar.witness_fraction,
            witness_density=exemplar.witness_density,
        )
