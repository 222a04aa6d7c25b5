"""Result records shared by the distributed and centralized runners."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.congest.metrics import RunMetrics
from repro.core import near_clique


@dataclass(frozen=True)
class CandidateSet:
    """One component's best candidate ``T_ε(X(S_i))`` (decision Step 1).

    Attributes
    ----------
    component_root:
        The component's identifier — the smallest node identifier in the
        sampled component S_i, which is also the label assigned to the
        candidate's members if it survives conflict resolution.
    component_members:
        The members of the sampled component S_i itself.
    subset_index / subset:
        The maximising subset ``X(S_i)`` in canonical bitmask encoding.
    members:
        ``T_ε(X(S_i))`` — the candidate near-clique.
    survived:
        Whether the candidate survived the acknowledge/abort vote of the
        decision stage (and the optional minimum-size disqualification).
    """

    component_root: int
    component_members: FrozenSet[int]
    subset_index: int
    subset: FrozenSet[int]
    members: FrozenSet[int]
    survived: bool

    @property
    def size(self) -> int:
        return len(self.members)

    def density(self, graph_or_adj) -> float:
        """Density of the candidate in the input graph (Definition 1)."""
        return near_clique.density(graph_or_adj, self.members)


@dataclass
class NearCliqueResult:
    """Output of one execution of the near-clique discovery algorithm.

    The paper's output convention (Section 2, Problem Statement): every node
    holds either a label — the identifier of the component whose candidate it
    belongs to — or ``None`` (the paper's ⊥).  Two nodes belong to the same
    discovered near-clique exactly when they hold the same non-``None``
    label.

    ``labels`` maps every node to its label or ``None``.  Treat it as
    read-only: the query service (:mod:`repro.service.incremental`) lets
    answers share it, so an incremental answer whose dirty region kept
    its labels holds its base answer's dict, and a cached answer is the
    previous result itself.
    """

    labels: Dict[int, Optional[int]]
    candidates: List[CandidateSet] = field(default_factory=list)
    sample: FrozenSet[int] = frozenset()
    components: Tuple[FrozenSet[int], ...] = ()
    epsilon: float = 0.0
    sample_probability: float = 0.0
    aborted: bool = False
    abort_reason: Optional[str] = None
    metrics: Optional[RunMetrics] = None

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def clusters(self) -> Dict[int, FrozenSet[int]]:
        """Mapping from label to the set of nodes carrying that label."""
        grouped: Dict[int, set] = {}
        for node, label in self.labels.items():
            if label is not None:
                grouped.setdefault(label, set()).add(node)
        return {label: frozenset(nodes) for label, nodes in grouped.items()}

    @property
    def labelled_nodes(self) -> FrozenSet[int]:
        """All nodes with a non-⊥ output."""
        return frozenset(n for n, label in self.labels.items() if label is not None)

    def largest_cluster(self) -> FrozenSet[int]:
        """The largest discovered near-clique (empty if none was output)."""
        clusters = self.clusters
        if not clusters:
            return frozenset()
        return max(clusters.values(), key=lambda members: (len(members), sorted(members)))

    def cluster_of(self, node: int) -> FrozenSet[int]:
        """The near-clique containing *node* (empty when the node output ⊥)."""
        label = self.labels.get(node)
        if label is None:
            return frozenset()
        return self.clusters.get(label, frozenset())

    # ------------------------------------------------------------------
    # quality measures used by the experiments
    # ------------------------------------------------------------------
    def largest_cluster_density(self, graph_or_adj) -> float:
        """Density (Definition 1) of the largest discovered near-clique."""
        members = self.largest_cluster()
        return near_clique.density(graph_or_adj, members)

    def largest_cluster_defect(self, graph_or_adj) -> float:
        """Defect (1 − density) of the largest discovered near-clique."""
        return 1.0 - self.largest_cluster_density(graph_or_adj)

    def recall_of(self, planted: Iterable[int]) -> float:
        """Fraction of a planted dense set captured by the largest cluster."""
        planted_set = set(planted)
        if not planted_set:
            return 1.0
        return len(self.largest_cluster() & planted_set) / len(planted_set)

    def meets_theorem_5_7(
        self,
        graph_or_adj,
        planted_size: int,
        delta: float,
    ) -> bool:
        """Check both assertions of Theorem 5.7 against the largest cluster.

        Assertion (1): the output defect is at most
        ``(1/(1 − 13ε/2))·ε/δ``.  Assertion (2): the output size is at least
        ``(1 − 13ε/2)·|D| − ε⁻²`` (clipped at zero — for very small planted
        sets the bound is vacuous).
        """
        members = self.largest_cluster()
        size_bound = max(
            0.0, near_clique.theorem_5_7_size_lower_bound(planted_size, self.epsilon)
        )
        defect_bound = near_clique.theorem_5_7_defect_bound(self.epsilon, delta)
        size_ok = len(members) >= size_bound
        defect_ok = near_clique.near_clique_defect(graph_or_adj, members) <= defect_bound + 1e-9
        return size_ok and defect_ok

    def summary(self) -> Dict[str, float]:
        """Compact numeric summary used by the benchmark tables."""
        largest = self.largest_cluster()
        return {
            "sample_size": float(len(self.sample)),
            "components": float(len(self.components)),
            "candidates": float(len(self.candidates)),
            "surviving": float(sum(1 for c in self.candidates if c.survived)),
            "largest_cluster": float(len(largest)),
            "aborted": 1.0 if self.aborted else 0.0,
            "rounds": float(self.metrics.rounds) if self.metrics else 0.0,
            "max_message_bits": (
                float(self.metrics.max_message_bits) if self.metrics else 0.0
            ),
        }
