"""Near-clique mathematics (Section 2 and Section 4 of the paper).

This module is deliberately free of any distributed-systems machinery: it is
the shared mathematical vocabulary used by the centralized reference
implementation, by the distributed protocol (each node evaluates the same
predicates on its local view), by the analysis of the proofs, and by the
test suite's invariants.

Conventions
-----------
* **Ordered pairs** (Definition 1).  A set ``D`` is an ε-near clique when the
  number of *ordered* pairs ``(u, v)`` with ``u ≠ v`` and ``{u, v} ∈ E`` is at
  least ``(1 − ε)·|D|·(|D| − 1)``.  Every undirected edge inside ``D``
  therefore counts twice.  Sets of size 0 or 1 are 0-near cliques (they have
  no missing pairs).
* **Neighbourhoods**.  ``Γ(v)`` never contains ``v`` itself (simple graphs).
  In particular a vertex ``v ∈ X`` needs ``|Γ(v) ∩ X| ≥ (1 − ε)|X|`` to be in
  ``K_ε(X)`` — exactly as in Eq. (1) — even though one of the ``|X|``
  potential neighbours is ``v`` itself.
* **Subset indexing**.  The exploration stage enumerates all non-empty
  subsets ``X`` of a sampled component.  The distributed nodes and the
  centralized oracle must agree on the enumeration order, so subsets are
  indexed by bitmasks over the component's members sorted in increasing
  identifier order (bit *j* set ⇔ the *j*-th smallest member is in ``X``).
  Step 4a, the oracle and both testers evaluate every X through one
  function, :func:`subset_membership`, over a vector of neighbour masks.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, FrozenSet, Iterable, Iterator, Sequence, Set, Tuple

import networkx as nx
import numpy as np

NodeSet = Set[int]


# ---------------------------------------------------------------------------
# adjacency helpers
# ---------------------------------------------------------------------------
def adjacency_sets(graph: nx.Graph) -> Dict[int, FrozenSet[int]]:
    """Return ``{v: frozenset(Γ(v))}`` for the whole graph.

    Building this once and passing it around is the main optimisation used by
    the centralized code paths; all functions below accept either a graph or
    a pre-built adjacency dictionary.
    """
    return {v: frozenset(graph[v]) for v in graph.nodes()}


def _as_adjacency(graph_or_adj) -> Dict[int, FrozenSet[int]]:
    if isinstance(graph_or_adj, dict):
        return graph_or_adj
    return adjacency_sets(graph_or_adj)


# ---------------------------------------------------------------------------
# Definition 1: density and near-cliques
# ---------------------------------------------------------------------------
def ordered_pair_edge_count(graph_or_adj, nodes: Iterable[int]) -> int:
    """Number of ordered pairs ``(u, v)``, ``u ≠ v``, of *nodes* joined by an edge."""
    adjacency = _as_adjacency(graph_or_adj)
    node_set = set(nodes)
    return sum(len(adjacency.get(v, frozenset()) & node_set) for v in node_set)


def density(graph_or_adj, nodes: Iterable[int]) -> float:
    """Density of *nodes* per Definition 1 (1.0 for sets of size ≤ 1).

    The set is an ε-near clique exactly when ``density ≥ 1 − ε``.
    """
    node_set = set(nodes)
    size = len(node_set)
    if size <= 1:
        return 1.0
    return ordered_pair_edge_count(graph_or_adj, node_set) / (size * (size - 1))


def near_clique_defect(graph_or_adj, nodes: Iterable[int]) -> float:
    """The smallest ε for which *nodes* is an ε-near clique (``1 − density``)."""
    return 1.0 - density(graph_or_adj, nodes)


def is_near_clique(graph_or_adj, nodes: Iterable[int], epsilon: float) -> bool:
    """Definition 1: is *nodes* an ε-near clique?

    Uses exact integer comparison (no floating-point slack): the ordered-pair
    count must be at least ``(1 − ε)·|D|·(|D| − 1)``.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative, got %r" % epsilon)
    node_set = set(nodes)
    size = len(node_set)
    if size <= 1:
        return True
    edges = ordered_pair_edge_count(graph_or_adj, node_set)
    return edges >= (1.0 - epsilon) * size * (size - 1) - 1e-9


# ---------------------------------------------------------------------------
# Eq. (1) and Eq. (2): K_eps and T_eps
# ---------------------------------------------------------------------------
def k_eps(graph_or_adj, x: Iterable[int], epsilon: float, universe: Iterable[int] = None) -> NodeSet:
    """The set ``K_ε(X)`` of Eq. (1).

    ``K_ε(X) = {v : |Γ(v) ∩ X| ≥ (1 − ε)|X|}``, evaluated over *universe*
    (all graph nodes by default).

    Notes
    -----
    * ``K_ε(∅)`` is the whole universe (the condition is vacuous); callers
      that enumerate candidate subsets exclude the empty set for this reason.
    * When ``(1 − ε)|X| > 0`` every member of ``K_ε(X)`` has at least one
      neighbour in ``X``, so only ``Γ(X)`` needs to be examined — this is the
      locality property that makes the distributed evaluation possible.
    """
    adjacency = _as_adjacency(graph_or_adj)
    x_set = set(x)
    threshold = (1.0 - epsilon) * len(x_set)
    if universe is not None:
        candidates: Iterable[int] = set(universe)
    elif threshold > 0:
        candidates = set()
        for u in x_set:
            candidates |= adjacency.get(u, frozenset())
        candidates |= x_set
    else:
        candidates = set(adjacency.keys())
    result = set()
    for v in candidates:
        if len(adjacency.get(v, frozenset()) & x_set) >= threshold - 1e-9:
            result.add(v)
    return result


def t_eps(graph_or_adj, x: Iterable[int], epsilon: float) -> NodeSet:
    """The set ``T_ε(X)`` of Eq. (2): ``K_ε(K_{2ε²}(X)) ∩ K_{2ε²}(X)``."""
    adjacency = _as_adjacency(graph_or_adj)
    inner = k_eps(adjacency, x, 2.0 * epsilon * epsilon)
    outer = k_eps(adjacency, inner, epsilon, universe=inner)
    return outer & inner


# ---------------------------------------------------------------------------
# Lemma 5.3, Lemma 5.4 and the representativeness conditions of Lemma 5.6
# ---------------------------------------------------------------------------
def lemma_5_3_defect_bound(n: int, t: int, epsilon: float) -> float:
    """Upper bound on the defect of a candidate ``T_ε(X)`` with ``t`` members.

    Lemma 5.3: every ``T_ε(X)`` is an ``(n/t)·ε``-near clique.  The bound is
    clipped to 1 (a defect can never exceed 1).
    """
    if t <= 1:
        return 0.0
    return min(1.0, (n / t) * epsilon)


def core_set(graph_or_adj, dense_set: Iterable[int], epsilon: float) -> NodeSet:
    """The core ``C = K_{ε²}(D) ∩ D`` used throughout Section 5.2.

    Lemma 5.4 guarantees ``|C| ≥ (1 − ε)|D| − 1/ε²`` whenever ``D`` is an
    ε³-near clique.
    """
    adjacency = _as_adjacency(graph_or_adj)
    d_set = set(dense_set)
    return k_eps(adjacency, d_set, epsilon * epsilon, universe=d_set)


def lemma_5_4_core_lower_bound(d_size: int, epsilon: float) -> float:
    """Lemma 5.4's lower bound on ``|C|``: ``(1 − ε)|D| − 1/ε²``."""
    if epsilon <= 0:
        return float(d_size)
    return (1.0 - epsilon) * d_size - 1.0 / (epsilon * epsilon)


def is_representative(
    graph_or_adj,
    dense_set: Iterable[int],
    core: Iterable[int],
    x_star: Iterable[int],
    epsilon: float,
) -> bool:
    """The representativeness predicate from the proof of Lemma 5.6.

    ``X*`` is representative when

    1. ``|K_{ε²}(D) \\ K_{2ε²}(X*)| < ε·|C|`` — almost every vertex that is
       well-connected to ``D`` is also recognised from the sample, and
    2. ``|K_{2ε²}(X*) \\ K_{3ε²}(C)| < ε²·|C|`` — almost no vertex recognised
       from the sample is poorly connected to the core.

    Claim 3 shows a random ``X* = S¹ ∩ C`` is representative with probability
    ``1 − (1/(ε²δ))·e^{−Ω(ε⁴δpn)}``; the experiment harness measures this
    empirically.
    """
    adjacency = _as_adjacency(graph_or_adj)
    d_set = set(dense_set)
    c_set = set(core)
    x_set = set(x_star)
    eps_sq = epsilon * epsilon

    k_eps2_d = k_eps(adjacency, d_set, eps_sq)
    k_2eps2_x = k_eps(adjacency, x_set, 2.0 * eps_sq)
    k_3eps2_c = k_eps(adjacency, c_set, 3.0 * eps_sq)

    condition_1 = len(k_eps2_d - k_2eps2_x) < epsilon * len(c_set)
    condition_2 = len(k_2eps2_x - k_3eps2_c) < eps_sq * len(c_set)
    return condition_1 and condition_2


def theorem_5_7_size_lower_bound(d_size: int, epsilon: float) -> float:
    """Theorem 5.7(2): the output size is at least ``(1 − 13ε/2)|D| − ε⁻²``."""
    if epsilon <= 0:
        return float(d_size)
    return (1.0 - 6.5 * epsilon) * d_size - 1.0 / (epsilon * epsilon)


def theorem_5_7_defect_bound(epsilon: float, delta: float) -> float:
    """Theorem 5.7(1): the output defect is at most ``ε/δ · 1/(1 − 13ε/2)``.

    For ε < 1/13 this is at most ``2ε/δ`` (footnote 2 of the paper).  The
    bound is clipped to 1.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    denominator = 1.0 - 6.5 * epsilon
    if denominator <= 0:
        return 1.0
    return min(1.0, (epsilon / delta) / denominator)


# ---------------------------------------------------------------------------
# shared numeric predicates (used by the distributed nodes and the oracle)
# ---------------------------------------------------------------------------
#: Tolerance used when comparing an integer count against a fractional
#: threshold, so that the distributed and centralized implementations make
#: identical decisions despite floating-point rounding.
FRACTION_TOLERANCE = 1e-9


def meets_fraction(count: int, total: int, epsilon: float) -> bool:
    """Return True when ``count ≥ (1 − ε)·total`` (with shared tolerance).

    This is the comparison at the heart of Eq. (1); the distributed
    protocol, the centralized oracle and the testers all decide through
    this helper (the subset scan through the table of
    :func:`subset_membership`), so their decisions can never diverge.
    """
    return count >= (1.0 - epsilon) * total - FRACTION_TOLERANCE


#: Byte budget of one block of :func:`subset_membership`, at 8 bytes per
#: ``mask & index`` cell.
_SUBSET_BLOCK_BYTES = 8 << 20
_POPCOUNTS: Dict[int, np.ndarray] = {}


def subset_membership(
    masks: Sequence[int], member_count: int, epsilon: float
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``v ∈ K_ε(X)`` for every neighbour mask and every non-empty index X.

    Yields ``(indices, sizes, member)`` blocks of consecutive indices of
    ``1 .. 2^k − 1`` in ascending order, with ``sizes[j] = |X_j|`` and
    ``member[i, j]`` true when ``|masks[i] ∩ X_j| ≥ (1 − ε)|X_j|``.  Each
    decision is read from a table filled by :func:`meets_fraction`, so it is
    that predicate's exactly.  A block holds at most
    :data:`_SUBSET_BLOCK_BYTES` of cells, which bounds memory at any k; a
    caller that stops early never evaluates the remaining blocks.
    """
    popcounts = _POPCOUNTS.get(member_count)
    if popcounts is None:  # built once per k
        popcounts = np.zeros(1 << member_count, dtype=np.uint8)
        for bit in range(member_count):
            popcounts[1 << bit : 2 << bit] = popcounts[: 1 << bit] + 1
        _POPCOUNTS[member_count] = popcounts
    counts = range(member_count + 1)
    table = np.array([[meets_fraction(c, s, epsilon) for s in counts] for c in counts])
    mask_column = np.asarray(masks, dtype=np.intp).reshape(-1, 1)
    end = 1 << member_count
    step = max(1, _SUBSET_BLOCK_BYTES // (8 * max(1, len(mask_column))))
    for start in range(1, end, step):
        indices = np.arange(start, min(start + step, end), dtype=np.intp)
        sizes = popcounts[indices]
        yield indices, sizes, table[popcounts[mask_column & indices], sizes]


def neighbor_mask(members: Sequence[int], neighbor_ids: Iterable[int]) -> int:
    """Bitmask of *members* (canonical order) that appear in *neighbor_ids*.

    With subsets encoded as bitmask indices, ``|Γ(v) ∩ X|`` is the popcount
    of ``index & neighbor_mask(members, Γ(v))``; a vector of these masks is
    what :func:`subset_membership` evaluates the 2^{|S_i|} subsets on.
    """
    neighbor_set = set(neighbor_ids)
    mask = 0
    for bit, member in enumerate(members):
        if member in neighbor_set:
            mask |= 1 << bit
    return mask


def sorted_neighbor_mask(
    members: Sequence[int], sorted_neighbors: Sequence[int]
) -> int:
    """:func:`neighbor_mask` for neighbours given in ascending order.

    One binary search per member instead of a set of all the neighbours:
    the components are small and the degrees are not.
    """
    mask = 0
    count = len(sorted_neighbors)
    for bit, member in enumerate(members):
        at = bisect_left(sorted_neighbors, member)
        if at < count and sorted_neighbors[at] == member:
            mask |= 1 << bit
    return mask


# ---------------------------------------------------------------------------
# canonical subset enumeration
# ---------------------------------------------------------------------------
def canonical_members(members: Iterable[int]) -> Tuple[int, ...]:
    """Members of a sampled component in canonical (sorted) order."""
    return tuple(sorted(set(members)))


def subset_from_index(members: Sequence[int], index: int) -> FrozenSet[int]:
    """Decode a bitmask *index* into a subset of *members* (canonical order)."""
    if index < 0 or index >= (1 << len(members)):
        raise ValueError(
            "subset index %d out of range for %d members" % (index, len(members))
        )
    return frozenset(
        members[bit] for bit in range(len(members)) if index & (1 << bit)
    )


def index_of_subset(members: Sequence[int], subset: Iterable[int]) -> int:
    """Encode *subset* of *members* as its canonical bitmask index."""
    position = {member: bit for bit, member in enumerate(members)}
    index = 0
    for node in subset:
        try:
            index |= 1 << position[node]
        except KeyError:
            raise ValueError("%r is not a member of the component" % (node,)) from None
    return index
