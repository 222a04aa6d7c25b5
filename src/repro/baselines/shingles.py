"""The shingles baseline (Section 3 of the paper).

Based on the idea of shingles (Broder et al.), each node picks a random
value from a space large enough that collisions are negligible, sends it to
its neighbours, and adopts as its *label* the smallest value seen in its
closed neighbourhood.  All nodes with the same label form a *candidate set*;
each candidate set measures its own size and density (every member is, by
construction, within one hop of the label's namesake node, so the
measurement is a single convergence step); sets that are too small or too
sparse are discarded.

Claim 1 of the paper exhibits an explicit graph family (Figure 1, generated
by :func:`repro.graphs.generators.shingles_counterexample`) on which this
heuristic can never output an ε-near clique of size (1 − ε)δn, for any
ε < min{(1 − δ)/(1 + δ), 1/9} — even though a clique of size δn is present.
Experiment E4 reproduces that failure and contrasts it with
``DistNearClique``.

Two implementations are provided:

* :func:`shingles_run` — a fast centralized simulation (identical outcome
  distribution), used for large sweeps and for the deterministic case
  analysis of Claim 1 (the caller can fix the shingle values);
* :class:`ShinglesProtocol` — a CONGEST protocol (4 communication rounds,
  O(log n)-bit messages) for apples-to-apples metric comparisons with
  ``DistNearClique``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

import networkx as nx

from repro.congest.message import Inbound, Message, id_bits_for, KIND_TAG_BITS
from repro.congest.node import NodeContext, Protocol
from repro.core import near_clique

#: Size of the random shingle space; 2^48 makes collisions negligible for
#: every n used in the experiments while keeping shingles O(log n) bits.
SHINGLE_SPACE_BITS = 48


@dataclass(frozen=True)
class ShinglesCandidate:
    """One candidate set produced by the shingles heuristic."""

    label_owner: int
    members: FrozenSet[int]
    density: float

    @property
    def size(self) -> int:
        return len(self.members)

    def qualifies(self, min_size: int, epsilon: float) -> bool:
        """Does the candidate meet the size and density thresholds?"""
        return self.size >= min_size and self.density >= 1.0 - epsilon - 1e-9


@dataclass
class ShinglesResult:
    """Outcome of one run of the shingles heuristic."""

    candidates: List[ShinglesCandidate] = field(default_factory=list)
    labels: Dict[int, int] = field(default_factory=dict)
    shingles: Dict[int, int] = field(default_factory=dict)

    def best_candidate(self) -> Optional[ShinglesCandidate]:
        """The surviving-conflict winner: largest set, ties to smaller label."""
        if not self.candidates:
            return None
        return max(self.candidates, key=lambda c: (c.size, -c.label_owner))

    def best_qualifying(
        self, min_size: int, epsilon: float
    ) -> Optional[ShinglesCandidate]:
        """The best candidate that clears the size and density thresholds."""
        qualifying = [c for c in self.candidates if c.qualifies(min_size, epsilon)]
        if not qualifying:
            return None
        return max(qualifying, key=lambda c: (c.size, -c.label_owner))

    def achieves(self, epsilon: float, min_size: int) -> bool:
        """Claim 1's success criterion: some candidate is an ε-near clique
        with at least *min_size* members."""
        return self.best_qualifying(min_size, epsilon) is not None


def shingles_run(
    graph: nx.Graph,
    rng: Optional[random.Random] = None,
    shingles: Optional[Dict[int, int]] = None,
) -> ShinglesResult:
    """Centralized simulation of the shingles heuristic.

    Parameters
    ----------
    graph:
        The communication graph.
    rng:
        Randomness source for drawing shingle values (ignored when explicit
        *shingles* are supplied).
    shingles:
        Optional explicit shingle values per node.  The Claim 1 case analysis
        uses this to place the global minimum in each of the four blocks of
        the Figure 1 construction deterministically.
    """
    rng = rng or random.Random()
    if shingles is None:
        shingles = {
            node: rng.getrandbits(SHINGLE_SPACE_BITS) for node in graph.nodes()
        }
    else:
        shingles = dict(shingles)
        if len(set(shingles.values())) != len(shingles):
            raise ValueError("shingle values must be distinct")

    labels: Dict[int, int] = {}
    for node in graph.nodes():
        closed = [node] + list(graph[node])
        labels[node] = min(closed, key=lambda v: shingles[v])

    adjacency = near_clique.adjacency_sets(graph)
    groups: Dict[int, set] = {}
    for node, owner in labels.items():
        groups.setdefault(owner, set()).add(node)

    candidates = [
        ShinglesCandidate(
            label_owner=owner,
            members=frozenset(members),
            density=near_clique.density(adjacency, members),
        )
        for owner, members in groups.items()
    ]
    candidates.sort(key=lambda c: (-c.size, c.label_owner))
    return ShinglesResult(candidates=candidates, labels=labels, shingles=shingles)


# ---------------------------------------------------------------------------
# CONGEST implementation
# ---------------------------------------------------------------------------
_SHINGLE = "sh.value"
_LABEL = "sh.label"
_REPORT = "sh.report"
_DECISION = "sh.decision"

KEY_SHINGLE = "sh_shingle"
KEY_LABEL = "sh_label"
KEY_IN_SET_DEGREE = "sh_in_set_degree"
KEY_DECISION = "sh_decision"

GLOBAL_MIN_SIZE = "shingles_min_size"
GLOBAL_EPSILON = "shingles_epsilon"


class ShinglesProtocol(Protocol):
    """The shingles heuristic as a 4-round CONGEST protocol.

    Round 1: exchange shingle values; adopt the minimum of the closed
    neighbourhood as label.  Round 2: exchange labels; count same-label
    neighbours.  Round 3: report the in-set degree to the label's namesake
    (always within one hop).  Round 4: the namesake computes the set's
    density, applies the size/density thresholds, and announces the verdict;
    members of accepted sets output the label, everyone else outputs ⊥.
    """

    name = "shingles"
    quiesce_terminates = True

    def on_start(self, ctx: NodeContext) -> None:
        shingle = ctx.rng.getrandbits(SHINGLE_SPACE_BITS)
        ctx.state[KEY_SHINGLE] = shingle
        ctx.state["_sh_seen"] = {ctx.node_id: shingle}
        ctx.state["_sh_reports"] = {}
        ctx.state["_sh_same_label"] = 0
        ctx.write_output(None)
        ctx.send_all(
            Message(
                kind=_SHINGLE,
                payload=(shingle,),
                bits=KIND_TAG_BITS + SHINGLE_SPACE_BITS,
            )
        )

    def on_round(self, ctx: NodeContext, inbox: List[Inbound]) -> None:
        round_index = ctx.round_index
        if round_index == 1:
            seen: Dict[int, int] = ctx.state["_sh_seen"]
            for inbound in inbox:
                if inbound.kind == _SHINGLE:
                    seen[inbound.sender] = inbound.payload[0]
            owner = min(seen, key=lambda node: seen[node])
            ctx.state[KEY_LABEL] = owner
            ctx.send_all(
                Message(
                    kind=_LABEL,
                    payload=(owner,),
                    bits=KIND_TAG_BITS + id_bits_for(ctx.n),
                )
            )
        elif round_index == 2:
            label = ctx.state[KEY_LABEL]
            same = 0
            for inbound in inbox:
                if inbound.kind == _LABEL and inbound.payload[0] == label:
                    same += 1
            ctx.state[KEY_IN_SET_DEGREE] = same
            report = Message(
                kind=_REPORT,
                payload=(same,),
                bits=KIND_TAG_BITS + id_bits_for(ctx.n),
            )
            if label == ctx.node_id:
                ctx.state["_sh_reports"][ctx.node_id] = same
            else:
                ctx.send(label, report)
        elif round_index == 3:
            reports: Dict[int, int] = ctx.state["_sh_reports"]
            for inbound in inbox:
                if inbound.kind == _REPORT:
                    reports[inbound.sender] = inbound.payload[0]
            if reports:
                # This node is the namesake of a candidate set (it may or may
                # not be a member of that set itself).
                size = len(reports)
                internal = sum(reports.values())
                density = 1.0 if size <= 1 else internal / float(size * (size - 1))
                min_size = int(ctx.globals.get(GLOBAL_MIN_SIZE, 0))
                epsilon = float(ctx.globals.get(GLOBAL_EPSILON, 0.0))
                accepted = size >= min_size and density >= 1.0 - epsilon - 1e-9
                ctx.state[KEY_DECISION] = (accepted, density, size)
                if accepted and ctx.state[KEY_LABEL] == ctx.node_id:
                    ctx.write_output(ctx.node_id)
                verdict = Message(
                    kind=_DECISION,
                    payload=(1 if accepted else 0,),
                    bits=KIND_TAG_BITS + 1,
                )
                for member in reports:
                    if member != ctx.node_id:
                        ctx.send(member, verdict)
        elif round_index == 4:
            for inbound in inbox:
                if inbound.kind == _DECISION and inbound.payload[0]:
                    if inbound.sender == ctx.state[KEY_LABEL]:
                        ctx.write_output(ctx.state[KEY_LABEL])
            ctx.halt()
        else:  # pragma: no cover - the protocol is silent after round 4
            ctx.halt()

    def finished(self, ctx: NodeContext) -> bool:
        return ctx.halted or ctx.round_index > 4
