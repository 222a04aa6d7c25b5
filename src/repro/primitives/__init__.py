"""Reusable distributed building blocks.

The exploration and decision stages of ``DistNearClique`` (Section 4 of the
paper) are built from a small number of classic CONGEST primitives:

* rooted BFS spanning-tree construction per connected component, rooted at
  the component's minimum identifier (exploration Step 1);
* learning one's children in the tree (needed for convergecast);
* convergecast — collecting identifiers up the tree with pipelining
  (exploration Step 2);
* broadcast — streaming a list of values down the tree (exploration Steps 2
  and 4d, decision Steps 2 and 4);
* min-identifier flooding (leader election), used on its own by tests and by
  the shingles baseline analysis.

All primitives operate on an arbitrary subset of *participant* nodes (the
sampled set S in the paper); non-participants halt immediately and the
primitive behaves as if it were run on the induced subgraph G[S].  Because a
node of S belongs to exactly one connected component of G[S], a single run of
each primitive simultaneously serves every component.
"""

from repro.primitives.bfs_tree import (
    BFSTreeOutput,
    MinIdBFSTreeProtocol,
    ParentNotificationProtocol,
)
from repro.primitives.broadcast import TreeBroadcastProtocol
from repro.primitives.convergecast import ConvergecastCollectProtocol
from repro.primitives.leader_election import MinIdFloodingProtocol
from repro.primitives.pipelines import Outbox

__all__ = [
    "BFSTreeOutput",
    "MinIdBFSTreeProtocol",
    "ParentNotificationProtocol",
    "TreeBroadcastProtocol",
    "ConvergecastCollectProtocol",
    "MinIdFloodingProtocol",
    "Outbox",
]
