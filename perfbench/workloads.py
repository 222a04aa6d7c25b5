"""Seeded input generation for the end-to-end benchmark.

Everything a workload feeds the program is derived here from one integer
seed, before any timing starts: the community graph written as a SNAP edge
list and the forced sample for the find workloads, and the block graph plus
the JSONL request lines for the serve workload.  The same seed always
yields the same inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import List, Tuple

import networkx as nx
import numpy as np

#: The algorithm's epsilon on every workload.
EPSILON = 0.25

#: Expected sample size of the serve workload's queries (its sampling
#: probability is this over n), so a few of the blocks hold a sample.
SERVE_EXPECTED_SAMPLE = 8.0

#: Size of the forced sample of the find workloads.  The exploration cost
#: is exponential in the sample's component sizes, so the sample is fixed
#: in size and drawn as an independent set: every seed explores the same
#: number of singleton components.
FORCED_SAMPLE_SIZE = 6


@dataclass(frozen=True)
class FindScale:
    """Shape of the community graph of the find workloads."""

    n: int
    blocks: int
    p_in: float
    background_degree: float


@dataclass(frozen=True)
class ServeScale:
    """Shape of the disjoint-block graph of the serve workload."""

    blocks: int
    block_size: int
    p_in: float


#: Benchmark scale and the tiny scale the smoke test runs.
FIND_SCALES = {
    "full": FindScale(n=4000, blocks=4, p_in=0.03, background_degree=2.0),
    "smoke": FindScale(n=600, blocks=4, p_in=0.08, background_degree=4.0),
}
SERVE_SCALES = {
    "full": ServeScale(blocks=250, block_size=80, p_in=0.1),
    "smoke": ServeScale(blocks=8, block_size=80, p_in=0.1),
}


def _gnp_pairs(
    rng: np.random.Generator, size: int, p: float
) -> np.ndarray:
    """Edges of G(size, p) on ``0..size-1`` as a sorted ``(m, 2)`` array.

    Draws the edge count from the binomial law, then that many distinct
    unordered pairs uniformly — the G(n, p) distribution, in time linear
    in the number of edges rather than in the number of pairs.
    """
    pairs_total = size * (size - 1) // 2
    m = int(rng.binomial(pairs_total, p))
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < m:
        draw = rng.integers(0, size, size=(2 * (m - chosen.size) + 16, 2))
        draw = draw[draw[:, 0] != draw[:, 1]]
        low = np.minimum(draw[:, 0], draw[:, 1])
        high = np.maximum(draw[:, 0], draw[:, 1])
        # Keep the first-drawn occurrence order so the truncation below
        # is a uniform choice, not biased toward small codes.
        codes = np.concatenate([chosen, low * size + high])
        _, first = np.unique(codes, return_index=True)
        chosen = codes[np.sort(first)]
    chosen = np.sort(chosen[:m])
    return np.stack([chosen // size, chosen % size], axis=1)


# ----------------------------------------------------------------------
# find workloads
# ----------------------------------------------------------------------
@dataclass
class FindInputs:
    """What one find operation receives: a file, a sample, a seed."""

    edge_file: str
    graph: nx.Graph  # the generated graph, for the untimed oracle only
    sample: Tuple[int, ...]
    network_seed: int
    n: int
    edges: int


def community_edges(scale: FindScale, seed: int) -> np.ndarray:
    """Dense contiguous blocks over a sparse background, as an edge array.

    Every node gets at least one edge, so the SNAP file (which cannot
    record isolated nodes) round-trips the full node set.
    """
    rng = np.random.default_rng(seed)
    n = scale.n
    size = n // scale.blocks
    parts = [
        _gnp_pairs(rng, size, scale.p_in) + block * size
        for block in range(scale.blocks)
    ]
    background = rng.integers(0, n, size=(int(scale.background_degree * n / 2), 2))
    parts.append(background[background[:, 0] != background[:, 1]])
    edges = np.concatenate(parts)
    edges = np.stack(
        [np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])],
        axis=1,
    )
    edges = np.unique(edges, axis=0)
    covered = np.zeros(n, dtype=bool)
    covered[edges.ravel()] = True
    lonely = np.flatnonzero(~covered)
    if lonely.size:
        partners = (lonely + 1) % n
        patch = np.stack([np.minimum(lonely, partners), np.maximum(lonely, partners)], axis=1)
        edges = np.unique(np.concatenate([edges, patch]), axis=0)
    return edges


def write_snap(edges: np.ndarray, path: str, title: str) -> None:
    """Write *edges* in the SNAP edge-list format (tab-separated, headed)."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write("# %s\n# Nodes: %d Edges: %d\n# FromNodeId\tToNodeId\n"
                     % (title, int(edges.max()) + 1, len(edges)))
        handle.write("\n".join("%d\t%d" % (u, v) for u, v in edges.tolist()))
        handle.write("\n")


def _independent_sample(
    graph: nx.Graph, candidates: range, k: int, rng: random.Random
) -> Tuple[int, ...]:
    while True:
        sample = sorted(rng.sample(candidates, k))
        if not any(graph.has_edge(u, v) for i, u in enumerate(sample) for v in sample[i + 1:]):
            return tuple(sample)


def make_find_inputs(scale: FindScale, seed: int, edge_file: str) -> FindInputs:
    """Generate and write the find workloads' graph; draw the sample."""
    edges = community_edges(scale, seed)
    write_snap(edges, edge_file, "community graph, seed %d" % seed)
    graph = nx.Graph()
    graph.add_edges_from(edges.tolist())
    rng = random.Random(seed)
    sample = _independent_sample(
        graph, range(scale.n // scale.blocks), FORCED_SAMPLE_SIZE, rng
    )
    return FindInputs(
        edge_file=edge_file,
        graph=graph,
        sample=sample,
        network_seed=rng.getrandbits(48),
        n=graph.number_of_nodes(),
        edges=graph.number_of_edges(),
    )


# ----------------------------------------------------------------------
# serve workload
# ----------------------------------------------------------------------
@dataclass
class ServeInputs:
    """The serve workload's graph, query seed and request cycles."""

    graph: nx.Graph
    query_seed: int
    #: One ``(delta_line, query_line, query_line)`` triple per cycle.
    cycles: List[Tuple[str, str, str]]
    #: The edge each cycle's delta flips: ``(u, v, added)``.
    flips: List[Tuple[int, int, bool]]


def block_graph(scale: ServeScale, seed: int) -> nx.Graph:
    """Disjoint G(block_size, p_in) blocks on contiguous ids.

    Each block is redrawn until connected, so a one-edge delta inside it
    always dirties exactly that block.
    """
    rng = np.random.default_rng(seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(scale.blocks * scale.block_size))
    for block in range(scale.blocks):
        offset = block * scale.block_size
        while True:
            dense = nx.Graph()
            dense.add_nodes_from(range(scale.block_size))
            dense.add_edges_from(_gnp_pairs(rng, scale.block_size, scale.p_in).tolist())
            if nx.is_connected(dense):
                break
        graph.add_edges_from((offset + u, offset + v) for u, v in dense.edges())
    return graph


def apply_flip(graph: nx.Graph, flip: Tuple[int, int, bool]) -> None:
    u, v, added = flip
    if added:
        graph.add_edge(u, v)
    else:
        graph.remove_edge(u, v)


def make_serve_inputs(scale: ServeScale, seed: int, cycles: int) -> ServeInputs:
    """Generate the block graph and *cycles* delta/query/query triples.

    Each delta flips one node pair inside a random block: it removes the
    edge when present and adds it otherwise.  A removal that would
    disconnect its block is never drawn, so every block stays connected
    and every incremental query recomputes exactly one block.
    """
    graph = block_graph(scale, seed)
    mirror = graph.copy()
    rng = random.Random(seed)
    query_seed = rng.randrange(1, 1 << 30)
    query = json.dumps({"cmd": "query", "seed": query_seed})
    lines: List[Tuple[str, str, str]] = []
    flips: List[Tuple[int, int, bool]] = []
    size = scale.block_size
    while len(lines) < cycles:
        offset = rng.randrange(scale.blocks) * size
        u, v = sorted(rng.sample(range(offset, offset + size), 2))
        if mirror.has_edge(u, v):
            mirror.remove_edge(u, v)
            block = mirror.subgraph(range(offset, offset + size))
            if not nx.is_connected(block):
                mirror.add_edge(u, v)
                continue
            flip = (u, v, False)
            delta = {"cmd": "delta", "add": [], "remove": [[u, v]]}
        else:
            mirror.add_edge(u, v)
            flip = (u, v, True)
            delta = {"cmd": "delta", "add": [[u, v]], "remove": []}
        flips.append(flip)
        lines.append((json.dumps(delta), query, query))
    return ServeInputs(graph=graph, query_seed=query_seed, cycles=lines, flips=flips)
