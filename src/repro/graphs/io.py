"""Edge-list persistence for experiment workloads.

A deliberately tiny format: one ``u v`` pair per line, ``#``-prefixed
comments, plus an optional ``# nodes: n`` header so isolated vertices
survive a round trip.  Planted structures are stored next to the graph as a
comment block, so a saved workload is self-describing.

:func:`load_snap_edgelist` additionally reads the looser SNAP corpus
format (tabs, duplicate orientations, self-loops, gappy ids) so real
graphs can be fed to the finder and the service daemon.  It returns the
file's endpoint pairs as a numpy array rather than a graph, which
:class:`repro.congest.network.Network` turns into its CSR arrays directly.
"""

from __future__ import annotations

import os
import re
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import networkx as nx
import numpy as np


def write_edge_list(
    graph: nx.Graph,
    path: str,
    planted: Optional[Iterable[int]] = None,
    comment: Optional[str] = None,
) -> None:
    """Write *graph* (and optionally a planted set) to *path*."""
    directory = os.path.dirname(os.path.abspath(path))
    if directory and not os.path.isdir(directory):
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        if comment:
            for line in comment.splitlines():
                handle.write("# %s\n" % line)
        handle.write("# nodes: %d\n" % graph.number_of_nodes())
        handle.write(
            "# node-ids: %s\n" % " ".join(str(v) for v in sorted(graph.nodes()))
        )
        if planted is not None:
            handle.write(
                "# planted: %s\n" % " ".join(str(v) for v in sorted(planted))
            )
        for u, v in sorted((min(a, b), max(a, b)) for a, b in graph.edges()):
            handle.write("%d %d\n" % (u, v))


def read_edge_list(path: str) -> Tuple[nx.Graph, Optional[FrozenSet[int]]]:
    """Read a graph written by :func:`write_edge_list`.

    Returns the graph and the planted set (``None`` when the file does not
    record one).
    """
    graph = nx.Graph()
    planted: Optional[FrozenSet[int]] = None
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("node-ids:"):
                    ids = body[len("node-ids:") :].split()
                    graph.add_nodes_from(int(v) for v in ids)
                elif body.startswith("planted:"):
                    members = body[len("planted:") :].split()
                    planted = frozenset(int(v) for v in members)
                continue
            u_text, v_text = line.split()
            graph.add_edge(int(u_text), int(v_text))
    return graph, planted


def load_snap_edgelist(path: str) -> np.ndarray:
    """Load a SNAP-style edge list (`snap.stanford.edu <https://snap.stanford.edu/data/>`_).

    The SNAP corpus format is looser than :func:`read_edge_list`'s own:
    ``#``-prefixed comment/header lines anywhere in the file, arbitrary
    whitespace (spaces or tabs) between the two endpoint ids, blank lines,
    self-loops and duplicate edges (many SNAP files list both orientations
    of each edge).  Node ids are arbitrary integers with gaps.

    Returns the endpoint pairs as an ``(m, 2)`` numpy array, one row per
    data line in file order, with self-loops dropped (the CONGEST model has
    none) and duplicates kept.  The dtype is int64, or ``object`` (Python
    ints) when some id does not fit in int64.  No graph is built: pass the
    array to :class:`repro.congest.network.Network`, which collapses
    duplicates and orientations while building its CSR arrays, or to
    ``nx.Graph.add_edges_from`` via ``pairs.tolist()``.

    A file in the common shape is tokenised in bulk with numpy; any other
    file goes through the line loop.  Both paths return the same array.

    Parameters
    ----------
    path:
        The edge-list file.  Plain text; callers decompress ``.txt.gz``
        downloads themselves.

    Raises
    ------
    ValueError
        On a data line that is not two integers — with the line number,
        so a truncated download is diagnosable.
    """
    with open(path, "rb") as handle:
        pairs = _bulk_edge_pairs(handle.read())
    if pairs is None:
        return _load_snap_lines(path)
    return pairs[pairs[:, 0] != pairs[:, 1]]


#: The leading block of blank and ``#`` lines of a SNAP file (its header;
#: in a file without data, the last one may lack its newline).
_SNAP_HEADER = re.compile(rb"(?:[ \t]*(?:#[^\n]*)?(?:\n|\Z))*")

#: The longest digit run the bulk path parses: any 18-digit id is below
#: 2**63, so every accepted token fits in int64 exactly.
_MAX_DIGITS = 18


def _bulk_edge_pairs(raw: bytes) -> Optional[np.ndarray]:
    """Endpoint pairs of a plain SNAP file as an ``(m, 2)`` int64 array.

    Only the common shape is accepted: ASCII text whose ``#`` and blank
    lines all precede the data, and whose data lines hold two unsigned
    decimal ids of at most 18 digits separated by spaces or tabs (blank
    lines in between are fine).  The structure is checked over one byte
    view of the data: a token starts at a digit that follows a non-digit,
    every line must hold 0 or 2 token starts, and no digit run may be
    longer than 18.  One ``np.fromstring`` call then parses every token
    in C.  Anything else returns ``None``, and the caller falls back to
    the line loop, which defines the format and reports errors with
    their line number.  Rows come out in file order.
    """
    if not raw.isascii():
        return None
    if b"\r" in raw:  # universal newlines, as text-mode iteration reads them
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    body = raw[_SNAP_HEADER.match(raw).end() :]
    # Only digits and whitespace, so the C parser's number syntax (signs,
    # underscores, prefixes) never has to agree with int()'s.
    if body.translate(None, b"0123456789 \t\n"):
        return None
    view = np.frombuffer(body, dtype=np.uint8)
    # +1 where a digit run starts, -1 just past where one ends, so the
    # nonzero positions alternate start, end, start, end.
    step = np.diff((view >= ord("0")).view(np.int8), prepend=np.int8(0), append=np.int8(0))
    bounds = np.flatnonzero(step != 0)  # a bool mask: flatnonzero's fast case
    if not len(bounds):
        return np.zeros((0, 2), dtype=np.int64)
    if (bounds[1::2] - bounds[0::2]).max() > _MAX_DIGITS:
        return None
    # Token starts per line (a line starts at 0 and after every newline):
    # a data line holds two, a blank line none.
    heads = np.flatnonzero(view[:-1] == ord("\n"))
    heads += 1
    per_line = np.add.reduceat(
        (step[:-1] > 0).view(np.int8), np.concatenate(([0], heads)), dtype=np.int64
    )
    if ((per_line != 0) & (per_line != 2)).any():
        return None
    tokens = np.fromstring(body, dtype=np.int64, sep=" ")
    if 2 * len(tokens) != len(bounds):
        return None
    return tokens.reshape(-1, 2)


def _load_snap_lines(path: str) -> np.ndarray:
    """The line-by-line SNAP reader: the format's definition."""
    pairs: List[Tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    "%s:%d: expected 'u v', got %r" % (path, line_number, raw)
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(
                    "%s:%d: non-integer endpoint in %r" % (path, line_number, raw)
                ) from None
            if u != v:
                pairs.append((u, v))
    try:
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)
    except OverflowError:  # an id past int64: keep Python ints
        return np.array(pairs, dtype=object).reshape(-1, 2)


def save_workload(
    graph: nx.Graph,
    directory: str,
    name: str,
    planted: Optional[Iterable[int]] = None,
    metadata: Optional[Dict[str, str]] = None,
) -> str:
    """Save a named workload under *directory*; return the file path."""
    comment_lines = ["workload: %s" % name]
    if metadata:
        comment_lines.extend("%s: %s" % (key, value) for key, value in sorted(metadata.items()))
    path = os.path.join(directory, "%s.edges" % name)
    write_edge_list(graph, path, planted=planted, comment="\n".join(comment_lines))
    return path
