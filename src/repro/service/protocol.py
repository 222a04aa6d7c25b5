"""The JSONL wire protocol of the near-clique daemon.

One request per line on stdin, one response per line on stdout — the
simplest long-lived transport that composes with shell pipelines, unit
tests (``io.StringIO``) and process supervisors alike.

Requests
--------
Every request is a JSON object with a ``"cmd"`` key:

``{"cmd": "query", "seed": 0}``
    Run (or reuse / repair) the near-clique computation.  ``seed`` drives
    the per-node sampling coins and defaults to 0; repeating a seed on an
    unchanged graph is answered from cache.

``{"cmd": "delta", "add": [[u, v], ...], "remove": [[u, v], ...]}``
    Apply a batched topology update.  Nodes are the input graph's own
    labels, each a JSON integer or string (anything else is a
    ``bad-request``).  The delta is validated *before* any mutation: a
    rejected delta (unknown node, self-loop, edge listed on both sides)
    leaves the graph untouched and yields a ``bad-delta`` error response.

``{"cmd": "stats"}``
    Lifetime service counters (queries by kind, deltas, nodes recomputed).

``{"cmd": "shutdown"}``
    Acknowledge and stop the serve loop.

Responses
---------
``{"ok": true, "cmd": <cmd>, ...payload}`` on success, or
``{"ok": false, "error": {"code": <code>, "message": <msg>}}`` on failure.
Error codes: ``bad-request`` (unparseable/unknown command, or a request
line exceeding the daemon's length bound), ``bad-delta`` (delta
validation), ``congest-error`` (any other simulator error, a shard
worker's crash or timeout included; the daemon keeps serving) and
``internal-error``.
Responses are emitted with sorted keys so transcripts are reproducible.

A ``query`` response's ``labels`` is a list of ``[node, label-or-null]``
pairs ordered by the repr of the node's JSON value — the order a repr-sort
of the pairs themselves gives whenever node reprs are distinct, since the
comparison is decided before it reaches the label.  The daemon computes
that order once per service (:class:`LabelOrder`), so a query costs one
pass over the labels, not a sort.

That list is an :class:`EncodedLabels`: a read-only list of pairs that
also carries its JSON text in chunks of about sqrt(n) consecutive pairs,
and :func:`encode_response` splices the text in instead of re-encoding
the pairs.  An answer patched from an earlier one (an incremental answer
re-encodes only its dirty region) copies the earlier pair list once,
rebuilds only the chunks holding a label that changed and shares every
other chunk; it never mutates the earlier answer, and a region whose
labels all stayed put is answered with the earlier list itself.

The dicts the daemon's ``handle_line`` returns are read-only: a cached
answer's response shares its ``labels`` list (and the rest of its
payload) with the previous response.
"""

from __future__ import annotations

import json
from math import isqrt
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.result import NearCliqueResult

from repro.service.stats import QueryRecord

#: Commands the daemon understands.
COMMANDS: Tuple[str, ...] = ("query", "delta", "stats", "shutdown")

#: Error codes a response may carry.
ERROR_CODES: Tuple[str, ...] = (
    "bad-request",
    "bad-delta",
    "congest-error",
    "internal-error",
)


class RequestError(ValueError):
    """A request line that violates the protocol (code ``bad-request``)."""

    code = "bad-request"


def parse_request(line: str) -> Dict[str, Any]:
    """Parse one request line into a validated command dict.

    Raises
    ------
    RequestError
        If the line is not a JSON object, names no known command, or
        carries malformed arguments.  The daemon answers these with a
        ``bad-request`` response and keeps serving.
    """
    try:
        request = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer past the
        # interpreter's digit limit; RecursionError, nesting too deep.
        raise RequestError("not valid JSON: %s" % exc) from exc
    if not isinstance(request, dict):
        raise RequestError(
            "a request must be a JSON object, got %s" % type(request).__name__
        )
    cmd = request.get("cmd")
    if cmd not in COMMANDS:
        raise RequestError(
            "unknown command %r (expected one of %s)" % (cmd, ", ".join(COMMANDS))
        )
    if cmd == "query":
        seed = request.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise RequestError("query seed must be an integer, got %r" % (seed,))
    elif cmd == "delta":
        for key in ("add", "remove"):
            edges = request.get(key, [])
            if not isinstance(edges, list):
                raise RequestError("delta %r must be a list of edges" % key)
            for edge in edges:
                if (
                    not isinstance(edge, (list, tuple))
                    or len(edge) != 2
                ):
                    raise RequestError(
                        "delta edges must be [u, v] pairs, got %r" % (edge,)
                    )
                # Only the types ``labels`` prints a node as may name one:
                # by hash equality ``true`` and ``2.0`` would match nodes
                # 1 and 2, and an array or object is unhashable.
                for endpoint in edge:
                    if not isinstance(endpoint, (int, str)) or isinstance(
                        endpoint, bool
                    ):
                        raise RequestError(
                            "delta endpoints must be integers or strings, "
                            "got %r" % (endpoint,)
                        )
    return request


def _edge_pairs(request: Dict[str, Any], key: str) -> List[Tuple[Any, Any]]:
    return [(edge[0], edge[1]) for edge in request.get(key, [])]


def delta_edges(
    request: Dict[str, Any]
) -> Tuple[List[Tuple[Any, Any]], List[Tuple[Any, Any]]]:
    """The (additions, removals) edge lists of a parsed ``delta`` request."""
    return _edge_pairs(request, "add"), _edge_pairs(request, "remove")


# ----------------------------------------------------------------------
# response encoding
# ----------------------------------------------------------------------
#: Payloads are acyclic trees built by this module, so the encoder skips
#: the cycle check.
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
)


def _json_text(value: Any) -> str:
    """The encoder's text for one JSON scalar.

    A plain int is written as its repr, which is what the encoder writes;
    calling the encoder costs more than the repr for so small a value.
    """
    return repr(value) if type(value) is int else _ENCODER.encode(value)


class EncodedLabels(list):
    """A ``labels`` list of ``(node, label)`` pairs that carries its text.

    ``chunks[c]`` is the comma-joined JSON text of the ``c``-th run of
    :attr:`LabelOrder.size` consecutive pairs, and :attr:`text` the text
    of the whole list, the bytes the encoder would write for it.
    Read-only: the text is not kept in step with later mutation, and an
    answer patched from this one shares its unchanged chunks.
    """

    __slots__ = ("chunks", "text")

    def __init__(self, pairs: Iterable[Tuple[Any, Any]], chunks: List[str]) -> None:
        super().__init__(pairs)
        self.chunks = chunks
        self.text = "[%s]" % ",".join(chunks)


def encode_response(payload: Dict[str, Any]) -> str:
    """One response line (no trailing newline), keys sorted for stability.

    The bytes of encoding the whole payload, but an :class:`EncodedLabels`
    value is spliced in as its text rather than encoded again.
    """
    return "{%s}" % ",".join(
        _ENCODER.encode(key)
        + ":"
        + (
            value.text
            if isinstance(value, EncodedLabels)
            else _ENCODER.encode(value)
        )
        for key, value in sorted(payload.items())
    )


def ok_response(cmd: str, **payload: Any) -> Dict[str, Any]:
    response: Dict[str, Any] = {"ok": True, "cmd": cmd}
    response.update(payload)
    return response


def error_response(code: str, message: str) -> Dict[str, Any]:
    if code not in ERROR_CODES:
        code = "internal-error"
    return {"ok": False, "error": {"code": code, "message": message}}


def _jsonable_label(label: Any) -> Any:
    """Graph labels are ints or strings in practice; stringify anything else.

    ``None`` (an unlabelled node's output) passes through as JSON null.
    """
    if label is None or (
        isinstance(label, (int, str)) and not isinstance(label, bool)
    ):
        return label
    return repr(label)


def _sorted_values(values: Iterable[Any]) -> List[Any]:
    """Natural sort when the values support it, repr-sort for mixed labels."""
    items = list(values)
    try:
        return sorted(items)
    except TypeError:
        return sorted(items, key=repr)


class LabelOrder:
    """The wire order of ``labels`` for one node set, and its encoder.

    The order of a repr-sort of the ``[node, label]`` pairs: each such key
    reads ``[<node repr>, <label repr>]``, so two keys with distinct node
    reprs are ordered by the node repr and the comma after it, never by
    the label.  Sorting by the node repr plus that comma (the repr of
    ``[json_node, None]`` without the rest) gives the same order.
    """

    __slots__ = ("nodes", "json_nodes", "prefixes", "position", "size")

    def __init__(self, nodes: Iterable[Any]) -> None:
        keyed = sorted(
            ((_jsonable_label(node), node) for node in nodes),
            key=lambda pair: repr(pair[0]) + ",",
        )
        self.nodes = [node for _, node in keyed]
        self.json_nodes = [json_node for json_node, _ in keyed]
        #: Each pair's text up to its label: ``[<node>,``.
        self.prefixes = [
            "[" + _json_text(json_node) + "," for json_node in self.json_nodes
        ]
        self.position = {node: i for i, node in enumerate(self.nodes)}
        #: Pairs per text chunk: a patch rebuilds a chunk per changed
        #: label and copies the list of chunks, O(sqrt(n)) each.
        self.size = max(1, isqrt(len(self.nodes)))

    def encode(
        self,
        labels: Mapping[Any, Any],
        base: Optional[EncodedLabels] = None,
        changed: Iterable[Any] = (),
    ) -> EncodedLabels:
        """The ``labels`` pairs of *labels* (node -> label), with their text.

        With *base* — the pairs this order encoded for an earlier
        labelling of the same nodes — only the nodes in *changed* are
        looked at; the caller vouches that every other node's label equals
        its label in *base*.  A node whose JSON label equals its label in
        *base* is skipped; if none is left, *base* itself is returned.
        Otherwise the result is a copy of *base* with the changed pairs
        written and only their chunks rebuilt: every other chunk is the
        same string as in *base*, which is never mutated.  Label texts
        are memoised per call: a labelling's labels are nodes of one graph
        or null, so it has few distinct ones.
        """
        nodes, json_nodes = self.nodes, self.json_nodes
        if len(nodes) != len(labels):
            raise ValueError(
                "label order covers %d nodes, the result %d"
                % (len(nodes), len(labels))
            )
        size = self.size
        texts: Dict[Any, Tuple[Any, str]] = {}
        if base is None:
            chunks = [
                self._chunk_text(labels, lo, texts)
                for lo in range(0, len(nodes), size)
            ]
            return EncodedLabels(
                [
                    (json_node, texts[labels[node]][0])
                    for node, json_node in zip(nodes, json_nodes)
                ],
                chunks,
            )
        position = self.position
        moved: Dict[int, Any] = {}
        for node in changed:
            i = position[node]
            json_label = _jsonable_label(labels[node])
            if base[i][1] != json_label:
                moved[i] = json_label
        if not moved:
            return base
        chunks = list(base.chunks)
        for c in {i // size for i in moved}:
            chunks[c] = self._chunk_text(labels, c * size, texts)
        encoded = EncodedLabels(base, chunks)
        for i, json_label in moved.items():
            encoded[i] = (json_nodes[i], json_label)
        return encoded

    def _chunk_text(
        self,
        labels: Mapping[Any, Any],
        lo: int,
        texts: Dict[Any, Tuple[Any, str]],
    ) -> str:
        """The text of the chunk of *labels* that starts at position *lo*.

        *texts* memoises each label's ``(json_label, text)``.
        """
        hi = lo + self.size
        parts = []
        for prefix, node in zip(self.prefixes[lo:hi], self.nodes[lo:hi]):
            label = labels[node]
            memo = texts.get(label)
            if memo is None:
                json_label = _jsonable_label(label)
                memo = texts[label] = (json_label, _json_text(json_label))
            parts.append(prefix + memo[1] + "]")
        return ",".join(parts)


def record_payload(record: QueryRecord) -> Dict[str, Any]:
    """The ``query`` field of a ``query`` response: how it was answered."""
    return {
        "kind": record.kind,
        "recomputed_nodes": record.recomputed_nodes,
        "total_nodes": record.total_nodes,
    }


def result_payload(
    result: NearCliqueResult,
    record: Optional[QueryRecord] = None,
    order: Optional[LabelOrder] = None,
    base: Optional[EncodedLabels] = None,
    changed: Iterable[Any] = (),
) -> Dict[str, Any]:
    """Serialise a query answer for the ``query`` response.

    ``labels`` is an :class:`EncodedLabels` of ``[node, label-or-null]``
    pairs (JSON object keys must be strings, which would silently
    stringify integer node labels) in :class:`LabelOrder`; pass *order* to
    reuse one computed for the same node set, and *base* / *changed* to
    patch an earlier answer's labels, re-encoding O(region + sqrt(n))
    of them: the result shares *base*'s unchanged chunks, or is *base*
    itself when no label in *changed* moved (:meth:`LabelOrder.encode`).  The pairs are tuples,
    which encode as the same JSON arrays: a tuple of scalars drops out of
    the garbage collector's tracking after its first collection, a list
    never does, so retained payloads do not make later collections
    slower.  Candidates carry the fields the experiments read.
    """
    if order is None:
        order = LabelOrder(result.labels)
    payload: Dict[str, Any] = {
        "aborted": result.aborted,
        "abort_reason": result.abort_reason,
        "sample": _sorted_values(_jsonable_label(v) for v in result.sample),
        "labels": order.encode(result.labels, base, changed),
        "candidates": [
            {
                "component_root": _jsonable_label(c.component_root),
                "size": c.size,
                "survived": c.survived,
                "members": _sorted_values(
                    _jsonable_label(v) for v in c.members
                ),
            }
            for c in result.candidates
        ],
    }
    if result.metrics is not None:
        payload["metrics"] = {
            "rounds": result.metrics.rounds,
            "total_messages": result.metrics.total_messages,
            "total_bits": result.metrics.total_bits,
            "max_message_bits": result.metrics.max_message_bits,
        }
    if record is not None:
        payload["query"] = record_payload(record)
    return payload
