"""The long-lived query daemon: a JSONL serve loop over a service.

:class:`NearCliqueDaemon` reads requests line by line (stdin by default),
dispatches them to a :class:`~repro.service.incremental.NearCliqueService`
and writes exactly one JSON response line per request.  It is transport
agnostic — tests drive it with ``io.StringIO`` pairs, the CLI's ``serve``
subcommand wires it to the process's standard streams.

Graceful degradation is the design centre: **no request kills the
daemon**.  A malformed line answers ``bad-request`` — as does a line
longer than ``max_line_length``, which is drained and rejected in bounded
memory instead of buffered whole; a rejected delta answers ``bad-delta``
(the graph provably untouched — validation precedes mutation); a shard
worker crash mid-query answers ``worker-crash``, a barrier-watchdog
timeout ``worker-timeout`` — both tear the session down and let the next
query respawn a fresh pool against the unchanged cached state; anything
else answers ``congest-error`` / ``internal-error``.  Only ``shutdown``
(or EOF on the request stream) ends the loop.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, IO, Optional

from repro.congest.errors import (
    CongestError,
    DeltaError,
    ShardWorkerError,
    ShardWorkerTimeout,
)
from repro.core.result import NearCliqueResult

from repro.service import protocol
from repro.service.incremental import NearCliqueService

__all__ = ["NearCliqueDaemon"]


class NearCliqueDaemon:
    """Serve JSONL requests against one :class:`NearCliqueService`.

    Parameters
    ----------
    service:
        The service instance the daemon owns; :meth:`serve_forever` closes
        it when the loop ends.
    reader / writer:
        Request source and response sink (text streams).  Default to the
        process's stdin/stdout.
    max_line_length:
        Upper bound, in characters, on one request line (default 1 MiB —
        generous for the protocol's biggest legitimate request, a bulk
        delta).  An unbounded ``readline`` would buffer an arbitrarily
        long line wholly in memory before the parser ever saw it; the
        serve loop instead reads at most this many characters, drains the
        remainder of an oversized line chunk-by-chunk, and answers a
        typed ``bad-request``.
    """

    def __init__(
        self,
        service: NearCliqueService,
        reader: Optional[IO[str]] = None,
        writer: Optional[IO[str]] = None,
        max_line_length: int = 1 << 20,
    ) -> None:
        if max_line_length < 1:
            raise ValueError(
                "max_line_length must be positive, got %r" % (max_line_length,)
            )
        self.service = service
        self.reader = reader if reader is not None else sys.stdin
        self.writer = writer if writer is not None else sys.stdout
        self.max_line_length = max_line_length
        #: Set by a ``shutdown`` request; checked by the serve loop.
        self._shutdown = False
        #: The wire order of ``labels``: computed on the first query, then
        #: reused (the service's node set is fixed for its lifetime).
        self._label_order: Optional[protocol.LabelOrder] = None
        #: The last query's result and response payload: a cached answer
        #: returns the same result object and reuses the payload, an
        #: incremental answer spliced from it patches its ``labels``.
        self._answered: Optional[NearCliqueResult] = None
        self._answer_payload: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def _drain_oversized_line(self) -> None:
        """Consume the rest of an oversized line in bounded chunks."""
        while True:
            chunk = self.reader.readline(self.max_line_length)
            if not chunk or chunk.endswith("\n"):
                return

    def serve_forever(self) -> int:
        """Run the serve loop until ``shutdown`` or EOF; returns #requests."""
        served = 0
        limit = self.max_line_length
        try:
            while True:
                # ``readline(limit + 1)``: a line of exactly ``limit``
                # characters plus its newline still arrives intact; only a
                # strictly longer one comes back truncated (no trailing
                # newline before EOF would look the same, but then the
                # drain below is a no-op and the verdict unchanged).
                line = self.reader.readline(limit + 1)
                if not line:
                    break  # EOF
                if len(line) > limit and not line.endswith("\n"):
                    self._drain_oversized_line()
                    self._emit(
                        protocol.error_response(
                            "bad-request",
                            "request line exceeds the %d-character limit"
                            % limit,
                        )
                    )
                    served += 1
                    continue
                if not line.strip():
                    continue
                response = self.handle_line(line)
                self._emit(response)
                served += 1
                if self._shutdown:
                    break
        finally:
            self.service.close()
        return served

    def _emit(self, response: Dict[str, Any]) -> None:
        self.writer.write(protocol.encode_response(response) + "\n")
        self.writer.flush()

    # ------------------------------------------------------------------
    def handle_line(self, line: str) -> Dict[str, Any]:
        """Answer one request line; never raises (the degradation contract)."""
        try:
            request = protocol.parse_request(line)
        except protocol.RequestError as exc:
            return protocol.error_response(exc.code, str(exc))
        try:
            return self._dispatch(request)
        except DeltaError as exc:
            return protocol.error_response("bad-delta", str(exc))
        except ShardWorkerTimeout as exc:
            # The barrier watchdog gave up on a hung worker and the
            # session's retry budget (if any) is spent.  Same recovery
            # story as a crash — drop the session, keep the cached state —
            # but the response names the distinct failure mode.
            self.service.stats.observe_timeout()
            self.service.recover()
            return protocol.error_response("worker-timeout", str(exc))
        except ShardWorkerError as exc:
            # A worker died mid-query.  The cached result and pending
            # dirty set are untouched; drop the session so the next query
            # respawns a fresh pool, and keep serving.
            self.service.stats.observe_crash()
            self.service.recover()
            return protocol.error_response("worker-crash", str(exc))
        except CongestError as exc:
            return protocol.error_response("congest-error", str(exc))
        except Exception as exc:  # pragma: no cover - defensive backstop
            return protocol.error_response(
                "internal-error", "%s: %s" % (type(exc).__name__, exc)
            )

    def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        cmd = request["cmd"]
        if cmd == "query":
            return protocol.ok_response("query", **self._query(request.get("seed", 0)))
        if cmd == "delta":
            additions, removals = protocol.delta_edges(request)
            record = self.service.apply_delta(additions, removals)
            return protocol.ok_response(
                "delta",
                epoch=record.epoch,
                added=len(record.added),
                removed=len(record.removed),
                touched=len(record.touched),
            )
        if cmd == "stats":
            return protocol.ok_response("stats", **self.service.stats.as_dict())
        # cmd == "shutdown" (parse_request admits nothing else)
        self._shutdown = True
        return protocol.ok_response("shutdown")

    def _query(self, seed: int) -> Dict[str, Any]:
        """A ``query`` response's payload: its dirty region's labels encoded.

        A cached answer (the same result object as the last query) reuses
        the last payload with only its ``query`` record replaced; an
        incremental answer spliced from the last answered result patches
        the last ``labels`` with its region's labels, re-encoding only the
        chunks whose labels moved.  Any other answer encodes every label.
        """
        outcome = self.service.query(seed=seed)
        result = outcome.result
        if result is self._answered:
            payload = dict(self._answer_payload)
            payload["query"] = protocol.record_payload(outcome.record)
        else:
            if self._label_order is None:
                self._label_order = protocol.LabelOrder(result.labels)
            base = None
            if outcome.base is not None and outcome.base is self._answered:
                base = self._answer_payload["labels"]
            payload = protocol.result_payload(
                result, outcome.record, self._label_order, base, outcome.region
            )
        self._answered, self._answer_payload = result, payload
        return payload
