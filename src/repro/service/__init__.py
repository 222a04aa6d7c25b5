"""Service mode: streaming deltas, incremental repair, a query daemon.

The paper's algorithm answers one-shot queries; this package turns the
reproduction into a *service* over a graph that changes in small batches
— the regime where the algorithm's locality pays off a second time.
Three layers, each usable on its own:

:mod:`repro.service.incremental`
    :class:`NearCliqueService` — one long-lived
    :class:`~repro.congest.network.Network`, a cached last answer, and
    the component-locality argument that lets a query after
    a delta re-run the CONGEST pipeline on the dirty region only, splice
    the cached clean components back in, and still be **bit-identical**
    to a fresh full run on the final edge set (that module's docstring
    carries the argument; the service tests assert it for random delta
    sequences across engines).

:mod:`repro.service.protocol`
    The JSONL wire protocol — ``query`` / ``delta`` / ``stats`` /
    ``shutdown`` requests, typed error codes, deterministic (sorted-key)
    response encoding.

:mod:`repro.service.daemon`
    :class:`NearCliqueDaemon` — the serve loop behind the CLI's ``serve``
    subcommand.  No request kills it: bad input, rejected deltas and
    simulator errors (shard-worker crashes included) each map to a typed
    error response and the loop keeps serving against the intact cached
    state.

:mod:`repro.service.stats`
    :class:`ServiceStats` / :class:`QueryRecord` — lifetime counters and
    the per-query record (full / incremental / cached, nodes recomputed)
    the acceptance tests assert against.

The underlying delta machinery lives with the structures it mutates:
:meth:`Network.apply_delta <repro.congest.network.Network.apply_delta>`
(validated batch updates that cost the touched nodes' degree: their rows
stay an overlay until a whole-graph read compacts the CSR).
"""

from repro.service.daemon import NearCliqueDaemon
from repro.service.incremental import NearCliqueService, QueryOutcome
from repro.service.protocol import RequestError, parse_request, result_payload
from repro.service.stats import QueryRecord, ServiceStats

__all__ = [
    "NearCliqueDaemon",
    "NearCliqueService",
    "QueryOutcome",
    "QueryRecord",
    "RequestError",
    "ServiceStats",
    "parse_request",
    "result_payload",
]
