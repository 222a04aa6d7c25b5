"""Accounting for the near-clique service.

One :class:`ServiceStats` instance lives for the service's lifetime and
counts what the daemon's ``stats`` command reports: queries by kind (full /
incremental / cached), deltas absorbed, nodes recomputed, worker crashes
survived.  :class:`QueryRecord` is the per-query slice the service returns
inside every :class:`repro.service.incremental.QueryOutcome` — tests assert
against it ("the follow-up query recomputed only the dirty region") and the
daemon serialises it into the query response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: The ways one query can be answered.
QUERY_KINDS: Tuple[str, ...] = ("full", "incremental", "cached")


@dataclass(frozen=True)
class QueryRecord:
    """How one query was answered.

    Attributes
    ----------
    kind:
        ``"full"`` (complete pipeline over the whole network),
        ``"incremental"`` (pipeline over the dirty region only, spliced
        with cached fragments) or ``"cached"`` (no dirty nodes: the cached
        result returned as-is).
    recomputed_nodes / total_nodes:
        Size of the region the CONGEST pipeline actually ran on versus the
        system size — the incremental win is their ratio.
    """

    kind: str
    recomputed_nodes: int
    total_nodes: int

    @property
    def recomputed_fraction(self) -> float:
        if self.total_nodes == 0:
            return 0.0
        return self.recomputed_nodes / self.total_nodes


@dataclass
class ServiceStats:
    """Lifetime counters of one :class:`~repro.service.NearCliqueService`."""

    queries: int = 0
    full_queries: int = 0
    incremental_queries: int = 0
    cached_hits: int = 0
    deltas: int = 0
    edges_changed: int = 0
    nodes_recomputed: int = 0
    worker_crashes: int = 0
    recoveries: int = 0
    #: Phase replays / watchdog timeouts / serial-backend degradations —
    #: the supervised-retry ledger.  ``retries`` and ``degradations`` are
    #: harvested from the session's per-failure
    #: :class:`repro.congest.sharding.engine.RecoveryEvent` records;
    #: ``worker_timeouts`` counts timeouts that *escaped* to the daemon
    #: (a timeout the session retried away is visible in ``retries``
    #: instead — the split avoids double counting one failure).
    retries: int = 0
    worker_timeouts: int = 0
    degradations: int = 0

    def observe_query(self, record: QueryRecord) -> None:
        self.queries += 1
        if record.kind == "full":
            self.full_queries += 1
        elif record.kind == "incremental":
            self.incremental_queries += 1
        else:
            self.cached_hits += 1
        self.nodes_recomputed += record.recomputed_nodes

    def observe_delta(self, edges_changed: int) -> None:
        self.deltas += 1
        self.edges_changed += edges_changed

    def observe_crash(self) -> None:
        self.worker_crashes += 1

    def observe_recovery(self) -> None:
        self.recoveries += 1

    def observe_timeout(self) -> None:
        """A barrier-watchdog timeout escaped a query to the daemon."""
        self.worker_timeouts += 1

    def observe_recovery_event(self, event) -> None:
        """Fold one session-level recovery event into the service ledger.

        *event* is a
        :class:`repro.congest.sharding.engine.RecoveryEvent` harvested
        from the session's stats.  Deliberately does not touch
        ``worker_timeouts``: a timeout the session recovered from is
        counted as its ``retries``/``degradations`` outcome, while
        ``worker_timeouts`` counts only timeouts that escaped to the
        daemon — one failure, one counter.
        """
        if event.action == "retry":
            self.retries += 1
        elif event.action == "degrade":
            self.degradations += 1

    def as_dict(self) -> Dict[str, int]:
        """Flat counters for the daemon's ``stats`` response (JSON-ready)."""
        return {
            "queries": self.queries,
            "full_queries": self.full_queries,
            "incremental_queries": self.incremental_queries,
            "cached_hits": self.cached_hits,
            "deltas": self.deltas,
            "edges_changed": self.edges_changed,
            "nodes_recomputed": self.nodes_recomputed,
            "worker_crashes": self.worker_crashes,
            "recoveries": self.recoveries,
            "retries": self.retries,
            "worker_timeouts": self.worker_timeouts,
            "degradations": self.degradations,
        }
