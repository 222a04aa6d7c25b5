"""Accounting for the near-clique service.

One :class:`ServiceStats` instance lives for the service's lifetime and
counts what the daemon's ``stats`` command reports: queries by kind (full /
incremental / cached), deltas absorbed and nodes recomputed.  :class:`QueryRecord` is the per-query slice the service returns
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
        into the cached result) or ``"cached"`` (no dirty nodes: the cached
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
        }
