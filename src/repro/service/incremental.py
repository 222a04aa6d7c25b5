"""The incremental near-clique query service.

:class:`NearCliqueService` owns one long-lived :class:`Network`, the last
answer, and the cache/repair logic that makes a query after a small
topology delta cost a small fraction of a full run.  A full query runs
the pipeline through :class:`DistNearCliqueRunner`, which opens and closes
its own execution session, so the service holds no session between
queries.

The incremental argument rests on *component locality*: CONGEST messages
never cross connected components, and the algorithm's per-node behaviour
is a function of the node's neighbourhood, its announced system size
``n``, its private seed and the global parameters.  After a batched
delta, define the **dirty region** as the union of the *current* graph's
connected components containing any touched node.  Every clean component
is then bitwise unchanged — its edge set cannot have changed (a changed
edge touches both endpoints) and it cannot have gained or lost members
(a split or merge would involve a touched edge endpoint inside it) — so
its cached per-node outputs, sample coins and candidate sets are exactly
what a fresh full run with the same seed would recompute.  The service
therefore re-executes the pipeline only on the dirty region, a
sub-network sliced from the service's CSR (:meth:`Network.induced`):

* a node's private seed is a function of the run seed and its id alone
  (:mod:`repro.congest.randomness`), so the sub-network, built with the
  query's seed, gives every dirty node the seed it has in a fresh
  ``Network(G, seed=s)``;
* the sub-network announces the *full* system size (``announced_n``) so message-size accounting is identical;
* the Section 4.1 sample guard is evaluated globally: the sub-run's
  bound is ``max_sample_size`` minus the cached sample kept outside the
  region, which aborts exactly when the merged sample would exceed the
  bound (with the full run's abort reason, verbatim);
* candidate sets are spliced — cached candidates whose component is
  disjoint from the region, plus the sub-run's, re-sorted by component
  root as the full harvest orders them.

The result is **bit-identical** (labels, sample, candidates, components)
to a fresh full run on the final edge set — the property the service
tests assert for random delta sequences across engines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.congest.config import CongestConfig
from repro.congest.engine import DEFAULT_ENGINE
from repro.congest.errors import DeltaError
from repro.congest.network import AppliedDelta, Network
from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.core.params import AlgorithmParameters
from repro.core.result import CandidateSet, NearCliqueResult

from repro.service.stats import QueryRecord, ServiceStats

__all__ = ["NearCliqueService", "QueryOutcome"]


@dataclass(frozen=True)
class QueryOutcome:
    """One answered query: the algorithm's result plus how it was answered.

    An incremental answer spliced from a cached result also names that
    result (*base*) and the labels of its dirty region (*region*): every
    node outside the region has the label it has in *base*.
    """

    result: NearCliqueResult
    record: QueryRecord
    base: Optional[NearCliqueResult] = None
    region: FrozenSet[Any] = frozenset()


class NearCliqueService:
    """A long-lived near-clique query service over a mutable graph.

    Parameters
    ----------
    graph:
        The initial communication graph.  Deltas may later add or remove
        edges between its nodes; the node set is fixed for the service's
        lifetime (adding nodes changes every node's announced ``n`` and
        hence invalidates all caching — restart the service instead).
    parameters:
        A full :class:`AlgorithmParameters`, or pass ``epsilon`` /
        ``sample_probability`` (and optional guard fields) as keywords.
    config:
        CONGEST configuration, engine selection included.  Defaults to
        ``CongestConfig().with_log_budget(n)`` exactly as the runner does.
    """

    def __init__(
        self,
        graph: nx.Graph,
        parameters: Optional[AlgorithmParameters] = None,
        *,
        epsilon: Optional[float] = None,
        sample_probability: Optional[float] = None,
        max_sample_size: Optional[int] = 18,
        min_output_size: int = 0,
        config: Optional[CongestConfig] = None,
    ) -> None:
        self.parameters = AlgorithmParameters.resolve(
            parameters,
            epsilon,
            sample_probability,
            max_sample_size=max_sample_size,
            min_output_size=min_output_size,
        )
        self.network = Network(graph)
        self.config = config or CongestConfig().with_log_budget(self.network.n)
        self._runner = DistNearCliqueRunner(
            parameters=self.parameters, config=self.config
        )
        self._cached: Optional[NearCliqueResult] = None
        self._cached_seed: Optional[int] = None
        self._dirty_ids: Set[int] = set()
        self.stats = ServiceStats()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "NearCliqueService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Release the service (idempotent).

        Every query opens and closes its own execution session, so there
        is nothing left to release; the daemon's serve loop still calls
        this when it ends.
        """

    # ------------------------------------------------------------------
    # deltas
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        additions: Iterable[Tuple[Any, Any]] = (),
        removals: Iterable[Tuple[Any, Any]] = (),
    ) -> AppliedDelta:
        """Apply a batched edge update, in the input graph's own labels.

        Validation happens before any mutation (unknown labels, self
        loops, an edge on both sides): a :class:`DeltaError` leaves the
        graph and the cache untouched.
        """
        id_of = self.network.id_of

        def translate(edges: Iterable[Tuple[Any, Any]]) -> List[Tuple[int, int]]:
            pairs: List[Tuple[int, int]] = []
            for u, v in edges:
                if u not in id_of or v not in id_of:
                    unknown = u if u not in id_of else v
                    raise DeltaError(
                        "unknown node %r in delta (the service's node set is "
                        "fixed at construction)" % (unknown,)
                    )
                pairs.append((id_of[u], id_of[v]))
            return pairs

        record = self.network.apply_delta(translate(additions), translate(removals))
        self._dirty_ids.update(record.touched)
        self.stats.observe_delta(record.edges_changed)
        return record

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, seed: int = 0) -> QueryOutcome:
        """Answer one near-clique query for the current topology.

        Cached when nothing changed since an identical query; incremental
        (dirty region only) when the cached result for the same seed can
        be spliced; a full pipeline run otherwise.  All three paths return
        outputs bit-identical to ``DistNearCliqueRunner`` on a fresh
        ``Network(graph, seed=seed)`` of the current edge set.
        """
        if not self._dirty_ids and self._cached is not None:
            if self._cached_seed == seed and not self._cached.aborted:
                record = QueryRecord(
                    kind="cached", recomputed_nodes=0, total_nodes=self.network.n
                )
                self.stats.observe_query(record)
                return QueryOutcome(self._cached, record)
        if (
            self._cached is None
            or self._cached_seed != seed
            or self._cached.aborted
        ):
            return self._full_query(seed)
        outcome = self._incremental_query(seed)
        if outcome is None:  # sub-run aborted for a non-sample reason
            return self._full_query(seed)
        return outcome

    def _finish(
        self,
        result: NearCliqueResult,
        seed: int,
        record: QueryRecord,
        base: Optional[NearCliqueResult] = None,
        region: FrozenSet[Any] = frozenset(),
    ) -> QueryOutcome:
        self._cached = result
        self._cached_seed = seed
        self._dirty_ids.clear()
        self.stats.observe_query(record)
        return QueryOutcome(result, record, base, region)

    def _full_query(self, seed: int) -> QueryOutcome:
        self.network.reseed(seed)
        result = self._runner.run(network=self.network)
        record = QueryRecord(
            kind="full",
            recomputed_nodes=self.network.n,
            total_nodes=self.network.n,
        )
        return self._finish(result, seed, record)

    # -- the incremental path ------------------------------------------
    def _dirty_region(self) -> List[int]:
        """Current-graph components containing any dirty node (sorted ids)."""
        # A node is marked when pushed, so each is pushed and visited once.
        seen: Set[int] = set(self._dirty_ids)
        stack = list(seen)
        neighbors = self.network.neighbors
        while stack:
            for u in neighbors(stack.pop()):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return sorted(seen)

    def _incremental_query(self, seed: int) -> Optional[QueryOutcome]:
        cached = self._cached
        assert cached is not None
        network = self.network
        region = self._dirty_region()
        region_labels: FrozenSet[Any] = frozenset(
            network.label_of[v] for v in region
        )
        kept_sample = frozenset(cached.sample) - region_labels

        # Same run seed, same node ids: the dirty nodes get the seeds of
        # the full run; clean nodes already hold their outputs in the cache.
        sub_network = network.induced(region, seed=seed, announced_n=network.n)

        # The deterministic sample guard is global: budget the sub-run
        # with whatever the kept cached sample leaves of the bound.
        params = self.parameters
        if params.max_sample_size is not None:
            params = replace(
                params,
                max_sample_size=params.max_sample_size - len(kept_sample),
            )
        # Any engine yields bit-identical outputs and metrics (the engine
        # contract), so the region re-run uses the default in-process
        # engine rather than spinning up shard workers for a small
        # subgraph.  The config otherwise stays the service's — same
        # message budget (derived from the full n), same parameters.
        sub_runner = DistNearCliqueRunner(
            parameters=params, config=self.config.with_engine(DEFAULT_ENGINE)
        )
        sub_result = sub_runner.run(network=sub_network)

        record = QueryRecord(
            kind="incremental",
            recomputed_nodes=len(region),
            total_nodes=network.n,
        )

        if sub_result.aborted:
            reason = sub_result.abort_reason or ""
            if not reason.startswith("sample size"):
                return None  # round-limit etc.: let the caller run full
            # A fresh full run would realise kept ∪ sub samples and abort
            # on the global bound; reproduce its result verbatim.
            merged_sample = kept_sample | frozenset(sub_result.sample)
            assert self.parameters.max_sample_size is not None
            result = NearCliqueResult(
                labels={network.label_of[v]: None for v in network.node_ids},
                sample=merged_sample,
                epsilon=self.parameters.epsilon,
                sample_probability=self.parameters.sample_probability,
                aborted=True,
                abort_reason="sample size %d exceeds the deterministic bound %d"
                % (len(merged_sample), self.parameters.max_sample_size),
                metrics=sub_result.metrics,
            )
            return self._finish(result, seed, record)

        result = self._splice(cached, sub_result, region, region_labels)
        return self._finish(result, seed, record, cached, region_labels)

    def _splice(
        self,
        cached: NearCliqueResult,
        sub_result: NearCliqueResult,
        region: List[int],
        region_labels: FrozenSet[Any],
    ) -> NearCliqueResult:
        """Merge the region re-run into the cached full result."""
        network = self.network
        label_of = network.label_of

        def out_label(value: Optional[int]) -> Optional[Any]:
            return None if value is None else label_of[value]

        # The sub-network's nodes are this network's integer ids, so the
        # sub-result is keyed (and valued) in ids; translate on the way in.
        labels: Dict[Any, Optional[Any]] = dict(cached.labels)
        for v in region:
            labels[label_of[v]] = out_label(sub_result.labels[v])

        sample = (frozenset(cached.sample) - region_labels) | frozenset(
            label_of[v] for v in sub_result.sample
        )

        merged: List[Tuple[CandidateSet, FrozenSet[Any]]] = [
            (candidate, component)
            for candidate, component in zip(cached.candidates, cached.components)
            if candidate.component_members.isdisjoint(region_labels)
        ]
        for candidate, component in zip(
            sub_result.candidates, sub_result.components
        ):
            translated = CandidateSet(
                component_root=label_of[candidate.component_root],
                component_members=frozenset(
                    label_of[v] for v in candidate.component_members
                ),
                subset_index=candidate.subset_index,
                subset=frozenset(label_of[v] for v in candidate.subset),
                members=frozenset(label_of[v] for v in candidate.members),
                survived=candidate.survived,
            )
            merged.append(
                (translated, frozenset(label_of[v] for v in component))
            )
        # The full harvest emits candidates in ascending component-root id
        # (the root is the smallest sampled id of its component).
        merged.sort(key=lambda pair: network.id_of[pair[0].component_root])

        return NearCliqueResult(
            labels=labels,
            candidates=[candidate for candidate, _ in merged],
            sample=sample,
            components=tuple(component for _, component in merged),
            epsilon=cached.epsilon,
            sample_probability=cached.sample_probability,
            metrics=sub_result.metrics,
        )
