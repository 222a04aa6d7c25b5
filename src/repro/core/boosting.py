"""Success-probability boosting (Section 4.1 of the paper).

A single execution of ``DistNearClique`` succeeds with constant probability.
To push the failure probability below a target ``q``, the paper does *not*
simply repeat the whole algorithm: it runs the sampling and exploration
stages λ = log_{1−r} q times independently (r being the single-run success
probability), then applies **one** decision stage in which every node
considers the candidates of all λ versions and acknowledges only the largest
one.  The boosting wrapper multiplies the running time by λ (the λ
explorations, plus a λ-fold congestion slow-down of the shared decision
stage).

:class:`BoostedNearCliqueRunner` implements exactly this combination.  Two
engines are provided:

* ``"centralized"`` (default) — each version's exploration is performed by
  the centralized oracle; fast, used by the large statistical experiments
  (E3, E7).
* ``"distributed"`` — each version's sampling + exploration is executed on
  the CONGEST simulator via :class:`DistNearCliqueRunner`; the combined
  decision is then evaluated with the same acknowledge/abort rule over the
  union of candidates, and the accounted rounds include the paper's λ-fold
  congestion factor for the shared decision stage.

Versions whose sample exceeds the deterministic bound (the Section 4.1
running-time guard) contribute no candidates — they are simply wasted
repetitions, exactly as in the paper's wrapper.
"""

from __future__ import annotations

import math
import random
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import networkx as nx

from repro.congest.config import CongestConfig
from repro.congest.engine import CongestSession, get_engine
from repro.congest.metrics import RunMetrics
from repro.congest.network import Network
from repro.core import near_clique
from repro.core.dist_near_clique import DistNearCliqueRunner
from repro.core.params import AlgorithmParameters
from repro.core.reference import CentralizedNearCliqueFinder
from repro.core.result import CandidateSet, NearCliqueResult


def repetitions_for_failure_probability(q: float, single_run_success: float) -> int:
    """λ = ⌈log_{1−r} q⌉ — repetitions needed to push the failure below q."""
    if not 0 < q < 1:
        raise ValueError("q must lie in (0, 1), got %r" % q)
    if not 0 < single_run_success < 1:
        raise ValueError("single_run_success must lie in (0, 1)")
    return max(1, math.ceil(math.log(q) / math.log(1.0 - single_run_success)))


@dataclass
class _VersionCandidate:
    """One component candidate produced by one boosted version."""

    version: int
    root: int
    members: FrozenSet[int]
    audience: FrozenSet[int]
    size: int
    subset: FrozenSet[int]
    subset_index: int
    component_members: FrozenSet[int]


class BoostedNearCliqueRunner:
    """λ independent sampling+exploration runs, one shared decision stage."""

    def __init__(
        self,
        parameters: Optional[AlgorithmParameters] = None,
        *,
        epsilon: Optional[float] = None,
        sample_probability: Optional[float] = None,
        max_sample_size: Optional[int] = 18,
        min_output_size: int = 0,
        repetitions: Optional[int] = None,
        target_failure: Optional[float] = None,
        single_run_success: float = 0.5,
        engine: str = "centralized",
        congest_config: Optional[CongestConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        parameters = AlgorithmParameters.resolve(
            parameters,
            epsilon,
            sample_probability,
            max_sample_size=max_sample_size,
            min_output_size=min_output_size,
        )
        if engine not in ("centralized", "distributed"):
            raise ValueError("engine must be 'centralized' or 'distributed'")
        if repetitions is None:
            if target_failure is None:
                repetitions = 3
            else:
                repetitions = repetitions_for_failure_probability(
                    target_failure, single_run_success
                )
        if repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        self.parameters = parameters
        self.repetitions = repetitions
        self.engine = engine
        #: Optional :class:`repro.congest.config.CongestConfig` for the
        #: "distributed" variant's simulations; its ``engine`` field picks
        #: the CONGEST execution engine (see :mod:`repro.congest.engine`),
        #: and ``shards`` reaches the sharded one (each distributed
        #: version runs its ~14 phases inside one execution session, so
        #: the sharded engine's pool/shm setup is paid once across them).
        #: Engines are bit-identical by contract, so the boosted
        #: statistics are engine-independent.
        self.congest_config = congest_config
        self.rng = rng or random.Random()
        #: Session accounting from the last :meth:`run`.  All distributed
        #: versions share **one** network and one execution session, so a
        #: stats-collecting session (the process backend) contributes a
        #: single :class:`repro.congest.sharding.ShardingStats` entry whose
        #: counters span every version; the centralized engine and the
        #: in-process engines' sessions record nothing (empty list).
        self.session_stats_by_version: List[Optional[object]] = []

    # ------------------------------------------------------------------
    def run(self, graph: nx.Graph) -> NearCliqueResult:
        """Execute λ versions plus the combined decision stage.

        The ``"distributed"`` variant is **session-aware**: one
        :class:`~repro.congest.network.Network` and one execution session
        span all λ versions.  Each version sets the network's run seed
        from its own RNG stream (``Network.reseed``: node seeds are a
        function of the run seed and the node id, so the boosted outputs
        are bit-identical to λ independent networks), and on the
        process backend the λ × ~14 phases share one worker pool and one
        shared-memory CSR mapping instead of respawning them per version.
        The shared session's accounting appears **once** in
        :attr:`session_stats_by_version` (its counters span all versions).
        """
        adjacency = near_clique.adjacency_sets(graph)
        metrics = RunMetrics()
        self.session_stats_by_version = []
        version_candidates: List[_VersionCandidate] = []
        samples: List[FrozenSet[int]] = []
        components: List[FrozenSet[int]] = []

        network: Optional[Network] = None
        session: Optional[CongestSession] = None
        config: Optional[CongestConfig] = None
        stack = ExitStack()
        if self.engine == "distributed":
            network = Network(graph)
            config = self.congest_config or CongestConfig().with_log_budget(
                network.n
            )
            engine_obj = get_engine(config.engine)
            session = stack.enter_context(
                engine_obj.open_session(network, config)
            )
            if session.stats is not None:
                self.session_stats_by_version.append(session.stats)

        with stack:
            for version in range(self.repetitions):
                candidates, sample, comps, version_metrics = self._run_version(
                    graph, adjacency, version, network, session, config
                )
                version_candidates.extend(candidates)
                samples.append(sample)
                components.extend(comps)
                if version_metrics is not None:
                    metrics.merge(version_metrics, label="version-%d" % version)

        survived = self._combined_decision(version_candidates)

        labels: Dict[int, Optional[int]] = {v: None for v in graph.nodes()}
        result_candidates: List[CandidateSet] = []
        for candidate in version_candidates:
            alive = survived[(candidate.version, candidate.root)] and (
                candidate.size >= self.parameters.min_output_size
            )
            if alive:
                for node in candidate.members:
                    labels[node] = candidate.root
            result_candidates.append(
                CandidateSet(
                    component_root=candidate.root,
                    component_members=candidate.component_members,
                    subset_index=candidate.subset_index,
                    subset=candidate.subset,
                    members=candidate.members,
                    survived=alive,
                )
            )

        union_sample: set = set()
        for sample in samples:
            union_sample |= sample
        return NearCliqueResult(
            labels=labels,
            candidates=result_candidates,
            sample=frozenset(union_sample),
            components=tuple(components),
            epsilon=self.parameters.epsilon,
            sample_probability=self.parameters.sample_probability,
            metrics=metrics if self.engine == "distributed" else None,
        )

    # ------------------------------------------------------------------
    def _run_version(
        self,
        graph: nx.Graph,
        adjacency,
        version: int,
        network: Optional[Network] = None,
        session: Optional[CongestSession] = None,
        config: Optional[CongestConfig] = None,
    ) -> Tuple[List[_VersionCandidate], FrozenSet[int], List[FrozenSet[int]], Optional[RunMetrics]]:
        """One sampling + exploration run (no per-version decision)."""
        params = self.parameters
        if self.engine == "distributed":
            # Distinct per-version run seed, drawn exactly as the
            # one-network-per-version wrapper would have: the version
            # runner's rng seeds the network (here via reseed on the
            # shared network), which determines the per-node coins.
            vrng = random.Random(self.rng.getrandbits(48))
            network.reseed(vrng.getrandbits(48))
            runner = DistNearCliqueRunner(
                parameters=params,
                rng=vrng,
                config=config,
            )
            result = runner.run(network=network, session=session)
            if result.aborted:
                return [], result.sample, [], result.metrics
            candidates = [
                self._from_candidate(adjacency, version, candidate)
                for candidate in result.candidates
            ]
            # The paper's combined decision stage is the single-run decision
            # slowed by a factor of λ (message congestion); account for it.
            decision_metrics = RunMetrics()
            decision_metrics.rounds = result.metrics.rounds * (self.repetitions - 1)
            metrics = result.metrics
            metrics.merge(decision_metrics)
            return candidates, result.sample, list(result.components), metrics

        finder = CentralizedNearCliqueFinder(
            graph, params.epsilon, min_output_size=params.min_output_size
        )
        sample = finder.draw_sample(params.sample_probability, self.rng)
        if params.max_sample_size is not None and len(sample) > params.max_sample_size:
            return [], frozenset(sample), [], None
        candidates = []
        comps = []
        for members in finder.sample_components(sample):
            analysis = finder.analyze_component(members)
            comps.append(frozenset(members))
            candidates.append(
                _VersionCandidate(
                    version=version,
                    root=analysis.root,
                    members=analysis.best_t_set,
                    audience=analysis.audience,
                    size=analysis.best_size,
                    subset=analysis.best_subset,
                    subset_index=analysis.best_index,
                    component_members=frozenset(analysis.members),
                )
            )
        return candidates, frozenset(sample), comps, None

    def _from_candidate(
        self, adjacency, version: int, candidate: CandidateSet
    ) -> _VersionCandidate:
        audience = set(candidate.component_members)
        for member in candidate.component_members:
            audience |= adjacency[member]
        return _VersionCandidate(
            version=version,
            root=candidate.component_root,
            members=candidate.members,
            audience=frozenset(audience),
            size=candidate.size,
            subset=candidate.subset,
            subset_index=candidate.subset_index,
            component_members=candidate.component_members,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _combined_decision(
        candidates: Iterable[_VersionCandidate],
    ) -> Dict[Tuple[int, int], bool]:
        """The single shared decision stage over all versions' candidates.

        Every node in the audience of at least one candidate acknowledges the
        candidate with the largest |T| (ties towards the largest root
        identifier, then the earliest version, mirroring the single-run
        rule); all other candidates adjacent to that node are aborted.
        """
        candidates = list(candidates)
        by_node: Dict[int, List[_VersionCandidate]] = {}
        for candidate in candidates:
            for node in candidate.audience:
                by_node.setdefault(node, []).append(candidate)

        survived = {(c.version, c.root): True for c in candidates}
        for node, adjacent in by_node.items():
            winner = max(adjacent, key=lambda c: (c.size, c.root, -c.version))
            for candidate in adjacent:
                if candidate is not winner:
                    survived[(candidate.version, candidate.root)] = False
        return survived
