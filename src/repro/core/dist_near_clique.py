"""The distributed runner for Algorithm ``DistNearClique``.

:class:`DistNearCliqueRunner` executes the full algorithm of Section 4 on a
:class:`repro.congest.network.Network` built from the input graph: the
sampling stage, the exploration stage and the decision stage, as the sequence
of CONGEST phases defined in :mod:`repro.core.phases` (see that module's
table mapping phases to the paper's numbered steps).

The runner owns everything that is *not* part of the distributed computation
proper:

* building the network and seeding per-node randomness;
* the deterministic running-time guard of Section 4.1 (abort when the
  realised sample exceeds ``max_sample_size`` — the round and local-work cost
  of the exploration stage is exponential in |S|, Lemma 5.1);
* accounting (merging the per-phase round/message metrics);
* harvesting the per-node outputs into a :class:`NearCliqueResult`, including
  the per-component candidate sets used by the experiments.

Given the same sample, the runner's output labels are identical to those of
:class:`repro.core.reference.CentralizedNearCliqueFinder` — this equivalence
is asserted by the integration tests and is the algorithm's correctness
argument in executable form.
"""

from __future__ import annotations

import random
from contextlib import ExitStack
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

import networkx as nx

from repro.congest.config import CongestConfig
from repro.congest.engine import CongestSession, Engine, get_engine
from repro.congest.errors import RoundLimitExceeded
from repro.congest.metrics import RunMetrics
from repro.congest.network import Network
from repro.congest.node import Protocol
from repro.congest.pipeline import (
    ArtifactCache,
    CachedPrefix,
    PhaseEffects,
    PipelinePlan,
    compile_pipeline,
    restore_contexts,
    snapshot_contexts,
)
from repro.congest.scheduler import run_protocol
from repro.core import phases
from repro.core.params import AlgorithmParameters
from repro.core.result import CandidateSet, NearCliqueResult
from repro.core import near_clique
from repro.primitives.bfs_tree import (
    KEY_PARENT,
    KEY_PARTICIPANT,
    KEY_ROOT,
    MinIdBFSTreeProtocol,
    ParentNotificationProtocol,
)
from repro.primitives.broadcast import TreeBroadcastProtocol
from repro.primitives.convergecast import KEY_COLLECTED, ConvergecastCollectProtocol


class DistNearCliqueRunner:
    """Run ``DistNearClique`` on a graph and collect the result.

    Parameters
    ----------
    parameters:
        A fully-specified :class:`AlgorithmParameters`.  Alternatively pass
        ``epsilon`` and ``sample_probability`` (plus any other parameter
        field) as keyword arguments and the record is built for you.
    rng:
        Source of randomness for the per-node coins (sampling stage) and any
        optional estimation sampling.  Defaults to a fresh ``random.Random``.
    config:
        CONGEST simulator configuration.  By default the runner enforces the
        one-message-per-edge rule and a ``12·log₂ n``-bit message budget
        (checked, not just measured).
    engine:
        Execution-engine selector (``"reference"``, ``"batched"``,
        ``"async"`` or ``"sharded"``, see :mod:`repro.congest.engine`)
        applied on top of *config*, or an already-constructed
        :class:`repro.congest.engine.Engine` instance (how benchmarks pass
        a stats-collecting engine).  ``None`` keeps the configuration's
        engine (``"batched"`` by default).  All engines produce
        bit-identical outputs and protocol metrics, so this is an
        execution-model / throughput knob; under ``"async"`` every phase
        runs over asynchronous links behind an alpha synchronizer and the
        merged metrics additionally report the control-message overhead,
        and under ``"sharded"`` every phase steps ``config.shards`` graph
        partitions in parallel.

    The runner executes all of its phases inside **one execution session**
    (:meth:`repro.congest.engine.Engine.open_session`): with the default
    ``CongestConfig.session_mode == "per-call"`` that is a thin wrapper and
    nothing changes, while ``"persistent"`` lets the sharded engine's
    process backend keep one worker pool and one shared-memory CSR mapping
    across all ~14 phases instead of rebuilding them per phase (the E16
    benchmark gates the resulting speedup).  After :meth:`run` returns,
    :attr:`last_session_stats` holds the session's accounting (a
    :class:`repro.congest.sharding.ShardingStats` with per-phase partials
    for persistent sharded sessions, ``None`` otherwise).

    The exploration + decision stages are executed through the **pipeline
    compiler** (:mod:`repro.congest.pipeline`): the phase sequence's
    declared effects are validated once per runner and compiled into a
    :class:`~repro.congest.pipeline.PipelinePlan`.  With the default
    ``CongestConfig.pipeline_mode == "off"`` every phase is its own group
    and execution is exactly the historical per-phase loop; with
    ``"fuse"`` maximal runs of declared phases execute through one
    ``session.execute_fused`` call — one worker re-arm and one context
    fold-back per *group* on the persistent process backend, bit-identical
    outputs, rounds and per-phase metrics either way.  The compiled plan of
    the last :meth:`run` is exposed as :attr:`last_pipeline_plan`.

    Passing an :class:`~repro.congest.pipeline.ArtifactCache` as
    *artifact_cache* additionally caches the tree-building prefix (BFS
    tree + parent notification) keyed by the CSR fingerprint, the realised
    sample and the global inputs: a repeat run on the same network and
    sample replays the recorded context snapshot and per-phase metrics
    instead of rebuilding the tree.  The cache is skipped (and its
    ``skips`` counter bumped) on sessions whose worker-side state is
    authoritative between phases — the persistent process backend — where
    a parent-side restore would desync the pool.
    """

    #: Phases of :meth:`_phase_sequence` covered by the artifact cache: the
    #: BFS tree build and the parent notification, which depend only on the
    #: topology and the realised sample.
    _CACHE_PREFIX_LEN = 2

    #: Context keys written before the exploration stage starts (sampling
    #: outputs and forced-sample inputs) — the compiled plan's external
    #: inputs.
    _EXTERNAL_READS = frozenset(
        {KEY_PARTICIPANT, phases.KEY_IN_SAMPLE, phases.KEY_FORCED_SAMPLE}
    )

    def __init__(
        self,
        parameters: Optional[AlgorithmParameters] = None,
        *,
        epsilon: Optional[float] = None,
        sample_probability: Optional[float] = None,
        max_sample_size: Optional[int] = 18,
        min_output_size: int = 0,
        use_step4f_sampling: bool = False,
        step4f_sample_size: int = 32,
        rng: Optional[random.Random] = None,
        config: Optional[CongestConfig] = None,
        engine: Union[None, str, Engine] = None,
        artifact_cache: Optional[ArtifactCache] = None,
    ) -> None:
        if parameters is None:
            if epsilon is None or sample_probability is None:
                raise ValueError(
                    "provide either an AlgorithmParameters record or both "
                    "epsilon and sample_probability"
                )
            parameters = AlgorithmParameters(
                epsilon=epsilon,
                sample_probability=sample_probability,
                max_sample_size=max_sample_size,
                min_output_size=min_output_size,
                use_step4f_sampling=use_step4f_sampling,
                step4f_sample_size=step4f_sample_size,
            )
        self.parameters = parameters
        self.rng = rng or random.Random()
        self.config = config
        self.engine = engine
        self.artifact_cache = artifact_cache
        #: Accounting of the execution session the last :meth:`run` opened
        #: (``None`` for engines that collect none — every per-call session).
        self.last_session_stats = None
        #: The :class:`~repro.congest.pipeline.PipelinePlan` the last
        #: :meth:`run` executed (``None`` before the first run).
        self.last_pipeline_plan: Optional[PipelinePlan] = None
        #: Compiled plans memoised per (mode, cache-active) — the phase
        #: sequence is static, so validation and planning run once per
        #: runner, not once per run.
        self._plan_cache: Dict[Tuple[str, bool], Tuple[Tuple[Protocol, ...], PipelinePlan]] = {}

    # ------------------------------------------------------------------
    def run(
        self,
        graph: Optional[nx.Graph] = None,
        sample: Optional[Iterable[int]] = None,
        *,
        network: Optional[Network] = None,
        session: Optional["CongestSession"] = None,
    ) -> NearCliqueResult:
        """Execute the algorithm once.

        Parameters
        ----------
        graph:
            The communication graph.  Integer node labels are used as the
            O(log n)-bit identifiers; other labels are relabelled internally
            and translated back in the result.
        sample:
            Optional predetermined sample S (in the graph's original labels).
            When omitted — the normal mode — every node flips its own biased
            coin in the sampling phase.
        network:
            An already-built :class:`~repro.congest.network.Network` to run
            on instead of *graph* (exactly one of the two must be given).
            The runner then performs no seeding of its own — the network's
            RNG state as passed determines the per-node coins, which is how
            the service layer reproduces a fresh run on a long-lived
            network (``Network.reseed`` + inject).
        session:
            An open :class:`~repro.congest.engine.CongestSession` bound to
            *network* to run every phase through.  The runner does **not**
            close an injected session (the owner reuses it across queries);
            without one it opens and closes its own, as before.

        Returns
        -------
        NearCliqueResult
            Labels, candidate sets, the realised sample, and the merged
            round/message metrics of the whole execution.
        """
        params = self.parameters
        if network is None:
            if graph is None:
                raise ValueError("provide a graph or an already-built network")
            network = Network(graph, seed=self.rng.getrandbits(48))
        elif graph is not None:
            raise ValueError("provide either graph or network, not both")
        if session is not None and session.network is not network:
            raise ValueError(
                "the injected session is bound to a different network"
            )
        config = self.config or CongestConfig().with_log_budget(network.n)
        if isinstance(self.engine, Engine):
            engine_obj = self.engine
        else:
            if self.engine is not None:
                config = config.with_engine(self.engine)
            engine_obj = get_engine(config.engine)

        global_inputs = {
            phases.GLOBAL_EPSILON: params.epsilon,
            phases.GLOBAL_SAMPLE_PROBABILITY: params.sample_probability,
            phases.GLOBAL_MIN_OUTPUT_SIZE: params.min_output_size,
            phases.GLOBAL_STEP4F_SAMPLING: params.use_step4f_sampling,
            phases.GLOBAL_STEP4F_SAMPLE_SIZE: params.step4f_sample_size,
        }
        per_node_inputs = None
        if sample is not None:
            # Inputs for the members only: under the forced-sample global a
            # node without one is out of S, so the others keep empty states.
            global_inputs[phases.GLOBAL_FORCED_SAMPLE] = True
            per_node_inputs = {
                network.id_of[label]: {phases.KEY_FORCED_SAMPLE: True}
                for label in sample
            }

        metrics = RunMetrics()
        self.last_session_stats = None

        # One session spans every phase: with the default per-call mode it
        # is a thin wrapper; in persistent mode the process backend's pool
        # and shared-memory CSR mapping are built once and re-armed per
        # phase instead of respawned ~14 times.  An injected session is
        # used as-is and stays open for its owner; only a self-opened one
        # is closed here (on every exit path, via the stack).
        stack = ExitStack()
        if session is None:
            session = stack.enter_context(engine_obj.open_session(network, config))
        with stack:
            self.last_session_stats = session.stats

            # --- sampling stage ---------------------------------------------
            sampling = phases.SamplingPhase()
            result = run_protocol(
                network,
                sampling,
                config=config,
                global_inputs=global_inputs,
                per_node_inputs=per_node_inputs,
                session=session,
            )
            metrics.merge(result.metrics, label=sampling.name)
            # Sampling writes its keys only at sampled nodes, which all
            # have a context.
            sample_ids = {
                ctx.node_id
                for ctx in network.contexts.live.values()
                if ctx.state.get(phases.KEY_IN_SAMPLE)
            }

            if (
                params.max_sample_size is not None
                and len(sample_ids) > params.max_sample_size
            ):
                return self._aborted_result(
                    network,
                    sample_ids,
                    metrics,
                    "sample size %d exceeds the deterministic bound %d"
                    % (len(sample_ids), params.max_sample_size),
                )

            # --- exploration + decision stages ------------------------------
            cache = self.artifact_cache
            use_cache = cache is not None and not getattr(
                session, "worker_state_authoritative", False
            )
            if cache is not None and not use_cache:
                cache.skips += 1
            prefix, plan = self._compiled_plan(config.pipeline_mode, use_cache)
            self.last_pipeline_plan = plan

            try:
                if use_cache:
                    self._run_cached_prefix(
                        network,
                        prefix,
                        cache,
                        sample_ids,
                        global_inputs,
                        config,
                        session,
                        metrics,
                    )
                for group in plan.groups:
                    if group.fused:
                        group_results = session.execute_fused(
                            list(group.protocols),
                            config=config,
                            reuse_contexts=True,
                        )
                        for phase, phase_result in zip(
                            group.protocols, group_results
                        ):
                            metrics.merge(phase_result.metrics, label=phase.name)
                    else:
                        phase = group.protocols[0]
                        phase_result = run_protocol(
                            network,
                            phase,
                            config=config,
                            reuse_contexts=True,
                            session=session,
                        )
                        metrics.merge(phase_result.metrics, label=phase.name)
            except RoundLimitExceeded as exc:
                return self._aborted_result(
                    network, sample_ids, metrics, "round limit exceeded: %s" % exc
                )

        return self._harvest(network, sample_ids, metrics)

    # ------------------------------------------------------------------
    def _compiled_plan(
        self, mode: str, use_cache: bool
    ) -> Tuple[Tuple[Protocol, ...], PipelinePlan]:
        """Compile (once per runner) the exploration/decision plan.

        With the artifact cache active the tree-building prefix is carved
        off and executed through the cache; its writes and produced
        artifacts then count as external inputs of the suffix plan.
        """
        key = (mode, use_cache)
        memo = self._plan_cache.get(key)
        if memo is not None:
            return memo
        sequence = self._phase_sequence()
        prefix_len = self._CACHE_PREFIX_LEN if use_cache else 0
        prefix = tuple(sequence[:prefix_len])
        external_reads = set(self._EXTERNAL_READS)
        external_artifacts: List[str] = []
        for protocol in prefix:
            declared = protocol.effects()
            external_reads |= declared.writes
            external_artifacts.extend(declared.produces)
        plan = compile_pipeline(
            sequence[prefix_len:],
            mode=mode,
            external_reads=external_reads,
            external_artifacts=external_artifacts,
        )
        memo = (prefix, plan)
        self._plan_cache[key] = memo
        return memo

    def _run_cached_prefix(
        self,
        network: Network,
        prefix: Tuple[Protocol, ...],
        cache: ArtifactCache,
        sample_ids: Set[int],
        global_inputs: Dict[str, object],
        config: CongestConfig,
        session: "CongestSession",
        metrics: RunMetrics,
    ) -> None:
        """Run the tree-building prefix through the artifact cache.

        A hit restores the recorded post-prefix context snapshot and merges
        the recorded per-phase metrics — bit-identical to rebuilding,
        including message accounting.  A miss runs the prefix normally and
        records it.
        """
        key = (
            network.csr_fingerprint(),
            frozenset(sample_ids),
            tuple(sorted(global_inputs.items())),
        )
        ordered = network.contexts.materialize()
        entry = cache.lookup(key)
        if entry is not None:
            restore_contexts(ordered, entry.frames)
            for label, _outputs, phase_metrics in entry.phase_results:
                metrics.merge(phase_metrics, label=label)
            return
        recorded: List[Tuple[str, object, object]] = []
        for phase in prefix:
            phase_result = run_protocol(
                network,
                phase,
                config=config,
                reuse_contexts=True,
                session=session,
            )
            metrics.merge(phase_result.metrics, label=phase.name)
            recorded.append((phase.name, phase_result.outputs, phase_result.metrics))
        cache.store(
            key,
            CachedPrefix(
                frames=snapshot_contexts(ordered), phase_results=recorded
            ),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _phase_sequence() -> List[Protocol]:
        """The exploration + decision stages, in execution order."""
        return [
            MinIdBFSTreeProtocol(),
            ParentNotificationProtocol(),
            ConvergecastCollectProtocol(),
            TreeBroadcastProtocol(
                input_key=KEY_COLLECTED, output_key=phases.KEY_COMP_BCAST
            ),
            phases.CompDisseminationPhase(),
            phases.LocalSubsetPhase(),
            phases.UpAggregationPhase(
                membership_key=phases.KEY_K_MEMBERSHIP,
                result_key=phases.KEY_K_ROOT_SIZES,
                label="nc-k-aggregation",
            ),
            phases.DownBroadcastPhase(
                items_fn=phases.k_size_items,
                store_fn=phases.store_k_size,
                label="nc-k-size-broadcast",
                # k_size_items / store_k_size touch the root-size and
                # per-node size tables beyond the base phase's footprint.
                extra_effects=PhaseEffects(
                    reads=(phases.KEY_K_ROOT_SIZES, phases.KEY_K_SIZES),
                    writes=(phases.KEY_K_SIZES,),
                ),
            ),
            phases.KAnnouncePhase(),
            phases.UpAggregationPhase(
                membership_key=phases.KEY_T_MEMBERSHIP,
                result_key=phases.KEY_T_ROOT_SIZES,
                pre_start=phases.build_t_membership,
                root_finalize=phases.select_best_subset,
                label="nc-t-aggregation",
                # build_t_membership derives T_ε(X) from the K-tables and
                # the announcer sets; select_best_subset picks the best
                # subset from the component membership at each root.
                extra_effects=PhaseEffects(
                    reads=(
                        phases.KEY_K_MEMBERSHIP,
                        phases.KEY_K_NEIGHBOR_ANNOUNCERS,
                        phases.KEY_COMP_MEMBERS,
                    ),
                    writes=(phases.KEY_T_MEMBERSHIP, phases.KEY_BEST),
                    globals_read=(
                        phases.GLOBAL_EPSILON,
                        phases.GLOBAL_STEP4F_SAMPLING,
                        phases.GLOBAL_STEP4F_SAMPLE_SIZE,
                    ),
                ),
            ),
            phases.DownBroadcastPhase(
                items_fn=phases.best_items,
                store_fn=phases.store_best,
                label="nc-best-broadcast",
                extra_effects=PhaseEffects(
                    reads=(phases.KEY_BEST, phases.KEY_BEST_KNOWN),
                    writes=(phases.KEY_BEST_KNOWN,),
                ),
            ),
            phases.VotePhase(),
            phases.FinalLabelPhase(),
        ]

    # ------------------------------------------------------------------
    def _aborted_result(
        self,
        network: Network,
        sample_ids: Set[int],
        metrics: RunMetrics,
        reason: str,
    ) -> NearCliqueResult:
        labels = {network.label_of[v]: None for v in network.node_ids}
        return NearCliqueResult(
            labels=labels,
            sample=frozenset(network.label_of[v] for v in sample_ids),
            epsilon=self.parameters.epsilon,
            sample_probability=self.parameters.sample_probability,
            aborted=True,
            abort_reason=reason,
            metrics=metrics,
        )

    def _harvest(
        self,
        network: Network,
        sample_ids: Set[int],
        metrics: RunMetrics,
    ) -> NearCliqueResult:
        """Assemble the :class:`NearCliqueResult` from the final node states.

        A node without a context never held state or output, so it is
        labelled ``None``: the labels start as ``None`` for every node, in
        ascending id order, and only the built contexts are read.
        """
        contexts = network.contexts
        translate = network.label_of

        labels: Dict[int, Optional[int]] = dict.fromkeys(
            map(translate.__getitem__, contexts)
        )
        # candidate sets, one per component, harvested from the roots
        t_members_by_root: Dict[Tuple[int, int], Set[int]] = {}
        for ctx in contexts.live.values():
            node_id = ctx.node_id
            if ctx.output is not None:
                labels[translate[node_id]] = translate[ctx.output]
            t_membership: Dict[int, Set[int]] = ctx.state.get(
                phases.KEY_T_MEMBERSHIP, {}
            )
            for root, indices in t_membership.items():
                for index in indices:
                    t_members_by_root.setdefault((root, index), set()).add(node_id)

        candidates: List[CandidateSet] = []
        components: List[FrozenSet[int]] = []
        for node_id in sorted(sample_ids):
            ctx = contexts[node_id]
            if ctx.state.get(KEY_PARENT) is not None or not ctx.state.get(
                phases.KEY_IN_SAMPLE
            ):
                continue
            root = ctx.state[KEY_ROOT]
            members = ctx.state.get(phases.KEY_COMP_MEMBERS, (node_id,))
            best_index, _best_size = ctx.state.get(phases.KEY_BEST, (0, 0))
            survived = bool(ctx.state.get(phases.KEY_SURVIVED, False))
            t_set = frozenset(
                translate[v] for v in t_members_by_root.get((root, best_index), set())
            )
            subset = (
                near_clique.subset_from_index(tuple(members), best_index)
                if best_index
                else frozenset()
            )
            candidates.append(
                CandidateSet(
                    component_root=translate[root],
                    component_members=frozenset(translate[v] for v in members),
                    subset_index=best_index,
                    subset=frozenset(translate[v] for v in subset),
                    members=t_set,
                    survived=survived,
                )
            )
            components.append(frozenset(translate[v] for v in members))

        return NearCliqueResult(
            labels=labels,
            candidates=candidates,
            sample=frozenset(translate[v] for v in sample_ids),
            components=tuple(components),
            epsilon=self.parameters.epsilon,
            sample_probability=self.parameters.sample_probability,
            metrics=metrics,
        )
