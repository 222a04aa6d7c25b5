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
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.congest.config import CongestConfig
from repro.congest.engine import CongestSession, get_engine
from repro.congest.errors import RoundLimitExceeded
from repro.congest.metrics import RunMetrics
from repro.congest.network import Network
from repro.congest.node import Protocol
from repro.congest.scheduler import run_protocol
from repro.core import phases
from repro.core.params import AlgorithmParameters
from repro.core.result import CandidateSet, NearCliqueResult
from repro.core import near_clique
from repro.primitives.bfs_tree import (
    KEY_PARENT,
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
        CONGEST simulator configuration.  Every run enforces the
        one-message-per-edge rule; by default the runner also checks a
        ``12·log₂ n``-bit message budget (checked, not just measured).
        Its ``engine`` field is the execution-engine selector
        (``"reference"``, ``"vectorized"`` — the default — or
        ``"sharded"``, or an :class:`repro.congest.engine.Engine`
        instance; see :mod:`repro.congest.engine`).  All engines produce
        bit-identical outputs and protocol metrics, so that choice is a
        throughput knob; under ``"sharded"`` every phase steps
        ``config.shards`` graph partitions.

    The runner executes all of its phases inside **one execution session**
    (:meth:`repro.congest.engine.Engine.open_session`): for in-process
    engines that is a thin wrapper, while the sharded engine's process
    backend keeps one worker pool and one shared-memory CSR mapping across
    all ~14 phases instead of rebuilding them per phase.  After :meth:`run`
    returns, :attr:`last_session_stats` holds the session's accounting (a
    :class:`repro.congest.sharding.ShardingStats` with per-phase partials
    for process sessions, ``None`` otherwise).

    After sampling, the exploration and decision stages run as one
    ``session.execute_fused`` call over :meth:`_phase_sequence`: one worker
    re-arm and one context fold-back for all 13 phases on the process
    backend, a plain ``execute`` loop on every other session.
    """

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
    ) -> None:
        self.parameters = AlgorithmParameters.resolve(
            parameters,
            epsilon,
            sample_probability,
            max_sample_size=max_sample_size,
            min_output_size=min_output_size,
            use_step4f_sampling=use_step4f_sampling,
            step4f_sample_size=step4f_sample_size,
        )
        self.rng = rng or random.Random()
        self.config = config
        #: Accounting of the execution session the last :meth:`run` opened
        #: (``None`` for engines that collect none — every in-process one).
        self.last_session_stats = None

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
            The runner then performs no seeding of its own: the network's
            run seed determines every node's seed and coin, which is how
            the service layer reproduces a fresh run on a long-lived
            network (``Network.reseed``).
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

        # One session spans every phase: for in-process engines it is a
        # thin wrapper; the process backend's pool and shared-memory CSR
        # mapping are built once and re-armed per phase instead of
        # respawned ~14 times.  An injected session is used as-is and stays
        # open for its owner; only a self-opened one is closed here (on
        # every exit path, via the stack).
        stack = ExitStack()
        if session is None:
            session = stack.enter_context(
                get_engine(config.engine).open_session(network, config)
            )
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
            phase_sequence = self._phase_sequence()
            try:
                phase_results = session.execute_fused(
                    phase_sequence, config=config, reuse_contexts=True
                )
                for phase, phase_result in zip(phase_sequence, phase_results):
                    metrics.merge(phase_result.metrics, label=phase.name)
            except RoundLimitExceeded as exc:
                return self._aborted_result(
                    network, sample_ids, metrics, "round limit exceeded: %s" % exc
                )

        return self._harvest(network, sample_ids, metrics)

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
            ),
            phases.KAnnouncePhase(),
            phases.UpAggregationPhase(
                membership_key=phases.KEY_T_MEMBERSHIP,
                result_key=phases.KEY_T_ROOT_SIZES,
                pre_start=phases.build_t_membership,
                root_finalize=phases.select_best_subset,
                label="nc-t-aggregation",
            ),
            phases.DownBroadcastPhase(
                items_fn=phases.best_items,
                store_fn=phases.store_best,
                label="nc-best-broadcast",
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
