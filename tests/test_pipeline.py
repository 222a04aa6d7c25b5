"""Unit tests for the phase-graph pipeline compiler.

The differential suite holds ``pipeline_mode="fuse"`` to bit-identity
through real engines; this module covers the compiler itself — effect
declarations, dataflow validation, fusion planning, context snapshots and
the cross-run artifact cache — on synthetic phases, where every edge case
is cheap to construct.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.congest.network import Network
from repro.congest.node import NodeContext, Protocol
from repro.congest.pipeline import (
    ArtifactCache,
    CachedPrefix,
    PhaseEffects,
    PipelineValidationError,
    compile_pipeline,
    restore_contexts,
    snapshot_contexts,
    validate_pipeline,
)


class _Phase(Protocol):
    """A declarable no-op phase for compiler-level tests."""

    def __init__(self, name, effects=None, quiesce=True):
        self.name = name
        self._effects = effects
        self.quiesce_terminates = quiesce

    def effects(self):
        return self._effects

    def on_start(self, ctx: NodeContext) -> None:
        ctx.halt()


def _declared(name, reads=(), writes=(), quiesce=True, **kwargs):
    effects = PhaseEffects(reads=reads, writes=writes, **kwargs)
    return _Phase(name, effects, quiesce=quiesce)


class TestPhaseEffects:
    def test_collections_normalize_to_frozen_forms(self):
        effects = PhaseEffects(reads=["a", "a"], writes=("b",), produces=["t"])
        assert effects.reads == frozenset({"a"})
        assert effects.touched == frozenset({"a", "b"})
        assert effects.produces == ("t",)

    def test_merged_unions_and_propagates_unfusable(self):
        left = PhaseEffects(reads=("a",), writes=("b",), globals_read=("g",))
        right = PhaseEffects(reads=("c",), fusable=False, writes_output=True)
        merged = left.merged(right)
        assert merged.reads == frozenset({"a", "c"})
        assert merged.writes == frozenset({"b"})
        assert merged.globals_read == frozenset({"g"})
        assert merged.writes_output and not merged.fusable
        assert left.merged(None) is left


class TestValidatePipeline:
    def test_read_before_write_raises(self):
        phases = [_declared("w", writes=("x",)), _declared("r", reads=("y",))]
        with pytest.raises(PipelineValidationError, match="'y'"):
            validate_pipeline(phases)

    def test_earlier_write_own_write_and_external_input_satisfy_reads(self):
        phases = [
            _declared("w", writes=("x",)),
            _declared("rmw", reads=("x", "x2"), writes=("x2",)),
            _declared("ext", reads=("forced",)),
        ]
        assert validate_pipeline(phases, external_reads=("forced",)) == []

    def test_opaque_phase_opens_validation_and_leaves_a_note(self):
        phases = [
            _Phase("mystery"),  # declares nothing, may write anything
            _declared("r", reads=("whatever",)),
        ]
        notes = validate_pipeline(phases)
        assert len(notes) == 1 and "mystery" in notes[0]

    def test_scope_key_must_be_a_declared_read(self):
        phase = _declared("scoped", reads=("flag",), writes=("out",))
        phase.scope = ("flag", "out")
        with pytest.raises(PipelineValidationError, match="scope keys \\['out'\\]"):
            validate_pipeline([phase], external_reads=("flag",))
        phase.scope = ("flag",)
        assert validate_pipeline([phase], external_reads=("flag",)) == []

    def test_consumed_artifact_must_be_produced(self):
        phases = [_Phase("c", PhaseEffects(consumes=("bfs-tree",)))]
        with pytest.raises(PipelineValidationError, match="bfs-tree"):
            validate_pipeline(phases)
        assert validate_pipeline(phases, external_artifacts=("bfs-tree",)) == []


class TestCompilePipeline:
    def test_off_mode_is_all_singletons_but_still_validates(self):
        phases = [_declared("a", writes=("x",)), _declared("b", reads=("x",))]
        plan = compile_pipeline(phases, mode="off")
        assert [len(g.protocols) for g in plan.groups] == [1, 1]
        assert plan.fused_phase_count == 0
        with pytest.raises(PipelineValidationError):
            compile_pipeline([_declared("b", reads=("x",))], mode="off")

    def test_fuse_mode_groups_adjacent_declared_phases(self):
        phases = [
            _declared("a", writes=("x",)),
            _declared("b", reads=("x",), writes=("y",)),
            _declared("c", reads=("y",)),
        ]
        plan = compile_pipeline(phases, mode="fuse")
        assert [g.label for g in plan.groups] == ["a+b+c"]
        assert plan.fused_phase_count == 2
        assert plan.phases == tuple(phases)

    def test_undeclared_and_unfusable_phases_break_groups(self):
        opaque = _Phase("opaque")
        optout = _Phase("optout", PhaseEffects(fusable=False))
        polling = _declared("polling", quiesce=False)
        phases = [
            _declared("a"),
            opaque,
            _declared("b"),
            optout,
            polling,
            _declared("c"),
            _declared("d"),
        ]
        plan = compile_pipeline(phases, mode="fuse")
        assert [g.label for g in plan.groups] == [
            "a",
            "opaque",
            "b",
            "optout",
            "polling",
            "c+d",
        ]
        assert [g.fused for g in plan.groups] == [False] * 5 + [True]

    def test_max_group_size_bounds_the_replay_unit(self):
        phases = [_declared("p%d" % i) for i in range(5)]
        plan = compile_pipeline(phases, mode="fuse", max_group_size=2)
        assert [len(g.protocols) for g in plan.groups] == [2, 2, 1]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="pipeline mode"):
            compile_pipeline([], mode="eager")

    def test_describe_names_every_group(self):
        plan = compile_pipeline(
            [_declared("a"), _declared("b"), _Phase("solo")], mode="fuse"
        )
        text = plan.describe()
        assert "a+b" in text and "solo" in text and "mode=fuse" in text


class TestContextSnapshots:
    def _contexts(self):
        network = Network(nx.path_graph(4), seed=5)
        network.build_contexts()
        return [network.contexts[i] for i in sorted(network.contexts)]

    def test_round_trip_restores_state_output_rng_and_halt(self):
        contexts = self._contexts()
        contexts[0].state["k"] = [1, 2]
        contexts[1].write_output("kept")
        frames = snapshot_contexts(contexts)
        expected_draws = [ctx.rng.random() for ctx in contexts]

        contexts[0].state["k"].append(3)
        contexts[0].state["junk"] = True
        contexts[1].write_output("clobbered")
        contexts[2].halt()
        for ctx in contexts:
            ctx.rng.random()

        restore_contexts(contexts, frames)
        assert contexts[0].state == {"k": [1, 2]}
        assert contexts[1].output == "kept"
        assert not contexts[2].halted
        assert [ctx.rng.random() for ctx in contexts] == expected_draws

    def test_snapshot_is_isolated_from_later_mutation(self):
        contexts = self._contexts()
        contexts[0].state["k"] = [1]
        frames = snapshot_contexts(contexts)
        contexts[0].state["k"].append(2)  # must not leak into the snapshot
        restore_contexts(contexts, frames)
        assert contexts[0].state["k"] == [1]
        # Restoring twice must hand out independent copies too.
        contexts[0].state["k"].append(9)
        restore_contexts(contexts, frames)
        assert contexts[0].state["k"] == [1]

    def test_length_mismatch_raises(self):
        contexts = self._contexts()
        frames = snapshot_contexts(contexts)
        with pytest.raises(ValueError, match="covers"):
            restore_contexts(contexts[:-1], frames)


class TestArtifactCache:
    def _entry(self):
        return CachedPrefix(frames=[], phase_results=[])

    def test_hit_miss_and_skip_counters(self):
        cache = ArtifactCache()
        assert cache.lookup("k") is None
        cache.store("k", self._entry())
        assert cache.lookup("k") is not None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction_prefers_recently_used(self):
        cache = ArtifactCache(max_entries=2)
        cache.store("a", self._entry())
        cache.store("b", self._entry())
        assert cache.lookup("a") is not None  # refresh "a"
        cache.store("c", self._entry())  # evicts "b"
        assert cache.lookup("b") is None
        assert cache.lookup("a") is not None and cache.lookup("c") is not None
        assert len(cache) == 2

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            ArtifactCache(max_entries=0)


class TestRunnerIntegration:
    """The composite runner driving the compiler and cache end to end."""

    def _runner(self, cache=None, pipeline_mode="fuse"):
        from repro.congest.config import CongestConfig
        from repro.core.dist_near_clique import DistNearCliqueRunner

        return DistNearCliqueRunner(
            epsilon=0.25,
            sample_probability=0.05,
            max_sample_size=None,
            rng=random.Random(3),
            config=CongestConfig(engine="batched", pipeline_mode=pipeline_mode),
            artifact_cache=cache,
        )

    def _fingerprint(self, result):
        m = result.metrics
        return (result.labels, result.sample, m.rounds, m.total_messages, m.total_bits)

    def test_fuse_plan_covers_the_whole_composite(self):
        graph = nx.connected_caveman_graph(2, 8)
        runner = self._runner()
        runner.run(graph, sample=(0, 1, 9))
        plan = runner.last_pipeline_plan
        assert plan is not None and plan.mode == "fuse"
        assert plan.fused_phase_count > 0

    def test_artifact_cache_replay_is_bit_identical(self):
        graph = nx.connected_caveman_graph(2, 8)
        cache = ArtifactCache()
        fresh = self._runner(cache).run(graph, sample=(0, 1, 9))
        assert (cache.hits, cache.misses) == (0, 1)
        replay = self._runner(cache).run(graph, sample=(0, 1, 9))
        assert cache.hits == 1
        assert self._fingerprint(replay) == self._fingerprint(fresh)
        # A different sample is a different key — never a stale tree.
        other = self._runner(cache).run(graph, sample=(0, 2, 9))
        assert cache.misses == 2
        assert other.sample != replay.sample

    def test_cache_skipped_on_worker_authoritative_sessions(self):
        from repro.congest.config import CongestConfig
        from repro.core.dist_near_clique import DistNearCliqueRunner

        graph = nx.connected_caveman_graph(2, 8)
        cache = ArtifactCache()
        runner = DistNearCliqueRunner(
            epsilon=0.25,
            sample_probability=0.05,
            max_sample_size=None,
            rng=random.Random(3),
            config=CongestConfig(
                engine="sharded",
                shards=2,
                shard_backend="process",
                session_mode="persistent",
                pipeline_mode="fuse",
            ),
            artifact_cache=cache,
        )
        runner.run(graph, sample=(0, 1, 9))
        assert cache.skips == 1
        assert (cache.hits, cache.misses) == (0, 0)
