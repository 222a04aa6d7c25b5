"""Unit tests for the phase-graph pipeline compiler.

The differential suite holds the fused plan to bit-identity through real
engines; this module covers the compiler itself — effect declarations,
dataflow validation and fusion planning — on synthetic phases, where every
edge case is cheap to construct.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.congest.node import NodeContext, Protocol
from repro.congest.pipeline import (
    PhaseEffects,
    PipelineValidationError,
    compile_pipeline,
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
    def test_groups_adjacent_declared_phases(self):
        phases = [
            _declared("a", writes=("x",)),
            _declared("b", reads=("x",), writes=("y",)),
            _declared("c", reads=("y",)),
        ]
        plan = compile_pipeline(phases)
        assert [g.label for g in plan.groups] == ["a+b+c"]
        assert plan.fused_phase_count == 2
        assert plan.phases == tuple(phases)

    def test_validates_the_dataflow(self):
        with pytest.raises(PipelineValidationError):
            compile_pipeline([_declared("b", reads=("x",))])

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
        plan = compile_pipeline(phases)
        assert [g.label for g in plan.groups] == [
            "a",
            "opaque",
            "b",
            "optout",
            "polling",
            "c+d",
        ]
        assert [g.fused for g in plan.groups] == [False] * 5 + [True]

    def test_describe_names_every_group(self):
        plan = compile_pipeline([_declared("a"), _declared("b"), _Phase("solo")])
        text = plan.describe()
        assert "a+b" in text and "solo" in text


class TestRunnerIntegration:
    """The composite runner driving the compiler end to end."""

    def test_plan_covers_the_whole_composite(self):
        from repro.congest.config import CongestConfig
        from repro.core.dist_near_clique import DistNearCliqueRunner

        graph = nx.connected_caveman_graph(2, 8)
        runner = DistNearCliqueRunner(
            epsilon=0.25,
            sample_probability=0.05,
            max_sample_size=None,
            rng=random.Random(3),
            config=CongestConfig(engine="vectorized"),
        )
        runner.run(graph, sample=(0, 1, 9))
        plan = runner.last_pipeline_plan
        assert plan is not None and plan.fused_phase_count > 0
        assert [p.name for p in plan.phases] == [
            p.name for p in runner._phase_sequence()
        ]
