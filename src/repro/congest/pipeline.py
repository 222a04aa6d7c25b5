"""Phase-graph pipeline compiler for composite CONGEST runs.

The composite ``DistNearClique`` pipeline is a *statically known* composition
of CONGEST subroutines: every phase reads context state some earlier phase
wrote (the BFS tree, the component membership, the candidate subsets) and the
order never changes.  Running it phase-at-a-time through a session therefore
pays coordination costs — a worker re-arm, a context fold-back, a fresh
barrier stream — that the dataflow does not require.

This module turns declared per-phase effects into an executable plan:

* :class:`PhaseEffects` — what a :class:`~repro.congest.node.Protocol`
  reads/writes: context-state keys, globals, the output register, and named
  cross-phase artifacts it produces or consumes (``bfs-tree``, ``leader``,
  ``component-map``).  Protocols declare one via
  :meth:`~repro.congest.node.Protocol.effects`; the PIPE001 lint rule keeps
  the declaration honest against the hook bodies.
* :func:`validate_pipeline` — checks the phase graph's dataflow: every
  declared read must be satisfied by an earlier write (or a declared external
  input) and every consumed artifact must have been produced.  A pipeline
  that lies about its effects fails here, at compile time, not as a silent
  wrong answer.
* :func:`compile_pipeline` — plans the run: maximal runs of *adjacent,
  declared, fusable* phases become one :class:`PhaseGroup`, executed by a
  single session ``execute_fused`` (one arm, one context fold-back, one
  barrier stream per group).  Undeclared or explicitly unfusable phases are
  singleton groups, so the plan degrades gracefully to the sequential one
  when nothing is declared.

Fusion never changes semantics: phases inside a group still execute
sequentially to termination in declared order; only the parent-side
coordination between them (re-arm shipping, context fold-back) is elided.
On in-process sessions ``execute_fused`` is a plain ``execute`` loop; the
differential suite checks the process session's fused groups against the
reference engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.congest.node import Protocol

__all__ = [
    "ARTIFACT_BFS_TREE",
    "ARTIFACT_TREE_CHILDREN",
    "ARTIFACT_LEADER",
    "ARTIFACT_COMPONENT_MAP",
    "PhaseEffects",
    "PhaseGroup",
    "PipelinePlan",
    "PipelineValidationError",
    "compile_pipeline",
    "validate_pipeline",
]

#: Cross-phase artifact names used by the ``DistNearClique`` composition.
ARTIFACT_BFS_TREE = "bfs-tree"
ARTIFACT_TREE_CHILDREN = "tree-children"
ARTIFACT_LEADER = "leader"
ARTIFACT_COMPONENT_MAP = "component-map"


class PipelineValidationError(ValueError):
    """A phase graph whose declared dataflow cannot execute as ordered."""


@dataclass(frozen=True)
class PhaseEffects:
    """Declared context footprint of one protocol.

    ``reads`` / ``writes`` are context-state keys; a key both read and
    written (read-modify-write) belongs in both sets.  ``globals_read``
    names the ``ctx.globals`` entries consulted.  ``writes_output`` marks
    protocols that touch the per-node output register.  ``produces`` /
    ``consumes`` name cross-phase artifacts — coarse, human-meaningful
    handles (the BFS tree, the elected leader) used for dataflow
    validation.  ``fusable=False`` opts a declared phase out of fusion (it
    still participates in validation).
    """

    reads: FrozenSet[str] = frozenset()
    writes: FrozenSet[str] = frozenset()
    globals_read: FrozenSet[str] = frozenset()
    writes_output: bool = False
    produces: Tuple[str, ...] = ()
    consumes: Tuple[str, ...] = ()
    fusable: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "reads", frozenset(self.reads))
        object.__setattr__(self, "writes", frozenset(self.writes))
        object.__setattr__(self, "globals_read", frozenset(self.globals_read))
        object.__setattr__(self, "produces", tuple(self.produces))
        object.__setattr__(self, "consumes", tuple(self.consumes))

    @property
    def touched(self) -> FrozenSet[str]:
        return self.reads | self.writes

    def merged(self, other: Optional["PhaseEffects"]) -> "PhaseEffects":
        """Union of two declarations (used for injected hook callables)."""
        if other is None:
            return self
        return PhaseEffects(
            reads=self.reads | other.reads,
            writes=self.writes | other.writes,
            globals_read=self.globals_read | other.globals_read,
            writes_output=self.writes_output or other.writes_output,
            produces=self.produces + other.produces,
            consumes=self.consumes + other.consumes,
            fusable=self.fusable and other.fusable,
        )


@dataclass(frozen=True)
class PhaseGroup:
    """One pipeline stage: a single phase, or a fused run of phases."""

    protocols: Tuple[Protocol, ...]

    @property
    def fused(self) -> bool:
        return len(self.protocols) > 1

    @property
    def label(self) -> str:
        return "+".join(protocol.name for protocol in self.protocols)


@dataclass(frozen=True)
class PipelinePlan:
    """The compiled plan: ordered groups covering the full phase sequence."""

    groups: Tuple[PhaseGroup, ...]
    notes: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def phases(self) -> Tuple[Protocol, ...]:
        return tuple(p for group in self.groups for p in group.protocols)

    @property
    def fused_phase_count(self) -> int:
        """Phases whose parent-side re-arm/fold the plan elides."""
        return sum(len(g.protocols) - 1 for g in self.groups if g.fused)

    def describe(self) -> str:
        lines = ["pipeline plan:"]
        for index, group in enumerate(self.groups):
            tag = "fused" if group.fused else "solo"
            lines.append("  [%d] %-5s %s" % (index, tag, group.label))
        for note in self.notes:
            lines.append("  note: %s" % note)
        return "\n".join(lines)


def _effects_of(protocol: Protocol) -> Optional[PhaseEffects]:
    declared = protocol.effects()
    if declared is None:
        return None
    if not isinstance(declared, PhaseEffects):
        raise PipelineValidationError(
            "%s.effects() returned %r; expected PhaseEffects or None"
            % (type(protocol).__name__, type(declared).__name__)
        )
    return declared


def validate_pipeline(
    protocols: Sequence[Protocol],
    external_reads: Iterable[str] = (),
    external_artifacts: Iterable[str] = (),
) -> List[str]:
    """Check the declared dataflow of an ordered phase sequence.

    Every declared read must be covered by a write of an earlier phase, the
    phase's own writes (read-modify-write), or ``external_reads`` (inputs
    installed before the pipeline starts — forced-sample flags, globals).
    Every consumed artifact must have been produced earlier or arrive via
    ``external_artifacts``.  A declared phase's
    :attr:`~repro.congest.node.Protocol.scope` keys must be among its
    declared reads.  Returns the compiler notes (one per undeclared phase);
    raises :class:`PipelineValidationError` on a dataflow violation.
    """
    notes: List[str] = []
    available: set = set(external_reads)
    produced: set = set(external_artifacts)
    for position, protocol in enumerate(protocols):
        declared = _effects_of(protocol)
        if declared is None:
            notes.append(
                "phase %d (%s) declares no effects; treated as opaque"
                % (position, protocol.name)
            )
            # An opaque phase may write anything; stop validating reads
            # against the accumulated write set — later declared phases can
            # legitimately read keys the opaque phase produced.
            available.add(None)
            continue
        unread = set(protocol.scope or ()) - declared.reads
        if unread:
            raise PipelineValidationError(
                "phase %d (%s) declares scope keys %s that its effects() "
                "does not read" % (position, protocol.name, sorted(unread))
            )
        if None not in available:
            missing = declared.reads - available - declared.writes
            if missing:
                raise PipelineValidationError(
                    "phase %d (%s) reads %s before any earlier phase or "
                    "external input writes them"
                    % (position, protocol.name, sorted(missing))
                )
        for artifact in declared.consumes:
            if artifact not in produced:
                raise PipelineValidationError(
                    "phase %d (%s) consumes artifact %r which no earlier "
                    "phase produces" % (position, protocol.name, artifact)
                )
        available.update(declared.writes)
        produced.update(declared.produces)
    return notes


def compile_pipeline(
    protocols: Sequence[Protocol],
    external_reads: Iterable[str] = (),
    external_artifacts: Iterable[str] = (),
) -> PipelinePlan:
    """Validate the phase sequence and plan its execution.

    Maximal runs of adjacent declared-and-fusable phases become one fused
    group; every other phase is a singleton group.
    """
    phases = tuple(protocols)
    notes = validate_pipeline(phases, external_reads, external_artifacts)
    groups: List[PhaseGroup] = []
    current: List[Protocol] = []

    def flush() -> None:
        if current:
            groups.append(PhaseGroup(protocols=tuple(current)))
            del current[:]

    for protocol in phases:
        declared = _effects_of(protocol)
        fusable = (
            declared is not None
            and declared.fusable
            and getattr(protocol, "quiesce_terminates", False)
        )
        if not fusable:
            flush()
            groups.append(PhaseGroup(protocols=(protocol,)))
            continue
        current.append(protocol)
    flush()
    return PipelinePlan(groups=tuple(groups), notes=tuple(notes))
