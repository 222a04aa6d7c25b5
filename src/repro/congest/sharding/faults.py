"""Deterministic fault injection for the sharded execution stack.

The fault-tolerance machinery of the sharded engine — the barrier
watchdog (``CongestConfig.round_timeout``), supervised retry
(``CongestConfig.retry_policy``) and the graceful degradation ladder —
only earns trust if every failure path it guards is *reachable on
demand*.  This module provides that reachability: a seeded, picklable
:class:`FaultPlan` threaded through ``CongestConfig.fault_plan`` that
injects failures at named points of the worker protocol, reproducibly by
seed, with zero cost when absent (the default ``fault_plan=None`` skips
every hook).

Vocabulary
----------
Fault *points* (:data:`FAULT_POINTS`) name where in the worker's
arm/start/round/finish command loop a fault fires; fault *kinds*
(:data:`FAULT_KINDS`) name what happens there:

``"crash"``
    The worker process dies via ``os._exit`` — no exception, no
    traceback, just EOF on its pipe.  The coordinator surfaces it as
    :class:`~repro.congest.errors.ShardWorkerError`.
``"hang"``
    The worker sleeps ``hang_seconds`` *then continues normally*.  With
    no watchdog this is exactly the pathological slow round the original
    blocking barrier could not distinguish from progress; with
    ``round_timeout`` armed it trips
    :class:`~repro.congest.errors.ShardWorkerTimeout` (pick
    ``hang_seconds`` comfortably above the deadline).
``"eof"``
    The worker closes its pipe and exits its loop cleanly — the
    silent-death shape (kill -9, OOM) without the exit-code noise.
``"corrupt"``
    The worker overwrites an incoming :class:`~repro.congest.sharding.wire.WireBatch`
    payload blob with garbage before decoding, so the decode raises
    :class:`~repro.congest.errors.WireCorruptionError`.  Only meaningful
    at the ``"round"`` point, and only fires on a batch that actually
    carries messages.

Determinism and retries
-----------------------
A :class:`FaultSpec` fires *once* per worker lifetime (per
:class:`FaultInjector`), only when its ``attempt`` equals the plan's
current attempt — ``FaultPlan.for_attempt(k)`` is how the supervised
retry loop re-threads the plan so that, by default, retries run clean
(specs carry ``attempt=0``).  Injector state lives in the worker and
survives light re-arms, but a *respawned* worker starts fresh — which is
why :meth:`FaultPlan.seeded` always binds each generated spec to a
concrete phase name: an unbound (``phase=None``) spec in a hand-built
plan will re-fire in every later phase after a respawn, which is exactly
what you want for "this shard always crashes" torture tests and exactly
what you do not want in a differential suite.

Only worker processes fail
--------------------------
Faults fire inside the sharded engine's worker processes and nowhere
else.  A degraded session runs its phases in-process on the vectorized
engine, which has no worker process to lose and ignores any plan — so a
config carrying a plan degrades without re-injecting the fault it is
recovering from.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

__all__ = [
    "FAULT_KINDS",
    "FAULT_POINTS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
]

#: Protocol points where a fault may fire, matching the worker command loop.
FAULT_POINTS: Tuple[str, ...] = ("arm", "start", "round", "finish")

#: What happens when a spec fires (see the module docstring).
FAULT_KINDS: Tuple[str, ...] = ("crash", "hang", "eof", "corrupt")


@dataclass(frozen=True)
class FaultSpec:
    """One injected failure: *kind* at *point*, scoped by shard/phase/round.

    Parameters
    ----------
    point / kind:
        One of :data:`FAULT_POINTS` / :data:`FAULT_KINDS`.  ``"corrupt"``
        requires ``point="round"`` (it damages an incoming round batch).
    shard:
        Shard index whose worker carries the fault.
    phase:
        Protocol name (e.g. ``"min-id-bfs-tree"``) the spec is bound to;
        ``None`` matches every phase — but see the module docstring for
        the re-fire caveat across respawns.
    round_index:
        For ``point="round"``: the 1-based round the fault fires in;
        ``None`` fires in the first round of the matching phase.
    attempt:
        The retry attempt (0-based) the spec belongs to.  Specs for
        attempt 0 make retries run clean; a spec repeated at attempts 0
        and 1 defeats a two-attempt policy and forces degradation.
    hang_seconds:
        Sleep length for ``kind="hang"``.
    """

    point: str
    kind: str
    shard: int = 0
    phase: Optional[str] = None
    round_index: Optional[int] = None
    attempt: int = 0
    hang_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(
                "unknown fault point %r; available points: %s"
                % (self.point, ", ".join(FAULT_POINTS))
            )
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                "unknown fault kind %r; available kinds: %s"
                % (self.kind, ", ".join(FAULT_KINDS))
            )
        if self.kind == "corrupt" and self.point != "round":
            raise ValueError(
                "corrupt faults damage an incoming round batch, so they "
                "require point='round' (got point=%r)" % (self.point,)
            )
        if self.shard < 0:
            raise ValueError("shard must be >= 0, got %d" % self.shard)
        if self.round_index is not None and self.round_index < 1:
            raise ValueError(
                "round_index is 1-based; got %r" % (self.round_index,)
            )
        if self.attempt < 0:
            raise ValueError("attempt must be >= 0, got %d" % self.attempt)
        if not self.hang_seconds > 0:
            raise ValueError(
                "hang_seconds must be positive, got %r" % (self.hang_seconds,)
            )


@dataclass(frozen=True)
class FaultPlan:
    """A picklable set of :class:`FaultSpec` plus the current retry attempt.

    The plan crosses the worker fork/pickle boundary inside the config, so
    it is frozen and built only from picklable primitives.  ``attempt`` is
    the supervised-retry loop's cursor: a spec fires only when its own
    ``attempt`` equals the plan's, and :meth:`for_attempt` re-threads the
    cursor without touching the specs.  Only worker processes read a
    plan; in-process engines run clean under any plan (see the module
    docstring).
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: Optional[int] = None
    attempt: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ValueError(
                    "FaultPlan.specs must contain FaultSpec instances, "
                    "got %r" % (spec,)
                )
        if self.attempt < 0:
            raise ValueError("attempt must be >= 0, got %d" % self.attempt)

    def for_attempt(self, attempt: int) -> "FaultPlan":
        """Return a copy whose cursor is *attempt* (specs unchanged)."""
        if attempt == self.attempt:
            return self
        return replace(self, attempt=attempt)

    @classmethod
    def seeded(
        cls,
        seed: int,
        shards: int,
        phases: Sequence[str],
        faults: int = 2,
        kinds: Sequence[str] = ("crash", "eof", "corrupt"),
        hang_seconds: float = 60.0,
    ) -> "FaultPlan":
        """Draw a random plan of *faults* specs, reproducibly from *seed*.

        Every generated spec is bound to a concrete phase from *phases*
        (never ``phase=None``) so it cannot re-fire in later phases after
        a recovery respawn resets the worker-side fired state, and all
        specs carry ``attempt=0`` so retries replay clean.  ``"hang"`` is
        not in the default *kinds* because an unwatched hang blocks the
        barrier for ``hang_seconds`` — include it only alongside a
        ``round_timeout``.
        """
        if not phases:
            raise ValueError("seeded plans need at least one phase name")
        if shards < 1:
            raise ValueError("shards must be >= 1, got %d" % shards)
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(
                    "unknown fault kind %r; available kinds: %s"
                    % (kind, ", ".join(FAULT_KINDS))
                )
        rng = random.Random(seed)
        specs = []
        for _ in range(faults):
            kind = rng.choice(tuple(kinds))
            point = "round" if kind == "corrupt" else rng.choice(FAULT_POINTS)
            specs.append(
                FaultSpec(
                    point=point,
                    kind=kind,
                    shard=rng.randrange(shards),
                    phase=rng.choice(tuple(phases)),
                    round_index=rng.choice((None, 1, 2)) if point == "round" else None,
                    attempt=0,
                    hang_seconds=hang_seconds,
                )
            )
        return cls(specs=tuple(specs), seed=seed)


class FaultInjector:
    """Per-worker fault state: which specs target me, which already fired.

    Lives inside a process-backend worker (one per shard) for the worker's
    whole lifetime: the fired set survives light re-arms between phases,
    so a phase-bound spec cannot re-fire when its phase is re-armed on the
    same worker, and a respawn (which rebuilds the harness and with it the
    injector) naturally re-arms only specs whose phase has not run on the
    new worker yet.
    """

    __slots__ = ("plan", "shard_index", "phase", "_fired")

    def __init__(self, plan: FaultPlan, shard_index: int) -> None:
        self.plan = plan
        self.shard_index = shard_index
        self.phase: Optional[str] = None
        self._fired = set()

    def begin_phase(self, phase: str) -> None:
        """Record the protocol name the next fires are scoped to."""
        self.phase = phase

    def _match(
        self, point: str, round_index: Optional[int], kinds: Tuple[str, ...]
    ) -> Optional[FaultSpec]:
        plan = self.plan
        for spec in plan.specs:
            if spec in self._fired:
                continue
            if spec.kind not in kinds:
                continue
            if spec.point != point or spec.shard != self.shard_index:
                continue
            if spec.attempt != plan.attempt:
                continue
            if spec.phase is not None and spec.phase != self.phase:
                continue
            if point == "round" and spec.round_index is not None:
                if spec.round_index != round_index:
                    continue
            return spec
        return None

    def fire(self, point: str, round_index: Optional[int] = None) -> bool:
        """Fire any crash/hang/eof spec matching *point*.

        Returns True when an ``"eof"`` spec fired (the worker loop should
        break, closing its pipe); crash exits the process here; hang
        sleeps and then returns False (the worker continues normally —
        distinguishing a hang from a crash is the watchdog's job, not
        the injector's).
        """
        spec = self._match(point, round_index, ("crash", "hang", "eof"))
        if spec is None:
            return False
        self._fired.add(spec)
        if spec.kind == "crash":
            # Mirror a segfault: no cleanup, no exception propagation —
            # the coordinator only ever sees EOF on the pipe.
            os._exit(3)
        if spec.kind == "hang":
            time.sleep(spec.hang_seconds)
            return False
        return True  # eof

    def corrupt_batch(self, batch, round_index: Optional[int]):
        """Damage *batch*'s payload blob if a corrupt spec matches.

        Only fires on a batch that actually carries messages — an empty
        blob decodes without reading a byte, so corrupting it would be a
        silent no-op that consumed the spec.
        """
        spec = self._match("round", round_index, ("corrupt",))
        if spec is None or not len(batch.senders):
            return batch
        self._fired.add(spec)
        # Tag byte 255 is outside the payload vocabulary, so the very
        # first table entry's decode raises.
        return batch._replace(payloads=b"\xff" * max(1, len(batch.payloads)))

