"""Determinism rules (DET0xx).

The engine contract demands bit-identical runs across every backend
(reference, vectorized, sharded serial/process).
That only holds when protocol code draws randomness exclusively from the
node's seeded ``ctx.rng`` stream and never lets interpreter-level accidents
— set iteration order, object addresses, wall clocks — influence what goes
on the wire.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import SEVERITY_ERROR, LintFinding, ModuleUnit, rule
from repro.lint.rules._helpers import (
    bound_names,
    contains_send,
    is_set_expression,
    walk_function,
)

#: Dotted call targets whose results vary per process / per run.  Exact
#: entries match one function; entries ending in ``.`` match a whole module.
_NONDETERMINISTIC_CALLS = (
    "random.",
    "secrets.",
    "os.urandom",
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "uuid.uuid1",
    "uuid.uuid4",
)


def _is_banned(target: str) -> bool:
    for banned in _NONDETERMINISTIC_CALLS:
        if banned.endswith("."):
            if target.startswith(banned) and target != banned.rstrip("."):
                return True
        elif target == banned:
            return True
    return False


@rule(
    "DET001",
    SEVERITY_ERROR,
    "protocol hooks must draw randomness (and never wall-clock time) from "
    "ctx.rng, the per-node seeded stream every engine replays identically",
)
def module_level_randomness(unit: ModuleUnit) -> Iterator[LintFinding]:
    for hook in unit.hooks:
        for node in walk_function(hook.func):
            if not isinstance(node, ast.Call):
                continue
            target = unit.resolve_call_target(node.func)
            if target is not None and _is_banned(target):
                yield unit.finding(
                    "DET001",
                    node,
                    "call to %s() in protocol hook code; use ctx.rng so "
                    "every engine replays the same draws" % target,
                )


@rule(
    "DET002",
    SEVERITY_ERROR,
    "send order is part of the bit-identity contract; iterating a bare set "
    "to emit messages makes it hash-order dependent",
)
def unordered_set_iteration(unit: ModuleUnit) -> Iterator[LintFinding]:
    for hook in unit.hooks:
        for node in walk_function(hook.func):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            if not is_set_expression(node.iter):
                continue
            if any(contains_send(stmt) for stmt in node.body):
                yield unit.finding(
                    "DET002",
                    node.iter,
                    "iteration over a set feeds send/push calls; wrap the "
                    "set in sorted(...) to pin the emission order",
                )


@rule(
    "DET003",
    SEVERITY_ERROR,
    "id() values are process-local object addresses; using them in protocol "
    "code breaks replay across the process backend's workers",
)
def id_based_ordering(unit: ModuleUnit) -> Iterator[LintFinding]:
    for hook in unit.hooks:
        shadowed = "id" in bound_names(hook.func)
        if shadowed:
            continue
        for node in walk_function(hook.func):
            if (
                isinstance(node, ast.Name)
                and node.id == "id"
                and isinstance(node.ctx, ast.Load)
            ):
                yield unit.finding(
                    "DET003",
                    node,
                    "reference to builtin id() in protocol hook code; "
                    "object addresses differ per process and per run",
                )
