"""Process-safety rules (PROC0xx).

The sharded engine (``sharding/workers.py``) ships the protocol object to
its worker processes over a pipe at arm time and round-trips every node's
``ctx.state`` / ``ctx.output`` at phase finish — so everything a protocol
stores must be picklable, and nothing may live in module globals (each
worker process has its own copy, silently diverging from the coordinator's).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.lint.core import SEVERITY_ERROR, LintFinding, ModuleUnit, rule
from repro.lint.rules._helpers import walk_function

#: Constructors whose results never survive a pickle round trip.
_UNPICKLABLE_CALLS = frozenset(
    {
        "open",
        "io.open",
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.Event",
        "threading.local",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
        "multiprocessing.Queue",
    }
)


def _is_state_target(node: ast.AST) -> bool:
    """Targets that end up in pickled protocol state.

    ``ctx.state[...]`` / ``state[...]`` (the common local alias) / any
    subscript of an attribute named ``state``, plus ``self.<attr>`` — the
    protocol object itself crosses the pipe at arm time.
    """
    if isinstance(node, ast.Subscript):
        value = node.value
        if isinstance(value, ast.Attribute) and value.attr == "state":
            return True
        if isinstance(value, ast.Name) and value.id == "state":
            return True
        return _is_state_target(value)
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id in (
            "self",
            "ctx",
        )
    return False


def _nested_function_names(func: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in walk_function(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
    return names


def _unpicklable_reason(
    unit: ModuleUnit, value: ast.AST, nested: Set[str]
) -> Optional[str]:
    if isinstance(value, ast.Lambda):
        return "a lambda"
    if isinstance(value, ast.Call):
        target = unit.resolve_call_target(value.func)
        if target in _UNPICKLABLE_CALLS:
            return "a %s() result" % target
    if isinstance(value, ast.Name) and value.id in nested:
        return "a locally defined function (closure)"
    return None


@rule(
    "PROC001",
    SEVERITY_ERROR,
    "protocol state and protocol objects cross worker pipes by pickle; "
    "lambdas, closures, locks and open handles cannot",
)
def unpicklable_in_state(unit: ModuleUnit) -> Iterator[LintFinding]:
    for hook in unit.hooks:
        nested = _nested_function_names(hook.func)
        for node in walk_function(hook.func):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if node.value is None:
                    continue
                targets, value = [node.target], node.value
            else:
                continue
            if not any(_is_state_target(target) for target in targets):
                continue
            reason = _unpicklable_reason(unit, value, nested)
            if reason is not None:
                yield unit.finding(
                    "PROC001",
                    node,
                    "storing %s in protocol state; the process backend "
                    "cannot pickle it across the worker pipe" % reason,
                )


@rule(
    "PROC002",
    SEVERITY_ERROR,
    "per-node state must live in ctx.state; module globals are per-process "
    "copies that silently diverge under the process backend",
)
def global_mutation_in_hook(unit: ModuleUnit) -> Iterator[LintFinding]:
    for hook in unit.hooks:
        for node in walk_function(hook.func):
            if isinstance(node, ast.Global):
                yield unit.finding(
                    "PROC002",
                    node,
                    "protocol hook declares 'global %s'; module-global "
                    "mutation does not propagate across shard workers — "
                    "keep the value in ctx.state or ctx.globals"
                    % ", ".join(node.names),
                )
