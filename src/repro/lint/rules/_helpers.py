"""AST helpers shared by the rule modules."""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

#: Methods that enqueue protocol traffic (NodeContext and Outbox spellings).
SEND_METHODS = frozenset(
    {"send", "send_all", "push", "push_all", "push_many"}
)


def walk_function(func: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` over a function body (the function node itself excluded)."""
    for stmt in getattr(func, "body", ()):
        for node in ast.walk(stmt):
            yield node


def call_attr_name(node: ast.AST) -> Optional[str]:
    """For ``<recv>.<attr>(...)`` calls, the attribute name; else ``None``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def is_send_call(node: ast.AST) -> bool:
    return call_attr_name(node) in SEND_METHODS


def contains_send(node: ast.AST) -> bool:
    return any(is_send_call(child) for child in ast.walk(node))


def bound_names(func: ast.AST) -> Set[str]:
    """Names bound inside a function: parameters, assignments, nested defs.

    Used to tell a genuine builtin reference (``id``) from a local that
    happens to shadow it.
    """
    names: Set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        for arg in (
            args.posonlyargs + args.args + args.kwonlyargs
        ):
            names.add(arg.arg)
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
    for node in walk_function(func):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(node.name)
    return names


def is_set_expression(node: ast.AST) -> bool:
    """Syntactic forms whose iteration order is set order (nondeterministic)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def message_payload_expr(node: ast.Call) -> Optional[ast.AST]:
    """The payload expression of a ``Message(...)`` construction, if any.

    Accepts the keyword form and the second positional argument (the
    signature is ``Message(kind, payload=None, bits=-1)``).
    """
    for keyword in node.keywords:
        if keyword.arg == "payload":
            return keyword.value
    if len(node.args) >= 2:
        return node.args[1]
    return None


def is_message_call(node: ast.AST, unit) -> bool:
    """True for calls that construct ``repro.congest.message.Message``."""
    if not isinstance(node, ast.Call):
        return False
    target = unit.resolve_call_target(node.func)
    if target is None:
        return False
    return target == "repro.congest.message.Message" or target.endswith(
        ".Message"
    ) or target == "Message"
