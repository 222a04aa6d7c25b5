"""Wire-vocabulary rule (WIRE0xx).

Message payloads are restricted to the vocabulary every layer of the stack
agrees on — ``None``, ``bool``, ``int``, ``float``, ``str`` and nested
tuples thereof.  ``estimate_payload_bits`` rejects anything else when a
``Message`` derives its own bit charge.  A message built with an explicit
``bits=`` skips that estimate, and no engine checks its payload at run
time: the process backend pickles whatever it is given.  This rule is the
only vocabulary check for explicit-bits payloads, on every engine, so it
flags the construction site statically.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.core import SEVERITY_ERROR, LintFinding, ModuleUnit, rule
from repro.lint.rules._helpers import (
    is_message_call,
    message_payload_expr,
    walk_function,
)

_BAD_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "frozenset", "bytearray", "bytes"}
)


def _vocabulary_violation(node: ast.AST) -> Optional[str]:
    """Describe the first out-of-vocabulary form in a payload expression."""
    for child in ast.walk(node):
        if isinstance(child, (ast.List, ast.ListComp)):
            return "a list"
        if isinstance(child, (ast.Dict, ast.DictComp)):
            return "a dict"
        if isinstance(child, (ast.Set, ast.SetComp)):
            return "a set"
        if isinstance(child, ast.Lambda):
            return "a lambda"
        if isinstance(child, ast.Constant) and isinstance(
            child.value, bytes
        ):
            return "a bytes literal"
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id in _BAD_CONSTRUCTORS
        ):
            return "a %s(...) value" % child.func.id
    return None


@rule(
    "WIRE001",
    SEVERITY_ERROR,
    "payloads must stay inside the wire vocabulary (None, bool, int, float, "
    "str, nested tuples) that the bit accounting charges",
)
def payload_vocabulary(unit: ModuleUnit) -> Iterator[LintFinding]:
    for hook in unit.hooks:
        for node in walk_function(hook.func):
            if not is_message_call(node, unit):
                continue
            payload = message_payload_expr(node)
            if payload is None:
                continue
            violation = _vocabulary_violation(payload)
            if violation is not None:
                yield unit.finding(
                    "WIRE001",
                    payload,
                    "message payload contains %s, which is outside the wire "
                    "vocabulary; serialise structured data into tuples"
                    % violation,
                )
