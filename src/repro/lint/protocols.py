"""Static resolution of protocol classes and protocol hook code.

The rules in :mod:`repro.lint.rules` only apply to *protocol code* — the
methods of (transitive) subclasses of :class:`repro.congest.node.Protocol`
plus the module-level ``ctx``-first hook functions protocol modules pass into
phase constructors (``pre_start`` / ``items_fn`` / ``store_fn`` in
``core/phases.py``).  Engine internals legitimately reach into context
privates and ship whole containers, so scoping is what keeps the analyzer's
findings honest.

Resolution is purely syntactic and cross-module: a first pass indexes every
class definition under each input's package root (local name → qualified name
via the module's import aliases), then a fixpoint marks as protocol classes
exactly those whose base chain reaches ``repro.congest.node.Protocol``.  No
target code is imported — the analyzer works on files that would fail to
import (which is precisely when static checking is most useful).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: The root of the protocol class hierarchy (fully qualified).
PROTOCOL_ROOT = "repro.congest.node.Protocol"


def module_name_for(path: str) -> str:
    """Best-effort dotted module name for *path* (``src/repro/x.py`` → ``repro.x``).

    The name is derived by ascending from the file while ``__init__.py``
    markers are present, so files outside any package (test fixtures, scripts)
    simply use their stem — all that matters is that names are stable within
    one analysis run.
    """
    path = os.path.abspath(path)
    directory, filename = os.path.split(path)
    parts: List[str] = []
    stem = os.path.splitext(filename)[0]
    if stem != "__init__":
        parts.append(stem)
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        parts.append(package)
        if not package:
            break
    return ".".join(reversed(parts))


def package_root_for(path: str) -> str:
    """Topmost package directory containing *path* (or its own directory)."""
    directory = os.path.dirname(os.path.abspath(path))
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        parent = os.path.dirname(directory)
        if parent == directory:
            break
        directory = parent
    return directory


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names bound by imports to the dotted names they denote.

    ``import random`` → ``{"random": "random"}``; ``import numpy as np`` →
    ``{"np": "numpy"}``; ``from repro.congest.node import Protocol as P`` →
    ``{"P": "repro.congest.node.Protocol"}``.  Relative imports keep their
    module part unresolved (rare in this codebase, which imports absolutely).
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".")[0]
                aliases[local] = item.name if item.asname else item.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            for item in node.names:
                if item.name == "*":
                    continue
                local = item.asname or item.name
                aliases[local] = "%s.%s" % (module, item.name) if module else item.name
    return aliases


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render a ``Name`` / ``Attribute`` chain as ``"a.b.c"`` (else ``None``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class ClassInfo:
    """One class definition, as seen by the cross-module index."""

    qualified_name: str
    node: ast.ClassDef
    path: str
    bases: Tuple[str, ...]  # qualified where resolvable
    methods: Set[str] = field(default_factory=set)


class PackageIndex:
    """Cross-module registry of class definitions and protocol resolution."""

    def __init__(self) -> None:
        self.classes: Dict[str, ClassInfo] = {}
        self._protocol_names: Optional[Set[str]] = None

    # ------------------------------------------------------------------
    def add_module(self, path: str, tree: ast.Module) -> None:
        module = module_name_for(path)
        aliases = import_aliases(tree)
        local_classes = {
            stmt.name
            for stmt in ast.walk(tree)
            if isinstance(stmt, ast.ClassDef)
        }

        def resolve(base: ast.AST) -> Optional[str]:
            dotted = dotted_name(base)
            if dotted is None:
                return None  # e.g. a subscripted Generic[...] base
            head, _, rest = dotted.partition(".")
            if not rest and head in local_classes:
                return "%s.%s" % (module, head)
            if head in aliases:
                resolved = aliases[head]
                return "%s.%s" % (resolved, rest) if rest else resolved
            return dotted

        for stmt in ast.walk(tree):
            if not isinstance(stmt, ast.ClassDef):
                continue
            qualified = "%s.%s" % (module, stmt.name) if module else stmt.name
            bases = tuple(
                resolved
                for resolved in (resolve(base) for base in stmt.bases)
                if resolved is not None
            )
            methods = {
                item.name
                for item in stmt.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            self.classes[qualified] = ClassInfo(
                qualified_name=qualified,
                node=stmt,
                path=path,
                bases=bases,
                methods=methods,
            )
        self._protocol_names = None  # force re-resolution

    # ------------------------------------------------------------------
    def protocol_class_names(self) -> Set[str]:
        """Qualified names of every class whose base chain reaches Protocol."""
        if self._protocol_names is None:
            protocol: Set[str] = {PROTOCOL_ROOT}
            changed = True
            while changed:
                changed = False
                for info in self.classes.values():
                    if info.qualified_name in protocol:
                        continue
                    if any(base in protocol for base in info.bases):
                        protocol.add(info.qualified_name)
                        changed = True
            self._protocol_names = protocol
        return self._protocol_names

    # ------------------------------------------------------------------
    def ancestry_defines(
        self, qualified_name: str, method_names: Sequence[str]
    ) -> bool:
        """True when the class or any indexed ancestor (excluding the root
        ``Protocol`` base itself, whose hooks are deliberate no-ops) defines
        one of *method_names*."""
        seen: Set[str] = set()
        stack = [qualified_name]
        while stack:
            current = stack.pop()
            if current in seen or current == PROTOCOL_ROOT:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if any(name in info.methods for name in method_names):
                return True
            stack.extend(info.bases)
        return False


@dataclass(frozen=True)
class HookFunction:
    """One unit of protocol code: a method or a module-level ctx-hook."""

    func: ast.AST  # FunctionDef | AsyncFunctionDef
    owner: Optional[ast.ClassDef]  # the protocol class, or None for module hooks


def collect_hooks(
    tree: ast.Module, protocol_classes: Sequence[ast.ClassDef]
) -> List[HookFunction]:
    """Protocol code units of one module.

    * every method defined in the body of a protocol class (helpers such as
      ``_forward`` / ``_items`` are called from hooks and carry the same
      obligations), and
    * module-level functions whose first parameter is named ``ctx`` —
      the ``pre_start`` / ``items_fn`` / ``store_fn`` hook functions protocol
      modules hand to phase constructors — but only in modules that define at
      least one protocol class (engine modules also pass contexts around, and
      *their* internals are exempt by design).
    """
    hooks: List[HookFunction] = []
    for cls in protocol_classes:
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                hooks.append(HookFunction(func=item, owner=cls))
    if protocol_classes:
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = stmt.args.posonlyargs + stmt.args.args
            if args and args[0].arg == "ctx":
                hooks.append(HookFunction(func=stmt, owner=None))
    return hooks
