"""Small shared AST utilities for lint rules."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def walk_calls(tree: ast.Module) -> Iterator[Tuple[ast.Call, str]]:
    """Every Call whose callee is a resolvable dotted name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None:
                yield node, name


def imported_names(tree: ast.Module) -> Dict[str, str]:
    """Map local name -> fully qualified origin for ``from X import Y``
    and ``import X as Z`` statements (top level and nested)."""
    origins: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                local = alias.asname or alias.name
                origins[local] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origins[local] = alias.name
    return origins


def has_decorator(node: ast.ClassDef, name: str) -> bool:
    """Is the class decorated with ``@name`` (any dotted spelling,
    bare or called)?"""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        dotted = dotted_name(target)
        if dotted is not None and dotted.split(".")[-1] == name:
            return True
    return False


def is_dataclass(node: ast.ClassDef) -> bool:
    """Is the class decorated with ``@dataclass`` (any spelling)?"""
    return has_decorator(node, "dataclass")


def is_jsonable(node: ast.ClassDef) -> bool:
    """Does the class serialize: decorated ``@jsonable`` (the codec in
    :mod:`repro.jsonable` installs the pair) or defining its own
    ``to_jsonable``?"""
    return has_decorator(node, "jsonable") or any(
        isinstance(member, ast.FunctionDef)
        and member.name == "to_jsonable" for member in node.body)


def call_keywords(node: ast.Call) -> Set[str]:
    return {keyword.arg for keyword in node.keywords
            if keyword.arg is not None}


def constant_number(node: ast.AST) -> Optional[float]:
    """The numeric value of a Constant (bools excluded), else ``None``."""
    if isinstance(node, ast.Constant) \
            and isinstance(node.value, (int, float)) \
            and not isinstance(node.value, bool):
        return float(node.value)
    return None
