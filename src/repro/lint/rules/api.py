"""API-contract rules (``A``): typed surfaces and checkpoint safety.

The public ``repro.*`` API is consumed by the CLI, the benchmarks, and
downstream notebooks; unannotated signatures erode it one call site at
a time.  Separately, the runner's crash-resume guarantee rests on
``to_jsonable``/``from_jsonable`` staying *paired* inverses — a class
that grows one without the other checkpoints data it cannot restore.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple, Union

from ..asthelpers import dotted_name, has_decorator
from ..engine import ModuleContext
from ..registry import RawViolation, rule

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _is_public_name(name: str) -> bool:
    if name.startswith("__") and name.endswith("__"):
        return True  # dunders are part of the class protocol surface
    return not name.startswith("_")


def _public_functions(tree: ast.Module
                      ) -> Iterator[Tuple[_FunctionNode, bool]]:
    """(function, is_method) for module-level and class-level defs of
    public names in public classes — nested functions are private by
    construction and skipped."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_public_name(node.name):
                yield node, False
        elif isinstance(node, ast.ClassDef) and _is_public_name(node.name):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)) \
                        and _is_public_name(member.name):
                    yield member, True


def _unannotated_args(func: _FunctionNode, is_method: bool) -> List[str]:
    missing: List[str] = []
    args = func.args
    positional = list(args.posonlyargs) + list(args.args)
    skip_first = is_method and positional \
        and positional[0].arg in ("self", "cls")
    if skip_first:
        positional = positional[1:]
    for arg in positional + list(args.kwonlyargs):
        if arg.annotation is None:
            missing.append(arg.arg)
    for special in (args.vararg, args.kwarg):
        if special is not None and special.annotation is None:
            missing.append("*" + special.arg)
    return missing


@rule("A001", "unannotated-public-function", "api-contract",
      "public functions and methods carry full type annotations")
def unannotated_public_function(ctx: ModuleContext
                                ) -> Iterator[RawViolation]:
    for func, is_method in _public_functions(ctx.tree):
        missing = _unannotated_args(func, is_method)
        if missing:
            yield (func.lineno, func.col_offset,
                   f"{func.name}() leaves parameter(s) "
                   f"{', '.join(repr(m) for m in missing)} unannotated")
        if func.returns is None:
            yield (func.lineno, func.col_offset,
                   f"{func.name}() has no return annotation "
                   "(use '-> None' if it returns nothing)")


@rule("A002", "broken-jsonable-pair", "api-contract",
      "to_jsonable/from_jsonable checkpoint pairs stay complete")
def broken_jsonable_pair(ctx: ModuleContext) -> Iterator[RawViolation]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {member.name: member for member in node.body
                   if isinstance(member, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))}
        # @jsonable installs whichever half the class leaves out.
        decorated = has_decorator(node, "jsonable")
        has_to = decorated or "to_jsonable" in methods
        has_from = decorated or "from_jsonable" in methods
        if has_to != has_from:
            present = "to_jsonable" if has_to else "from_jsonable"
            absent = "from_jsonable" if has_to else "to_jsonable"
            yield (node.lineno, node.col_offset,
                   f"class {node.name} defines {present} but not "
                   f"{absent} — checkpoints must round-trip")
        if "from_jsonable" in methods:
            decorators = {dotted_name(d) for d in
                          methods["from_jsonable"].decorator_list}
            if "classmethod" not in {d.split(".")[-1] for d in decorators
                                     if d is not None}:
                yield (methods["from_jsonable"].lineno,
                       methods["from_jsonable"].col_offset,
                       f"{node.name}.from_jsonable must be a classmethod "
                       "(the runner restores instances from plain JSON)")
