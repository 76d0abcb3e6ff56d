"""Determinism taint tracking (``DT`` rules).

The per-file ``D`` rules ban the *syntax* of nondeterminism — an
unseeded constructor, a wall-clock call.  This pass tracks the
*values*: once a nondeterministic source is allowed somewhere (say a
justified ``# repro-lint: disable=D002`` for tooling self-timing), the
taint it produces must still never reach a serialized result.

**Sources** (seeded in phase 1, per function):

* wall-clock reads (the ``D002`` vocabulary);
* RNG constructors without a seed (the ``D001`` vocabulary);
* the process environment: ``os.environ``, ``os.getenv``,
  ``os.urandom``.

**Propagation** (at link time, over the project call graph): a
function is taint-producing if its body contains a source or it calls
a taint-producing function.  This is deliberately coarse — sources are
rare in this tree precisely because the D rules police them, so the
closure stays tiny and conservative.

**Sinks**: the serialized result types — project classes that are
``@jsonable`` or define ``to_jsonable``, and either are ``*Result``
classes or carry a ``merge`` method (the exactly-mergeable fleet/chaos
aggregates).

Rules:

* ``DT201`` — a tainted expression is written into a sink field
  (constructor keyword or ``self.field =`` inside a sink method);
* ``DT202`` — iteration over a set (unordered!) feeds an accumulator;
  ``sorted(...)`` the set first;
* ``DT203`` — shard-invariance: a merge-bearing aggregate accumulates
  into a float field with ``+=``.  Float addition does not associate,
  so the shard layout would change the bits; quantize to int first
  (see ``StreamingMoments``).
"""

from __future__ import annotations

import ast
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from .asthelpers import call_keywords, dotted_name, is_jsonable
from .registry import RawProjectViolation, rule

if TYPE_CHECKING:  # pragma: no cover — import cycle guard only
    from .callgraph import ProjectContext

#: Wall-clock reads (mirrors the D002 vocabulary).
WALL_CLOCK_SOURCES = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "date.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: RNG constructors that are sources when called without a seed.
RNG_CONSTRUCTORS = {
    "np.random.default_rng", "numpy.random.default_rng", "random.Random",
}

#: Environment reads: host state, different on every machine.
ENVIRONMENT_SOURCES = {
    "os.getenv", "os.urandom", "os.environ.get",
}

#: Set-producing expressions whose iteration order is arbitrary.
_SET_METHODS = {"union", "intersection", "difference",
                "symmetric_difference"}


def classify_source(qualified: str, call: Optional[ast.Call]
                    ) -> Optional[str]:
    """Is this qualified callee a taint source?  Returns a short
    human reason, or None."""
    if qualified in WALL_CLOCK_SOURCES:
        return f"wall clock ({qualified})"
    if qualified in ENVIRONMENT_SOURCES:
        return f"process environment ({qualified})"
    if (qualified in RNG_CONSTRUCTORS and call is not None
            and not call.args and "seed" not in call_keywords(call)):
        return f"unseeded RNG ({qualified})"
    return None


def environment_read(node: ast.AST, qualify: Callable[[str], str]
                     ) -> Optional[str]:
    """``os.environ[...]`` / bare ``os.environ`` attribute reads."""
    name = dotted_name(node)
    if name is None:
        return None
    qualified = qualify(name)
    if qualified == "os.environ" or qualified.startswith("os.environ."):
        return "process environment (os.environ)"
    return None


class ModuleTaintAnalysis:
    """Phase-1 taint facts for one module.

    Fills, per function record: ``sources`` (direct source sites with
    reasons) and leaves ``calls`` to the symbol extractor.  Emits
    ``DT202`` locally and records sink-write candidates for link time
    (``DT201``); ``DT203`` is emitted locally from class records.
    """

    def __init__(self, module: str, lines: List[str],
                 qualify: Callable[[str], str],
                 resolve_class: Callable[[str], Optional[str]]) -> None:
        self.module = module
        self.lines = lines
        self.qualify = qualify
        self.resolve_class = resolve_class
        self.local: List[Dict[str, Any]] = []
        self.sink_writes: List[Dict[str, Any]] = []

    def _text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        self.local.append({
            "rule": rule_id, "line": node.lineno, "col": node.col_offset,
            "message": message, "text": self._text(node.lineno)})

    # -- direct sources ----------------------------------------------------

    def find_sources(self, func: ast.AST) -> List[Dict[str, Any]]:
        """Every direct taint source in the function body."""
        sources: List[Dict[str, Any]] = []
        for node in ast.walk(func):
            reason = None
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is not None:
                    reason = classify_source(self.qualify(name), node)
            elif isinstance(node, ast.Attribute):
                reason = environment_read(node, self.qualify)
            if reason is not None:
                sources.append({"line": node.lineno,
                                "col": node.col_offset, "reason": reason})
        return sources

    # -- expression taint + call refs --------------------------------------

    def expr_taint(self, node: ast.AST,
                   call_refs_of: Callable[[ast.Call], Optional[str]]
                   ) -> Tuple[Optional[str], List[str]]:
        """(direct-source reason or None, project call refs) for one
        expression — what a sink write needs recorded for link time."""
        direct: Optional[str] = None
        refs: List[str] = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                name = dotted_name(sub.func)
                if name is not None:
                    reason = classify_source(self.qualify(name), sub)
                    if reason is not None and direct is None:
                        direct = reason
                ref = call_refs_of(sub)
                if ref is not None:
                    refs.append(ref)
            elif isinstance(sub, ast.Attribute):
                reason = environment_read(sub, self.qualify)
                if reason is not None and direct is None:
                    direct = reason
        return direct, refs

    def record_sink_write(self, node: ast.AST, class_ref: str, field: str,
                          value: ast.AST,
                          call_refs_of: Callable[[ast.Call], Optional[str]]
                          ) -> None:
        direct, refs = self.expr_taint(value, call_refs_of)
        if direct is None and not refs:
            return  # provably clean expression: nothing to check at link
        self.sink_writes.append({
            "line": node.lineno, "col": node.col_offset,
            "text": self._text(node.lineno),
            "class_ref": class_ref, "field": field,
            "direct": direct, "calls": refs})

    # -- DT202: unordered iteration feeding accumulation -------------------

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set",
                                                          "frozenset"):
                return True
            if isinstance(func, ast.Attribute) \
                    and func.attr in _SET_METHODS:
                # obj.union(...) — only setlike receivers define these
                return True
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitAnd, ast.BitOr, ast.BitXor)):
            return self._is_set_expr(node.left) \
                or self._is_set_expr(node.right)
        return False

    def _accumulates_float(self, body: List[ast.stmt],
                           loop_var: Set[str]) -> Optional[ast.AST]:
        """First ``x += <float-ish expr using the loop var>`` in body."""
        for statement in body:
            for node in ast.walk(statement):
                if not isinstance(node, ast.AugAssign) \
                        or not isinstance(node.op, ast.Add):
                    continue
                names = {sub.id for sub in ast.walk(node.value)
                         if isinstance(sub, ast.Name)}
                attrs = {sub.attr for sub in ast.walk(node.value)
                         if isinstance(sub, ast.Attribute)}
                if not (names | attrs) & loop_var:
                    continue
                if _int_coerced(node.value):
                    continue
                return node
        return None

    def check_set_iteration(self, func: ast.AST) -> None:
        for node in ast.walk(func):
            if isinstance(node, ast.For) and self._is_set_expr(node.iter):
                hit = self._accumulates_float(node.body,
                                              _target_names(node.target))
                if hit is not None:
                    self._emit(
                        "DT202", hit,
                        "float accumulation over set iteration — set "
                        "order is arbitrary and float '+' does not "
                        "associate; iterate sorted(...) instead")
            elif isinstance(node, ast.Call):
                func_name = node.func
                short = func_name.id if isinstance(func_name, ast.Name) \
                    else (func_name.attr
                          if isinstance(func_name, ast.Attribute) else None)
                if short not in ("sum", "fsum") or not node.args:
                    continue
                arg = node.args[0]
                over_set = self._is_set_expr(arg)
                if isinstance(arg, ast.GeneratorExp) \
                        and len(arg.generators) == 1:
                    over_set = self._is_set_expr(arg.generators[0].iter)
                    if over_set and _int_coerced(arg.elt):
                        over_set = False
                if over_set:
                    self._emit(
                        "DT202", node,
                        "sum() over a set — set order is arbitrary and "
                        "float '+' does not associate; sum(sorted(...)) "
                        "instead")

    # -- DT203: float += in exactly-mergeable aggregates -------------------

    def check_mergeable_accumulation(self, classdef: ast.ClassDef,
                                     field_types: Dict[str, str]) -> None:
        has_merge = any(isinstance(n, ast.FunctionDef) and n.name == "merge"
                        for n in classdef.body)
        if not (has_merge and is_jsonable(classdef)):
            return
        for method in classdef.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            for node in ast.walk(method):
                if not isinstance(node, ast.AugAssign) \
                        or not isinstance(node.op, ast.Add):
                    continue
                target = node.target
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                annotation = field_types.get(target.attr)
                if annotation is None or "int" in annotation:
                    continue
                if "float" not in annotation.lower():
                    continue
                if _int_coerced(node.value):
                    continue
                self._emit(
                    "DT203", node,
                    f"unquantized float accumulation into "
                    f"{classdef.name}.{target.attr} — merge-bearing "
                    "aggregates must be exactly mergeable at any shard "
                    "count; quantize to int (see StreamingMoments) or "
                    "make the field int")


def _int_coerced(node: ast.AST) -> bool:
    """Is the expression provably an exact integer?"""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        short = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        return short in ("int", "len", "round")
    if isinstance(node, ast.BinOp):
        return _int_coerced(node.left) and _int_coerced(node.right)
    if isinstance(node, ast.Attribute) or isinstance(node, ast.Name):
        name = node.attr if isinstance(node, ast.Attribute) else node.id
        return bool(name) and ("count" in name or name.startswith("n_"))
    return False


def _target_names(target: ast.AST) -> Set[str]:
    return {sub.id for sub in ast.walk(target) if isinstance(sub, ast.Name)}


def _findings(project: "ProjectContext", rule_id: str
              ) -> Iterator[RawProjectViolation]:
    yield from project.findings_for(rule_id)


@rule("DT201", "taint-reaches-result", "taint",
      "no nondeterministic value flows into a serialized result field",
      scope="project")
def taint_reaches_result(project: "ProjectContext"
                         ) -> Iterator[RawProjectViolation]:
    return _findings(project, "DT201")


@rule("DT202", "unordered-iteration-accumulation", "taint",
      "no float accumulation over unordered set iteration",
      scope="project")
def unordered_iteration_accumulation(project: "ProjectContext"
                                     ) -> Iterator[RawProjectViolation]:
    return _findings(project, "DT202")


@rule("DT203", "unquantized-mergeable-accumulation", "taint",
      "mergeable aggregates accumulate exactly (ints), never raw floats",
      scope="project")
def unquantized_mergeable_accumulation(project: "ProjectContext"
                                       ) -> Iterator[RawProjectViolation]:
    return _findings(project, "DT203")
