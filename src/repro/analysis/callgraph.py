"""Project-wide symbol table and call graph for the interprocedural rules.

The per-module rules see one file at a time, which is enough to check
*that* a mutation happens under a lock but not *which locks are held
together*, whether a blocking syscall is reachable inside a critical
section, or whether an exception can escape mid-mutation.  Those
properties need a whole-program view: this module builds it, once per
run, from the same parsed :class:`~repro.analysis.core.SourceModule`
objects the per-module rules consumed (the shared-AST pipeline — no file
is parsed twice).

The index is deliberately *syntactic and bounded* — it resolves the call
edges this codebase actually uses, rather than attempting full type
inference:

* ``self.method(...)`` and ``ClassName.method(...)`` — method lookup on
  the enclosing / named class;
* ``self._attr.method(...)`` and ``param.method(...)`` — through the
  per-class attribute-type table (``self._attr = ClassName(...)`` in any
  method, ``self._attr = param`` with an annotated parameter,
  ``self._attr: ClassName``) and through parameter / local annotations;
* ``local = self.method(...)`` — through method return annotations, so
  ``record = self.tenant(tid)`` types ``record`` as ``TenantRecord``;
* ``module.func(...)`` / ``func(...)`` — module-level functions, import
  aliases, and nested ``def``\\ s in the enclosing function;
* a last-resort unique-method fallback: ``obj.method(...)`` with an
  untypable ``obj`` resolves iff exactly one class in the project
  defines ``method`` *and* the name is not a common container/stdlib
  method (``append``, ``get``, ``flush`` … would otherwise alias every
  ``list.append`` in the tree onto ``Journal.append``).

Unresolvable calls resolve to nothing — the rules built on top treat
"unknown callee" as "no effect", which keeps the analysis quiet instead
of noisy.  Context is bounded: resolution is context-insensitive and the
transitive passes in :mod:`repro.analysis.summaries` memoize per
function with a recursion guard.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.core import SourceModule

__all__ = [
    "COMMON_METHODS",
    "ClassInfo",
    "FunctionInfo",
    "ProjectIndex",
]

#: Method names excluded from the unique-name fallback: they collide with
#: builtin container / file / threading protocol methods, so a bare
#: ``x.append(...)`` must never resolve to a project class's method of
#: the same name unless ``x`` itself was typed.
COMMON_METHODS: frozenset[str] = frozenset(
    {
        "acquire", "add", "append", "clear", "close", "copy", "count",
        "decode", "discard", "encode", "extend", "flush", "format", "get",
        "index", "insert", "items", "join", "keys", "move_to_end",
        "notify", "notify_all", "open", "pop", "popitem", "put", "read",
        "release", "remove", "reverse", "setdefault", "sort", "split",
        "strip", "submit", "update", "values", "wait", "write",
    }
)

#: Lock-constructor callables recognized when classifying lock slots.
_LOCK_CONSTRUCTORS: dict[str, str] = {
    "Lock": "lock",
    "RLock": "rlock",
    "Condition": "condition",
    "Semaphore": "lock",
    "BoundedSemaphore": "lock",
    "ReadWriteLock": "rwlock",
}


def _callable_name(expr: ast.expr) -> str:
    """Rightmost identifier of a call target (``threading.RLock`` -> ``RLock``)."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return ""


def _annotation_classes(annotation: ast.expr | None, known: set[str]) -> str | None:
    """The single known class an annotation names, or ``None``.

    Handles plain names, ``"Quoted | None"`` string annotations, and
    ``Optional[X]`` — anything where exactly one known class name occurs
    in the unparsed text.
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    text = ast.unparse(annotation)
    names = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))
    matches = names & known
    if len(matches) == 1:
        return next(iter(matches))
    return None


@dataclass
class FunctionInfo:
    """One function or method as the call graph sees it."""

    qualname: str
    name: str
    module: SourceModule
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None
    #: Nested ``def``\ s, resolvable by bare name from inside this function.
    locals_: dict[str, "FunctionInfo"] = field(default_factory=dict)

    @property
    def is_property(self) -> bool:
        return any(
            _callable_name(decorator) == "property"
            for decorator in self.node.decorator_list
        )


@dataclass
class ClassInfo:
    """One class: its methods, inferred attribute types, and lock slots."""

    name: str
    qualname: str
    module: SourceModule
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` -> class name, inferred from constructor calls,
    #: annotated assignments, and annotated-parameter aliasing.
    attr_types: dict[str, str] = field(default_factory=dict)
    #: ``self.<attr>`` -> lock kind ("lock" / "rlock" / "condition" /
    #: "rwlock") for attrs assigned a recognized lock constructor.
    lock_kinds: dict[str, str] = field(default_factory=dict)


class ProjectIndex:
    """Symbol table + call graph over a set of parsed modules."""

    def __init__(self) -> None:
        self.modules: dict[str, SourceModule] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: bare function name -> candidates (module-level functions).
        self._functions_by_name: dict[str, list[FunctionInfo]] = {}
        #: bare method name -> candidates across every class.
        self._methods_by_name: dict[str, list[FunctionInfo]] = {}
        #: per module: local alias -> dotted target ("eng" -> "repro.core.engine",
        #: "soar_gather" -> "repro.core.gather.soar_gather").
        self._imports: dict[str, dict[str, str]] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(cls, modules: list[SourceModule]) -> "ProjectIndex":
        index = cls()
        for module in modules:
            index.modules[module.module] = module
        for module in modules:
            index._index_module(module)
        known = set(index.classes)
        for info in index.classes.values():
            index._infer_attr_types(info, known)
        return index

    def _register_function(self, info: FunctionInfo) -> None:
        self.functions[info.qualname] = info
        if info.class_name is None:
            self._functions_by_name.setdefault(info.name, []).append(info)
        else:
            self._methods_by_name.setdefault(info.name, []).append(info)
        for child in ast.iter_child_nodes(info.node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = FunctionInfo(
                    qualname=f"{info.qualname}.{child.name}",
                    name=child.name,
                    module=info.module,
                    node=child,
                    class_name=info.class_name,
                )
                info.locals_[child.name] = nested
                self.functions[nested.qualname] = nested
                self._register_nested(nested)

    def _register_nested(self, info: FunctionInfo) -> None:
        for child in ast.iter_child_nodes(info.node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = FunctionInfo(
                    qualname=f"{info.qualname}.{child.name}",
                    name=child.name,
                    module=info.module,
                    node=child,
                    class_name=info.class_name,
                )
                info.locals_[child.name] = nested
                self.functions[nested.qualname] = nested
                self._register_nested(nested)

    def _index_module(self, module: SourceModule) -> None:
        aliases: dict[str, str] = {}
        self._imports[module.module] = aliases
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    aliases[name.asname or name.name.split(".")[0]] = (
                        name.name if name.asname else name.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for name in node.names:
                    if name.name != "*":
                        aliases[name.asname or name.name] = (
                            f"{node.module}.{name.name}"
                        )
        for node in ast.iter_child_nodes(module.tree):
            if isinstance(node, ast.ClassDef):
                info = ClassInfo(
                    name=node.name,
                    qualname=f"{module.module}.{node.name}",
                    module=module,
                    node=node,
                )
                # First definition of a class name wins project-wide;
                # the codebase keeps class names unique.
                self.classes.setdefault(node.name, info)
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method = FunctionInfo(
                            qualname=f"{info.qualname}.{child.name}",
                            name=child.name,
                            module=module,
                            node=child,
                            class_name=node.name,
                        )
                        info.methods[child.name] = method
                        self._register_function(method)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_function(
                    FunctionInfo(
                        qualname=f"{module.module}.{node.name}",
                        name=node.name,
                        module=module,
                        node=node,
                    )
                )

    def _resolve_bare_name(
        self, name: str, module: SourceModule
    ) -> FunctionInfo | None:
        qual = f"{module.module}.{name}"
        if qual in self.functions:
            return self.functions[qual]
        dotted = self._imports.get(module.module, {}).get(name)
        if dotted is not None and dotted in self.functions:
            return self.functions[dotted]
        return None

    def _infer_attr_types(self, info: ClassInfo, known: set[str]) -> None:
        for method in info.methods.values():
            params: dict[str, str] = {}
            args = method.node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                cls = _annotation_classes(arg.annotation, known)
                if cls is not None:
                    params[arg.arg] = cls
            for stmt in ast.walk(method.node):
                target: ast.expr | None = None
                value: ast.expr | None = None
                annotation: ast.expr | None = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    target, value, annotation = stmt.target, stmt.value, stmt.annotation
                else:
                    continue
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                cls = _annotation_classes(annotation, known)
                if cls is None and isinstance(value, ast.Call):
                    callee = _callable_name(value.func)
                    if callee in known:
                        cls = callee
                    kind = _LOCK_CONSTRUCTORS.get(callee)
                    if kind is not None:
                        info.lock_kinds.setdefault(attr, kind)
                        if callee in known:
                            info.attr_types.setdefault(attr, callee)
                        continue
                if cls is None and isinstance(value, ast.Name):
                    cls = params.get(value.id)
                if cls is not None:
                    info.attr_types.setdefault(attr, cls)
                    if cls in _LOCK_CONSTRUCTORS:
                        info.lock_kinds.setdefault(attr, _LOCK_CONSTRUCTORS[cls])

    # ------------------------------------------------------------------ #
    # type queries
    # ------------------------------------------------------------------ #

    def class_of_attr(self, class_name: str | None, attr: str) -> str | None:
        """The inferred class of ``self.<attr>`` inside ``class_name``."""
        if class_name is None:
            return None
        info = self.classes.get(class_name)
        if info is None:
            return None
        return info.attr_types.get(attr)

    def lock_kind(self, class_name: str | None, attr: str) -> str | None:
        """The lock kind of ``self.<attr>`` if it holds a lock constructor."""
        if class_name is None:
            return None
        info = self.classes.get(class_name)
        if info is None:
            return None
        return info.lock_kinds.get(attr)

    def _local_types(self, context: FunctionInfo) -> dict[str, str]:
        """Parameter/local name -> class name, within ``context``."""
        memo = getattr(self, "_local_types_memo", None)
        if memo is None:
            memo = {}
            self._local_types_memo = memo
        cached = memo.get(context.qualname)
        if cached is not None:
            return cached
        known = set(self.classes)
        types: dict[str, str] = {}
        # Publish the (partial) dict up front: the return-annotation
        # resolution below re-enters resolve_call/infer_class, which must
        # not recompute local types for this same context (recursion).
        memo[context.qualname] = types
        args = context.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            cls = _annotation_classes(arg.annotation, known)
            if cls is not None:
                types[arg.arg] = cls
        for stmt in ast.walk(context.node):
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                cls = _annotation_classes(stmt.annotation, known)
                if cls is not None:
                    types[stmt.target.id] = cls
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                value = stmt.value
                if isinstance(value, ast.Call):
                    callee = _callable_name(value.func)
                    if callee in known:
                        types.setdefault(target.id, callee)
                        continue
                    # local = self.method(...): use the return annotation.
                    resolved = self.resolve_call(value, context, types)
                    if len(resolved) == 1:
                        cls = _annotation_classes(resolved[0].node.returns, known)
                        if cls is not None:
                            types.setdefault(target.id, cls)
        return types

    def infer_class(
        self,
        expr: ast.expr,
        context: FunctionInfo,
        local_types: dict[str, str] | None = None,
    ) -> str | None:
        """The class an expression evaluates to, if statically evident."""
        if local_types is None:
            local_types = self._local_types(context)
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return context.class_name
            if expr.id in local_types:
                return local_types[expr.id]
            if expr.id in self.classes:
                # A bare class name is the class object itself; method
                # resolution handles that case separately.
                return None
            return None
        if isinstance(expr, ast.Attribute):
            base = self.infer_class(expr.value, context, local_types)
            if base is None:
                return None
            direct = self.class_of_attr(base, expr.attr)
            if direct is not None:
                return direct
            # Property view of a typed slot (FleetState.tracker -> _tracker).
            info = self.classes.get(base)
            if info is not None:
                method = info.methods.get(expr.attr)
                if method is not None and method.is_property:
                    return _annotation_classes(method.node.returns, set(self.classes))
            return None
        if isinstance(expr, ast.Call):
            callee = _callable_name(expr.func)
            if callee in self.classes:
                return callee
            resolved = self.resolve_call(expr, context)
            if len(resolved) == 1:
                return _annotation_classes(resolved[0].node.returns, set(self.classes))
            return None
        return None

    # ------------------------------------------------------------------ #
    # call resolution
    # ------------------------------------------------------------------ #

    def resolve_call(
        self,
        call: ast.Call,
        context: FunctionInfo,
        local_types: dict[str, str] | None = None,
    ) -> list[FunctionInfo]:
        """The project functions a call site may invoke (empty if unknown)."""
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in context.locals_:
                return [context.locals_[name]]
            if name in self.classes:
                init = self.classes[name].methods.get("__init__")
                return [init] if init is not None else []
            resolved = self._resolve_bare_name(name, context.module)
            return [resolved] if resolved is not None else []
        if isinstance(func, ast.Attribute):
            attr = func.attr
            base = func.value
            if isinstance(base, ast.Name) and base.id in self.classes:
                method = self.classes[base.id].methods.get(attr)
                return [method] if method is not None else []
            base_cls = self.infer_class(base, context, local_types)
            if base_cls is not None:
                info = self.classes.get(base_cls)
                if info is not None:
                    method = info.methods.get(attr)
                    return [method] if method is not None else []
                return []
            if isinstance(base, ast.Name):
                dotted = self._imports.get(context.module.module, {}).get(base.id)
                if dotted is not None:
                    qual = f"{dotted}.{attr}"
                    if qual in self.functions:
                        return [self.functions[qual]]
            # Unique-method fallback, gated on distinctive names.
            if attr not in COMMON_METHODS and not attr.startswith("__"):
                candidates = self._methods_by_name.get(attr, [])
                if len(candidates) == 1:
                    return [candidates[0]]
            return []
        return []
