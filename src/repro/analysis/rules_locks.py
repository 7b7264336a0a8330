"""Lock-discipline rule: mutations of the service's shared mutable objects.

PR 5 made the service concurrent with one discipline: the mutable fleet
objects — :class:`~repro.service.state.FleetState`, its
:class:`~repro.online.capacity.CapacityTracker`, and the
:class:`~repro.service.cache.GatherTableCache` — are mutated only (a)
inside methods of those classes, or (b) under the service's writer lock
(``with self._fleet_lock.write_locked():``) / the cache's own mutex
(``with self._lock:``), or (c) in a function explicitly marked with a
``@_requires_write`` decorator (the caller owns the lock).  Everything
else goes through the request API.

A bare attribute mutation anywhere else — ``service.state._tenants[tid] =
record`` in a driver, ``tracker._residual[s] -= 1`` in an experiment —
compiles, passes the single-threaded tests, and silently breaks the
writer-preferring contract concurrent ``submit`` callers rely on.  This rule
flags exactly those: assignments, augmented assignments, and deletions
whose *target object* is one of the protected instances, outside the
allowed contexts.

Protected objects are recognized two ways, both purely syntactic:

* an attribute chain passing through a known slot name (``_state`` /
  ``state`` / ``_tracker`` / ``tracker`` / ``_cache`` / ``cache`` /
  ``stats``) — e.g. ``service.state._admitted_total = 0``;
* a local name bound to a protected class — a parameter annotated
  ``FleetState``, or an assignment from ``CapacityTracker(...)`` — e.g.
  ``state._tenants.clear()``'s sibling ``state._tenants = {}``.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, Rule, SourceModule, register_rule

__all__ = ["LockDisciplineRule", "PROTECTED_CLASSES", "PROTECTED_ATTRS"]

#: Classes whose instances the discipline protects.
PROTECTED_CLASSES: frozenset[str] = frozenset(
    {"FleetState", "CapacityTracker", "GatherTableCache"}
)

#: Attribute slots those instances conventionally live in (both the
#: private slot and its public property view).
PROTECTED_ATTRS: frozenset[str] = frozenset(
    {"_state", "state", "_tracker", "tracker", "_cache", "cache", "stats"}
)

#: Decorator names that mark a function as lock-holding by contract.
_WRITE_DECORATORS: frozenset[str] = frozenset({"_requires_write", "requires_write"})

#: With-context attribute names that grant write access inside the block.
_LOCK_CONTEXTS: frozenset[str] = frozenset({"write_locked", "_lock", "lock"})


def _decorator_name(node: ast.expr) -> str:
    """Rightmost identifier of a decorator expression."""
    if isinstance(node, ast.Call):
        return _decorator_name(node.func)
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _grants_write(item: ast.withitem) -> bool:
    """Whether one ``with`` item is a recognized lock acquisition."""
    expr = item.context_expr
    if isinstance(expr, ast.Call):
        expr = expr.func
    if isinstance(expr, ast.Attribute):
        return expr.attr in _LOCK_CONTEXTS
    if isinstance(expr, ast.Name):
        return expr.id in _LOCK_CONTEXTS
    return False


def _protected_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Parameter names annotated with a protected class."""
    names: set[str] = set()
    args = node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        annotation = arg.annotation
        if annotation is None:
            continue
        text = ast.unparse(annotation)
        if any(cls in text for cls in PROTECTED_CLASSES):
            names.add(arg.arg)
    return names


def _bound_protected_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Local names bound to protected instances inside ``node``.

    Recognizes ``x = FleetState(...)`` (constructor call) and
    ``x = <expr>.state`` / ``x = <expr>._tracker`` (pulling a protected
    slot into a local).
    """
    names: set[str] = set()
    for stmt in ast.walk(node):
        if not isinstance(stmt, ast.Assign):
            continue
        value = stmt.value
        bound = False
        if isinstance(value, ast.Call):
            callee = value.func
            callee_name = (
                callee.id
                if isinstance(callee, ast.Name)
                else callee.attr
                if isinstance(callee, ast.Attribute)
                else ""
            )
            bound = callee_name in PROTECTED_CLASSES
        elif isinstance(value, ast.Attribute):
            bound = value.attr in PROTECTED_ATTRS
        if not bound:
            continue
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _mutated_object(target: ast.expr) -> ast.expr | None:
    """The object an assignment target mutates, or ``None``.

    ``x.attr = v`` mutates ``x``; ``x[i] = v`` mutates ``x``; a bare
    ``name = v`` mutates nothing but the local scope.
    """
    if isinstance(target, (ast.Attribute, ast.Subscript)):
        return target.value
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            mutated = _mutated_object(element)
            if mutated is not None:
                return mutated
    return None


def _chain_parts(expr: ast.expr) -> tuple[str, list[str]] | None:
    """Decompose an attribute/subscript chain into (base name, attrs).

    ``service.state._tenants[tid]`` -> ``("service", ["state", "_tenants"])``;
    returns ``None`` for expressions that are not simple chains (calls,
    literals) — those cannot be checked syntactically.
    """
    attrs: list[str] = []
    node = expr
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Name):
            return node.id, list(reversed(attrs))
        else:
            return None


@register_rule
class LockDisciplineRule(Rule):
    """Flag mutations of protected fleet objects outside allowed contexts."""

    rule_id = "lock-discipline"
    description = (
        "FleetState / CapacityTracker / GatherTableCache may only be mutated "
        "inside their own methods, under a writer lock, or in @_requires_write "
        "functions"
    )

    def check_module(self, module: SourceModule) -> list[Finding]:
        findings: list[Finding] = []
        self._walk(
            module.tree,
            module,
            findings,
            in_protected_class=False,
            write_granted=False,
            protected_names=frozenset(),
        )
        return findings

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #

    def _walk(
        self,
        node: ast.AST,
        module: SourceModule,
        findings: list[Finding],
        in_protected_class: bool,
        write_granted: bool,
        protected_names: frozenset[str],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._walk(
                    child,
                    module,
                    findings,
                    in_protected_class=child.name in PROTECTED_CLASSES,
                    write_granted=write_granted,
                    protected_names=protected_names,
                )
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                granted = write_granted or any(
                    _decorator_name(decorator) in _WRITE_DECORATORS
                    for decorator in child.decorator_list
                )
                names = (
                    protected_names
                    | _protected_params(child)
                    | _bound_protected_names(child)
                )
                self._walk(
                    child,
                    module,
                    findings,
                    in_protected_class=in_protected_class,
                    write_granted=granted,
                    protected_names=frozenset(names),
                )
                continue
            if isinstance(child, (ast.With, ast.AsyncWith)):
                granted = write_granted or any(
                    _grants_write(item) for item in child.items
                )
                self._walk(
                    child,
                    module,
                    findings,
                    in_protected_class=in_protected_class,
                    write_granted=granted,
                    protected_names=protected_names,
                )
                continue
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.Delete)):
                if not (in_protected_class or write_granted):
                    self._check_statement(child, module, findings, protected_names)
            self._walk(
                child,
                module,
                findings,
                in_protected_class=in_protected_class,
                write_granted=write_granted,
                protected_names=protected_names,
            )

    def _check_statement(
        self,
        stmt: ast.Assign | ast.AugAssign | ast.Delete,
        module: SourceModule,
        findings: list[Finding],
        protected_names: frozenset[str],
    ) -> None:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AugAssign):
            targets = [stmt.target]
        else:
            targets = list(stmt.targets)
        for target in targets:
            mutated = _mutated_object(target)
            if mutated is None:
                continue
            chain = _chain_parts(mutated)
            if chain is None:
                continue
            base, attrs = chain
            through_slot = any(attr in PROTECTED_ATTRS for attr in attrs)
            protected_base = base in protected_names
            if not (through_slot or protected_base):
                continue
            findings.append(
                module.finding(
                    self.rule_id,
                    stmt,
                    f"mutation of protected object {ast.unparse(mutated)!r} "
                    "outside its class, a writer-lock block, or a "
                    "@_requires_write function",
                    "route the change through the owning class's methods, or "
                    "hold the writer lock (with ...write_locked():)",
                )
            )
            return
