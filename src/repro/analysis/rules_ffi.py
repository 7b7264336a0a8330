"""FFI-contract rule: the C prototypes and the ctypes declarations agree.

The compiled backend (:mod:`repro.core.engine_compiled`) calls into
``_gather_kernels.c`` through hand-written ctypes prototypes and
``ctypes.Structure`` mirrors of the C structs its kernels take.  Nothing
checks those two sides against each other: add a parameter to a C kernel
or a field to a struct and forget the Python side, and the call passes
garbage — at best a crash, at worst silently corrupted tables that the
numpy-fallback CI leg can never notice.  (ctypes checks what the *Python*
side declares; it cannot see what the *C* side expects.)

This rule closes the loop statically: it regexes the ``repro_*``
declarations and the struct definitions out of the C source, parses the
``library.repro_*.argtypes / .restype`` assignments and the
``Structure._fields_`` lists out of ``engine_compiled.py``'s AST, and
cross-checks

* the symbol sets (every C kernel declared in Python and vice versa),
* the arity of every prototype,
* the *kind* of every argument — pointer element type (``double*`` vs
  ``POINTER(c_double)``…), struct pointers (``struct kernel_tables *`` vs
  ``POINTER(KernelTables)``) and scalar width (``int64_t`` vs
  ``c_int64``, ``int32_t`` vs ``c_int32``),
* the return type (``void`` vs ``restype = None``, ``double`` vs
  ``c_double``),
* every struct a kernel takes against its ``ctypes.Structure``, field by
  field: the count, the order (names) and the kind of every field.  A
  Structure class ``KernelTables`` mirrors ``struct kernel_tables``, and
  every Structure must mirror some C struct.

Module-level aliases (``_f64 = POINTER(c_double)``) are resolved from
their definitions, so an alias means what the module makes it mean.
Everything is parsed, not loaded, so the check runs identically with or
without a compiler (both CI legs run it).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.core import Finding, Rule, register_rule

__all__ = [
    "FfiContractRule",
    "check_ffi",
    "parse_c_prototypes",
    "parse_c_structs",
    "parse_ctypes_decls",
    "parse_ctypes_structs",
]

#: C base types the kernels use, mapped to the shared kind vocabulary.
_C_BASE: dict[str, str] = {
    "double": "f64",
    "int64_t": "i64",
    "int32_t": "i32",
    "uint8_t": "u8",
}

#: ctypes scalar types mapped to the same kinds.
_CTYPES_BASE: dict[str, str] = {
    "c_double": "f64",
    "c_int64": "i64",
    "c_longlong": "i64",
    "c_int32": "i32",
    "c_uint8": "u8",
    "c_ubyte": "u8",
}

_UNKNOWN = ("unknown", "unknown")

_C_DECL = re.compile(
    r"^[ \t]*(?P<ret>void|double|int64_t|int32_t|uint8_t)[ \t]+"
    r"(?P<name>repro_\w+)[ \t]*\((?P<params>[^)]*)\)",
    re.MULTILINE | re.DOTALL,
)

_C_STRUCT = re.compile(
    r"^[ \t]*struct[ \t]+(?P<name>\w+)[ \t]*\{(?P<body>[^}]*)\}[ \t]*;",
    re.MULTILINE,
)

_C_COMMENT = re.compile(r"/\*.*?\*/|//[^\n]*", re.DOTALL)


@dataclass(frozen=True)
class Prototype:
    """One side's view of a kernel: argument kinds and return kind."""

    name: str
    args: tuple[tuple[str, str], ...]
    restype: tuple[str, str] | None  # None encodes void
    line: int


def _c_base(tokens: list[str]) -> str | None:
    """The kind of a declaration's base type: ``f64``… or ``struct <tag>``."""
    tokens = [token for token in tokens if token != "const"]
    if len(tokens) >= 2 and tokens[0] == "struct":
        return f"struct {tokens[1]}"
    return _C_BASE.get(tokens[0]) if tokens else None


def _c_param_kind(param: str) -> tuple[str, str] | None:
    tokens = param.replace("*", " * ").split()
    base = _c_base(tokens)
    if base is None:
        return None
    is_pointer = "*" in tokens
    return ("ptr" if is_pointer else "scalar", base)


@dataclass(frozen=True)
class StructDecl:
    """One side's view of a struct: its fields' names and kinds, in order."""

    name: str  # the C tag (a ctypes class is named by its tag in CamelCase)
    fields: tuple[tuple[str, tuple[str, str]], ...]
    line: int


def parse_c_structs(text: str) -> dict[str, StructDecl]:
    """Every ``struct <tag> { ... };`` definition in the C source, by tag.

    A declaration may name several fields (``const int64_t *a, *b;``); a
    field of a type outside the kind vocabulary has kind ``unknown``.
    """
    structs: dict[str, StructDecl] = {}
    for match in _C_STRUCT.finditer(text):
        body = _C_COMMENT.sub(" ", match.group("body"))
        fields: list[tuple[str, tuple[str, str]]] = []
        for declaration in body.split(";"):
            declarators = declaration.replace("*", " * ").split(",")
            head = declarators[0].split()
            if not head:
                continue
            # The base type is everything before the first declarator.
            first = len(head) - 1
            while first > 0 and head[first - 1] == "*":
                first -= 1
            base = _c_base(head[:first])
            for index, declarator in enumerate(declarators):
                tokens = head[first:] if index == 0 else declarator.split()
                names = [token for token in tokens if token != "*"]
                if not names:
                    continue
                shape = "ptr" if "*" in tokens else "scalar"
                kind = (shape, base) if base is not None else _UNKNOWN
                fields.append((names[-1], kind))
        structs[match.group("name")] = StructDecl(
            name=match.group("name"),
            fields=tuple(fields),
            line=text.count("\n", 0, match.start()) + 1,
        )
    return structs


def parse_c_prototypes(text: str) -> dict[str, Prototype]:
    """All ``repro_*`` declarations in the C source, by symbol name."""
    prototypes: dict[str, Prototype] = {}
    for match in _C_DECL.finditer(text):
        name = match.group("name")
        line = text.count("\n", 0, match.start()) + 1
        ret = match.group("ret")
        restype = None if ret == "void" else ("scalar", _C_BASE.get(ret, ret))
        args: list[tuple[str, str]] = []
        params = match.group("params").strip()
        if params and params != "void":
            for param in params.split(","):
                kind = _c_param_kind(param.strip())
                if kind is not None:
                    args.append(kind)
        prototypes[name] = Prototype(
            name=name, args=tuple(args), restype=restype, line=line
        )
    return prototypes


def _snake(name: str) -> str:
    """``KernelTables`` -> ``kernel_tables``: the C tag a Structure mirrors."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def _name_of(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_structure(node: ast.ClassDef) -> bool:
    return any(_name_of(base) == "Structure" for base in node.bases)


class _PyKinds:
    """Resolves ctypes type expressions of one module to argument kinds."""

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: dict[str, ast.expr] = {}
        self.structures: set[str] = set()
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                self.aliases[node.targets[0].id] = node.value
            elif isinstance(node, ast.ClassDef) and _is_structure(node):
                self.structures.add(node.name)

    def _base(self, node: ast.expr, seen: frozenset[str]) -> str | None:
        name = _name_of(node)
        if name is None:
            return None
        if name in _CTYPES_BASE:
            return _CTYPES_BASE[name]
        if name in self.structures:
            return f"struct {_snake(name)}"
        if isinstance(node, ast.Name) and name in self.aliases and name not in seen:
            kind = self.kind(self.aliases[name], seen | {name})
            return kind[1] if kind[0] == "scalar" else None
        return None

    def kind(self, node: ast.expr, seen: frozenset[str] = frozenset()) -> tuple[str, str]:
        """``POINTER(x)`` is ``("ptr", base)``; a scalar or struct type ``("scalar", base)``."""
        if (
            isinstance(node, ast.Call)
            and _name_of(node.func) == "POINTER"
            and len(node.args) == 1
            and not node.keywords
        ):
            base = self._base(node.args[0], seen)
            return ("ptr", base) if base is not None else _UNKNOWN
        if isinstance(node, ast.Name) and node.id in self.aliases and node.id not in seen:
            return self.kind(self.aliases[node.id], seen | {node.id})
        base = self._base(node, seen)
        return ("scalar", base) if base is not None else _UNKNOWN


def parse_ctypes_decls(text: str) -> dict[str, Prototype]:
    """The ``<lib>.repro_*.argtypes / .restype`` assignments, by symbol.

    Only symbols with an ``argtypes`` list count as declared; a stray
    ``restype`` without ``argtypes`` surfaces as a symbol mismatch.
    """
    tree = ast.parse(text)
    kinds_of = _PyKinds(tree)
    argtypes: dict[str, tuple[tuple[tuple[str, str], ...], int]] = {}
    restypes: dict[str, tuple[tuple[str, str] | None, int]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Attribute):
            continue
        owner = target.value
        if not isinstance(owner, ast.Attribute) or not owner.attr.startswith("repro_"):
            continue
        symbol = owner.attr
        if target.attr == "argtypes" and isinstance(node.value, (ast.List, ast.Tuple)):
            kinds = tuple(kinds_of.kind(element) for element in node.value.elts)
            argtypes[symbol] = (kinds, node.lineno)
        elif target.attr == "restype":
            value = node.value
            if isinstance(value, ast.Constant) and value.value is None:
                restypes[symbol] = (None, node.lineno)
            else:
                restypes[symbol] = (kinds_of.kind(value), node.lineno)
    prototypes: dict[str, Prototype] = {}
    for symbol, (kinds, line) in argtypes.items():
        restype, _ = restypes.get(symbol, (None, line))
        prototypes[symbol] = Prototype(
            name=symbol, args=kinds, restype=restype, line=line
        )
    return prototypes


def parse_ctypes_structs(text: str) -> dict[str, StructDecl]:
    """Every ``ctypes.Structure`` subclass's ``_fields_``, by the C tag it mirrors.

    A field that is not a ``("name", type)`` pair has name ``?`` and kind
    ``unknown``.
    """
    tree = ast.parse(text)
    kinds_of = _PyKinds(tree)
    structs: dict[str, StructDecl] = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or not _is_structure(node):
            continue
        fields: list[tuple[str, tuple[str, str]]] = []
        for statement in node.body:
            if not (
                isinstance(statement, ast.Assign)
                and len(statement.targets) == 1
                and isinstance(statement.targets[0], ast.Name)
                and statement.targets[0].id == "_fields_"
                and isinstance(statement.value, (ast.List, ast.Tuple))
            ):
                continue
            for element in statement.value.elts:
                if (
                    isinstance(element, ast.Tuple)
                    and len(element.elts) == 2
                    and isinstance(element.elts[0], ast.Constant)
                    and isinstance(element.elts[0].value, str)
                ):
                    fields.append((element.elts[0].value, kinds_of.kind(element.elts[1])))
                else:
                    fields.append(("?", _UNKNOWN))
        tag = _snake(node.name)
        structs[tag] = StructDecl(name=tag, fields=tuple(fields), line=node.lineno)
    return structs


def _kind_str(kind: tuple[str, str] | None) -> str:
    if kind is None:
        return "void"
    shape, base = kind
    return f"{base}*" if shape == "ptr" else base


def check_ffi(
    c_text: str,
    py_text: str,
    c_path: str = "src/repro/core/_gather_kernels.c",
    py_path: str = "src/repro/core/engine_compiled.py",
) -> list[Finding]:
    """Cross-check the two prototype sets; pure so tests can perturb either."""
    rule = FfiContractRule.rule_id
    c_protos = parse_c_prototypes(c_text)
    py_protos = parse_ctypes_decls(py_text)
    findings: list[Finding] = []

    def finding(path: str, line: int, message: str, hint: str) -> Finding:
        return Finding(
            rule=rule, path=path, line=line, message=message, hint=hint,
            snippet=message,
        )

    for name in sorted(set(c_protos) - set(py_protos)):
        findings.append(
            finding(
                c_path,
                c_protos[name].line,
                f"C kernel {name} has no ctypes prototype in engine_compiled.py",
                "declare argtypes/restype in _configure()",
            )
        )
    for name in sorted(set(py_protos) - set(c_protos)):
        findings.append(
            finding(
                py_path,
                py_protos[name].line,
                f"ctypes prototype {name} has no declaration in _gather_kernels.c",
                "remove the prototype or add the kernel",
            )
        )
    for name in sorted(set(c_protos) & set(py_protos)):
        c_proto, py_proto = c_protos[name], py_protos[name]
        if len(c_proto.args) != len(py_proto.args):
            findings.append(
                finding(
                    py_path,
                    py_proto.line,
                    f"{name}: arity mismatch — C declares {len(c_proto.args)} "
                    f"parameters, argtypes lists {len(py_proto.args)}",
                    "make the argtypes list match the C parameter list "
                    "position by position",
                )
            )
            continue
        for position, (c_kind, py_kind) in enumerate(
            zip(c_proto.args, py_proto.args)
        ):
            if c_kind != py_kind:
                findings.append(
                    finding(
                        py_path,
                        py_proto.line,
                        f"{name}: argument {position} kind mismatch — C "
                        f"declares {_kind_str(c_kind)}, argtypes says "
                        f"{_kind_str(py_kind)}",
                        "align the ctypes token with the C parameter type",
                    )
                )
        if c_proto.restype != py_proto.restype:
            findings.append(
                finding(
                    py_path,
                    py_proto.line,
                    f"{name}: return-type mismatch — C returns "
                    f"{_kind_str(c_proto.restype)}, restype says "
                    f"{_kind_str(py_proto.restype)}",
                    "set restype to match the C return type (None for void)",
                )
            )
    findings.extend(_check_structs(c_text, py_text, c_protos, c_path, py_path, finding))
    return findings


def _camel(tag: str) -> str:
    """``kernel_tables`` -> ``KernelTables``, the Structure mirroring it."""
    return "".join(part.capitalize() for part in tag.split("_"))


def _check_structs(
    c_text: str,
    py_text: str,
    c_protos: dict[str, Prototype],
    c_path: str,
    py_path: str,
    finding,
) -> list[Finding]:
    """Every struct a kernel takes against its ctypes Structure, field by field."""
    c_structs = parse_c_structs(c_text)
    py_structs = parse_ctypes_structs(py_text)
    taken: dict[str, Prototype] = {}
    for proto in c_protos.values():
        for _shape, base in proto.args:
            if base.startswith("struct "):
                taken.setdefault(base[len("struct "):], proto)
    findings: list[Finding] = []
    for tag in sorted(set(taken) - set(c_structs)):
        findings.append(
            finding(
                c_path,
                taken[tag].line,
                f"{taken[tag].name} takes struct {tag}, which _gather_kernels.c "
                "does not define",
                "define the struct before the kernels that take it",
            )
        )
    for tag in sorted((set(taken) & set(c_structs)) - set(py_structs)):
        findings.append(
            finding(
                c_path,
                c_structs[tag].line,
                f"struct {tag} has no ctypes Structure in engine_compiled.py",
                f"declare class {_camel(tag)}(ctypes.Structure) with the same fields",
            )
        )
    for tag in sorted(set(py_structs) - set(c_structs)):
        findings.append(
            finding(
                py_path,
                py_structs[tag].line,
                f"ctypes Structure {_camel(tag)} mirrors struct {tag}, which "
                "_gather_kernels.c does not define",
                "remove the Structure or define the C struct",
            )
        )
    for tag in sorted(set(py_structs) & set(c_structs)):
        c_fields, py_fields = c_structs[tag].fields, py_structs[tag].fields
        line = py_structs[tag].line
        if len(c_fields) != len(py_fields):
            findings.append(
                finding(
                    py_path,
                    line,
                    f"struct {tag}: field count mismatch — C declares "
                    f"{len(c_fields)} fields, _fields_ lists {len(py_fields)}",
                    "make _fields_ match the C struct field by field",
                )
            )
            continue
        for position, ((c_name, c_kind), (py_name, py_kind)) in enumerate(
            zip(c_fields, py_fields)
        ):
            if c_name != py_name:
                findings.append(
                    finding(
                        py_path,
                        line,
                        f"struct {tag}: field {position} is {c_name!r} in C but "
                        f"{py_name!r} in _fields_",
                        "list _fields_ in the C struct's order",
                    )
                )
            elif c_kind != py_kind:
                findings.append(
                    finding(
                        py_path,
                        line,
                        f"struct {tag}: field {c_name!r} kind mismatch — C "
                        f"declares {_kind_str(c_kind)}, _fields_ says "
                        f"{_kind_str(py_kind)}",
                        "align the ctypes field type with the C field type",
                    )
                )
    return findings


@register_rule
class FfiContractRule(Rule):
    """Cross-check ``_gather_kernels.c`` against ``engine_compiled.py``."""

    rule_id = "ffi-contract"
    description = (
        "every repro_* C prototype matches the ctypes argtypes/restype "
        "declaration (symbols, arity, argument kinds, return type), and "
        "every struct a kernel takes matches its ctypes Structure field by "
        "field (count, order, kinds)"
    )

    def check_project(self, root: Path) -> list[Finding]:
        c_path = root / "src" / "repro" / "core" / "_gather_kernels.c"
        py_path = root / "src" / "repro" / "core" / "engine_compiled.py"
        missing = [path for path in (c_path, py_path) if not path.exists()]
        if missing:
            return [
                Finding(
                    rule=self.rule_id,
                    path=str(path),
                    line=1,
                    message="FFI contract source missing",
                    hint="the compiled backend ships both files",
                    snippet="missing file",
                )
                for path in missing
            ]
        return check_ffi(
            c_path.read_text(),
            py_path.read_text(),
            c_path=str(c_path),
            py_path=str(py_path),
        )
