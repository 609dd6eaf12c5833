"""Module-level symbol tables for the flow engine.

One :class:`ModuleSymbols` per analyzed file records what the call-graph
resolver needs: the module's functions (module level and class methods,
including class-body method aliases like ``_notify = notify``), its classes
with their base expressions and ``__init__``-inferred attribute types, its
imports (name -> dotted target), and its module-level globals classified by
mutability (the RPL006 "reads mutable module state" check keys on that).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.astutils import dotted_name

__all__ = ["ImportTarget", "ClassDecl", "ModuleSymbols", "build_module_symbols"]

#: Calls whose result is a mutable container (module-global classification).
_MUTABLE_FACTORIES = frozenset({"dict", "list", "set", "defaultdict", "Counter", "deque"})


@dataclass(frozen=True)
class ImportTarget:
    """Resolution of one imported local name.

    ``kind`` is ``"module"`` (``import a.b as m`` -> the module ``a.b``) or
    ``"name"`` (``from a.b import f`` -> symbol ``f`` of module ``a.b``).
    """

    kind: str
    module: str
    symbol: Optional[str] = None


@dataclass
class ClassDecl:
    """One class statement: bases, methods, inferred attribute types."""

    name: str
    node: ast.ClassDef
    #: Base expressions as written (dotted names; unresolvable bases None).
    bases: List[Optional[str]] = field(default_factory=list)
    #: method name -> function node (aliases share the aliased node).
    methods: Dict[str, ast.AST] = field(default_factory=dict)
    #: ``self.<attr> = ClassName(...)`` assignments seen in ``__init__``,
    #: recorded as attr -> dotted constructor name for later resolution.
    attr_constructors: Dict[str, str] = field(default_factory=dict)
    #: Class-level constant assignments (``path_independent = True`` ...).
    constants: Dict[str, object] = field(default_factory=dict)


@dataclass
class ModuleSymbols:
    """Everything the resolver knows about one module."""

    key: str
    module: Optional[str]
    path: str
    tree: ast.Module
    functions: Dict[str, ast.AST] = field(default_factory=dict)
    classes: Dict[str, ClassDecl] = field(default_factory=dict)
    imports: Dict[str, ImportTarget] = field(default_factory=dict)
    #: module-level global name -> is the bound value a mutable container?
    globals_mutability: Dict[str, bool] = field(default_factory=dict)


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is not None and name.split(".")[-1] in _MUTABLE_FACTORIES:
            return True
    return False


def _record_imports(symbols: ModuleSymbols, node: ast.AST) -> None:
    if isinstance(node, ast.Import):
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            # ``import a.b`` binds ``a``; only the aliased form gives a
            # direct module handle worth resolving through.
            target = alias.name if alias.asname else alias.name.split(".")[0]
            symbols.imports[local] = ImportTarget("module", target)
    elif isinstance(node, ast.ImportFrom):
        if node.module is None or node.level:
            return  # relative imports are out of scope for the resolver
        for alias in node.names:
            local = alias.asname or alias.name
            symbols.imports[local] = ImportTarget("name", node.module, alias.name)


def _record_class(symbols: ModuleSymbols, node: ast.ClassDef) -> None:
    decl = ClassDecl(name=node.name, node=node)
    for base in node.bases:
        decl.bases.append(dotted_name(base))
    for statement in node.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            decl.methods[statement.name] = statement
            symbols.functions[f"{node.name}.{statement.name}"] = statement
            if statement.name == "__init__":
                _record_attr_constructors(decl, statement)
        elif isinstance(statement, ast.Assign) and len(statement.targets) == 1:
            target = statement.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if isinstance(statement.value, ast.Name):
                aliased = decl.methods.get(statement.value.id)
                if aliased is not None:
                    # A class-level method alias: ``alias = method``
                    decl.methods[target.id] = aliased
                    symbols.functions[f"{node.name}.{target.id}"] = aliased
                    continue
            if isinstance(statement.value, ast.Constant):
                decl.constants[target.id] = statement.value.value
        elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            if isinstance(statement.value, ast.Constant):
                decl.constants[statement.target.id] = statement.value.value
    symbols.classes[node.name] = decl


def _record_attr_constructors(decl: ClassDecl, init: ast.AST) -> None:
    """``self._x = ClassName(...)`` in ``__init__`` types attribute ``_x``."""
    for node in ast.walk(init):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        constructor = dotted_name(value.func)
        if constructor is None:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                decl.attr_constructors[target.attr] = constructor


def build_module_symbols(
    key: str, module: Optional[str], path: str, tree: ast.Module
) -> ModuleSymbols:
    """Build the symbol table of one parsed module."""
    symbols = ModuleSymbols(key=key, module=module, path=path, tree=tree)
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            _record_imports(symbols, node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            symbols.functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            _record_class(symbols, node)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    symbols.globals_mutability[target.id] = _is_mutable_value(node.value)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if node.value is not None:
                symbols.globals_mutability[node.target.id] = _is_mutable_value(node.value)
    return symbols


def module_tuple(symbols: ModuleSymbols) -> Tuple[str, Optional[str], str]:
    """Debug helper: ``(key, module, path)`` of one table."""
    return (symbols.key, symbols.module, symbols.path)
