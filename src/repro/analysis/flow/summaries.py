"""Per-function effect summaries: the dataflow lattice of the flow engine.

One :class:`FunctionSummary` is computed syntactically per function (own
scope only, nested ``def``/``class`` bodies excluded) and records the
effect bits the interprocedural rules combine over the call graph:
notifies-recorders, maintains-index, iterates-full-population,
writes-instance-attrs, raises/catches/invalidates around
``ConvergenceError``, and the module-global names the body reads.  The
contract vocabulary (which call names *count* as notifying, which shapes
count as population-sized) lives here so the checkers and the engine agree
on it by construction.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.astutils import dotted_name, own_nodes

__all__ = [
    "NOTIFIER_CALLS",
    "INDEX_MAINTENANCE_CALLS",
    "POPULATION_ACCESSORS",
    "KNOWLEDGE_ACCESSORS",
    "POPULATION_NAMES",
    "MATERIALISERS",
    "CONVERGE_CALLS",
    "HOT_PATH_MARKER",
    "AttrWrite",
    "PopulationSite",
    "GlobalRead",
    "FunctionSummary",
    "summarize_function",
    "is_hot_marked",
]

#: Call names that count as notifying the overlay delta recorders
#: (the RPL001 vocabulary; ``note_join`` is deliberately absent -- it
#: records membership, not the adjacency touch).
NOTIFIER_CALLS = frozenset({"notify_selection_change", "note_touch", "note_leave"})

#: Method names that count as maintaining a spatial index when called on an
#: index-named owner (the RPL002 vocabulary).
INDEX_MAINTENANCE_CALLS = frozenset({"insert", "remove", "move", "rebuild", "clear"})

#: Zero-argument accessors that materialise population-shaped views of an
#: overlay (every peer's adjacency, the full snapshot, ...).
POPULATION_ACCESSORS = frozenset(
    {"adjacency", "snapshot", "directed_neighbour_map", "peers"}
)

#: Accessors that return a full-knowledge candidate view (O(N) regardless
#: of arguments).
KNOWLEDGE_ACCESSORS = frozenset({"knowledge_set", "knowledge_sets"})

#: Attribute/name spellings of the full peer population.  Iterating one of
#: these, or materialising it through a builtin, is O(N) by definition.
POPULATION_NAMES = frozenset({"_peers", "peers", "peer_ids", "_neighbours"})

#: Builtins that materialise their operand.
MATERIALISERS = frozenset({"set", "frozenset", "list", "sorted", "tuple"})

#: Call names that (transitively) run an overlay convergence and may raise
#: ``ConvergenceError`` -- the syntactic trigger of RPL007 when the call
#: graph cannot resolve the callee.
CONVERGE_CALLS = frozenset(
    {"converge", "insert_and_converge", "remove_and_converge", "apply_batch"}
)

#: Decorator name marking an O(churn) hot-path entry point (RPL005 roots).
HOT_PATH_MARKER = "hot_path"

#: Module globals that are never "mutable state" reads (export lists etc.).
_EXEMPT_GLOBALS = frozenset({"__all__", "__doc__", "__name__"})


@dataclass(frozen=True)
class AttrWrite:
    """One instance/class attribute (re)bind: ``self.x = ...`` and kin."""

    line: int
    owner: str  #: ``self`` / ``cls`` / the class name for ``C.x = ...``
    attr: str
    what: str  #: human-readable description of the write shape


@dataclass(frozen=True)
class PopulationSite:
    """One O(population) construct: a scan, view or materialisation."""

    line: int
    what: str


@dataclass(frozen=True)
class GlobalRead:
    """One read of a module-level name inside a function body."""

    line: int
    name: str


@dataclass(frozen=True)
class FunctionSummary:
    """The effect-lattice value of one function, computed syntactically."""

    notifies_recorders: bool = False
    maintains_index: bool = False
    raises_convergence: bool = False
    catches_convergence: bool = False
    invalidates_engine: bool = False
    population_sites: Tuple[PopulationSite, ...] = ()
    attr_writes: Tuple[AttrWrite, ...] = ()
    global_reads: Tuple[GlobalRead, ...] = ()


def is_hot_marked(function: ast.AST) -> bool:
    """Whether a function carries the ``@hot_path`` marker decorator."""
    for decorator in getattr(function, "decorator_list", []):
        name = dotted_name(decorator)
        if name is not None and name.split(".")[-1] == HOT_PATH_MARKER:
            return True
    return False


def _is_population_operand(node: ast.AST) -> bool:
    """Whether an expression denotes the full peer population."""
    name = dotted_name(node)
    if name is not None and name.split(".")[-1] in POPULATION_NAMES:
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        # ``overlay._peers.keys()`` / ``.values()`` / ``.items()`` views.
        if node.func.attr in {"keys", "values", "items"}:
            return _is_population_operand(node.func.value)
    return False


def _iteration_sources(node: ast.AST) -> Iterator[Tuple[int, ast.AST]]:
    """Every ``(line, iterable)`` a node loops over (for + comprehensions)."""
    if isinstance(node, ast.For):
        yield node.lineno, node.iter
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        for comprehension in node.generators:
            yield node.lineno, comprehension.iter


def _exception_names(handler_type: Optional[ast.AST]) -> Iterator[str]:
    if handler_type is None:
        return
    nodes: List[ast.AST] = (
        list(handler_type.elts) if isinstance(handler_type, ast.Tuple) else [handler_type]
    )
    for node in nodes:
        name = dotted_name(node)
        if name is not None:
            yield name.split(".")[-1]


def catches_convergence_error(handler: ast.ExceptHandler) -> bool:
    """Whether one ``except`` clause catches ``ConvergenceError``."""
    return "ConvergenceError" in set(_exception_names(handler.type))


def summarize_function(function: ast.AST) -> FunctionSummary:
    """Compute the effect summary of one function's own scope."""
    notifies = False
    maintains = False
    raises_conv = False
    catches_conv = False
    invalidates = False
    population: List[PopulationSite] = []
    writes: List[AttrWrite] = []
    bound: Set[str] = set()
    read_sites: List[Tuple[int, str]] = []

    args = getattr(function, "args", None)
    if args is not None:
        for arg in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *filter(None, [args.vararg, args.kwarg]),
        ]:
            bound.add(arg.arg)

    for node in own_nodes(function):
        _fold_call_effects(node, population)
        if isinstance(node, ast.Call):
            attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
            if attr in NOTIFIER_CALLS:
                notifies = True
            if attr == "invalidate_engine":
                invalidates = True
            if attr in INDEX_MAINTENANCE_CALLS:
                owner = dotted_name(node.func.value) if isinstance(node.func, ast.Attribute) else None
                if owner is not None and "index" in owner.lower():
                    maintains = True
            if (
                attr == "setattr"
                or (isinstance(node.func, ast.Name) and node.func.id == "setattr")
            ) and node.args:
                target = dotted_name(node.args[0])
                if target in {"self", "cls"} and len(node.args) >= 2:
                    writes.append(
                        AttrWrite(node.lineno, target or "self", "<setattr>", "calls setattr()")
                    )
        elif isinstance(node, ast.Raise):
            exc = node.exc
            exc_name = None
            if isinstance(exc, ast.Call):
                exc_name = dotted_name(exc.func)
            elif exc is not None:
                exc_name = dotted_name(exc)
            if exc_name is not None and exc_name.split(".")[-1] == "ConvergenceError":
                raises_conv = True
        elif isinstance(node, ast.ExceptHandler):
            if catches_convergence_error(node):
                catches_conv = True
            if node.name:
                bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                for element in _flatten_targets(target):
                    if isinstance(element, ast.Name):
                        bound.add(element.id)
                    elif isinstance(element, ast.Attribute):
                        owner = dotted_name(element.value)
                        if "index" in element.attr.lower():
                            maintains = True
                        if element.attr == "_engine" and _assigns_none(node):
                            invalidates = True
                        if owner in {"self", "cls"}:
                            kind = (
                                "augments" if isinstance(node, ast.AugAssign) else "rebinds"
                            )
                            writes.append(
                                AttrWrite(
                                    node.lineno,
                                    owner,
                                    element.attr,
                                    f"{kind} {owner}.{element.attr}",
                                )
                            )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Attribute):
                    owner = dotted_name(target.value)
                    if owner in {"self", "cls"}:
                        writes.append(
                            AttrWrite(
                                node.lineno, owner, target.attr, f"deletes {owner}.{target.attr}"
                            )
                        )
        elif isinstance(node, (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for line, source in _iteration_sources(node):
                if _is_population_operand(source):
                    rendered = dotted_name(source) or "the peer population"
                    population.append(
                        PopulationSite(line, f"iterates the full population ({rendered})")
                    )
            if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
                bound.add(node.target.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.optional_vars, ast.Name):
                    bound.add(item.optional_vars.id)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in _EXEMPT_GLOBALS:
                read_sites.append((node.lineno, node.id))

    reads = tuple(
        GlobalRead(line, name)
        for line, name in sorted(set(read_sites))
        if name not in bound
    )
    return FunctionSummary(
        notifies_recorders=notifies,
        maintains_index=maintains,
        raises_convergence=raises_conv,
        catches_convergence=catches_conv,
        invalidates_engine=invalidates,
        population_sites=tuple(sorted(set(population), key=lambda s: s.line)),
        attr_writes=tuple(writes),
        global_reads=reads,
    )


def _fold_call_effects(node: ast.AST, population: List[PopulationSite]) -> None:
    """Record population-shaped call sites (accessors and materialisers)."""
    if not isinstance(node, ast.Call):
        return
    if isinstance(node.func, ast.Attribute):
        attr = node.func.attr
        if attr in POPULATION_ACCESSORS and not node.args and not node.keywords:
            population.append(
                PopulationSite(node.lineno, f"calls the population-shaped accessor .{attr}()")
            )
        elif attr in KNOWLEDGE_ACCESSORS:
            population.append(
                PopulationSite(
                    node.lineno, f"calls .{attr}(), an O(N) full-knowledge view"
                )
            )
    elif isinstance(node.func, ast.Name) and node.func.id in MATERIALISERS:
        if len(node.args) == 1 and _is_population_operand(node.args[0]):
            rendered = dotted_name(node.args[0]) or "the peer population"
            population.append(
                PopulationSite(
                    node.lineno,
                    f"materialises an O(N) id set ({node.func.id}({rendered}))",
                )
            )


def _flatten_targets(target: ast.AST) -> Iterator[ast.AST]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten_targets(element)
    else:
        yield target


def _assigns_none(node: ast.AST) -> bool:
    value = getattr(node, "value", None)
    return isinstance(value, ast.Constant) and value.value is None
