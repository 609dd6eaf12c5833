"""RPL001 -- the delta-stream contract.

Every mutation of ``OverlayNetwork._neighbours`` (direct attribute rebind,
subscript assignment or deletion, in-place set mutators on the map or on
one of its entries, through the attribute itself or a same-scope alias)
must be paired, in the same call context, with a notification of the
attached delta recorders: a call to
:meth:`~repro.overlay.network.OverlayNetwork.notify_selection_change` or
direct ``note_touch`` / ``note_leave`` recorder calls.  ``note_join`` alone does *not* satisfy the contract -- it records
membership but not the bootstrap edges' adjacency touch, which is exactly
the drift PR 4 fixed in ``add_peer``.

Since reprolint v2 the obligation is *interprocedural*: a mutation is also
satisfied when any function the scope provably calls (through the
:mod:`repro.analysis.flow` call graph -- direct calls, ``self.`` dispatch,
imported names) transitively notifies.  Unresolved calls never satisfy it.
Two escape hatches are proven, not pragma'd:

* *fresh overlays*: a local constructed in-scope via ``cls(...)`` /
  ``OverlayNetwork(...)`` that never escapes (never passed to a call,
  never stored, no ``delta_stream`` access) cannot have recorders
  attached, so mutating its map needs no notification;
* notifications made one call level below the mutation.

Ownership is resolved syntactically: ``self`` inside ``class
OverlayNetwork``, any name or attribute containing ``overlay``, any
parameter annotated ``OverlayNetwork``, and names assigned from any of
those.  The ``PeerProcess`` simulator keeps its own private
``_neighbours`` set and is intentionally out of scope.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis.checkers.common import (
    SET_MUTATORS,
    dotted_name,
    iter_functions,
    own_nodes,
)
from repro.analysis.core import ModuleContext, Rule

RULE_ID = "RPL001"

#: Calls that count as notifying the delta recorders.
NOTIFIERS = frozenset({"notify_selection_change", "note_touch", "note_leave"})

#: ``Class.function`` names the checker never inspects: the notifier itself
#: is where the recorder fan-out lives.
ALLOWLIST = frozenset({"OverlayNetwork.notify_selection_change"})


class _FunctionScope:
    """Alias and ownership bookkeeping for one function body."""

    def __init__(self, function: ast.AST, class_name: Optional[str]) -> None:
        self.overlay_names: Set[str] = set()
        self.neighbour_aliases: Set[str] = set()
        args = getattr(function, "args", None)
        if args is not None:
            for arg in [
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
                *filter(None, [args.vararg, args.kwarg]),
            ]:
                if arg.arg == "self" and class_name == "OverlayNetwork":
                    self.overlay_names.add("self")
                elif "overlay" in arg.arg.lower():
                    self.overlay_names.add(arg.arg)
                elif arg.annotation is not None and "OverlayNetwork" in ast.dump(
                    arg.annotation
                ):
                    self.overlay_names.add(arg.arg)

    def is_overlay(self, node: ast.AST) -> bool:
        """Whether an expression denotes (our heuristic of) an overlay."""
        if isinstance(node, ast.Name):
            return node.id in self.overlay_names or "overlay" in node.id.lower()
        if isinstance(node, ast.Attribute):
            return "overlay" in node.attr.lower()
        name = dotted_name(node)
        return name is not None and "overlay" in name.lower()

    def is_neighbour_map(self, node: ast.AST) -> bool:
        """``<overlay>._neighbours`` or a local alias of it."""
        if isinstance(node, ast.Attribute) and node.attr == "_neighbours":
            return self.is_overlay(node.value)
        if isinstance(node, ast.Name):
            return node.id in self.neighbour_aliases
        return False

    def record_assignment(self, node: ast.Assign) -> None:
        """Track ``overlay = ...`` and ``neighbours = <overlay>._neighbours``."""
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            return
        target = node.targets[0].id
        value = node.value
        if self.is_neighbour_map(value):
            self.neighbour_aliases.add(target)
        elif self.is_overlay(value):
            self.overlay_names.add(target)
        elif isinstance(value, ast.Call):
            callee = dotted_name(value.func)
            if callee is not None and callee.split(".")[-1] == "OverlayNetwork":
                self.overlay_names.add(target)


def _root_name(node: ast.AST) -> Optional[str]:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _fresh_overlay_locals(function: ast.AST) -> Set[str]:
    """Locals provably holding a freshly constructed, non-escaping overlay.

    A name qualifies when it is assigned exactly once, from a direct
    ``cls(...)`` or ``OverlayNetwork(...)`` construction, and every other
    occurrence is an attribute/subscript base, a rebind target, or a
    ``return`` value.  Passing the name to any call, storing it anywhere,
    or touching ``.delta_stream`` on it disqualifies -- those are the only
    ways a recorder could observe the object.
    """
    constructed: Dict[str, int] = {}
    assigned: Dict[str, int] = {}
    nodes = list(own_nodes(function))
    parents: Dict[int, ast.AST] = {}
    for node in nodes:
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    for node in nodes:
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                assigned[target.id] = assigned.get(target.id, 0) + 1
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and isinstance(node.value, ast.Call):
                callee = dotted_name(node.value.func)
                if callee is not None and callee.split(".")[-1] in {
                    "cls",
                    "OverlayNetwork",
                }:
                    constructed[target.id] = node.value.lineno
    candidates = {name for name in constructed if assigned.get(name) == 1}
    if not candidates:
        return set()
    for node in nodes:
        if not isinstance(node, ast.Name) or node.id not in candidates:
            continue
        parent = parents.get(id(node))
        if isinstance(parent, ast.Attribute) and parent.value is node:
            if parent.attr == "delta_stream":
                candidates.discard(node.id)
            continue
        if isinstance(parent, ast.Subscript) and parent.value is node:
            continue
        if isinstance(parent, ast.Return):
            continue
        if isinstance(parent, ast.Assign) and node in parent.targets:
            continue
        if isinstance(parent, ast.Call) and isinstance(node.ctx, ast.Load):
            # The construction call itself is the value of the defining
            # assignment; the name cannot occur inside it.  Any other call
            # touching the name means escape.
            candidates.discard(node.id)
            continue
        if isinstance(node.ctx, ast.Load):
            candidates.discard(node.id)
    return candidates


def _check_function(
    context: ModuleContext, function: ast.AST, class_name: Optional[str]
) -> None:
    qualified = f"{class_name}.{function.name}" if class_name else function.name
    if qualified in ALLOWLIST:
        return
    scope = _FunctionScope(function, class_name)
    fresh = _fresh_overlay_locals(function)
    mutations = []
    notified = False
    def add_mutation(line: int, what: str, owner: ast.AST) -> None:
        if _root_name(owner) in fresh:
            return  # proven fresh overlay: no recorder can be attached
        mutations.append((line, what))

    # Single ordered pass: Python builds aliases before using them, and a
    # notification anywhere in the scope satisfies the contract, so order
    # of discovery does not matter for the verdict.
    for node in _ordered_own_nodes(function):
        if isinstance(node, ast.Assign):
            if (
                len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and (scope.is_neighbour_map(node.value) or scope.is_overlay(node.value))
            ):
                # Creating a local alias reads the map, it does not mutate it.
                scope.record_assignment(node)
                continue
            scope.record_assignment(node)
            for target in node.targets:
                if scope.is_neighbour_map(target):
                    add_mutation(node.lineno, "rebinds the neighbour map", target)
                elif isinstance(target, ast.Subscript) and scope.is_neighbour_map(
                    target.value
                ):
                    add_mutation(node.lineno, "assigns a neighbour-map entry", target)
        elif isinstance(node, ast.AugAssign):
            target = node.target
            if scope.is_neighbour_map(target) or (
                isinstance(target, ast.Subscript)
                and scope.is_neighbour_map(target.value)
            ):
                add_mutation(node.lineno, "augments the neighbour map", target)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and scope.is_neighbour_map(
                    target.value
                ):
                    add_mutation(node.lineno, "deletes a neighbour-map entry", target)
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute):
                if node.func.attr in NOTIFIERS:
                    notified = True
                elif node.func.attr in SET_MUTATORS:
                    owner = node.func.value
                    if scope.is_neighbour_map(owner) or (
                        isinstance(owner, ast.Subscript)
                        and scope.is_neighbour_map(owner.value)
                    ):
                        add_mutation(
                            node.lineno,
                            f"calls .{node.func.attr}() on neighbour state",
                            owner,
                        )
    if notified or not mutations:
        return
    if context.flow.transitively_notifies(function):
        # Interprocedural satisfaction: some function this scope provably
        # calls (any call level down) notifies the recorders.
        return
    for line, what in mutations:
        context.report(
            RULE_ID,
            line,
            f"'{qualified}' {what} without notifying the delta stream; call "
            "OverlayNetwork.notify_selection_change (or note_touch/note_leave "
            "on every recorder) in the same scope",
        )


def _ordered_own_nodes(function: ast.AST) -> List[ast.AST]:
    """Own-scope nodes in source order (aliases must precede their uses)."""
    nodes = list(own_nodes(function))
    nodes.sort(key=lambda node: (getattr(node, "lineno", 0), getattr(node, "col_offset", 0)))
    return nodes


class DeltaStreamChecker(ast.NodeVisitor):
    """Module-level driver: inspect every function scope independently."""

    def __init__(self, context: ModuleContext) -> None:
        self._context = context

    def visit_Module(self, node: ast.Module) -> None:
        for function, class_name in iter_functions(node):
            _check_function(self._context, function, class_name)


DELTA_STREAM_RULE = Rule(
    rule_id=RULE_ID,
    name="delta-stream",
    invariant=(
        "every OverlayNetwork._neighbours mutation notifies the attached "
        "delta recorders in the same scope"
    ),
    factory=DeltaStreamChecker,
)
