"""Span tracer for the benchmark's traced pass.

The tracer times calls into the layers of ``repro`` from outside the
package: :meth:`Tracer.install` replaces public entry points (methods of
public classes and module-level functions) with wrappers that record one
span per call, and :meth:`Tracer.uninstall` puts the originals back.  No
private attribute of ``repro`` is read or replaced, and the untraced pass
always runs the unmodified program.

A span is ``(name, start, end, parent, step)``: ``parent`` is the index of
the enclosing span (``-1`` at top level) and ``step`` the closed-loop step
the span belongs to (``-1`` during set-up), which plays the role of a
request id.  Spans live in flat ``array`` columns while the pass runs and
are written out once, at the end, by :meth:`Tracer.save`.

A layer's *self time* is its span duration minus the durations of its
direct child spans; per-layer ``_s`` metrics are sums of self times.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

#: The layer entry points the traced pass wraps, by module: (owner class or
#: ``None`` for a module function, attribute, span name).  Several entry
#: points may share one span name.
ENTRY_POINTS: Dict[str, Tuple[Tuple["str | None", str, str], ...]] = {
    "repro.geometry.index": (
        ("SpatialIndex", "orthant_skyline", "geometry.index.skyline"),
        ("SpatialIndex", "insert", "geometry.index.maintain"),
        ("SpatialIndex", "remove", "geometry.index.maintain"),
        ("SpatialIndex", "move", "geometry.index.maintain"),
    ),
    "repro.overlay.network": (
        ("OverlayNetwork", "add_peer", "overlay.network.membership"),
        ("OverlayNetwork", "remove_peer", "overlay.network.membership"),
        ("OverlayNetwork", "move_peer", "overlay.network.membership"),
        ("OverlayNetwork", "apply_batch", "overlay.network.apply_batch"),
        ("OverlayNetwork", "notify_selection_change", "overlay.network.notify"),
        ("OverlayNetwork", "build_equilibrium", "overlay.network.build_equilibrium"),
        ("OverlayNetwork", "snapshot", "overlay.network.snapshot"),
        ("OverlayNetwork", "converge", "overlay.engine.converge"),
    ),
    "repro.overlay.incremental": (
        ("IncrementalReselectionEngine", "run_round", "overlay.engine.round"),
    ),
    "repro.overlay.selection.empty_rectangle": (
        ("EmptyRectangleSelection", "install_many", "overlay.selection.install"),
        ("EmptyRectangleSelection", "select_many_additive", "overlay.selection.additive"),
        ("EmptyRectangleSelection", "select_many", "overlay.selection.select"),
        ("EmptyRectangleSelection", "select", "overlay.selection.select"),
        ("EmptyRectangleSelection", "select_additive", "overlay.selection.select"),
        ("EmptyRectangleSelection", "compute_equilibrium", "overlay.selection.equilibrium"),
    ),
    "repro.multicast.incremental": (
        ("StabilityTreeMaintainer", "__init__", "multicast.tree.bootstrap"),
        ("StabilityTreeMaintainer", "refresh", "multicast.tree.refresh"),
        ("OverlayConnectivityFeed", "__init__", "multicast.connectivity.bootstrap"),
        ("OverlayConnectivityFeed", "sync", "multicast.connectivity.query"),
        ("OverlayConnectivityFeed", "is_connected", "multicast.connectivity.query"),
    ),
    "repro.multicast.space_partition": (
        ("SpacePartitionTreeBuilder", "build", "multicast.construct.build"),
    ),
    "repro.metrics.trees": ((None, "tree_metrics", "multicast.construct.metrics"),),
    "repro.simulation.runner": (
        ("LiveStabilityTreeMonitor", "on_join", "multicast.monitor.update"),
        ("LiveStabilityTreeMonitor", "on_leave", "multicast.monitor.update"),
        ("LiveStabilityTreeMonitor", "on_preferred_change", "multicast.monitor.update"),
        (None, "run_gossip_overlay", "simulation.runner.settle"),
        (None, "run_multicast_over_gossip_overlay", "simulation.runner.construct"),
        (None, "run_dissemination_probe", "simulation.runner.probe"),
    ),
    "repro.simulation.engine": (("SimulationEngine", "step", "simulation.engine.step"),),
    "repro.simulation.network": (
        ("SimulatedNetwork", "send", "simulation.network.send"),
        (None, "estimate_message_bytes", "simulation.netmodel.bytes_estimate"),
    ),
    "repro.simulation.netmodel": (
        ("LinkModel", "delivery_time", "simulation.netmodel.delivery"),
    ),
}


def _skyline_points(args: tuple, result: object) -> float:
    return float(len(result))  # type: ignore[arg-type]


def _selections_computed(args: tuple, result: object) -> float:
    # install_many(self, full_references, candidates_by_peer, additive_cohorts)
    return float(len(args[1]) + sum(len(cohort.member_ids) for cohort in args[3]))


#: Counters measured from the arguments or result of a wrapped call, keyed
#: by (owner attribute, attribute).
MEASURES: Dict[Tuple[str, str], Tuple[str, Callable[[tuple, object], float]]] = {
    ("SpatialIndex", "orthant_skyline"): ("geometry.index.skyline_points", _skyline_points),
    ("EmptyRectangleSelection", "install_many"): (
        "overlay.selection.selections_computed",
        _selections_computed,
    ),
}

#: Per-layer metrics read straight from counters (the tracer's argument and
#: result counters, or the workload's reading of the program's public objects).
COUNTED = (
    "geometry.index.skyline_points",
    "geometry.index.rebuilds",
    "multicast.tree.reparents",
    "multicast.tree.full_rebuilds",
    "multicast.connectivity.rebuilds",
    "multicast.construct.messages",
    "simulation.engine.events",
    "simulation.engine.cancelled",
    "simulation.network.messages_sent",
    "simulation.network.messages_lost",
    "simulation.network.bytes_sent",
    "simulation.protocol.full_selections",
    "simulation.protocol.additive_updates",
    "simulation.protocol.reselect_skip_ratio",
    "simulation.protocol.retransmissions",
    "simulation.probe.p50_s",
    "simulation.probe.p95_s",
)

#: Span names whose calls are the protocol's neighbour selections when they
#: run inside a simulator event.
_SELECTION_SPANS = ("overlay.selection.select", "overlay.selection.additive")


def _column(values: array, dtype: type) -> np.ndarray:
    """A numpy copy of one span column (a view would pin the array's size)."""
    return np.frombuffer(values, dtype=dtype).copy()


class Tracer:
    """Records spans around wrapped entry points; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.step = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_step = -1
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = [-1]
        self._restore: List[Tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrapper(
        self,
        function: Callable,
        span_name: str,
        measure: "Tuple[str, Callable[[tuple, object], float]] | None" = None,
    ) -> Callable:
        name_id = self._name_ids.setdefault(span_name, len(self.names))
        if name_id == len(self.names):
            self.names.append(span_name)
        clock = time.perf_counter
        stack = self._stack
        names, parents, steps = self.name_id, self.parent, self.step
        starts, ends = self.start, self.end
        counters = self.counters

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            steps.append(self.current_step)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if measure is not None:
                counter, amount = measure
                counters[counter] = counters.get(counter, 0.0) + amount(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for module_path, entries in ENTRY_POINTS.items():
            module = importlib.import_module(module_path)
            for owner_name, attribute, span_name in entries:
                self._install_one(module, owner_name, attribute, span_name)

    def _install_one(
        self, module: object, owner_name: "str | None", attribute: str, span_name: str
    ) -> None:
        owner = module if owner_name is None else getattr(module, owner_name)
        own = attribute in vars(owner)
        raw = vars(owner)[attribute] if own else getattr(owner, attribute)
        measure = MEASURES.get((owner_name or "", attribute))
        if isinstance(raw, classmethod):
            replacement: object = classmethod(self._wrapper(raw.__func__, span_name, measure))
        else:
            replacement = self._wrapper(raw, span_name, measure)
        setattr(owner, attribute, replacement)
        self._restore.append((owner, attribute, raw, own))

    def uninstall(self) -> None:
        """Put every original entry point back (inherited ones are unshadowed)."""
        while self._restore:
            owner, attribute, raw, own = self._restore.pop()
            if own:
                setattr(owner, attribute, raw)
            else:
                delattr(owner, attribute)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def columns(self) -> Dict[str, np.ndarray]:
        """The span table as numpy columns, plus durations and self times."""
        name_id = _column(self.name_id, np.int32)
        parent = _column(self.parent, np.int32)
        duration = _column(self.end, np.float64) - _column(self.start, np.float64)
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        return {
            "name_id": name_id,
            "parent": parent,
            "duration": duration,
            "self": duration - children,
        }

    def span_totals(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per span name: summed self time and call count."""
        cols = self.columns()
        count = len(self.names)
        self_time = np.bincount(cols["name_id"], weights=cols["self"], minlength=count)
        calls = np.bincount(cols["name_id"], minlength=count)
        return (
            {name: float(self_time[i]) for i, name in enumerate(self.names)},
            {name: int(calls[i]) for i, name in enumerate(self.names)},
        )

    def top_level_seconds(self) -> float:
        """Summed duration of the spans that have no enclosing span."""
        cols = self.columns()
        return float(cols["duration"][cols["parent"] < 0].sum())

    def self_time_under(self, span_names: Tuple[str, ...], ancestor: str) -> float:
        """Summed self time of ``span_names`` spans nested (at any depth) in ``ancestor``."""
        if ancestor not in self._name_ids:
            return 0.0
        wanted = {self._name_ids[name] for name in span_names if name in self._name_ids}
        if not wanted:
            return 0.0
        cols = self.columns()
        ancestor_id = self._name_ids[ancestor]
        # Parents precede children, so one forward pass resolves nesting.
        under = bytearray(len(self.parent))
        total = 0.0
        for index, (name, parent) in enumerate(zip(self.name_id, self.parent)):
            if parent >= 0 and (under[parent] or self.name_id[parent] == ancestor_id):
                under[index] = 1
                if name in wanted:
                    total += float(cols["self"][index])
        return total

    def save(self, path: Path) -> None:
        """Write the span table (compressed numpy archive)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name_id=_column(self.name_id, np.int32),
            parent=_column(self.parent, np.int32),
            step=_column(self.step, np.int32),
            start=_column(self.start, np.float64),
            end=_column(self.end, np.float64),
        )


def layer_metrics(
    tracer: Tracer, counters: Dict[str, float], dimension: int
) -> Dict[str, float]:
    """Derive the per-layer metrics of one traced pass.

    ``counters`` are counts the workload read from the program's public
    objects after the pass (index rebuilds, tree repairs, simulator and
    protocol counters, probe percentiles); together with the tracer's own
    argument/result counters and the spans they give every metric.  Metrics
    of layers a workload does not run are ``0``.
    """
    counters = {**tracer.counters, **counters}
    self_time, calls = tracer.span_totals()

    def self_of(*names: str) -> float:
        return sum(self_time.get(name, 0.0) for name in names)

    def calls_of(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    skyline_queries = calls_of("geometry.index.skyline")
    selections = counters.get("overlay.selection.selections_computed", 0.0)
    changes = calls_of("overlay.network.notify")
    metrics = {name: counters.get(name, 0.0) for name in COUNTED}
    metrics.update({
        "geometry.index.skyline_s": self_of("geometry.index.skyline"),
        "geometry.index.skyline_queries": skyline_queries,
        "geometry.index.maintain_s": self_of("geometry.index.maintain"),
        "overlay.selection.install_self_s": self_of("overlay.selection.install"),
        "overlay.selection.full_recomputes": skyline_queries / float(2**dimension),
        "overlay.selection.useful_ratio": changes / selections if selections else 0.0,
        "overlay.selection.equilibrium_s": self_of("overlay.selection.equilibrium"),
        "overlay.network.membership_s": self_of("overlay.network.membership"),
        "overlay.network.selection_changes": changes,
        "overlay.engine.converge_self_s": self_of(
            "overlay.engine.converge", "overlay.engine.round"
        ),
        "overlay.engine.rounds": calls_of("overlay.engine.round"),
        "multicast.tree.refresh_s": self_of("multicast.tree.refresh"),
        "multicast.connectivity.query_s": self_of("multicast.connectivity.query"),
        "multicast.construct.build_s": self_of("multicast.construct.build"),
        "multicast.construct.metrics_s": self_of("multicast.construct.metrics"),
        "multicast.monitor.update_s": self_of("multicast.monitor.update"),
        "simulation.engine.step_self_s": self_of("simulation.engine.step"),
        "simulation.network.send_self_s": self_of("simulation.network.send"),
        "simulation.netmodel.delivery_s": self_of("simulation.netmodel.delivery"),
        "simulation.netmodel.bytes_estimate_s": self_of("simulation.netmodel.bytes_estimate"),
        "simulation.protocol.select_s": tracer.self_time_under(
            _SELECTION_SPANS, "simulation.engine.step"
        ),
    })
    return {name: float(value) for name, value in metrics.items()}
