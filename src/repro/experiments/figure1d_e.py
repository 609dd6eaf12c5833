"""Figure 1 (d) and (e): the stability-tree sweep over ``D`` and ``K``.

Setup (from the paper): ``N = 1000`` peers whose first coordinate is their
departure time ``T(P)``, an Orthogonal Hyperplanes overlay with ``K`` peers
kept per orthant, dimensions ``D = 2..10`` and ``K = 1..50``.  The preferred
tree neighbour of every peer is the overlay neighbour with the largest
lifetime exceeding its own.

Both panels read from the same sweep:

* Figure 1 (d): the diameter of the resulting multicast tree.
* Figure 1 (e): the maximum tree degree of a peer.

The sweep also verifies the invariants the paper reports as always holding:
the preferred links form a single tree, it is rooted at the longest-lived
peer, and lifetimes decrease from parents to children.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments import paper_data
from repro.experiments.common import build_section3_topology, derive_seed
from repro.experiments.config import ExperimentScale, resolve_scale
from repro.metrics.reporting import SeriesComparison, compare_series, format_table
from repro.multicast.stability import StabilityTreeBuilder

__all__ = [
    "StabilitySweepRow",
    "StabilitySweepResult",
    "run_stability_sweep",
    "run_figure1d",
    "run_figure1e",
]


@dataclass(frozen=True)
class StabilitySweepRow:
    """One ``(D, K)`` point of the Section 3 sweep."""

    dimension: int
    k: int
    peer_count: int
    tree_diameter: int
    maximum_tree_degree: int
    is_single_tree: bool
    root_has_largest_lifetime: bool
    parents_outlive_children: bool


@dataclass(frozen=True)
class StabilitySweepResult:
    """All ``(D, K)`` points, with per-panel table/comparison views."""

    scale_name: str
    rows: Tuple[StabilitySweepRow, ...]
    procedure: str = "equilibrium"

    # ------------------------------------------------------------------
    # Panel views
    # ------------------------------------------------------------------
    def diameter_series(self) -> Dict[int, List[Tuple[int, int]]]:
        """Figure 1 (d): for each dimension, the ``(K, diameter)`` series."""
        series: Dict[int, List[Tuple[int, int]]] = {}
        for row in self.rows:
            series.setdefault(row.dimension, []).append((row.k, row.tree_diameter))
        return {dimension: sorted(points) for dimension, points in series.items()}

    def degree_series(self) -> Dict[int, List[Tuple[int, int]]]:
        """Figure 1 (e): for each dimension, the ``(K, max tree degree)`` series."""
        series: Dict[int, List[Tuple[int, int]]] = {}
        for row in self.rows:
            series.setdefault(row.dimension, []).append((row.k, row.maximum_tree_degree))
        return {dimension: sorted(points) for dimension, points in series.items()}

    def all_invariants_hold(self) -> bool:
        """``True`` when every configuration reproduced the paper's three checks."""
        return all(
            row.is_single_tree
            and row.root_has_largest_lifetime
            and row.parents_outlive_children
            for row in self.rows
        )

    def to_table(self) -> str:
        """Plain-text table with one row per ``(D, K)`` configuration."""
        return format_table(
            ["D", "K", "peers", "diameter", "max tree degree", "tree", "ordered"],
            [
                [
                    row.dimension,
                    row.k,
                    row.peer_count,
                    row.tree_diameter,
                    row.maximum_tree_degree,
                    row.is_single_tree,
                    row.parents_outlive_children,
                ]
                for row in self.rows
            ],
        )

    # ------------------------------------------------------------------
    # Paper-shape comparisons
    # ------------------------------------------------------------------
    def compare_diameter_with_paper(self) -> Dict[int, SeriesComparison]:
        """Shape comparison of the diameter-vs-K curves against the digitized values."""
        return self._compare(paper_data.FIGURE_1D_DIAMETER, self.diameter_series())

    def compare_degree_with_paper(self) -> Dict[int, SeriesComparison]:
        """Shape comparison of the degree-vs-K curves against the digitized values."""
        return self._compare(paper_data.FIGURE_1E_MAX_DEGREE, self.degree_series())

    @staticmethod
    def _compare(
        reference: Dict[int, Dict[int, float]],
        measured: Dict[int, List[Tuple[int, int]]],
    ) -> Dict[int, SeriesComparison]:
        comparisons: Dict[int, SeriesComparison] = {}
        for dimension, reference_points in reference.items():
            if dimension not in measured:
                continue
            measured_points = dict(measured[dimension])
            shared_k = sorted(set(reference_points) & set(measured_points))
            if len(shared_k) < 2:
                continue
            comparisons[dimension] = compare_series(
                shared_k,
                [measured_points[k] for k in shared_k],
                [reference_points[k] for k in shared_k],
            )
        return comparisons


def run_stability_sweep(
    scale: Optional[ExperimentScale] = None,
    *,
    procedure: str = "equilibrium",
) -> StabilitySweepResult:
    """Run the full Section 3 sweep (feeds both Figure 1 (d) and (e)).

    ``procedure="insertion"`` rebuilds every ``(D, K)`` overlay with the
    paper-literal churn loop -- peers inserted one at a time, converging
    after every insertion -- on the incremental convergence path instead
    of the direct equilibrium jump.  Both procedures reach the same
    full-knowledge topology; the insertion replay exists to validate that
    equivalence at figure scale, which the engine makes affordable.
    """
    resolved = scale if scale is not None else resolve_scale()
    builder = StabilityTreeBuilder()
    rows: List[StabilitySweepRow] = []
    for dimension in resolved.section3_dimensions:
        for k in resolved.k_values:
            seed = derive_seed(resolved.seed, 4, dimension, k)
            topology = build_section3_topology(
                resolved.peer_count, dimension, k, seed=seed, procedure=procedure
            )
            forest = builder.build(topology)
            is_tree = forest.is_single_tree()
            if is_tree:
                tree = forest.to_multicast_tree()
                diameter = tree.diameter()
                max_degree = tree.maximum_degree()
            else:
                diameter = -1
                max_degree = -1
            rows.append(
                StabilitySweepRow(
                    dimension=dimension,
                    k=k,
                    peer_count=resolved.peer_count,
                    tree_diameter=diameter,
                    maximum_tree_degree=max_degree,
                    is_single_tree=is_tree,
                    root_has_largest_lifetime=forest.root_has_largest_lifetime(),
                    parents_outlive_children=forest.parents_outlive_children(),
                )
            )
    return StabilitySweepResult(
        scale_name=resolved.name, rows=tuple(rows), procedure=procedure
    )


def run_figure1d(
    scale: Optional[ExperimentScale] = None, *, procedure: str = "equilibrium"
) -> StabilitySweepResult:
    """Figure 1 (d) driver (the diameter view of the stability sweep)."""
    return run_stability_sweep(scale, procedure=procedure)


def run_figure1e(
    scale: Optional[ExperimentScale] = None, *, procedure: str = "equilibrium"
) -> StabilitySweepResult:
    """Figure 1 (e) driver (the degree view of the stability sweep)."""
    return run_stability_sweep(scale, procedure=procedure)
