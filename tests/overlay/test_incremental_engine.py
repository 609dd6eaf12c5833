"""Tests for the incremental reselection engine and the batched select APIs.

The engine's contract is exact equivalence with the full-sweep reference
path: same directed neighbour maps after every membership event, under full
knowledge and under a bounded gossip radius.  These tests pin that contract
on deterministic workloads; the hypothesis cross-checks live in
``test_incremental_properties.py``.
"""

import random

import pytest

from repro.overlay.gossip import (
    changed_edge_endpoints,
    knowledge_set_deltas,
    knowledge_sets,
    peers_within_hops_of_any,
)
from repro.overlay.incremental import (
    RESELECT_ADDITIVE,
    RESELECT_FULL,
    RESELECT_SKIP,
    classify_reselect,
)
from repro.overlay.network import OverlayNetwork
from repro.overlay.peer import make_peer
from repro.overlay.selection.base import NeighbourSelectionMethod
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.overlay.selection.k_closest import KClosestSelection
from repro.overlay.selection.orthogonal import OrthogonalHyperplanesSelection
from repro.workloads.peers import generate_peers


def _paired_overlays(selection_factory, peers, *, gossip_radius=None, seed=3):
    """The same insertion sequence on the incremental and full-sweep paths."""
    fast = OverlayNetwork.build_incremental(
        peers,
        selection_factory(),
        gossip_radius=gossip_radius,
        rng=random.Random(seed),
        incremental=True,
    )
    slow = OverlayNetwork.build_incremental(
        peers,
        selection_factory(),
        gossip_radius=gossip_radius,
        rng=random.Random(seed),
        incremental=False,
    )
    return fast, slow


class TestFixedPointEquivalence:
    @pytest.mark.parametrize(
        "selection_factory",
        [
            EmptyRectangleSelection,
            lambda: OrthogonalHyperplanesSelection(k=2),
            lambda: KClosestSelection(k=3),
        ],
        ids=["empty-rectangle", "orthogonal", "k-closest"],
    )
    @pytest.mark.parametrize("gossip_radius", [None, 2], ids=["full", "radius2"])
    def test_insertions_reach_the_full_sweep_fixed_point(
        self, selection_factory, gossip_radius
    ):
        peers = generate_peers(24, 2, seed=31)
        fast, slow = _paired_overlays(
            selection_factory, peers, gossip_radius=gossip_radius
        )
        assert fast.directed_neighbour_map() == slow.directed_neighbour_map()

    @pytest.mark.parametrize("gossip_radius", [None, 2], ids=["full", "radius2"])
    def test_departures_reach_the_full_sweep_fixed_point(self, gossip_radius):
        peers = generate_peers(22, 3, seed=8)
        fast, slow = _paired_overlays(
            EmptyRectangleSelection, peers, gossip_radius=gossip_radius
        )
        for victim in [peer.peer_id for peer in peers[::4]]:
            fast.remove_and_converge(victim, incremental=True)
            slow.remove_and_converge(victim, incremental=False)
            assert fast.directed_neighbour_map() == slow.directed_neighbour_map()

    def test_interleaved_churn_matches_full_sweep(self):
        peers = generate_peers(30, 2, seed=55)
        fast = OverlayNetwork(EmptyRectangleSelection())
        slow = OverlayNetwork(EmptyRectangleSelection())
        rng = random.Random(7)
        alive = []
        for peer in peers:
            bootstrap = {rng.choice(alive)} if alive else set()
            fast.insert_and_converge(peer, bootstrap=bootstrap, incremental=True)
            slow.insert_and_converge(peer, bootstrap=bootstrap, incremental=False)
            alive.append(peer.peer_id)
            if len(alive) > 5 and rng.random() < 0.35:
                victim = rng.choice(alive)
                alive.remove(victim)
                fast.remove_and_converge(victim, incremental=True)
                slow.remove_and_converge(victim, incremental=False)
            assert fast.directed_neighbour_map() == slow.directed_neighbour_map()

    def test_incremental_matches_the_equilibrium_builder(self):
        peers = generate_peers(25, 2, seed=5)
        overlay = OverlayNetwork.build_incremental(
            peers, EmptyRectangleSelection(), incremental=True
        )
        equilibrium = OverlayNetwork.build_equilibrium(peers, EmptyRectangleSelection())
        assert overlay.directed_neighbour_map() == equilibrium.directed_neighbour_map()


class TestConvergenceBookkeeping:
    def test_converged_overlay_has_an_empty_epoch_delta(self):
        peers = generate_peers(15, 2, seed=2)
        overlay = OverlayNetwork.build_incremental(
            peers, EmptyRectangleSelection(), incremental=True
        )
        # Full knowledge never builds a round engine.
        assert overlay._engine is None  # noqa: SLF001 - white-box check
        assert overlay._needs_full == set()  # noqa: SLF001
        assert overlay._gained == set()  # noqa: SLF001

    def test_membership_events_fill_the_epoch_delta(self):
        peers = generate_peers(12, 2, seed=9)
        overlay = OverlayNetwork.build_incremental(
            peers, EmptyRectangleSelection(), incremental=True
        )
        overlay.add_peer(make_peer(100, (0.123, 0.456)))
        assert 100 in overlay._needs_full  # noqa: SLF001
        assert overlay._gained == {100}  # noqa: SLF001
        selectors = {
            peer_id
            for peer_id, selected in overlay.directed_neighbour_map().items()
            if peers[0].peer_id in selected
        }
        overlay.remove_peer(peers[0].peer_id)
        assert selectors <= overlay._needs_full  # noqa: SLF001
        overlay.converge(incremental=True)
        assert overlay._needs_full == set()  # noqa: SLF001
        assert overlay._gained == set()  # noqa: SLF001

    def test_full_sweep_round_clears_the_epoch_delta(self):
        peers = generate_peers(14, 2, seed=4)
        overlay = OverlayNetwork.build_incremental(
            peers, EmptyRectangleSelection(), incremental=True
        )
        overlay.add_peer(make_peer(200, (0.321, 0.654)))
        # One full-knowledge sweep installs the fixed point, so nothing is
        # left for the next incremental convergence to resolve.
        assert overlay.reselect_round()
        assert overlay._needs_full == set()  # noqa: SLF001
        assert overlay._gained == set()  # noqa: SLF001
        assert not overlay.reselect_round()
        overlay.insert_and_converge(make_peer(201, (0.777, 0.111)), incremental=True)
        expected = OverlayNetwork.build_equilibrium(
            peers + [make_peer(200, (0.321, 0.654)), make_peer(201, (0.777, 0.111))],
            EmptyRectangleSelection(),
        )
        assert overlay.directed_neighbour_map() == expected.directed_neighbour_map()

    def test_full_sweep_round_invalidates_the_gossip_engine(self):
        peers = generate_peers(14, 2, seed=4)
        overlay = OverlayNetwork.build_incremental(
            peers, EmptyRectangleSelection(), gossip_radius=2, incremental=True
        )
        assert overlay._engine is not None  # noqa: SLF001
        assert overlay._engine.dirty_peers == frozenset()  # noqa: SLF001
        overlay.reselect_round()
        assert overlay._engine is None  # noqa: SLF001

    def test_full_knowledge_converge_is_one_round(self):
        peers = generate_peers(10, 2, seed=1)
        overlay = OverlayNetwork(EmptyRectangleSelection())
        for peer in peers:
            overlay.add_peer(peer)
        assert overlay.converge(incremental=True) == 1
        assert overlay.converge(incremental=True) == 1


class TestSelectManyAgreement:
    @pytest.mark.parametrize(
        "selection_factory",
        [
            EmptyRectangleSelection,
            lambda: OrthogonalHyperplanesSelection(k=2),
            lambda: KClosestSelection(k=4),
        ],
        ids=["empty-rectangle", "orthogonal", "k-closest"],
    )
    @pytest.mark.parametrize("count", [10, 80])
    def test_select_many_matches_the_per_peer_loop(self, selection_factory, count):
        peers = generate_peers(count, 3, seed=count)
        selection = selection_factory()
        candidates_by_peer = {
            reference.peer_id: [p for p in peers if p.peer_id != reference.peer_id]
            for reference in peers
        }
        batched = selection.select_many(peers, candidates_by_peer)
        for reference in peers:
            expected = selection.select(
                reference, candidates_by_peer[reference.peer_id]
            )
            assert sorted(batched[reference.peer_id]) == sorted(expected)

    def test_select_many_additive_matches_full_reselection(self):
        peers = generate_peers(60, 2, seed=77)
        joiner, existing = peers[-1], peers[:-1]
        selection = EmptyRectangleSelection()
        equilibrium = selection.compute_equilibrium(existing)
        updates = []
        for reference in existing:
            selected = [p for p in existing if p.peer_id in equilibrium[reference.peer_id]]
            updates.append((reference, selected, [joiner]))
        delta_results = selection.select_many_additive(updates)
        assert delta_results is not None
        for reference in existing:
            full = selection.select(
                reference, [p for p in peers if p.peer_id != reference.peer_id]
            )
            previous = sorted(equilibrium[reference.peer_id])
            got = delta_results.get(reference.peer_id)
            if got is None:
                # Omitted references must genuinely be unchanged.
                assert full == previous
            else:
                assert sorted(got) == full

    def test_select_many_additive_handles_multiple_gains(self):
        peers = generate_peers(40, 2, seed=13)
        gained, existing = peers[-3:], peers[:-3]
        selection = EmptyRectangleSelection()
        equilibrium = selection.compute_equilibrium(existing)
        updates = []
        for reference in existing:
            selected = [p for p in existing if p.peer_id in equilibrium[reference.peer_id]]
            updates.append((reference, selected, list(gained)))
        delta_results = selection.select_many_additive(updates)
        for reference in existing:
            full = selection.select(
                reference, [p for p in peers if p.peer_id != reference.peer_id]
            )
            got = delta_results.get(reference.peer_id)
            result = sorted(got) if got is not None else sorted(equilibrium[reference.peer_id])
            assert result == full

    def test_base_select_many_additive_is_unimplemented(self):
        # The abstract base has no specialised delta rule; the hyperplane
        # family now does (the per-region top-K update), so an empty batch
        # yields an empty dict ("no changes"), not the None fallback marker.
        class _Plain(NeighbourSelectionMethod):
            def select(self, reference, candidates):  # pragma: no cover - stub
                return []

        assert _Plain().select_many_additive([]) is None
        assert OrthogonalHyperplanesSelection(k=1).select_many_additive([]) == {}

    def test_hyperplane_select_many_additive_matches_full_reselection(self):
        peers = generate_peers(60, 3, seed=78)
        joiner, existing = peers[-1], peers[:-1]
        for selection in (
            OrthogonalHyperplanesSelection(k=1),
            OrthogonalHyperplanesSelection(k=2),
            KClosestSelection(k=3),
        ):
            equilibrium = selection.compute_equilibrium(existing)
            updates = []
            for reference in existing:
                selected = [
                    p for p in existing if p.peer_id in equilibrium[reference.peer_id]
                ]
                updates.append((reference, selected, [joiner]))
            delta_results = selection.select_many_additive(updates)
            assert delta_results is not None
            for reference in existing:
                full = sorted(
                    selection.select(
                        reference, [p for p in peers if p.peer_id != reference.peer_id]
                    )
                )
                got = delta_results.get(reference.peer_id)
                if got is None:
                    assert full == sorted(equilibrium[reference.peer_id])
                else:
                    assert sorted(got) == full


class TestGossipDeltas:
    def test_changed_edge_endpoints_detects_edge_and_membership_changes(self):
        old = {0: {1}, 1: {0}, 2: set()}
        new = {0: {1, 2}, 1: {0}, 2: {0}, 3: set()}
        assert changed_edge_endpoints(old, new) == {0, 2, 3}

    def test_no_changes_means_no_endpoints(self):
        adjacency = {0: {1}, 1: {0}}
        assert changed_edge_endpoints(adjacency, adjacency) == set()

    def test_multi_source_bfs_includes_sources_and_respects_radius(self):
        line = {i: {i - 1, i + 1} for i in range(1, 5)}
        line[0] = {1}
        line[5] = {4}
        assert peers_within_hops_of_any(line, [0], 2) == {0, 1, 2}
        assert peers_within_hops_of_any(line, [0, 5], 1) == {0, 1, 4, 5}
        assert peers_within_hops_of_any(line, [99], 3) == set()

    def test_knowledge_set_deltas_only_reports_real_changes(self):
        old = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2, 4}, 4: {3}}
        known = knowledge_sets(old, 2)
        new = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2, 4}, 4: {3, 0}}
        deltas = knowledge_set_deltas(old, new, 2, known)
        fresh = knowledge_sets(new, 2)
        assert deltas  # the new 0-4 edge changes several footprints
        for peer_id, reachable in deltas.items():
            assert reachable == fresh[peer_id]
            assert reachable != known[peer_id]
        # Peers absent from the deltas really are unchanged.
        for peer_id in set(new) - set(deltas):
            assert fresh[peer_id] == known[peer_id]

    def test_knowledge_set_deltas_ignores_untouched_graph(self):
        adjacency = {0: {1}, 1: {0, 2}, 2: {1}}
        known = knowledge_sets(adjacency, 2)
        assert knowledge_set_deltas(adjacency, adjacency, 2, known) == {}


class TestClassifyReselect:
    """The shared full/skip/additive decision rule."""

    def test_no_history_forces_full(self):
        assert classify_reselect(None, set(), set(), set(), True) == RESELECT_FULL

    def test_empty_delta_skips_for_any_method(self):
        last = frozenset({1, 2, 3})
        for path_independent in (True, False):
            verdict = classify_reselect(last, set(), set(), {2}, path_independent)
            assert verdict == RESELECT_SKIP

    def test_lost_selected_candidate_forces_full(self):
        last = frozenset({1, 2, 3})
        assert classify_reselect(last, set(), {2}, {2, 3}, True) == RESELECT_FULL

    def test_lost_never_selected_candidate_skips_when_path_independent(self):
        last = frozenset({1, 2, 3})
        assert classify_reselect(last, set(), {1}, {2, 3}, True) == RESELECT_SKIP
        assert classify_reselect(last, set(), {1}, {2, 3}, False) == RESELECT_FULL

    def test_pure_gain_is_additive_when_path_independent(self):
        last = frozenset({1, 2})
        assert classify_reselect(last, {9}, set(), {1}, True) == RESELECT_ADDITIVE
        assert classify_reselect(last, {9}, set(), {1}, False) == RESELECT_FULL

    def test_gain_with_harmless_loss_is_additive(self):
        last = frozenset({1, 2, 3})
        verdict = classify_reselect(last, {9}, {1}, {2, 3}, True)
        assert verdict == RESELECT_ADDITIVE
