"""Property-based cross-checks: index-backed selection vs the scan paths.

The spatial index exists to *replace* the candidate-set scans, so the whole
contract is byte-identity: a selection method given ``index=`` must produce
the same selection as the same method given the materialised candidate
list, and an :class:`~repro.overlay.network.OverlayNetwork` that owns an
index must follow the identical convergence trajectory -- same per-step
neighbour maps, same round counts -- to the identical fixed point and
byte-identical maintained stability tree as the scan-path overlay, under
arbitrary interleavings of joins, leaves and batched epochs.

Populations honour the paper's distinct-coordinate assumption (the same
strategy the engine cross-checks use); distinct first coordinates double as
distinct lifetimes, so the stability tree is well-defined throughout.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.index import SpatialIndex
from repro.multicast.incremental import StabilityTreeMaintainer
from repro.overlay.network import BatchJoin, OverlayNetwork
from repro.overlay.peer import make_peer
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.overlay.selection.k_closest import KClosestSelection
from repro.overlay.selection.orthogonal import OrthogonalHyperplanesSelection
from repro.overlay.selection.sign_vectors import SignCoefficientHyperplanesSelection


def _populations(min_size=2, max_size=16, max_dimension=3):
    """Random populations with pairwise-distinct per-axis coordinates."""

    @st.composite
    def build(draw):
        count = draw(st.integers(min_value=min_size, max_value=max_size))
        dimension = draw(st.integers(min_value=2, max_value=max_dimension))
        axes = [
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=9999),
                    min_size=count,
                    max_size=count,
                    unique=True,
                )
            )
            for _ in range(dimension)
        ]
        return [
            make_peer(index, tuple(float(axis[index]) / 8 for axis in axes))
            for index in range(count)
        ]

    return build()


_SELECTIONS = st.sampled_from(
    [
        EmptyRectangleSelection,
        lambda: OrthogonalHyperplanesSelection(k=1),
        lambda: OrthogonalHyperplanesSelection(k=2),
        lambda: OrthogonalHyperplanesSelection(k=2, distance="l1"),
        lambda: SignCoefficientHyperplanesSelection(k=1),
        lambda: KClosestSelection(k=2),
        lambda: KClosestSelection(k=3, distance="linf"),
    ]
)


@settings(max_examples=60, deadline=None)
@given(peers=_populations(min_size=2, max_size=18), selection_factory=_SELECTIONS)
def test_indexed_select_equals_scan_select(peers, selection_factory):
    """``select(index=)`` == ``select(candidates)`` for every reference peer.

    The index holds the whole population including the reference (the
    overlay's maintenance contract); the scan receives the same population
    as a candidate list.  Byte-identical output lists are required -- same
    ids in the same order -- as is agreement of the batched ``select_many``
    entry point the convergence engine uses.
    """
    selection = selection_factory()
    assert selection.supports_index
    index = SpatialIndex()
    for peer in peers:
        index.insert(peer.peer_id, peer.coordinates)
    batched = selection.select_many(peers, {}, index=index)
    for reference in peers:
        scan = selection.select(reference, peers)
        fast = selection.select(reference, (), index=index)
        assert fast == scan  # byte-identical: same ids, same emission order
        assert batched[reference.peer_id] == fast


@settings(max_examples=30, deadline=None)
@given(
    peers=_populations(min_size=4, max_size=14),
    selection_factory=_SELECTIONS,
    script_seed=st.integers(min_value=0, max_value=999),
)
def test_indexed_overlay_tracks_scan_overlay_under_churn(
    peers, selection_factory, script_seed
):
    """Join/leave/batch schedules stay in lockstep: maps, rounds and trees.

    Both overlays replay the identical schedule -- single insertions and
    departures through the per-event path, plus whole epochs through
    ``apply_batch`` -- with live stability-tree maintainers attached.  After
    every step the directed neighbour maps, the convergence round counts
    and the maintained parent maps must agree exactly, and the owned index
    must hold exactly the alive population.
    """
    rng = random.Random(script_seed)
    fast = OverlayNetwork(selection_factory(), use_index=True)
    slow = OverlayNetwork(selection_factory(), use_index=False)
    maintainers = None
    alive = []
    pending = list(peers)
    while pending or (alive and rng.random() < 0.4):
        action = rng.random()
        if alive and len(alive) >= 2 and action < 0.2:
            # One batched epoch: a couple of leaves and joins, one converge.
            events = []
            for victim in rng.sample(alive, min(2, len(alive) - 1)):
                events.append(victim)
                alive.remove(victim)
            while pending and rng.random() < 0.6:
                joiner = pending.pop()
                bootstrap = frozenset({rng.choice(alive)}) if alive else frozenset()
                events.append(BatchJoin(joiner, bootstrap=bootstrap))
                alive.append(joiner.peer_id)
            fast_rounds = fast.apply_batch(events, incremental=True)
            slow_rounds = slow.apply_batch(events, incremental=True)
        elif alive and (not pending or action < 0.35):
            victim = rng.choice(alive)
            alive.remove(victim)
            fast_rounds = fast.remove_and_converge(victim, incremental=True)
            slow_rounds = slow.remove_and_converge(victim, incremental=True)
        else:
            joiner = pending.pop()
            bootstrap = {rng.choice(alive)} if alive else set()
            fast_rounds = fast.insert_and_converge(
                joiner, bootstrap=bootstrap, incremental=True
            )
            slow_rounds = slow.insert_and_converge(
                joiner, bootstrap=bootstrap, incremental=True
            )
            alive.append(joiner.peer_id)
        if maintainers is None and fast.peer_count:
            maintainers = (StabilityTreeMaintainer(fast), StabilityTreeMaintainer(slow))
        assert fast_rounds == slow_rounds
        assert fast.directed_neighbour_map() == slow.directed_neighbour_map()
        assert fast.index is not None and slow.index is None
        assert fast.index.ids() == fast.peer_ids
        if maintainers is not None:
            fast_tree, slow_tree = maintainers
            fast_tree.refresh()
            slow_tree.refresh()
            assert fast_tree.engine.parent_map() == slow_tree.engine.parent_map()


@settings(max_examples=15, deadline=None)
@given(
    peers=_populations(min_size=4, max_size=12),
    selection_factory=_SELECTIONS,
    gossip_radius=st.sampled_from([2, 3]),
    seed=st.integers(min_value=0, max_value=999),
)
def test_bounded_gossip_radius_falls_back_to_scans(
    peers, selection_factory, gossip_radius, seed
):
    """Under a gossip radius the index never answers selections.

    Candidate sets are per-peer bounded-hop subsets there, so the overlay
    must scan; forcing the index on anyway must change nothing -- it is
    maintained but unused.
    """
    fast = OverlayNetwork.build_incremental(
        peers,
        selection_factory(),
        gossip_radius=gossip_radius,
        rng=random.Random(seed),
        use_index=True,
    )
    slow = OverlayNetwork.build_incremental(
        peers,
        selection_factory(),
        gossip_radius=gossip_radius,
        rng=random.Random(seed),
        use_index=False,
    )
    assert fast._selection_index() is None  # the fast path is gated off
    assert fast.index is not None and fast.index.ids() == fast.peer_ids
    assert fast.directed_neighbour_map() == slow.directed_neighbour_map()


@settings(max_examples=20, deadline=None)
@given(peers=_populations(min_size=3, max_size=14), selection_factory=_SELECTIONS)
def test_build_equilibrium_populates_the_owned_index(peers, selection_factory):
    """The bulk equilibrium builder must leave the index membership-exact.

    ``build_equilibrium`` fills the peer map directly rather than through
    ``add_peer``; a stale-empty index there would silently poison every
    later indexed convergence, so membership is part of the contract.
    """
    overlay = OverlayNetwork.build_equilibrium(peers, selection_factory())
    assert overlay.index is not None
    assert overlay.index.ids() == overlay.peer_ids
    # A follow-up indexed convergence sits at the same fixed point a scan
    # overlay reaches from the same state.
    rounds = overlay.converge(incremental=True)
    scan = OverlayNetwork.build_equilibrium(peers, selection_factory(), use_index=False)
    scan_rounds = scan.converge(incremental=True)
    assert rounds == scan_rounds
    assert overlay.directed_neighbour_map() == scan.directed_neighbour_map()


def test_one_shot_converge_matches_scan_path_and_full_sweep():
    """Full knowledge settles in one install, on both index arms.

    ``max_rounds=1`` used to abort a full-knowledge convergence with
    :class:`ConvergenceError`; the one-shot install cannot need a second
    round, so it succeeds, the owned index still mirrors the population
    exactly, both arms land on the identical fixed point, and a full sweep
    afterwards finds nothing to change.  (The gossip-radius
    ``ConvergenceError`` contract lives in ``test_apply_batch.py``.)
    """
    rng = random.Random(42)
    peers = [
        make_peer(i, (float(v) / 8, float(w) / 8))
        for i, (v, w) in enumerate(
            zip(rng.sample(range(9999), 30), rng.sample(range(9999), 30))
        )
    ]
    fast = OverlayNetwork(EmptyRectangleSelection(), use_index=True)
    slow = OverlayNetwork(EmptyRectangleSelection(), use_index=False)
    for overlay in (fast, slow):
        for peer in peers[:20]:
            overlay.add_peer(peer)
        assert overlay.converge(incremental=True) == 1
    for overlay in (fast, slow):
        for peer in peers[20:]:
            overlay.add_peer(peer)
        overlay.remove_peer(peers[3].peer_id)
        assert overlay.converge(max_rounds=1, incremental=True) == 1
    assert fast.index is not None
    assert fast.index.ids() == fast.peer_ids
    assert fast.directed_neighbour_map() == slow.directed_neighbour_map()
    settled = fast.directed_neighbour_map()
    assert fast.reselect_round() is False
    assert fast.directed_neighbour_map() == settled


def test_index_drains_to_empty_with_the_overlay():
    """Removing every peer leaves an empty but alive index."""
    peers = [make_peer(i, (float(i), float(i * 7 % 13))) for i in range(8)]
    overlay = OverlayNetwork(EmptyRectangleSelection(), use_index=True)
    for peer in peers:
        overlay.insert_and_converge(peer, incremental=True)
    for peer in peers:
        overlay.remove_and_converge(peer.peer_id, incremental=True)
    assert overlay.peer_count == 0
    assert overlay.index is not None and len(overlay.index) == 0
    assert overlay.index.dimension == 2  # retained for the next join
    overlay.insert_and_converge(make_peer(99, (1.0, 2.0)), incremental=True)
    assert overlay.index.ids() == [99]
    # An empty overlay accepts a population of any dimension; the index must
    # follow rather than reject the first joiner of the new population.
    overlay.remove_and_converge(99, incremental=True)
    overlay.insert_and_converge(make_peer(7, (1.0, 2.0, 3.0)), incremental=True)
    assert overlay.index.dimension == 3
    assert overlay.index.ids() == [7]


def test_unsupported_methods_never_receive_an_index():
    """A selection without an indexed path keeps the overlay on scans."""

    class ArbitraryDistance(OrthogonalHyperplanesSelection):
        def __init__(self):
            super().__init__(k=1, distance=lambda a, b: sum(abs(x - y) for x, y in zip(a, b)))

    overlay = OverlayNetwork(ArbitraryDistance(), use_index=True)
    assert not overlay.selection.supports_index
    assert overlay._selection_index() is None
    for peer in [make_peer(i, (float(i), float(9 - i))) for i in range(6)]:
        overlay.insert_and_converge(peer, incremental=True)
    with pytest.raises(TypeError, match="no index-backed selection path"):
        overlay.selection.select_many([], {}, index=overlay.index)
    with pytest.raises(TypeError, match="no index-backed selection path"):
        overlay.selection.select_many_additive([], index=overlay.index)
