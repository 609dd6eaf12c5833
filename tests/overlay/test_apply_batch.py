"""Batched-epoch convergence: apply_batch semantics and equivalence.

The batched path's correctness story: applying a whole epoch of membership
events and converging once reaches the same fixed point (and, through the
delta stream, the byte-identical maintained stability tree) as converging
after every single event.  Hypothesis hunts for counterexamples over random
batched traces; unit tests pin the delta-stream contract on the degenerate
paths (emptying the overlay, leave+rejoin inside one epoch) and the
engine-invalidation contract of the :class:`ConvergenceError` path.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.trees import tree_metrics
from repro.multicast.incremental import StabilityTreeMaintainer
from repro.multicast.stability import StabilityTreeBuilder
from repro.overlay.network import (
    BatchJoin,
    BatchLeave,
    BatchMove,
    ConvergenceError,
    OverlayNetwork,
)
from repro.overlay.peer import make_peer
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.overlay.selection.k_closest import KClosestSelection
from repro.overlay.selection.orthogonal import OrthogonalHyperplanesSelection


def _peers(count, dimension=2):
    """Small fixed population with pairwise-distinct per-axis coordinates."""
    return [
        make_peer(index, tuple(float(index * dimension + axis) for axis in range(dimension)))
        for index in range(count)
    ]


# ----------------------------------------------------------------------
# apply_batch semantics
# ----------------------------------------------------------------------
class TestApplyBatch:
    def test_empty_batch_is_a_no_op(self):
        overlay = OverlayNetwork(EmptyRectangleSelection())
        assert overlay.apply_batch([]) == 0
        assert overlay.peer_count == 0

    def test_shorthand_events(self):
        peers = _peers(4)
        overlay = OverlayNetwork(EmptyRectangleSelection())
        # PeerInfo is a join, a bare int is a leave.
        rounds = overlay.apply_batch(peers)
        assert rounds >= 1
        assert overlay.peer_ids == [0, 1, 2, 3]
        overlay.apply_batch([3])
        assert overlay.peer_ids == [0, 1, 2]

    def test_batch_move_relocates_and_reconverges(self):
        peers = _peers(5)
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.apply_batch(peers)
        new_coordinates = (100.0, 100.0)
        rounds = overlay.apply_batch([BatchMove(2, new_coordinates)])
        assert rounds >= 1
        assert tuple(overlay.peer(2).coordinates) == new_coordinates
        # The post-move fixed point matches an overlay built at the moved
        # coordinates from scratch.
        rebuilt = OverlayNetwork(EmptyRectangleSelection())
        rebuilt.apply_batch(
            [
                replace(peer, coordinates=new_coordinates) if peer.peer_id == 2 else peer
                for peer in peers
            ]
        )
        assert overlay.directed_neighbour_map() == rebuilt.directed_neighbour_map()

    def test_unsupported_event_rejected(self):
        overlay = OverlayNetwork(EmptyRectangleSelection())
        with pytest.raises(TypeError):
            overlay.apply_batch(["join"])

    def test_batch_emptying_the_overlay_skips_convergence(self):
        peers = _peers(3)
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.apply_batch(peers)
        assert overlay.apply_batch([0, 1, 2]) == 0
        assert overlay.peer_count == 0

    def test_join_may_bootstrap_off_an_earlier_join_in_the_same_batch(self):
        peers = _peers(3)
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.apply_batch(
            [
                BatchJoin(peers[0], bootstrap=frozenset()),
                BatchJoin(peers[1], bootstrap=frozenset({0})),
                BatchJoin(peers[2], bootstrap=frozenset({1})),
            ]
        )
        assert overlay.peer_ids == [0, 1, 2]

    def test_leave_then_rejoin_inside_one_batch_is_well_formed(self):
        peers = _peers(5)
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.apply_batch(peers)
        overlay.apply_batch(
            [BatchLeave(2), BatchJoin(peers[2], bootstrap=frozenset({0}))]
        )
        assert overlay.peer_ids == [0, 1, 2, 3, 4]


# ----------------------------------------------------------------------
# Delta-stream contract on the degenerate paths
# ----------------------------------------------------------------------
class TestDeltaStreamDegenerates:
    def test_remove_and_converge_to_empty_still_reports_the_leave(self):
        peers = _peers(2)
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.apply_batch(peers)
        recorder = overlay.delta_stream()
        overlay.remove_and_converge(1, incremental=True)
        assert overlay.remove_and_converge(0, incremental=True) == 0
        delta = recorder.drain()
        assert delta.departed == frozenset({0, 1})
        assert delta.joined == frozenset()

    def test_maintainer_survives_draining_down_to_empty(self):
        peers = _peers(3)
        overlay = OverlayNetwork(EmptyRectangleSelection())
        maintainer = StabilityTreeMaintainer(overlay)
        overlay.apply_batch(peers)
        maintainer.refresh()
        for peer_id in (2, 1, 0):
            overlay.remove_and_converge(peer_id, incremental=True)
        delta = maintainer.refresh()
        assert delta.departed == frozenset({0, 1, 2})
        assert maintainer.engine.peer_count == 0
        assert maintainer.full_rebuilds == 1

    def test_leave_plus_rejoin_in_one_epoch_appears_as_both(self):
        peers = _peers(5)
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.apply_batch(peers)
        recorder = overlay.delta_stream()
        overlay.apply_batch(
            [BatchLeave(2), BatchJoin(peers[2], bootstrap=frozenset({0}))]
        )
        delta = recorder.drain()
        assert 2 in delta.departed and 2 in delta.joined

    def test_join_plus_leave_in_one_epoch_cancels(self):
        peers = _peers(5)
        overlay = OverlayNetwork(EmptyRectangleSelection())
        overlay.apply_batch(peers[:4])
        recorder = overlay.delta_stream()
        overlay.apply_batch(
            [BatchJoin(peers[4], bootstrap=frozenset({0})), BatchLeave(4)]
        )
        delta = recorder.drain()
        assert 4 not in delta.joined and 4 not in delta.departed

    def test_leave_rejoin_epoch_keeps_the_maintained_tree_byte_identical(self):
        peers = _peers(6, dimension=3)
        overlay = OverlayNetwork(OrthogonalHyperplanesSelection(k=2))
        maintainer = StabilityTreeMaintainer(overlay)
        overlay.apply_batch(peers)
        maintainer.refresh()
        overlay.apply_batch(
            [BatchLeave(3), BatchJoin(peers[3], bootstrap=frozenset({0}))]
        )
        maintainer.refresh()
        expected = StabilityTreeBuilder().build(overlay.snapshot())
        assert maintainer.forest().preferred == dict(expected.preferred)


# ----------------------------------------------------------------------
# ConvergenceError invalidates the engine (regression)
# ----------------------------------------------------------------------
def _chain_overlay():
    """A bootstrap chain under a small gossip radius: needs 2 rounds."""
    overlay = OverlayNetwork(KClosestSelection(k=2), gossip_radius=2)
    for index, peer in enumerate(
        make_peer(i, (float(i), float(i % 3))) for i in range(10)
    ):
        overlay.add_peer(peer, bootstrap={index - 1} if index else ())
    return overlay


class TestConvergenceErrorRecovery:
    def test_engine_is_invalidated_on_the_exception_path(self):
        overlay = _chain_overlay()
        with pytest.raises(ConvergenceError):
            overlay.converge(incremental=True, max_rounds=1)
        assert overlay._engine is None  # noqa: SLF001 - the regression is internal

    def test_subsequent_converge_reaches_the_true_fixed_point(self):
        overlay = _chain_overlay()
        with pytest.raises(ConvergenceError):
            overlay.converge(incremental=True, max_rounds=1)
        overlay.converge(incremental=True)

        # The reference arm fails the same way mid-trajectory (the first
        # incremental round equals the first full sweep) and continues on
        # full sweeps; both recoveries must land on the same fixed point.
        reference = _chain_overlay()
        with pytest.raises(ConvergenceError):
            reference.converge(incremental=False, max_rounds=1)
        reference.converge(incremental=False)
        assert overlay.directed_neighbour_map() == reference.directed_neighbour_map()


# ----------------------------------------------------------------------
# Hypothesis: batched epochs == per-event convergence
# ----------------------------------------------------------------------
def _populations(min_size=4, max_size=14, max_dimension=3):
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
        lambda: OrthogonalHyperplanesSelection(k=2),
        lambda: KClosestSelection(k=2),
    ]
)


def _shifted(peer, *, keep_lifetime=False):
    """The peer half a grid step off every axis (but axis 0 if asked).

    Population coordinates are multiples of 1/8, so shifted ones (odd
    multiples of 1/16) never tie with an unshifted value on any axis, and two
    shifted peers differ wherever their originals do.  A move keeps axis 0:
    it is the peer's lifetime, which the maintained stability tree fixes
    at join time.
    """
    first = 1 if keep_lifetime else 0
    return replace(
        peer,
        coordinates=tuple(
            value + 1 / 16 if axis >= first else value
            for axis, value in enumerate(peer.coordinates)
        ),
    )


def _moved(peer):
    """Coordinates of a lifetime-keeping move of ``peer``."""
    return _shifted(peer, keep_lifetime=True).coordinates


def _random_batched_script(peers, rng):
    """A random trace: join/leave/move events partitioned into random epochs.

    Bootstrap contacts are pre-chosen against the evolving alive set, so
    every replay performs byte-identical membership operations and only the
    convergence path differs.  Moves toggle a peer's axes past the first
    between their original and shifted values; a departed peer rejoins at
    its original or its fully shifted position.
    Leaves, rejoins and moves may share an epoch with their counterparts.
    """
    batches = []
    alive = []
    pending = list(peers)
    departed = []
    by_id = {peer.peer_id: peer for peer in peers}
    position = {}
    while pending or (alive and rng.random() < 0.4):
        batch = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if alive and roll < 0.15:
                mover = rng.choice(alive)
                original = by_id[mover].coordinates
                current = position[mover]
                moved = (current[0],) + tuple(
                    original[axis] if current[axis] != original[axis]
                    else original[axis] + 1 / 16
                    for axis in range(1, len(current))
                )
                position[mover] = moved
                batch.append(BatchMove(mover, moved))
            elif alive and (roll < 0.35 or not (pending or departed)):
                victim = rng.choice(alive)
                alive.remove(victim)
                batch.append(BatchLeave(victim))
                departed.append(victim)
            elif pending or departed:
                if departed and (not pending or roll < 0.5):
                    peer_id = departed.pop(rng.randrange(len(departed)))
                    peer = by_id[peer_id]
                    if rng.random() < 0.5:
                        peer = _shifted(peer)
                else:
                    peer = pending.pop()
                position[peer.peer_id] = peer.coordinates
                bootstrap = frozenset({rng.choice(alive)}) if alive else frozenset()
                batch.append(BatchJoin(peer, bootstrap=bootstrap))
                alive.append(peer.peer_id)
            else:
                break
        if batch:
            batches.append(batch)
    return batches


@settings(max_examples=25, deadline=None)
@given(
    peers=_populations(),
    selection_factory=_SELECTIONS,
    script_seed=st.integers(min_value=0, max_value=999),
)
def test_batched_epochs_match_per_event_convergence(
    peers, selection_factory, script_seed
):
    """Per-epoch apply_batch == per-event full sweeps, overlay and tree alike.

    After every epoch the batched overlay must equal the per-event one
    (under full knowledge the fixed point is a function of the surviving
    population), and the two maintained stability trees -- refreshed once
    per epoch vs once per event -- must be byte-identical, including the
    streaming metric bundles whenever the forest is a single tree.  The
    per-event arm converges by full sweeps, the reference path.
    """
    rng = random.Random(script_seed)
    batches = _random_batched_script(peers, rng)

    fast = OverlayNetwork(selection_factory())
    slow = OverlayNetwork(selection_factory())
    fast_maintainer = StabilityTreeMaintainer(fast)
    slow_maintainer = StabilityTreeMaintainer(slow)

    for batch in batches:
        fast.apply_batch(batch)
        fast_maintainer.refresh()
        for event in batch:
            slow.apply_batch((event,), incremental=False)
            slow_maintainer.refresh()

        assert fast.directed_neighbour_map() == slow.directed_neighbour_map()
        fast_forest = fast_maintainer.forest()
        slow_forest = slow_maintainer.forest()
        assert dict(fast_forest.preferred) == dict(slow_forest.preferred)
        assert dict(fast_forest.lifetimes) == dict(slow_forest.lifetimes)
        if fast.peer_count and fast_forest.is_single_tree():
            assert fast_maintainer.metrics() == slow_maintainer.metrics()

    # Both maintainers paid exactly one snapshot-scale rebuild: the bootstrap.
    assert fast_maintainer.full_rebuilds == 1
    assert slow_maintainer.full_rebuilds == 1
    # And the maintained tree equals the from-scratch snapshot build.
    if fast.peer_count:
        expected = StabilityTreeBuilder().build(fast.snapshot())
        assert fast_maintainer.forest().preferred == dict(expected.preferred)
        if fast_maintainer.forest().is_single_tree():
            assert fast_maintainer.metrics() == tree_metrics(
                expected.to_multicast_tree()
            )


def _check_incremental_against_full_sweep(
    peers, selection_factory, gossip_radius, batches
):
    """Replay ``batches`` on both convergence paths, checking every epoch.

    The incremental overlay must equal the full-sweep one after every
    epoch, drain the identical delta, and keep a maintained stability tree
    equal to the from-scratch snapshot build; under full knowledge it must
    also equal the equilibrium builder's overlay of the alive population.
    """
    fast = OverlayNetwork(selection_factory(), gossip_radius=gossip_radius)
    slow = OverlayNetwork(selection_factory(), gossip_radius=gossip_radius)
    fast_stream, slow_stream = fast.delta_stream(), slow.delta_stream()
    maintainer = StabilityTreeMaintainer(fast)
    for batch in batches:
        fast.apply_batch(batch, incremental=True)
        slow.apply_batch(batch, incremental=False)
        assert fast.directed_neighbour_map() == slow.directed_neighbour_map()
        assert fast_stream.drain() == slow_stream.drain()
        maintainer.refresh()
        expected = StabilityTreeBuilder().build(fast.snapshot())
        assert maintainer.forest().preferred == dict(expected.preferred)
        if gossip_radius is None and fast.peer_count:
            equilibrium = OverlayNetwork.build_equilibrium(
                fast.peers(), selection_factory()
            )
            assert fast.directed_neighbour_map() == equilibrium.directed_neighbour_map()


@settings(max_examples=25, deadline=None)
@given(
    peers=_populations(),
    selection_factory=_SELECTIONS,
    gossip_radius=st.sampled_from([None, 2, 3]),
    script_seed=st.integers(min_value=0, max_value=999),
)
def test_batched_incremental_matches_batched_full_sweep(
    peers, selection_factory, gossip_radius, script_seed
):
    """apply_batch(incremental=True) == apply_batch(incremental=False).

    Under full knowledge the one-shot install lands on the fixed point the
    full sweep reaches; under a bounded gossip radius the engine's partial
    rounds install exactly what a full sweep would, so both paths follow
    the same trajectory from the same post-batch state.
    """
    rng = random.Random(script_seed)
    batches = _random_batched_script(peers, rng)
    _check_incremental_against_full_sweep(
        peers, selection_factory, gossip_radius, batches
    )


def _edge_case_scripts():
    peers = _peers(8)
    warm_up = [BatchJoin(peer) for peer in peers[:6]]
    return {
        "join-and-leave-in-one-batch": [
            warm_up,
            [BatchJoin(peers[6], bootstrap=frozenset({0})), BatchLeave(6)],
            [BatchLeave(2), BatchJoin(peers[7], bootstrap=frozenset({1})), BatchLeave(7)],
        ],
        "leave-and-rejoin-at-new-coordinates": [
            warm_up,
            [BatchLeave(3), BatchJoin(_shifted(peers[3]), bootstrap=frozenset({0}))],
            [BatchLeave(0), BatchJoin(_shifted(peers[0]), bootstrap=frozenset({5}))],
        ],
        "move-then-leave": [
            warm_up,
            [BatchMove(4, _moved(peers[4])), BatchLeave(4)],
            [BatchMove(1, _moved(peers[1])), BatchLeave(2), BatchLeave(1)],
        ],
    }


@pytest.mark.parametrize("gossip_radius", [None, 2], ids=["full", "radius2"])
@pytest.mark.parametrize(
    "selection_factory",
    [EmptyRectangleSelection, lambda: KClosestSelection(k=2)],
    ids=["empty-rectangle", "k-closest"],
)
@pytest.mark.parametrize("script", sorted(_edge_case_scripts()))
def test_epoch_edge_cases_match_full_sweep(script, selection_factory, gossip_radius):
    """Event pairs inside one epoch that the one-shot delta must net out."""
    _check_incremental_against_full_sweep(
        _peers(8), selection_factory, gossip_radius, _edge_case_scripts()[script]
    )


class _CountingSelection(EmptyRectangleSelection):
    """Empty-rectangle selection that counts its cohort installs."""

    def __init__(self):
        super().__init__()
        self.install_calls = []

    def install_many(self, *args, **kwargs):
        self.install_calls.append(len(args[0]))
        return super().install_many(*args, **kwargs)


@pytest.mark.parametrize("use_index", [True, False], ids=["indexed", "scan"])
def test_full_knowledge_converge_is_one_install(use_index):
    """Every full-knowledge converge is exactly one install_many call."""
    selection = _CountingSelection()
    overlay = OverlayNetwork(selection, use_index=use_index)
    peers = _peers(10)
    script = [
        [BatchJoin(peer) for peer in peers[:7]],
        [BatchJoin(peers[7], bootstrap=frozenset({2}))],
        [BatchLeave(3), BatchMove(5, _moved(peers[5]))],
        [BatchLeave(0), BatchJoin(_shifted(peers[3])), BatchJoin(peers[8])],
    ]
    for batch in script:
        before = len(selection.install_calls)
        assert overlay.apply_batch(batch) == 1
        assert len(selection.install_calls) == before + 1
        equilibrium = OverlayNetwork.build_equilibrium(
            overlay.peers(), EmptyRectangleSelection()
        )
        assert overlay.directed_neighbour_map() == equilibrium.directed_neighbour_map()
    # An idle converge is still one (empty) install.
    before = len(selection.install_calls)
    assert overlay.converge(incremental=True) == 1
    assert selection.install_calls[before:] == [0]
