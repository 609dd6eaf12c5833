"""Incremental reselection: converge by reacting to deltas, not global sweeps.

The paper's experimental procedure inserts peers one at a time and lets the
overlay converge after every insertion.  Running that with full synchronous
sweeps (:meth:`repro.overlay.network.OverlayNetwork.reselect_round`) costs a
full ``select()`` for every peer in every round, which makes the procedure
roughly cubic in the population size.  This module holds the machinery that
re-runs selection *only where something could have changed* -- the
reaction-to-deltas pattern gossip aggregation protocols use to reach large
populations.

Under full knowledge a peer's selection is a pure function of the alive
population, so one install settles every epoch; that path lives in
:meth:`repro.overlay.network.OverlayNetwork.converge` and needs no rounds.
A bounded gossip radius makes every candidate set ``I(P)`` a per-peer
subset that depends on the topology itself, so convergence there takes
real rounds, driven by :class:`IncrementalReselectionEngine`.

Dirty-set invariants (gossip-limited overlays)
----------------------------------------------

The engine tracks, for every peer ``P``:

* the candidate id set ``I(P)`` at the moment of ``P``'s last installed
  selection -- or the fact that no selection consistent with the engine's
  bookkeeping exists (freshly joined peers, peers whose neighbour set was
  mutated behind the engine's back by a departure), which forces a full
  recomputation;
* membership of the *dirty set* -- ``P`` is dirty exactly when its current
  ``I(P)`` may differ from the one its selection was installed under.

Clean peers therefore provably reproduce their current selection, so a
partial round that re-selects only dirty peers installs the same topology a
full synchronous sweep would; by induction the incremental path follows the
full-sweep trajectory round for round and terminates in the identical fixed
point (the cross-check property tests exercise exactly this).  Dirtiness is
seeded by membership events (the joined peer, departed peers' selectors, a
moved peer and everyone whose candidate set held it) and propagated through
cached bounded-hop reachability
(:func:`repro.overlay.gossip.knowledge_set_deltas` re-explores only peers
within ``BR`` hops of a changed overlay edge).

When the selection method declares itself *path independent*
(:attr:`~repro.overlay.selection.base.NeighbourSelectionMethod.path_independent`),
two cheaper re-selection paths apply:

* a peer that only *lost* candidates it had not selected keeps its selection
  with no recomputation at all;
* a peer that only *gained* candidates re-selects from ``selection + gained``
  instead of its full candidate set.

Methods without the property fall back to full-candidate recomputation,
which is always correct.  Selections are batched through
:meth:`~repro.overlay.selection.base.NeighbourSelectionMethod.select_many`
so vectorised methods amortise the per-call overhead.

The full/skip/additive decision itself is :func:`classify_reselect`, shared
with the message-level simulator: a
:class:`repro.simulation.protocol.PeerProcess` applies the same rule to its
``AnnouncementStore`` snapshot on every reselect tick, so the protocol replay
and the offline engine skip and shortcut under exactly the same conditions.

Delta-stream contract
---------------------

Downstream consumers (the event-driven multicast layer of
:mod:`repro.multicast.incremental`, the incremental connectivity tracker of
ablation A4) react to overlay changes without re-reading the whole topology.
They subscribe through :meth:`repro.overlay.network.OverlayNetwork.delta_stream`,
which hands out an :class:`OverlayDeltaRecorder`; every membership event and
every installed selection change -- whichever convergence path produced it --
is recorded, and :meth:`OverlayDeltaRecorder.drain` returns the accumulated
:class:`OverlayDelta` and resets the recorder.  The contract:

* ``joined`` / ``departed`` are the net membership changes since the last
  drain (a peer that joined *and* departed inside one window appears in
  neither; a departure followed by a re-join appears in both, and consumers
  must process the departure first);
* ``touched`` is a superset of the peers whose *undirected* adjacency may
  have changed -- both endpoints of every added or removed selection edge --
  so a consumer that re-derives per-peer state (e.g. the preferred tree
  neighbour, which depends only on a peer's own adjacency) from the
  overlay's *current* state for every touched peer provably reaches the
  same result as a from-scratch recomputation.  Re-processing an
  already-clean peer is always harmless, so over-approximation is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.contracts import hot_path
from repro.overlay.gossip import knowledge_set_deltas, knowledge_sets
from repro.overlay.peer import PeerInfo

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.overlay.network import OverlayNetwork

__all__ = [
    "RESELECT_FULL",
    "RESELECT_SKIP",
    "RESELECT_ADDITIVE",
    "classify_reselect",
    "ExplicitCandidateState",
    "IncrementalReselectionEngine",
    "OverlayDelta",
    "OverlayDeltaRecorder",
    "DirectedSelectionMirror",
]


@dataclass(frozen=True)
class OverlayDelta:
    """Net overlay changes accumulated between two recorder drains."""

    joined: FrozenSet[int]
    departed: FrozenSet[int]
    touched: FrozenSet[int]

    @property
    def is_empty(self) -> bool:
        """``True`` when nothing happened since the last drain."""
        return not (self.joined or self.departed or self.touched)


class OverlayDeltaRecorder:
    """Accumulates membership and adjacency-touch events for one subscriber.

    Created by :meth:`repro.overlay.network.OverlayNetwork.delta_stream`;
    see the module docstring for the exact delta-stream contract.  The
    recorder only stores peer ids, so keeping one attached costs ``O(changed
    peers)`` per convergence, not ``O(N)``.
    """

    def __init__(self) -> None:
        self._joined: Set[int] = set()
        self._departed: Set[int] = set()
        self._touched: Set[int] = set()

    @hot_path
    def note_join(self, peer_id: int) -> None:
        """A peer entered the overlay (possibly re-using a departed id)."""
        self._joined.add(peer_id)
        self._touched.add(peer_id)

    @hot_path
    def note_leave(self, peer_id: int) -> None:
        """A peer left the overlay."""
        if peer_id in self._joined:
            # A join and a leave inside one window cancel out: the consumer
            # never saw the peer, so it must not be asked to remove it.
            self._joined.discard(peer_id)
        else:
            self._departed.add(peer_id)

    @hot_path
    def note_touch(self, peer_ids: Iterable[int]) -> None:
        """The undirected adjacency of these peers may have changed."""
        self._touched.update(peer_ids)

    @hot_path
    def drain(self) -> OverlayDelta:
        """Return the accumulated delta and reset the recorder."""
        delta = OverlayDelta(
            joined=frozenset(self._joined),
            departed=frozenset(self._departed),
            touched=frozenset(self._touched),
        )
        self._joined = set()
        self._departed = set()
        self._touched = set()
        return delta


class DirectedSelectionMirror:
    """Per-peer copies of the directed selection, maintained from drained deltas.

    The delta-stream consumers (the stability-tree maintainer, the A4
    connectivity feed) all need the same two things the overlay does not
    index: ``O(degree)`` reads of one peer's undirected adjacency (its own
    selection plus the reverse *selector* index) and the per-peer directed
    edge diffs behind each drained :class:`OverlayDelta`.  This mirror is
    the single implementation of that bookkeeping -- departed peers'
    outgoing links dropped first, then every alive touched peer's current
    selection diffed against the stored copy -- so the subtle ordering
    rules live in one place.
    """

    def __init__(self) -> None:
        self._selected: Dict[int, FrozenSet[int]] = {}
        self._selectors: Dict[int, Set[int]] = {}

    def adopt(self, overlay: "OverlayNetwork") -> None:
        """Reset to the overlay's current directed selection wholesale."""
        self._selected = {}
        self._selectors = {}
        for peer_id, selected in overlay.directed_neighbour_map().items():
            self._selected[peer_id] = selected
            for target in selected:
                self._selectors.setdefault(target, set()).add(peer_id)

    def selected(self, peer_id: int) -> FrozenSet[int]:
        """Mirrored directed selection of one peer."""
        return self._selected.get(peer_id, frozenset())

    def selectors(self, peer_id: int) -> FrozenSet[int]:
        """Peers whose mirrored selection contains ``peer_id``."""
        return frozenset(self._selectors.get(peer_id, ()))

    def adjacency(self, peer_id: int) -> Set[int]:
        """Undirected adjacency of one peer: selected plus selectors."""
        return set(self._selected.get(peer_id, frozenset())) | self._selectors.get(
            peer_id, set()
        )

    @hot_path
    def apply(
        self, delta: OverlayDelta, overlay: "OverlayNetwork"
    ) -> Dict[int, "tuple[FrozenSet[int], FrozenSet[int]]"]:
        """Fold one drained delta in; return per-peer ``(gained, lost)`` targets.

        A departed peer's *outgoing* links are dropped up front; its
        *selector* index is deliberately left alone and drained by the alive
        endpoints' own diffs instead (every ex-selector is in ``touched`` by
        contract).  This is what keeps a leave-then-rejoin inside one window
        correct: a selector whose selection is net-unchanged across the
        rejoin produces an empty diff, and its (still valid) reverse-index
        entry must survive.  Selector entries of peers that departed for
        good are popped once empty.

        The result maps every *alive* touched or joined peer -- including
        ones whose selection turned out unchanged, so callers can use the
        key set as their recheck set -- to the directed targets its
        selection gained and lost.
        """
        for peer_id in delta.departed:
            for target in self._selected.pop(peer_id, frozenset()):
                selectors = self._selectors.get(target)
                if selectors:
                    selectors.discard(peer_id)
        diffs: Dict[int, "tuple[FrozenSet[int], FrozenSet[int]]"] = {}
        for peer_id in delta.touched | delta.joined:
            if peer_id not in overlay:
                continue
            current = overlay.selected_neighbours(peer_id)
            previous = self._selected.get(peer_id, frozenset())
            gained = current - previous
            lost = previous - current
            for target in gained:
                self._selectors.setdefault(target, set()).add(peer_id)
            for target in lost:
                selectors = self._selectors.get(target)
                if selectors:
                    selectors.discard(peer_id)
            self._selected[peer_id] = current
            diffs[peer_id] = (gained, lost)
        for peer_id in delta.departed:
            if peer_id not in overlay:
                self._selectors.pop(peer_id, None)
        return diffs

#: Re-run the selection against the complete candidate set.
RESELECT_FULL = "full"
#: The installed selection provably still holds; no recomputation needed.
RESELECT_SKIP = "skip"
#: Re-select from ``installed selection + gained`` (path independence).
RESELECT_ADDITIVE = "additive"


@hot_path
def classify_reselect(
    last_candidates: Optional[FrozenSet[int]],
    gained: Set[int],
    lost: Set[int],
    installed_selection: Set[int],
    path_independent: bool,
) -> str:
    """Decide how a peer's selection must be refreshed for a candidate delta.

    This is the dirty-set decision rule shared by the offline
    :class:`IncrementalReselectionEngine` and the message-level simulator's
    :class:`repro.simulation.protocol.PeerProcess`: given the candidate id
    set at the peer's last installed selection (``None`` = no selection
    consistent with any candidate set exists), the ids gained and lost since
    then, and the installed selection itself, return one of

    * :data:`RESELECT_FULL` -- recompute against the complete candidate set
      (no history, a non-path-independent method, or a selected candidate
      was lost);
    * :data:`RESELECT_SKIP` -- only never-selected candidates were lost (or
      nothing changed at all): path independence guarantees the installed
      selection is exactly what a recomputation would produce;
    * :data:`RESELECT_ADDITIVE` -- the set only gained members (beyond
      harmless losses): path independence lets ``selection + gained`` stand
      in for the full candidate set.

    The skip verdict for an *empty* delta is valid for any deterministic
    method; the skip-on-loss and additive verdicts rely on
    :attr:`~repro.overlay.selection.base.NeighbourSelectionMethod.path_independent`.
    """
    if last_candidates is None or (lost & installed_selection):
        return RESELECT_FULL
    if not gained and not lost:
        return RESELECT_SKIP
    if not path_independent:
        return RESELECT_FULL
    if not gained:
        return RESELECT_SKIP
    return RESELECT_ADDITIVE


class ExplicitCandidateState:
    """Per-peer candidate bookkeeping for gossip-limited overlays.

    Keeps a materialised ``last_candidates`` frozenset per peer (``None``
    forces a full recomputation), the dirty set, and cached bounded-hop
    reachability together with the adjacency it was computed under.  A
    bounded radius makes every candidate set a genuinely per-peer subset,
    so this explicit representation is the honest one.

    Round protocol: :meth:`begin_round` refreshes reachability against the
    pre-round topology and returns the sorted dirty ids; the engine reads
    :meth:`delta` / :meth:`candidate_ids` for each of them *before*
    installing anything (each peer's candidate set is computed once per
    round and cached); :meth:`end_round` records the cached sets as the new
    history of every scheduled peer.  Membership notifications
    (``note_join`` / ``note_leave`` / ``note_move``) arrive between rounds,
    never inside one.
    """

    def __init__(self, overlay: "OverlayNetwork") -> None:
        self._overlay = overlay
        self._radius = overlay.gossip_radius
        self._last_candidates: Dict[int, Optional[FrozenSet[int]]] = {}
        self._dirty: Set[int] = set()
        # Candidate id sets materialised during the current round.
        self._round_candidates: Dict[int, Set[int]] = {}
        # Adopt the overlay's current state: everything dirty, no history.
        for peer_id in overlay.peer_ids:
            self._last_candidates[peer_id] = None
            self._dirty.add(peer_id)
        self._prev_adjacency: Dict[int, Set[int]] = {
            peer_id: set(neighbour_ids)
            for peer_id, neighbour_ids in overlay.adjacency().items()
        }
        self._known: Dict[int, Set[int]] = knowledge_sets(
            self._prev_adjacency, self._radius
        )

    # ------------------------------------------------------------------
    # Membership notifications
    # ------------------------------------------------------------------
    def note_join(self, peer_id: int) -> None:
        """The joiner has no history; reachability deltas at the next round
        pick up its edges (the empty cache entry keeps candidate building
        from failing before then)."""
        self._last_candidates[peer_id] = None
        self._dirty.add(peer_id)
        self._known.setdefault(peer_id, set())

    def note_leave(self, peer_id: int, selector_ids: Iterable[int]) -> None:
        """Selectors' installed neighbour sets were just mutated (the
        departed id was stripped), so no selection consistent with any
        candidate set exists for them any more: they are forced onto the
        full-recompute path.  The vanished edges are picked up by the
        adjacency diff at the next round (``_prev_adjacency`` still holds
        them on purpose)."""
        self.forget(peer_id)
        for selector in selector_ids:
            self._last_candidates[selector] = None
            self._dirty.add(selector)

    def note_move(self, peer_id: int) -> None:
        """Bounded knowledge tracks candidate *ids*, which a move leaves
        untouched -- the changed coordinates are only visible through a
        recomputation, so the mover and every peer that may know it are
        forced onto the full path."""
        self._last_candidates[peer_id] = None
        self._dirty.add(peer_id)
        for other, last in self._last_candidates.items():
            if last is not None and peer_id in last:
                self._last_candidates[other] = None
                self._dirty.add(other)

    def forget(self, peer_id: int) -> None:
        """Drop bookkeeping for an id that left the overlay."""
        self._last_candidates.pop(peer_id, None)
        self._dirty.discard(peer_id)
        self._known.pop(peer_id, None)

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def begin_round(self) -> List[int]:
        """Refresh reachability, return the sorted dirty ids."""
        self._refresh_reachability()
        return sorted(self._dirty)

    def candidate_ids(self, peer_id: int) -> Set[int]:
        """One peer's current candidate id set, computed once per round."""
        cached = self._round_candidates.get(peer_id)
        if cached is None:
            cached = self._overlay._candidate_ids(  # noqa: SLF001 - friend class
                peer_id, self._known.get(peer_id, ())
            )
            self._round_candidates[peer_id] = cached
        return cached

    def delta(self, peer_id: int) -> Tuple[Optional[FrozenSet[int]], Set[int], Set[int]]:
        """``(last candidates, gained, lost)`` for one scheduled peer."""
        last = self._last_candidates.get(peer_id)
        if last is None:
            return None, set(), set()
        current = self.candidate_ids(peer_id)
        return last, current - last, last - current

    def end_round(self, scheduled: Iterable[int]) -> None:
        """Record each scheduled peer's round candidate set as its history."""
        for peer_id in scheduled:
            self._last_candidates[peer_id] = frozenset(self.candidate_ids(peer_id))
        self._dirty.clear()
        self._round_candidates.clear()

    def dirty_ids(self) -> FrozenSet[int]:
        """Peers whose candidate sets may have changed since last selection."""
        return frozenset(self._dirty)

    def _refresh_reachability(self) -> None:
        """Diff adjacency against the cached graph; dirty changed knowledge."""
        current = {
            peer_id: set(neighbour_ids)
            for peer_id, neighbour_ids in self._overlay.adjacency().items()
        }
        if current == self._prev_adjacency:
            return
        deltas = knowledge_set_deltas(
            self._prev_adjacency, current, self._radius, self._known
        )
        for peer_id, reachable in deltas.items():
            self._known[peer_id] = reachable
            self._dirty.add(peer_id)
        for peer_id in list(self._known):
            if peer_id not in current:
                del self._known[peer_id]
        self._prev_adjacency = current


class IncrementalReselectionEngine:
    """Dirty-set convergence rounds for one gossip-limited :class:`OverlayNetwork`.

    The engine is created lazily by the first ``converge(incremental=True)``
    call on an overlay with a gossip radius and kept in sync through the
    overlay's membership methods; a full-sweep round or an aborted
    convergence invalidates it, after which the next incremental
    convergence starts from an all-dirty state -- one batched full round --
    and is incremental from there on.  Full-knowledge overlays never build
    one: their convergence is a single install (see
    :meth:`repro.overlay.network.OverlayNetwork.converge`).
    """

    def __init__(self, overlay: "OverlayNetwork") -> None:
        self._overlay = overlay
        self._candidates = ExplicitCandidateState(overlay)

    @property
    def dirty_peers(self) -> FrozenSet[int]:
        """Peers whose candidate sets may have changed since last selection."""
        return self._candidates.dirty_ids()

    def note_join(self, peer_id: int) -> None:
        """A peer was added (already present in the overlay's peer map)."""
        self._candidates.note_join(peer_id)

    def note_leave(self, peer_id: int, selectors: Iterable[int]) -> None:
        """A peer was removed; ``selectors`` had it in their neighbour sets."""
        self._candidates.note_leave(peer_id, selectors)

    def note_move(self, peer_id: int) -> None:
        """A peer's coordinates changed in place (same id, same links)."""
        self._candidates.note_move(peer_id)

    def run_round(self) -> bool:
        """One partial synchronous round; ``True`` if any selection changed.

        Candidate sets are derived from the pre-round topology (reachability
        is refreshed and every scheduled peer's candidate set is computed
        before any selection is installed), and all updates are installed
        at once through
        :meth:`~repro.overlay.network.OverlayNetwork.install_selections` --
        the same synchronous semantics as the full sweep, restricted to
        dirty peers.  Each dirty peer is classified by
        :func:`classify_reselect`: full verdicts recompute against the whole
        candidate set, additive ones go through the method's delta rule (or
        re-select from ``selection + gained``), skips install nothing.
        """
        candidates = self._candidates
        schedule = candidates.begin_round()
        if not schedule:
            return False
        overlay = self._overlay
        members = overlay._peers  # noqa: SLF001 - engine is a friend class
        neighbour_sets = overlay._neighbours  # noqa: SLF001
        selection = overlay.selection
        scheduled: List[int] = []
        references: List[PeerInfo] = []
        candidates_by_peer: Dict[int, List[PeerInfo]] = {}
        additive_updates: List[Tuple[PeerInfo, List[PeerInfo], List[PeerInfo]]] = []
        for peer_id in schedule:
            if peer_id not in members:
                candidates.forget(peer_id)
                continue
            scheduled.append(peer_id)
            last, gained, lost = candidates.delta(peer_id)
            verdict = classify_reselect(
                last, gained, lost, neighbour_sets[peer_id], selection.path_independent
            )
            if verdict == RESELECT_FULL:
                candidates_by_peer[peer_id] = [
                    members[other] for other in sorted(candidates.candidate_ids(peer_id))
                ]
                references.append(members[peer_id])
            elif verdict == RESELECT_ADDITIVE:
                # Gains only: path independence lets the previous selection
                # stand in for the full previous candidate set.
                additive_updates.append(
                    (
                        members[peer_id],
                        [members[other] for other in sorted(neighbour_sets[peer_id])],
                        [members[other] for other in sorted(gained)],
                    )
                )
            # RESELECT_SKIP: the installed selection provably still holds.

        results: Dict[int, List[int]] = {}
        if additive_updates:
            additive_results = selection.select_many_additive(additive_updates)
            if additive_results is None:
                # No specialised delta rule: rebuild the reduced candidate
                # sets (selection + gained) and go through the batched API.
                for reference, selected, gained_infos in additive_updates:
                    candidates_by_peer[reference.peer_id] = (
                        selection.merge_candidate_delta(selected, gained_infos)
                    )
                    references.append(reference)
            else:
                results.update(additive_results)
        if references:
            results.update(selection.select_many(references, candidates_by_peer))
        changed = overlay.install_selections(results)
        candidates.end_round(scheduled)
        return changed
