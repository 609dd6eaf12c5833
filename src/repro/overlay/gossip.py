"""Gossip bookkeeping: existence announcements and bounded-hop knowledge sets.

In the paper every peer periodically broadcasts its existence (identifier and
network address) ``BR >= 2`` hops away from itself within the P2P overlay.
The set ``I(P)`` of peers whose announcements reached ``P`` during the last
``Tmax`` seconds is the candidate set the neighbour selection method is
applied to.

Two layers use this module:

* :class:`repro.overlay.network.OverlayNetwork` uses the bounded-hop
  reachability helpers to compute the steady-state knowledge sets (every
  announcement that can reach ``P`` within ``BR`` hops has reached it).
* :mod:`repro.simulation.protocol` replays the gossip at the message level
  (individual announcements with timestamps and expiry) and uses
  :class:`AnnouncementStore` to model the ``Tmax`` window.

A bounded radius makes every ``I(P)`` a genuinely *explicit* per-peer set
that depends on the topology, which is why gossip-limited overlays converge
through real rounds of the incremental engine
(``repro.overlay.incremental.ExplicitCandidateState``), while full-knowledge
overlays, whose ``I(P)`` is "everyone alive but me", settle in one install.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Set

from repro.geometry.point import Point
from repro.overlay.peer import NetworkAddress

__all__ = [
    "ExistenceAnnouncement",
    "AnnouncementStore",
    "peers_within_hops",
    "peers_within_hops_of_any",
    "changed_edge_endpoints",
    "knowledge_sets",
    "knowledge_set_deltas",
]


@dataclass(frozen=True)
class ExistenceAnnouncement:
    """One gossip message: "peer ``origin`` with this identifier/address exists".

    ``remaining_hops`` is decremented at every overlay hop; a peer only
    forwards announcements whose remaining hop budget is still positive.
    """

    origin: int
    coordinates: Point
    address: NetworkAddress
    issued_at: float
    remaining_hops: int

    def __post_init__(self) -> None:
        if self.remaining_hops < 0:
            raise ValueError("remaining_hops must be non-negative")

    def forwarded(self) -> "ExistenceAnnouncement":
        """Copy of the announcement after one more overlay hop."""
        if self.remaining_hops == 0:
            raise ValueError("announcement has no hop budget left to forward")
        return ExistenceAnnouncement(
            origin=self.origin,
            coordinates=self.coordinates,
            address=self.address,
            issued_at=self.issued_at,
            remaining_hops=self.remaining_hops - 1,
        )


class AnnouncementStore:
    """Per-peer store of received announcements with a ``Tmax`` expiry window."""

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError("the announcement window (Tmax) must be positive")
        self._window = window
        self._latest: Dict[int, ExistenceAnnouncement] = {}

    @property
    def window(self) -> float:
        """The ``Tmax`` retention window in seconds."""
        return self._window

    def record(self, announcement: ExistenceAnnouncement) -> None:
        """Remember the most recent announcement from its origin peer."""
        current = self._latest.get(announcement.origin)
        if current is None or announcement.issued_at >= current.issued_at:
            self._latest[announcement.origin] = announcement

    def forget(self, origin: int) -> None:
        """Drop any stored announcement from ``origin`` (e.g. after its departure)."""
        self._latest.pop(origin, None)

    def known_peers(self, now: float) -> Dict[int, ExistenceAnnouncement]:
        """Announcements still inside the ``Tmax`` window at time ``now``."""
        horizon = now - self._window
        return {
            origin: announcement
            for origin, announcement in self._latest.items()
            if announcement.issued_at >= horizon
        }

    def prune(self, now: float) -> List[int]:
        """Discard announcements older than the ``Tmax`` window.

        Returns the origins whose announcements expired, so callers can evict
        their own per-origin state (known addresses, duplicate-suppression
        keys) alongside the store's.
        """
        horizon = now - self._window
        expired = [
            origin
            for origin, announcement in self._latest.items()
            if announcement.issued_at < horizon
        ]
        for origin in expired:
            del self._latest[origin]
        return expired

    def __len__(self) -> int:
        return len(self._latest)


def peers_within_hops(
    adjacency: Mapping[int, Iterable[int]], source: int, radius: int
) -> Set[int]:
    """Peers reachable from ``source`` in at most ``radius`` overlay hops.

    The source itself is excluded from the result.  This is the steady-state
    footprint of the source's existence announcements when they are flooded
    ``radius`` (= ``BR``) hops away.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if source not in adjacency:
        raise KeyError(f"unknown peer {source}")
    visited: Set[int] = {source}
    frontier = deque([(source, 0)])
    while frontier:
        node, depth = frontier.popleft()
        if depth == radius:
            continue
        for neighbour in adjacency.get(node, ()):
            if neighbour not in visited:
                visited.add(neighbour)
                frontier.append((neighbour, depth + 1))
    visited.discard(source)
    return visited


def peers_within_hops_of_any(
    adjacency: Mapping[int, Iterable[int]], sources: Iterable[int], radius: int
) -> Set[int]:
    """Peers within ``radius`` hops of *any* source (multi-source BFS).

    Unlike :func:`peers_within_hops` the sources themselves are included --
    a source's own knowledge set is affected by whatever made it a source.
    Sources absent from ``adjacency`` are ignored (e.g. a peer that has
    already departed).
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    visited: Set[int] = {source for source in sources if source in adjacency}
    frontier = deque((source, 0) for source in sorted(visited))
    while frontier:
        node, depth = frontier.popleft()
        if depth == radius:
            continue
        for neighbour in adjacency.get(node, ()):
            if neighbour not in visited:
                visited.add(neighbour)
                frontier.append((neighbour, depth + 1))
    return visited


def changed_edge_endpoints(
    old_adjacency: Mapping[int, Iterable[int]],
    new_adjacency: Mapping[int, Iterable[int]],
) -> Set[int]:
    """Endpoints of every edge present in one adjacency but not the other.

    Peers that appear or disappear entirely count as changed endpoints too
    (their incident edges, possibly none, changed by definition).  This is
    the seed set for incremental knowledge-set maintenance: a bounded-radius
    reachability set can only change if an edge changed within ``radius``
    hops of it.
    """
    endpoints: Set[int] = set()
    for peer_id in set(old_adjacency) | set(new_adjacency):
        old_neighbours = set(old_adjacency.get(peer_id, ()))
        new_neighbours = set(new_adjacency.get(peer_id, ()))
        if peer_id not in old_adjacency or peer_id not in new_adjacency:
            endpoints.add(peer_id)
            endpoints |= old_neighbours | new_neighbours
        elif old_neighbours != new_neighbours:
            endpoints.add(peer_id)
            endpoints |= old_neighbours ^ new_neighbours
    return endpoints


def knowledge_sets(
    adjacency: Mapping[int, Iterable[int]], radius: int
) -> Dict[int, Set[int]]:
    """Steady-state ``I(P)`` for every peer.

    Announcements travel symmetric overlay links, so ``Q in I(P)`` exactly
    when ``P`` is within ``radius`` hops of ``Q``; with an undirected
    adjacency this is the same as ``P`` reaching ``Q``, which is what is
    computed here.
    """
    return {
        peer_id: peers_within_hops(adjacency, peer_id, radius)
        for peer_id in adjacency
    }


def knowledge_set_deltas(
    old_adjacency: Mapping[int, Iterable[int]],
    new_adjacency: Mapping[int, Iterable[int]],
    radius: int,
    known: Mapping[int, Set[int]],
) -> Dict[int, Set[int]]:
    """Recomputed ``I(P)`` for every peer whose reachability may have changed.

    ``known`` holds the cached steady-state reachability sets under
    ``old_adjacency``.  Only peers within ``radius`` hops of a changed edge
    (in the union of the two graphs, so both vanished and appeared edges are
    covered) are re-explored; the returned mapping contains exactly the peers
    of ``new_adjacency`` whose recomputed set differs from the cached one --
    the *reachability delta* the incremental reselection engine consumes.
    Departed peers simply stop appearing; the caller drops their cache entry.
    """
    seeds = changed_edge_endpoints(old_adjacency, new_adjacency)
    if not seeds:
        return {}
    union_adjacency: Dict[int, Set[int]] = {}
    for source in (old_adjacency, new_adjacency):
        for peer_id, neighbours in source.items():
            union_adjacency.setdefault(peer_id, set()).update(neighbours)
    affected = peers_within_hops_of_any(union_adjacency, seeds, radius)
    deltas: Dict[int, Set[int]] = {}
    for peer_id in affected:
        if peer_id not in new_adjacency:
            continue
        recomputed = peers_within_hops(new_adjacency, peer_id, radius)
        if recomputed != known.get(peer_id):
            deltas[peer_id] = recomputed
    return deltas
