"""The benchmark's workloads: seeded inputs, set-up, closed-loop steps, checks.

Every workload is a closed loop with one client: the next step (a churn
epoch or a multicast session) starts only after the previous one returned.
Inputs are generated here from the run's seed, before any timing starts,
and the program only ever sees the generated populations and schedules.
Each step times exactly its calls into ``repro``; the correctness checks run
outside every timed region.

Layer entry points are reached through their modules or classes at call
time (``space_partition.build_space_partition_tree``, ``runner.run_...``,
``trees.tree_metrics``), so the traced pass's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

import networkx as nx
import numpy as np

import repro.metrics.trees as trees
import repro.multicast.space_partition as space_partition
import repro.simulation.runner as runner
from repro.multicast.incremental import OverlayConnectivityFeed, StabilityTreeMaintainer
from repro.multicast.stability import StabilityTreeBuilder, lifetime_of
from repro.overlay.network import BatchEvent, BatchLeave, BatchMove, OverlayNetwork
from repro.overlay.peer import PeerInfo
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.simulation.netmodel import LinkModel, LognormalLatency
from repro.simulation.protocol import GossipConfig
from repro.workloads.peers import generate_peers, generate_peers_with_lifetimes

#: Peers compared against the selection oracle after a churn run, on top of
#: every peer the last epoch touched.
CHECK_SAMPLE = 100


def derive_seed(seed: int, label: str) -> int:
    """An independent 63-bit seed per input stream (never a reused stream)."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def digest(items: object) -> str:
    """Short stable digest of a deterministic output (for run-to-run checks)."""
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def overlay_digest(overlay: OverlayNetwork) -> str:
    return digest(sorted((p, sorted(n)) for p, n in overlay.directed_neighbour_map().items()))


@dataclass
class Step:
    """One closed-loop step: its timed region, work units and check results."""

    started: float  # time.perf_counter() at the start of the timed region
    wall: float
    units: float
    fingerprint: tuple
    failures: List[str] = field(default_factory=list)
    #: Simulator messages the step sent (message-level workloads only).
    messages: int = 0


@dataclass
class CheckReport:
    """Correctness checks run after the timed phase."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def quadrant_skylines(coords: np.ndarray, ids: np.ndarray, row: int) -> Set[int]:
    """Empty-rectangle neighbours of ``ids[row]`` among all rows, for D = 2.

    The check's oracle, independent of ``repro``'s selection code: ``box(P, Q)``
    is empty exactly when no other point of Q's quadrant around P has both
    sign-flipped coordinates below Q's, so each quadrant's skyline is a sort
    by the first key plus a running minimum of the second.
    """
    others = np.arange(len(ids)) != row
    points, point_ids = coords[others], ids[others]
    greater = points > coords[row]
    keys = np.where(greater, points, -points)
    quadrant = 2 * greater[:, 0] + greater[:, 1]
    selected: Set[int] = set()
    for code in range(4):
        members = quadrant == code
        order = np.argsort(keys[members, 0])
        second = keys[members, 1][order]
        keep = np.ones(len(second), dtype=bool)
        keep[1:] = second[1:] < np.minimum.accumulate(second)[:-1]
        selected.update(int(peer_id) for peer_id in point_ids[members][order][keep])
    return selected


def compare_with_oracle(overlay: OverlayNetwork, peer_ids: Set[int], report: CheckReport) -> None:
    """Compare installed selections with :func:`quadrant_skylines`."""
    alive = overlay.peers()
    coords = np.asarray([peer.coordinates for peer in alive], dtype=float)
    ids = np.asarray([peer.peer_id for peer in alive])
    row_of = {int(peer_id): row for row, peer_id in enumerate(ids)}
    for peer_id in sorted(peer_ids):
        report.expect(
            quadrant_skylines(coords, ids, row_of[peer_id])
            == set(overlay.selected_neighbours(peer_id)),
            f"peer {peer_id}: installed selection differs from the oracle",
        )


def check_construction(
    snapshot, root: int, report: CheckReport
) -> Tuple[int, int]:
    """One Section 2 construction: N peers reached with N - 1 messages.

    Returns ``(messages, peers reached besides the root)``.
    """
    result = space_partition.build_space_partition_tree(snapshot, root)
    count = len(snapshot.peers)
    report.expect(
        result.reached_count == count
        and result.messages_sent == count - 1
        and result.duplicate_deliveries == 0
        and not result.unreached_peers,
        f"construction from {root}: reached {result.reached_count}/{count} with "
        f"{result.messages_sent} messages, {result.duplicate_deliveries} duplicates",
    )
    return result.messages_sent, result.reached_count - 1


# ----------------------------------------------------------------------
# Churn: batched epochs of leaves, joins and moves on a live overlay
# ----------------------------------------------------------------------
@dataclass
class ChurnInputs:
    initial: List[PeerInfo]
    epochs: List[List[BatchEvent]]
    check_seed: int


@dataclass
class ChurnState:
    overlay: OverlayNetwork
    maintainer: StabilityTreeMaintainer
    feed: OverlayConnectivityFeed
    last_touched: Set[int] = field(default_factory=set)
    msgs_per_peer: float = 0.0


class ChurnWorkload:
    """Epochs of one departure, one fresh join and one move each.

    The population is lifetime-first (``x(P, 1) = T(P)``) and D = 2.  Fresh
    joiners and move targets come from one distinct-coordinate population
    whose first ``peers`` members form the initial overlay; a move keeps
    axis 0 (the lifetime) and takes the other axes from an otherwise unused
    member, so every axis stays free of ties.  Each epoch is one
    ``apply_batch`` followed by the tree refresh and the connectivity query.
    """

    peers = 1000
    dimension = 2
    max_epochs = 4000

    def describe(self) -> str:
        return f"N={self.peers} D={self.dimension}, epochs of 1 leave, 1 join and 1 move"

    def make_inputs(self, seed: int) -> ChurnInputs:
        # Each epoch draws two pool members: the joiner and the mover's donor.
        population = generate_peers_with_lifetimes(
            self.peers + 2 * self.max_epochs, self.dimension, seed=derive_seed(seed, "population")
        )
        initial = population[: self.peers]
        pool = iter(population[self.peers :])
        rng = random.Random(derive_seed(seed, "schedule"))
        alive = [peer.peer_id for peer in initial]
        coordinates = {peer.peer_id: peer.coordinates for peer in initial}

        epochs: List[List[BatchEvent]] = []
        for _ in range(self.max_epochs):
            leaving, mover = rng.sample(range(len(alive)), 2)
            leaver_id, mover_id = alive[leaving], alive[mover]
            joiner = next(pool)
            donor = next(pool)
            moved = (coordinates[mover_id][0],) + tuple(donor.coordinates[1:])
            coordinates[mover_id] = moved
            coordinates[joiner.peer_id] = joiner.coordinates
            alive[leaving] = joiner.peer_id  # the joiner takes the leaver's slot
            epochs.append([BatchLeave(leaver_id), joiner, BatchMove(mover_id, moved)])
        return ChurnInputs(initial, epochs, derive_seed(seed, "check"))

    def max_steps(self, inputs: ChurnInputs) -> int:
        return len(inputs.epochs)

    def setup(self, inputs: ChurnInputs) -> ChurnState:
        overlay = OverlayNetwork(EmptyRectangleSelection())
        for peer in inputs.initial:
            overlay.add_peer(peer)
        overlay.converge(incremental=True, max_rounds=80)
        maintainer = StabilityTreeMaintainer(overlay)
        return ChurnState(overlay, maintainer, OverlayConnectivityFeed(overlay))

    def step(self, state: ChurnState, inputs: ChurnInputs, k: int) -> Step:
        overlay = state.overlay
        events = inputs.epochs[k]
        leave, joiner, move = events
        # Selection before the epoch of every peer whose links it will cut
        # (box symmetry: under full knowledge a peer's selectors are exactly
        # its selection), so the check can revisit every touched peer.
        touched = set(overlay.selected_neighbours(leave.peer_id))
        touched |= overlay.selected_neighbours(move.peer_id)
        started = time.perf_counter()
        overlay.apply_batch(events)
        state.maintainer.refresh()
        connected = state.feed.is_connected()
        wall = time.perf_counter() - started
        selections = []
        for peer_id in (joiner.peer_id, move.peer_id):
            selection = overlay.selected_neighbours(peer_id)
            selections.append((peer_id, sorted(selection)))
            touched.add(peer_id)
            touched |= selection
        state.last_touched = touched
        fingerprint = (overlay.peer_count, connected, len(touched), digest(selections))
        return Step(started, wall, float(len(events)), fingerprint)

    def check(self, state: ChurnState, inputs: ChurnInputs) -> CheckReport:
        report = CheckReport()
        overlay = state.overlay
        ids = overlay.peer_ids
        rng = random.Random(inputs.check_seed)
        sample = set(rng.sample(ids, min(CHECK_SAMPLE, len(ids))))
        compare_with_oracle(overlay, sample | (state.last_touched & set(ids)), report)

        snapshot = overlay.snapshot()
        reference = StabilityTreeBuilder().build(snapshot).preferred
        maintained = state.maintainer.engine.parent_map()
        report.expect(
            dict(reference) == maintained,
            "maintained parent map differs from StabilityTreeBuilder on the snapshot",
        )
        short_lived = [
            child
            for child, parent in maintained.items()
            if parent is not None
            and lifetime_of(overlay.peer(parent)) <= lifetime_of(overlay.peer(child))
        ]
        report.expect(not short_lived, f"parents that do not outlive child {short_lived[:5]}")

        graph = nx.Graph()
        graph.add_nodes_from(ids)
        graph.add_edges_from(
            (peer_id, other)
            for peer_id, neighbours in overlay.adjacency().items()
            for other in neighbours
        )
        report.expect(
            nx.is_connected(graph) == state.feed.is_connected()
            and nx.number_connected_components(graph) == state.feed.tracker.component_count(),
            "connectivity tracker disagrees with networkx",
        )
        messages, reached = check_construction(snapshot, rng.choice(ids), report)
        state.msgs_per_peer = messages / reached
        return report

    def msgs_per_peer(self, state: ChurnState) -> float:
        return state.msgs_per_peer

    def counters(self, state: ChurnState) -> Dict[str, float]:
        index = state.overlay.index
        return {
            "geometry.index.rebuilds": float(index.rebuilds if index is not None else 0),
            "multicast.tree.reparents": float(state.maintainer.engine.reparent_operations),
            "multicast.tree.full_rebuilds": float(state.maintainer.full_rebuilds),
            "multicast.connectivity.rebuilds": float(state.feed.tracker.rebuilds),
        }

    def deterministic(self, state: ChurnState) -> Dict[str, object]:
        overlay = state.overlay
        return {
            "peers": overlay.peer_count,
            "overlay": overlay_digest(overlay),
            "tree": digest(sorted(state.maintainer.engine.parent_map().items())),
        }

    def named_metrics(
        self, state: ChurnState, steps: Sequence[Step]
    ) -> Dict[str, Tuple[float, str]]:
        walls = [step.wall for step in steps]
        events = sum(step.units for step in steps)
        return {
            "churn_events_per_s": (events / sum(walls), "events/s"),
            "epoch_p50_ms": (1000.0 * percentile(walls, 0.50), "ms"),
            "epoch_p95_ms": (1000.0 * percentile(walls, 0.95), "ms"),
        }


# ----------------------------------------------------------------------
# Multicast sessions: Section 2 constructions over an equilibrium snapshot
# ----------------------------------------------------------------------
@dataclass
class SessionInputs:
    peers: List[PeerInfo]
    roots: List[int]


@dataclass
class SessionState:
    overlay: OverlayNetwork
    snapshot: object
    messages: int = 0
    reached: int = 0


class MulticastSessionsWorkload:
    """Section 2 constructions from seeded roots, each followed by ``tree_metrics``."""

    peers = 500
    dimension = 3

    def describe(self) -> str:
        return f"N={self.peers} D={self.dimension}, one construction + tree_metrics per step"

    def make_inputs(self, seed: int) -> SessionInputs:
        peers = generate_peers(self.peers, self.dimension, seed=derive_seed(seed, "population"))
        roots = [peer.peer_id for peer in peers]
        random.Random(derive_seed(seed, "roots")).shuffle(roots)
        return SessionInputs(peers, roots)

    def max_steps(self, inputs: SessionInputs) -> int:
        return 20 * len(inputs.roots)

    def setup(self, inputs: SessionInputs) -> SessionState:
        overlay = OverlayNetwork.build_equilibrium(inputs.peers, EmptyRectangleSelection())
        return SessionState(overlay, overlay.snapshot())

    def step(self, state: SessionState, inputs: SessionInputs, k: int) -> Step:
        root = inputs.roots[k % len(inputs.roots)]
        started = time.perf_counter()
        result = space_partition.build_space_partition_tree(state.snapshot, root)
        metrics = trees.tree_metrics(result.tree)
        wall = time.perf_counter() - started
        count = len(inputs.peers)
        failures = []
        if (
            result.reached_count != count
            or result.messages_sent != count - 1
            or result.duplicate_deliveries
            or result.unreached_peers
            or metrics.size != count
        ):
            failures.append(
                f"session {k} from {root}: reached {result.reached_count}/{count} with "
                f"{result.messages_sent} messages, {result.duplicate_deliveries} duplicates"
            )
        state.messages += result.messages_sent
        state.reached += result.reached_count - 1
        fingerprint = (
            root,
            result.messages_sent,
            metrics.height,
            metrics.diameter,
            metrics.maximum_degree,
            metrics.leaf_count,
        )
        return Step(started, wall, 1.0, fingerprint, failures)

    def check(self, state: SessionState, inputs: SessionInputs) -> CheckReport:
        return CheckReport()  # every session is checked as it completes

    def msgs_per_peer(self, state: SessionState) -> float:
        return state.messages / state.reached

    def counters(self, state: SessionState) -> Dict[str, float]:
        return {"multicast.construct.messages": float(state.messages)}

    def deterministic(self, state: SessionState) -> Dict[str, object]:
        overlay = state.overlay
        return {
            "peers": overlay.peer_count,
            "overlay": overlay_digest(overlay),
        }

    def named_metrics(
        self, state: SessionState, steps: Sequence[Step]
    ) -> Dict[str, Tuple[float, str]]:
        walls = [step.wall for step in steps]
        return {
            "sessions_per_s": (len(steps) / sum(walls), "sessions/s"),
            "session_p50_ms": (1000.0 * percentile(walls, 0.50), "ms"),
            "session_p90_ms": (1000.0 * percentile(walls, 0.90), "ms"),
            "construct_msgs_per_peer": (self.msgs_per_peer(state), "msg/peer"),
        }


# ----------------------------------------------------------------------
# Lossy gossip: the message-level protocol over a realistic link model
# ----------------------------------------------------------------------
GOSSIP_CONFIG = GossipConfig(broadcast_radius=2, gossip_period=4, tmax=14, reselect_period=4)


@dataclass
class GossipInputs:
    peers: List[PeerInfo]
    roots: List[int]
    link_seed: int
    run_seed: int


@dataclass
class GossipState:
    result: runner.GossipSimulationResult
    session_stats: List[object] = field(default_factory=list)
    construct_messages: int = 0
    reached: int = 0
    probe_p50: List[float] = field(default_factory=list)
    probe_p95: List[float] = field(default_factory=list)


class GossipLossyWorkload:
    """Gossip settle as set-up, then sessions of one construction plus one probe.

    Peers join one at a time, ``join_interval`` apart, over lognormal links
    with 3% loss and a 10 MB/s per-link bandwidth queue; the settle phase is
    the set-up (it ends in the converged overlay).  A step is one Section 2
    construction from a seeded root plus one dissemination probe down the
    maintained Section 3 tree, while gossip keeps running underneath.
    """

    peers = 80
    dimension = 2
    #: Simulated seconds between joins: well above the flash-crowd regime,
    #: so the overlay converges between insertions as in the paper.
    join_interval = 1.0
    settle_time = 24.0
    #: Simulated seconds given to each construction and each probe; covers
    #: the reliable sends' full retransmission schedule.
    session_time = 8.0

    def describe(self) -> str:
        return (
            f"N={self.peers} D={self.dimension}, joins {self.join_interval:g} s apart, "
            f"settle {self.settle_time:g} s, {self.session_time:g} s per construction/probe"
        )

    def make_inputs(self, seed: int) -> GossipInputs:
        peers = generate_peers_with_lifetimes(
            self.peers, self.dimension, seed=derive_seed(seed, "population")
        )
        roots = [peer.peer_id for peer in peers]
        random.Random(derive_seed(seed, "roots")).shuffle(roots)
        return GossipInputs(peers, roots, derive_seed(seed, "links"), derive_seed(seed, "gossip"))

    def max_steps(self, inputs: GossipInputs) -> int:
        return 20 * len(inputs.roots)

    def setup(self, inputs: GossipInputs) -> GossipState:
        links = LinkModel(
            LognormalLatency(0.02, 0.5),
            loss_rate=0.03,
            bandwidth_bytes_per_second=1e7,
            seed=inputs.link_seed,
        )
        result = runner.run_gossip_overlay(
            inputs.peers,
            EmptyRectangleSelection(),
            config=GOSSIP_CONFIG,
            join_interval=self.join_interval,
            settle_time=self.settle_time,
            network=links,
            seed=inputs.run_seed,
            maintain_tree=True,
        )
        return GossipState(result)

    def step(self, state: GossipState, inputs: GossipInputs, k: int) -> Step:
        root = inputs.roots[k % len(inputs.roots)]
        started = time.perf_counter()
        session = runner.run_multicast_over_gossip_overlay(
            state.result, root, extra_time=self.session_time
        )
        probe = runner.run_dissemination_probe(state.result, extra_time=self.session_time)
        wall = time.perf_counter() - started
        # Each runner call resets the network counters, so the objects both
        # calls returned are final and hold exactly their own phase.
        stats = (session.network_stats, probe.network_stats)
        state.session_stats.extend(stats)
        construction = session.result
        state.construct_messages += construction.messages_sent
        state.reached += construction.reached_count - 1
        latencies = list(probe.latencies.values())
        failures = []
        if construction.unreached_peers:
            failures.append(
                f"session {k}: construction from {root} missed "
                f"{len(construction.unreached_peers)} peers"
            )
        if probe.unreached_peers or not latencies:
            failures.append(f"session {k}: probe missed {len(probe.unreached_peers)} peers")
        else:
            state.probe_p50.append(percentile(latencies, 0.50))
            state.probe_p95.append(percentile(latencies, 0.95))
        messages = sum(phase.messages_sent for phase in stats)
        fingerprint = (
            root,
            construction.messages_sent,
            messages,
            sum(phase.bytes_sent for phase in stats),
            tuple(sorted(probe.latencies.items())),
        )
        return Step(started, wall, 1.0, fingerprint, failures, messages)

    def check(self, state: GossipState, inputs: GossipInputs) -> CheckReport:
        report = CheckReport()
        settled = state.result.alive_snapshot()
        alive = [settled.peers[peer_id] for peer_id in sorted(settled.peers)]
        equilibrium = OverlayNetwork.build_equilibrium(alive, EmptyRectangleSelection())
        expected = equilibrium.directed_neighbour_map()
        differing = [p for p in expected if settled.selected.get(p) != expected[p]]
        report.expect(
            not differing,
            f"{len(differing)} settled selections differ from build_equilibrium",
        )
        reference = StabilityTreeBuilder().build(equilibrium.snapshot()).preferred
        monitor = state.result.tree_monitor
        report.expect(
            monitor is not None and monitor.engine.parent_map() == dict(reference),
            "live maintained tree differs from StabilityTreeBuilder on the equilibrium",
        )
        return report

    def msgs_per_peer(self, state: GossipState) -> float:
        return state.construct_messages / state.reached

    def counters(self, state: GossipState) -> Dict[str, float]:
        result = state.result
        phases = [result.overlay_stats, *state.session_stats]
        ticks = result.total_reselect_ticks()
        return {
            "simulation.engine.events": float(result.engine.processed_events),
            "simulation.engine.cancelled": float(result.engine.cancelled_events),
            "simulation.network.messages_sent": float(sum(s.messages_sent for s in phases)),
            "simulation.network.messages_lost": float(sum(s.messages_lost for s in phases)),
            "simulation.network.bytes_sent": float(sum(s.bytes_sent for s in phases)),
            "simulation.protocol.full_selections": float(result.total_selection_invocations()),
            "simulation.protocol.additive_updates": float(result.total_additive_updates()),
            "simulation.protocol.reselect_skip_ratio": (
                result.total_reselect_skips() / ticks if ticks else 0.0
            ),
            "simulation.protocol.retransmissions": float(
                sum(process.retransmissions for process in result.processes.values())
            ),
            "multicast.construct.messages": float(state.construct_messages),
            "simulation.probe.p50_s": median_or_zero(state.probe_p50),
            "simulation.probe.p95_s": median_or_zero(state.probe_p95),
        }

    def deterministic(self, state: GossipState) -> Dict[str, object]:
        settle = state.result.overlay_stats
        return {
            "settle_messages": settle.messages_sent,
            "settle_bytes": settle.bytes_sent,
            "settle_lost": settle.messages_lost,
        }

    def named_metrics(
        self, state: GossipState, steps: Sequence[Step]
    ) -> Dict[str, Tuple[float, str]]:
        walls = [step.wall for step in steps]
        return {
            "sessions_per_s": (len(steps) / sum(walls), "sessions/s"),
            "session_p50_ms": (1000.0 * percentile(walls, 0.50), "ms"),
            "session_p90_ms": (1000.0 * percentile(walls, 0.90), "ms"),
            "sim_msgs_per_s": (sum(step.messages for step in steps) / sum(walls), "msg/s"),
            "construct_msgs_per_peer": (self.msgs_per_peer(state), "msg/peer"),
            "probe_p50_s": (median_or_zero(state.probe_p50), "simulated s"),
            "probe_p95_s": (median_or_zero(state.probe_p95), "simulated s"),
        }


def median_or_zero(values: Sequence[float]) -> float:
    return percentile(values, 0.5) if values else 0.0


#: The workloads, by the names BENCHMARK.json lists.
WORKLOADS: Dict[str, object] = {
    "churn_trickle": ChurnWorkload(),
    "multicast_sessions": MulticastSessionsWorkload(),
    "gossip_lossy": GossipLossyWorkload(),
}
