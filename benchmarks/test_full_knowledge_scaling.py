"""Benchmark: full-knowledge convergence at scale.

Under full knowledge every peer's selection is a pure function of the alive
population, so ``OverlayNetwork.converge(incremental=True)`` settles each
epoch with one cohort install: the joiners, movers and selectors of
departed peers recompute against the spatial index, and everyone else
updates from the shared gains.  This file measures that path:

* the N ~ 2k smoke (not slow-marked, so it runs on every pull request):
  bulk joins plus one converge land byte-identically on the equilibrium
  builder's overlay;
* ``BENCH_engine_one_shot_trace.json`` (slow): a 20k-event churn trace at
  N=10k replayed in full, with ``peak_rss_mb`` recorded, plus a >=5x floor
  of the one-shot install over the indexed full sweep
  (``converge(incremental=False)``) on single-join epochs at N=2000.
"""

import random
import time

import pytest
from conftest import peak_rss_mb, persist_bench_record, print_report

from repro.experiments.common import derive_seed
from repro.metrics.reporting import format_table
from repro.overlay.network import OverlayNetwork
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.workloads.coordinates import DEFAULT_VMAX
from repro.workloads.peers import generate_peers, make_peer

#: Peers installed (and converged) before the smoke's bulk-join phase, so
#: its final converge mixes history with fresh joiners.
_SEED_POPULATION = 64
_SPEEDUP_FLOOR = 5.0
#: The smoke test pins its size: it runs on every pull request and must
#: cost the same regardless of REPRO_SCALE.
_SMOKE_SIZE = 2000
#: Events per trace epoch: half leaves, half fresh joins, then converge.
_EPOCH_EVENTS = 2000
#: The trace.  Epoch converges are bound by selection geometry (one indexed
#: skyline recompute per joiner and per selector of a departed peer), so
#: the event count, not N, sets the wall clock.
_TRACE_SIZES = {"smoke": 2000, "bench": 10000, "paper": 10000}
_TRACE_EVENTS = {"smoke": 10000, "bench": 20000, "paper": 20000}
#: The floor's population.  Each full-sweep converge recomputes every peer
#: twice (a productive sweep and a confirming one), so N=2000 keeps the
#: sweep arm to about a minute.
_FLOOR_SIZES = {"smoke": 1000, "bench": 2000, "paper": 2000}
#: Single-join epochs timed per arm for the floor.
_FLOOR_EPOCHS = 5


def _distinct_coordinates(rng, used):
    """Fresh uniform coordinates, re-drawn on any per-axis tie with ``used``.

    The selection geometry rests on the paper's distinct-coordinate
    assumption.  Drawing from ``random.Random(seed)`` with the seed
    ``generate_peers`` consumed would replay the very same uniforms, so
    callers derive a fresh seed, and every collision is re-drawn.
    """
    coords = []
    for axis, taken in enumerate(used):
        value = rng.uniform(0.0, DEFAULT_VMAX)
        while value in taken:
            value = rng.uniform(0.0, DEFAULT_VMAX)
        taken.add(value)
        coords.append(value)
    return tuple(coords)


def _used_values(peers):
    used = [set() for _ in range(peers[0].dimension)]
    for peer in peers:
        for axis, value in enumerate(peer.coordinates):
            used[axis].add(value)
    return used


def _trace_script(peers, total_events, seed):
    """A deterministic constant-population churn trace.

    Each epoch removes _EPOCH_EVENTS/2 random live peers and joins the same
    number of fresh ids with random distinct coordinates.
    """
    rng = random.Random(derive_seed(seed, 35, total_events))
    used = _used_values(peers)
    alive = [peer.peer_id for peer in peers]
    next_id = len(peers)
    epochs = []
    remaining = total_events
    while remaining > 0:
        size = min(_EPOCH_EVENTS, remaining)
        leaves = size // 2
        victims = rng.sample(alive, leaves)
        victim_set = set(victims)
        alive = [pid for pid in alive if pid not in victim_set]
        joiners = []
        for _ in range(size - leaves):
            joiners.append(make_peer(next_id, _distinct_coordinates(rng, used)))
            alive.append(next_id)
            next_id += 1
        epochs.append((victims, joiners))
        remaining -= size
    return epochs


def _apply_epoch(overlay, epoch):
    """Apply one epoch's membership events; returns their wall-clock
    (selection runs later, in converge)."""
    victims, joiners = epoch
    started = time.perf_counter()
    for victim in victims:
        overlay.remove_peer(victim)
    for joiner in joiners:
        overlay.add_peer(joiner)
    return time.perf_counter() - started


def _converged_overlay(peers):
    overlay = OverlayNetwork(EmptyRectangleSelection())
    for peer in peers:
        overlay.add_peer(peer)
    overlay.converge(incremental=True, max_rounds=80)
    return overlay


def test_full_knowledge_smoke_matches_equilibrium(scale):
    """PR-CI smoke: at N ~ 2k the one-shot install converges
    byte-identically with the equilibrium builder."""
    seed = derive_seed(scale.seed, 30, _SMOKE_SIZE)
    peers = generate_peers(_SMOKE_SIZE, 2, seed=seed)
    overlay = _converged_overlay(peers[:_SEED_POPULATION])
    for peer in peers[_SEED_POPULATION:]:
        overlay.add_peer(peer)
    assert overlay.converge(incremental=True, max_rounds=80) == 1
    equilibrium = OverlayNetwork.build_equilibrium(peers, EmptyRectangleSelection())
    assert overlay.directed_neighbour_map() == equilibrium.directed_neighbour_map()
    print_report(
        "Full-knowledge convergence smoke",
        format_table(
            ["N", "path", "matches equilibrium"],
            [[_SMOKE_SIZE, "one-shot install", True]],
        ),
    )


def _single_join_floor(scale):
    """Time one-shot vs indexed full-sweep converges over single-join epochs.

    Both arms admit the same guests in the same order; each guest departs
    again (converged, untimed) after its epoch.  Returns the two summed
    converge times and the population size.
    """
    count = _FLOOR_SIZES.get(scale.name, 2000)
    seed = derive_seed(scale.seed, 37, count)
    peers = generate_peers(count, 2, seed=seed)
    rng = random.Random(derive_seed(seed, 36, count))
    used = _used_values(peers)
    guests = [
        make_peer(10_000_000 + offset, _distinct_coordinates(rng, used))
        for offset in range(_FLOOR_EPOCHS)
    ]
    arms = {True: _converged_overlay(peers), False: _converged_overlay(peers)}
    seconds = {True: 0.0, False: 0.0}
    for guest in guests:
        for incremental, overlay in arms.items():
            overlay.add_peer(guest)
            started = time.perf_counter()
            overlay.converge(incremental=incremental, max_rounds=80)
            seconds[incremental] += time.perf_counter() - started
        assert (
            arms[True].directed_neighbour_map() == arms[False].directed_neighbour_map()
        )
        for overlay in arms.values():
            overlay.remove_peer(guest.peer_id)
            overlay.converge(incremental=True, max_rounds=80)
    return seconds[True], seconds[False], count


@pytest.mark.slow
def test_one_shot_churn_trace(scale):
    """The 20k-event trace at N=10k (bench/paper), replayed in full through
    the one-shot install, plus the single-join floor over the indexed full
    sweep."""
    one_shot_seconds, sweep_seconds, floor_count = _single_join_floor(scale)
    speedup = sweep_seconds / max(one_shot_seconds, 1e-9)

    count = _TRACE_SIZES.get(scale.name, 10000)
    total_events = _TRACE_EVENTS.get(scale.name, 20000)
    seed = derive_seed(scale.seed, 34, count)
    peers = generate_peers(count, 2, seed=seed)
    epochs = _trace_script(peers, total_events, seed)
    overlay = _converged_overlay(peers)
    apply_total = 0.0
    converge_total = 0.0
    for epoch in epochs:
        apply_total += _apply_epoch(overlay, epoch)
        started = time.perf_counter()
        overlay.converge(incremental=True, max_rounds=80)
        converge_total += time.perf_counter() - started
    assert overlay.peer_count == count

    events_per_second = total_events / max(apply_total + converge_total, 1e-9)
    print_report(
        f"One-shot churn trace [{scale.name}]",
        format_table(
            ["N", "events", "apply (s)", "converge (s)", "events/s"],
            [
                [
                    count,
                    total_events,
                    f"{apply_total:.2f}",
                    f"{converge_total:.2f}",
                    f"{events_per_second:.0f}",
                ]
            ],
        ),
        f"single-join converge at N={floor_count}: one-shot "
        f"{one_shot_seconds:.3f}s vs indexed full sweep {sweep_seconds:.1f}s "
        f"over {_FLOOR_EPOCHS} epochs = {speedup:.1f}x (floor {_SPEEDUP_FLOOR}x)",
    )
    assert speedup >= _SPEEDUP_FLOOR, (
        f"one-shot converge only {speedup:.1f}x faster than the indexed full "
        f"sweep on single-join epochs at N={floor_count}; expected at least "
        f"{_SPEEDUP_FLOOR}x"
    )
    rss = peak_rss_mb()
    persist_bench_record(
        "engine_one_shot_trace",
        peer_count=count,
        wall_seconds=converge_total,
        speedup=speedup,
        speedup_floor=_SPEEDUP_FLOOR,
        events_applied=total_events,
        apply_seconds=round(apply_total, 3),
        converge_seconds=round(converge_total, 3),
        events_per_second=round(events_per_second, 1),
        floor_peer_count=floor_count,
        floor_epochs=_FLOOR_EPOCHS,
        one_shot_floor_seconds=round(one_shot_seconds, 4),
        full_sweep_floor_seconds=round(sweep_seconds, 3),
        **({"peak_rss_mb": rss} if rss else {}),
    )
