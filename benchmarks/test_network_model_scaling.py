"""Message-level overlay construction at N=2000 under the real network model.

Before the real-network refactor the message-level stack topped out around
two hundred peers; this benchmark drives ``N = 2000`` through the full
:class:`repro.simulation.netmodel.LinkModel` path -- lognormal per-link
latency, i.i.d. loss (so the loss-tolerant retransmission machinery is
live), and per-link bandwidth queueing -- then measures the paper's Tier-1
latency quantity with a dissemination probe down the maintained tree.

The headline ratio persisted as ``speedup`` is the sustained message
throughput in thousands of simulator messages per wall-clock second
(``messages_sent / wall_seconds / 1000``): the scale claim is per-message
cost, so a regression anywhere on the hot path (engine heap, link-model
draws, protocol handlers) drags the ratio below its floor and fails the
weekly job.  The record also carries the new schema fields: the probe's
``p99_latency_s`` and the construction phase's ``bytes_sent``.

The probe covers the maintained preferred-neighbour tree from its main
root; peers whose lifetime is a local maximum among their overlay
neighbours root their own subtree and are legitimately outside it, so the
assertion is >= 95% coverage (97.2% measured at N=2000), not
exhaustiveness.

Marked ``slow``: minutes of wall clock, so the CI tier-1 job deselects it
(``-m "not slow"``) and the weekly job runs it.
"""

from __future__ import annotations

import time

import pytest

from conftest import peak_rss_mb, persist_bench_record, print_report

from repro.metrics.reporting import format_table
from repro.overlay.selection.empty_rectangle import EmptyRectangleSelection
from repro.simulation.netmodel import LinkModel, LognormalLatency
from repro.simulation.protocol import GossipConfig
from repro.simulation.runner import run_dissemination_probe, run_gossip_overlay
from repro.workloads.peers import generate_peers


@pytest.mark.slow
def test_overlay_converges_at_n2000_under_the_realistic_link_model(scale):
    count = 200 if scale.name == "smoke" else 2000
    peers = generate_peers(count, 2, seed=scale.seed)
    # Lognormal jitter around a 20ms median, 3% loss and a 10 MB/s per-link
    # cap: enough contention that retransmission and queueing are exercised,
    # tame enough that the overlay settles inside the simulated horizon.
    model = LinkModel(
        LognormalLatency(0.02, 0.5),
        loss_rate=0.03,
        bandwidth_bytes_per_second=10_000_000.0,
        seed=scale.seed,
    )
    # Gossip/reselect at 4s periods: the announce flood is the dominant
    # message volume, and the benchmark's subject is per-message cost at
    # scale, not the tightest possible convergence time.
    config = GossipConfig(
        broadcast_radius=2, gossip_period=4.0, tmax=14.0, reselect_period=4.0
    )

    started = time.perf_counter()
    simulated = run_gossip_overlay(
        peers,
        EmptyRectangleSelection(),
        config=config,
        join_interval=0.02,
        settle_time=24.0,
        network=model,
        seed=scale.seed,
    )
    wall = time.perf_counter() - started
    # The probe resets the network counters, so capture the construction
    # phase's traffic first -- bytes_sent is the paper's "message overhead"
    # measured in bytes.
    stats = simulated.overlay_stats
    messages_sent = stats.messages_sent
    messages_lost = stats.messages_lost
    bytes_sent = stats.bytes_sent
    retransmissions = sum(
        process.retransmissions for process in simulated.processes.values()
    )
    probe = run_dissemination_probe(simulated, extra_time=12.0)
    throughput_k = messages_sent / wall / 1000.0

    reached = count - len(probe.unreached_peers)
    table = format_table(
        ["peers", "sim [s]", "wall [s]", "messages", "lost", "retrans", "bytes", "kmsg/s"],
        [
            [
                count,
                f"{simulated.engine.now:.0f}",
                f"{wall:.1f}",
                messages_sent,
                messages_lost,
                retransmissions,
                bytes_sent,
                f"{throughput_k:.1f}",
            ]
        ],
    )
    print_report(
        f"Real-network overlay construction at scale [{scale.name}]",
        table,
        f"dissemination probe: {probe.statistics.describe()}",
        f"probe coverage: {reached}/{count} "
        f"(root {probe.root}; local-maximum peers root their own subtrees)",
        f"settled alive overlay connected: {simulated.alive_snapshot().is_connected()}",
    )

    # The lossy machinery was genuinely live ...
    assert messages_lost > 0
    assert retransmissions > 0
    assert bytes_sent > 0
    # ... and the overlay still assembled: the probe walks the maintained
    # tree to (essentially) everyone, with a sane latency distribution.
    # ~97% measured at N=2000: the ~3% gap is peers rooting their own
    # subtrees (lifetime local maxima), whose count grows with N.
    assert reached >= 0.95 * count
    assert 0.0 < probe.statistics.p50 <= probe.statistics.p99
    assert throughput_k >= 2.5

    persist_bench_record(
        "network_model_scaling",
        peer_count=count,
        wall_seconds=wall,
        speedup=throughput_k,
        speedup_floor=2.5,
        p99_latency_s=round(probe.statistics.p99, 4),
        bytes_sent=bytes_sent,
        messages_sent=messages_sent,
        messages_lost=messages_lost,
        retransmissions=retransmissions,
        probe_p50_ms=round(probe.statistics.p50 * 1000.0, 1),
        probe_unreached=len(probe.unreached_peers),
        **({"peak_rss_mb": peak_rss_mb()} if peak_rss_mb() else {}),
    )
