"""Multi-session campaign benchmark: events/sec vs session count.

Runs one staggered-start campaign per session count N over a shared
drop-tail bottleneck (packet pool on — the configuration campaigns
run with) and reports the engine event rate at each N.  The shape of this curve is the multi-session refactor's
deliverable: per-event cost must stay roughly flat as N grows, i.e.
events/sec at N=200 must hold within 3x of the N=10 rate
(``tools/perf_track`` gates exactly that, within one report, on any
machine).

The N=1000 point doubles as a PacketPool audit at the
largest population the packet sim still affords: each point carries
the pool counters, and perf_track gates that at N=1000 the pool
actually recycles (reuse fraction >= 0.5) rather than degenerating
into straight allocation.

The report also carries a ``health_overhead`` section: the N=200
campaign repeated with the full QoE health layer attached (streaming
:class:`~repro.obs.health.HealthAggregator` rollups plus an armed
:class:`~repro.obs.recorder.FlightRecorder`) against the bare N=200
rate.  ``tools/perf_track`` gates, within one report, that the
instrumented rate stays >= 90% of the bare rate — the health layer's
<= 10% overhead contract.
"""

from __future__ import annotations

import time

from repro.core.campaign import MultiSessionCampaign
from repro.obs.recorder import Trigger
from repro.sim.topology import BottleneckSpec

SESSION_COUNTS = (1, 10, 50, 200, 1000)
MU = 25.0
SEED = 1
WARMUP_S = 5.0
STAGGER_S = 0.05

#: 50 Mbps shared bottleneck: ~60 Mbps of offered video load at
#: N=200 (2 paths x 25 pkt/s x 1500 B each), so the largest point
#: runs congested — the regime campaigns exist to measure.
SPEC = BottleneckSpec(bandwidth_bps=50e6, delay_s=0.01,
                      buffer_pkts=250)

MODES = {
    "quick": {"duration_s": 8.0},
    "full": {"duration_s": 20.0},
}

#: Session count the instrumented-vs-bare overhead point runs at.
HEALTH_OVERHEAD_N = 200


def _build(n_sessions: int, duration_s: float) -> MultiSessionCampaign:
    return MultiSessionCampaign(
        mu=MU, duration_s=duration_s, n_sessions=n_sessions,
        bottleneck=SPEC, paths_per_session=2,
        queue_discipline="droptail", seed=SEED,
        stagger_s=STAGGER_S, warmup_s=WARMUP_S)


def run(mode: str) -> dict:
    duration_s = MODES[mode]["duration_s"]
    points = []
    by_n = {}
    for n_sessions in SESSION_COUNTS:
        campaign = _build(n_sessions, duration_s)
        started = time.perf_counter()
        result = campaign.run(drain_s=10.0)
        elapsed = time.perf_counter() - started
        events = result.events_processed
        delivered = sum(s.received for s in result.sessions)
        total = sum(s.total_packets for s in result.sessions)
        rate = events / elapsed
        pool = campaign.sim.pool
        points.append({
            "n_sessions": n_sessions,
            "events": events,
            "seconds": elapsed,
            "events_per_second": rate,
            "delivered_packets": delivered,
            "total_packets": total,
            "pool": {
                "allocated": pool.allocated,
                "acquired": pool.acquired,
                "recycled": pool.recycled,
                "released": pool.released,
                "free": pool.free,
                "reuse_fraction": (pool.recycled / pool.acquired
                                   if pool.acquired else 0.0),
            },
        })
        by_n[str(n_sessions)] = rate

    # --- instrumented-vs-bare overhead at N=200 ----------------------
    # Same seed and topology as the bare N=200 point above, with the
    # full health layer attached: flight recorder (armed stall
    # trigger) first, then the streaming aggregator — the subscribe
    # order campaigns use.  The seeded run replays the same traffic
    # (plus the aggregator's low-rate sampling timers), so the rate
    # ratio isolates the instrumentation cost.  Shared CI runners
    # drift by far more than the 10% being measured, so the two
    # configurations run interleaved on the CPU-time clock
    # (``process_time`` — a ratio of same-process CPU doesn't care
    # what else the runner is doing) and each side takes its
    # best-of-N time — min-time is the standard noise-robust
    # estimator for this kind of paired comparison.
    reps = 3 if mode == "quick" else 5
    bare_best, inst_best = float("inf"), float("inf")
    inst_events = bare_events = 0
    for _ in range(reps):
        bare = _build(HEALTH_OVERHEAD_N, duration_s)
        started = time.process_time()
        bare_events = bare.run(drain_s=10.0).events_processed
        bare_best = min(bare_best, time.process_time() - started)

        instrumented = _build(HEALTH_OVERHEAD_N, duration_s)
        instrumented.attach_recorder(
            triggers=(Trigger(kind="stall", threshold=2.0),))
        instrumented.attach_health(tau=6.0)
        started = time.process_time()
        inst_events = instrumented.run(drain_s=10.0).events_processed
        inst_best = min(inst_best, time.process_time() - started)
    bare_rate = bare_events / bare_best
    inst_rate = inst_events / inst_best
    health_overhead = {
        "n_sessions": HEALTH_OVERHEAD_N,
        "repetitions": reps,
        "bare_events_per_second": bare_rate,
        "instrumented_events_per_second": inst_rate,
        "bare_events": bare_events,
        "instrumented_events": inst_events,
        "bare_seconds": bare_best,
        "instrumented_seconds": inst_best,
        "overhead_fraction": 1.0 - inst_rate / bare_rate,
    }

    return {
        "config": {"mu": MU, "seed": SEED, "duration_s": duration_s,
                   "counts": list(SESSION_COUNTS),
                   "queue_discipline": "droptail"},
        "points": points,
        "events_per_second_by_n": by_n,
        "health_overhead": health_overhead,
    }
