"""Packet-level simulator microbenchmark: event-loop step rate.

Runs one DMP streaming session of the standard 2-2 validation setting
and reports how many discrete events the engine dispatches per
wall-clock second — the number PR 2's event-loop work moved, tracked
here so later PRs cannot silently regress it.
"""

from __future__ import annotations

import time

from repro.core.campaign import MultiSessionCampaign
from repro.experiments.configs import ALL_SETTINGS

SETTING = "2-2"
SEED = 1

MODES = {
    "quick": {"duration_s": 30.0},
    "full": {"duration_s": 120.0},
}


def run(mode: str) -> dict:
    duration_s = MODES[mode]["duration_s"]
    setting = ALL_SETTINGS[SETTING]
    session = MultiSessionCampaign(
        mu=setting.mu, duration_s=duration_s,
        paths=setting.path_configs(), scheme="dmp",
        shared_bottleneck=setting.shared_bottleneck, seed=SEED)
    started = time.perf_counter()
    (result,) = session.run().sessions
    elapsed = time.perf_counter() - started
    events = session.sim._processed
    return {
        "config": {"setting": SETTING, "scheme": "dmp", "seed": SEED,
                   "duration_s": duration_s},
        "events": events,
        "delivered_packets": len(result.arrivals),
        "seconds": elapsed,
        "events_per_second": events / elapsed,
    }
