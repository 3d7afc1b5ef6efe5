#!/usr/bin/env python
"""Quickstart: stream a live video over two TCP paths with DMP.

This walks the full public API in one sitting:

1. simulate DMP-streaming over two congested paths (packet-level
   simulator with TCP Reno and background traffic);
2. measure the per-path TCP parameters the way the paper does;
3. feed them to the analytical model and compare its late-fraction
   prediction with the simulation;
4. check the paper's headline rule of thumb: performance is
   satisfactory once sigma_a/mu reaches ~1.6 with a few seconds of
   startup delay.

Run:  python examples/quickstart.py
"""

from repro import BottleneckSpec, MultiSessionCampaign, PathConfig
from repro.experiments.sweep import DelayQuestion, required_startup_delays
from repro.model import DmpModel, FlowParams

# ----------------------------------------------------------------------
# 1. Two independent paths, each a 3.7 Mbps bottleneck shared with
#    7 FTP + 40 HTTP background flows (the paper's configuration 2,
#    calibrated for this simulator).
# ----------------------------------------------------------------------
bottleneck = BottleneckSpec(bandwidth_bps=3.7e6, delay_s=0.001,
                            buffer_pkts=50)
path = PathConfig(bottleneck=bottleneck, n_ftp=7, n_http=40)

MU = 50          # playback rate, packets/s (600 kbps at 1500 B)
DURATION = 120   # seconds of live video

print(f"Streaming a {MU}-pkt/s live video over 2 paths "
      f"for {DURATION}s ...")
# One session on the paper's independent-paths topology (Fig. 3).
run = MultiSessionCampaign(mu=MU, duration_s=DURATION,
                           paths=[path, path], scheme="dmp", seed=7)
(result,) = run.run().sessions

print(f"  packets delivered : {len(result.arrivals)}"
      f" / {result.total_packets}")
print(f"  path shares       : "
      f"{[f'{s:.2f}' for s in result.path_shares]}")

# ----------------------------------------------------------------------
# 2. Per-path TCP parameters, estimated like tcpdump would.
# ----------------------------------------------------------------------
flows = []
for stats in result.flow_stats:
    print(f"  {stats['name']}: p={stats['loss_event_estimate']:.4f} "
          f"RTT={stats['mean_rtt'] * 1e3:.0f} ms "
          f"T_O={stats['timeout_ratio']:.2f}")
    # loss_model="sparse": the calibrated variant for parameters
    # measured on this simulator (see DESIGN.md).
    flows.append(FlowParams(p=max(stats["loss_event_estimate"], 1e-4),
                            rtt=stats["mean_rtt"],
                            to_ratio=max(stats["timeout_ratio"], 1.0),
                            loss_model="sparse"))

# ----------------------------------------------------------------------
# 3. Model vs simulation across startup delays.
# ----------------------------------------------------------------------
print("\n  tau   sim late-fraction   model late-fraction")
for tau in (4.0, 6.0, 8.0, 10.0):
    model = DmpModel(flows, mu=MU, tau=tau)
    estimate = model.late_fraction_mc(horizon_s=20000, seed=1)
    print(f"  {tau:4.0f}  {result.late_fraction(tau):16.5f}"
          f"   {estimate.late_fraction:16.5f}")

# ----------------------------------------------------------------------
# 4. The 1.6 rule.
# ----------------------------------------------------------------------
model = DmpModel(flows, mu=MU, tau=10.0)
ratio = model.throughput_ratio
print(f"\n  aggregate achievable throughput / mu = {ratio:.2f}")
(required,) = required_startup_delays(
    [DelayQuestion(tuple(flows), MU)], threshold=1e-4, horizon_s=20000,
    seed=1)
if required is None:
    print("  no startup delay on the grid meets the 1e-4 target "
          "(ratio too low)")
else:
    print(f"  startup delay for <1e-4 late packets: {required:.0f} s")
print("\nPaper's rule of thumb: satisfactory once the ratio reaches "
      "~1.6 with ~10 s of startup delay.")
