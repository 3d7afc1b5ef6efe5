#!/usr/bin/env python
"""Dual-ISP home: can two cheap ADSL lines replace one fat link?

The paper's introduction asks two questions (Section 1):

  (i)  if one access link supports a video, can two links with HALF
       the throughput each support the same video?
  (ii) if one access link supports a video, can two SUCH links
       support a video with TWICE the bitrate?

This example answers both with the analytical model, exactly as the
paper does: single-path streaming needs sigma/mu ~ 2 [31], while
DMP-streaming needs only sigma_a/mu ~ 1.6, so the answer to both
questions is *yes* — with margin to spare.

Run:  python examples/dual_isp_home.py
"""

from repro.model import DmpModel, FlowParams

# One ADSL-ish path: 2% loss events, 100 ms RTT, T_O = 2.
ADSL = FlowParams(p=0.02, rtt=0.100, to_ratio=2.0)
TAU = 10.0          # startup delay users tolerate
TARGET = 1e-4       # satisfactory late fraction (Section 7.1)

sigma = DmpModel([ADSL], mu=1.0, tau=1.0).aggregate_throughput()
print(f"One ADSL line: achievable TCP throughput = "
      f"{sigma:.1f} pkts/s ({sigma * 1500 * 8 / 1e6:.2f} Mbps)\n")


def verdict(late: float) -> str:
    return ("satisfactory" if late < TARGET
            else f"NOT satisfactory (f={late:.2e})")


# ----------------------------------------------------------------------
# Baseline: a single line at the single-path rule sigma/mu = 2.
# ----------------------------------------------------------------------
mu_single = sigma / 2.0
# The single-path model of [31] is the coupled model with one flow.
single = DmpModel([ADSL], mu=mu_single, tau=TAU)
f_single = single.late_fraction_mc(horizon_s=30000,
                                   seed=1).late_fraction
print(f"Single line, video at mu = {mu_single:.1f} pkts/s "
      f"(sigma/mu = 2.0): {verdict(f_single)}")

# ----------------------------------------------------------------------
# Question (i): two half-throughput lines, same video.
# Half the throughput = double the RTT (same loss process).
# ----------------------------------------------------------------------
half_line = ADSL.scaled_rtt(ADSL.rtt * 2.0)
two_halves = DmpModel([half_line, half_line], mu=mu_single, tau=TAU)
print(f"\nQuestion (i): two lines at half throughput each, same "
      f"video (sigma_a/mu = {two_halves.throughput_ratio:.2f})")
f_i = two_halves.late_fraction_mc(horizon_s=30000,
                                  seed=1).late_fraction
print(f"  -> {verdict(f_i)}")

# ----------------------------------------------------------------------
# Question (ii): two full lines, double-bitrate video.
# ----------------------------------------------------------------------
mu_double = 2.0 * mu_single
two_full = DmpModel([ADSL, ADSL], mu=mu_double, tau=TAU)
print(f"\nQuestion (ii): two full lines, video at mu = "
      f"{mu_double:.1f} pkts/s (sigma_a/mu = "
      f"{two_full.throughput_ratio:.2f})")
f_ii = two_full.late_fraction_mc(horizon_s=30000, seed=1).late_fraction
print(f"  -> {verdict(f_ii)}")

# ----------------------------------------------------------------------
# And the margin: push mu up until DMP breaks.  A 3 s startup delay
# (impatient viewer) makes the trade-off visible: the margin shrinks
# as the bitrate approaches the aggregate throughput.
# ----------------------------------------------------------------------
impatient_tau = 3.0
print(f"\nHow far can two full lines be pushed "
      f"(startup delay {impatient_tau:.0f} s)?")
for ratio in (2.0, 1.8, 1.6, 1.4, 1.2):
    mu = 2.0 * sigma / ratio
    model = DmpModel([ADSL, ADSL], mu=mu, tau=impatient_tau)
    f = model.late_fraction_mc(horizon_s=30000, seed=1).late_fraction
    print(f"  sigma_a/mu = {ratio:.1f}  (mu = {mu:5.1f} pkts/s): "
          f"late fraction {f:.2e}  [{verdict(f)}]")
print("\nConclusion: both answers are yes — two ADSL lines with "
      "DMP-streaming support 2x-and-more the single-line bitrate.")
