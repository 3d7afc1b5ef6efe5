"""Time-varying link capacity: on/off modulation.

Link bandwidth is sampled at each serialisation start, so calling
``Link.set_bandwidth`` at scheduled times yields a time-varying path.
:class:`OnOffLinkModulator` drives the square-wave pattern of the
paper's Section 7.3 (periodic alternation between a nominal and a
degraded rate).
"""

from __future__ import annotations

from repro.sim.engine import Simulator
from repro.sim.link import Link

# A fully "off" path still needs a positive serialisation rate; this
# is slow enough (~1 pkt per 12 s at 1500 B) to be an outage.
OFF_BANDWIDTH_BPS = 1e3


class OnOffLinkModulator:
    """Square-wave capacity: ``on_bandwidth`` for ``on_time`` seconds,
    then ``off_bandwidth``, repeating with ``period``."""

    def __init__(self, sim: Simulator, link: Link,
                 on_bandwidth_bps: float,
                 off_bandwidth_bps: float = OFF_BANDWIDTH_BPS,
                 period: float = 10.0, on_time: float = 5.0,
                 phase: float = 0.0) -> None:
        if not 0 < on_time <= period:
            raise ValueError("need 0 < on_time <= period")
        if on_bandwidth_bps <= 0 or off_bandwidth_bps <= 0:
            raise ValueError("bandwidths must be positive")
        self.sim = sim
        self.link = link
        self.on_bandwidth_bps = on_bandwidth_bps
        self.off_bandwidth_bps = off_bandwidth_bps
        self.period = period
        self.on_time = on_time
        self.transitions = 0
        offset = phase % period
        # Establish the state at t = now and schedule the next flip.
        if offset < on_time:
            link.set_bandwidth(on_bandwidth_bps)
            sim.schedule(on_time - offset, self._go_off)
        else:
            link.set_bandwidth(off_bandwidth_bps)
            sim.schedule(period - offset, self._go_on)

    def _go_on(self) -> None:
        self.link.set_bandwidth(self.on_bandwidth_bps)
        self.transitions += 1
        self.sim.schedule(self.on_time, self._go_off)

    def _go_off(self) -> None:
        self.link.set_bandwidth(self.off_bandwidth_bps)
        self.transitions += 1
        self.sim.schedule(self.period - self.on_time, self._go_on)
