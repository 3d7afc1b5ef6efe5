"""The live CBR video source."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.packets import VideoPacket
from repro.core.server_queue import ServerQueue
from repro.sim.engine import Simulator


class VideoSource:
    """Generates CBR video packets into a server queue.

    Live streaming per Section 2: generation starts at ``start_at``
    (time 0 in the paper), at exactly ``mu`` packets per second, and
    only already-generated packets can ever be transmitted — which the
    queue enforces naturally.
    """

    def __init__(self, sim: Simulator, queue: Optional[ServerQueue],
                 mu: float, duration_s: float, start_at: float = 0.0,
                 on_generate: Optional[Callable[[VideoPacket], None]]
                 = None) -> None:
        if mu <= 0:
            raise ValueError("playback rate mu must be positive")
        self.total_packets = int(round(duration_s * mu))
        if self.total_packets < 1:
            raise ValueError(
                f"video of {duration_s} s at {mu} pkts/s is shorter "
                "than one packet")
        self.sim = sim
        self.queue = queue
        self.mu = mu
        self.start_at = start_at
        self._listeners: List[Callable[[VideoPacket], None]] = []
        if on_generate is not None:
            self._listeners.append(on_generate)
        self.generated = 0
        self._p_generate = sim.bus.probe("source.generate")
        sim.at(max(start_at, sim.now), self._generate_next)

    def add_listener(self,
                     listener: Callable[[VideoPacket], None]) -> None:
        """Register a callback fired after each packet is generated."""
        self._listeners.append(listener)

    @property
    def finished(self) -> bool:
        return self.generated >= self.total_packets

    def _generate_next(self) -> None:
        if self.finished:
            return
        packet = VideoPacket(number=self.generated,
                             generated_at=self.sim.now)
        if self._p_generate.active:
            self._p_generate.emit(self.sim.now, packet.number)
        if self.queue is not None:
            self.queue.push(packet)
        self.generated += 1
        for listener in self._listeners:
            listener(packet)
        if not self.finished:
            self.sim.schedule(1.0 / self.mu, self._generate_next)
