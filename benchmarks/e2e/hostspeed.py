"""Host-speed sampling: scale times measured on a shared host to the
reference host.

On a shared host, other tenants' load slows this process by up to about
2x, in phases lasting from a fraction of a second to minutes.  That is
far more than the bounds a regression check needs.  While a
:class:`HostSpeed` is active, a ``SIGALRM`` timer runs a tiny fixed
probe loop every :data:`PERIOD_S` of wall time.  The mean of
``REFERENCE_PROBE_S / probe time`` over the samples is how fast this
host ran relative to the reference host (below 1 when slower).  A time
measured meanwhile, minus the probes' own time, times that factor is
the time the reference host would have taken, as far as the measured
code slows down like the probe: both are pure-Python object code on
the same core.

The handler runs between bytecodes of the main thread and touches only
its own objects, so it cannot change what the measured code computes.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from types import FrameType
from typing import Any, Dict, List, Optional, Tuple

#: Seconds :func:`_probe` takes on the reference host when no other
#: tenant contends for its core.
REFERENCE_PROBE_S = 7e-4

#: Wall-clock seconds between probes; each probe costs ~1/70 of this.
PERIOD_S = 0.05


class _Item:
    __slots__ = ("key", "seen")

    def __init__(self, key: int) -> None:
        self.key = key
        self.seen: Dict[int, int] = {}

    def step(self, i: int) -> int:
        self.seen[i] = self.seen.get(i, 0) + 1
        return (self.key * 7 + i) % 1009


def _probe(items: List[_Item], steps: int = 1000) -> float:
    """Seconds for a fixed loop in the simulator's idiom: heap pushes
    and pops of tuples, bound-method calls, small dict updates."""
    heap: List[Tuple[int, int, _Item]] = []
    t0 = time.perf_counter()
    for i in range(steps):
        item = items[i & 63]
        heapq.heappush(heap, (item.step(i & 15), i, item))
        if len(heap) > 256:
            heapq.heappop(heap)
    return time.perf_counter() - t0


class HostSpeed:
    """Context manager sampling the host's speed while it is active."""

    def __init__(self) -> None:
        self.ratios: List[float] = []
        #: Wall and CPU seconds the probes themselves took.
        self.probe_wall = 0.0
        self.probe_cpu = 0.0
        self._items = [_Item(key) for key in range(64)]
        self._previous: Any = None

    def _sample(self, signum: int = 0,
                frame: Optional[FrameType] = None) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        self.ratios.append(REFERENCE_PROBE_S / _probe(self._items))
        self.probe_wall += time.perf_counter() - w0
        self.probe_cpu += time.process_time() - c0

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.ratios:  # shorter than one period: probe once now
            self.ratios.append(REFERENCE_PROBE_S / _probe(self._items))

    @property
    def factor(self) -> float:
        """Mean speed relative to the reference host."""
        return statistics.fmean(self.ratios)
