"""Queueing disciplines for link buffers.

The paper's ns-2 setup uses drop-tail (FIFO) buffers sized in packets
(Table 1); that is the default here.  Three AQM variants are provided
for the bottleneck-discipline scenario axis:

* :class:`REDQueue` — gentle RED (the McDonald-Reynier limit object);
* :class:`PIEQueue` — RFC 8033 Proportional Integral controller
  Enhanced: a latency-target drop-probability controller driven by a
  departure-rate estimate, with burst allowance;
* :class:`FQPIEQueue` — RFC 8290-style DRR flow queues, each with its
  own PIE drop-probability state (the Linux ``fq_pie`` shape).

Every stochastic discipline takes an *explicit* ``rng`` threaded from
the session seed, and the time-aware PIE family takes an explicit
``clock`` callable (``lambda: sim.now``) — never a wall clock — so a
run is a pure function of its seed.  :func:`make_queue` is the factory
the topology layer uses to build a bottleneck queue from a discipline
name in :data:`QUEUE_DISCIPLINES`.
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from dataclasses import dataclass
from typing import (Callable, Deque, Dict, Optional, Tuple,
                    TYPE_CHECKING)

from repro.obs.bus import NULL_PROBE, Probe
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.bus import EventBus

#: The bottleneck-discipline scenario axis, in canonical order.
QUEUE_DISCIPLINES: Tuple[str, ...] = ("droptail", "red", "pie",
                                      "fq-pie")


class DropTailQueue:
    """FIFO queue with a hard capacity in packets.

    Packets offered to a full queue are dropped (drop-tail), which is
    the loss process the paper's validation relies on: "packets are
    lost due to buffer overflow".
    """

    #: FIFO, no clock read at dequeue: a Link fixes departures early.
    fixed_departures = True

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1 packet")
        self.capacity = capacity
        self._queue: Deque[Packet] = deque()
        self.drops = 0
        self.enqueued = 0
        self.max_occupancy = 0

    def offer(self, packet: Packet) -> bool:
        """Try to enqueue; returns False (and counts a drop) if full."""
        if len(self._queue) >= self.capacity:
            self.drops += 1
            return False
        return self._admit(packet)

    def _admit(self, packet: Packet) -> bool:
        self._queue.append(packet)
        self.enqueued += 1
        if len(self._queue) > self.max_occupancy:
            self.max_occupancy = len(self._queue)
        return True

    def pop(self) -> Optional[Packet]:
        """Dequeue the head packet, or None when empty."""
        if not self._queue:
            return None
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def drop_fraction(self) -> float:
        """Fraction of offered packets that were dropped."""
        offered = self.enqueued + self.drops
        return self.drops / offered if offered else 0.0


class REDQueue(DropTailQueue):
    """Random Early Detection queue (gentle RED).

    Not used by the headline reproduction (the paper uses drop-tail)
    but provided for the ablation benchmarks on the loss process.
    """

    def __init__(self, capacity: int, min_th: Optional[float] = None,
                 max_th: Optional[float] = None, max_p: float = 0.1,
                 weight: float = 0.002,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(capacity)
        self.min_th = min_th if min_th is not None else capacity / 5.0
        self.max_th = max_th if max_th is not None else capacity / 2.0
        if self.min_th >= self.max_th:
            raise ValueError("RED requires min_th < max_th")
        if rng is None:
            # A silent fallback RNG here would give every queue the
            # same drop stream regardless of the experiment seed.
            raise ValueError(
                "REDQueue needs an explicit rng threaded from the "
                "session seed (e.g. sim.rng)")
        self.max_p = max_p
        self.weight = weight
        self.avg = 0.0
        self._rng = rng

    def offer(self, packet: Packet) -> bool:
        self.avg = (1.0 - self.weight) * self.avg \
            + self.weight * len(self._queue)
        if len(self._queue) >= self.capacity:
            self.drops += 1
            return False
        if self.avg >= self.max_th:
            drop_p = 1.0
        elif self.avg >= self.min_th:
            span = self.max_th - self.min_th
            drop_p = self.max_p * (self.avg - self.min_th) / span
        else:
            drop_p = 0.0
        if drop_p > 0.0 and self._rng.random() < drop_p:
            self.drops += 1
            return False
        return self._admit(packet)


# ---------------------------------------------------------------------
# PIE (RFC 8033)
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class PieParams:
    """RFC 8033 controller constants (section 4.4 defaults).

    ``alpha``/``beta`` are in units of 1/seconds applied to delays in
    seconds, i.e. the RFC's "Hz" form; the auto-tuning ladder in
    :meth:`PieController.autotune_scale` rescales them by the current
    drop probability.
    """

    target_delay_s: float = 0.015
    t_update_s: float = 0.015
    alpha: float = 0.125
    beta: float = 1.25
    max_burst_s: float = 0.15
    dq_threshold_bytes: int = 16384
    mean_pkt_bytes: int = 1500
    decay: float = 0.98


class PieController:
    """The RFC 8033 drop-probability state machine, time-free.

    One :meth:`update` call corresponds to one ``T_UPDATE`` tick of the
    RFC's ``calculate_drop_prob()``; the caller supplies the current
    queueing-delay estimate.  Keeping the controller pure (no clock, no
    RNG) is what makes the conformance vectors in
    ``tests/test_pie_conformance.py`` exact: a synthetic delay trace
    pins the full ``drop_prob`` sequence.
    """

    def __init__(self, params: Optional[PieParams] = None) -> None:
        self.params = params if params is not None else PieParams()
        self.drop_prob = 0.0
        self.qdelay_old_s = 0.0
        self.burst_allowance_s = self.params.max_burst_s

    @staticmethod
    def autotune_scale(drop_prob: float) -> float:
        """RFC 8033 section 5.2 auto-tuning ladder.

        The proportional/integral gains are scaled down when the drop
        probability is small so the controller stays stable across
        orders of magnitude of congestion.
        """
        if drop_prob < 0.000001:
            return 1.0 / 2048.0
        if drop_prob < 0.00001:
            return 1.0 / 512.0
        if drop_prob < 0.0001:
            return 1.0 / 128.0
        if drop_prob < 0.001:
            return 1.0 / 32.0
        if drop_prob < 0.01:
            return 1.0 / 8.0
        if drop_prob < 0.1:
            return 1.0 / 2.0
        return 1.0

    def update(self, qdelay_s: float) -> float:
        """One ``T_UPDATE`` tick; returns the new drop probability.

        Follows RFC 8033 section 4.2 step by step: PI delta, auto-tune
        scaling, the 0.02 cap on increments in the high-probability
        regime, exponential decay when congestion is gone, [0, 1]
        bounding, and the burst-allowance countdown/reset.
        """
        p = self.params
        delta = p.alpha * (qdelay_s - p.target_delay_s) \
            + p.beta * (qdelay_s - self.qdelay_old_s)
        delta *= self.autotune_scale(self.drop_prob)
        if self.drop_prob >= 0.1 and delta > 0.02:
            delta = 0.02
        self.drop_prob += delta
        half_target = p.target_delay_s / 2.0
        if qdelay_s == 0.0 and self.qdelay_old_s == 0.0:
            self.drop_prob *= p.decay
        if self.drop_prob < 0.0:
            self.drop_prob = 0.0
        elif self.drop_prob > 1.0:
            self.drop_prob = 1.0
        if self.burst_allowance_s > 0.0:
            self.burst_allowance_s = max(
                0.0, self.burst_allowance_s - p.t_update_s)
            # Snap float residue (~1e-17 after max_burst/t_update
            # subtractions) so the allowance cannot linger one extra
            # tick and suppress a drop it should not.
            if self.burst_allowance_s < 1e-12:
                self.burst_allowance_s = 0.0
        elif self.drop_prob == 0.0 and qdelay_s < half_target \
                and self.qdelay_old_s < half_target:
            self.burst_allowance_s = p.max_burst_s
        self.qdelay_old_s = qdelay_s
        return self.drop_prob

    def drop_early(self, qdelay_old_s_ok: bool, backlog_bytes: int,
                   rng: random.Random) -> bool:
        """RFC 8033 section 4.1 enqueue-time drop decision.

        ``qdelay_old_s_ok`` is the caller-evaluated first safeguard
        (delay below half target); the byte-backlog safeguard and the
        burst allowance are checked here.  The basic random-drop form
        is used (the section 5.1 derandomisation is an optional
        enhancement).
        """
        p = self.params
        if self.burst_allowance_s > 0.0:
            return False
        if qdelay_old_s_ok and self.drop_prob < 0.2:
            return False
        if backlog_bytes <= 2 * p.mean_pkt_bytes:
            return False
        if self.drop_prob <= 0.0:
            return False
        return rng.random() < self.drop_prob

    def reset(self) -> None:
        """Return to the initial (long-idle) state."""
        self.drop_prob = 0.0
        self.qdelay_old_s = 0.0
        self.burst_allowance_s = self.params.max_burst_s


#: Lazy catch-up bound: a queue idle for more than this many update
#: intervals has a fully decayed controller (0.98^256 < 0.006), so the
#: state is reset instead of iterated — same limit, finitely reached.
_MAX_CATCHUP_TICKS = 256


class PIEQueue(DropTailQueue):
    """RFC 8033 PIE bottleneck queue.

    The controller ticks every ``t_update_s`` of *simulated* time;
    because the queue is only touched from ``offer``/``pop`` call
    sites, pending ticks are applied lazily from the injected
    ``clock`` before any decision — equivalent to a scheduled timer
    and exactly reproducible.  Queueing delay is estimated from the
    departure-rate measurement cycle of section 4.3
    (``qdelay = backlog_bytes / avg_dq_rate``).

    Observability: each controller tick emits
    ``queue.pie.prob_update`` and each early (non-overflow) drop emits
    ``queue.pie.drop`` on the simulator bus when one is supplied.
    """

    fixed_departures = False  # departure-rate cycle reads the clock

    def __init__(self, capacity: int, *,
                 rng: Optional[random.Random] = None,
                 clock: Optional[Callable[[], float]] = None,
                 params: Optional[PieParams] = None,
                 bus: Optional["EventBus"] = None,
                 name: str = "pie") -> None:
        super().__init__(capacity)
        if rng is None:
            raise ValueError(
                "PIEQueue needs an explicit rng threaded from the "
                "session seed (e.g. sim.rng)")
        if clock is None:
            raise ValueError(
                "PIEQueue needs an explicit clock (e.g. lambda: "
                "sim.now); wall clocks would break determinism")
        self._rng = rng
        self._clock = clock
        self.name = name
        self.controller = PieController(params)
        self.early_drops = 0
        self.backlog_bytes = 0
        # Departure-rate measurement cycle (RFC 8033 section 4.3).
        self.avg_dq_rate = 0.0  # bytes per second; 0 = no estimate yet
        self._in_measurement = False
        self._dq_count = 0
        self._dq_start = 0.0
        self._next_update = clock() + self.controller.params.t_update_s
        self._p_pie_prob: Probe = bus.probe("queue.pie.prob_update") \
            if bus is not None else NULL_PROBE
        self._p_pie_drop: Probe = bus.probe("queue.pie.drop") \
            if bus is not None else NULL_PROBE

    # -- controller ticks ----------------------------------------------
    def qdelay_estimate_s(self) -> float:
        """Current queueing-delay estimate (0 until a rate exists)."""
        if self.avg_dq_rate <= 0.0:
            return 0.0
        return self.backlog_bytes / self.avg_dq_rate

    def _advance(self) -> None:
        """Apply every controller tick due at the current clock."""
        now = self._clock()
        if now < self._next_update:
            return
        t_update = self.controller.params.t_update_s
        pending = int((now - self._next_update) / t_update) + 1
        if pending > _MAX_CATCHUP_TICKS:
            # Idle far longer than the decay horizon: the RFC
            # controller would have converged to the initial state.
            self.controller.reset()
            self._next_update = now + t_update
            return
        for _ in range(pending):
            qdelay = self.qdelay_estimate_s()
            prob = self.controller.update(qdelay)
            self._next_update += t_update
            if self._p_pie_prob.active:
                self._p_pie_prob.emit(
                    now, self.name, prob, qdelay,
                    self.controller.burst_allowance_s)

    # -- queue interface -----------------------------------------------
    def offer(self, packet: Packet) -> bool:
        self._advance()
        if len(self._queue) >= self.capacity:
            self.drops += 1
            return False
        ctl = self.controller
        half_target = ctl.params.target_delay_s / 2.0
        delay_ok = ctl.qdelay_old_s < half_target
        if ctl.drop_early(delay_ok, self.backlog_bytes, self._rng):
            self.drops += 1
            self.early_drops += 1
            if self._p_pie_drop.active:
                self._p_pie_drop.emit(self._clock(), self.name,
                                      ctl.drop_prob, len(self._queue))
            return False
        return self._admit(packet)

    def _admit(self, packet: Packet) -> bool:
        self.backlog_bytes += packet.size
        return super()._admit(packet)

    def pop(self) -> Optional[Packet]:
        self._advance()
        packet = super().pop()
        if packet is None:
            return None
        self.backlog_bytes -= packet.size
        self._measure_departure(packet.size)
        return packet

    def _measure_departure(self, size: int) -> None:
        """RFC 8033 section 4.3 departure-rate measurement cycle."""
        threshold = self.controller.params.dq_threshold_bytes
        if not self._in_measurement \
                and self.backlog_bytes + size >= threshold:
            self._in_measurement = True
            self._dq_start = self._clock()
            self._dq_count = 0
        if not self._in_measurement:
            return
        self._dq_count += size
        if self._dq_count < threshold:
            return
        dq_time = self._clock() - self._dq_start
        if dq_time > 0.0:
            rate = self._dq_count / dq_time
            if self.avg_dq_rate <= 0.0:
                self.avg_dq_rate = rate
            else:
                self.avg_dq_rate = 0.9 * self.avg_dq_rate + 0.1 * rate
        if self.backlog_bytes >= threshold:
            self._dq_start = self._clock()
            self._dq_count = 0
        else:
            self._in_measurement = False


# ---------------------------------------------------------------------
# FQ-PIE (RFC 8290 scheduling with PIE per flow queue)
# ---------------------------------------------------------------------

class _FlowQueue:
    """One DRR flow queue: a FIFO of (enqueue time, packet) plus its
    own PIE controller state and a smoothed sojourn-delay estimate."""

    __slots__ = ("bucket", "fifo", "controller", "deficit_bytes",
                 "qdelay_s", "next_update", "backlog_bytes")

    def __init__(self, bucket: int, params: Optional[PieParams],
                 now: float) -> None:
        self.bucket = bucket
        self.fifo: Deque[Tuple[float, Packet]] = deque()
        self.controller = PieController(params)
        self.deficit_bytes = 0
        self.qdelay_s = 0.0
        self.next_update = now + self.controller.params.t_update_s
        self.backlog_bytes = 0


def flow_bucket(packet: Packet, n_buckets: int) -> int:
    """Stable flow-hash bucket for a packet.

    Python's built-in string hash is salted per process
    (``PYTHONHASHSEED``), which would make the flow->queue mapping —
    and therefore drop patterns — differ between workers; CRC32 is
    stable everywhere.
    """
    src, sport, dst, dport = packet.flow_key()
    key = f"{src}:{sport}>{dst}:{dport}".encode("utf-8")
    return zlib.crc32(key) % n_buckets


class FQPIEQueue(DropTailQueue):
    """Flow-queue PIE: RFC 8290 DRR scheduling over hashed flow
    queues, each carrying RFC 8033 PIE state (the ``fq_pie`` shape).

    Scheduling follows fq_codel/RFC 8290: new flows join the
    new-queues list and are served before old flows; a flow that
    exhausts its byte deficit moves to the tail of the old list with
    its deficit topped up by ``quantum_bytes``.  Within one flow the
    FIFO order is never reordered.

    Per-flow queueing delay is measured from packet sojourn times at
    dequeue (the RFC 8033 timestamp alternative to departure-rate
    estimation — natural here because a flow queue's service share
    depends on the whole DRR state) and smoothed with an EWMA; each
    flow's controller ticks lazily on its own ``t_update_s`` grid.

    Capacity is shared: a packet arriving to a full aggregate is
    tail-dropped (a deliberate simplification of RFC 8290's
    drop-from-longest-queue, keeping the offer/drop accounting
    identical across disciplines).
    """

    fixed_departures = False  # DRR reorders; sojourn read at dequeue

    #: EWMA weight for the per-flow sojourn-delay estimate.
    DELAY_EWMA = 0.25

    def __init__(self, capacity: int, *,
                 rng: Optional[random.Random] = None,
                 clock: Optional[Callable[[], float]] = None,
                 params: Optional[PieParams] = None,
                 n_buckets: int = 1024,
                 quantum_bytes: int = 1514,
                 bus: Optional["EventBus"] = None,
                 name: str = "fq-pie") -> None:
        super().__init__(capacity)
        if rng is None:
            raise ValueError(
                "FQPIEQueue needs an explicit rng threaded from the "
                "session seed (e.g. sim.rng)")
        if clock is None:
            raise ValueError(
                "FQPIEQueue needs an explicit clock (e.g. lambda: "
                "sim.now); wall clocks would break determinism")
        if n_buckets < 1 or quantum_bytes < 1:
            raise ValueError("n_buckets and quantum must be >= 1")
        self._rng = rng
        self._clock = clock
        self.name = name
        self.params = params if params is not None else PieParams()
        self.n_buckets = n_buckets
        self.quantum_bytes = quantum_bytes
        self.early_drops = 0
        self.backlog_bytes = 0
        self._len = 0
        self._flows: Dict[int, _FlowQueue] = {}
        self._new_queues: Deque[_FlowQueue] = deque()
        self._old_queues: Deque[_FlowQueue] = deque()
        self._p_pie_prob: Probe = bus.probe("queue.pie.prob_update") \
            if bus is not None else NULL_PROBE
        self._p_pie_drop: Probe = bus.probe("queue.pie.drop") \
            if bus is not None else NULL_PROBE

    def __len__(self) -> int:
        return self._len

    # -- per-flow controller ticks -------------------------------------
    def _advance_flow(self, flow: _FlowQueue) -> None:
        now = self._clock()
        if now < flow.next_update:
            return
        t_update = flow.controller.params.t_update_s
        pending = int((now - flow.next_update) / t_update) + 1
        if pending > _MAX_CATCHUP_TICKS:
            flow.controller.reset()
            flow.qdelay_s = 0.0
            flow.next_update = now + t_update
            return
        for _ in range(pending):
            qdelay = flow.qdelay_s if flow.fifo else 0.0
            prob = flow.controller.update(qdelay)
            flow.next_update += t_update
            if self._p_pie_prob.active:
                self._p_pie_prob.emit(
                    now, f"{self.name}[{flow.bucket}]", prob, qdelay,
                    flow.controller.burst_allowance_s)

    # -- queue interface -----------------------------------------------
    def offer(self, packet: Packet) -> bool:
        now = self._clock()
        if self._len >= self.capacity:
            self.drops += 1
            return False
        bucket = flow_bucket(packet, self.n_buckets)
        flow = self._flows.get(bucket)
        if flow is None:
            flow = _FlowQueue(bucket, self.params, now)
            self._flows[bucket] = flow
        self._advance_flow(flow)
        ctl = flow.controller
        half_target = ctl.params.target_delay_s / 2.0
        delay_ok = ctl.qdelay_old_s < half_target
        if ctl.drop_early(delay_ok, flow.backlog_bytes, self._rng):
            self.drops += 1
            self.early_drops += 1
            if self._p_pie_drop.active:
                self._p_pie_drop.emit(
                    now, f"{self.name}[{flow.bucket}]",
                    ctl.drop_prob, len(flow.fifo))
            return False
        if not flow.fifo and flow not in self._new_queues \
                and flow not in self._old_queues:
            flow.deficit_bytes = self.quantum_bytes
            self._new_queues.append(flow)
        flow.fifo.append((now, packet))
        flow.backlog_bytes += packet.size
        self.backlog_bytes += packet.size
        self._len += 1
        self.enqueued += 1
        if self._len > self.max_occupancy:
            self.max_occupancy = self._len
        return True

    def pop(self) -> Optional[Packet]:
        if self._len == 0:
            return None
        now = self._clock()
        while True:
            if self._new_queues:
                flow = self._new_queues[0]
                from_new = True
            elif self._old_queues:
                flow = self._old_queues[0]
                from_new = False
            else:  # pragma: no cover - _len > 0 guarantees a queue
                return None
            if not flow.fifo:
                # Drained flow: a new queue retires, an old queue
                # leaves the rotation until its next arrival.
                if from_new:
                    self._new_queues.popleft()
                else:
                    self._old_queues.popleft()
                continue
            if flow.deficit_bytes <= 0:
                # Deficit spent: move to the tail of the old list
                # with a fresh quantum (RFC 8290 rotation).
                if from_new:
                    self._new_queues.popleft()
                else:
                    self._old_queues.popleft()
                flow.deficit_bytes += self.quantum_bytes
                self._old_queues.append(flow)
                continue
            enq_time, packet = flow.fifo.popleft()
            flow.deficit_bytes -= packet.size
            flow.backlog_bytes -= packet.size
            self.backlog_bytes -= packet.size
            self._len -= 1
            sojourn = max(now - enq_time, 0.0)
            flow.qdelay_s += self.DELAY_EWMA * (sojourn - flow.qdelay_s)
            self._advance_flow(flow)
            return packet


# ---------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------

def make_queue(discipline: str, capacity: int, *,
               rng: Optional[random.Random] = None,
               clock: Optional[Callable[[], float]] = None,
               bus: Optional["EventBus"] = None,
               name: str = "") -> DropTailQueue:
    """Build a bottleneck queue for a discipline name.

    ``rng``/``clock``/``bus`` are threaded from the owning simulator;
    disciplines that do not need one simply ignore it.  Raises
    ``ValueError`` for names outside :data:`QUEUE_DISCIPLINES`.
    """
    if discipline == "droptail":
        return DropTailQueue(capacity)
    if discipline == "red":
        return REDQueue(capacity, rng=rng)
    if discipline == "pie":
        return PIEQueue(capacity, rng=rng, clock=clock, bus=bus,
                        name=name or "pie")
    if discipline == "fq-pie":
        return FQPIEQueue(capacity, rng=rng, clock=clock, bus=bus,
                          name=name or "fq-pie")
    raise ValueError(
        f"unknown queue discipline {discipline!r}; choose from "
        f"{list(QUEUE_DISCIPLINES)}")
