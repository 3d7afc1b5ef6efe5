"""Event loop for the discrete-event simulator.

The engine is a classic calendar built on a binary heap.  Events are
callbacks scheduled at absolute times; ties are broken by insertion
order so the simulation is fully deterministic for a given seed.

The simulator also owns the instrumentation :class:`~repro.obs.bus.EventBus`
all components emit probe events through; with no subscribed sink the
probes cost one ``active``-flag load per emission site.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
from typing import (TYPE_CHECKING, Any, Callable, Iterator, List,
                    Optional, Tuple)

from repro.obs.bus import EventBus

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.pool import PacketPool

#: Bound once: ``Simulator.at`` runs for every calendar entry.
_heappush = heapq.heappush

#: Cancelled events are removed lazily; the heap is compacted when more
#: than half the calendar is dead weight (and it is worth the rebuild).
_COMPACT_MIN_SIZE = 64


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` /
    :meth:`Simulator.at` and may be cancelled before they fire.  A
    cancelled event stays in the heap until the event loop skips it or
    a compaction sweep removes it.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled",
                 "calendar")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: Tuple[Any, ...],
                 calendar: Optional["Simulator"] = None) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.calendar = calendar

    def cancel(self) -> None:
        """Prevent this event from firing; a no-op once it has fired."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.calendar is not None:
            self.calendar._note_cancelled(self)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} {self.callback!r} {state}>"


class Timer:
    """A re-armable timer that keeps at most one calendar entry.

    :meth:`set` arms the timer for an absolute ``deadline`` (re-arming
    it if armed), :meth:`clear` disarms it, and :attr:`deadline` reads
    the armed expiry (``None`` when disarmed).  ``callback()`` runs
    once per arming, when the deadline is reached, at exactly the
    place in the calendar's ``(time, seq)`` order that cancelling and
    rescheduling an event on every ``set`` would give it:

    * each ``set`` draws the tie-break key that a fresh event would
      draw, so every other event keeps the key it would have had;
    * a later deadline leaves the pending entry where it is; an entry
      that pops before the deadline, or at it under an older key,
      re-enters the calendar at the deadline under the current key;
    * an earlier deadline cancels the entry and schedules a new one;
    * an entry that pops while the timer is cleared is dropped.

    Entries are scheduled through :meth:`Simulator.at` like any other
    event, and the entry callback carries ``callback``'s name and
    module, so code that wraps ``at`` to account events per callback
    sees each timer entry under its owner.
    """

    __slots__ = ("deadline", "_sim", "_callback", "_key", "_entry",
                 "_pop")

    def __init__(self, sim: "Simulator",
                 callback: Callable[[], Any]) -> None:
        self.deadline: Optional[float] = None
        self._sim = sim
        self._callback = callback
        self._key = -1  # tie-break key of the current deadline
        self._entry: Optional[Event] = None

        def pop() -> None:
            self._on_pop()
        self._pop: Callable[[], None] = functools.wraps(callback)(pop)

    def set(self, deadline: float) -> None:
        """Arm the timer to expire at absolute time ``deadline``."""
        sim = self._sim
        entry = self._entry
        if entry is None or entry.time > deadline:
            self._entry = sim.at(deadline, self._pop)
            self._key = self._entry.seq
            if entry is not None:
                entry.cancel()
        else:
            # The pending entry is due no later than the deadline (so
            # the deadline is not in the past); it re-enters on pop.
            self._key = next(sim._counter)
        self.deadline = deadline

    def clear(self) -> None:
        """Disarm the timer; its pending entry is dropped when it pops."""
        self.deadline = None

    def _on_pop(self) -> None:
        entry = self._entry
        assert entry is not None
        self._entry = None
        deadline = self.deadline
        if deadline is None:
            return
        if deadline == entry.time and self._key == entry.seq:
            self.deadline = None
            self._callback()
            return
        # Re-enter under the current key: ``at`` draws its key from
        # the counter, so hand it exactly this one.
        sim = self._sim
        counter = sim._counter
        sim._counter = iter((self._key,))
        try:
            self._entry = sim.at(deadline, self._pop)
        finally:
            sim._counter = counter


class Simulator:
    """Discrete-event simulation kernel.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random stream.  All stochastic
        components (background traffic, jitter) must draw from
        :attr:`rng` so runs are reproducible.
    bus:
        Instrumentation bus; by default each simulator owns a fresh
        :class:`~repro.obs.bus.EventBus`.
    """

    def __init__(self, seed: Optional[int] = None,
                 bus: Optional[EventBus] = None) -> None:
        self.now: float = 0.0
        # Calendar entries are (time, seq, event) tuples, not bare
        # events: tuple comparison is C-level, and with ~13 heap
        # comparisons per event a Python ``__lt__`` dominates the
        # run-loop profile.
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter: Iterator[int] = itertools.count()
        self.rng = random.Random(seed)
        self._processed = 0
        self._cancelled = 0
        self.bus = bus if bus is not None else EventBus()
        # Optional packet recycler for campaign-scale runs.  ``None``
        # (the default) keeps per-packet allocation semantics; when a
        # pool is installed, senders/receivers acquire from it and the
        # network layers release at drop/delivery/dead-letter sinks
        # (see repro.sim.pool for the ownership contract).
        self.pool: Optional["PacketPool"] = None
        self._p_event = self.bus.probe("engine.event")
        self._p_compact = self.bus.probe("engine.compact")

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.at(self.now + delay, callback, *args)

    def at(self, time: float, callback: Callable[..., Any],
           *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < {self.now}")
        seq = next(self._counter)
        event = Event(time, seq, callback, args, self)
        _heappush(self._heap, (time, seq, event))
        return event

    def timer(self, callback: Callable[[], Any]) -> Timer:
        """A disarmed :class:`Timer` running ``callback()`` on expiry."""
        return Timer(self, callback)

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self, event: Event) -> None:
        # An event that has already fired is no longer in the heap and
        # must not count.  Times never go backwards, so only an event
        # due at the current instant needs the membership scan.
        if event.time < self.now or (
                event.time == self.now
                and all(entry[2] is not event for entry in self._heap)):
            return
        self._cancelled += 1
        if len(self._heap) > _COMPACT_MIN_SIZE \
                and self._cancelled * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        The heap's pop order is the total order ``(time, seq)``, so
        rebuilding never changes which live event fires next.  The list
        is rebuilt *in place* because :meth:`run` holds a reference to
        it across callbacks (and a callback may cancel enough events to
        trigger compaction mid-loop).
        """
        before = len(self._heap)
        self._heap[:] = [entry for entry in self._heap
                         if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
        if self._p_compact.active:
            self._p_compact.emit(self.now, before - len(self._heap),
                                 len(self._heap))

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """End the current :meth:`run` once the running callback returns.

        Later entries, even those due at the same instant, stay in the
        calendar; :attr:`now` stays at the stopping event's time (it is
        not advanced to the horizon), and the next :meth:`run` resumes
        from there.
        """
        # ``run`` loops over the list it started with.  Moving the
        # entries to a fresh list empties that one, so the loop ends
        # after the running callback while events the callback still
        # schedules land in the new calendar: no per-event check.
        heap = self._heap
        self._heap = heap[:]
        heap.clear()

    def step(self) -> bool:
        """Run the next pending event.  Returns False if none remain."""
        return self.run(max_events=1) > 0

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Run events until the horizon ``until`` or the heap drains.

        When ``until`` is given the clock is advanced to exactly
        ``until`` on return, even if the last event fired earlier,
        unless a callback called :meth:`stop`.
        Returns the number of events executed.  This single loop is the
        only place events are popped (``step`` delegates here); it is
        deliberately inline — the simulator spends most of its wall
        clock in this loop, and a helper call per event is measurable.
        """
        # Identity stable until ``stop``: _compact rebuilds in place.
        heap = self._heap
        pop = heapq.heappop
        p_event = self._p_event
        processed = 0
        while heap:
            event = heap[0][2]
            if event.cancelled:
                pop(heap)
                self._cancelled -= 1
                continue
            if until is not None and event.time > until:
                break
            pop(heap)
            self.now = event.time
            self._processed += 1
            if p_event.active:
                p_event.emit(self.now, len(heap))
            event.callback(*event.args)
            processed += 1
            if max_events is not None and processed >= max_events:
                return processed
        if heap is not self._heap:  # stopped
            return processed
        if until is not None and self.now < until:
            self.now = until
        return processed

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Live events still in the calendar (net of cancellations).

        A cleared :class:`Timer`'s entry counts until it pops."""
        return len(self._heap) - self._cancelled
