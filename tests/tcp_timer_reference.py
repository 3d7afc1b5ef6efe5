"""Test-only reference: the eager cancel-and-reschedule TCP timers.

These are the timers the TCP code used before
:class:`repro.sim.engine.Timer`: every ``set`` cancels the pending
event and schedules a new one at the deadline, every ``clear``
cancels it.  The RTO timer is re-armed on each ACK and the
delayed-ACK timer is cancelled by each ACK, so most of these events
never fire.

:class:`EagerTimer` has the lazy timer's interface; the reference
sender and receiver classes are the production classes with it
installed in place of ``sim.timer``.  ``tests/test_tcp_timer_differential.py``
drives them and the production classes through the same scenarios and
requires identical observable behaviour, exact-time ties included.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Event, Simulator
from repro.tcp.receiver import TcpReceiver
from repro.tcp.reno import RenoSender
from repro.tcp.sack import SackSender


class EagerTimer:
    """One calendar event per ``set``; ``clear`` cancels it."""

    def __init__(self, sim: Simulator, callback: Callable[[], Any]):
        self.sim = sim
        self.callback = callback
        self.deadline: Optional[float] = None
        self._event: Optional[Event] = None

    def set(self, deadline: float) -> None:
        if self._event is not None:
            self._event.cancel()
        self._event = self.sim.at(deadline, self._fire)
        self.deadline = deadline

    def clear(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self.deadline = None

    def _fire(self) -> None:
        self._event = None
        self.deadline = None
        self.callback()


class EagerRenoSender(RenoSender):
    def __init__(self, sim: Simulator, *args: Any, **kwargs: Any):
        super().__init__(sim, *args, **kwargs)
        self._rto = EagerTimer(sim, self._on_timeout)


class EagerSackSender(SackSender):
    def __init__(self, sim: Simulator, *args: Any, **kwargs: Any):
        super().__init__(sim, *args, **kwargs)
        self._rto = EagerTimer(sim, self._on_timeout)


class EagerTcpReceiver(TcpReceiver):
    def __init__(self, sim: Simulator, *args: Any, **kwargs: Any):
        super().__init__(sim, *args, **kwargs)
        self._delack = EagerTimer(sim, self._on_delack_timer)
