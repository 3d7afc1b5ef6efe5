"""The instrumentation bus: typed probe points with pluggable sinks.

Every layer of the simulator declares *probe points* — named, typed
event streams such as ``link.drop`` or ``tcp.cwnd``, each a ``probe``
entry of :data:`repro.obs.names.NAMES` — on the :class:`EventBus`
owned by its :class:`~repro.sim.engine.Simulator`.
Sinks subscribe by topic (exact name, ``"link.*"`` prefix, or ``"*"``)
and receive ``(topic, time, values)`` triples.

The contract that makes instrumentation free in production runs:
emission sites guard on the probe's ``active`` flag::

    if self._p_drop.active:
        self._p_drop.emit(self.sim.now, self.name, packet, len(queue))

With no subscriber the guard is one attribute load of a plain bool
(``__bool__`` would be a Python-level call — measurably slower at
millions of emission sites per run) and ``emit`` is never entered, so
a run without sinks pays (almost) nothing.  Emission *order* at equal simulated time follows call order,
which is deterministic for a fixed seed — sinks therefore see a
reproducible event stream.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Protocol, Sequence, Tuple

from repro.obs.names import declared

Subscriber = Callable[[str, float, Tuple[Any, ...]], None]


class Sink(Protocol):
    """A subscriber object that declares its own topic patterns.

    Anything passed to :meth:`EventBus.attach` must expose ``patterns``
    (a sequence of subscription patterns) and be callable with the
    usual ``(topic, time, values)`` triple.
    """

    @property
    def patterns(self) -> Sequence[str]: ...

    def __call__(self, topic: str, time: float,
                 values: Tuple[Any, ...]) -> None: ...


class Probe:
    """One typed probe point.

    A probe is shared by every emitter of its topic on one bus.
    ``active`` is True exactly while something is subscribed; emitters
    guard on it (a plain attribute load, not a method call — measured
    to matter at millions of emission sites per run).  Truthiness
    mirrors ``active`` for convenience.  ``emissions`` counts actual
    ``emit`` calls (i.e. events that at least one sink observed).
    """

    __slots__ = ("topic", "fields", "subscribers", "emissions",
                 "active")

    def __init__(self, topic: str, fields: Tuple[str, ...]) -> None:
        self.topic = topic
        self.fields = fields
        self.subscribers: List[Subscriber] = []
        self.emissions = 0
        self.active = False

    def __bool__(self) -> bool:
        return self.active

    def emit(self, time: float, *values: Any) -> None:
        """Deliver one event to every subscriber, in subscribe order."""
        self.emissions += 1
        for subscriber in self.subscribers:
            subscriber(self.topic, time, values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Probe {self.topic}{self.fields} "
                f"subs={len(self.subscribers)}>")


#: A permanently inactive probe, for components constructed without a
#: simulator (``sim=None``): emission guards stay a plain
#: ``probe.active`` load with no None-check.
NULL_PROBE = Probe("null", ())


def _matches(pattern: str, topic: str) -> bool:
    if pattern == "*":
        return True
    if pattern.endswith(".*"):
        return topic.startswith(pattern[:-1]) or topic == pattern[:-2]
    return topic == pattern


class EventBus:
    """Probe registry + subscription fabric for one simulator.

    Probes are created lazily by the components that emit them;
    subscriptions may happen before or after the emitters exist (a
    pattern is kept and applied to probes declared later).
    """

    def __init__(self) -> None:
        self._probes: Dict[str, Probe] = {}
        self._patterns: List[Tuple[str, Subscriber]] = []

    # -- probe side ----------------------------------------------------
    def probe(self, topic: str) -> Probe:
        """The (shared) probe for ``topic``, a declared probe name in
        :data:`repro.obs.names.NAMES`."""
        existing = self._probes.get(topic)
        if existing is not None:
            return existing
        probe = Probe(topic, declared(topic, "probe"))
        for pattern, subscriber in self._patterns:
            if _matches(pattern, topic):
                probe.subscribers.append(subscriber)
        probe.active = bool(probe.subscribers)
        self._probes[topic] = probe
        return probe

    def topics(self) -> List[str]:
        """Topics with a declared probe, sorted."""
        return sorted(self._probes)

    def emissions(self) -> Dict[str, int]:
        """Per-topic count of events actually emitted so far."""
        return {topic: probe.emissions
                for topic, probe in sorted(self._probes.items())}

    # -- sink side -----------------------------------------------------
    def subscribe(self, pattern: str, subscriber: Subscriber) -> None:
        """Subscribe to every topic matching ``pattern``.

        ``pattern`` is an exact topic, a ``"prefix.*"`` wildcard, or
        ``"*"`` for everything.  The subscriber is called as
        ``subscriber(topic, time, values)``.
        """
        self._patterns.append((pattern, subscriber))
        for topic, probe in self._probes.items():
            if _matches(pattern, topic) \
                    and subscriber not in probe.subscribers:
                probe.subscribers.append(subscriber)
                probe.active = True

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Remove ``subscriber`` from every pattern and probe."""
        self._patterns = [(pat, sub) for pat, sub in self._patterns
                          if sub is not subscriber]
        for probe in self._probes.values():
            if subscriber in probe.subscribers:
                probe.subscribers.remove(subscriber)
                probe.active = bool(probe.subscribers)

    def attach(self, sink: Sink) -> None:
        """Subscribe a sink object: uses its ``patterns`` attribute."""
        for pattern in sink.patterns:
            self.subscribe(pattern, sink)

    def detach(self, sink: Sink) -> None:
        self.unsubscribe(sink)

    @property
    def quiet(self) -> bool:
        """True when no probe has any subscriber."""
        return not self._patterns and not any(
            probe.subscribers for probe in self._probes.values())
