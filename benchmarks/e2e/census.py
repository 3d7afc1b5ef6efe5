"""Per-layer tracing for the end-to-end benchmark.

Everything is installed from the benchmark's side, around the calls
into each layer, and removed afterwards; the program itself is not
changed:

* :class:`LayerTrace` patches ``Simulator.at`` at class level to count
  scheduled and fired callbacks with their inclusive time, keyed by
  the callback's module and ``__qualname__``; patches ``Link.enqueue``
  to count offers and drops; opens a ``repro.telemetry`` session for
  the replication / solve / ``mc.*`` spans and cache counters; and
  times the get/put methods of the workload's result cache.
* :func:`profile_shares` splits the self time of one cProfile pass by
  layer.

Spans and counts stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Tuple)

import repro
from repro import telemetry
from repro.experiments.cache import ResultCache
from repro.sim.engine import Simulator
from repro.sim.link import Link

if TYPE_CHECKING:
    from workloads import Outcome

#: Layers of the program, as ``repro.<package>``; ``sim.link`` is
#: split out of ``sim`` because link callbacks dominate the calendar.
LAYERS = ("sim", "tcp", "traffic", "core", "obs", "model", "experiments")


def layer_of_module(module: str) -> str:
    """``repro.sim.link`` -> ``sim.link``, ``repro.tcp.reno`` ->
    ``tcp``; anything outside the layers -> ``other``."""
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro" or parts[1] not in LAYERS:
        return "other"
    if parts[1] == "sim" and len(parts) > 2:
        return f"sim.{parts[2]}"
    return parts[1]


def _label(fn: Any) -> str:
    module = getattr(fn, "__module__", None) or type(fn).__module__
    qualname = getattr(fn, "__qualname__", None) \
        or type(fn).__qualname__
    return f"{module}:{qualname}"


class LayerTrace:
    """Context manager installing the census, a telemetry session and
    cache timers for one traced iteration."""

    def __init__(self) -> None:
        self.scheduled: Dict[str, int] = defaultdict(int)
        self.fired: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.offers = 0
        self.drops = 0
        self.cache_seconds = 0.0
        self.tel: Optional[telemetry.Telemetry] = None
        self._restore: Optional[Tuple[Any, Any]] = None

    def __enter__(self) -> "LayerTrace":
        census = self
        scheduled, fired, seconds = self.scheduled, self.fired, \
            self.seconds
        labels: Dict[Any, str] = {}
        clock = time.perf_counter
        orig_at, orig_enqueue = Simulator.at, Link.enqueue

        def at(sim: Simulator, when: float, callback: Any,
               *args: Any) -> Any:
            fn = getattr(callback, "__func__", callback)
            label = labels.get(fn)
            if label is None:
                label = labels[fn] = _label(fn)
            scheduled[label] += 1

            def fire(*fire_args: Any) -> None:
                t0 = clock()
                callback(*fire_args)
                seconds[label] += clock() - t0
                fired[label] += 1
            return orig_at(sim, when, fire, *args)

        def enqueue(link: Link, packet: Any) -> None:
            drops = link.queue.drops
            orig_enqueue(link, packet)
            census.offers += 1
            if link.queue.drops != drops:
                census.drops += 1

        Simulator.at = at  # type: ignore[method-assign]
        Link.enqueue = enqueue  # type: ignore[method-assign]
        self._restore = (orig_at, orig_enqueue)
        self.tel = telemetry.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        assert self.tel is not None and self._restore is not None
        telemetry.stop(self.tel)
        Simulator.at, Link.enqueue = \
            self._restore  # type: ignore[method-assign]

    def watch_cache(self, cache: Optional[ResultCache]) -> None:
        """Time every ``get_*``/``put_*`` call on this cache instance."""
        if cache is None:
            return
        for name in dir(type(cache)):
            if name.startswith(("get_", "put_")):
                setattr(cache, name, self._timed(getattr(cache, name)))

    def _timed(self, method: Callable[..., Any]) -> Callable[..., Any]:
        def timed(*args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                self.cache_seconds += time.perf_counter() - t0
        return timed

    # -- summaries ------------------------------------------------------
    def counts(self) -> Dict[str, List[int]]:
        """label -> [scheduled, fired], for determinism checks."""
        return {label: [self.scheduled[label], self.fired.get(label, 0)]
                for label in sorted(self.scheduled)}

    def by_layer(self) -> Dict[str, Dict[str, float]]:
        """layer -> scheduled / fired / inclusive seconds."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"scheduled": 0, "fired": 0, "seconds": 0.0})
        for label, n in self.scheduled.items():
            row = out[layer_of_module(label.split(":")[0])]
            row["scheduled"] += n
            row["fired"] += self.fired.get(label, 0)
            row["seconds"] += self.seconds.get(label, 0.0)
        return dict(out)

    def spans(self) -> List[telemetry.Span]:
        assert self.tel is not None
        return [span for root in self.tel.roots for span in root.walk()]


def profile_shares(profiler: cProfile.Profile) -> Dict[str, float]:
    """The share of the profiled self time spent in each layer
    (``sim`` includes ``sim.*``)."""
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    src = Path(repro.__file__).resolve().parents[1]
    self_time: Dict[str, float] = defaultdict(float)
    for (filename, _, _), entry in stats.items():
        try:
            rel = Path(filename).resolve().relative_to(src)
        except ValueError:
            layer = "other"
        else:
            layer = layer_of_module(".".join(rel.with_suffix("").parts))
        self_time[layer] += entry[2]
    total = sum(self_time.values())
    shares = {layer: _frac(t, total)
              for layer, t in sorted(self_time.items())}
    shares["sim"] = sum(share for layer, share in shares.items()
                        if layer == "sim" or layer.startswith("sim."))
    return shares


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: LayerTrace, outcome: "Outcome",
                  traced_wall: float, traced_cpu: float,
                  untraced_cpu: float, cache_bytes: int,
                  shares: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced iteration."""
    layers = trace.by_layer()
    empty = {"scheduled": 0, "fired": 0, "seconds": 0.0}
    link, tcp = layers.get("sim.link", empty), layers.get("tcp", empty)
    scheduled = sum(row["scheduled"] for row in layers.values())
    fired = sum(row["fired"] for row in layers.values())
    callback_s = sum(row["seconds"] for row in layers.values())
    video = outcome.video_pkts

    spans = trace.spans()
    solves = [s.duration_s for s in spans if s.name == "solve"]
    compile_s = sum(s.duration_s for s in spans if s.name == "mc.compile")
    seen, resimulated, simulate_s = set(), 0, 0.0
    for span in spans:
        if span.name == "replication":
            simulate_s += span.duration_s
            key = (span.label, span.attrs.get("seed"))
            resimulated += key in seen
            seen.add(key)
    assert trace.tel is not None
    counters = {c.name: c.total for c in trace.tel.metrics.counters()}
    hits, misses = counters.get("cache.hit", 0), \
        counters.get("cache.miss", 0)
    model_s = sum(solves)
    rel_err = [se / f for f, se in outcome.estimates if f > 0]
    pool = outcome.pool

    return {
        "sim.engine.events": fired,
        "sim.engine.events_per_video_pkt": _frac(fired, video),
        "sim.engine.cpu_us_per_event": _frac(callback_s, fired) * 1e6,
        "sim.engine.unfired_frac": _frac(scheduled - fired, scheduled),
        "sim.link.events_frac": _frac(link["fired"], fired),
        "sim.link.events_per_offer": _frac(link["fired"], trace.offers),
        "sim.link.cpu_frac": shares.get("sim.link", 0.0),
        "sim.queueing.drop_frac": _frac(trace.drops, trace.offers),
        "sim.pool.reuse_frac":
            _frac(pool.recycled, pool.acquired) if pool else 0.0,
        "sim.cpu_frac": shares.get("sim", 0.0),
        "tcp.timer_events_frac": _frac(tcp["scheduled"], scheduled),
        "tcp.timer_unfired_frac":
            _frac(tcp["scheduled"] - tcp["fired"], tcp["scheduled"]),
        "tcp.cpu_frac": shares.get("tcp", 0.0),
        "traffic.events_frac":
            _frac(layers.get("traffic", empty)["fired"], fired),
        "traffic.cpu_frac": shares.get("traffic", 0.0),
        "core.events_per_video_pkt":
            _frac(layers.get("core", empty)["fired"], video),
        "core.cpu_frac": shares.get("core", 0.0),
        "obs.cpu_frac": shares.get("obs", 0.0),
        "model.solves": len(solves),
        "model.cpu_s_per_solve": _frac(model_s, len(solves)),
        "model.mc_blocks": counters.get("mc.blocks", 0),
        "model.compile_frac": _frac(compile_s, model_s),
        "model.rel_stderr_p50":
            statistics.median(rel_err) if rel_err else 0.0,
        "model.cpu_frac": shares.get("model", 0.0),
        "experiments.simulate_frac": _frac(simulate_s, traced_wall),
        "experiments.model_frac": _frac(model_s, traced_wall),
        "experiments.cache_frac": _frac(trace.cache_seconds, traced_wall),
        "experiments.other_frac": max(_frac(
            traced_wall - simulate_s - model_s - trace.cache_seconds,
            traced_wall), 0.0),
        "experiments.cache.hit_frac": _frac(hits, hits + misses),
        "experiments.cache.resimulated_runs": resimulated,
        "experiments.cache.bytes": cache_bytes,
        "experiments.cpu_frac": shares.get("experiments", 0.0),
        "trace.overhead_frac": _frac(traced_cpu, untraced_cpu) - 1.0,
    }


def tree_bytes(root: str) -> int:
    """Total size of the regular files under ``root``."""
    return sum(p.stat().st_size for p in Path(root).rglob("*")
               if p.is_file())
