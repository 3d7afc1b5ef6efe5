"""The one registry of observability names.

Every name the repository can emit is declared here, once:

``probe``
    A typed event stream on the simulator's
    :class:`~repro.obs.bus.EventBus` (``bus.probe(name)``); ``fields``
    are the payload values each emission carries after its time.
``span``
    A timed, nested campaign region (``Telemetry.span(name)``).
``counter``
    A monotonically increasing count: a campaign counter
    (``Metrics.counter(name)``, split by one string label) or a health
    exposition sample (``sample_line``).
``gauge``
    A last-write-wins value (``Metrics.gauge``, ``sample_line``).
``histogram``
    A :class:`~repro.obs.health.LogHistogram` (``Metrics.histogram``,
    ``histogram_lines``).

For a metric, ``fields`` are its label names.  Each accessor checks
the name and kind at runtime through :func:`declared`; repro-lint
RL003 checks every literal call site under ``src/`` against this
table, flags an emit with the wrong number of payload values, and
flags an entry that no call site uses.  The Prometheus exposition name
of a metric is derived, never declared: :func:`prometheus_name`.

This module imports nothing from ``repro``, so every layer can read it.
"""

from __future__ import annotations

from typing import Dict, Tuple

KINDS = ("probe", "span", "counter", "gauge", "histogram")

#: name -> (kind, fields, help)
NAMES: Dict[str, Tuple[str, Tuple[str, ...], str]] = {
    # -- probes: engine ------------------------------------------------
    "engine.event": ("probe", ("pending",), "One event fired"),
    "engine.compact": ("probe", ("removed", "pending"),
                       "Cancelled events purged from the calendar"),
    # -- probes: links and queues --------------------------------------
    "link.enqueue": ("probe", ("link", "packet", "qlen"),
                     "Packet admitted to a link buffer"),
    "link.drop": ("probe", ("link", "packet", "qlen"),
                  "Packet dropped at a link buffer"),
    "link.send": ("probe", ("link", "packet"),
                  "Packet serialisation finished"),
    "link.recv": ("probe", ("link", "packet"),
                  "Packet delivered at the far end"),
    "queue.pie.prob_update": ("probe",
                              ("queue", "prob", "qdelay", "burst"),
                              "PIE controller tick"),
    "queue.pie.drop": ("probe", ("queue", "prob", "qlen"),
                       "PIE early (non-overflow) drop"),
    # -- probes: TCP senders -------------------------------------------
    "tcp.cwnd": ("probe", ("flow", "cwnd", "ssthresh"),
                 "Congestion window change"),
    "tcp.timeout": ("probe", ("flow", "rto", "backoff"),
                    "Retransmission timeout"),
    "tcp.fast_retransmit": ("probe", ("flow", "seq"),
                            "Fast retransmit on duplicate ACKs"),
    "tcp.retransmit": ("probe", ("flow", "seq"),
                       "Segment retransmitted"),
    "tcp.rtt_sample": ("probe", ("flow", "rtt"), "RTT sample taken"),
    "tcp.send_buffer": ("probe", ("flow", "buffered"),
                        "Send-buffer occupancy change"),
    # -- probes: server and client -------------------------------------
    "server_queue.push": ("probe", ("depth",),
                          "Video packet queued at the server"),
    "server_queue.fetch": ("probe", ("flow", "depth"),
                           "Video packet fetched by a TCP flow"),
    "source.generate": ("probe", ("number",),
                        "Video packet generated"),
    "streamer.assign": ("probe", ("path", "number"),
                        "Video packet assigned to a path"),
    "client.arrival": ("probe", ("path", "number"),
                       "Video packet arrived at the client"),
    "client.buffer": ("probe", ("level",),
                      "Client playout buffer level"),
    "campaign.session_done": ("probe",
                              ("session", "received", "total"),
                              "A session's video ended (received by "
                              "then)"),
    # -- probes: health layer ------------------------------------------
    "health.stall": ("probe", ("session", "duration", "rebuffers"),
                     "A session's playout clock starved"),
    "health.trigger": ("probe", ("session", "kind", "value"),
                       "A flight-recorder trigger froze a ring"),
    # -- spans ---------------------------------------------------------
    "campaign": ("span", (), "One CLI invocation (label: target)"),
    "target": ("span", (), "One figure/table builder"),
    "setting": ("span", (), "One run_setting() call"),
    "executor.map": ("span", (), "One ReplicationExecutor.map()"),
    "retry": ("span", (), "Serial re-run of a crashed worker item"),
    "replication": ("span", (), "One simulate_run() replication"),
    "solve": ("span", (), "One solve_batch() kernel call: the tasks "
              "of one flow count (attrs: tasks, flows)"),
    "internet.campaign": ("span", (), "run_internet_experiments()"),
    "sweep.fig8": ("span", (), "fig8_curves() model grid"),
    "mc.compile": ("span", (), "MC kernel one-time table compile"),
    "mc.run": ("span", (), "MC kernel lockstep loop over a batch of "
               "solves (label: mode; attrs: tasks, replicas, blocks)"),
    # -- campaign counters, gauges and histograms ----------------------
    "cache.hit": ("counter", ("kind",), "Result-cache hits"),
    "cache.miss": ("counter", ("kind",), "Result-cache misses"),
    "cache.corrupt": ("counter", ("kind",),
                      "Corrupt cache records (label carries a key "
                      "prefix)"),
    "cache.write": ("counter", ("kind",), "Result-cache writes"),
    "executor.serial_fallback": ("counter", (),
                                 "Maps run serially: no pool"),
    "executor.crash_retry": ("counter", (),
                             "Worker crashes retried serially"),
    "mc.blocks": ("counter", (), "RNG blocks drawn by the MC kernel"),
    "executor.utilization": ("gauge", (),
                             "Busy time / (workers * span) of the "
                             "last pooled map"),
    "executor.item_seconds": ("histogram", (),
                              "Per-item work duration, seconds"),
    "executor.queue_wait_seconds": ("histogram", (),
                                    "Per-item submit-to-start wait, "
                                    "seconds"),
    # -- health exposition (repro.obs.export) --------------------------
    "campaign.sessions": ("gauge", (),
                          "Sessions aggregated in this campaign "
                          "rollup"),
    "campaign.sessions_done": ("gauge", (),
                               "Sessions whose video ended within the "
                               "run"),
    "campaign.drops_total": ("counter", (),
                             "Bottleneck packet drops observed"),
    "campaign.stall_events_total": ("counter", (),
                                    "Playout stall (rebuffer) events "
                                    "across sessions"),
    "session.late_fraction": ("gauge", ("session",),
                              "Per-session late fraction at the "
                              "reference tau"),
    "session.startup_delay_seconds": ("gauge", ("session",),
                                      "Per-session first-arrival "
                                      "startup delay"),
    "session.stall_seconds_total": ("counter", ("session",),
                                    "Per-session total playout stall "
                                    "time"),
    "session.rebuffers_total": ("counter", ("session",),
                                "Per-session rebuffer event count"),
    "session.path_share": ("gauge", ("session", "path"),
                           "Per-session fraction of packets per path"),
    "late_fraction": ("histogram", (),
                      "Population late fraction at the reference tau"),
    "startup_delay_seconds": ("histogram", (),
                              "Population startup delay"),
    "stall_seconds": ("histogram", (),
                      "Population per-session total stall time"),
    "cwnd_packets": ("histogram", (),
                     "Congestion window samples across video flows"),
    "send_buffer_packets": ("histogram", (),
                            "Send-buffer occupancy samples across "
                            "flows"),
    "queue_occupancy_packets": ("histogram", (),
                                "Polled bottleneck queue occupancy"),
}


def declared(name: str, *kinds: str) -> Tuple[str, ...]:
    """The fields of ``name``; ValueError unless its kind is one of
    ``kinds``."""
    entry = NAMES.get(name)
    if entry is None or entry[0] not in kinds:
        found = entry[0] if entry is not None else None
        raise ValueError(
            f"{name!r} is not a declared {' or '.join(kinds)} (NAMES "
            f"has {found!r}); declare it in repro.obs.names.NAMES")
    return entry[1]


def prometheus_name(name: str) -> str:
    """Exposition name of a metric: ``session.late_fraction`` ->
    ``repro_session_late_fraction``."""
    return "repro_" + name.replace(".", "_")
